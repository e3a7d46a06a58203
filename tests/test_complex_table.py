"""Unit tests for the canonical complex-number table."""

import math

import pytest

from repro.dd.complex_table import ComplexTable


def test_exact_values_intern_to_same_object_value():
    table = ComplexTable()
    a = table.lookup(0.5 + 0.25j)
    b = table.lookup(0.5 + 0.25j)
    assert a == b


def test_values_within_tolerance_merge():
    table = ComplexTable(tolerance=1e-10)
    a = table.lookup(complex(math.sqrt(0.5), 0.0))
    b = table.lookup(complex(math.sqrt(0.5) + 3e-11, 0.0))
    assert a == b
    c = table.lookup(complex(math.sqrt(0.5), -4e-11))
    assert a == c


def test_values_beyond_tolerance_stay_distinct():
    table = ComplexTable(tolerance=1e-10)
    a = table.lookup(0.3 + 0j)
    b = table.lookup(0.3 + 5e-9 + 0j)
    assert a != b


def test_negative_zero_normalised():
    table = ComplexTable()
    value = table.lookup(complex(-0.0, -0.0))
    assert math.copysign(1.0, value.real) == 1.0
    assert math.copysign(1.0, value.imag) == 1.0
    assert value == 0


def test_zero_detection():
    table = ComplexTable(tolerance=1e-10)
    assert table.is_zero(0)
    assert table.is_zero(5e-11 + 5e-11j)
    assert not table.is_zero(1e-9)
    assert table.is_one(1.0 + 0j)
    assert table.is_one(1.0 + 5e-11j)
    assert not table.is_one(1.0001)


def test_seeded_constants_are_canonical():
    table = ComplexTable()
    # sqrt(1/2) computed independently should snap to the seeded constant.
    value = table.lookup(complex(1.0 / math.sqrt(2.0), 0.0))
    assert value == table.lookup(complex(math.sqrt(0.5), 0.0))


def test_hit_miss_counters():
    table = ComplexTable()
    misses0 = table.misses
    table.lookup(0.123 + 0.456j)
    assert table.misses == misses0 + 1
    table.lookup(0.123 + 0.456j)
    assert table.hits >= 1


def test_clear_reseeds():
    table = ComplexTable()
    table.lookup(0.777 + 0j)
    table.clear()
    assert table.lookup(1.0 + 0j) == 1.0  # seeded constants still present
    assert len(table) > 0


def test_invalid_tolerance():
    with pytest.raises(ValueError):
        ComplexTable(tolerance=0.0)
    with pytest.raises(ValueError):
        ComplexTable(tolerance=-1e-9)


def test_boundary_bucket_neighbours():
    # Two values straddling a bucket boundary but within tolerance merge.
    tol = 1e-10
    table = ComplexTable(tolerance=tol)
    base = 7.05e-10  # near a bucket edge
    a = table.lookup(complex(base - 0.4 * tol, 0))
    b = table.lookup(complex(base + 0.4 * tol, 0))
    assert a == b


def test_relative_guard_keeps_tiny_weights_distinct():
    # Two weights inside the absolute window but far apart relative to
    # their own magnitude must not unify: snapping one to the other is
    # a large relative error that left-most normalisation amplifies
    # through the subtree below (the density path's aliasing bug).
    table = ComplexTable(tolerance=1e-10, relative_tolerance=1e-12)
    a = table.lookup(5e-10 + 0j)
    b = table.lookup(4.6e-10 + 0j)
    assert a != b
    # The plain absolute-window table merges the same pair.
    merged = ComplexTable(tolerance=1e-10)
    assert merged.lookup(5e-10 + 0j) == merged.lookup(4.6e-10 + 0j)


def test_relative_guard_still_unifies_equal_routes():
    # Same value computed along different arithmetic routes (relative
    # difference ~1e-16) must keep interning, or node sharing dies.
    table = ComplexTable(tolerance=1e-10, relative_tolerance=1e-12)
    a = table.lookup(complex(math.sqrt(0.5), 0.0))
    b = table.lookup(complex(math.sqrt(2.0) / 2.0, 0.0))
    assert a == b


def test_relative_guard_zero_snap_stays_absolute():
    # Sub-window weights still snap to exact zero: dropping a branch
    # costs only the snapped magnitude, never a rescale.
    table = ComplexTable(tolerance=1e-10, relative_tolerance=1e-12)
    assert table.lookup(3e-11 + 0j) == 0j


def test_negative_relative_tolerance_rejected():
    with pytest.raises(ValueError):
        ComplexTable(relative_tolerance=-1e-12)


def test_clear_keeps_the_relative_guard():
    # clear() used to re-run __init__ with the absolute tolerance only,
    # silently turning the relative guard off for the rest of the run.
    table = ComplexTable(tolerance=1e-14, relative_tolerance=1e-12)
    table.clear()
    assert table.relative_tolerance == 1e-12
    first = table.lookup(5e-11 + 0j)
    assert table.lookup(5e-11 + 5e-15 + 0j) != first


def test_relative_guard_miss_evicts_from_the_exact_hit_index():
    # A relative-guard miss can land in an occupied home bucket and
    # overwrite its entry.  The evicted value must leave `fixed` too:
    # a caller probing the index first would otherwise still get it
    # back, while lookup no longer does.
    table = ComplexTable(tolerance=1e-10, relative_tolerance=1e-12)
    first = table.lookup(3e-10 + 0j)
    assert table.fixed[first] == first
    size = len(table)
    second = table.lookup(3e-10 + 1e-12 + 0j)  # same bucket, guard refuses
    assert second != first
    assert len(table) == size  # overwritten, not added
    assert first not in table.fixed
    assert table.fixed[second] == second
    # Looked up again, the evicted value re-enters and evicts in turn.
    assert table.lookup(first) == first
    assert second not in table.fixed
    # Whatever the index still holds, lookup agrees with.
    for value, canonical in list(table.fixed.items()):
        assert table.lookup(value) == canonical


def test_seeded_constants_are_indexed():
    table = ComplexTable()
    for value in (0j, 1 + 0j, -1j, complex(math.sqrt(0.5), 0.0)):
        assert table.fixed[value] == value
    table.lookup(0.777 + 0j)
    table.clear()
    assert 0.777 + 0j not in table.fixed
    assert table.fixed[1 + 0j] == 1

"""Array-native counts and response encoding, pinned to the dict path.

``SampleResult.bitstring_counts``/``most_common`` build bitstrings from
one bit matrix, and ``SamplingResponse.to_json_bytes`` writes the counts
object with array operations.  The references here are the plain
per-key ``format`` and ``json.dumps(to_dict(top) | extra) + "\\n"`` —
every case must match them byte for byte.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.results import SampleResult
from repro.service.api import SamplingResponse


def _reference_bytes(response, top=None, extra=None):
    record = response.to_dict(top)
    record.update(extra or {})
    return (json.dumps(record) + "\n").encode()


def _assert_identical(response, top=None, extra=None):
    expected = _reference_bytes(response, top, extra)
    assert response.to_json_bytes(top=top, extra=extra) == expected
    return expected


def _ok(result, **fields):
    fields.setdefault("request_id", "r-1")
    return SamplingResponse(
        status="ok",
        result=result,
        backend="dd",
        cache="memory",
        key="k" * 64,
        build_seconds=0.125,
        sampling_seconds=1.0 / 3.0,
        **fields,
    )


# ---------------------------------------------------------------------------
# Counting and bitstrings against per-key format
# ---------------------------------------------------------------------------


def test_from_samples_counts_are_python_ints_in_ascending_order():
    result = SampleResult.from_samples(4, np.array([9, 3, 9, 0, 15, 3, 9]))
    assert list(result.counts.items()) == [(0, 1), (3, 2), (9, 3), (15, 1)]
    assert all(type(k) is int and type(v) is int for k, v in result.counts.items())


@pytest.mark.parametrize("width", [1, 7, 16, 62, 64, 65, 130])
def test_bitstrings_match_per_key_format(width):
    rng = np.random.default_rng(width)
    keys = {int.from_bytes(rng.bytes(17), "big") % (1 << width) for _ in range(50)}
    keys |= {0, (1 << width) - 1}
    counts = {key: int(rng.integers(1, 9)) for key in keys}
    result = SampleResult(num_qubits=width, counts=counts)
    assert result.bitstring_counts() == {
        format(key, f"0{width}b"): value for key, value in counts.items()
    }
    assert list(result.bitstring_counts()) == [
        format(key, f"0{width}b") for key in counts
    ]
    ranked = sorted(counts.items(), key=lambda item: (-item[1], item[0]))
    for limit in (0, 1, 5, len(counts), len(counts) + 3):
        assert result.most_common(limit) == [
            (format(key, f"0{width}b"), value) for key, value in ranked[:limit]
        ]


def test_most_common_rejects_negative_limit():
    result = SampleResult.from_samples(2, [0, 1, 1])
    with pytest.raises(ValueError, match="non-negative"):
        result.most_common(-1)


# ---------------------------------------------------------------------------
# to_json_bytes == json.dumps(to_dict(top) | extra) + "\n"
# ---------------------------------------------------------------------------


def test_empty_counts_at_zero_shots():
    response = _ok(SampleResult.from_samples(3, np.zeros(0, dtype=np.int64)))
    body = _assert_identical(response, extra={"worker": 0})
    assert json.loads(body)["counts"] == {}
    for top in (0, 1):
        _assert_identical(response, top=top)


@pytest.mark.parametrize("width", [1, 62])
def test_register_widths(width):
    rng = np.random.default_rng(width)
    samples = rng.integers(0, 1 << width, size=5_000, dtype=np.int64)
    samples[:2] = [0, (1 << width) - 1]
    response = _ok(SampleResult.from_samples(width, samples, method="dd"))
    _assert_identical(response)
    _assert_identical(response, top=3, extra={"worker": 1})


def test_large_and_zero_counts():
    counts = {
        3: 10**6,
        7: 10**6 - 1,
        1: 12_345_678_901,
        0: 0,
        2: 10,
        6: 9,
        5: 2**62,
    }
    response = _ok(SampleResult(num_qubits=3, counts=counts))
    body = _assert_identical(response)
    assert json.loads(body)["counts"]["101"] == 2**62
    for top in range(0, 9):
        _assert_identical(response, top=top)


@pytest.mark.parametrize("digits", range(1, 19))
def test_counts_mixing_digit_widths(digits):
    # Every count shorter than the longest one needs its leading zeros
    # masked out; 0 and the widest values sit next to each other.  Counts
    # are int64 (they count shots held in memory), so 18 digits is the
    # widest column that always fits.
    widest = 10**digits - 1
    counts = {0: widest, 1: 0, 2: 7, 3: 10 ** (digits - 1), 4: 10, 5: 99, 6: 1}
    response = _ok(SampleResult(num_qubits=3, counts=counts))
    body = _assert_identical(response)
    assert json.loads(body)["counts"] == {
        format(key, "03b"): value for key, value in counts.items()
    }
    _assert_identical(response, top=4)


def test_top_zero_below_equal_and_above_the_outcome_count():
    samples = np.random.default_rng(5).integers(0, 16, size=2_000)
    response = _ok(SampleResult.from_samples(4, samples))
    distinct = response.result.distinct_outcomes
    for top in (0, 1, 5, distinct - 1, distinct, distinct + 1, 10**9):
        body = _assert_identical(response, top=top, extra={"worker": 3})
        record = json.loads(body)
        assert len(record["counts"]) == min(top, distinct)
        assert record.get("counts_truncated", 0) == max(0, distinct - top)


def test_rank_ties_break_by_ascending_index():
    response = _ok(SampleResult(num_qubits=3, counts={6: 4, 1: 4, 3: 9, 0: 4}))
    body = _assert_identical(response, top=3)
    assert list(json.loads(body)["counts"]) == ["011", "000", "001"]


@pytest.mark.parametrize(
    "status", ["ok", "rejected", "deadline_exceeded", "error"]
)
def test_every_status(status):
    bare = SamplingResponse(
        request_id="r-2", status=status, key="abc", error="why not"
    )
    _assert_identical(bare)
    _assert_identical(bare, top=2, extra={"worker": 0, "retry_after": 2})
    full = _ok(SampleResult.from_samples(2, [0, 1, 1, 3]))
    full.status = status
    _assert_identical(full, extra={"worker": 1})


def test_optional_fields():
    result = SampleResult.from_samples(3, [0, 7, 7, 5])
    response = _ok(
        result,
        error="partial",
        degraded_reason="approximate rung",
        fidelity_bound=0.987654321,
        noise={"depolarizing": 0.03, "readout_p01": 0.02},
    )
    body = _assert_identical(response, extra={"worker": 0})
    assert list(json.loads(body))[:11] == [
        "request_id",
        "status",
        "backend",
        "cache",
        "key",
        "build_seconds",
        "sampling_seconds",
        "error",
        "degraded_reason",
        "fidelity_bound",
        "noise",
    ]
    _assert_identical(response, top=1)


@pytest.mark.parametrize(
    "request_id", [None, "résumé-Ω-请求- ", 'quote"back\\slash\ttab\x01']
)
def test_request_ids(request_id):
    response = _ok(SampleResult.from_samples(2, [1, 2, 2]), request_id=request_id)
    body = _assert_identical(response, extra={"worker": 0})
    assert body.isascii()
    assert json.loads(body)["request_id"] == request_id


def test_merged_result_keeps_its_unsorted_dict_order():
    first = SampleResult.from_samples(4, [5, 9, 9])
    second = SampleResult.from_samples(4, [1, 12, 9, 0])
    merged = first.merge(second)
    assert list(merged.counts) == [5, 9, 0, 1, 12]
    response = _ok(merged)
    body = _assert_identical(response)
    assert list(json.loads(body)["counts"]) == ["0101", "1001", "0000", "0001", "1100"]
    _assert_identical(response, top=2)


def test_extra_overrides_and_appends_like_dict_update():
    response = _ok(SampleResult.from_samples(2, [0, 3]))
    _assert_identical(response, extra={"status": "replaced", "worker": 2})
    _assert_identical(response, extra={"counts": {"x": 1}})
    _assert_identical(response, extra={})


@pytest.mark.parametrize("encode", ["to_dict", "to_json_bytes"])
def test_negative_top_rejected(encode):
    response = _ok(SampleResult.from_samples(3, [0, 1, 2, 3, 4, 5, 6, 7]))
    with pytest.raises(ValueError, match="top must be non-negative, got -1"):
        getattr(response, encode)(top=-1)


@settings(max_examples=200, deadline=None)
@given(
    width=st.integers(min_value=1, max_value=130),
    data=st.data(),
)
def test_property_random_counts(width, data):
    keys = data.draw(
        st.lists(
            st.integers(min_value=0, max_value=(1 << width) - 1),
            unique=True,
            max_size=40,
        )
    )
    count = st.integers(0, 18).flatmap(lambda e: st.integers(0, 10**e))
    values = data.draw(st.lists(count, min_size=len(keys), max_size=len(keys)))
    top = data.draw(st.one_of(st.none(), st.integers(0, len(keys) + 2)))
    extra = data.draw(
        st.one_of(
            st.none(),
            st.fixed_dictionaries({"worker": st.integers(0, 7)}),
        )
    )
    response = _ok(SampleResult(num_qubits=width, counts=dict(zip(keys, values))))
    _assert_identical(response, top=top, extra=extra)

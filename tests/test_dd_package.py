"""Unit tests for DDPackage: construction, arithmetic, conversions."""

import math

import numpy as np
import pytest

from repro.dd import DDPackage, NormalizationScheme, is_terminal
from repro.exceptions import DDError

from .conftest import random_statevector, sparse_statevector


class TestBasisStates:
    def test_zero_state(self, any_scheme_package):
        pkg = any_scheme_package
        edge = pkg.basis_state(3, 0)
        vector = pkg.to_statevector(edge, 3)
        expected = np.zeros(8)
        expected[0] = 1
        assert np.allclose(vector, expected)

    def test_arbitrary_basis_state(self, package):
        edge = package.basis_state(4, 11)
        vector = package.to_statevector(edge, 4)
        assert np.isclose(vector[11], 1.0)
        assert np.isclose(np.abs(vector).sum(), 1.0)

    def test_basis_state_node_count_is_n(self, package):
        edge = package.basis_state(7, 42)
        assert package.node_count(edge) == 7

    def test_out_of_range_rejected(self, package):
        with pytest.raises(DDError):
            package.basis_state(2, 4)


class TestRoundTrip:
    @pytest.mark.parametrize("num_qubits", [1, 2, 3, 5, 8])
    def test_random_vector_roundtrip(self, any_scheme_package, num_qubits):
        rng = np.random.default_rng(num_qubits)
        vector = random_statevector(num_qubits, rng)
        edge = any_scheme_package.from_statevector(vector)
        back = any_scheme_package.to_statevector(edge, num_qubits)
        assert np.allclose(back, vector, atol=1e-9)

    def test_sparse_vector_roundtrip(self, package):
        rng = np.random.default_rng(9)
        vector = sparse_statevector(6, 5, rng)
        edge = package.from_statevector(vector)
        back = package.to_statevector(edge, 6)
        assert np.allclose(back, vector, atol=1e-9)

    def test_non_power_of_two_rejected(self, package):
        with pytest.raises(DDError):
            package.from_statevector(np.ones(3))

    def test_zero_vector_is_zero_edge(self, package):
        edge = package.from_statevector(np.zeros(4))
        assert edge.is_zero


class TestCompression:
    def test_uniform_state_has_n_nodes(self, package):
        n = 10
        vector = np.full(2**n, 2 ** (-n / 2))
        edge = package.from_statevector(vector)
        assert package.node_count(edge) == n

    def test_product_state_has_n_nodes(self, package):
        n = 6
        rng = np.random.default_rng(0)
        state = np.array([1.0])
        for _ in range(n):
            q = rng.normal(size=2) + 1j * rng.normal(size=2)
            q /= np.linalg.norm(q)
            state = np.kron(q, state)
        edge = package.from_statevector(state)
        assert package.node_count(edge) == n

    def test_ghz_has_2n_minus_1_nodes(self, package):
        n = 8
        vector = np.zeros(2**n, dtype=complex)
        vector[0] = vector[-1] = 1 / math.sqrt(2)
        edge = package.from_statevector(vector)
        # One node on top, then two disjoint chains.
        assert package.node_count(edge) == 2 * n - 1

    def test_shared_nodes_counted_once(self, package):
        # |00> + |01> + |10> + |11> shares the bottom node.
        vector = np.full(4, 0.5)
        edge = package.from_statevector(vector)
        assert package.node_count(edge) == 2

    def test_nodes_per_level(self, package):
        n = 5
        vector = np.zeros(2**n, dtype=complex)
        vector[0] = vector[-1] = 1 / math.sqrt(2)
        histogram = package.nodes_per_level(package.from_statevector(vector))
        assert histogram[n - 1] == 1
        assert all(histogram[level] == 2 for level in range(n - 1))


class TestAmplitude:
    def test_amplitudes_match_dense(self, any_scheme_package):
        pkg = any_scheme_package
        rng = np.random.default_rng(4)
        vector = random_statevector(4, rng)
        edge = pkg.from_statevector(vector)
        for index in range(16):
            assert np.isclose(
                pkg.amplitude(edge, index, 4), vector[index], atol=1e-9
            )

    def test_zero_amplitudes(self, package):
        rng = np.random.default_rng(5)
        vector = sparse_statevector(5, 3, rng)
        edge = package.from_statevector(vector)
        for index in np.nonzero(vector == 0)[0][:8]:
            assert package.amplitude(edge, int(index), 5) == 0j


class TestArithmetic:
    def test_add_matches_dense(self, package):
        rng = np.random.default_rng(6)
        a = random_statevector(4, rng) * 0.6
        b = random_statevector(4, rng) * 0.4
        ea, eb = package.from_statevector(a), package.from_statevector(b)
        result = package.add(ea, eb)
        assert np.allclose(package.to_statevector(result, 4), a + b, atol=1e-9)

    def test_add_zero_identity(self, package):
        rng = np.random.default_rng(7)
        vector = random_statevector(3, rng)
        edge = package.from_statevector(vector)
        assert package.add(edge, package.zero_edge) == edge
        assert package.add(package.zero_edge, edge) == edge

    def test_add_commutes(self, package):
        rng = np.random.default_rng(8)
        a = random_statevector(3, rng) * 0.5
        b = random_statevector(3, rng) * 0.5
        ea, eb = package.from_statevector(a), package.from_statevector(b)
        ab = package.to_statevector(package.add(ea, eb), 3)
        ba = package.to_statevector(package.add(eb, ea), 3)
        assert np.allclose(ab, ba, atol=1e-12)

    def test_add_memo_is_scale_invariant(self):
        # The memo keys on (left node, right node, wB/wA): scaling both
        # operands by c (a power of two, so every product is exact) keeps
        # the key, hits, and returns c·(A+B) on the same node.
        package = DDPackage()
        rng = np.random.default_rng(11)
        a = package.from_statevector(random_statevector(3, rng) * 0.6)
        b = package.from_statevector(random_statevector(3, rng) * 0.4)
        total = package.add(a, b)
        c = -0.5
        hits = package._add_table.hits
        scaled = package.add(package.scale(a, c), package.scale(b, c))
        assert package._add_table.hits == hits + 1
        assert scaled.node is total.node
        assert scaled.weight == c * total.weight

    def test_every_package_sets_the_relative_guard(self):
        # The ratio-keyed add memo relies on scale-invariant interning.
        assert DDPackage().complex_table.relative_tolerance > 0
        with pytest.raises(ValueError):
            DDPackage(relative_tolerance=0.0)

    def test_scale(self, package):
        rng = np.random.default_rng(9)
        vector = random_statevector(3, rng)
        edge = package.from_statevector(vector)
        scaled = package.scale(edge, 0.5j)
        assert np.allclose(
            package.to_statevector(scaled, 3), 0.5j * vector, atol=1e-10
        )

    def test_vector_kron(self, package):
        rng = np.random.default_rng(10)
        bottom = random_statevector(2, rng)
        top_vec = random_statevector(2, rng)
        bottom_edge = package.from_statevector(bottom)
        # Build the top sub-DD at levels 3..2 by shifting: easiest is to
        # build the full product directly and compare.
        top_edge_shifted = package.from_statevector(np.kron(top_vec, [1, 0, 0, 0]))
        # Instead verify via from_statevector on the dense product:
        product = np.kron(top_vec, bottom)
        direct = package.from_statevector(product)
        assert np.allclose(
            package.to_statevector(direct, 4), product, atol=1e-9
        )

    def test_inner_product_matches_dense(self, package):
        rng = np.random.default_rng(11)
        a = random_statevector(5, rng)
        b = random_statevector(5, rng)
        ea, eb = package.from_statevector(a), package.from_statevector(b)
        assert np.isclose(
            package.inner_product(ea, eb), np.vdot(a, b), atol=1e-9
        )

    def test_norm_and_fidelity(self, package):
        rng = np.random.default_rng(12)
        a = random_statevector(4, rng)
        edge = package.from_statevector(a)
        assert np.isclose(package.norm_squared(edge), 1.0, atol=1e-9)
        assert np.isclose(package.fidelity(edge, edge), 1.0, atol=1e-9)
        b = random_statevector(4, rng)
        eb = package.from_statevector(b)
        assert np.isclose(
            package.fidelity(edge, eb), abs(np.vdot(a, b)) ** 2, atol=1e-9
        )


class TestCanonicity:
    def test_same_vector_same_root(self, any_scheme_package):
        pkg = any_scheme_package
        rng = np.random.default_rng(13)
        vector = random_statevector(4, rng)
        e1 = pkg.from_statevector(vector)
        e2 = pkg.from_statevector(vector.copy())
        assert e1.node is e2.node
        assert e1.weight == e2.weight

    def test_l2_outgoing_weights_unit_norm(self, package):
        rng = np.random.default_rng(14)
        vector = random_statevector(5, rng)
        edge = package.from_statevector(vector)
        seen = set()

        def check(node):
            if is_terminal(node) or node.index in seen:
                return
            seen.add(node.index)
            total = sum(abs(e.weight) ** 2 for e in node.edges)
            assert np.isclose(total, 1.0, atol=1e-9)
            for child in node.edges:
                check(child.node)

        check(edge.node)

    def test_leftmost_pivot_is_one(self, leftmost_package):
        rng = np.random.default_rng(15)
        vector = random_statevector(5, rng)
        edge = leftmost_package.from_statevector(vector)
        seen = set()

        def check(node):
            if is_terminal(node) or node.index in seen:
                return
            seen.add(node.index)
            nonzero = [e.weight for e in node.edges if e.weight != 0]
            assert nonzero[0] == 1.0 + 0j
            for child in node.edges:
                check(child.node)

        check(edge.node)


class TestCompact:
    def test_compact_preserves_state(self, package):
        rng = np.random.default_rng(16)
        vector = random_statevector(5, rng)
        edge = package.from_statevector(vector)
        # create garbage
        for seed in range(5):
            package.from_statevector(random_statevector(5, np.random.default_rng(seed)))
        before = len(package.unique_table)
        (rebuilt,) = package.compact([edge])
        after = len(package.unique_table)
        assert after < before
        assert np.allclose(package.to_statevector(rebuilt, 5), vector, atol=1e-10)

    def test_compact_multiple_roots_share(self, package):
        rng = np.random.default_rng(17)
        vector = random_statevector(4, rng)
        e1 = package.from_statevector(vector)
        e2 = package.scale(e1, 0.5)
        r1, r2 = package.compact([e1, e2])
        assert r1.node is r2.node

    def test_statistics_shape(self, package):
        package.basis_state(3, 1)
        stats = package.statistics()
        assert stats["unique_nodes"] > 0
        assert "complex_entries" in stats

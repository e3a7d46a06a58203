"""Tests for the compiled-DD artifact and its process-wide cache."""

import numpy as np
import pytest

from repro.circuit import QuantumCircuit
from repro.core import DDSampler
from repro.core.alias_sampler import AliasSampler
from repro.core.prefix_sampler import PrefixSampler
from repro.dd import DDPackage, NormalizationScheme, VectorDD
from repro.exceptions import SamplingError
from repro.perf import CompiledDDCache, compile_edge
from repro.perf import compiled_dd as compiled_dd_module
from repro.simulators.dd_simulator import DDSimulator

from .conftest import random_statevector


@pytest.fixture
def fresh_cache(monkeypatch):
    """Swap in an empty cache so counters start from zero."""
    cache = CompiledDDCache()
    monkeypatch.setattr(compiled_dd_module, "DEFAULT_CACHE", cache)
    return cache


def _random_state(num_qubits: int, seed: int, scheme=NormalizationScheme.L2):
    rng = np.random.default_rng(seed)
    package = DDPackage(scheme=scheme)
    return VectorDD.from_statevector(package, random_statevector(num_qubits, rng))


class TestCompileEdge:
    def test_matches_dense_probabilities(self):
        state = _random_state(6, 0)
        compiled = compile_edge(state.edge, state.num_qubits)
        assert np.allclose(compiled.probabilities(), state.probabilities(), atol=1e-10)

    def test_matches_dense_probabilities_leftmost(self):
        state = _random_state(5, 1, scheme=NormalizationScheme.LEFTMOST)
        sampler = DDSampler(state)
        compiled = compile_edge(state.edge, state.num_qubits, sampler.downstream)
        assert np.allclose(compiled.probabilities(), state.probabilities(), atol=1e-10)

    def test_sample_distribution(self):
        state = _random_state(4, 2)
        compiled = compile_edge(state.edge, state.num_qubits)
        samples = compiled.sample(60_000, np.random.default_rng(3))
        empirical = np.bincount(samples, minlength=16) / 60_000
        assert np.abs(empirical - state.probabilities()).max() < 0.01

    def test_marginal_probabilities_exact(self):
        state = _random_state(5, 4)
        compiled = compile_edge(state.edge, state.num_qubits)
        marginals = compiled.marginal_probabilities()
        expected = [state.qubit_probability(q) for q in range(5)]
        assert np.allclose(marginals, expected, atol=1e-10)

    def test_zero_vector_rejected(self):
        package = DDPackage()
        with pytest.raises(SamplingError):
            compile_edge(package.zero_edge, 3)

    def test_deep_register_no_recursion_error(self):
        # ~1000 levels exceed the default Python recursion limit; the
        # compiled build, edge probabilities, and marginals must all be
        # iterative.
        package = DDPackage()
        num_qubits = 1_200
        state = VectorDD.basis_state(package, num_qubits, (1 << 600) | 5)
        sampler = DDSampler(state)
        compiled = sampler.compiled()
        assert compiled.size == num_qubits
        table = sampler.edge_probabilities()
        assert len(table) == 2 * num_qubits
        marginals = sampler.marginal_probabilities()
        assert marginals[600] == 1.0 and marginals[2] == 1.0
        assert marginals.sum() == 3.0


class TestCompiledCache:
    def test_reuse_across_samplers(self, fresh_cache):
        state = _random_state(5, 5)
        first = DDSampler(state)
        second = DDSampler(state)
        assert first.compiled() is second.compiled()
        assert fresh_cache.builds == 1
        assert fresh_cache.reuses == 1

    def test_shared_by_sampling_paths_and_dense_samplers(self, fresh_cache):
        state = _random_state(5, 6)
        sampler = DDSampler(state)
        sampler.sample(100, rng=0)
        sampler.sample_top_qubits(2, 100, rng=1)
        sampler.marginal_probabilities()
        AliasSampler.from_dd(state)
        PrefixSampler.from_dd(state)
        assert fresh_cache.builds == 1
        assert fresh_cache.reuses >= 2  # alias + prefix samplers

    def test_distinct_roots_distinct_entries(self, fresh_cache):
        a = _random_state(4, 7)
        DDSampler(a).compiled()
        package = a.package
        b = VectorDD.basis_state(package, 4, 9)
        DDSampler(b).compiled()
        assert fresh_cache.builds == 2
        assert fresh_cache.stats()["entries"] == 2

    def test_eviction_bound(self, fresh_cache):
        fresh_cache.max_entries = 2
        package = DDPackage()
        for index in range(4):
            DDSampler(VectorDD.basis_state(package, 3, index)).compiled()
        assert fresh_cache.evictions == 2
        assert fresh_cache.stats()["entries"] == 2

    def test_l2_and_downstream_entries_are_separate(self, fresh_cache):
        state = _random_state(4, 8)
        DDSampler(state, trust_l2_normalization=True).compiled()
        DDSampler(state, trust_l2_normalization=False).compiled()
        assert fresh_cache.builds == 2

    def test_from_dd_samplers_match_statevector_route(self):
        state = _random_state(6, 9)
        probabilities = state.probabilities()
        alias = AliasSampler.from_dd(state)
        prefix = PrefixSampler.from_dd(state)
        assert np.allclose(alias.probabilities, probabilities, atol=1e-10)
        assert np.allclose(prefix.probabilities, probabilities, atol=1e-10)


class TestCompiledSamplingEquivalence:
    def test_sample_matches_legacy_tables_draws(self):
        # The compiled path must consume the RNG exactly like the legacy
        # in-sampler tables did: one uniform array per level.
        state = _random_state(5, 10)
        sampler = DDSampler(state)
        compiled = sampler.compiled()
        a = sampler.sample(1_000, rng=11)
        b = compiled.sample(1_000, np.random.default_rng(11))
        assert np.array_equal(a, b)

    def test_sample_vs_path_walk_distribution(self):
        circuit = QuantumCircuit(4)
        circuit.h(0).cx(0, 1).h(2).cx(2, 3)
        state = DDSimulator().run(circuit)
        sampler = DDSampler(state)
        fast = sampler.sample(40_000, rng=12)
        slow = sampler.sample_paths(4_000, rng=13)
        a = np.bincount(fast, minlength=16) / 40_000
        b = np.bincount(slow, minlength=16) / 4_000
        assert np.abs(a - b).max() < 0.03


# ---------------------------------------------------------------------------
# The fused walk against the original three-line walk
# ---------------------------------------------------------------------------


def _oracle_walk(compiled, num_qubits, shots, rng):
    """The original sampler walk, kept here as the bit-identity reference."""
    shift = compiled.num_qubits - num_qubits
    current = np.full(shots, compiled.root, dtype=np.int64)
    indices = np.zeros(shots, dtype=np.int64)
    for var in range(compiled.num_qubits - 1, shift - 1, -1):
        ones = rng.random(shots) >= compiled.p0[current]
        indices |= ones.astype(np.int64) << (var - shift)
        current = np.where(ones, compiled.child1[current], compiled.child0[current])
    return indices


def _assert_walk_matches_oracle(compiled, shots, seed, num_qubits=None):
    """Same samples and the same generator state afterwards."""
    width = compiled.num_qubits if num_qubits is None else num_qubits
    fused_rng = np.random.default_rng(seed)
    oracle_rng = np.random.default_rng(seed)
    if width == compiled.num_qubits:
        fused = compiled.sample(shots, fused_rng)
    else:
        fused = compiled.sample_top(width, shots, fused_rng)
    expected = _oracle_walk(compiled, width, shots, oracle_rng)
    assert fused.dtype == expected.dtype == np.int64
    assert np.array_equal(fused, expected)
    assert fused_rng.random() == oracle_rng.random()


def _compiled(circuit, initial_state=0, **simulator_kwargs):
    simulator = DDSimulator(**simulator_kwargs)
    state = simulator.run(circuit, initial_state=initial_state)
    return compile_edge(state.edge, state.num_qubits), simulator


def _clifford_t(num_qubits, seed):
    rng = np.random.default_rng(seed)
    circuit = QuantumCircuit(num_qubits)
    for _ in range(6 * num_qubits):
        kind = int(rng.integers(6))
        qubit = int(rng.integers(num_qubits))
        if kind == 0:
            circuit.h(qubit)
        elif kind == 1:
            circuit.s(qubit)
        elif kind == 2:
            circuit.t(qubit)
        elif kind == 3:
            circuit.x(qubit)
        else:
            other = int(rng.integers(num_qubits - 1))
            circuit.cx(qubit, other + (other >= qubit))
    return circuit


def _serve_hot_circuits():
    """The six circuits of the perfbench ``serve_hot`` workload."""
    from repro.algorithms import grover, qft, supremacy
    from repro.algorithms.states import ghz, w_state

    return [
        ("qft_16", qft(16)),
        ("supremacy_4x4_5", supremacy(4, 4, 5, seed=3)),
        ("qft_12", qft(12)),
        ("grover_8", grover(8, marked=0b10110101).circuit),
        ("ghz_20", ghz(20)),
        ("w_16", w_state(16)),
    ]


class TestFusedWalkMatchesOracle:
    @pytest.mark.parametrize("index", range(6))
    def test_serve_hot_circuits(self, index):
        name, circuit = _serve_hot_circuits()[index]
        compiled, _ = _compiled(circuit)
        _assert_walk_matches_oracle(compiled, 20_000, seed=index)

    @pytest.mark.parametrize("num_qubits", range(3, 13))
    def test_random_clifford_t_on_basis_inputs(self, num_qubits):
        for trial in range(3):
            seed = 100 * num_qubits + trial
            basis = int(np.random.default_rng(seed).integers(2**num_qubits))
            compiled, _ = _compiled(
                _clifford_t(num_qubits, seed), initial_state=basis
            )
            _assert_walk_matches_oracle(compiled, 3_000, seed)

    def test_edge_shot_counts(self):
        compiled, _ = _compiled(_clifford_t(5, 3))
        for shots in (0, 1, 2):
            _assert_walk_matches_oracle(compiled, shots, seed=shots)

    def test_sample_top_below_register_width(self):
        compiled, _ = _compiled(_clifford_t(8, 4))
        for width in range(1, 8):
            _assert_walk_matches_oracle(compiled, 4_000, seed=width, num_qubits=width)

    def test_reordered_level_space_artifact(self):
        from repro.dd.reorder import ReorderConfig, is_identity_permutation

        rng = np.random.default_rng(7)
        circuit = QuantumCircuit(8)
        for _ in range(2):
            for qubit in range(8):
                circuit.u3(*(float(v) for v in rng.uniform(0, 2 * np.pi, 3)), qubit)
            for low in range(4):
                circuit.cx(low, low + 4)
        compiled, simulator = _compiled(
            circuit, reorder=ReorderConfig(enabled=True)
        )
        assert not is_identity_permutation(simulator.stats.level_to_qubit)
        _assert_walk_matches_oracle(compiled, 5_000, seed=8)

    def test_noisy_artifact(self):
        from repro.algorithms.states import ghz
        from repro.noise import NoiseModel
        from repro.simulators.density_simulator import (
            DensityMatrixSimulator,
            compile_noisy_sampler,
        )

        noise = NoiseModel(
            depolarizing=0.03, amplitude_damping=0.02, readout_p01=0.02
        )
        rho = DensityMatrixSimulator(noise=noise).run(ghz(5))
        compiled = compile_noisy_sampler(rho, noise)
        _assert_walk_matches_oracle(compiled, 5_000, seed=9)

    def test_artifact_restored_from_arrays(self):
        from repro.perf.compiled_dd import CompiledDD

        compiled, _ = _compiled(_clifford_t(10, 5), initial_state=37)
        restored = CompiledDD.from_arrays(compiled.to_arrays())
        assert np.array_equal(restored.children, compiled.children)
        _assert_walk_matches_oracle(restored, 5_000, seed=10)

    @pytest.mark.parametrize("workers", [1, 4])
    def test_sample_chunked(self, workers):
        from repro.perf.parallel import sample_chunked

        compiled, _ = _compiled(_clifford_t(9, 6), initial_state=5)
        fused = sample_chunked(
            compiled.sample, 40_000, 11, workers=workers, chunk_shots=4_096
        )
        expected = sample_chunked(
            lambda shots, rng: _oracle_walk(compiled, 9, shots, rng),
            40_000,
            11,
            workers=1,
            chunk_shots=4_096,
        )
        assert np.array_equal(fused, expected)

    def test_children_table_interleaves_child_arrays(self):
        compiled, _ = _compiled(_clifford_t(6, 2))
        assert np.array_equal(compiled.children[0::2], compiled.child0)
        assert np.array_equal(compiled.children[1::2], compiled.child1)
        assert set(compiled.to_arrays()) == {
            "p0", "child0", "child1", "levels_flat", "level_offsets", "header"
        }

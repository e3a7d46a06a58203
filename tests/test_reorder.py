"""Unit tests for dynamic qubit reordering (``repro.dd.reorder``).

Covers the sifting primitives (adjacent-level swap, budgeted sift), the
:class:`ReorderConfig` contract, the static layout pass, the permutation
plumbing through sampling, and cache-key isolation in the service — the
pieces the ``make bench-reorder`` gate exercises end to end.
"""

import numpy as np
import pytest

from repro.circuit.circuit import QuantumCircuit
from repro.circuit.transforms import permute_qubits
from repro.compile import apply_initial_order, interaction_order
from repro.core import sample_dd, simulate_and_sample
from repro.core.dd_sampler import DDSampler
from repro.dd import (
    DDPackage,
    ReorderConfig,
    invert_permutation,
    is_identity_permutation,
    sift,
    swap_adjacent,
    unpermute_counts,
    unpermute_index,
    unpermute_samples,
)
from repro.exceptions import DDError, SamplingError
from repro.service import SamplingRequest, SamplingService
from repro.service.keys import cache_key
from repro.simulators import DDSimulator


def _crossing(num_qubits: int, seed: int = 7) -> QuantumCircuit:
    """Entangling pairs (i, i + n/2): pathological in the natural order."""
    rng = np.random.default_rng(seed)
    half = num_qubits // 2
    circuit = QuantumCircuit(num_qubits, name=f"crossing_{num_qubits}")
    for layer in range(2):
        for qubit in range(num_qubits):
            theta, phi, lam = (
                float(v) for v in rng.uniform(0, 2 * np.pi, size=3)
            )
            circuit.u3(theta, phi, lam, qubit)
        for low in range(half):
            circuit.cx(low, low + half)
    return circuit


def _random_state(num_qubits: int, seed: int = 3):
    """A generic entangled state with no special structure."""
    rng = np.random.default_rng(seed)
    circuit = QuantumCircuit(num_qubits)
    for qubit in range(num_qubits):
        theta, phi, lam = (float(v) for v in rng.uniform(0, 2 * np.pi, size=3))
        circuit.u3(theta, phi, lam, qubit)
    for qubit in range(num_qubits - 1):
        circuit.cx(qubit, qubit + 1)
    simulator = DDSimulator(optimize=False)
    return simulator.run(circuit), circuit


# ---------------------------------------------------------------------------
# swap_adjacent
# ---------------------------------------------------------------------------


class TestSwapAdjacent:
    def test_swap_exchanges_two_bit_positions(self):
        state, _ = _random_state(3)
        package = state.package
        original = state.to_statevector()
        swapped = swap_adjacent(package, state.edge, 0)
        # Reading index bits through the swap: levels 0 and 1 traded
        # places, so amplitude[i] moves to the index with bits 0/1
        # exchanged.
        for index in range(8):
            bit0, bit1 = index & 1, (index >> 1) & 1
            source = (index & ~0b11) | (bit0 << 1) | bit1
            got = _amplitude(package, swapped, index, 3)
            assert got == pytest.approx(original[source], abs=1e-12)

    def test_swap_is_hash_consed_with_fresh_build(self):
        # The swapped DD must be *the same nodes* as a fresh build of the
        # relabelled circuit in the same package — canonical construction
        # makes reordering bit-compatible, not merely numerically close.
        rng = np.random.default_rng(11)
        circuit = QuantumCircuit(3)
        for qubit in range(3):
            theta, phi, lam = (
                float(v) for v in rng.uniform(0, 2 * np.pi, size=3)
            )
            circuit.u3(theta, phi, lam, qubit)
        circuit.cx(0, 2)
        package = DDPackage()
        state = DDSimulator(package=package, optimize=False).run(circuit)
        swapped = swap_adjacent(package, state.edge, 0)
        relabelled = permute_qubits(circuit, [1, 0, 2])
        fresh = DDSimulator(package=package, optimize=False).run(relabelled)
        assert swapped.node is fresh.edge.node
        assert swapped.weight == fresh.edge.weight

    def test_double_swap_is_identity(self):
        state, _ = _random_state(4)
        package = state.package
        back = swap_adjacent(package, swap_adjacent(package, state.edge, 1), 1)
        assert back.node is state.edge.node
        assert back.weight == state.edge.weight

    def test_out_of_range_level_raises(self):
        state, _ = _random_state(3)
        with pytest.raises(DDError, match="cannot swap"):
            swap_adjacent(state.package, state.edge, 2)


def _amplitude(package, edge, index: int, num_qubits: int) -> complex:
    weight = complex(edge.weight)
    node = edge.node
    for level in reversed(range(num_qubits)):
        from repro.dd import is_terminal

        if is_terminal(node):
            break
        child = node.edges[(index >> node.var) & 1]
        if child.is_zero:
            return 0j
        weight *= complex(child.weight)
        node = child.node
    return weight


# ---------------------------------------------------------------------------
# sift
# ---------------------------------------------------------------------------


class TestSift:
    def test_sift_shrinks_crossing_circuit(self):
        circuit = _crossing(8)
        simulator = DDSimulator(optimize=False)
        state = simulator.run(circuit)
        package = state.package
        before = package.node_count(state.edge)
        result = sift(package, state.edge, 8)
        assert result.nodes_before == before
        assert result.nodes_after < before
        assert result.changed
        assert sorted(result.level_to_qubit) == list(range(8))

    def test_sift_preserves_amplitudes_up_to_permutation(self):
        circuit = _crossing(6)
        state = DDSimulator(optimize=False).run(circuit)
        package = state.package
        reference = state.to_statevector()
        result = sift(package, state.edge, 6)
        probabilities = np.abs(reference) ** 2
        for index in range(2**6):
            level_index = sum(
                ((index >> qubit) & 1) << level
                for level, qubit in enumerate(result.level_to_qubit)
            )
            amplitude = _amplitude(package, result.edge, level_index, 6)
            assert abs(amplitude) ** 2 == pytest.approx(
                probabilities[index], abs=1e-12
            )

    def test_budget_zero_is_a_no_op(self):
        state, _ = _random_state(5)
        result = sift(state.package, state.edge, 5, budget=0)
        assert result.edge is state.edge
        assert result.swaps_attempted == 0
        assert not result.changed
        assert is_identity_permutation(result.level_to_qubit)

    def test_budget_bounds_attempts(self):
        circuit = _crossing(8)
        state = DDSimulator(optimize=False).run(circuit)
        result = sift(state.package, state.edge, 8, budget=3)
        assert result.swaps_attempted <= 3

    def test_already_optimal_order_keeps_no_swap(self):
        # A nearest-neighbour ladder is already in its best order: every
        # candidate swap fails the strict-shrink test and is dropped.
        circuit = QuantumCircuit(5)
        circuit.h(0)
        for qubit in range(4):
            circuit.cx(qubit, qubit + 1)
        state = DDSimulator(optimize=False).run(circuit)
        result = sift(state.package, state.edge, 5)
        assert not result.changed
        assert result.edge is state.edge
        assert is_identity_permutation(result.level_to_qubit)

    def test_seed_permutation_is_composed(self):
        state, _ = _random_state(4)
        seed_perm = (2, 0, 3, 1)
        result = sift(
            state.package, state.edge, 4, budget=0, level_to_qubit=seed_perm
        )
        assert result.level_to_qubit == seed_perm
        with pytest.raises(DDError, match="permutation"):
            sift(state.package, state.edge, 4, level_to_qubit=(0, 0, 1, 2))


# ---------------------------------------------------------------------------
# Permutation plumbing
# ---------------------------------------------------------------------------


class TestPermutations:
    def test_invert_permutation_roundtrip(self):
        perm = (2, 0, 3, 1)
        inverse = invert_permutation(perm)
        assert tuple(perm[i] for i in inverse) == (0, 1, 2, 3)

    def test_unpermute_index_moves_bits(self):
        # Level 0 holds qubit 2: bit 0 of a sample is qubit 2's value.
        assert unpermute_index(0b001, (2, 0, 1)) == 0b100
        assert unpermute_index(0b110, (2, 0, 1)) == 0b011

    def test_unpermute_samples_matches_scalar(self):
        rng = np.random.default_rng(5)
        perm = (3, 1, 0, 2)
        samples = rng.integers(0, 16, size=64)
        vectorised = unpermute_samples(samples, perm)
        assert all(
            int(v) == unpermute_index(int(s), perm)
            for s, v in zip(samples, vectorised)
        )

    def test_unpermute_counts_preserves_totals(self):
        counts = {0b01: 7, 0b10: 5, 0b11: 1}
        out = unpermute_counts(counts, (1, 0))
        assert out == {0b10: 7, 0b01: 5, 0b11: 1}
        assert sum(out.values()) == sum(counts.values())


# ---------------------------------------------------------------------------
# ReorderConfig
# ---------------------------------------------------------------------------


class TestReorderConfig:
    def test_from_value_bool_and_int(self):
        assert not ReorderConfig.from_value(False).enabled
        assert ReorderConfig.from_value(True).enabled
        assert not ReorderConfig.from_value(0).enabled
        config = ReorderConfig.from_value(128)
        assert config.enabled and config.budget == 128

    def test_from_value_mapping_defaults_to_enabled(self):
        config = ReorderConfig.from_value({"budget": 64, "static": False})
        assert config.enabled
        assert config.budget == 64
        assert not config.static and config.dynamic

    def test_unknown_fields_are_rejected(self):
        with pytest.raises(DDError, match="unknown reorder fields"):
            ReorderConfig.from_value({"budgets": 64})

    def test_invalid_values_are_rejected(self):
        with pytest.raises(DDError):
            ReorderConfig(budget=-1)
        with pytest.raises(DDError):
            ReorderConfig(interval=0)
        with pytest.raises(DDError):
            ReorderConfig(min_nodes=0)
        with pytest.raises(DDError):
            ReorderConfig(enabled=True, static=False, dynamic=False)
        with pytest.raises(DDError):
            ReorderConfig.from_value("yes")

    def test_to_dict_roundtrip(self):
        config = ReorderConfig(enabled=True, budget=77, dynamic=False)
        assert ReorderConfig.from_value(config.to_dict()) == config


# ---------------------------------------------------------------------------
# Static layout
# ---------------------------------------------------------------------------


class TestLayout:
    def test_interaction_order_is_deterministic(self):
        circuit = _crossing(8)
        assert interaction_order(circuit) == interaction_order(circuit)

    def test_crossing_pairs_become_adjacent(self):
        circuit = _crossing(8)
        order = interaction_order(circuit)
        position = {qubit: level for level, qubit in enumerate(order)}
        for low in range(4):
            assert abs(position[low] - position[low + 4]) == 1

    def test_identity_for_single_qubit_circuits(self):
        circuit = QuantumCircuit(4)
        for qubit in range(4):
            circuit.h(qubit)
        relabelled, order = apply_initial_order(circuit)
        assert order == (0, 1, 2, 3)
        assert relabelled is circuit


# ---------------------------------------------------------------------------
# DDSimulator integration
# ---------------------------------------------------------------------------


class TestSimulatorIntegration:
    def test_auto_kernel_runs_the_kernel(self):
        simulator = DDSimulator(reorder=ReorderConfig(enabled=True))
        assert simulator.resolved_kernel() == "vector"

    def test_disabled_config_is_normalised_to_none(self):
        assert DDSimulator(reorder=ReorderConfig()).reorder is None
        assert DDSimulator(reorder=False).reorder is None

    def test_run_iterated_rejects_reordering(self):
        simulator = DDSimulator(reorder=ReorderConfig(enabled=True))
        init = QuantumCircuit(2)
        with pytest.raises(ValueError, match="iterated"):
            simulator.run_iterated(init, QuantumCircuit(2), 3)

    def test_stats_record_the_permutation(self):
        circuit = _crossing(8)
        simulator = DDSimulator(reorder=ReorderConfig(enabled=True))
        simulator.run(circuit)
        stats = simulator.stats
        assert stats.level_to_qubit is not None
        assert sorted(stats.level_to_qubit) == list(range(8))
        assert not is_identity_permutation(stats.level_to_qubit)

    def test_reordered_peak_is_smaller_on_crossing_circuit(self):
        circuit = _crossing(10)
        fixed = DDSimulator()
        fixed.run(circuit)
        reordered = DDSimulator(reorder=ReorderConfig(enabled=True))
        reordered.run(circuit)
        assert (
            reordered.stats.peak_dd_nodes < fixed.stats.peak_dd_nodes
        )


# ---------------------------------------------------------------------------
# Sampling: counts come back in original qubit order
# ---------------------------------------------------------------------------


class TestSamplingRoundTrip:
    def test_equal_seed_runs_are_bit_identical(self):
        circuit = _crossing(8)
        config = ReorderConfig(enabled=True)
        first = simulate_and_sample(circuit, 500, seed=11, reorder=config)
        second = simulate_and_sample(circuit, 500, seed=11, reorder=config)
        assert first.counts == second.counts

    def test_counts_are_level_samples_rekeyed_through_permutation(self):
        circuit = _crossing(8)
        config = ReorderConfig(enabled=True)
        reported = simulate_and_sample(circuit, 500, seed=11, reorder=config)
        perm = reported.metadata["build"]["reorder"]["level_to_qubit"]
        assert not is_identity_permutation(perm)
        simulator = DDSimulator(reorder=config)
        state = simulator.run(circuit)
        raw = sample_dd(state, 500, seed=11)
        assert unpermute_counts(raw.counts, perm) == reported.counts

    def test_distribution_matches_fixed_order_exactly(self):
        circuit = _crossing(8)
        state = DDSimulator().run(circuit)
        reference = np.abs(state.to_statevector()) ** 2
        config = ReorderConfig(enabled=True)
        simulator = DDSimulator(reorder=config)
        reordered = simulator.run(circuit)
        perm = simulator.stats.level_to_qubit
        level_probs = np.abs(reordered.to_statevector()) ** 2
        indices = np.arange(2**8)
        targets = np.zeros_like(indices)
        for level, qubit in enumerate(perm):
            targets |= ((indices >> level) & 1) << qubit
        mapped = np.zeros_like(level_probs)
        mapped[targets] = level_probs[indices]
        assert np.max(np.abs(mapped - reference)) <= 1e-9

    def test_static_only_reorder_matches_manual_relabelling(self):
        # Satellite regression: a static-only reorder must be exactly a
        # relabelled fixed-order run — same package construction, same
        # RNG consumption — so unpermuted counts are bit-identical to
        # sampling the relabelled circuit directly.
        circuit = _crossing(8)
        config = ReorderConfig(enabled=True, dynamic=False)
        reported = simulate_and_sample(circuit, 400, seed=19, reorder=config)
        order = interaction_order(circuit)
        mapping = [0] * 8
        for level, qubit in enumerate(order):
            mapping[qubit] = level
        relabelled = permute_qubits(circuit, mapping)
        manual = simulate_and_sample(relabelled, 400, seed=19)
        assert unpermute_counts(manual.counts, order) == reported.counts

    def test_vector_method_rejects_reordering(self):
        circuit = _crossing(6)
        with pytest.raises(SamplingError, match="DD methods only"):
            simulate_and_sample(
                circuit, 10, method="vector", reorder=ReorderConfig(enabled=True)
            )


# ---------------------------------------------------------------------------
# DDSampler permutation handling
# ---------------------------------------------------------------------------


class TestDDSamplerPermutation:
    def test_sample_result_unpermutes(self):
        # |10> built as level-space |01> under level_to_qubit = (1, 0).
        circuit = QuantumCircuit(2)
        circuit.x(0)
        state = DDSimulator().run(circuit)
        sampler = DDSampler(state, level_to_qubit=(1, 0))
        result = sampler.sample_result(32, np.random.default_rng(0))
        assert result.counts == {0b10: 32}

    def test_identity_permutation_is_dropped(self):
        state, _ = _random_state(3)
        sampler = DDSampler(state, level_to_qubit=(0, 1, 2))
        assert sampler.level_to_qubit is None

    def test_invalid_permutation_is_rejected(self):
        state, _ = _random_state(3)
        with pytest.raises(SamplingError, match="permutation"):
            DDSampler(state, level_to_qubit=(0, 1))
        with pytest.raises(SamplingError, match="permutation"):
            DDSampler(state, level_to_qubit=(0, 0, 1))

    def test_sample_top_qubits_refuses_reordered_states(self):
        state, _ = _random_state(3)
        sampler = DDSampler(state, level_to_qubit=(2, 0, 1))
        with pytest.raises(SamplingError, match="top DD levels"):
            sampler.sample_top_qubits(4, 2, np.random.default_rng(0))


# ---------------------------------------------------------------------------
# Cache keys and the service
# ---------------------------------------------------------------------------


class TestServiceIsolation:
    def test_disabled_config_keeps_historic_key(self):
        circuit = _crossing(6)
        assert cache_key(circuit) == cache_key(circuit, reorder=ReorderConfig())
        assert cache_key(circuit) == cache_key(circuit, reorder=None)

    def test_enabled_configs_get_distinct_keys(self):
        circuit = _crossing(6)
        exact = cache_key(circuit)
        keys = {
            cache_key(circuit, reorder=ReorderConfig(enabled=True)),
            cache_key(
                circuit, reorder=ReorderConfig(enabled=True, budget=64)
            ),
            cache_key(
                circuit, reorder=ReorderConfig(enabled=True, dynamic=False)
            ),
        }
        assert len(keys) == 3
        assert exact not in keys

    def test_service_isolates_reordered_artifacts(self, tmp_path):
        circuit = _crossing(8)
        with SamplingService(cache_dir=str(tmp_path / "cache")) as service:
            reordered = service.sample(
                SamplingRequest(circuit, 300, seed=3, reorder=True)
            )
            exact = service.sample(SamplingRequest(circuit, 300, seed=3))
            stats = service.stats()
        assert stats["builds"] == 2  # one per namespace, no cross-serving
        assert reordered.status == "ok" and exact.status == "ok"

    def test_warm_disk_hit_is_bit_identical(self, tmp_path):
        circuit = _crossing(8)
        request = SamplingRequest(circuit, 300, seed=3, reorder=True)
        with SamplingService(cache_dir=str(tmp_path / "cache")) as service:
            cold = service.sample(request)
        with SamplingService(cache_dir=str(tmp_path / "cache")) as service:
            warm = service.sample(request)
            stats = service.stats()
        assert warm.cache == "disk"
        assert stats["builds"] == 0
        assert (
            warm.result.bitstring_counts() == cold.result.bitstring_counts()
        )

    def test_vector_method_request_is_rejected(self, tmp_path):
        with SamplingService(cache_dir=str(tmp_path / "cache")) as service:
            response = service.sample(
                SamplingRequest(
                    _crossing(6), 50, method="vector", reorder=True
                )
            )
        assert response.status == "rejected"
        assert "reorder" in response.error

    def test_unknown_reorder_field_is_rejected(self, tmp_path):
        with SamplingService(cache_dir=str(tmp_path / "cache")) as service:
            response = service.sample(
                SamplingRequest(_crossing(6), 50, reorder={"budgets": 4})
            )
        assert response.status == "rejected"

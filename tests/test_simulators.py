"""Unit and equivalence tests for the strong simulators."""

import numpy as np
import pytest

from repro.circuit import QuantumCircuit, random_circuit
from repro.dd import NormalizationScheme
from repro.exceptions import MemoryOutError, SimulationError
from repro.simulators import DDSimulator, StatevectorSimulator
from repro.simulators.statevector import apply_operation_dense


class TestStatevectorSimulator:
    def test_bell_state(self):
        circuit = QuantumCircuit(2)
        circuit.h(1).cx(1, 0)
        state = StatevectorSimulator().run(circuit)
        expected = np.zeros(4, dtype=complex)
        expected[0] = expected[3] = 1 / np.sqrt(2)
        assert np.allclose(state, expected)

    def test_initial_state(self):
        circuit = QuantumCircuit(3)
        circuit.x(0)
        state = StatevectorSimulator().run(circuit, initial_state=0b100)
        assert np.isclose(state[0b101], 1.0)

    def test_memory_cap_triggers_mo(self):
        simulator = StatevectorSimulator(memory_cap_bytes=1024)
        circuit = QuantumCircuit(10)
        with pytest.raises(MemoryOutError) as excinfo:
            simulator.run(circuit)
        assert excinfo.value.requested_bytes == 16 * 1024
        assert excinfo.value.cap_bytes == 1024

    def test_measurements_ignored(self):
        circuit = QuantumCircuit(1)
        circuit.h(0).measure_all()
        state = StatevectorSimulator().run(circuit)
        assert np.allclose(np.abs(state) ** 2, [0.5, 0.5])

    def test_run_from_vector(self):
        circuit = QuantumCircuit(2)
        circuit.x(0)
        start = np.zeros(4, dtype=complex)
        start[2] = 1.0
        state = StatevectorSimulator().run_from_vector(circuit, start)
        assert np.isclose(state[3], 1.0)

    def test_run_from_vector_size_check(self):
        circuit = QuantumCircuit(2)
        with pytest.raises(SimulationError):
            StatevectorSimulator().run_from_vector(circuit, np.ones(3))

    def test_stats_tracking(self):
        circuit = QuantumCircuit(2)
        circuit.h(0).cx(0, 1).measure_all()
        simulator = StatevectorSimulator()
        simulator.run(circuit)
        assert simulator.stats.applied_operations == 2
        assert simulator.stats.num_qubits == 2

    def test_dense_apply_out_of_range(self):
        from repro.circuit.operations import Operation
        from repro.circuit import x_gate

        state = np.zeros(4, dtype=complex)
        state[0] = 1
        with pytest.raises(SimulationError):
            apply_operation_dense(
                state, Operation(gate=x_gate(), targets=(5,)), 2
            )


class TestDDSimulator:
    def test_matches_dense_on_random_circuits(self):
        for seed in range(4):
            circuit = random_circuit(5, 30, seed=200 + seed)
            dense = StatevectorSimulator().run(circuit)
            dd = DDSimulator().run(circuit)
            assert np.allclose(dd.to_statevector(), dense, atol=1e-8)

    def test_initial_state(self):
        circuit = QuantumCircuit(3)
        circuit.x(2)
        state = DDSimulator().run(circuit, initial_state=0b001)
        assert np.isclose(state.amplitude(0b101), 1.0)

    def test_stats(self):
        circuit = QuantumCircuit(2)
        circuit.h(0).cz(0, 1).measure_all()
        simulator = DDSimulator()
        simulator.run(circuit)
        assert simulator.stats.applied_operations == 2
        assert simulator.stats.final_dd_nodes >= 1
        assert sum(simulator.stats.strategy_counts.values()) == 2

    def test_track_peak(self):
        circuit = random_circuit(4, 20, seed=9)
        simulator = DDSimulator(track_peak=True)
        simulator.run(circuit)
        assert simulator.stats.peak_dd_nodes >= simulator.stats.final_dd_nodes

    def test_auto_compact_keeps_state_correct(self):
        circuit = random_circuit(4, 200, seed=31)
        reference = DDSimulator(auto_compact_threshold=0).run(circuit)
        compacted = DDSimulator(auto_compact_threshold=50).run(circuit)
        assert np.allclose(
            reference.to_statevector(), compacted.to_statevector(), atol=1e-8
        )

    def test_run_iterated_matches_flat(self):
        init = QuantumCircuit(3)
        init.h(0).h(1).h(2)
        iteration = QuantumCircuit(3)
        iteration.cz(0, 1).rx(0.4, 2).cx(2, 0)
        flat = init.copy()
        for _ in range(5):
            flat.compose(iteration)
        reference = StatevectorSimulator().run(flat)
        iterated = DDSimulator().run_iterated(init, iteration, 5)
        assert np.allclose(iterated.to_statevector(), reference, atol=1e-8)

    def test_run_iterated_register_mismatch(self):
        with pytest.raises(ValueError):
            DDSimulator().run_iterated(QuantumCircuit(2), QuantumCircuit(3), 1)

    @pytest.mark.parametrize("scheme", list(NormalizationScheme))
    def test_schemes_consistent(self, scheme):
        circuit = random_circuit(4, 25, seed=55)
        dense = StatevectorSimulator().run(circuit)
        dd = DDSimulator(scheme=scheme).run(circuit)
        assert np.allclose(dd.to_statevector(), dense, atol=1e-8)

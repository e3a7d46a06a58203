"""Statistical and structural tests for the outcome-branching executor."""

import numpy as np
import pytest

from repro.circuit import QuantumCircuit
from repro.core.indistinguishability import chi_square_gof, two_sample_chi_square
from repro.core.shot_executor import ShotExecutor
from repro.noise import NoiseModel, noisy_probabilities_dense

SHOTS = 20_000


def _mid_circuit_circuit(num_qubits: int = 4) -> QuantumCircuit:
    circuit = QuantumCircuit(num_qubits)
    for qubit in range(num_qubits):
        circuit.h(qubit)
    circuit.measure(0)
    for qubit in range(num_qubits - 1):
        circuit.cx(qubit, qubit + 1)
    circuit.measure(1)
    circuit.h(0)
    circuit.measure_all()
    return circuit


class TestBranchingEquivalence:
    def test_chi_square_vs_per_shot_reference(self):
        executor = ShotExecutor(_mid_circuit_circuit())
        branching = executor.run(SHOTS, seed=0)
        reference = executor.run_per_shot(SHOTS, seed=1)
        assert two_sample_chi_square(branching.counts, reference.counts).consistent

    def test_chi_square_feedforward_circuit(self):
        # Measure in superposition, then keep rotating the other qubits:
        # exercises branch-specific downstream unitaries.
        circuit = QuantumCircuit(3)
        circuit.h(0).h(1).measure(0).cx(1, 2).h(1).measure_all()
        executor = ShotExecutor(circuit)
        branching = executor.run(SHOTS, seed=2)
        reference = executor.run_per_shot(SHOTS, seed=3)
        assert two_sample_chi_square(branching.counts, reference.counts).consistent


class TestBranchingStructure:
    def test_shots_conserved(self):
        executor = ShotExecutor(_mid_circuit_circuit())
        result = executor.run(12_345, seed=6)
        assert sum(result.counts.values()) == 12_345

    def test_seed_determinism(self):
        executor = ShotExecutor(_mid_circuit_circuit())
        assert executor.run(2_000, seed=7).counts == executor.run(2_000, seed=7).counts

    def test_mid_measurement_correlation_preserved(self):
        # measure(0) collapses qubit 0; the following cx copies that bit
        # onto qubit 1, so every record must have bit0 == bit1.
        circuit = QuantumCircuit(2)
        circuit.h(0).measure(0).cx(0, 1).measure_all()
        result = ShotExecutor(circuit).run(SHOTS, seed=8)
        assert set(result.counts) <= {0b00, 0b11}
        total = sum(result.counts.values())
        assert abs(result.counts.get(0b11, 0) / total - 0.5) < 0.05

    def test_deterministic_branch_pruning(self):
        # |1> measured mid-circuit: p(1) == 1, so only one branch survives
        # and the result is exact, not sampled.
        circuit = QuantumCircuit(2)
        circuit.x(0).measure(0).cx(0, 1).measure_all()
        result = ShotExecutor(circuit).run(1_000, seed=9)
        assert result.counts == {0b11: 1_000}

    def test_remeasured_qubit_keeps_latest_value(self):
        # Qubit 0 is measured, flipped, and measured again: the record
        # must hold the post-flip value.
        circuit = QuantumCircuit(2)
        circuit.h(1).measure(0).x(0).measure_all()
        result = ShotExecutor(circuit).run(SHOTS, seed=10)
        assert set(result.counts) <= {0b01, 0b11}

    def test_zero_shots(self):
        executor = ShotExecutor(_mid_circuit_circuit())
        assert executor.run(0, seed=11).counts == {}


class TestTerminalSubsetRegression:
    def test_explicit_subset_final_measurement(self):
        # Regression: a final measurement naming an explicit qubit subset
        # must mask unmeasured qubits out of the samples on the
        # terminal-only fast path.
        circuit = QuantumCircuit(3)
        circuit.h(0).h(1).h(2).measure(0, 2)
        result = ShotExecutor(circuit).run(SHOTS, seed=12)
        for record in result.counts:
            assert record & 0b010 == 0
        observed = set(result.counts)
        assert observed == {0b000, 0b001, 0b100, 0b101}

    def test_explicit_subset_matches_per_shot(self):
        circuit = QuantumCircuit(3)
        circuit.h(0).h(1).measure(1).cx(1, 2).measure(0, 2)
        executor = ShotExecutor(circuit)
        branching = executor.run(SHOTS, seed=13)
        reference = executor.run_per_shot(SHOTS, seed=14)
        assert two_sample_chi_square(branching.counts, reference.counts).consistent
        for record in branching.counts:
            # Qubit 1's mid value is retained in the record; qubits 0 and
            # 2 come from the final subset measurement.
            assert 0 <= record < 8


class TestInitialState:
    @staticmethod
    def _circuit() -> QuantumCircuit:
        circuit = QuantumCircuit(3)
        circuit.ry(0.7, 0).h(1).measure(0).cx(0, 2).ry(1.1, 0).cx(1, 0)
        return circuit.measure_all()

    @pytest.mark.parametrize("initial_state", [0, 3, 6])
    @pytest.mark.parametrize("engine", ["vector", "python"])
    def test_matches_the_dephased_dense_reference(self, initial_state, engine):
        # With every qubit measured last, the records follow the
        # distribution of the noiseless dense density evolution, where
        # the mid-circuit measurement dephases.
        circuit = self._circuit()
        reference = noisy_probabilities_dense(
            circuit, NoiseModel(), initial_state=initial_state
        )
        if initial_state:
            # The circuit must tell the initial states apart.
            zero = noisy_probabilities_dense(circuit, NoiseModel())
            assert np.abs(reference - zero).max() > 0.1
        # The default picks the SoA kernel under L2; "python" forces
        # the reference.
        kernel = "auto" if engine == "vector" else "python"
        result = ShotExecutor(
            circuit, kernel=kernel, initial_state=initial_state
        ).run(SHOTS, seed=initial_state)
        assert chi_square_gof(result, reference).p_value > 1e-4

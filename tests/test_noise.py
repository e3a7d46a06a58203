"""The noisy weak-simulation contract end to end (see docs/noise.md).

Four layers under test:

* **channel math** — every builder's Kraus set satisfies the
  completeness relation, the strength-0 and strength-1 limits match
  their closed forms, and malformed Kraus sets are rejected,
* **density DD vs dense** — the matrix-DD evolution and the compiled
  noisy sampler agree with the O(4^n) dense reference, preserve trace,
  and survive the tolerance-aliasing regression the differential
  fuzzer found on near-zero-amplitude circuits,
* **local channel map** — one superoperator applied at a qubit's level
  equals the Kraus sum of full-register products and dense evolution,
  the readout fold equals the dense confusion product, and a DD that
  skips the level is refused,
* **front door** — ``simulate_and_sample`` honors the
  disabled-means-exact contract and rejects the feature combinations
  the density path cannot serve,
* **service** — noisy artifacts are cache-key isolated, bit-identical
  to the library path across cache states, and every documented
  rejection class actually rejects.
"""

import numpy as np
import pytest

from repro.algorithms.states import bell_pair, ghz
from repro.circuit.circuit import QuantumCircuit
from repro.circuit.gates import Gate
from repro.circuit.operations import Operation
from repro.core.weak_sim import simulate_and_sample
from repro.dd.density import (
    DensityMatrixDD,
    apply_local_map,
    apply_superoperator,
    matrix_adjoint,
)
from repro.dd.matrix_dd import operation_dd
from repro.dd.package import DDPackage
from repro.exceptions import DDError, NoiseError, SamplingError
from repro.noise import (
    CHANNEL_BUILDERS,
    NoiseModel,
    amplitude_damping,
    bit_flip,
    dephasing,
    depolarizing,
    evolve_density_dense,
    noisy_probabilities_dense,
    validate_kraus,
)
from repro.service import SamplingRequest, SamplingService
from repro.service.keys import cache_key
from repro.simulators.density_simulator import (
    DENSITY_RELATIVE_TOLERANCE,
    DENSITY_TOLERANCE,
    DensityMatrixSimulator,
    compile_noisy_sampler,
)

MODEL = NoiseModel(
    depolarizing=0.03,
    amplitude_damping=0.02,
    phase_damping=0.01,
    readout_p01=0.02,
    readout_p10=0.01,
)


def _random_circuit(num_qubits: int, rng: np.random.Generator) -> QuantumCircuit:
    circuit = QuantumCircuit(num_qubits, name="noise_test")
    for _ in range(3 * num_qubits):
        kind = rng.integers(4)
        qubit = int(rng.integers(num_qubits))
        if kind == 0:
            circuit.h(qubit)
        elif kind == 1:
            circuit.rz(float(rng.uniform(0, 2 * np.pi)), qubit)
        elif kind == 2:
            circuit.ry(float(rng.uniform(0, 2 * np.pi)), qubit)
        else:
            other = int(rng.integers(num_qubits))
            if other != qubit:
                circuit.cx(qubit, other)
    return circuit


# ---------------------------------------------------------------------------
# Channel math
# ---------------------------------------------------------------------------


class TestChannels:
    @pytest.mark.parametrize("name", sorted(CHANNEL_BUILDERS))
    @pytest.mark.parametrize("strength", [0.0, 0.1, 0.5, 1.0])
    def test_kraus_completeness(self, name, strength):
        channel = CHANNEL_BUILDERS[name](strength)
        total = sum(k.conj().T @ k for k in channel.arrays)
        assert np.allclose(total, np.eye(2), atol=1e-12)

    def test_incomplete_kraus_rejected(self):
        with pytest.raises(NoiseError, match="completeness"):
            validate_kraus([np.array([[0.5, 0.0], [0.0, 0.5]])])

    def test_out_of_range_strength_rejected(self):
        with pytest.raises(NoiseError):
            depolarizing(1.5)
        with pytest.raises(NoiseError):
            amplitude_damping(-0.1)

    def test_strength_one_depolarizing_is_maximally_mixing(self):
        # p=1 sends any single-qubit state to I/2.
        circuit = QuantumCircuit(1)
        circuit.h(0)
        rho = DensityMatrixSimulator(
            noise=NoiseModel(depolarizing=1.0)
        ).run(circuit)
        assert np.allclose(rho.to_dense(), np.eye(2) / 2, atol=1e-9)

    def test_strength_one_amplitude_damping_resets_to_ground(self):
        circuit = QuantumCircuit(1)
        circuit.x(0)
        rho = DensityMatrixSimulator(
            noise=NoiseModel(amplitude_damping=1.0)
        ).run(circuit)
        expected = np.zeros((2, 2))
        expected[0, 0] = 1.0
        assert np.allclose(rho.to_dense(), expected, atol=1e-9)

    def test_strength_one_bit_flip_is_deterministic_x(self):
        channel = bit_flip(1.0)
        rho = np.zeros((2, 2), dtype=complex)
        rho[0, 0] = 1.0
        flipped = sum(k @ rho @ k.conj().T for k in channel.arrays)
        assert np.allclose(flipped, [[0, 0], [0, 1]], atol=1e-12)


# ---------------------------------------------------------------------------
# Density DD vs dense reference
# ---------------------------------------------------------------------------


class TestDensityVsDense:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_circuits_match_dense(self, seed):
        rng = np.random.default_rng(seed)
        circuit = _random_circuit(3, rng)
        rho = DensityMatrixSimulator(noise=MODEL).run(circuit)
        dense = evolve_density_dense(circuit, MODEL)
        assert np.abs(rho.to_dense() - dense).max() < 1e-9

    @pytest.mark.parametrize("seed", [0, 1])
    def test_compiled_sampler_matches_dense_with_readout(self, seed):
        rng = np.random.default_rng(seed)
        circuit = _random_circuit(3, rng)
        rho = DensityMatrixSimulator(noise=MODEL).run(circuit)
        compiled = compile_noisy_sampler(rho, MODEL)
        reference = noisy_probabilities_dense(circuit, MODEL)
        assert np.abs(compiled.probabilities() - reference).max() < 1e-9

    def test_trace_preserved(self):
        rng = np.random.default_rng(9)
        circuit = _random_circuit(4, rng)
        rho = DensityMatrixSimulator(noise=MODEL).run(circuit)
        assert rho.trace() == pytest.approx(1.0, abs=1e-9)

    def test_tiny_rotation_keeps_trace(self):
        # Regression for the fuzz-found tolerance-aliasing bug: a
        # coherence-scale (~1e-8) top weight snapped to a neighbouring
        # complex-table entry, scaling the whole subtree by a percent-
        # level error (trace drifted to 1.0396 on the nearzero family).
        # DENSITY_TOLERANCE keeps the density package's snap window
        # far below coherence scale.
        circuit = QuantumCircuit(1)
        circuit.ry(1e-8, 0)
        noise = NoiseModel(
            depolarizing=0.0715832,
            amplitude_damping=0.0289484,
            phase_damping=0.0249633,
        )
        rho = DensityMatrixSimulator(noise=noise).run(circuit)
        assert rho.trace() == pytest.approx(1.0, abs=1e-9)
        dense = evolve_density_dense(circuit, noise)
        assert np.abs(rho.to_dense() - dense).max() < 1e-9

    def test_sub_window_rotation_keeps_trace(self):
        # Regression for the second fuzz-found aliasing bug: a 1e-10
        # rotation tops an edge with a ~5e-11 weight, and even the
        # tightened 1e-14 *absolute* window perturbs it by ~2e-4 of its
        # own magnitude; the normalised subtree below amplified that to
        # a 1.5e-3 trace loss once controlled gates mixed the branches.
        # DENSITY_RELATIVE_TOLERANCE forbids the relative perturbation
        # outright (minimised from fuzz seed 7, nearzero circuit 5).
        circuit = QuantumCircuit(2)
        circuit.ry(-1e-06, 1)
        circuit.ry(-1e-10, 0)
        circuit.ry(1e-06, 0)
        circuit.cx(0, 1)
        circuit.ry(-1e-10, 1)
        circuit.cx(1, 0)
        noise = NoiseModel(
            depolarizing=0.0133766,
            amplitude_damping=0.0357031,
            phase_damping=0.0187233,
        )
        rho = DensityMatrixSimulator(noise=noise).run(circuit)
        assert rho.trace() == pytest.approx(1.0, abs=1e-9)
        dense = evolve_density_dense(circuit, noise)
        assert np.abs(rho.to_dense() - dense).max() < 1e-9

    def test_readout_not_applied_at_mid_circuit_measurement(self):
        # A mid-circuit measurement dephases, but confusion-matrix
        # readout error folds exactly once, at sampler compilation.
        circuit = QuantumCircuit(2)
        circuit.h(0)
        circuit.measure(0)
        circuit.cx(0, 1)
        rho = DensityMatrixSimulator(noise=MODEL).run(circuit)
        compiled = compile_noisy_sampler(rho, MODEL)
        reference = noisy_probabilities_dense(circuit, MODEL)
        assert np.abs(compiled.probabilities() - reference).max() < 1e-9
        # The pre-readout diagonal must differ from the folded one
        # (the readout error is not a no-op on this distribution).
        assert np.abs(
            rho.probabilities() - compiled.probabilities()
        ).max() > 1e-4


# ---------------------------------------------------------------------------
# Local channel map vs Kraus sum and dense reference
# ---------------------------------------------------------------------------

LOCAL_QUBITS = 4


def _density_package() -> DDPackage:
    return DDPackage(
        tolerance=DENSITY_TOLERANCE,
        relative_tolerance=DENSITY_RELATIVE_TOLERANCE,
    )


def _mixed_state(seed: int = 3) -> np.ndarray:
    """A full-rank 4-qubit density matrix with complex coherences."""
    rng = np.random.default_rng(seed)
    size = 2**LOCAL_QUBITS
    root = rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size))
    rho = root @ root.conj().T
    return rho / np.trace(rho)


def _on_qubit(matrix: np.ndarray, qubit: int) -> np.ndarray:
    """``matrix`` on ``qubit`` of the register (qubit k is bit k)."""
    return np.kron(
        np.kron(np.eye(2 ** (LOCAL_QUBITS - 1 - qubit)), matrix),
        np.eye(2**qubit),
    )


def _kraus_sum(package, edge, channel, qubit):
    """The Kraus sum of full-register products the local map replaces."""
    total = package.zero_edge
    for index, kraus in enumerate(channel.arrays):
        gate = Gate(
            name=f"{channel.name}[{index}]",
            num_qubits=1,
            matrix=tuple(tuple(complex(v) for v in row) for row in kraus),
        )
        operator = operation_dd(
            package, Operation(gate, (qubit,)), LOCAL_QUBITS
        )
        adjoint = matrix_adjoint(package, operator)
        total = package.matrix_add(
            total, apply_superoperator(package, edge, operator, adjoint)
        )
    return total


LOCAL_CHANNELS = [builder(0.3) for builder in CHANNEL_BUILDERS.values()] + [
    dephasing()
]


class TestLocalChannelMap:
    @pytest.mark.parametrize(
        "channel", LOCAL_CHANNELS, ids=[c.name for c in LOCAL_CHANNELS]
    )
    @pytest.mark.parametrize("qubit", [LOCAL_QUBITS - 1, 1, 0])
    def test_matches_kraus_sum_and_dense(self, channel, qubit):
        package = _density_package()
        dense = _mixed_state()
        rho = DensityMatrixDD.from_dense(package, dense).edge
        local = apply_local_map(package, rho, qubit, channel.superoperator)
        kraus_sum = _kraus_sum(package, rho, channel, qubit)
        expected = sum(
            _on_qubit(k, qubit) @ dense @ _on_qubit(k, qubit).conj().T
            for k in channel.arrays
        )
        local_dense = package.matrix_to_array(local, LOCAL_QUBITS)
        assert np.abs(local_dense - expected).max() < 1e-12
        assert np.abs(
            local_dense - package.matrix_to_array(kraus_sum, LOCAL_QUBITS)
        ).max() < 1e-12

    def test_readout_fold_matches_dense_confusion(self):
        package = _density_package()
        dense = _mixed_state()
        rho = DensityMatrixDD.from_dense(package, dense)
        noise = NoiseModel(readout_p01=0.07, readout_p10=0.02)
        compiled = compile_noisy_sampler(rho, noise)
        confusion = noise.readout_matrix()
        full = np.ones((1, 1))
        for _ in range(LOCAL_QUBITS):
            full = np.kron(full, confusion)
        expected = full @ np.diag(dense).real
        assert np.abs(compiled.probabilities() - expected).max() < 1e-12

    def test_level_skipping_dd_raises(self):
        package = _density_package()
        one = package.terminal_edge(1.0)
        zero = package.zero_edge
        # A level-1 node whose successors are terminals: level 0 is skipped.
        matrix = package.make_matrix_node(1, (one, zero, zero, one))
        with pytest.raises(DDError):
            apply_local_map(package, matrix, 0, dephasing().superoperator)
        vector = package.make_vector_node(1, (one, one))
        with pytest.raises(DDError):
            apply_local_map(package, vector, 0, ((1, 0), (0, 1)))

    def test_channel_counters_unchanged(self):
        # Pinned to the values of the Kraus-sum implementation: one
        # channel application per (channel, qubit) and one Kraus count
        # per operator folded into each superoperator.
        circuit = (
            QuantumCircuit(3)
            .h(0)
            .cx(0, 1)
            .measure(1)
            .ccx(0, 1, 2)
            .rz(0.3, 2)
            .measure_all()
        )
        noise = NoiseModel(
            depolarizing=0.01, amplitude_damping=0.02, phase_damping=0.03
        )
        simulator = DensityMatrixSimulator(noise=noise)
        simulator.run(circuit)
        assert simulator.stats.noise_channel_applications == 25
        assert simulator.stats.noise_kraus_applications == 64


# ---------------------------------------------------------------------------
# simulate_and_sample front door
# ---------------------------------------------------------------------------


class TestWeakSimFrontDoor:
    def test_strength_zero_bit_identical(self):
        circuit = ghz(5)
        noisy = simulate_and_sample(
            circuit, 3000, seed=11, noise=NoiseModel()
        )
        exact = simulate_and_sample(circuit, 3000, seed=11)
        assert noisy.counts == exact.counts

    def test_equal_seed_determinism(self):
        circuit = ghz(4)
        first = simulate_and_sample(circuit, 2000, seed=3, noise=0.02)
        second = simulate_and_sample(circuit, 2000, seed=3, noise=0.02)
        assert first.counts == second.counts

    def test_noise_metadata_reports_model_and_counters(self):
        result = simulate_and_sample(ghz(3), 100, seed=1, noise=0.05)
        build_noise = result.metadata["build"]["noise"]
        assert build_noise["model"] == {"depolarizing": 0.05}
        assert build_noise["channel_applications"] > 0
        assert build_noise["kraus_applications"] > 0

    def test_rejects_non_dd_method(self):
        with pytest.raises(SamplingError, match="method"):
            simulate_and_sample(
                ghz(3), 100, method="vector", noise=0.01
            )

    def test_rejects_approximation(self):
        with pytest.raises(SamplingError, match="approximation"):
            simulate_and_sample(
                ghz(3), 100, noise=0.01, approximation={"epsilon": 0.05}
            )

    def test_rejects_reorder(self):
        with pytest.raises(SamplingError, match="reorder"):
            simulate_and_sample(ghz(3), 100, noise=0.01, reorder=True)

    def test_rejects_workers(self):
        with pytest.raises(SamplingError, match="noisy runs"):
            simulate_and_sample(ghz(3), 100, noise=0.01, workers=2)

    def test_mid_circuit_measurement_dephases(self):
        circuit = QuantumCircuit(2)
        circuit.h(0)
        circuit.measure(0)
        circuit.cx(0, 1)
        result = simulate_and_sample(circuit, 4000, seed=5, noise=0.02)
        assert sum(result.counts.values()) == 4000


# ---------------------------------------------------------------------------
# NoiseModel parsing and cache keys
# ---------------------------------------------------------------------------


class TestModelAndKeys:
    def test_from_value_number_is_depolarizing(self):
        model = NoiseModel.from_value(0.03)
        assert model.depolarizing == 0.03
        assert model.to_dict() == {"depolarizing": 0.03}

    def test_from_value_hyphen_alias_and_readout(self):
        model = NoiseModel.from_value(
            {"amplitude-damping": 0.1, "readout": {"p01": 0.02, "p10": 0.01}}
        )
        assert model.amplitude_damping == 0.1
        assert model.readout_p01 == 0.02
        assert model.readout_p10 == 0.01

    def test_from_value_unknown_key_rejected(self):
        with pytest.raises(NoiseError):
            NoiseModel.from_value({"thermal": 0.1})

    def test_out_of_range_model_rejected(self):
        with pytest.raises(NoiseError):
            NoiseModel(depolarizing=1.2)

    def test_disabled_model_shares_historic_cache_key(self):
        circuit = ghz(4)
        assert cache_key(circuit, noise=NoiseModel()) == cache_key(circuit)
        assert cache_key(circuit, noise=None) == cache_key(circuit)

    def test_distinct_strengths_get_distinct_keys(self):
        circuit = ghz(4)
        keys = {
            cache_key(circuit),
            cache_key(circuit, noise=NoiseModel(depolarizing=0.01)),
            cache_key(circuit, noise=NoiseModel(depolarizing=0.02)),
            cache_key(circuit, noise=NoiseModel(phase_damping=0.01)),
            cache_key(
                circuit,
                noise=NoiseModel(depolarizing=0.01, readout_p01=0.01),
            ),
        }
        assert len(keys) == 5


# ---------------------------------------------------------------------------
# Service tier
# ---------------------------------------------------------------------------


def _mid_circuit() -> QuantumCircuit:
    """Qubit 0 measured mid-circuit, then copied onto qubit 1."""
    return QuantumCircuit(2).h(0).measure(0).cx(0, 1).measure_all()


def _sample(tmp_path, request):
    with SamplingService(cache_dir=str(tmp_path)) as service:
        return service.sample(request)


class TestService:
    def test_noisy_response_bit_identical_to_library(self, tmp_path):
        circuit = ghz(4)
        reference = simulate_and_sample(circuit, 3000, seed=7, noise=0.02)
        with SamplingService(cache_dir=str(tmp_path)) as service:
            cold = service.sample(
                SamplingRequest(circuit, 3000, seed=7, noise_model=0.02)
            )
            hot = service.sample(
                SamplingRequest(circuit, 3000, seed=7, noise_model=0.02)
            )
        assert cold.ok and cold.cache == "built"
        assert hot.ok and hot.cache == "memory"
        assert cold.result.counts == reference.counts
        assert hot.result.counts == reference.counts
        assert cold.noise == {"depolarizing": 0.02}

    def test_disabled_noise_model_hits_exact_cache(self, tmp_path):
        # An all-zero model is byte-identical to no model: the second
        # request must be a memory hit on the first one's artifact.
        circuit = ghz(4)
        with SamplingService(cache_dir=str(tmp_path)) as service:
            plain = service.sample(SamplingRequest(circuit, 500, seed=1))
            zeroed = service.sample(
                SamplingRequest(
                    circuit, 500, seed=1, noise_model={"depolarizing": 0.0}
                )
            )
        assert plain.cache == "built"
        assert zeroed.cache == "memory"
        assert zeroed.result.counts == plain.result.counts
        assert zeroed.noise is None

    def test_noisy_artifact_isolated_from_exact(self, tmp_path):
        circuit = ghz(4)
        with SamplingService(cache_dir=str(tmp_path)) as service:
            noisy = service.sample(
                SamplingRequest(circuit, 500, seed=1, noise_model=0.05)
            )
            exact = service.sample(SamplingRequest(circuit, 500, seed=1))
        assert noisy.cache == "built"
        assert exact.cache == "built"  # not served from the noisy artifact
        assert noisy.result.counts != exact.result.counts

    def test_rejects_non_dd_method(self, tmp_path):
        response = _sample(
            tmp_path,
            SamplingRequest(ghz(3), 100, method="vector", noise_model=0.01),
        )
        assert response.status == "rejected"
        assert "noise" in response.error

    def test_rejects_noise_with_approximation(self, tmp_path):
        response = _sample(
            tmp_path,
            SamplingRequest(
                ghz(3), 100, noise_model=0.01, approximation={"epsilon": 0.05}
            ),
        )
        assert response.status == "rejected"

    def test_rejects_noise_with_reorder(self, tmp_path):
        response = _sample(
            tmp_path,
            SamplingRequest(ghz(3), 100, noise_model=0.01, reorder=True),
        )
        assert response.status == "rejected"

    def test_rejects_noise_with_workers(self, tmp_path):
        response = _sample(
            tmp_path,
            SamplingRequest(ghz(3), 100, noise_model=0.01, workers=2),
        )
        assert response.status == "rejected"

    def test_noisy_mid_circuit_request_bit_identical_to_library(self, tmp_path):
        # The route sends a noisy mid-circuit request to the density path
        # on every surface; the service caches it like any noisy artifact.
        circuit = _mid_circuit()
        reference = simulate_and_sample(circuit, 3000, seed=4, noise=0.01)
        response = _sample(
            tmp_path, SamplingRequest(circuit, 3000, seed=4, noise_model=0.01)
        )
        assert response.ok and response.cache == "built"
        assert response.backend == "dd"
        assert response.noise == {"depolarizing": 0.01}
        assert response.result.counts == reference.counts

    def test_malformed_noise_model_rejected(self, tmp_path):
        response = _sample(
            tmp_path,
            SamplingRequest(ghz(3), 100, noise_model={"thermal": 0.1}),
        )
        assert response.status == "rejected"

    def test_warm_disk_cache_bit_identical(self, tmp_path):
        for circuit in (bell_pair(), _mid_circuit()):
            reference = simulate_and_sample(circuit, 2000, seed=9, noise=0.03)
            with SamplingService(cache_dir=str(tmp_path)) as service:
                cold = service.sample(
                    SamplingRequest(circuit, 2000, seed=9, noise_model=0.03)
                )
            with SamplingService(cache_dir=str(tmp_path)) as service:
                warm = service.sample(
                    SamplingRequest(circuit, 2000, seed=9, noise_model=0.03)
                )
            assert cold.cache == "built"
            assert warm.cache == "disk"
            assert warm.result.counts == reference.counts


# ---------------------------------------------------------------------------
# JSONL schema round trip
# ---------------------------------------------------------------------------


def test_jsonl_record_round_trips_noise_model():
    from repro.service.api import SamplingRequest

    record = {
        "circuit": "ghz_3",
        "shots": 200,
        "seed": 4,
        "noise_model": {"depolarizing": 0.02, "readout": {"p01": 0.01}},
    }
    request = SamplingRequest.from_record(record)
    assert request.noise_model == {
        "depolarizing": 0.02,
        "readout": {"p01": 0.01},
    }
    model = NoiseModel.from_value(request.noise_model)
    assert model.depolarizing == 0.02
    assert model.readout_p01 == 0.01

"""Regression tests for the satellite bug fixes shipped with the fuzzer.

Each test pins a bug found while building the differential fuzzing
subsystem: silent collapse amplification below tolerance, complex-table
tie-break nondeterminism, QASM wrapped-phase/global-phase corruption,
and degenerate-input crashes in the shot executor — plus the gate-keyed
memos that grew with every request a long-lived worker served.
"""

import math

import numpy as np
import pytest

from repro.circuit.circuit import QuantumCircuit
from repro.circuit.gates import GATE_MEMO_SIZE
from repro.circuit.qasm import parse_qasm, to_qasm
from repro.compile import passes
from repro.compile.pipeline import optimize_circuit
from repro.core.shot_executor import ShotExecutor
from repro.core.weak_sim import sample_dd, sample_statevector
from repro.dd import DDPackage, NormalizationScheme
from repro.dd import apply as dd_apply
from repro.dd.complex_table import ComplexTable
from repro.dd.measure import MIN_COLLAPSE_PROBABILITY, collapse
from repro.exceptions import SamplingError
from repro.service import SamplingRequest, SamplingService
from repro.simulators.dd_simulator import DDSimulator
from repro.verify.equivalence import check_equivalence


@pytest.fixture
def pkg():
    """A fresh L2-normalised DD package."""
    return DDPackage(scheme=NormalizationScheme.L2)


# ---------------------------------------------------------------------------
# Satellite 1: collapse below tolerance raises instead of amplifying noise.
# ---------------------------------------------------------------------------


def test_collapse_sub_tolerance_probability_raises(pkg):
    # ry(1e-8) leaves qubit 0 with p(1) ~ 2.5e-17, far below the floor;
    # collapsing into that branch used to amplify rounding noise by ~2e8.
    circuit = QuantumCircuit(1)
    circuit.ry(1e-8, 0)
    state = DDSimulator().run(circuit)
    with pytest.raises(SamplingError):
        collapse(state.package, state.edge, 0, 1, 1)


def test_collapse_above_tolerance_still_l2_normalised(pkg):
    circuit = QuantumCircuit(2)
    circuit.ry(0.02, 0)
    circuit.h(1)
    state = DDSimulator().run(circuit)
    edge = collapse(state.package, state.edge, 0, 1, 2)
    vector = state.package.to_statevector(edge, 2)
    assert np.isclose(np.linalg.norm(vector), 1.0, atol=1e-9)


def test_min_collapse_probability_rejects_nan(pkg):
    assert not (float("nan") >= MIN_COLLAPSE_PROBABILITY)


# ---------------------------------------------------------------------------
# Satellite 2: ComplexTable resolves boundary values deterministically.
# ---------------------------------------------------------------------------


def test_complex_table_prefers_nearest_candidate_any_insertion_order():
    # Entries more than one tolerance apart stay distinct canonical
    # values, yet a probe between them is within tolerance of both; the
    # nearest must win regardless of insertion order.  (0.3 is not one
    # of the table's pre-seeded constants.)
    probe = 0.3 + 0j
    near = 0.3 + 4e-11 + 0j
    far = 0.3 - 8e-11 + 0j
    for first, second in ((near, far), (far, near)):
        table = ComplexTable(tolerance=1e-10)
        table.lookup(first)
        table.lookup(second)
        assert table.lookup(probe) == near, f"order {first}, {second}"


def test_complex_table_boundary_tie_breaks_deterministically():
    # Two canonical values exactly equidistant from the probe: the
    # (distance, real, imag) rank picks the smaller-real one, regardless
    # of which bucket the scan visits first.
    low = 0.3 - 6e-11 + 0j
    high = 0.3 + 6e-11 + 0j
    for first, second in ((low, high), (high, low)):
        table = ComplexTable(tolerance=1e-10)
        table.lookup(first)
        table.lookup(second)
        assert table.lookup(0.3 + 0j) == low, f"order {first}, {second}"


def test_complex_table_cross_bucket_candidate_found():
    # A value whose nearest canonical entry lives in a neighbouring grid
    # bucket must still resolve to it (the 9-bucket Chebyshev scan).
    table = ComplexTable(tolerance=1e-10)
    canonical = table.lookup(0.3 + 0j)
    shifted = 0.3 + 0.9e-10 + 0j
    assert table.lookup(shifted) == canonical


# ---------------------------------------------------------------------------
# Satellite 3: QASM round-trips wrapped phases and fused-u3 global phase.
# ---------------------------------------------------------------------------


def test_qasm_wrapped_phase_roundtrip_bit_exact():
    angles = [2 * math.pi - 2.2e-13, -math.pi - 1e-13, 4 * math.pi - 1e-9]
    circuit = QuantumCircuit(1)
    for angle in angles:
        circuit.p(angle, 0)
    restored = parse_qasm(to_qasm(circuit))
    recovered = [op.gate.params[0] for op in restored.operations]
    assert recovered == angles


def test_qasm_exact_pi_fractions_still_pretty():
    circuit = QuantumCircuit(1)
    circuit.p(math.pi / 2, 0)
    circuit.p(3 * math.pi / 4, 0)
    text = to_qasm(circuit)
    assert "pi/2" in text and "3*pi/4" in text


def test_qasm_fused_u3_roundtrip_preserves_global_phase():
    raw = QuantumCircuit(1)
    raw.h(0)
    raw.t(0)
    raw.s(0)
    raw.rz(0.7, 0)
    fused, _ = optimize_circuit(raw)
    restored = parse_qasm(to_qasm(fused))
    result = check_equivalence(fused, restored, up_to_global_phase=False)
    assert result.equivalent
    assert abs(result.phase - 1.0) < 1e-9


# ---------------------------------------------------------------------------
# Satellite 4: degenerate inputs yield well-formed results, not tracebacks.
# ---------------------------------------------------------------------------


def test_shot_executor_zero_shots_both_strategies():
    circuit = QuantumCircuit(2)
    circuit.h(0)
    circuit.measure_all()
    executor = ShotExecutor(circuit)
    for run in (executor.run, executor.run_per_shot):
        result = run(0, seed=1)
        assert result.counts == {}
        assert result.shots == 0
        assert result.num_qubits == 2


def test_shot_executor_empty_circuit():
    result = ShotExecutor(QuantumCircuit(3)).run(50, seed=2)
    assert result.shots == 50
    assert set(result.counts) == {0}


def test_shot_executor_measured_then_reused_qubit():
    circuit = QuantumCircuit(2)
    circuit.h(0)
    circuit.measure(0)
    circuit.h(0)
    circuit.cx(0, 1)
    circuit.measure_all()
    result = ShotExecutor(circuit).run(200, seed=3)
    assert result.shots == 200
    assert all(0 <= outcome < 4 for outcome in result.counts)


def test_sample_dd_negative_shots_raises_sampling_error():
    circuit = QuantumCircuit(1)
    circuit.h(0)
    state = DDSimulator().run(circuit)
    for method in ("dd", "dd-multinomial"):
        with pytest.raises(SamplingError):
            sample_dd(state, -1, method=method, seed=0)


def test_sample_statevector_negative_shots_raises_sampling_error():
    vector = np.array([1.0, 0.0], dtype=complex)
    with pytest.raises(SamplingError):
        sample_statevector(vector, -5, seed=0)


# ---------------------------------------------------------------------------
# Gate-keyed memos stay bounded however many distinct gates are served.
# ---------------------------------------------------------------------------

GATE_MEMOS = (
    passes._gate_array,
    passes._gate_is_diagonal,
    passes._gate_is_identity,
    passes._gates_cancel,
    passes._monomial_angles,
    dd_apply._gate_is_diagonal,
    dd_apply._is_x_matrix,
    dd_apply._is_swap_matrix,
)


def test_gate_memos_stay_bounded_across_distinct_circuits():
    # Every request brings fresh rotation angles, as a client's seeded
    # circuits do, so a memo without a bound would keep one entry per
    # gate for the worker's life.
    misses = [memo.cache_info().misses for memo in GATE_MEMOS]
    with SamplingService() as service:
        for index in range(GATE_MEMO_SIZE + 44):
            angle = 1e-3 * (index + 1)
            circuit = (
                QuantumCircuit(2)
                .h(0)
                .h(1)
                .rzz(angle, 0, 1)
                .cp(angle, 0, 1)
                .rxx(angle, 0, 1)
                .ryy(angle, 0, 1)
                .ry(angle, 1)
            )
            assert service.sample(SamplingRequest(circuit, 8, seed=index)).ok
    for memo, before in zip(GATE_MEMOS, misses):
        info = memo.cache_info()
        assert info.misses - before > GATE_MEMO_SIZE, memo.__qualname__
        assert info.currsize <= GATE_MEMO_SIZE, memo.__qualname__

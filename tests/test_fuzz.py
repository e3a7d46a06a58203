"""Unit tests for the differential fuzzing subsystem (``repro.fuzz``)."""

import numpy as np
import pytest

from repro.circuit.circuit import QuantumCircuit
from repro.dd import package as dd_package
from repro.exceptions import ReproError
from repro.fuzz import (
    FAMILIES,
    ORACLES,
    FuzzConfig,
    applicable_oracles,
    get_family,
    get_oracle,
    minimize_circuit,
    run_fuzz,
)
from repro.fuzz.corpus import load_corpus, save_reproducer
from repro.fuzz.families import generate
from repro.fuzz.minimize import MinimizationResult
from repro.telemetry import Telemetry


# ---------------------------------------------------------------------------
# Families
# ---------------------------------------------------------------------------


def test_families_cover_required_traits():
    assert len(FAMILIES) >= 4
    assert any(f.clifford for f in FAMILIES.values())
    assert any(f.mid_circuit for f in FAMILIES.values())


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_family_generation_is_deterministic(name):
    first = generate(name, (12, 3))
    second = generate(name, (12, 3))
    assert first.num_qubits == second.num_qubits
    assert len(first) == len(second)
    assert str(first) == str(second)


def test_unknown_family_raises():
    with pytest.raises(ReproError):
        get_family("nope")


# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------


def test_oracle_registry_covers_required_pairs():
    pairs = {oracle.pair for oracle in ORACLES.values()}
    assert len(pairs) >= 3
    assert ("dd", "statevector") in pairs
    assert ("compiled-dd", "dd") in pairs


def test_unknown_oracle_raises():
    with pytest.raises(ReproError):
        get_oracle("nope")


def test_every_family_has_applicable_oracles():
    for family in FAMILIES.values():
        assert applicable_oracles(family), family.name


def test_oracles_pass_on_known_good_circuit():
    circuit = QuantumCircuit(2)
    circuit.h(0)
    circuit.cx(0, 1)
    family = get_family("clifford")
    for index, oracle in enumerate(applicable_oracles(family)):
        detail = oracle.run(circuit, np.random.default_rng([9, index]))
        assert detail is None, f"{oracle.name}: {detail}"


def test_oracle_reports_crash_as_failure():
    # A 30-qubit register exceeds the compiled sampler's dense cap; the
    # oracle must convert the resulting exception into a failure detail
    # rather than crash the fuzzing loop.
    circuit = QuantumCircuit(30)
    circuit.h(0)
    detail = get_oracle("compiled-vs-dd").run(circuit, np.random.default_rng(0))
    assert detail is not None and "raised" in detail


# ---------------------------------------------------------------------------
# Minimizer
# ---------------------------------------------------------------------------


def _contains_x_on_zero(circuit: QuantumCircuit):
    for op in circuit.operations:
        if op.gate.name == "x" and set(op.qubits) == {0}:
            return "x on qubit 0 present"
    return None


def test_minimizer_shrinks_to_single_culprit():
    circuit = QuantumCircuit(3)
    for qubit in range(3):
        circuit.h(qubit)
    circuit.x(0)
    for qubit in range(3):
        circuit.t(qubit)
    circuit.cx(1, 2)
    result = minimize_circuit(circuit, _contains_x_on_zero)
    assert isinstance(result, MinimizationResult)
    assert result.minimized_size == 1
    assert result.original_size == len(circuit)
    assert _contains_x_on_zero(result.circuit) is not None
    # Qubit compaction: only wire 0 is needed.
    assert result.circuit.num_qubits == 1


def test_minimizer_refuses_non_reproducing_failure():
    circuit = QuantumCircuit(1)
    circuit.h(0)
    with pytest.raises(ValueError):
        minimize_circuit(circuit, lambda c: None)


def test_minimizer_respects_check_budget():
    circuit = QuantumCircuit(2)
    for _ in range(6):
        circuit.h(0)
        circuit.h(1)
    calls = []

    def check(candidate):
        calls.append(1)
        return "always failing"

    minimize_circuit(circuit, check, max_checks=10)
    # One extra call re-verifies the final circuit.
    assert len(calls) <= 11


# ---------------------------------------------------------------------------
# Corpus serialization
# ---------------------------------------------------------------------------


def test_corpus_save_load_roundtrip(tmp_path):
    circuit = QuantumCircuit(2, name="roundtrip")
    circuit.h(0)
    circuit.cx(0, 1)
    path = save_reproducer(
        circuit,
        family="clifford",
        oracle="dd-vs-statevector",
        seed="7-0-0",
        detail="max |dp| = 1e-3",
        directory=tmp_path,
        minimized_from=17,
    )
    entries = load_corpus(tmp_path)
    assert [entry.path for entry in entries] == [path]
    entry = entries[0]
    assert entry.metadata["family"] == "clifford"
    assert entry.metadata["oracle"] == "dd-vs-statevector"
    assert entry.metadata["seed"] == "7-0-0"
    assert entry.circuit.num_qubits == 2
    assert len(entry.circuit.operations) == 2


def test_corpus_missing_directory_is_empty(tmp_path):
    assert load_corpus(tmp_path / "absent") == []


# ---------------------------------------------------------------------------
# Runner
# ---------------------------------------------------------------------------


def test_run_fuzz_clean_backends_report_no_failures(tmp_path):
    config = FuzzConfig(
        families=("clifford", "nearzero"),
        seed=5,
        max_circuits=4,
        corpus_dir=tmp_path,
    )
    report = run_fuzz(config)
    assert report.ok
    assert report.circuits == 4
    assert report.checks > 0
    assert report.per_family == {"clifford": 2, "nearzero": 2}
    assert len(report.pairs) >= 3
    assert list(tmp_path.glob("*.qasm")) == []


def test_run_fuzz_records_telemetry(tmp_path):
    session = Telemetry()
    config = FuzzConfig(
        families=("clifford",), seed=1, max_circuits=2, corpus_dir=tmp_path
    )
    run_fuzz(config, telemetry=session)
    counters = session.registry.snapshot()["counters"]
    assert counters["fuzz.circuits"] == 2
    assert counters["fuzz.checks"] > 0
    assert counters["fuzz.failures"] == 0
    assert any(span.name == "fuzz.run" for span in session.tracer.spans)


def test_run_fuzz_catches_injected_normalization_bug(tmp_path, monkeypatch):
    """Mutation check: a skewed DD normalisation must be caught and shrunk."""
    original = dd_package.normalize_weights

    def skewed(weights, scheme, tolerance=1e-12):
        normalised, factor = original(weights, scheme, tolerance)
        if all(abs(w) > tolerance for w in normalised):
            return (normalised[0] * (1.0 + 1e-3),) + tuple(normalised[1:]), factor
        return normalised, factor

    monkeypatch.setattr(dd_package, "normalize_weights", skewed)
    config = FuzzConfig(
        families=("clifford",),
        seed=3,
        max_circuits=2,
        corpus_dir=tmp_path,
        max_minimize_checks=60,
    )
    report = run_fuzz(config)
    assert not report.ok
    smallest = min(len(f.circuit) for f in report.failures)
    assert smallest <= 8
    saved = list(tmp_path.glob("*.qasm"))
    assert saved
    # The reproducers replay from disk.
    monkeypatch.setattr(dd_package, "normalize_weights", original)
    for entry in load_corpus(tmp_path):
        assert entry.metadata["family"] == "clifford"
        assert entry.circuit.num_qubits >= 1


def test_run_fuzz_is_deterministic():
    config = FuzzConfig(
        families=("diagonal",), seed=11, max_circuits=3, save_failures=False
    )
    first = run_fuzz(config)
    second = run_fuzz(config)
    assert first.ok and second.ok
    assert first.checks == second.checks
    assert first.per_oracle == second.per_oracle


def test_run_fuzz_time_budget_stops_early():
    config = FuzzConfig(
        families=("clifford",),
        seed=0,
        max_circuits=None,
        time_budget_seconds=0.0,
        save_failures=False,
    )
    report = run_fuzz(config)
    assert report.circuits == 0


def test_surface_oracle_catches_the_library_skipping_the_route(monkeypatch):
    from repro.fuzz import oracles
    from repro.fuzz.__main__ import _unrouted_simulate_and_sample

    circuit = generate("midmeasure", (7, 2, 0))
    oracle = get_oracle("surface-agreement")
    assert oracle.run(circuit, np.random.default_rng(1)) is None
    monkeypatch.setattr(oracles, "simulate_and_sample", _unrouted_simulate_and_sample)
    detail = oracle.run(circuit, np.random.default_rng(1))
    assert detail is not None and detail.startswith("surfaces disagree")

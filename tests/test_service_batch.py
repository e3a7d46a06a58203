"""The batch JSONL front door: ``python -m repro.service``.

One JSON request per input line, one JSON response per output line, in
input order; malformed lines become ``rejected`` records instead of
killing the batch.  These tests drive :func:`run_batch` in memory and
:func:`main` against real files, and pin the circuit-name resolution
that makes cache keys meaningful across processes.
"""

import io
import json

import numpy as np
import pytest

from repro.algorithms.grover import grover
from repro.algorithms.qft import qft
from repro.algorithms.states import bell_pair, ghz, w_state
from repro.circuit.circuit import QuantumCircuit
from repro.core.weak_sim import simulate_and_sample
from repro.exceptions import ReproError
from repro.service import SamplingRequest, SamplingService
from repro.service.__main__ import main, resolve_circuit, run_batch
from repro.service.keys import circuit_fingerprint


# ---------------------------------------------------------------------------
# Circuit resolution
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "spec, reference",
    [
        ("bell", bell_pair()),
        ("qft_5", qft(5)),
        ("ghz_4", ghz(4)),
        ("w_3", w_state(3)),
        ("grover_4", grover(4, seed=1).circuit),
        ({"name": "qft_3"}, qft(3)),
    ],
)
def test_resolve_builtin_names(spec, reference):
    resolved = resolve_circuit(spec)
    assert circuit_fingerprint(resolved) == circuit_fingerprint(reference)


def test_resolve_builtin_names_are_deterministic():
    # Same name, same circuit — across calls, hence across processes.
    assert circuit_fingerprint(resolve_circuit("grover_6")) == (
        circuit_fingerprint(resolve_circuit("grover_6"))
    )
    assert circuit_fingerprint(resolve_circuit("supremacy_2x2_4")) == (
        circuit_fingerprint(resolve_circuit("supremacy_2x2_4"))
    )


def test_resolve_inline_qasm():
    qasm = (
        "OPENQASM 2.0;\n"
        'include "qelib1.inc";\n'
        "qreg q[2];\n"
        "h q[0];\n"
        "cx q[0],q[1];\n"
    )
    circuit = resolve_circuit({"qasm": qasm})
    assert circuit.num_qubits == 2


def test_resolve_qasm_file(tmp_path):
    path = tmp_path / "bell.qasm"
    path.write_text(
        "OPENQASM 2.0;\n"
        'include "qelib1.inc";\n'
        "qreg q[2];\n"
        "h q[0];\n"
        "cx q[0],q[1];\n",
        encoding="utf-8",
    )
    circuit = resolve_circuit({"qasm_file": str(path)})
    assert circuit.num_qubits == 2


@pytest.mark.parametrize(
    "spec",
    ["nonsense", "qft_", {"bogus": 1}, 42, "supremacy_2x2"],
)
def test_resolve_rejects_unknown_specs(spec):
    with pytest.raises(ReproError):
        resolve_circuit(spec)


# ---------------------------------------------------------------------------
# run_batch: in-memory JSONL round trips
# ---------------------------------------------------------------------------


def _batch(service, lines, top=None):
    source = io.StringIO("".join(json.dumps(l) + "\n" for l in lines))
    sink = io.StringIO()
    failures = run_batch(service, source, sink, top=top)
    responses = [json.loads(line) for line in sink.getvalue().splitlines()]
    return failures, responses


def test_batch_round_trip_matches_weak_sim(tmp_path):
    requests = [
        {"request_id": "a", "circuit": "qft_5", "shots": 2000, "seed": 3},
        {"request_id": "b", "circuit": "ghz_4", "shots": 1000, "seed": 4},
    ]
    with SamplingService(cache_dir=str(tmp_path)) as service:
        failures, responses = _batch(service, requests)
    assert failures == 0
    assert [r["request_id"] for r in responses] == ["a", "b"]
    for request, response in zip(requests, responses):
        reference = simulate_and_sample(
            resolve_circuit(request["circuit"]),
            request["shots"],
            method="dd",
            seed=request["seed"],
        )
        got = {int(k, 2): v for k, v in response["counts"].items()}
        assert got == reference.counts
        assert response["status"] == "ok"
        assert response["backend"] == "dd"


def test_batch_survives_malformed_lines(tmp_path):
    source = io.StringIO(
        "\n".join(
            [
                '{"request_id": "good", "circuit": "bell", "shots": 100, "seed": 1}',
                "{this is not json",
                '{"request_id": "noshots", "circuit": "bell"}',
                '{"request_id": "nocircuit", "shots": 10}',
                '{"request_id": "badname", "circuit": "warp_9", "shots": 10}',
                "[1, 2, 3]",
                "",
                '{"request_id": "tail", "circuit": "ghz_3", "shots": 50, "seed": 2}',
            ]
        )
        + "\n"
    )
    sink = io.StringIO()
    with SamplingService(cache_dir=str(tmp_path)) as service:
        failures = run_batch(service, source, sink)
    responses = [json.loads(line) for line in sink.getvalue().splitlines()]
    assert len(responses) == 7  # blank line skipped, everything else answered
    assert failures == 5
    assert responses[0]["status"] == "ok"
    assert responses[-1]["status"] == "ok"
    for index, response in enumerate(responses[1:-1], start=2):
        assert response["status"] == "rejected"
        assert response["error"].startswith(f"line {index}:")


#: Mistyped request scalars: (field, value).  Each was once served after
#: a silent int()/bool()/float() coercion (100.9 shots as 100, "false"
#: as optimize=True, ...); each must now be refused, naming the field.
MISTYPED_SCALARS = [
    ("shots", 100.9),
    ("shots", True),
    ("shots", "100"),
    ("shots", None),
    ("seed", 7.9),
    ("seed", True),
    ("seed", "7"),
    ("workers", 2.5),
    ("workers", True),
    ("optimize", "false"),
    ("optimize", 0),
    ("optimize", None),
    ("initial_state", 2.7),
    ("initial_state", True),
    ("initial_state", "2"),
    ("deadline_seconds", True),
    ("deadline_seconds", "5"),
]


def _mistyped(field, value):
    return {"circuit": "bell", "shots": 100, "seed": 1, field: value}


@pytest.mark.parametrize("field, value", MISTYPED_SCALARS)
def test_from_record_refuses_mistyped_scalars(field, value):
    with pytest.raises(ReproError, match=f"'{field}'"):
        SamplingRequest.from_record(_mistyped(field, value))


def test_from_record_keeps_well_typed_scalars():
    request = SamplingRequest.from_record(
        {
            "circuit": "bell",
            "shots": 100,
            "seed": None,
            "workers": 2,
            "optimize": False,
            "initial_state": 3,
            "deadline_seconds": 5,
        }
    )
    assert (request.shots, request.seed, request.workers) == (100, None, 2)
    assert (request.optimize, request.initial_state) == (False, 3)
    assert request.deadline_seconds == 5.0
    defaults = SamplingRequest.from_record({"circuit": "bell", "shots": 1})
    assert (defaults.optimize, defaults.initial_state) == (True, 0)
    assert defaults.deadline_seconds is None


def test_batch_rejects_mistyped_scalars(tmp_path):
    requests = [_mistyped(field, value) for field, value in MISTYPED_SCALARS]
    with SamplingService(cache_dir=str(tmp_path)) as service:
        failures, responses = _batch(service, requests)
        stats = service.stats()
    assert failures == len(MISTYPED_SCALARS)
    for (field, _value), response in zip(MISTYPED_SCALARS, responses):
        assert response["status"] == "rejected"
        assert f"'{field}'" in response["error"]
    assert stats["requests"] == 0


def test_dispatcher_refuses_mistyped_scalars():
    from repro.service.pool import WorkerPool

    pool = WorkerPool(workers=2)  # routing needs no running workers
    for field in ("optimize", "initial_state"):
        value = "false" if field == "optimize" else 2.7
        with pytest.raises(ReproError, match=f"'{field}'"):
            pool.routing_key(_mistyped(field, value))


def test_batch_top_truncates_counts(tmp_path):
    requests = [
        {"request_id": "wide", "circuit": "qft_5", "shots": 5000, "seed": 1}
    ]
    with SamplingService(cache_dir=str(tmp_path)) as service:
        _, responses = _batch(service, requests, top=3)
    (response,) = responses
    assert len(response["counts"]) == 3
    assert response["counts_truncated"] > 0


def test_batch_shares_cache_across_lines(tmp_path):
    requests = [
        {"request_id": f"r{i}", "circuit": "qft_6", "shots": 500, "seed": i}
        for i in range(4)
    ]
    with SamplingService(cache_dir=str(tmp_path)) as service:
        failures, responses = _batch(service, requests)
        stats = service.stats()
    assert failures == 0
    assert stats["builds"] == 1  # one circuit, four seeds, one build


# ---------------------------------------------------------------------------
# main(): the real CLI against real files
# ---------------------------------------------------------------------------


def test_main_round_trips_files(tmp_path, capsys):
    requests_path = tmp_path / "jobs.jsonl"
    out_path = tmp_path / "answers.jsonl"
    cache_dir = tmp_path / "cache"
    requests_path.write_text(
        json.dumps(
            {"request_id": "r1", "circuit": "ghz_5", "shots": 400, "seed": 9}
        )
        + "\n",
        encoding="utf-8",
    )
    argv = [
        "--requests",
        str(requests_path),
        "--out",
        str(out_path),
        "--cache-dir",
        str(cache_dir),
    ]
    assert main(argv) == 0
    (record,) = [
        json.loads(line)
        for line in out_path.read_text(encoding="utf-8").splitlines()
    ]
    assert record["status"] == "ok"
    assert record["cache"] == "built"

    # Second invocation: a fresh process image would see the same cache.
    assert main(argv) == 0
    (record,) = [
        json.loads(line)
        for line in out_path.read_text(encoding="utf-8").splitlines()
    ]
    assert record["cache"] == "disk"


def test_main_returns_nonzero_on_failures(tmp_path):
    requests_path = tmp_path / "jobs.jsonl"
    out_path = tmp_path / "answers.jsonl"
    requests_path.write_text("{broken\n", encoding="utf-8")
    assert (
        main(["--requests", str(requests_path), "--out", str(out_path)]) == 1
    )
    (record,) = [
        json.loads(line)
        for line in out_path.read_text(encoding="utf-8").splitlines()
    ]
    assert record["status"] == "rejected"


def test_main_missing_input_file(tmp_path):
    assert main(["--requests", str(tmp_path / "absent.jsonl")]) == 2


def test_main_writes_trace(tmp_path):
    requests_path = tmp_path / "jobs.jsonl"
    trace_path = tmp_path / "trace.jsonl"
    requests_path.write_text(
        json.dumps({"circuit": "bell", "shots": 100, "seed": 1}) + "\n",
        encoding="utf-8",
    )
    assert (
        main(
            [
                "--requests",
                str(requests_path),
                "--out",
                str(tmp_path / "answers.jsonl"),
                "--trace",
                str(trace_path),
            ]
        )
        == 0
    )
    records = [
        json.loads(line)
        for line in trace_path.read_text(encoding="utf-8").splitlines()
    ]
    kinds = {record.get("kind") or record.get("type") for record in records}
    assert records  # trace is non-empty and is valid JSONL
    assert len(kinds) >= 1


def test_smoke_flag_passes(tmp_path, capsys):
    assert main(["--smoke", "--cache-dir", str(tmp_path)]) == 0
    captured = capsys.readouterr()
    assert "serve-smoke ok" in captured.out


def test_negative_top_is_an_argparse_error(capsys):
    with pytest.raises(SystemExit) as info:
        main(["--top", "-1"])
    assert info.value.code == 2
    assert "--top: must be >= 0, got -1" in capsys.readouterr().err


def test_run_batch_rejects_negative_top_before_reading(tmp_path):
    source = io.StringIO(
        json.dumps({"circuit": "qft_3", "shots": 1000, "seed": 1}) + "\n"
    )
    with SamplingService(cache_dir=str(tmp_path)) as service:
        with pytest.raises(ValueError, match="top must be non-negative"):
            run_batch(service, source, io.StringIO(), top=-1)
        assert service.stats()["requests"] == 0


def test_batch_lines_round_trip_through_json_dumps(tmp_path):
    requests = [
        {"request_id": "q", "circuit": "qft_4", "shots": 3000, "seed": 2},
        {"request_id": "bad", "circuit": "qft_4", "shots": -1, "seed": 2},
    ]
    source = io.StringIO("".join(json.dumps(r) + "\n" for r in requests))
    sink = io.StringIO()
    with SamplingService(cache_dir=str(tmp_path)) as service:
        run_batch(service, source, sink, top=5)
    lines = sink.getvalue().splitlines(keepends=True)
    records = [json.loads(line) for line in lines]
    assert lines == [json.dumps(record) + "\n" for record in records]
    counts = records[0]["counts"]
    assert list(counts) == sorted(counts, key=lambda bits: (-counts[bits], bits))
    assert records[1]["status"] == "rejected"

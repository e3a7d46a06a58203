"""Tests for the repro-sample command-line interface."""

import json

import pytest

from repro.cli import main

BELL = """OPENQASM 2.0;
include "qelib1.inc";
qreg q[2];
creg c[2];
h q[0];
cx q[0],q[1];
measure q -> c;
"""


@pytest.fixture
def bell_file(tmp_path):
    path = tmp_path / "bell.qasm"
    path.write_text(BELL)
    return str(path)


def test_samples_bell_pair(bell_file, capsys):
    assert main([bell_file, "--shots", "2000", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "2 qubits" in out
    assert "|00>" in out
    assert "|11>" in out
    assert "|01>" not in out


def test_method_selection(bell_file, capsys):
    assert main([bell_file, "--shots", "500", "--method", "vector", "--seed", "2"]) == 0
    assert "'vector'" in capsys.readouterr().out


def test_json_output(bell_file, tmp_path, capsys):
    out_file = tmp_path / "counts.json"
    assert main(
        [bell_file, "--shots", "100", "--seed", "3", "--json", str(out_file)]
    ) == 0
    payload = json.loads(out_file.read_text())
    assert payload["format"] == "repro-samples"
    assert sum(payload["counts"].values()) == 100
    assert set(payload["counts"]) <= {"00", "11"}


def test_json_to_stdout(bell_file, capsys):
    assert main([bell_file, "--shots", "50", "--seed", "4", "--json", "-"]) == 0
    out = capsys.readouterr().out
    assert '"format": "repro-samples"' in out


def test_draw_mode(bell_file, capsys):
    assert main([bell_file, "--draw"]) == 0
    out = capsys.readouterr().out
    assert "[H]" in out
    assert "⊕" in out


def test_stats_flag(bell_file, capsys):
    assert main([bell_file, "--shots", "100", "--stats", "--seed", "5"]) == 0
    assert "precompute" in capsys.readouterr().out


def test_stats_output_stays_parseable(bell_file, capsys):
    """The --stats block keeps its 'key: value, key=value' line shape."""
    assert main([bell_file, "--shots", "200", "--stats", "--seed", "6"]) == 0
    out = capsys.readouterr().out
    for prefix in ("precompute:", "build:", "strategies:", "dd tables:", "compiled DDs:"):
        assert any(line.startswith(prefix) for line in out.splitlines()), prefix
    stats_line = next(line for line in out.splitlines() if line.startswith("dd tables:"))
    pairs = dict(
        item.split("=", 1) for item in stats_line[len("dd tables: "):].split(", ")
    )
    assert "unique_nodes" in pairs
    float(pairs["matvec_hit_rate"])  # numeric


@pytest.mark.parametrize(
    "flags, engine",
    [
        ([], "engine=vector"),
        (["--noise-strength", "0.01"], "engine=density"),
        (["--method", "vector"], None),
    ],
)
def test_stats_names_the_engine_that_ran(bell_file, capsys, flags, engine):
    # A statevector build has no engine label; it used to read "python".
    assert main([bell_file, "--shots", "100", "--stats", "--seed", "3", *flags]) == 0
    build = next(
        line for line in capsys.readouterr().out.splitlines()
        if line.startswith("build:")
    )
    if engine is None:
        assert "engine=" not in build
    else:
        assert engine in build


_FOUR_QUBITS = """OPENQASM 2.0;
include "qelib1.inc";
qreg q[4];
creg c[4];
h q[0];
cx q[0],q[3];
ry(0.3) q[1];
cx q[1],q[2];
t q[2];
h q[3];
cx q[3],q[1];
measure q -> c;
"""

_BUILD_LINES = (
    "build:",
    "strategies:",
    "optimizer ",
    "dd tables:",
    "approximation:",
    "reorder:",
    "noise:",
)


@pytest.mark.parametrize(
    "flags",
    [
        [],
        ["--approx-epsilon", "0.1"],
        ["--reorder"],
        ["--noise-strength", "0.01"],
    ],
    ids=["exact", "approximate", "reordered", "noisy"],
)
def test_cache_dir_stats_print_the_uncached_build_lines(tmp_path, capsys, flags):
    qasm = tmp_path / "four.qasm"
    qasm.write_text(_FOUR_QUBITS)
    args = [str(qasm), "--shots", "300", "--seed", "4", "--stats", *flags]

    def build_lines():
        out = capsys.readouterr().out
        return [line for line in out.splitlines() if line.startswith(_BUILD_LINES)]

    assert main(args) == 0
    uncached = build_lines()
    assert any(line.startswith("build:") for line in uncached)
    cache = ["--cache-dir", str(tmp_path / "cache")]
    for _tier in ("built", "disk"):
        assert main([*args, *cache]) == 0
        assert build_lines() == uncached


def test_trace_flag_writes_valid_jsonl(bell_file, tmp_path, capsys):
    from repro.telemetry import read_trace

    trace_file = tmp_path / "trace.jsonl"
    assert main(
        [bell_file, "--shots", "300", "--seed", "7", "--trace", str(trace_file)]
    ) == 0
    out = capsys.readouterr().out
    assert f"-> {trace_file}" in out
    trace = read_trace(str(trace_file))
    assert trace["header"]["format"] == "repro-trace"
    root_names = [s["name"] for s in trace["spans"] if s["parent"] is None]
    assert root_names == ["compile", "build", "precompute", "sampling"]
    assert trace["metrics"]["counters"]["sample.shots"] == 300


def test_trace_and_stats_together(bell_file, tmp_path, capsys):
    trace_file = tmp_path / "trace.jsonl"
    assert main(
        [
            bell_file,
            "--shots", "100",
            "--seed", "8",
            "--stats",
            "--trace", str(trace_file),
        ]
    ) == 0
    out = capsys.readouterr().out
    assert "precompute" in out
    assert "trace:" in out
    assert trace_file.exists()


def test_trace_unwritable_path_fails_cleanly(bell_file, capsys):
    assert main(
        [bell_file, "--shots", "10", "--trace", "/nonexistent/dir/trace.jsonl"]
    ) == 2
    assert "cannot write" in capsys.readouterr().err


def test_missing_file(capsys):
    assert main(["/nonexistent/file.qasm"]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_bad_qasm(tmp_path, capsys):
    path = tmp_path / "bad.qasm"
    path.write_text("OPENQASM 2.0; qreg q[1]; frobnicate q[0];")
    assert main([str(path)]) == 2
    assert "error" in capsys.readouterr().err


def test_bad_shots(bell_file, capsys):
    assert main([bell_file, "--shots", "0"]) == 2


# ---------------------------------------------------------------------------
# Approximation flags (docs/approximation.md)
# ---------------------------------------------------------------------------


@pytest.fixture
def dusty_file(tmp_path):
    from repro.circuit.qasm import to_qasm
    from repro.perf.bench import dusty_ghz

    path = tmp_path / "dusty.qasm"
    path.write_text(to_qasm(dusty_ghz(8, 6)))
    return str(path)


def test_approx_epsilon_reports_fidelity_bound(dusty_file, capsys):
    assert main(
        [dusty_file, "--shots", "200", "--seed", "1", "--approx-epsilon", "0.05"]
    ) == 0
    out = capsys.readouterr().out
    assert "approximation: fidelity >= " in out
    assert "epsilon budget 0.05" in out


def test_approx_epsilon_zero_is_exact(dusty_file, capsys):
    assert main(
        [dusty_file, "--shots", "200", "--seed", "1", "--approx-epsilon", "0"]
    ) == 0
    assert "approximation:" not in capsys.readouterr().out


def test_approx_node_budget_selects_memory_strategy(dusty_file, capsys):
    assert main(
        [
            dusty_file,
            "--shots", "200",
            "--seed", "1",
            "--approx-epsilon", "0.05",
            "--approx-node-budget", "64",
        ]
    ) == 0
    assert "approximation: fidelity >= " in capsys.readouterr().out


def test_approx_node_budget_requires_epsilon(dusty_file, capsys):
    assert main([dusty_file, "--approx-node-budget", "64"]) == 2
    assert "--approx-epsilon" in capsys.readouterr().err


def test_approx_epsilon_out_of_range(dusty_file, capsys):
    assert main([dusty_file, "--approx-epsilon", "1.5"]) == 2
    assert "error" in capsys.readouterr().err


def test_approx_rejects_vector_methods(dusty_file, capsys):
    assert main(
        [dusty_file, "--method", "vector", "--approx-epsilon", "0.05"]
    ) == 2
    assert "DD methods only" in capsys.readouterr().err


def test_approx_through_service_cache(dusty_file, tmp_path, capsys):
    cache = str(tmp_path / "cache")
    args = [
        dusty_file,
        "--shots", "200",
        "--seed", "1",
        "--approx-epsilon", "0.05",
        "--cache-dir", cache,
    ]
    assert main(args) == 0
    cold = capsys.readouterr().out
    assert "approximation: fidelity >= " in cold
    assert main(args) == 0
    warm = capsys.readouterr().out
    assert "approximation: fidelity >= " in warm
    assert "(cache: disk)" in warm or "(cache: hot)" in warm


def test_negative_top_is_an_argparse_error(bell_file, capsys):
    # A negative --top used to slice the ranking from the end and print
    # "... N more outcomes" for outcomes that were never hidden.
    with pytest.raises(SystemExit) as info:
        main([bell_file, "--shots", "100", "--top", "-1"])
    assert info.value.code == 2
    assert "--top: must be >= 0, got -1" in capsys.readouterr().err


def test_top_zero_lists_no_outcomes(bell_file, capsys):
    assert main([bell_file, "--shots", "1000", "--seed", "1", "--top", "0"]) == 0
    out = capsys.readouterr().out
    assert "|00>" not in out and "|11>" not in out
    assert "... 2 more outcomes" in out


MID_CIRCUIT = """OPENQASM 2.0;
include "qelib1.inc";
qreg q[1];
creg c[1];
h q[0];
measure q[0] -> c[0];
h q[0];
measure q[0] -> c[0];
"""


def test_mid_circuit_counts_agree_with_and_without_cache_dir(tmp_path, capsys):
    # Regression: without --cache-dir the library sampled the final
    # unitary state (|0> 10000 times) while the service ran the shot
    # executor; both now take the one route.
    path = tmp_path / "mid.qasm"
    path.write_text(MID_CIRCUIT)
    argv = [str(path), "--shots", "10000", "--seed", "1"]
    runs = []
    for extra in ([], ["--cache-dir", str(tmp_path / "cache")]):
        assert main(argv + extra) == 0
        runs.append(capsys.readouterr().out.splitlines()[1:])
    assert runs[0] == runs[1]
    assert [line.split()[:2] for line in runs[0]] == [["|0>", "5056"], ["|1>", "4944"]]

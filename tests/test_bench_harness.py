"""Schema, check and gate tests for the benchmark harness."""

import json
import pathlib

import pytest

from repro.perf import bench

#: The layer names each case row times, after the perfbench layers.
LAYERS = {
    "compile.optimize",
    "build.kernel_unoptimized",
    "build.python",
    "build.kernel",
    "precompute.compile_edge",
    "sample.draw",
}


@pytest.fixture(scope="module")
def smoke_payload():
    # One harness run shared by the schema tests; smoke sizes keep it to
    # seconds.
    return bench.run_harness(smoke=True, workers=(1, 2))


def _copy(payload):
    return json.loads(json.dumps(payload))


class TestHarness:
    def test_payload_passes_validation(self, smoke_payload):
        bench.validate_payload(smoke_payload)

    def test_all_sections_present(self, smoke_payload):
        for section in (
            "config",
            "cases",
            "indistinguishability",
            "reordering",
            "compiled_cache",
            "mid_circuit",
            "parallel",
            "telemetry",
            "approximation",
            "noise",
        ):
            assert section in smoke_payload

    def test_case_rows_time_every_layer(self, smoke_payload):
        for case in smoke_payload["cases"]:
            assert set(case["seconds"]) == LAYERS
            assert case["repeats"] == 3
            assert case["samples_bit_identical"] is True

    def test_cache_section_shows_reuse(self, smoke_payload):
        cache = smoke_payload["compiled_cache"]
        assert cache["builds"] >= 1
        assert cache["reuses"] >= 1

    def test_parallel_reproducible(self, smoke_payload):
        assert smoke_payload["parallel"]["reproducible"] is True

    def test_mid_circuit_consistent(self, smoke_payload):
        mid = smoke_payload["mid_circuit"]
        assert mid["distributions_consistent"] is True
        assert mid["shots"] == 1_000

    def test_global_cache_restored(self, smoke_payload):
        from repro.perf import compiled_dd

        assert compiled_dd.DEFAULT_CACHE is not None
        assert compiled_dd.DEFAULT_CACHE.stats()["builds"] >= 0

    def test_approximation_honors_contract(self, smoke_payload):
        approx = smoke_payload["approximation"]
        assert approx["node_limit"] is None
        assert approx["exact_aborted"] is False
        assert approx["tvd_within_bound"] is True
        assert approx["samples_bit_identical"] is True
        assert approx["fidelity_bound"] >= 1.0 - approx["epsilon"] - 1e-9
        assert approx["approx_peak_nodes"] <= approx["exact_peak_nodes"]

    def test_noise_honors_contract(self, smoke_payload):
        noise = smoke_payload["noise"]
        assert noise["tvd_within_limit"] is True
        assert noise["samples_bit_identical"] is True
        assert noise["strength0_bit_identical"] is True
        assert noise["channel_applications"] > 0
        assert noise["tvd_vs_dense"] <= bench.NOISE_TVD_LIMIT


class TestValidation:
    def test_rejects_wrong_format(self, smoke_payload):
        bad = dict(smoke_payload, format="something-else")
        with pytest.raises(ValueError, match="format"):
            bench.validate_payload(bad)

    def test_rejects_wrong_version(self, smoke_payload):
        bad = dict(smoke_payload, version=bench.VERSION + 1)
        with pytest.raises(ValueError, match="version"):
            bench.validate_payload(bad)

    def test_rejects_missing_section(self, smoke_payload):
        bad = {k: v for k, v in smoke_payload.items() if k != "parallel"}
        with pytest.raises(ValueError, match="parallel"):
            bench.validate_payload(bad)

    def test_rejects_missing_case_key(self, smoke_payload):
        bad = _copy(smoke_payload)
        del bad["cases"][0]["dd_nodes"]
        with pytest.raises(ValueError, match="dd_nodes"):
            bench.validate_payload(bad)

    def test_rejects_irreproducible_parallel(self, smoke_payload):
        bad = _copy(smoke_payload)
        bad["parallel"]["reproducible"] = False
        with pytest.raises(ValueError, match="reproducible"):
            bench.validate_payload(bad)

    def test_rejects_tvd_over_bound(self, smoke_payload):
        bad = _copy(smoke_payload)
        bad["approximation"]["tvd_within_bound"] = False
        with pytest.raises(ValueError, match="bound"):
            bench.validate_payload(bad)

    def test_rejects_overspent_fidelity(self, smoke_payload):
        bad = _copy(smoke_payload)
        bad["approximation"]["fidelity_bound"] = 0.5
        with pytest.raises(ValueError, match="epsilon"):
            bench.validate_payload(bad)

    def test_full_runs_must_hit_node_reduction_floor(self, smoke_payload):
        bad = _copy(smoke_payload)
        bad["config"]["smoke"] = False
        bad["approximation"]["node_reduction"] = 1.1
        with pytest.raises(ValueError, match="floor"):
            bench.validate_payload(bad)

    def test_rejects_noisy_tvd_over_limit(self, smoke_payload):
        bad = _copy(smoke_payload)
        bad["noise"]["tvd_within_limit"] = False
        with pytest.raises(ValueError, match="dense"):
            bench.validate_payload(bad)

    def test_rejects_noisy_seed_drift(self, smoke_payload):
        bad = _copy(smoke_payload)
        bad["noise"]["samples_bit_identical"] = False
        with pytest.raises(ValueError, match="equal seed"):
            bench.validate_payload(bad)

    def test_rejects_strength0_drift(self, smoke_payload):
        bad = _copy(smoke_payload)
        bad["noise"]["strength0_bit_identical"] = False
        with pytest.raises(ValueError, match="strength-0"):
            bench.validate_payload(bad)

    def test_rejects_engine_drift(self, smoke_payload):
        bad = _copy(smoke_payload)
        bad["cases"][0]["samples_bit_identical"] = False
        with pytest.raises(ValueError, match="different samples"):
            bench.validate_payload(bad)

    def test_rejects_heavy_telemetry(self, smoke_payload):
        bad = _copy(smoke_payload)
        bad["telemetry"]["overhead_percent"] = 150.0
        with pytest.raises(ValueError, match="budget"):
            bench.validate_payload(bad)


class TestCompileHarness:
    """The circuit-pipeline and reordering sections of the harness."""

    def test_payload_passes_validation(self, smoke_payload):
        assert bench._cases_failures(smoke_payload["cases"]) == []
        assert bench._reordering_failures(smoke_payload["reordering"]) == []

    def test_all_sections_present(self, smoke_payload):
        for section in ("config", "cases", "indistinguishability", "reordering"):
            assert section in smoke_payload

    def test_reduction_meets_floor_on_every_family(self, smoke_payload):
        for case in smoke_payload["cases"]:
            if case["name"].startswith(bench.REDUCTION_FAMILIES):
                assert case["reduction_percent"] >= bench.REDUCTION_FLOOR

    def test_families_covered(self, smoke_payload):
        names = {case["name"] for case in smoke_payload["cases"]}
        for family in ("ghz", *bench.REDUCTION_FAMILIES):
            assert any(name.startswith(family) for name in names)

    def test_sampling_indistinguishable(self, smoke_payload):
        section = smoke_payload["indistinguishability"]
        assert section["distributions_consistent"] is True

    def test_pass_counters_recorded(self, smoke_payload):
        for case in smoke_payload["cases"]:
            assert set(case["passes"]) == {
                "cancel",
                "reorder",
                "fuse",
                "coalesce",
            }


class TestCompileValidation:
    def test_rejects_wrong_format(self, smoke_payload):
        # The retired compile harness's artifacts are refused.
        bad = dict(smoke_payload, format="repro-bench-build")
        with pytest.raises(ValueError, match="format"):
            bench.validate_payload(bad)

    def test_rejects_missing_section(self, smoke_payload):
        bad = {
            k: v for k, v in smoke_payload.items() if k != "indistinguishability"
        }
        with pytest.raises(ValueError, match="indistinguishability"):
            bench.validate_payload(bad)

    def test_rejects_missing_case_key(self, smoke_payload):
        bad = _copy(smoke_payload)
        del bad["cases"][0]["reduction_percent"]
        with pytest.raises(ValueError, match="reduction_percent"):
            bench.validate_payload(bad)

    def test_rejects_weak_reduction(self, smoke_payload):
        bad = _copy(smoke_payload)
        qft_row = next(c for c in bad["cases"] if c["name"].startswith("qft"))
        qft_row["reduction_percent"] = 5.0
        with pytest.raises(ValueError, match="floor"):
            bench.validate_payload(bad)

    def test_ghz_rows_are_outside_the_reduction_floor(self, smoke_payload):
        payload = _copy(smoke_payload)
        ghz_row = next(c for c in payload["cases"] if c["name"].startswith("ghz"))
        ghz_row["reduction_percent"] = 0.0
        bench.validate_payload(payload)

    def test_rejects_broken_reordering(self, smoke_payload):
        bad = _copy(smoke_payload)
        bad["reordering"]["permutation_roundtrip_exact"] = False
        with pytest.raises(ValueError, match="level_to_qubit"):
            bench.validate_payload(bad)


class TestApproxSmokeGate:
    def test_gate_passes_end_to_end(self):
        run, check = bench.GATES["approx"]
        outcome = run()
        assert check(outcome) == []
        assert outcome["exact_aborted"] is True
        assert outcome["approx_peak_nodes"] <= bench.APPROX_GATE_NODE_LIMIT
        assert outcome["tvd_within_bound"] is True
        assert outcome["samples_bit_identical"] is True


def _gate_records(payload):
    """Per gate: (a passing record shaped like the gate's section output,
    one field that breaks it, the failure message that must name it)."""
    qft_row = next(c for c in payload["cases"] if c["name"].startswith("qft"))
    return {
        "kernel": (
            dict(qft_row, kernel_speedup=5.0),
            {"kernel_speedup": 2.0},
            "kernel speedup 2.0x is below the 3.0x floor",
        ),
        "approx": (
            dict(
                payload["approximation"],
                node_limit=bench.APPROX_GATE_NODE_LIMIT,
                exact_aborted=True,
            ),
            {"exact_aborted": False},
            "exact build did not hit the node limit",
        ),
        "noise": (
            dict(
                payload["noise"],
                ceiling_circuit="ghz_20",
                ceiling_node_limit=bench.NOISE_GATE_NODE_LIMIT,
                ceiling_enforced=True,
                ceiling_seconds=0.1,
            ),
            {"ceiling_enforced": False},
            "ghz_20 build did not hit the node ceiling",
        ),
        "reorder": (
            dict(payload["reordering"]),
            {"distribution_exact": False},
            "reordered distribution differs from the fixed-order build",
        ),
    }


class TestGates:
    def test_every_gate_has_a_make_target(self):
        makefile = (pathlib.Path(__file__).parent.parent / "Makefile").read_text()
        assert set(bench.GATES) == {"kernel", "approx", "noise", "reorder"}
        for gate in bench.GATES:
            assert f"-m repro.perf.bench --gate {gate}" in makefile

    @pytest.mark.parametrize("gate", ["kernel", "approx", "noise", "reorder"])
    def test_gate_judges_its_section_with_the_section_check(
        self, gate, smoke_payload, monkeypatch, capsys
    ):
        record, breaking, message = _gate_records(smoke_payload)[gate]
        _, check = bench.GATES[gate]

        monkeypatch.setitem(bench.GATES, gate, (lambda: record, check))
        assert bench.main(["--gate", gate]) == 0
        out, err = capsys.readouterr()
        assert out.startswith(f"bench-{gate}: ") and err == ""

        broken = dict(record, **breaking)
        monkeypatch.setitem(bench.GATES, gate, (lambda: broken, check))
        assert bench.main(["--gate", gate]) == 1
        assert f"bench-{gate}: {message}" in capsys.readouterr().err


class TestCLI:
    def test_main_writes_and_validates(self, tmp_path, capsys):
        out = tmp_path / "BENCH_sampling.json"
        assert bench.main(["--out", str(out), "--smoke"]) == 0
        payload = json.loads(out.read_text())
        bench.validate_payload(payload)
        assert payload["config"]["smoke"] is True
        assert "branching speedup" in capsys.readouterr().out

    def test_main_validate_mode(self, tmp_path, capsys, smoke_payload):
        out = tmp_path / "BENCH_sampling.json"
        out.write_text(json.dumps(smoke_payload))
        assert bench.main(["--validate", str(out)]) == 0
        assert "schema ok" in capsys.readouterr().out

    def test_main_validate_rejects_drift(self, tmp_path, capsys):
        out = tmp_path / "bad.json"
        out.write_text(json.dumps({"format": "other"}))
        assert bench.main(["--validate", str(out)]) == 1
        assert "schema drift" in capsys.readouterr().err

    def test_cli_options(self):
        options = {
            option
            for action in bench._build_parser()._actions
            for option in action.option_strings
        }
        assert options == {"-h", "--help", "--out", "--smoke", "--gate", "--validate"}

    def test_committed_artifact_passes_schema(self):
        artifact = pathlib.Path(__file__).parent.parent / "BENCH_sampling.json"
        payload = json.loads(artifact.read_text())
        bench.validate_payload(payload)
        assert payload["config"]["smoke"] is False

"""``BuildSpec``: one parse, one rule table, one key fold, on every surface.

Three contracts are pinned here:

* **The artifact key.**  Literal digests for every feature spelling
  (``package_version="golden"``), so a change to the key's byte layout
  fails loudly.  A future ``ARTIFACT_VERSION`` bump must update them
  deliberately.  Raw spellings, config objects and the service's own
  keys all agree; the pool's routing key ignores the features.
* **The rule table.**  ``RULE_CASES`` maps each row of
  ``repro.simulators.build_spec.RULES`` to a request that breaks that
  row and no other; every surface (library, ``SamplingService``, JSONL
  batch, ``repro-sample``) must refuse it with the row's message.
* **The docs table.**  ``docs/api.md`` carries the table by row name,
  and ``tools/check_docs.py`` keeps it, and every citation of a row, in
  step with the code.
"""

import io
import json
import sys
from pathlib import Path

import pytest

from repro.algorithms.qft import qft
from repro.algorithms.states import ghz
from repro.cli import main as cli_main
from repro.core.weak_sim import simulate_and_sample
from repro.dd.approximation import ApproximationConfig
from repro.dd.normalization import NormalizationScheme
from repro.dd.reorder import ReorderConfig
from repro.exceptions import DDError, NoiseError, SamplingError
from repro.noise.model import NoiseModel
from repro.service.__main__ import run_batch
from repro.service.api import SamplingRequest, SamplingService, resolve_circuit
from repro.service.keys import cache_key, spec_key
from repro.service.pool import WorkerPool
from repro.service.scheduler import ServicePolicy
from repro.simulators import build_spec
from repro.simulators.build_spec import RULES, BuildSpec, BuildSpecError

REPO_ROOT = Path(__file__).resolve().parent.parent


# ---------------------------------------------------------------------------
# The artifact key
# ---------------------------------------------------------------------------

#: Settings per golden case; the feature values are raw spellings.
KEY_CASES = {
    "exact": {},
    "raw": {"optimize": False},
    "initial_state_3": {"initial_state": 3},
    "leftmost": {"scheme": NormalizationScheme.LEFTMOST},
    "approx_0.05": {"approximation": 0.05},
    "approx_budget": {"approximation": {"epsilon": 0.05, "node_budget": 64}},
    "approx_interval": {"approximation": {"epsilon": 0.1, "interval": 3}},
    "reorder_true": {"reorder": True},
    "reorder_17": {"reorder": 17},
    "reorder_map": {"reorder": {"budget": 9, "static": False}},
    "noise_0.01": {"noise": 0.01},
    "noise_readout": {"noise": {"depolarizing": 0.01, "readout": {"p01": 0.02}}},
    "noise_mixed": {"noise": {"amplitude_damping": 0.03, "phase_flip": 0.02}},
}

#: ``cache_key(circuit, package_version="golden", **KEY_CASES[case])`` as
#: literals; the noisy ones are the ``optimize=False`` keys the service
#: stores noisy artifacts under.
GOLDEN = {
    "qft_4": {
        "exact": "a0dc060e9351f205b93b705796ef1fcebf92d3f05cd6230bfa61a64095028080",
        "raw": "edfdb3209dfa659ad81024674bc73fbbabe53186cd769c25fc327f3a63f6ddac",
        "initial_state_3": "7abe4f522b9117a139b9ddce9492569d4e759ede0fbcdf18ed770a65e4c82f20",
        "leftmost": "e8afba7e678de9537390ccf507a72f716ed2d29e254dc34e0318cad0914b181b",
        "approx_0.05": "42011a966d09303f919b9d227d69ab8a45f659e590993433aab10b8c846714ed",
        "approx_budget": "61386c0ffcdc99d971b5f0d0c2bc581cb46eaaa220553a642a68319928afc58e",
        "approx_interval": "20b98aadfd602c6ca162f0197649ff0eb18d598403669aac93ef58eefe89ba8b",
        "reorder_true": "7c881d264b4c54db1d87ec48f9f36fa0003270d55ed4be45e4e2ea0f969757e5",
        "reorder_17": "b43eb9df35f3fd84bafafd820097d41a591f4e7b40a53529a1b4a685785e87a1",
        "reorder_map": "12abb30518575dee85236df4965e676c27aab5c14bc45d6bd392f92ca1fc4584",
        "noise_0.01": "1aef29dbd58bab42399ad6cbb23b31fdee9ed5cd84ada92b7bd83ef70eef5b83",
        "noise_readout": "5b543c5e22700331d886ba8f69ddaf39e6cad1b1556dd1b0e3abf844cb4bffd7",
        "noise_mixed": "467f65fafdc12edb6935ea4032501efd24ea838184967a1ae81e5eb24654ea56",
    },
    "ghz_4": {
        "exact": "d32be1f13a21686dfc34fc951d4eee72966fbf8bd4551a2bf6c13db392e92bd3",
        "raw": "f4c4a2df7b51b82ca5e6398cf4d4031183eb4684765c57b5505de787d6e5366d",
        "initial_state_3": "ad65193af9177ba6e81d252c1248a5e220a1346da8e9482ebd29cfd0b3dc10d1",
        "leftmost": "9a2bf076c59cac77adb44c50018fcb685e952d8c64d452de45b909d0e67a0c9d",
        "approx_0.05": "6acc58403ecbefb98e5a2d2b9d38f144da9e49f9dc5e9db565b1ebe48b9df1d3",
        "approx_budget": "3424c881eb8ab2a0a3eb8898e5695e2740c8ca20fff22fc059e02620b1de332d",
        "approx_interval": "fa25ee2448bdcb7671dccf8e310bd7396f0e16e6e8066a0f471a465c3eb19d9d",
        "reorder_true": "636b09bc6e792989b9e7d3f77c5e3b0395caa9541f63aae1ee55636246972df1",
        "reorder_17": "7eccb2d182627e1cda499369afb782c05632b41544eb0303d25e2281f412b530",
        "reorder_map": "eebe87e86663302b44606c2a26d1f4d7fc1fa03abb28de3bbd0b846ee50efc88",
        "noise_0.01": "f7bb4090b33cae0a1bdbf9153af0ad039a3096d6fb80749dcfe25a7060b4db24",
        "noise_readout": "a5bb365a70b78f700afd30030374dcbda30e134d38780f78f36e56ff6d04a7fc",
        "noise_mixed": "eab7b67403f6691c60d2deca0fca0467fe2340eb1579d432224ba78284ec4495",
    },
}

CIRCUITS = {"qft_4": qft(4), "ghz_4": ghz(4)}

#: Every spelling of "feature off"; each must leave the exact key alone.
DISABLED = [
    {"approximation": 0.0},
    {"approximation": {"epsilon": 0.0}},
    {"approximation": ApproximationConfig()},
    {"reorder": False},
    {"reorder": 0},
    {"reorder": ReorderConfig()},
    {"noise": 0.0},
    {"noise": {"depolarizing": 0.0}},
    {"noise": NoiseModel()},
]

_PARSERS = {
    "approximation": ApproximationConfig.from_value,
    "reorder": ReorderConfig.from_value,
    "noise": NoiseModel.from_value,
}


def test_reference_digest_is_unchanged():
    assert cache_key(qft(4), package_version="golden") == (
        "a0dc060e9351f205b93b705796ef1fcebf92d3f05cd6230bfa61a64095028080"
    )


@pytest.mark.parametrize("name", list(CIRCUITS))
@pytest.mark.parametrize("case", list(KEY_CASES))
def test_golden_digests(name, case):
    settings = KEY_CASES[case]
    circuit = CIRCUITS[name]
    assert cache_key(circuit, package_version="golden", **settings) == (
        GOLDEN[name][case]
    )
    spec = BuildSpec.of(**settings)
    assert spec_key(circuit, spec, package_version="golden") == GOLDEN[name][case]


@pytest.mark.parametrize("name", list(CIRCUITS))
@pytest.mark.parametrize("case", list(KEY_CASES))
def test_raw_spellings_key_like_config_objects(name, case):
    raw = KEY_CASES[case]
    parsed = {
        field: _PARSERS[field](value) if field in _PARSERS else value
        for field, value in raw.items()
    }
    circuit = CIRCUITS[name]
    assert cache_key(circuit, package_version="golden", **raw) == cache_key(
        circuit, package_version="golden", **parsed
    )


@pytest.mark.parametrize("settings", DISABLED)
def test_disabled_spellings_equal_the_exact_key(settings):
    for name, circuit in CIRCUITS.items():
        assert cache_key(circuit, package_version="golden", **settings) == (
            GOLDEN[name]["exact"]
        )


@pytest.mark.parametrize("case", ["noise_0.01", "noise_readout", "noise_mixed"])
def test_noise_key_is_the_unoptimized_key(case):
    noise = KEY_CASES[case]["noise"]
    circuit = qft(4)
    assert cache_key(circuit, noise=noise) == cache_key(
        circuit, optimize=False, noise=noise
    )


@pytest.mark.parametrize(
    "fields",
    [
        {},
        {"optimize": False},
        {"initial_state": 2},
        {"approximation": 0.05},
        {"approximation": {"epsilon": 0.1, "node_budget": 8}},
        {"reorder": {"budget": 9}},
        {"reorder": False},
        {"noise_model": 0.01},
        {"noise_model": {"depolarizing": 0.0}},
        # The build picks its engine; a kernel field is ignored.
        {"kernel": "python"},
        {"kernel": "vector"},
        {"kernel": "bogus"},
        {"kernel": "vector", "approximation": 0.05},
    ],
)
def test_service_key_is_cache_key_of_the_request(fields):
    record = {"circuit": "ghz_4", "shots": 50, "seed": 1, **fields}
    with SamplingService() as service:
        response = service.sample(SamplingRequest.from_record(record))
    assert response.ok, response.error
    assert response.key == cache_key(
        resolve_circuit("ghz_4"),
        optimize=fields.get("optimize", True),
        initial_state=fields.get("initial_state", 0),
        approximation=fields.get("approximation"),
        reorder=fields.get("reorder"),
        noise=fields.get("noise_model"),
    )


def test_routing_key_ignores_build_features():
    # Routing hashes the raw optimize and initial_state fields only, so
    # a feature field never moves a circuit to another shard.
    pool = WorkerPool(workers=2)  # routing needs no running workers
    records = [
        {"circuit": "qft_4", "shots": 1},
        {"circuit": "qft_4", "shots": 1, "noise_model": 0.01},
        {"circuit": "qft_4", "shots": 1, "noise_model": 0.01, "optimize": False},
        {"circuit": "qft_4", "shots": 1, "approximation": 0.05},
        {"circuit": "qft_4", "shots": 1, "reorder": True},
        {"circuit": "ghz_4", "shots": 1, "initial_state": 3, "reorder": {"budget": 9}},
        {"circuit": "ghz_4", "shots": 1, "optimize": False, "kernel": "python",
         "approximation": {"epsilon": 0.1}},
    ]
    for record in records:
        assert pool.routing_key(record) == cache_key(
            resolve_circuit(record["circuit"]),
            optimize=bool(record.get("optimize", True)),
            initial_state=int(record.get("initial_state", 0)),
        )
    assert pool.routing_key(records[1]) == pool.routing_key(records[0])


def test_approximate_rung_builds_without_reordering():
    # The ladder's approximate rung drops the request's reorder config,
    # so a reordered request degrades onto the plain approximate key.
    circuit = resolve_circuit("supremacy_2x3_8")
    policy = ServicePolicy(max_build_nodes=30, approx_epsilon=0.2)
    with SamplingService(policy=policy) as service:
        response = service.sample(
            SamplingRequest(circuit, 200, seed=3, reorder=True)
        )
    assert response.ok and response.backend == "dd"
    assert response.degraded_reason.startswith("approximate DD")
    assert response.key == cache_key(
        circuit, approximation=ApproximationConfig(epsilon=0.2)
    )


# ---------------------------------------------------------------------------
# BuildSpec.of
# ---------------------------------------------------------------------------


def test_of_parses_raw_spellings_into_configs():
    spec = BuildSpec.of(
        approximation={"epsilon": 0.05, "node_budget": 64}, reorder=17
    )
    assert spec.approximation == ApproximationConfig(epsilon=0.05, node_budget=64)
    assert spec.reorder == ReorderConfig(enabled=True, budget=17)
    assert spec.noise is None and spec.optimize is True


@pytest.mark.parametrize("settings", DISABLED)
def test_of_maps_disabled_features_to_none(settings):
    assert BuildSpec.of(**settings) == BuildSpec()


def test_enabled_noise_turns_the_optimizer_off():
    assert BuildSpec.of(noise=0.01).optimize is False
    assert BuildSpec.of(noise=0.01).noise == NoiseModel(depolarizing=0.01)
    assert BuildSpec.of(noise=0.0).optimize is True
    assert BuildSpec.of(optimize=False).optimize is False


@pytest.mark.parametrize(
    "settings, error",
    [
        ({"approximation": 1.5}, DDError),
        ({"approximation": "fast"}, DDError),
        ({"reorder": {"bogus": 1}}, DDError),
        ({"reorder": -1}, DDError),
        ({"noise": {"depolarizing": 2}}, NoiseError),
        ({"noise": {"sparkle": 0.1}}, NoiseError),
    ],
)
def test_of_raises_the_config_error_for_malformed_values(settings, error):
    with pytest.raises(error):
        BuildSpec.of(**settings)


def test_spec_error_is_a_sampling_error_and_a_value_error():
    assert issubclass(BuildSpecError, SamplingError)
    assert issubclass(BuildSpecError, ValueError)
    BuildSpec().check()  # the default spec breaks no row


# ---------------------------------------------------------------------------
# The rule table, on every surface
# ---------------------------------------------------------------------------

MCM_QASM = (
    "OPENQASM 2.0;\n"
    'include "qelib1.inc";\n'
    "qreg q[2];\n"
    "creg c[2];\n"
    "h q[0];\n"
    "measure q[0] -> c[0];\n"
    "cx q[0],q[1];\n"
    "measure q[1] -> c[1];\n"
)

BELL_QASM = (
    "OPENQASM 2.0;\n"
    'include "qelib1.inc";\n'
    "qreg q[2];\n"
    "h q[0];\n"
    "cx q[0],q[1];\n"
)

#: Row name -> request fields breaking that row and no other.  ``mcm``
#: selects a circuit with a mid-circuit measurement (the shot-executor
#: route).
RULE_CASES = {
    "unknown-method": {"method": "psychic"},
    "workers-needs-dd": {"method": "dd-path", "workers": 2},
    "approximation-vector-method": {"method": "vector", "approximation": 0.05},
    "reorder-vector-method": {"method": "vector", "reorder": True},
    "noise-needs-dd": {"method": "dd-path", "noise_model": 0.01},
    "noise-approximation": {"noise_model": 0.01, "approximation": 0.05},
    "noise-reorder": {"noise_model": 0.01, "reorder": True},
    "noise-workers": {"noise_model": 0.01, "workers": 2},
    "per-shot-approximation": {"mcm": True, "approximation": 0.05},
    "per-shot-reorder": {"mcm": True, "reorder": True},
}

#: ``repro-sample`` flags reaching each row, with and without
#: ``--cache-dir``.
CLI_FLAGS = {
    "workers-needs-dd": ["--method", "dd-path", "--workers", "2"],
    "approximation-vector-method": ["--method", "vector", "--approx-epsilon", "0.05"],
    "reorder-vector-method": ["--method", "vector", "--reorder"],
    "noise-needs-dd": ["--method", "dd-path", "--noise-strength", "0.01"],
    "noise-approximation": ["--noise-strength", "0.01", "--approx-epsilon", "0.05"],
    "noise-reorder": ["--noise-strength", "0.01", "--reorder-budget", "5"],
    "noise-workers": ["--noise-strength", "0.01", "--workers", "2"],
    "per-shot-approximation": ["--approx-epsilon", "0.05"],
    "per-shot-reorder": ["--reorder"],
}

#: Rows no flag combination reaches: argparse restricts ``--method`` to
#: its choices.
CLI_UNREACHABLE = {"unknown-method"}


def _record(fields):
    record = {
        "circuit": {"qasm": MCM_QASM} if fields.get("mcm") else "bell",
        "shots": 10,
        "seed": 1,
    }
    record.update((name, value) for name, value in fields.items() if name != "mcm")
    return record


def _message(name):
    fields = RULE_CASES[name]
    rule = next(rule for rule in RULES if rule.name == name)
    return rule.message.format(method=fields.get("method", "dd"))


def test_every_row_has_a_case():
    assert list(RULE_CASES) == [rule.name for rule in RULES]
    assert set(CLI_FLAGS) | CLI_UNREACHABLE == set(RULE_CASES)
    assert not set(CLI_FLAGS) & CLI_UNREACHABLE


@pytest.mark.parametrize(
    "mcm, fields, path",
    [
        (False, {}, "dd"),
        (False, {"method": "dd-path"}, "dd"),
        (False, {"method": "vector"}, "statevector"),
        (False, {"noise_model": 0.01}, "density"),
        (True, {}, "shot-executor"),
        (True, {"method": "vector-alias"}, "shot-executor"),
        (True, {"initial_state": 1, "workers": 2}, "shot-executor"),
        (True, {"noise_model": 0.01}, "density"),
    ],
)
def test_route_names_the_serving_path(mcm, fields, path):
    request = SamplingRequest.from_record(_record({"mcm": mcm, **fields}))
    spec = request.build_spec()
    assert spec.route(request.circuit, request.method, request.workers) == path


@pytest.mark.parametrize("name", list(RULE_CASES))
def test_each_case_breaks_only_its_row(name, monkeypatch):
    request = SamplingRequest.from_record(_record(RULE_CASES[name]))
    spec = request.build_spec()
    with pytest.raises(BuildSpecError) as caught:
        spec.route(request.circuit, request.method, request.workers)
    assert str(caught.value) == _message(name)
    others = tuple(rule for rule in RULES if rule.name != name)
    monkeypatch.setattr(build_spec, "RULES", others)
    spec.route(request.circuit, request.method, request.workers)


@pytest.mark.parametrize("name", list(RULE_CASES))
def test_library_raises_the_row_message(name):
    record = _record(RULE_CASES[name])
    kwargs = {
        "noise" if field == "noise_model" else field: value
        for field, value in RULE_CASES[name].items()
        if field != "mcm"
    }
    with pytest.raises(SamplingError) as caught:
        simulate_and_sample(resolve_circuit(record["circuit"]), 10, seed=1, **kwargs)
    assert str(caught.value) == _message(name)


@pytest.mark.parametrize("name", list(RULE_CASES))
def test_service_rejects_with_the_row_message(name):
    with SamplingService() as service:
        response = service.sample(SamplingRequest.from_record(_record(RULE_CASES[name])))
    assert response.status == "rejected"
    assert response.error == _message(name)


def test_run_batch_writes_each_row_message():
    lines = "".join(json.dumps(_record(fields)) + "\n" for fields in RULE_CASES.values())
    sink = io.StringIO()
    with SamplingService() as service:
        failures = run_batch(service, io.StringIO(lines), sink)
    records = [json.loads(line) for line in sink.getvalue().splitlines()]
    assert failures == len(RULE_CASES)
    assert [(record["status"], record["error"]) for record in records] == [
        ("rejected", _message(name)) for name in RULE_CASES
    ]


@pytest.mark.parametrize(
    "name, cached", [(name, cached) for name in CLI_FLAGS for cached in (False, True)]
)
def test_cli_exits_2_with_the_row_message(name, cached, tmp_path, capsys):
    path = tmp_path / "circuit.qasm"
    path.write_text(MCM_QASM if RULE_CASES[name].get("mcm") else BELL_QASM)
    argv = [str(path), "--shots", "10", "--seed", "1", *CLI_FLAGS[name]]
    if cached:
        argv += ["--cache-dir", str(tmp_path / "cache")]
    assert cli_main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert err.rstrip().endswith(_message(name))


# ---------------------------------------------------------------------------
# The docs table (tools/check_docs.py)
# ---------------------------------------------------------------------------

sys.path.insert(0, str(REPO_ROOT / "tools"))

import check_docs  # noqa: E402  (needs the tools/ dir on the path)


#: The table as ``RULES`` has it: (name, message) per row, in order.
RULE_ROWS = [(rule.name, rule.message) for rule in RULES]


def _rule_table(rows):
    body = "".join(
        f"| `{name}` | combination | `{message}` | reason |\n"
        for name, message in rows
    )
    header = "| rule | combination | message | why |\n|---|---|---|---|\n"
    return "# Doc\n\n## Combination rules\n\n" + header + body


def _problems(tmp_path, text):
    doc = tmp_path / "doc.md"
    doc.write_text(text, encoding="utf-8")
    checker = check_docs.DocsChecker()
    checker.check_file(doc)
    return [problem.message for problem in checker.problems]


def test_docs_rule_table_matches_the_code():
    text = check_docs.RULE_TABLE_DOC.read_text(encoding="utf-8")
    documented = [(name, message) for _line, name, message in check_docs.rule_table_rows(text)]
    assert documented == RULE_ROWS


def test_docs_check_accepts_the_exact_table(tmp_path):
    assert _problems(tmp_path, _rule_table(RULE_ROWS)) == []


def test_docs_check_flags_reordered_rows(tmp_path):
    rows = list(RULE_ROWS)
    rows[8], rows[9] = rows[9], rows[8]
    problems = _problems(tmp_path, _rule_table(rows))
    assert len(problems) == 1 and "rule table row 9" in problems[0]


def test_docs_check_flags_changed_wording_and_missing_rows(tmp_path):
    last = len(RULES) - 1
    reworded = list(RULE_ROWS)
    reworded[last] = (reworded[last][0], "reordering does not mix with measurement")
    problems = _problems(tmp_path, _rule_table(reworded))
    assert any(f"row {len(RULES)}" in p for p in problems)
    short = _problems(tmp_path, _rule_table(RULE_ROWS[:-1]))
    assert any(f"{len(RULES) - 1} rows" in p for p in short)


def test_docs_check_flags_a_wrong_rule_name(tmp_path):
    renamed = list(RULE_ROWS)
    renamed[1] = ("workers-need-dd", renamed[1][1])
    problems = _problems(tmp_path, _rule_table(renamed))
    assert len(problems) == 1
    assert "rule table row 2" in problems[0] and "workers-need-dd" in problems[0]


def test_docs_check_flags_rows_cited_by_number(tmp_path):
    # A number goes stale whenever a row is added or removed; a name
    # does not.  Citations may wrap across lines; code blocks are exempt.
    text = _rule_table(RULE_ROWS) + (
        "\nNoisy requests break rows 4–7 of the table.\n"
        "The mid-circuit rows\n9–10 apply too, and so does row 2.\n"
        "Cite `noise-workers` by name instead.\n"
        "\n```\nrow 3 in a code block\n```\n"
    )
    problems = _problems(tmp_path, text)
    assert [p.split(" cites")[0] for p in problems] == [
        "'rows 4'", "'rows 9'", "'row 2'"
    ]


def test_docs_check_requires_the_table_in_its_document(tmp_path, monkeypatch):
    doc = tmp_path / "doc.md"
    monkeypatch.setattr(check_docs, "RULE_TABLE_DOC", doc.resolve())
    assert any("missing" in p for p in _problems(tmp_path, "# Doc\n"))

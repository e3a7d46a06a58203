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
        "exact": "3230114d2f98e42e02a759e4663aa1d1164f088c9f54213e7cda02de9bb51455",
        "raw": "20dff3eed7df84d79e29e2171438bec2a38aa65ca5b7932cc8e9b21d8c8773c5",
        "initial_state_3": "6283da54de4e216322caa0677fb6a63f299b525b463a94a3b66211b2eca49981",
        "leftmost": "ef0b7932726e2aac5df3d0b40a7460f1534e42f2fe822b4a67384a8f9292f40c",
        "approx_0.05": "76d5463a5faa03b40421c8001e014556a519b6bb8f86f66db2baccc800195ad7",
        "approx_budget": "45ad932b48ff6c2d914109659be6fb0bcb5cff0d7560c178da99207c97b6d4e7",
        "approx_interval": "c481131bcffcb12b695cead429b9a0d8b0a2ba2bfe5661d64484a2875d2726a2",
        "reorder_true": "a5f5fd7c6c521463e76f4a3b081574e8756212810c2f60275dfd495f25d6187f",
        "reorder_17": "a7e6ababb7b6683f2a240fbe8b42bc1dd54ed2ccfda42e2de70268d86dde5446",
        "reorder_map": "6b5ef143fee29cc2f1fcf0e211dbc69e560cbf7164b3f73537636b774fc084a6",
        "noise_0.01": "d7b5437d44c194473c996df67226aa2569250d5030785c91a633e986241fa791",
        "noise_readout": "692f66c0fca8fce2d8e2e05e37837aafe6e78aea87f267c810de3eccc3bdc36e",
        "noise_mixed": "06882f3ce204c548e4ce02522ea1d8baff0a22d0c6660e7f6f51ec8a7ea81efd",
    },
    "ghz_4": {
        "exact": "6eea0361d67a79d29f943ee275e05709a08fe1fbcd08a13deef52a1b1b606987",
        "raw": "88618d0002e0dac6784bf919b3e024fdb96c14cd13f160121f56fbced5a65cc5",
        "initial_state_3": "95fc443b5fc57eae418c98b3ecfabbb7f3258b6019570fafaf94df22c5e9007b",
        "leftmost": "7115550985052b9114b7421fb41cd03d94337d76d6e38d1f91aeee2ab14ed96f",
        "approx_0.05": "f5a79d8d93aa63ed99a93d4ed62d7a4e15ed86a43885342c15172078f3d098fd",
        "approx_budget": "b7f200caa41c1ec61816dd1ea2a2d2e6cf836e3a28ba2fe0433c7d98a13f7477",
        "approx_interval": "583906d9aadea8bc538f199023b2d6b66470bba1ec07841b825c1326a5428392",
        "reorder_true": "1a51faf18e023b0e9bc2f3df7a9654255fd172943094a41c20ba980dd25d7bc9",
        "reorder_17": "41644ba3ad2818f943e29d43570f35a21dae5ef4d1242e7958f8a06f3b2d5724",
        "reorder_map": "d6ee95a4baee6249ae0e19434340e23ebd7c948cd522c87cd4cfc0edb9397e10",
        "noise_0.01": "8cf4d2f0fcb7226952f15477c8f77f5d62592956fea4011e72389f4844e4db86",
        "noise_readout": "89a870ddf0f20a7269ad4ac6f3b96b2343616391c98d4e5604160b2834f95153",
        "noise_mixed": "8e2916896c9b512c3c531546ee8a04553414f06ce2d4bdfb38831220c36e0f67",
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
        "3230114d2f98e42e02a759e4663aa1d1164f088c9f54213e7cda02de9bb51455"
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

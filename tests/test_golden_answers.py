"""Golden answers: the service's response bytes, pinned per request.

Each entry of ``ANSWERS`` is a request record (the JSONL/HTTP schema in
``docs/serving.md``) and the SHA-256 of its encoded response line with
``build_seconds`` and ``sampling_seconds`` zeroed.  The records are
served one at a time, in order, through one fresh ``SamplingService()``,
so the ``cache`` field (built, memory, bypass) is part of the answer.
``top`` is the encoder's cap, not a request field.

A change that moves an answer on purpose regenerates its digest and
lists the entry in CHANGES.md; any other mismatch is a regression.
"""

import dataclasses
import hashlib

import pytest

from repro.service.api import SamplingRequest, SamplingService
from repro.service.scheduler import ServicePolicy

#: One qubit: measured, rotated, measured again.
MID_CIRCUIT_QASM = (
    "OPENQASM 2.0;\n"
    'include "qelib1.inc";\n'
    "qreg q[1];\n"
    "creg c[1];\n"
    "h q[0];\n"
    "measure q[0] -> c[0];\n"
    "h q[0];\n"
    "measure q[0] -> c[0];\n"
)

#: Two qubits: qubit 0 measured, then copied onto qubit 1 and measured.
MID_CIRCUIT_2Q_QASM = (
    "OPENQASM 2.0;\n"
    'include "qelib1.inc";\n'
    "qreg q[2];\n"
    "creg c[2];\n"
    "h q[0];\n"
    "measure q[0] -> c[0];\n"
    "cx q[0],q[1];\n"
    "measure q[1] -> c[1];\n"
)

_MID = {"qasm": MID_CIRCUIT_QASM}
_MID_2Q = {"qasm": MID_CIRCUIT_2Q_QASM}

#: name -> (request record, digest of the response line).
ANSWERS = {
    # -- each builtin family -------------------------------------------------
    "bell": (
        {"circuit": "bell", "shots": 1000, "seed": 1},
        "3c9d44981f27b4d5e10a2d6de9d658ea909c9bcef58f66aad4c84ea3b0e7d788",
    ),
    "qft_5": (
        {"circuit": "qft_5", "shots": 2000, "seed": 2},
        "9b28503d59b5a37fd8cfc628c98bd237884bc304160389d4ccb57b092d1ba42e",
    ),
    "grover_4": (
        {"circuit": "grover_4", "shots": 2000, "seed": 3},
        "1e9fbf45192d5946a380b2eb2e422959460c8565e70963cf97f86071bf165444",
    ),
    "ghz_6": (
        {"circuit": "ghz_6", "shots": 2000, "seed": 4},
        "eac3ffd7c5a77522cecb258eb7abfaf68ef1432db023fbc0c3e700db231b1d4e",
    ),
    "w_5": (
        {"circuit": "w_5", "shots": 2000, "seed": 5},
        "be6682e11de40eefd3cfcdc6fb2b26444d4094a4c3f38a7c4cb005d136284c91",
    ),
    "supremacy_2x3_4": (
        {"circuit": "supremacy_2x3_4", "shots": 2000, "seed": 6},
        "456dfe0342650906ca40e2b96765cca097e2b944e6637b2f4d4e6a104cb317d6",
    ),
    # -- top ----------------------------------------------------------------
    "top_none": (
        {"circuit": "supremacy_2x3_4", "shots": 500, "seed": 7, "top": None},
        "863d6cfdf2921ec31eca736e0a96429777603fe42144a46d0a3b311d13cb68cd",
    ),
    "top_0": (
        {"circuit": "supremacy_2x3_4", "shots": 500, "seed": 7, "top": 0},
        "78742cd32f4935c1e13dd7a1f688dbd044ddb62112851a7c170c74f4e4033fc8",
    ),
    "top_3": (
        {"circuit": "supremacy_2x3_4", "shots": 500, "seed": 7, "top": 3},
        "46e495897b2bbf03e8b7a3a6ed5637f4df69347305616104d46a5dc32f537fb8",
    ),
    "top_1e6": (
        {"circuit": "supremacy_2x3_4", "shots": 500, "seed": 7, "top": 10**6},
        "863d6cfdf2921ec31eca736e0a96429777603fe42144a46d0a3b311d13cb68cd",
    ),
    # -- build settings -----------------------------------------------------
    "optimize_false": (
        {"circuit": "qft_5", "shots": 2000, "seed": 2, "optimize": False},
        "5d36fdb6179c0ede51634d4ee36aa032da83eddea93cc39d93fa86490827c32a",
    ),
    "initial_state": (
        {"circuit": "qft_5", "shots": 2000, "seed": 2, "initial_state": 5},
        "b8baf79bbfd0ad12a881da44e86c034190a123b66450a229faa4466876dd1a6e",
    ),
    "approx_number": (
        {
            "circuit": "supremacy_2x3_4",
            "shots": 2000,
            "seed": 8,
            "approximation": 0.1,
        },
        "0ce5ead4f3dfeccfc43ea963058d45169bc66e6f5c5dd51a10c6ad0deaf0607c",
    ),
    "approx_mapping": (
        {
            "circuit": "supremacy_2x3_4",
            "shots": 2000,
            "seed": 8,
            "approximation": {"epsilon": 0.05, "node_budget": 8},
        },
        "b27e5ce65fd15190ceb73fe02804e310e6eb04ad2851ebb8f679110d05e8f2a6",
    ),
    "approx_zero": (
        {"circuit": "supremacy_2x3_4", "shots": 2000, "seed": 8, "approximation": 0},
        "f03f3b0e55e75227070a3c007974e42eb82d6d0cee98cebd6cb8bb641b64e00d",
    ),
    "reorder_true": (
        {"circuit": "supremacy_2x3_4", "shots": 2000, "seed": 9, "reorder": True},
        "43ca233667c8c47ac4f731882ce977114e4e0c08d8f370b0826ddb1a536a3fa4",
    ),
    "reorder_budget": (
        {"circuit": "supremacy_2x3_4", "shots": 2000, "seed": 9, "reorder": 4},
        "45582b4b83ff63aa4d307bb1573ddd7143d34176fc4aa7ff4da10d86440e773b",
    ),
    "reorder_false": (
        {"circuit": "supremacy_2x3_4", "shots": 2000, "seed": 9, "reorder": False},
        "f7a0882b9dd337772949a3eafa0d13d2b61642a470e2be3c4b4fb6b5d96e7aad",
    ),
    "noise_number": (
        {"circuit": "ghz_4", "shots": 2000, "seed": 10, "noise_model": 0.02},
        "cc5e3a08c37222edf898d6cb3e0b55e6684c07c40d992fa04ac4576d1c0aaa9f",
    ),
    "noise_readout": (
        {
            "circuit": "ghz_4",
            "shots": 2000,
            "seed": 10,
            "noise_model": {
                "amplitude_damping": 0.01,
                "readout": {"p01": 0.02, "p10": 0.01},
            },
        },
        "8de1caaddf239241c2bdf0d9ec4d9a87d15225e8525c2c1beed87b81b1afef73",
    ),
    "noise_zero": (
        {
            "circuit": "ghz_4",
            "shots": 2000,
            "seed": 10,
            "noise_model": {"depolarizing": 0.0},
        },
        "ed4230817757b74185f7324061b259d4443c4969d868c5ce3952db3915b198a6",
    ),
    "workers_3": (
        {"circuit": "qft_5", "shots": 5000, "seed": 11, "workers": 3},
        "2fc6fc7b8191cd7b6b435dd58e17b809ef7e084ba047568117c7516b25fe6360",
    ),
    "kernel_python": (
        {"circuit": "qft_5", "shots": 2000, "seed": 2, "kernel": "python"},
        "358b0ed35951d68ac391e4deaadb2a168e1f3391e825a6a4a8eb3b43ec379b42",
    ),
    # -- every method ---------------------------------------------------------
    "method_dd-path": (
        {"circuit": "w_5", "shots": 2000, "seed": 12, "method": "dd-path"},
        "ef93f466855fa0634c90c857e6a7bbbfb3b1df8bda50533f0fdad351612c9c44",
    ),
    "method_dd-multinomial": (
        {"circuit": "w_5", "shots": 2000, "seed": 12, "method": "dd-multinomial"},
        "9c2c89fdc18c0b5ec0cc0257fa5a52dd72ee05c2930ef1a99655c8b2e6fd75da",
    ),
    "method_dd-collapse": (
        {"circuit": "w_5", "shots": 2000, "seed": 12, "method": "dd-collapse"},
        "a8840d1ec9306bed7112dda9e94d774cdeb025c10ccfe720b47c061cf261aa68",
    ),
    "method_vector": (
        {"circuit": "w_5", "shots": 2000, "seed": 12, "method": "vector"},
        "9f800c897b5f8aeb142ff502da19b26bcf5613375afbb4a5bc623659f985848e",
    ),
    "method_vector-linear": (
        {"circuit": "w_5", "shots": 2000, "seed": 12, "method": "vector-linear"},
        "c64cb01ad1893680c18e03bf939457b302e33a1e4c1347a985771e1f337057d7",
    ),
    "method_vector-ooc": (
        {"circuit": "w_5", "shots": 2000, "seed": 12, "method": "vector-ooc"},
        "5c4e6decadec6ff37b357974606db5a249920b777fd71684997b4444f07f54e6",
    ),
    "method_vector-alias": (
        {"circuit": "w_5", "shots": 2000, "seed": 12, "method": "vector-alias"},
        "21cb07f010c13082c0fbae36cdda5a2b762175ec9b44fe4e8de5abb0ee5bf73d",
    ),
    # -- a mid-circuit measurement ------------------------------------------
    "mid_circuit_dd": (
        {"circuit": _MID, "shots": 2000, "seed": 1},
        "0545d931fdd6c7ba866f7e8e99fd4e258e66ffed63b77e13a0b9fbe3727881d6",
    ),
    "mid_circuit_dd-path": (
        {"circuit": _MID, "shots": 2000, "seed": 1, "method": "dd-path"},
        "0545d931fdd6c7ba866f7e8e99fd4e258e66ffed63b77e13a0b9fbe3727881d6",
    ),
    "mid_circuit_vector": (
        {"circuit": _MID, "shots": 2000, "seed": 1, "method": "vector"},
        "0545d931fdd6c7ba866f7e8e99fd4e258e66ffed63b77e13a0b9fbe3727881d6",
    ),
    "mid_circuit_initial_state": (
        {"circuit": _MID_2Q, "shots": 2000, "seed": 1, "initial_state": 2},
        "2aa074377d8c6a99fa8ba952fcee63ddbecfc81aaae822c17ed7c80f47540f2a",
    ),
    "mid_circuit_noise": (
        {"circuit": _MID_2Q, "shots": 2000, "seed": 1, "noise_model": 0.02},
        "f0b2cd9a9d7a69d66d1e4329ba68fb909f447b33b21de4f1cf3f71f598683c16",
    ),
    "mid_circuit_reject_approximation": (
        {"circuit": _MID, "shots": 10, "seed": 1, "approximation": 0.05},
        "e514feaf7616398c41f6e85050260bf81c88e25789b2c9222b32a36d4f94438c",
    ),
    # -- rejections ---------------------------------------------------------
    "reject_negative_shots": (
        {"circuit": "bell", "shots": -5, "seed": 1},
        "e16cc19057a160bc1a76ef783158331710f23cc74787977ba14ac041a11a8e29",
    ),
    "reject_deadline": (
        {"circuit": "bell", "shots": 10, "seed": 1, "deadline_seconds": 0},
        "b07593ed10f745826cb3e2c6dc8ab2fc08ca2e827cf561c492ecf6b33bcafa42",
    ),
    "reject_rule_row": (
        {"circuit": "bell", "shots": 10, "seed": 1, "method": "dd-path", "workers": 2},
        "5df7043a47462c806c2789dc8d13553e33fd13c15d5ca90943c77216a341ec58",
    ),
}

#: Served alone under a node ceiling the exact build breaks: the answer
#: comes from the degradation ladder's statevector rung.
DEGRADED_POLICY = ServicePolicy(max_build_nodes=4)
DEGRADED = (
    {"circuit": "qft_5", "shots": 1000, "seed": 13},
    "41cecc3b3eee6b93943ddf1ca014a67e640a2914a5dd2ead9738bf49361e9af7",
)


def _digest(service, record):
    """SHA-256 of the response line for ``record``, timings zeroed."""
    response = service.sample(SamplingRequest.from_record(record))
    line = dataclasses.replace(
        response, build_seconds=0.0, sampling_seconds=0.0
    ).to_json_bytes(top=record.get("top"))
    return hashlib.sha256(line).hexdigest()


@pytest.fixture(scope="module")
def digests():
    with SamplingService() as service:
        return {name: _digest(service, record) for name, (record, _) in ANSWERS.items()}


@pytest.mark.parametrize("name", list(ANSWERS))
def test_answer_is_pinned(name, digests):
    record, expected = ANSWERS[name]
    assert digests[name] == expected, (
        f"request {record} now answers {digests[name]}"
    )


def test_degraded_answer_is_pinned():
    record, expected = DEGRADED
    with SamplingService(policy=DEGRADED_POLICY) as service:
        got = _digest(service, record)
    assert got == expected, f"request {record} now answers {got}"

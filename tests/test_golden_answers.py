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
        "4cb64231500a6d7cc5b8c9326c4f725403e022d1089d6f76b50034b04038e759",
    ),
    "qft_5": (
        {"circuit": "qft_5", "shots": 2000, "seed": 2},
        "4546ae463ec8ae326cb9bbb91622a065fcd224e79744120b8fedf89cdb516d1d",
    ),
    "grover_4": (
        {"circuit": "grover_4", "shots": 2000, "seed": 3},
        "bb54715d9f5b8bd30678d0c9a3352f5aeaf65bb82265decf5b9a88c585cec655",
    ),
    "ghz_6": (
        {"circuit": "ghz_6", "shots": 2000, "seed": 4},
        "c8c9ac2953930fa262fdef520bed292efd6139dcd60e5363c9e22683c6cde21f",
    ),
    "w_5": (
        {"circuit": "w_5", "shots": 2000, "seed": 5},
        "98be0ddd2b1bec86a034322445fbf8338332dee6e64ef9b94ad51e09779d25ac",
    ),
    "supremacy_2x3_4": (
        {"circuit": "supremacy_2x3_4", "shots": 2000, "seed": 6},
        "02b8fe61162900ada35e0a5afcca85dc83ddb0657bfa7ed9417583cb1f646e06",
    ),
    # -- top ----------------------------------------------------------------
    "top_none": (
        {"circuit": "supremacy_2x3_4", "shots": 500, "seed": 7, "top": None},
        "acdb12e20b02a39371dc0f91be0c88641beec43e3c72e4c961eafeaeba1bba95",
    ),
    "top_0": (
        {"circuit": "supremacy_2x3_4", "shots": 500, "seed": 7, "top": 0},
        "844ac40fca28e19c0f9484ae141bd89614034edeadbdc2788ecbc040b0b385bb",
    ),
    "top_3": (
        {"circuit": "supremacy_2x3_4", "shots": 500, "seed": 7, "top": 3},
        "55ea0f55399c56355d530a2a73260acabeb45b89b97cf394252a9316ff9906c3",
    ),
    "top_1e6": (
        {"circuit": "supremacy_2x3_4", "shots": 500, "seed": 7, "top": 10**6},
        "acdb12e20b02a39371dc0f91be0c88641beec43e3c72e4c961eafeaeba1bba95",
    ),
    # -- build settings -----------------------------------------------------
    "optimize_false": (
        {"circuit": "qft_5", "shots": 2000, "seed": 2, "optimize": False},
        "b9017e63aaeb349ddfe26efb9965ebbc5f25f46b01d85812d4dd68cf1545f704",
    ),
    "initial_state": (
        {"circuit": "qft_5", "shots": 2000, "seed": 2, "initial_state": 5},
        "846da9f22d87e426577e229f2fcbc69aaa17e5077399b0aaa3b2606c4b44b5a9",
    ),
    "approx_number": (
        {
            "circuit": "supremacy_2x3_4",
            "shots": 2000,
            "seed": 8,
            "approximation": 0.1,
        },
        "92b5590c4cfe4b9fdb404d5b6693776fcb2bc6434cf44f8fb43f7d3aa69807b8",
    ),
    "approx_mapping": (
        {
            "circuit": "supremacy_2x3_4",
            "shots": 2000,
            "seed": 8,
            "approximation": {"epsilon": 0.05, "node_budget": 8},
        },
        "518fe1bffce0ef19e67dc2d24997fb4c0175b44b0df6f0cc99d71080aab92c43",
    ),
    "approx_zero": (
        {"circuit": "supremacy_2x3_4", "shots": 2000, "seed": 8, "approximation": 0},
        "fb1959bedd386944a86cd8f35562e622d3adc4bef0c7023e2c36e8eead756d0d",
    ),
    "reorder_true": (
        {"circuit": "supremacy_2x3_4", "shots": 2000, "seed": 9, "reorder": True},
        "8cc6acb64fe10c6899f38f7d237c7de82a9e5cefb107fe8d93d93ae99e1cea01",
    ),
    "reorder_budget": (
        {"circuit": "supremacy_2x3_4", "shots": 2000, "seed": 9, "reorder": 4},
        "54a73434ba81862e6410386256885868c9687c644a1b64ef864be528823f58d1",
    ),
    "reorder_false": (
        {"circuit": "supremacy_2x3_4", "shots": 2000, "seed": 9, "reorder": False},
        "faef6feeb087528b6064cd2aeba5a9bb0d9d74cd7435a2deca18acdc00b91162",
    ),
    "noise_number": (
        {"circuit": "ghz_4", "shots": 2000, "seed": 10, "noise_model": 0.02},
        "7bd10b6afdb8fd716b48f3c5ce42f9008eae86778425f72dc428285ab1e3efcf",
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
        "025df6ccbcdfec96184c8170c91e160db9414fd6bdb6f5715a64bdb2633b3b16",
    ),
    "noise_zero": (
        {
            "circuit": "ghz_4",
            "shots": 2000,
            "seed": 10,
            "noise_model": {"depolarizing": 0.0},
        },
        "93d1fd8a0e08f58481863afd6b7301d25cb8ad79eb2b3e251ba41e0156b4eea5",
    ),
    "workers_3": (
        {"circuit": "qft_5", "shots": 5000, "seed": 11, "workers": 3},
        "a53eeedc49492c62aeb29baebe44a3e68da54edaa09443af9e1ae723ec3bdaf2",
    ),
    "kernel_python": (
        {"circuit": "qft_5", "shots": 2000, "seed": 2, "kernel": "python"},
        "9718c200cddb21039059271d1b31c9a04faf913222550178d246b99741c06b4c",
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
        "84d3ef060f02c1ae5118b4a706d5f6899c2eb08fb0584d4e66aba73f7b6df621",
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
    "74c7af4a2dcf88a7c71ea20b1bb8086c65db714a17b6e3b4690facac28d2e195",
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

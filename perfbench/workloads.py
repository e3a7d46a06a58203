"""Seeded request generators for the three benchmark workloads.

Every request carries its circuit as OpenQASM 2.0 text, exactly as an
external client would send it; the server never sees a builtin circuit
name.  All randomness comes from ``numpy.random.default_rng(seed)``, so
one ``--seed`` always yields the same request sequence.

The mix inside each workload is a fixed rotation over circuit families
and only the parameters are seeded, so two seeds give streams of the
same shape and cost profile: run-to-run spread reflects the server, not
a luckier draw of cheap circuits.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Set, Tuple

import numpy as np

from repro.algorithms.grover import grover
from repro.algorithms.qft import qft
from repro.algorithms.states import ghz, w_state
from repro.algorithms.supremacy import supremacy
from repro.circuit.circuit import QuantumCircuit
from repro.circuit.qasm import to_qasm
from repro.circuit.random_circuits import random_clifford_t_circuit

__all__ = [
    "Request",
    "WORKLOADS",
    "hot_circuits",
    "hot_stream",
    "cold_stream",
    "features_stream",
    "stream",
    "warmup_requests",
    "first_of_each",
]

WORKLOADS = ("serve_hot", "serve_cold", "serve_features")

HOT_SHOTS = 100_000
COLD_SHOTS = 1_000
FEATURE_SHOTS = 2_000

#: Cap on the width of a QFT applied to a seeded basis state in the cold
#: stream.  Such a QFT ends in a product state of a handful of nodes,
#: but today's build still walks ~2^n intermediate nodes (0.3 s at 10
#: qubits, 1.3 s at 12); past 10 qubits it would swamp every other
#: family in the stream.
QFT_BASIS_MAX_QUBITS = 10


@dataclass(frozen=True)
class Request:
    """One generated sampling request.

    ``kind`` selects the server path and the answer check: ``exact``
    (compiled artifact), ``noisy`` (density DD), ``approx`` (pruned DD),
    ``reorder`` (sifted DD) or ``mcm`` (mid-circuit measurement, served
    per shot by the ``ShotExecutor``).  ``options`` holds the extra
    request fields those paths need (``noise_model``, ``approximation``,
    ``reorder``).
    """

    family: str
    kind: str
    qasm: str
    shots: int
    seed: int
    initial_state: int = 0
    options: Dict[str, Any] = field(default_factory=dict)

    def record(self, request_id: str) -> Dict[str, Any]:
        """The JSON request body the server receives."""
        body: Dict[str, Any] = {
            "request_id": request_id,
            "circuit": {"qasm": self.qasm},
            "shots": self.shots,
            "seed": self.seed,
        }
        if self.initial_state:
            body["initial_state"] = self.initial_state
        body.update(self.options)
        return body

    def body(self, request_id: str) -> bytes:
        """The encoded request body."""
        return json.dumps(self.record(request_id)).encode("utf-8")

    @property
    def identity(self) -> Tuple[str, int, str]:
        """What makes two requests ask for the same artifact."""
        return (self.qasm, self.initial_state, json.dumps(self.options, sort_keys=True))


def _seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**31 - 1))


def _fresh(make: Callable[[], Request], seen: Set[Tuple[str, int, str]]) -> Request:
    """A request for an artifact this stream has not asked for yet.

    Some families have few distinct circuits (supremacy gate choices,
    a Grover marked element), so a draw can repeat an earlier one; a
    repeat would be answered from a cache tier the workload does not
    target, so it is drawn again.
    """
    for _attempt in range(100):
        request = make()
        if request.identity not in seen:
            seen.add(request.identity)
            return request
    raise RuntimeError("a request family ran out of distinct circuits")


# ---------------------------------------------------------------------------
# serve_hot
# ---------------------------------------------------------------------------


def hot_circuits() -> List[Tuple[str, QuantumCircuit]]:
    """The six circuits of ``serve_hot``; fixed, so shard placement is too.

    The first three are outcome-rich (~51k, ~31k and 4k distinct
    outcomes at 100k shots) and the last three outcome-poor (2 to 16),
    so counting and encoding costs separate from the draw itself.
    """
    return [
        ("qft_16", qft(16)),
        ("supremacy_4x4_5", supremacy(4, 4, 5, seed=3)),
        ("qft_12", qft(12)),
        ("grover_8", grover(8, marked=0b10110101).circuit),
        ("ghz_20", ghz(20)),
        ("w_16", w_state(16)),
    ]


def hot_stream(seed: int) -> Iterator[Request]:
    """``serve_hot``: the memory tier under 100k-shot full-count requests.

    Why: after set-up warms all six artifacts into the workers' hot
    cache, build does no work; every request loads sampling, counting,
    response encoding, QASM parsing and dispatch.  Each request draws a
    fresh seed, so no two responses are alike.
    """
    rng = np.random.default_rng(seed)
    texts = [(name, to_qasm(circuit)) for name, circuit in hot_circuits()]
    for name, text in itertools.cycle(texts):
        yield Request(name, "exact", text, HOT_SHOTS, _seed(rng))


# ---------------------------------------------------------------------------
# serve_cold
# ---------------------------------------------------------------------------


def _cold_circuit(
    family: str, width: int, rng: np.random.Generator
) -> Tuple[QuantumCircuit, int]:
    """One seeded ``width``-qubit circuit of ``family`` and its basis-state input."""
    # Supremacy gate choices leave only a handful of distinct circuits
    # per grid, so these families also draw a basis-state input.
    if family == "supremacy_4x4_5":
        return supremacy(4, 4, 5, seed=_seed(rng)), int(rng.integers(0, 2**width))
    if family == "supremacy_3x5_6":
        return supremacy(3, 5, 6, seed=_seed(rng)), int(rng.integers(0, 2**width))
    if family == "grover":
        data = width - 1
        return grover(data, marked=int(rng.integers(0, 2**data))).circuit, 0
    if family == "clifford_t_16":
        return random_clifford_t_circuit(width, 80, seed=_seed(rng)), 0
    if family == "ghz":
        return ghz(width), int(rng.integers(1, 2**width))
    if family == "w":
        return w_state(width), int(rng.integers(1, 2**width))
    if family == "qft_basis":
        return qft(width), int(rng.integers(1, 2**width))
    raise ValueError(f"unknown cold family {family!r}")


#: One cycle of ``serve_cold``: (family, width).  As in serve_features,
#: widths are fixed per position so every seed streams the same cost
#: profile; QFT widths stay at or below ``QFT_BASIS_MAX_QUBITS``.
COLD_CYCLE = (
    ("supremacy_4x4_5", 16),
    ("grover", 8),
    ("clifford_t_16", 16),
    ("supremacy_3x5_6", 15),
    ("ghz", 12),
    ("qft_basis", QFT_BASIS_MAX_QUBITS - 1),
    ("supremacy_4x4_5", 16),
    ("grover", 9),
    ("clifford_t_16", 16),
    ("supremacy_3x5_6", 15),
    ("w", 14),
    ("qft_basis", QFT_BASIS_MAX_QUBITS),
)


def cold_stream(seed: int) -> Iterator[Request]:
    """``serve_cold``: every request is a circuit the server has not seen.

    Why: each request pays the whole cold path: parse, cache key,
    compile, SoA-kernel build, precompute and store write.  The runner
    replays the stream afterwards, in order, to load the disk tier
    (``ArtifactStore`` reads).  The ghz/w and QFT families are made
    distinct by a seeded basis-state input.  Repeats are drawn again, so
    every build is of a new artifact.
    """
    rng = np.random.default_rng(seed)
    seen: Set[Tuple[str, int, str]] = set()

    def make(family: str, width: int) -> Request:
        circuit, initial_state = _cold_circuit(family, width, rng)
        return Request(
            family, "exact", to_qasm(circuit), COLD_SHOTS, _seed(rng),
            initial_state=initial_state,
        )

    for family, width in itertools.cycle(COLD_CYCLE):
        yield _fresh(lambda: make(family, width), seen)


# ---------------------------------------------------------------------------
# serve_features
# ---------------------------------------------------------------------------


def dusty_ghz(num_qubits: int, depth: int, rng: np.random.Generator) -> QuantumCircuit:
    """GHZ plus layers of tiny seeded ``ry`` rotations and CX pairs.

    The rotations spray low-amplitude branches that the entanglers keep
    apart, so the exact DD fills up while fidelity-driven pruning keeps
    it thin: the regime approximation exists for.
    """
    circuit = QuantumCircuit(num_qubits, name=f"dusty_ghz_{num_qubits}")
    circuit.h(0)
    for qubit in range(num_qubits - 1):
        circuit.cx(qubit, qubit + 1)
    for layer in range(depth):
        for qubit in range(num_qubits):
            circuit.ry(0.01 * (0.5 + float(rng.random())), qubit)
        for qubit in range(layer % 2, num_qubits - 1, 2):
            circuit.cx(qubit, qubit + 1)
    return circuit


def crossing(num_qubits: int, rng: np.random.Generator) -> QuantumCircuit:
    """Random ``u3`` layers with ``cx(i, i + n/2)``: natural order's worst case."""
    half = num_qubits // 2
    circuit = QuantumCircuit(num_qubits, name=f"crossing_{num_qubits}")
    for _layer in range(2):
        for qubit in range(num_qubits):
            theta, phi, lam = (float(v) for v in rng.uniform(0, 2 * np.pi, size=3))
            circuit.u3(theta, phi, lam, qubit)
        for low in range(half):
            circuit.cx(low, low + half)
    return circuit


def mid_measure(num_qubits: int, rng: np.random.Generator) -> QuantumCircuit:
    """Rotation/entangler segments separated by partial measurements.

    Measured qubits are reused, and the circuit ends in a full-register
    measurement, so the recorded bits are the final outcomes.
    """
    circuit = QuantumCircuit(num_qubits, name=f"midmeasure_{num_qubits}")
    for segment in range(3):
        for qubit in range(num_qubits):
            circuit.ry(float(rng.uniform(0, np.pi)), qubit)
        for qubit in range(num_qubits - 1):
            circuit.cx(qubit, qubit + 1)
        if segment < 2:
            circuit.measure(int(rng.integers(num_qubits)))
    circuit.measure_all()
    return circuit


def _noise(rng: np.random.Generator) -> Dict[str, Any]:
    """Seeded gate noise (two channels) plus readout error."""
    return {
        "depolarizing": round(float(rng.uniform(0.002, 0.02)), 6),
        "amplitude_damping": round(float(rng.uniform(0.0, 0.01)), 6),
        "readout": {
            "p01": round(float(rng.uniform(0.0, 0.03)), 6),
            "p10": round(float(rng.uniform(0.0, 0.03)), 6),
        },
    }


#: One cycle of ``serve_features``: (family, width).  Widths are fixed
#: per position, so every seed streams the same cost profile; only the
#: rotations, noise strengths and sampling seeds are drawn.  Each request
#: costs 40 to 130 ms in one process, so a run makes a few hundred of
#: them: with two connections over two hash-sharded workers, whether the
#: two requests in flight share a worker is a coin flip per request, and
#: only many requests average that out.
FEATURE_CYCLE = (
    ("noisy_ghz", 4),
    ("approx_dusty_ghz", 6),
    ("noisy_supremacy", 4),
    ("reorder_crossing", 6),
    ("mcm", 5),
    ("noisy_ghz", 5),
    ("approx_dusty_ghz", 6),
    ("noisy_supremacy", 4),
    ("reorder_crossing", 6),
    ("mcm", 5),
)


def _feature_request(family: str, width: int, rng: np.random.Generator) -> Request:
    if family == "noisy_ghz":
        return Request(
            f"noisy_ghz_{width}", "noisy", to_qasm(ghz(width)), FEATURE_SHOTS,
            _seed(rng), options={"noise_model": _noise(rng)},
        )
    if family == "noisy_supremacy":
        circuit = supremacy(2, width // 2, 3, seed=_seed(rng))
        strength = round(float(rng.uniform(0.002, 0.02)), 6)
        return Request(
            f"noisy_supremacy_2x{width // 2}_3", "noisy", to_qasm(circuit),
            FEATURE_SHOTS, _seed(rng),
            options={"noise_model": {"depolarizing": strength}},
        )
    if family == "approx_dusty_ghz":
        return Request(
            f"approx_dusty_ghz_{width}", "approx", to_qasm(dusty_ghz(width, 2, rng)),
            FEATURE_SHOTS, _seed(rng), options={"approximation": {"epsilon": 0.05}},
        )
    if family == "reorder_crossing":
        return Request(
            f"reorder_crossing_{width}", "reorder", to_qasm(crossing(width, rng)),
            FEATURE_SHOTS, _seed(rng), options={"reorder": True},
        )
    if family == "mcm":
        return Request(
            f"mcm_{width}", "mcm", to_qasm(mid_measure(width, rng)),
            FEATURE_SHOTS, _seed(rng),
        )
    raise ValueError(f"unknown feature family {family!r}")


def features_stream(seed: int) -> Iterator[Request]:
    """``serve_features``: the python-engine and cache-bypass paths.

    Why: density-matrix noise, ε-approximation, sifting and the
    mid-circuit-measurement ``ShotExecutor`` do nearly all the work
    here and none in the other two workloads.  Every circuit is small
    (4 to 6 qubits) and distinct, with seeded rotations and noise
    strengths, so each request builds (or, for mid-circuit measurement,
    re-simulates) through its feature path.
    """
    rng = np.random.default_rng(seed)
    seen: Set[Tuple[str, int, str]] = set()
    for family, width in itertools.cycle(FEATURE_CYCLE):
        yield _fresh(lambda: _feature_request(family, width, rng), seen)


def stream(workload: str, seed: int) -> Iterator[Request]:
    """The request generator of ``workload``."""
    generators = {
        "serve_hot": hot_stream,
        "serve_cold": cold_stream,
        "serve_features": features_stream,
    }
    if workload not in generators:
        raise ValueError(f"unknown workload {workload!r}")
    return generators[workload](seed)


def warmup_requests(workload: str) -> List[Request]:
    """Requests answered during set-up: one per ``serve_hot`` circuit."""
    if workload != "serve_hot":
        return []
    return [
        Request(name, "exact", to_qasm(circuit), 1, 0)
        for name, circuit in hot_circuits()
    ]


def first_of_each(requests: List[Request]) -> List[Request]:
    """The first request of every family: the bit-identity probe subset."""
    seen: Dict[str, Request] = {}
    for request in requests:
        seen.setdefault(request.family, request)
    return list(seen.values())

"""Randomized circuit families for differential fuzzing.

Each family stresses a different corner of the simulator stack.  All
generators take an explicit ``numpy`` Generator, so a family plus a seed
pins down the circuit exactly — every failure is replayable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Tuple

import numpy as np

from ..circuit import gates as g
from ..circuit.circuit import QuantumCircuit
from ..exceptions import ReproError

__all__ = ["CircuitFamily", "FAMILIES", "get_family"]

#: Gates the stabilizer backend understands (plus cx/cz built from
#: controls); the Clifford family draws only from these.
_CLIFFORD_SINGLE = ("h", "s", "sdg", "x", "y", "z")

#: Diagonal single-qubit gates for the diagonal-heavy family.
_DIAGONAL_SINGLE = ("z", "s", "sdg", "t", "tdg")


@dataclass(frozen=True)
class CircuitFamily:
    """A named random-circuit generator with oracle-relevant traits.

    ``clifford`` marks circuits the stabilizer backend can simulate;
    ``mid_circuit`` marks circuits containing measure-and-continue
    sections (the exact-distribution and approximation oracles do not
    apply to those; the :class:`~repro.core.shot_executor.ShotExecutor`
    oracles do).  ``reorder`` marks families whose structure
    makes dynamic qubit reordering worthwhile — the reorder-vs-fixed
    oracle runs only on those, where a reordering bug would actually
    move nodes around.
    """

    name: str
    description: str
    generate: Callable[[np.random.Generator], QuantumCircuit]
    clifford: bool = False
    mid_circuit: bool = False
    reorder: bool = False


def _clifford(rng: np.random.Generator) -> QuantumCircuit:
    """Random Clifford circuit over {H, S, Paulis, CX, CZ, SWAP}."""
    num_qubits = int(rng.integers(2, 6))
    num_gates = int(rng.integers(3 * num_qubits, 8 * num_qubits))
    circuit = QuantumCircuit(num_qubits, name="fuzz_clifford")
    for _ in range(num_gates):
        roll = rng.random()
        if num_qubits >= 2 and roll < 0.35:
            a, b = (int(q) for q in rng.choice(num_qubits, size=2, replace=False))
            pick = rng.random()
            if pick < 0.45:
                circuit.cx(a, b)
            elif pick < 0.9:
                circuit.cz(a, b)
            else:
                circuit.swap(a, b)
        else:
            qubit = int(rng.integers(num_qubits))
            name = _CLIFFORD_SINGLE[int(rng.integers(len(_CLIFFORD_SINGLE)))]
            circuit.apply(g.GATE_REGISTRY[name](), qubit)
    return circuit


def _diagonal_heavy(rng: np.random.Generator) -> QuantumCircuit:
    """Hadamard front followed by long runs of diagonal gates.

    Exercises the diagonal-coalescing pass (phase-polynomial Möbius
    transform) and the :class:`DiagonalOperation` appliers, including
    wrapped phases accumulated past ``2π``.
    """
    num_qubits = int(rng.integers(2, 6))
    num_gates = int(rng.integers(4 * num_qubits, 10 * num_qubits))
    circuit = QuantumCircuit(num_qubits, name="fuzz_diagonal")
    for qubit in range(num_qubits):
        circuit.h(qubit)
    for _ in range(num_gates):
        roll = rng.random()
        qubit = int(rng.integers(num_qubits))
        if roll < 0.10:
            # Occasional H keeps the state from being a pure phase pattern.
            circuit.h(qubit)
        elif num_qubits >= 2 and roll < 0.40:
            a, b = (int(q) for q in rng.choice(num_qubits, size=2, replace=False))
            pick = rng.random()
            if pick < 0.4:
                circuit.cz(a, b)
            elif pick < 0.8:
                circuit.cp(float(rng.uniform(-4 * np.pi, 4 * np.pi)), a, b)
            else:
                circuit.rzz(float(rng.uniform(-4 * np.pi, 4 * np.pi)), a, b)
        elif roll < 0.70:
            if rng.random() < 0.5:
                circuit.p(float(rng.uniform(-4 * np.pi, 4 * np.pi)), qubit)
            else:
                circuit.rz(float(rng.uniform(-4 * np.pi, 4 * np.pi)), qubit)
        else:
            name = _DIAGONAL_SINGLE[int(rng.integers(len(_DIAGONAL_SINGLE)))]
            circuit.apply(g.GATE_REGISTRY[name](), qubit)
    return circuit


def _mid_measure(rng: np.random.Generator) -> QuantumCircuit:
    """Measure-and-continue circuits for the :class:`ShotExecutor` path.

    Interleaves short unitary segments with subset and full-register
    measurements; qubits are deliberately measured and then *reused* so
    the outcome-branching executor's collapse/renormalise cycle is hit
    repeatedly.
    """
    num_qubits = int(rng.integers(2, 5))
    segments = int(rng.integers(2, 5))
    circuit = QuantumCircuit(num_qubits, name="fuzz_midmeasure")
    for segment in range(segments):
        for _ in range(int(rng.integers(2, 3 + 2 * num_qubits))):
            if num_qubits >= 2 and rng.random() < 0.3:
                a, b = (
                    int(q) for q in rng.choice(num_qubits, size=2, replace=False)
                )
                circuit.cx(a, b)
            else:
                qubit = int(rng.integers(num_qubits))
                pick = rng.random()
                if pick < 0.4:
                    circuit.h(qubit)
                elif pick < 0.7:
                    circuit.ry(float(rng.uniform(0, 2 * np.pi)), qubit)
                else:
                    circuit.apply(
                        g.GATE_REGISTRY[("x", "s", "t")[int(rng.integers(3))]](),
                        qubit,
                    )
        if segment < segments - 1 and rng.random() < 0.6:
            size = int(rng.integers(1, num_qubits + 1))
            subset = sorted(
                int(q) for q in rng.choice(num_qubits, size=size, replace=False)
            )
            circuit.measure(*subset)
        else:
            circuit.measure_all()
    return circuit


def _deep_register(rng: np.random.Generator) -> QuantumCircuit:
    """Wide, shallow circuits (12–16 qubits) with small DDs.

    Stresses the iterative (stack-based) DD traversals and the level
    bookkeeping of the compiled sampler without blowing up the dense
    reference (``2^16`` amplitudes stay tractable for the oracle).
    """
    num_qubits = int(rng.integers(12, 17))
    circuit = QuantumCircuit(num_qubits, name="fuzz_deep")
    for qubit in range(num_qubits):
        if rng.random() < 0.7:
            theta, phi, lam = (float(v) for v in rng.uniform(0, 2 * np.pi, size=3))
            circuit.u3(theta, phi, lam, qubit)
        else:
            circuit.h(qubit)
    # A sparse entangler ladder keeps node counts low but non-trivial.
    for qubit in range(0, num_qubits - 1, 2):
        if rng.random() < 0.5:
            circuit.cx(qubit, qubit + 1)
    for _ in range(int(rng.integers(2, 6))):
        a, b = (int(q) for q in rng.choice(num_qubits, size=2, replace=False))
        circuit.cz(a, b)
    return circuit


def _supremacy(rng: np.random.Generator) -> QuantumCircuit:
    """Random-circuit-sampling cycles with long-range entangling pairs.

    The quantum-supremacy pattern: cycles of random single-qubit
    rotations followed by a patterned entangling layer.  Every other
    cycle the ``cx`` pairs connect qubit ``i`` with ``i + n/2`` — the
    crossing pattern whose interactions are maximally non-local in the
    natural variable order, making this the primary stress family for
    the qubit-reordering machinery (``repro.dd.reorder``).  Width is
    kept at 8-10 qubits: enough for the crossing pattern to blow up the
    natural-order DD, small enough that the dense-reference oracles stay
    within the fuzz smoke budget.
    """
    num_qubits = int(rng.integers(8, 11))
    half = num_qubits // 2
    cycles = int(rng.integers(2, 4))
    circuit = QuantumCircuit(num_qubits, name="fuzz_supremacy")
    for qubit in range(num_qubits):
        circuit.h(qubit)
    for cycle in range(cycles):
        for qubit in range(num_qubits):
            theta, phi, lam = (
                float(v) for v in rng.uniform(0, 2 * np.pi, size=3)
            )
            circuit.u3(theta, phi, lam, qubit)
        if cycle % 2 == 0:
            for low in range(half):
                if rng.random() < 0.8:
                    circuit.cx(low, low + half)
        else:
            for low in range(0, num_qubits - 1, 2):
                circuit.cx(low, low + 1)
    return circuit


def _near_zero(rng: np.random.Generator) -> QuantumCircuit:
    """Adversarial circuits with amplitudes within rounding of zero.

    Tiny rotations, interference sandwiches (H·P(ε)·H ≈ identity), and
    exact inverse pairs produce states whose smallest amplitudes sit at
    the tolerance boundary of the complex table — the regime where
    normalisation and collapse bugs hide.
    """
    num_qubits = int(rng.integers(2, 5))
    epsilons = (1e-6, 1e-8, 1e-10)
    circuit = QuantumCircuit(num_qubits, name="fuzz_nearzero")
    for _ in range(int(rng.integers(3 * num_qubits, 7 * num_qubits))):
        qubit = int(rng.integers(num_qubits))
        roll = rng.random()
        eps = float(epsilons[int(rng.integers(len(epsilons)))])
        if roll < 0.25:
            circuit.ry(eps * float(rng.choice((-1.0, 1.0))), qubit)
        elif roll < 0.45:
            circuit.h(qubit)
            circuit.p(eps, qubit)
            circuit.h(qubit)
        elif roll < 0.6:
            theta = float(rng.uniform(0, 2 * np.pi))
            circuit.rz(theta, qubit)
            circuit.rz(-theta, qubit)
        elif num_qubits >= 2 and roll < 0.8:
            a, b = (int(q) for q in rng.choice(num_qubits, size=2, replace=False))
            circuit.cx(a, b)
        else:
            circuit.h(qubit)
    return circuit


FAMILIES: Dict[str, CircuitFamily] = {
    family.name: family
    for family in (
        CircuitFamily(
            name="clifford",
            description="Clifford-only circuits (stabilizer-checkable)",
            generate=_clifford,
            clifford=True,
        ),
        CircuitFamily(
            name="diagonal",
            description="diagonal-heavy circuits with wrapped phases",
            generate=_diagonal_heavy,
        ),
        CircuitFamily(
            name="midmeasure",
            description="measure-and-continue circuits with qubit reuse",
            generate=_mid_measure,
            mid_circuit=True,
        ),
        CircuitFamily(
            name="deep",
            description="wide shallow registers (12-16 qubits)",
            generate=_deep_register,
            reorder=True,
        ),
        CircuitFamily(
            name="supremacy",
            description="random-circuit-sampling cycles with crossing pairs",
            generate=_supremacy,
            reorder=True,
        ),
        CircuitFamily(
            name="nearzero",
            description="adversarial near-zero-amplitude circuits",
            generate=_near_zero,
        ),
    )
}


def get_family(name: str) -> CircuitFamily:
    """Look up a family by name, raising :class:`ReproError` when unknown."""
    try:
        return FAMILIES[name]
    except KeyError:
        raise ReproError(
            f"unknown circuit family {name!r}; available: {sorted(FAMILIES)}"
        ) from None


def generate(
    family: str, seed_material: Tuple[int, ...]
) -> QuantumCircuit:
    """Generate one circuit of ``family`` from deterministic seed material."""
    return get_family(family).generate(np.random.default_rng(list(seed_material)))

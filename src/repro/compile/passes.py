"""The individual rewrite passes of the compile pipeline.

Every pass implements ``run(circuit) -> (circuit, counters)`` where
``counters`` is a flat ``{str: int}`` dict of rewrite statistics.  Passes
never mutate their input circuit, treat :class:`Measurement` and
:class:`Barrier` instructions as hard fences, and preserve the circuit
unitary *exactly* (up to the package tolerance) — including global phase,
which matters when an optimised circuit is later placed under control.
"""

from __future__ import annotations

import cmath
import math
from functools import lru_cache
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..circuit.circuit import QuantumCircuit
from ..circuit.gates import GATE_MEMO_SIZE, Gate, gphase_gate
from ..circuit.operations import (
    Barrier,
    BaseOperation,
    DiagonalOperation,
    Measurement,
    Operation,
    PhaseTerm,
)
from ..circuit.transforms import zyz_angles
from ..dd.complex_table import DEFAULT_TOLERANCE

__all__ = [
    "CancelInversePairs",
    "CommuteDiagonals",
    "SingleQubitFusion",
    "DiagonalCoalescing",
    "is_diagonal_instruction",
    "diagonal_phase_terms",
]


# ---------------------------------------------------------------------------
# Shared predicates
# ---------------------------------------------------------------------------
#
# Gates are frozen (hashable) and heavily repeated — a Grover circuit is a
# few distinct gates applied hundreds of times — so every per-gate
# predicate is memoised, up to ``GATE_MEMO_SIZE`` gates each.  Matrices
# are 2x2 or 4x4; direct scalar loops beat ``np.allclose`` (which
# dominates pipeline profiles otherwise).


def _is_identity(matrix, tolerance: float) -> bool:
    """Entry-wise identity check on a tuple matrix or small ndarray."""
    for i, row in enumerate(matrix):
        for j, value in enumerate(row):
            target = 1.0 if i == j else 0.0
            if abs(value - target) > tolerance:
                return False
    return True


@lru_cache(maxsize=GATE_MEMO_SIZE)
def _gate_array(gate: Gate) -> np.ndarray:
    array = gate.array
    array.setflags(write=False)
    return array


@lru_cache(maxsize=GATE_MEMO_SIZE)
def _gate_is_diagonal(gate: Gate, tolerance: float) -> bool:
    return all(
        abs(value) <= tolerance
        for i, row in enumerate(gate.matrix)
        for j, value in enumerate(row)
        if i != j
    )


@lru_cache(maxsize=GATE_MEMO_SIZE)
def _gate_is_identity(gate: Gate, tolerance: float) -> bool:
    return _is_identity(gate.matrix, tolerance)


@lru_cache(maxsize=GATE_MEMO_SIZE)
def _gates_cancel(first: Gate, second: Gate, tolerance: float) -> bool:
    """Is ``second @ first`` the identity (``first`` applied first)?"""
    if first.num_qubits != second.num_qubits:
        return False
    return _is_identity(_gate_array(second) @ _gate_array(first), tolerance)


def is_diagonal_instruction(instruction, tolerance: float = DEFAULT_TOLERANCE) -> bool:
    """``True`` for instructions that act diagonally on every qubit.

    A controlled gate with a diagonal base matrix is fully diagonal:
    controls enter as projectors onto computational subspaces.
    """
    if isinstance(instruction, DiagonalOperation):
        return True
    return isinstance(instruction, Operation) and _gate_is_diagonal(
        instruction.gate, tolerance
    )


def _wrap_angle(angle: float) -> float:
    """Reduce to the principal branch [-pi, pi]."""
    return math.remainder(angle, math.tau)


@lru_cache(maxsize=GATE_MEMO_SIZE)
def _monomial_angles(gate: Gate) -> Tuple[float, ...]:
    """Möbius-transformed diagonal phases of a diagonal gate's matrix."""
    size = 1 << gate.num_qubits
    coefficients = [cmath.phase(gate.matrix[i][i]) for i in range(size)]
    for bit in range(gate.num_qubits):
        mask = 1 << bit
        for pattern in range(size):
            if pattern & mask:
                coefficients[pattern] -= coefficients[pattern ^ mask]
    return tuple(coefficients)


def diagonal_phase_terms(
    instruction, tolerance: float = DEFAULT_TOLERANCE
) -> Optional[List[PhaseTerm]]:
    """Phase-polynomial decomposition of a diagonal instruction.

    A diagonal gate ``diag(e^{i phi_p})`` over ``k`` target qubits equals
    the product of subspace phases with monomial coefficients obtained by
    the Möbius (inclusion-exclusion) transform over target subsets::

        c_S = sum_{p subset of S} (-1)^{|S| - |p|} phi_p

    Positive controls fold into every term's ``ones`` set, anti-controls
    into ``zeros``.  Returns ``None`` for non-diagonal instructions.
    """
    if isinstance(instruction, DiagonalOperation):
        return list(instruction.terms)
    if not isinstance(instruction, Operation):
        return None
    if not _gate_is_diagonal(instruction.gate, tolerance):
        return None
    coefficients = _monomial_angles(instruction.gate)
    k = len(instruction.targets)
    size = 1 << k
    base_ones = frozenset(instruction.controls)
    zeros = frozenset(instruction.neg_controls)
    terms: List[PhaseTerm] = []
    for pattern in range(size):
        angle = _wrap_angle(float(coefficients[pattern]))
        if abs(angle) <= tolerance:
            continue
        ones = base_ones | frozenset(
            instruction.targets[bit] for bit in range(k) if (pattern >> bit) & 1
        )
        terms.append(PhaseTerm(ones=ones, zeros=zeros, angle=angle))
    return terms


def _commutes_with_diagonal(diagonal, other, tolerance: float) -> bool:
    """Does ``diagonal`` commute with ``other``?

    True when the operations touch disjoint qubits, when both are
    diagonal, or when every shared qubit enters ``other`` as a control —
    controls act diagonally, so the shared support commutes.
    """
    shared = diagonal.qubits & other.qubits
    if not shared:
        return True
    if is_diagonal_instruction(other, tolerance):
        return True
    if isinstance(other, Operation):
        return shared <= (other.controls | other.neg_controls)
    return False


_EYE2 = np.eye(2, dtype=np.complex128)
_EYE2.setflags(write=False)


def _fresh(circuit: QuantumCircuit, instructions) -> QuantumCircuit:
    result = QuantumCircuit(circuit.num_qubits, name=circuit.name)
    for instruction in instructions:
        result.append(instruction)
    return result


# ---------------------------------------------------------------------------
# Pass 1: inverse-pair and identity cancellation
# ---------------------------------------------------------------------------


class CancelInversePairs:
    """Remove identity gates and adjacent mutually-inverse pairs.

    Tracks the last live operation on every wire; when a new operation
    shares *exactly* the qubit roles of that operation and their gate
    product is the identity within tolerance, both disappear.  Removal
    re-exposes earlier operations, so chains like H·X·X·H cancel fully.
    """

    name = "cancel"

    def __init__(self, tolerance: float = DEFAULT_TOLERANCE):
        self.tolerance = tolerance

    def run(self, circuit: QuantumCircuit) -> Tuple[QuantumCircuit, Dict[str, int]]:
        """Remove identity gates and adjacent inverse pairs (one sweep)."""
        out: List[object] = []
        alive: List[bool] = []
        stacks: Dict[int, List[int]] = {}
        counters = {"pairs_cancelled": 0, "identities_removed": 0}

        def fence(qubits) -> None:
            touched = qubits if qubits else list(stacks)
            for qubit in touched:
                stacks.pop(qubit, None)

        def push(instruction) -> None:
            out.append(instruction)
            alive.append(True)
            index = len(out) - 1
            for qubit in instruction.qubits:
                stacks.setdefault(qubit, []).append(index)

        for instruction in circuit:
            if isinstance(instruction, (Measurement, Barrier)):
                fence(instruction.qubits)
                out.append(instruction)
                alive.append(True)
                continue
            if isinstance(instruction, Operation):
                if _gate_is_identity(instruction.gate, self.tolerance):
                    counters["identities_removed"] += 1
                    continue
                tops = {
                    stacks[qubit][-1] if stacks.get(qubit) else None
                    for qubit in instruction.qubits
                }
                if len(tops) == 1:
                    (index,) = tops
                    if index is not None:
                        previous = out[index]
                        if (
                            isinstance(previous, Operation)
                            and previous.targets == instruction.targets
                            and previous.controls == instruction.controls
                            and previous.neg_controls == instruction.neg_controls
                        ):
                            if _gates_cancel(
                                previous.gate, instruction.gate, self.tolerance
                            ):
                                alive[index] = False
                                for qubit in previous.qubits:
                                    stacks[qubit].pop()
                                counters["pairs_cancelled"] += 1
                                continue
            push(instruction)

        kept = [instr for instr, keep in zip(out, alive) if keep]
        return _fresh(circuit, kept), counters


# ---------------------------------------------------------------------------
# Pass 2: commutation-aware reordering of diagonal gates
# ---------------------------------------------------------------------------


class CommuteDiagonals:
    """Slide diagonal gates left past commuting neighbours.

    Each diagonal instruction bubbles towards the front of the list until
    it meets a fence, a non-commuting operation, or another diagonal
    instruction (at which point it has joined a run for the coalescing
    pass).  A move is only committed when it lands the instruction next
    to another diagonal — gratuitous reordering would perturb the
    intermediate DD sizes of the simulation for no coalescing gain.  The
    transformation only ever exchanges commuting pairs, so the circuit
    unitary is untouched.
    """

    name = "reorder"

    def __init__(self, tolerance: float = DEFAULT_TOLERANCE):
        self.tolerance = tolerance

    def run(self, circuit: QuantumCircuit) -> Tuple[QuantumCircuit, Dict[str, int]]:
        """Bubble diagonal gates left past commuting neighbours (one sweep)."""
        out: List[object] = []
        moves = 0
        for instruction in circuit:
            if isinstance(instruction, (Measurement, Barrier)):
                out.append(instruction)
                continue
            if not is_diagonal_instruction(instruction, self.tolerance):
                out.append(instruction)
                continue
            position = len(out)
            landed_on_diagonal = False
            while position > 0:
                previous = out[position - 1]
                if isinstance(previous, (Measurement, Barrier)):
                    break
                if is_diagonal_instruction(previous, self.tolerance):
                    landed_on_diagonal = True
                    break
                if not _commutes_with_diagonal(
                    instruction, previous, self.tolerance
                ):
                    break
                position -= 1
            if position != len(out) and landed_on_diagonal:
                moves += 1
                out.insert(position, instruction)
            else:
                out.append(instruction)
        return _fresh(circuit, out), {"moves": moves}


# ---------------------------------------------------------------------------
# Pass 3: single-qubit fusion
# ---------------------------------------------------------------------------


class SingleQubitFusion:
    """Fuse runs of adjacent uncontrolled single-qubit gates.

    A run of two or more gates on one wire becomes a single ``u3``-named
    gate carrying the *exact* product matrix (its params are the OpenQASM
    u3 angles, which reproduce the matrix up to global phase for QASM
    round-trips).  Near-identity products are dropped; products that are a
    pure phase become a ``gphase`` gate so later passes can absorb them.
    Runs of length one are left untouched.
    """

    name = "fuse"

    def __init__(self, tolerance: float = DEFAULT_TOLERANCE):
        self.tolerance = tolerance

    def _emit(self, out: List[object], qubit: int, matrix: np.ndarray,
              run: List[Operation], counters: Dict[str, int]) -> None:
        if len(run) == 1:
            out.append(run[0])
            return
        if _is_identity(matrix, self.tolerance):
            counters["gates_eliminated"] += len(run)
            return
        counters["runs_fused"] += 1
        counters["gates_eliminated"] += len(run) - 1
        if (
            abs(matrix[0, 1]) <= self.tolerance
            and abs(matrix[1, 0]) <= self.tolerance
            and abs(matrix[1, 1] - matrix[0, 0]) <= self.tolerance
        ):
            gate = gphase_gate(cmath.phase(complex(matrix[0, 0])))
        else:
            alpha, b, c, d = zyz_angles(matrix)
            gate = Gate(
                name="u3",
                num_qubits=1,
                matrix=tuple(tuple(complex(v) for v in row) for row in matrix),
                params=(c, b, d),
            )
        out.append(Operation(gate=gate, targets=(qubit,)))

    def run(self, circuit: QuantumCircuit) -> Tuple[QuantumCircuit, Dict[str, int]]:
        """Fuse runs of single-qubit gates into exact ``u3`` products."""
        out: List[object] = []
        pending: Dict[int, Tuple[np.ndarray, List[Operation]]] = {}
        counters = {"runs_fused": 0, "gates_eliminated": 0}

        def flush(qubit: int) -> None:
            entry = pending.pop(qubit, None)
            if entry is not None:
                self._emit(out, qubit, entry[0], entry[1], counters)

        for instruction in circuit:
            if isinstance(instruction, (Measurement, Barrier)):
                touched = instruction.qubits or sorted(pending)
                for qubit in sorted(touched):
                    flush(qubit)
                out.append(instruction)
                continue
            if (
                isinstance(instruction, Operation)
                and instruction.gate.num_qubits == 1
                and not instruction.is_controlled
            ):
                qubit = instruction.targets[0]
                matrix, run = pending.get(qubit, (_EYE2, []))
                pending[qubit] = (
                    _gate_array(instruction.gate) @ matrix,
                    run + [instruction],
                )
                continue
            for qubit in sorted(instruction.qubits):
                flush(qubit)
            out.append(instruction)
        for qubit in sorted(pending):
            flush(qubit)
        return _fresh(circuit, out), counters


# ---------------------------------------------------------------------------
# Pass 4: diagonal coalescing
# ---------------------------------------------------------------------------


class DiagonalCoalescing:
    """Merge adjacent diagonal instructions into one phase block.

    A maximal run of two or more consecutive diagonal instructions (they
    all commute, and need not share qubits) is converted to phase
    polynomials, like terms are summed modulo 2π, vanished terms are
    dropped, and the remainder is emitted as a single
    :class:`DiagonalOperation` — which the DD applier walks once per term
    instead of once per original gate.  A lone diagonal *gate* is left
    unchanged; a lone block is re-normalised (kept idempotent).
    """

    name = "coalesce"

    def __init__(self, tolerance: float = DEFAULT_TOLERANCE):
        self.tolerance = tolerance

    def _merge(self, run: List[object], counters: Dict[str, int]) -> List[object]:
        if len(run) == 1 and isinstance(run[0], Operation):
            return run
        raw_terms = 0
        merged: Dict[Tuple[frozenset, frozenset], float] = {}
        for instruction in run:
            for term in diagonal_phase_terms(instruction, self.tolerance) or []:
                raw_terms += 1
                key = (term.ones, term.zeros)
                merged[key] = merged.get(key, 0.0) + term.angle
        terms: List[PhaseTerm] = []
        for (ones, zeros), angle in merged.items():
            angle = _wrap_angle(angle)
            if abs(angle) <= self.tolerance:
                counters["phases_cancelled"] += 1
                continue
            terms.append(PhaseTerm(ones=ones, zeros=zeros, angle=angle))
        terms.sort(key=lambda t: (tuple(sorted(t.ones)), tuple(sorted(t.zeros))))
        counters["phases_merged"] += raw_terms - len(merged)
        if len(run) >= 2:
            counters["runs_coalesced"] += 1
            counters["gates_coalesced"] += len(run) - (1 if terms else 0)
        if not terms:
            return []
        return [DiagonalOperation(terms=tuple(terms))]

    def run(self, circuit: QuantumCircuit) -> Tuple[QuantumCircuit, Dict[str, int]]:
        """Coalesce adjacent diagonal gates into one phase block."""
        out: List[object] = []
        buffer: List[object] = []
        counters = {
            "runs_coalesced": 0,
            "gates_coalesced": 0,
            "phases_merged": 0,
            "phases_cancelled": 0,
        }

        def flush() -> None:
            if buffer:
                out.extend(self._merge(list(buffer), counters))
                buffer.clear()

        for instruction in circuit:
            if isinstance(instruction, BaseOperation) and is_diagonal_instruction(
                instruction, self.tolerance
            ):
                buffer.append(instruction)
                continue
            flush()
            out.append(instruction)
        flush()
        return _fresh(circuit, out), counters

"""Application of circuit operations to vector decision diagrams.

The :class:`GateApplier` routes every operation to the cheapest correct
strategy:

* **Diagonal gates** (Z, S, T, P, RZ, CZ, CP, MCZ/MCP, RZZ, …) are applied
  as a sequence of *subspace phases*: one traversal per non-unit diagonal
  entry, multiplying a phase onto every path through the selected
  computational subspace.  No additions, no new structure — this covers
  the entanglers of the QFT, Grover, and the supremacy circuits.
* **Single-qubit gates whose controls all sit above the target** use a
  direct memoised descent that linearly combines the target node's two
  successors (one DD addition per touched node).
* **X-target gates with a control below the target, and SWAPs** are
  decomposed into the two fast strategies above: ``C…C-X(t)`` is
  ``H(t) · C…C-Z · H(t)`` (the controlled-Z is a single subspace phase),
  and ``SWAP(a, b)`` is three CNOTs.  This keeps the QFT's bit-reversal
  swaps and Grover's down-pointing CNOTs off the generic matrix path.
* **Everything else** falls back to a generic matrix-DD × vector-DD
  multiplication with a per-operation DD cache.

All strategies produce identical states (tested against each other); the
routing exists because the fast paths dominate the benchmark families.
:meth:`GateApplier.classify` exposes the routing decision so alternative
engines (the vectorized SoA kernel in :mod:`repro.perf.kernel`) apply
the *same* strategy per operation and stay bit-identical to this one.
"""

from __future__ import annotations

import cmath

from functools import lru_cache
from typing import Dict, Iterable

import numpy as np

from ..circuit.gates import GATE_MEMO_SIZE, h_gate
from ..circuit.operations import DiagonalOperation, Operation
from ..exceptions import DDError
from .matrix_dd import OperationDDCache
from .node import Edge, is_terminal
from .package import DDPackage

__all__ = ["GateApplier", "apply_operation"]

# Gates are frozen (hashable) and heavily repeated — a circuit is a few
# distinct gates applied hundreds of times — so the per-gate structural
# tests below are memoised (up to ``GATE_MEMO_SIZE`` gates each) and
# loop over the stored matrix tuples (no NumPy array construction on the
# per-operation path).


@lru_cache(maxsize=GATE_MEMO_SIZE)
def _gate_is_diagonal(gate, tolerance: float) -> bool:
    """Memoised entry-wise off-diagonal test (``Gate.is_diagonal``)."""
    for row, values in enumerate(gate.matrix):
        for col, value in enumerate(values):
            if row != col and abs(value) > tolerance:
                return False
    return True


@lru_cache(maxsize=GATE_MEMO_SIZE)
def _is_x_matrix(gate, tolerance: float) -> bool:
    """Exact structural test for the 2x2 Pauli-X matrix."""
    if gate.num_qubits != 1:
        return False
    (a00, a01), (a10, a11) = gate.matrix
    return (
        abs(a00) <= tolerance
        and abs(a11) <= tolerance
        and abs(a01 - 1.0) <= tolerance
        and abs(a10 - 1.0) <= tolerance
    )


@lru_cache(maxsize=GATE_MEMO_SIZE)
def _is_swap_matrix(gate, tolerance: float) -> bool:
    """Exact structural test for the 4x4 SWAP matrix."""
    if gate.num_qubits != 2:
        return False
    expect = ((1, 0, 0, 0), (0, 0, 1, 0), (0, 1, 0, 0), (0, 0, 0, 1))
    for values, expected in zip(gate.matrix, expect):
        for value, target in zip(values, expected):
            if abs(value - target) > tolerance:
                return False
    return True


class GateApplier:
    """Applies operations to vector DDs within one package/register."""

    def __init__(
        self,
        package: DDPackage,
        num_qubits: int,
        use_fast_paths: bool = True,
    ):
        self.package = package
        self.num_qubits = num_qubits
        self.use_fast_paths = use_fast_paths
        self._op_dds = OperationDDCache(package, num_qubits)
        # Strategy counters for diagnostics and the engine ablation bench.
        self.diagonal_applications = 0
        self.descent_applications = 0
        self.decompose_applications = 0
        self.matvec_applications = 0
        # Subspace-phase traversals performed inside coalesced diagonal
        # blocks (each block counts once in ``diagonal_applications``).
        self.diagonal_term_applications = 0

    # ------------------------------------------------------------------
    # Public entry point
    # ------------------------------------------------------------------

    def classify(self, op) -> str:
        """Name the strategy :meth:`apply` will route ``op`` to.

        One of ``"diagonal"``, ``"descent"``, ``"decompose"``, or
        ``"matvec"``.  The vectorized SoA kernel consults this so both
        engines make the same per-operation choice (a prerequisite for
        bit-identical states).
        """
        if isinstance(op, DiagonalOperation):
            return "diagonal"
        if not self.use_fast_paths:
            return "matvec"
        if _gate_is_diagonal(op.gate, self.package.tolerance):
            return "diagonal"
        if (
            op.gate.num_qubits == 1
            and all(c > op.targets[0] for c in op.controls)
            and all(c > op.targets[0] for c in op.neg_controls)
        ):
            return "descent"
        if self.decomposition_steps(op) is not None:
            return "decompose"
        return "matvec"

    def apply(self, state: Edge, op) -> Edge:
        """Return ``op`` applied to ``state``.

        Accepts plain :class:`Operation` instructions and coalesced
        :class:`DiagonalOperation` blocks from the compile pipeline.
        """
        if op.max_qubit >= self.num_qubits:
            raise DDError(
                f"operation touches qubit {op.max_qubit} outside the "
                f"{self.num_qubits}-qubit register"
            )
        if state.is_zero:
            return state
        strategy = self.classify(op)
        if strategy == "diagonal":
            self.diagonal_applications += 1
            if isinstance(op, DiagonalOperation):
                return self._apply_diagonal_block(state, op)
            return self._apply_diagonal(state, op)
        if strategy == "descent":
            self.descent_applications += 1
            return self._apply_single_qubit_descent(state, op)
        if strategy == "decompose":
            self.decompose_applications += 1
            for kind, *payload in self.decomposition_steps(op):
                if kind == "op":
                    state = self._apply_single_qubit_descent(state, payload[0])
                else:
                    ones, zeros, phase = payload
                    state = self.apply_subspace_phase(state, ones, zeros, phase)
            return state
        self.matvec_applications += 1
        # The SoA kernel runs a matvec as a fallback, between two loads
        # that empty its add memo; emptying the package's around it gives
        # both engines the same memo at every add.
        package = self.package
        package.clear_add_memo()
        state = package.mat_vec(self._op_dds.get(op), state)
        package.clear_add_memo()
        return state

    # ------------------------------------------------------------------
    # Decomposition fast path
    # ------------------------------------------------------------------

    def decomposition_steps(self, op):
        """Expansion of ``op`` into descent/phase steps, or ``None``.

        Covers the two remaining bench-hot shapes that the descent and
        diagonal strategies miss: X-target gates with a control *below*
        the target (Grover's down-pointing CNOTs) and uncontrolled SWAPs
        (the QFT's bit reversal).  Each step is either
        ``("op", Operation)`` — a single-qubit gate with controls above
        its target, eligible for :meth:`_apply_single_qubit_descent` —
        or ``("phase", ones, zeros, phase)`` for
        :meth:`apply_subspace_phase`.  Both engines replay the same
        steps, so the decomposition preserves bit-identity.
        """
        tolerance = self.package.tolerance
        gate = op.gate
        if (
            _is_x_matrix(gate, tolerance)
            and (op.controls or op.neg_controls)
        ):
            return self._x_steps(op.targets[0], op.controls, op.neg_controls)
        if (
            gate.num_qubits == 2
            and not op.controls
            and not op.neg_controls
            and _is_swap_matrix(gate, tolerance)
        ):
            a, b = op.targets
            steps = []
            for control, target in ((a, b), (b, a), (a, b)):
                if control > target:
                    steps.append(self._cx_descent_step(control, target))
                else:
                    steps.extend(
                        self._x_steps(target, frozenset({control}), frozenset())
                    )
            return tuple(steps)
        return None

    @staticmethod
    def _cx_descent_step(control: int, target: int):
        """A CNOT whose control sits above the target: plain descent."""
        from ..circuit.gates import x_gate

        return (
            "op",
            Operation(x_gate(), (target,), controls=frozenset({control})),
        )

    @staticmethod
    def _x_steps(target, controls, neg_controls):
        """``C…C-X(t)`` as ``H(t) · C…C-Z(t, controls) · H(t)``."""
        h = Operation(h_gate(), (target,))
        return (
            ("op", h),
            (
                "phase",
                frozenset(controls) | {target},
                frozenset(neg_controls),
                -1.0 + 0j,
            ),
            ("op", h),
        )

    # ------------------------------------------------------------------
    # Diagonal fast path
    # ------------------------------------------------------------------

    def _apply_diagonal(self, state: Edge, op: Operation) -> Edge:
        """Decompose a diagonal gate into subspace-phase traversals."""
        diag = np.diag(op.gate.array)
        for pattern, value in enumerate(diag):
            value = complex(value)
            if abs(value - 1.0) <= self.package.tolerance:
                continue
            ones = set(op.controls)
            zeros = set(op.neg_controls)
            for bit, qubit in enumerate(op.targets):
                if (pattern >> bit) & 1:
                    ones.add(qubit)
                else:
                    zeros.add(qubit)
            state = self.apply_subspace_phase(state, ones, zeros, value)
        return state

    def _apply_diagonal_block(self, state: Edge, op: DiagonalOperation) -> Edge:
        """Apply a coalesced diagonal block: one traversal per phase term."""
        for term in op.terms:
            self.diagonal_term_applications += 1
            state = self.apply_subspace_phase(
                state, term.ones, term.zeros, cmath.exp(1j * term.angle)
            )
        return state

    def apply_subspace_phase(
        self,
        state: Edge,
        ones: Iterable[int],
        zeros: Iterable[int],
        phase: complex,
    ) -> Edge:
        """Multiply ``phase`` onto amplitudes of the subspace where every
        qubit in ``ones`` is |1⟩ and every qubit in ``zeros`` is |0⟩."""
        package = self.package
        relevant = sorted(set(ones) | set(zeros), reverse=True)
        if not relevant:
            return package.scale(state, phase)
        ones = set(ones)
        zeros_set = set(zeros)
        lowest = relevant[-1]
        memo: Dict[int, Edge] = {}

        def walk(edge: Edge, var: int) -> Edge:
            if edge.is_zero:
                return edge
            if var < lowest:
                return package.scale(edge, phase)
            node = edge.node
            cached = memo.get(node.index)
            if cached is not None:
                return package.scale(cached, edge.weight)
            c0, c1 = node.edges
            if var in ones:
                children = (c0, walk(c1, var - 1))
            elif var in zeros_set:
                children = (walk(c0, var - 1), c1)
            else:
                children = (walk(c0, var - 1), walk(c1, var - 1))
            result = package.make_vector_node(var, children)
            memo[node.index] = result
            return package.scale(result, edge.weight)

        if is_terminal(state.node):
            raise DDError("cannot apply a phase on a terminal-only state")
        return walk(state, state.node.var)

    # ------------------------------------------------------------------
    # Single-qubit descent fast path
    # ------------------------------------------------------------------

    def _apply_single_qubit_descent(self, state: Edge, op: Operation) -> Edge:
        """Apply a 1-qubit gate whose controls all lie above the target."""
        package = self.package
        target = op.targets[0]
        controls = op.controls
        neg_controls = op.neg_controls
        (u00, u01), (u10, u11) = op.gate.matrix
        memo: Dict[int, Edge] = {}

        def walk(edge: Edge, var: int) -> Edge:
            if edge.is_zero:
                return edge
            node = edge.node
            if var == target:
                cached = memo.get(node.index)
                if cached is not None:
                    return package.scale(cached, edge.weight)
                c0, c1 = node.edges
                n0 = package.add(package.scale(c0, u00), package.scale(c1, u01))
                n1 = package.add(package.scale(c0, u10), package.scale(c1, u11))
                result = package.make_vector_node(var, (n0, n1))
                memo[node.index] = result
                return package.scale(result, edge.weight)
            cached = memo.get(node.index)
            if cached is not None:
                return package.scale(cached, edge.weight)
            c0, c1 = node.edges
            if var in controls:
                children = (c0, walk(c1, var - 1))
            elif var in neg_controls:
                children = (walk(c0, var - 1), c1)
            else:
                children = (walk(c0, var - 1), walk(c1, var - 1))
            result = package.make_vector_node(var, children)
            memo[node.index] = result
            return package.scale(result, edge.weight)

        if is_terminal(state.node):
            raise DDError("state has no qubits to apply a gate to")
        return walk(state, state.node.var)

    def clear_operator_cache(self) -> None:
        """Forget the cached operator DDs (a compaction dropped their nodes)."""
        self._op_dds = OperationDDCache(self.package, self.num_qubits)

    # ------------------------------------------------------------------
    # Diagnostics
    # ------------------------------------------------------------------

    def strategy_counts(self) -> Dict[str, int]:
        """How many operations each application strategy handled."""
        return {
            "diagonal": self.diagonal_applications,
            "descent": self.descent_applications,
            "decompose": self.decompose_applications,
            "matvec": self.matvec_applications,
        }


def apply_operation(
    package: DDPackage, state: Edge, op: Operation, num_qubits: int
) -> Edge:
    """One-shot convenience wrapper around :class:`GateApplier`."""
    return GateApplier(package, num_qubits).apply(state, op)

"""Density matrices as decision diagrams: the noisy-simulation substrate.

A density matrix on ``n`` qubits is just an ``n``-level *matrix* DD —
the same 4-successor nodes :mod:`repro.dd.matrix_dd` builds for gates
(the QuIDD construction of Viamontes/Markov/Hayes, quant-ph/0403114).
Everything here reuses :class:`~repro.dd.package.DDPackage` machinery:

* unitary evolution is two matrix products, ``U · rho · U†``
  (:func:`apply_superoperator`), with the adjoint built once per
  operator by :func:`matrix_adjoint`;
* a single-qubit channel is local: :func:`apply_local_map` walks down
  to the qubit's level and recombines each node's four successor
  blocks with the channel's 4×4 superoperator ``sum_k K_k ⊗ conj(K_k)``
  — no full-register product, whatever the number of Kraus operators;
* sampling needs only the diagonal: :func:`diagonal_edge` projects
  ``rho`` onto a *probability vector* DD (L1 path-product semantics,
  entries ``rho_ii``), which
  :func:`repro.perf.compiled_dd.compile_probability_edge` flattens into
  the standard :class:`~repro.perf.compiled_dd.CompiledDD` artifact —
  so the whole compiled shot path (vectorised sampling, serialisation,
  artifact store, warm serving) works on noisy states unchanged.

:class:`DensityMatrixDD` is the user-facing handle, mirroring
:class:`~repro.dd.vector_dd.VectorDD`.  Cost note: a mixed state's
matrix DD can approach the *square* of the corresponding pure-state DD
size, which is why the density path runs on the python engine only and
is gated behind explicit noise configs (see ``docs/noise.md``).
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from ..exceptions import DDError
from .node import Edge, is_terminal
from .package import DDPackage
from .vector_dd import VectorDD

__all__ = [
    "DensityMatrixDD",
    "matrix_adjoint",
    "matrix_trace",
    "outer_product",
    "diagonal_edge",
    "apply_superoperator",
    "apply_local_map",
]


def matrix_adjoint(package: DDPackage, edge: Edge) -> Edge:
    """The conjugate transpose of a matrix DD.

    Recursively swaps the off-diagonal successors (``01`` ↔ ``10``) and
    conjugates every weight; sub-DAG sharing is preserved through a
    per-node memo.
    """
    memo: Dict[int, Edge] = {}

    def adjoint(sub: Edge) -> Edge:
        if sub.is_zero:
            return package.zero_edge
        if is_terminal(sub.node):
            return package.terminal_edge(sub.weight.conjugate())
        cached = memo.get(sub.node.index)
        if cached is None:
            children = sub.node.edges
            cached = package.make_matrix_node(
                sub.node.var,
                (
                    adjoint(children[0]),
                    adjoint(children[2]),
                    adjoint(children[1]),
                    adjoint(children[3]),
                ),
            )
            memo[sub.node.index] = cached
        return package.scale(cached, sub.weight.conjugate())

    return adjoint(edge)


def matrix_trace(package: DDPackage, edge: Edge, num_qubits: int) -> complex:
    """The trace of a matrix DD, by DP over the diagonal successors."""
    memo: Dict[int, complex] = {}

    def trace(sub: Edge, var: int) -> complex:
        if sub.is_zero:
            return 0j
        if is_terminal(sub.node):
            if var >= 0:
                raise DDError("matrix DD skips a level on a diagonal path")
            return sub.weight
        if sub.node.var != var:
            raise DDError("matrix DD level mismatch while tracing")
        cached = memo.get(sub.node.index)
        if cached is None:
            children = sub.node.edges
            cached = trace(children[0], var - 1) + trace(children[3], var - 1)
            memo[sub.node.index] = cached
        return sub.weight * cached

    return trace(edge, num_qubits - 1)


def outer_product(package: DDPackage, state: Edge) -> Edge:
    """``|ψ⟩⟨ψ|`` of a vector DD, as a matrix DD.

    Built by a memoised double recursion over (row, column) node pairs:
    the matrix block at ``(r, c)`` is the outer product of the vector's
    ``r`` successor with the conjugate of its ``c`` successor.
    """
    memo: Dict[Tuple[int, int], Edge] = {}

    def outer(row: Edge, col: Edge) -> Edge:
        if row.is_zero or col.is_zero:
            return package.zero_edge
        factor = row.weight * col.weight.conjugate()
        if is_terminal(row.node) and is_terminal(col.node):
            return package.terminal_edge(factor)
        if is_terminal(row.node) or is_terminal(col.node):
            raise DDError("outer product of mismatched depths")
        if row.node.var != col.node.var:
            raise DDError("outer product at mismatched levels")
        key = (row.node.index, col.node.index)
        cached = memo.get(key)
        if cached is None:
            r0, r1 = row.node.edges
            c0, c1 = col.node.edges
            cached = package.make_matrix_node(
                row.node.var,
                (outer(r0, c0), outer(r0, c1), outer(r1, c0), outer(r1, c1)),
            )
            memo[key] = cached
        return package.scale(cached, factor)

    return outer(state, state)


def diagonal_edge(package: DDPackage, edge: Edge, num_qubits: int) -> Edge:
    """Project a matrix DD onto its diagonal, as a *probability* vector DD.

    The result's path products are the diagonal entries ``rho_ii`` — an
    L1 (probability) convention, **not** the L2 amplitude convention of
    state DDs, so it must be flattened with
    :func:`repro.perf.compiled_dd.compile_probability_edge` (never the
    amplitude-based :func:`~repro.perf.compiled_dd.compile_edge`).
    """
    memo: Dict[int, Edge] = {}

    def diagonal(sub: Edge, var: int) -> Edge:
        if sub.is_zero:
            return package.zero_edge
        if is_terminal(sub.node):
            if var >= 0:
                raise DDError("matrix DD skips a level on a diagonal path")
            return package.terminal_edge(sub.weight)
        if sub.node.var != var:
            raise DDError("matrix DD level mismatch while projecting")
        cached = memo.get(sub.node.index)
        if cached is None:
            children = sub.node.edges
            cached = package.make_vector_node(
                var,
                (
                    diagonal(children[0], var - 1),
                    diagonal(children[3], var - 1),
                ),
            )
            memo[sub.node.index] = cached
        return package.scale(cached, sub.weight)

    return diagonal(edge, num_qubits - 1)


def apply_superoperator(
    package: DDPackage, rho: Edge, operator: Edge, operator_adjoint: Edge
) -> Edge:
    """``rho -> O rho O†`` for an arbitrary (not necessarily unitary) O."""
    return package.mat_mat(operator, package.mat_mat(rho, operator_adjoint))


def apply_local_map(
    package: DDPackage, edge: Edge, qubit: int, superoperator
) -> Edge:
    """Apply a linear map to ``qubit``'s successor blocks of a DD.

    ``superoperator`` is square over a node's successor order: 4×4 on a
    matrix DD (row ``2i + j`` builds block ``(i, j)`` of ``rho`` from
    the old blocks ``(a, b)`` at column ``2a + b``, so a Kraus channel
    is ``sum_k K_k ⊗ conj(K_k)``), 2×2 on a vector DD (row ``i`` builds
    successor ``i``; the readout fold passes its confusion matrix).
    Levels above ``qubit`` are rebuilt through a per-node memo — the map
    is linear, so ``f(w·N) = w·f(N)`` — and levels below it are shared
    untouched.  A DD that skips the level raises
    :class:`~repro.exceptions.DDError`.
    """
    if len(superoperator) == 4:
        make, add = package.make_matrix_node, package.matrix_add
    else:
        make, add = package.make_vector_node, package.add
    memo: Dict[int, Edge] = {}

    def walk(sub: Edge) -> Edge:
        if sub.is_zero:
            return package.zero_edge
        node = sub.node
        if is_terminal(node) or node.var < qubit:
            raise DDError(f"DD skips the level of qubit {qubit}")
        cached = memo.get(node.index)
        if cached is None:
            if node.var == qubit:
                children = []
                for row in superoperator:
                    total = package.zero_edge
                    for coefficient, child in zip(row, node.edges):
                        if coefficient and not child.is_zero:
                            total = add(total, package.scale(child, coefficient))
                    children.append(total)
            else:
                children = [walk(child) for child in node.edges]
            cached = make(node.var, tuple(children))
            memo[node.index] = cached
        return package.scale(cached, sub.weight)

    return walk(edge)


class DensityMatrixDD:
    """An ``n``-qubit density matrix as an edge-weighted matrix DD."""

    def __init__(self, package: DDPackage, edge: Edge, num_qubits: int):
        if num_qubits < 1:
            raise DDError("a density matrix needs at least one qubit")
        if not edge.is_zero and not is_terminal(edge.node):
            if edge.node.var != num_qubits - 1:
                raise DDError(
                    f"root at level {edge.node.var} does not match "
                    f"{num_qubits} qubits"
                )
        self.package = package
        self.edge = edge
        self.num_qubits = num_qubits

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @classmethod
    def basis_state(
        cls, package: DDPackage, num_qubits: int, index: int = 0
    ) -> "DensityMatrixDD":
        """The pure state ``|index⟩⟨index|``."""
        return cls.from_pure(
            VectorDD.basis_state(package, num_qubits, index)
        )

    @classmethod
    def from_pure(cls, state: VectorDD) -> "DensityMatrixDD":
        """``|ψ⟩⟨ψ|`` from a pure-state DD."""
        return cls(
            state.package,
            outer_product(state.package, state.edge),
            state.num_qubits,
        )

    @classmethod
    def from_dense(cls, package: DDPackage, matrix) -> "DensityMatrixDD":
        """Compress a dense density matrix into a DD (verification-sized)."""
        array = np.asarray(matrix, dtype=np.complex128)
        num_qubits = int(round(np.log2(array.shape[0])))
        return cls(package, package.matrix_from_array(array), num_qubits)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def to_dense(self) -> np.ndarray:
        """Dense ``2^n x 2^n`` export (verification sizes only)."""
        return self.package.matrix_to_array(self.edge, self.num_qubits)

    def trace(self) -> float:
        """``tr(rho)`` — 1 for a physical state (up to float drift)."""
        return float(
            matrix_trace(self.package, self.edge, self.num_qubits).real
        )

    def purity(self) -> float:
        """``tr(rho²)`` — 1 for pure states, ``1/2^n`` when maximally mixed."""
        squared = self.package.mat_mat(self.edge, self.edge)
        return float(
            matrix_trace(self.package, squared, self.num_qubits).real
        )

    def fidelity_with_pure(self, state: VectorDD) -> float:
        """``⟨ψ|rho|ψ⟩`` against a pure reference state."""
        if state.num_qubits != self.num_qubits:
            raise DDError("fidelity of states with different register sizes")
        image = self.package.mat_vec(self.edge, state.edge)
        if image.is_zero:
            return 0.0
        return float(self.package.inner_product(state.edge, image).real)

    def diagonal(self) -> Edge:
        """The diagonal as a probability vector DD (see :func:`diagonal_edge`)."""
        return diagonal_edge(self.package, self.edge, self.num_qubits)

    def probabilities(self) -> np.ndarray:
        """Dense measurement distribution ``rho_ii`` (verification sizes).

        Negative floating-point dust is clipped and the vector is
        renormalised to sum to one — the same contract as the compiled
        sampling path.
        """
        diagonal = self.diagonal()
        if diagonal.is_zero:
            raise DDError("zero density matrix has no distribution")
        values = self.package.to_statevector(diagonal, self.num_qubits)
        probabilities = np.clip(values.real, 0.0, None)
        total = probabilities.sum()
        if total <= 0.0:
            raise DDError("density matrix has non-positive trace")
        return probabilities / total

    @property
    def node_count(self) -> int:
        """Matrix-DD size (the memory driver for the noisy path)."""
        return self.package.node_count(self.edge)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DensityMatrixDD(qubits={self.num_qubits}, "
            f"nodes={self.node_count})"
        )

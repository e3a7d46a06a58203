"""The decision-diagram package: tables plus core recursive operations.

A :class:`DDPackage` owns the complex table, the unique table, and the
compute tables, and provides the operations every higher layer builds on:

* canonical node construction (:meth:`make_vector_node`,
  :meth:`make_matrix_node`) under the configured normalisation scheme,
* vector addition, matrix-vector and matrix-matrix multiplication,
  Kronecker products, scalar multiplication,
* conversions between dense NumPy arrays and DDs,
* structural queries (node counts, amplitudes, inner products).

All operations are non-destructive: DDs are immutable DAGs and every
operation returns a new root edge, sharing unchanged sub-structures.  This
matches the paper's observation that *simulated* measurement is read-only
and repeatable (Section IV-B).
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .. import telemetry as _telemetry
from ..exceptions import DDError
from .complex_table import (
    DEFAULT_RELATIVE_TOLERANCE,
    DEFAULT_TOLERANCE,
    ComplexTable,
)
from .compute_table import ComputeTable
from .node import TERMINAL, Edge, Node, is_terminal
from .normalization import NormalizationScheme, normalize_weights
from .unique_table import UniqueTable

__all__ = ["DDPackage"]


class DDPackage:
    """Owner of all DD state for one simulation context.

    Every package interns with a relative guard (``relative_tolerance``
    must be positive): :meth:`add`'s ratio-keyed memo is sound only
    under scale-invariant interning.
    """

    def __init__(
        self,
        scheme: NormalizationScheme = NormalizationScheme.L2,
        tolerance: float = DEFAULT_TOLERANCE,
        compute_table_max_entries: Optional[int] = None,
        relative_tolerance: float = DEFAULT_RELATIVE_TOLERANCE,
    ):
        if relative_tolerance <= 0:
            raise ValueError("relative_tolerance must be positive")
        self.scheme = scheme
        self.tolerance = tolerance
        self.complex_table = ComplexTable(tolerance, relative_tolerance)
        self.unique_table = UniqueTable()
        bound = compute_table_max_entries
        self._add_table = ComputeTable("add", max_entries=bound)
        self._matvec_table = ComputeTable("matvec", max_entries=bound)
        self._matmat_table = ComputeTable("matmat", max_entries=bound)
        self._kron_table = ComputeTable("kron", max_entries=bound)
        self._inner_table = ComputeTable("inner", max_entries=bound)
        # Aggregated OperationDDCache traffic (all appliers on this package).
        self.op_cache_hits = 0
        self.op_cache_misses = 0

    # ------------------------------------------------------------------
    # Elementary edges
    # ------------------------------------------------------------------

    @property
    def zero_edge(self) -> Edge:
        """The zero vector/matrix (terminal with weight 0)."""
        return Edge(TERMINAL, 0j)

    def terminal_edge(self, weight: complex) -> Edge:
        """A scalar: terminal node with the given canonical weight.

        A nonzero scalar the complex table would snap to zero keeps its
        raw value: terminal weights are relative to the (unbounded, under
        left-most normalisation) edge weights above them, so an absolute
        snap-to-zero can delete O(1) matrix content.
        """
        value = complex(weight)
        if value == 0:
            return Edge(TERMINAL, 0j)
        interned = self.complex_table.lookup(value)
        if interned == 0:
            return Edge(TERMINAL, value)
        return Edge(TERMINAL, interned)

    def basis_state(self, num_qubits: int, index: int = 0) -> Edge:
        """The computational basis state ``|index⟩`` on ``num_qubits``.

        Bit ``k`` of ``index`` is the value of qubit ``k``.
        """
        if not 0 <= index < 2**num_qubits:
            raise DDError(f"basis index {index} out of range for {num_qubits} qubits")
        edge = self.terminal_edge(1.0)
        for var in range(num_qubits):
            bit = (index >> var) & 1
            children = [self.zero_edge, self.zero_edge]
            children[bit] = edge
            edge = self.make_vector_node(var, tuple(children))
        return edge

    # ------------------------------------------------------------------
    # Node construction
    # ------------------------------------------------------------------

    def make_vector_node(self, var: int, edges: Tuple[Edge, Edge]) -> Edge:
        """Create the canonical vector node for ``var`` with successors.

        Applies the package's normalisation scheme, interns weights, and
        hash-conses the node.  An all-zero node collapses to the zero edge.
        """
        if len(edges) != 2:
            raise DDError("vector nodes have exactly two successors")
        weights = [edges[0].weight, edges[1].weight]
        normalised, factor = normalize_weights(weights, self.scheme, self.tolerance)
        factor = self.complex_table.lookup(factor)
        if factor == 0:
            return self.zero_edge
        children = []
        for edge, weight in zip(edges, normalised):
            weight = self.complex_table.lookup(weight)
            if weight == 0:
                children.append(Edge(TERMINAL, 0j))
            else:
                children.append(Edge(edge.node, weight))
        node = self.unique_table.get_node(var, tuple(children))
        return Edge(node, factor)

    def make_matrix_node(self, var: int, edges: Tuple[Edge, Edge, Edge, Edge]) -> Edge:
        """Create the canonical matrix node (successors ordered 00,01,10,11).

        Matrix nodes always use left-most normalisation; the L2 scheme is a
        vector-sampling concern (paper Section IV-C).
        """
        if len(edges) != 4:
            raise DDError("matrix nodes have exactly four successors")
        weights = [e.weight for e in edges]
        # Matrix successors are normalised with an exact-zero test rather
        # than the package tolerance: left-most normalisation stores
        # subtree entries relative to the first nonzero weight, so a
        # child weight far below its siblings can still scale O(1)
        # content — dropping it on magnitude alone is unsound (found by
        # the differential fuzzer on the near-zero-amplitude family).
        normalised, factor = normalize_weights(
            weights, NormalizationScheme.LEFTMOST, 0.0
        )
        if factor == 0:
            return self.zero_edge
        interned_factor = self.complex_table.lookup(factor)
        if interned_factor != 0:
            factor = interned_factor
        children = []
        for edge, weight in zip(edges, normalised):
            if weight == 0:
                children.append(Edge(TERMINAL, 0j))
                continue
            interned = self.complex_table.lookup(weight)
            if interned == 0:
                children.append(Edge(edge.node, weight))
            else:
                children.append(Edge(edge.node, interned))
        node = self.unique_table.get_node(var, tuple(children))
        return Edge(node, factor)

    # ------------------------------------------------------------------
    # Scalar operations
    # ------------------------------------------------------------------

    def scale(self, edge: Edge, factor: complex) -> Edge:
        """Multiply a DD by a scalar (weight adjustment only).

        A nonzero product that the complex table would snap to zero is
        kept at its raw value instead: under left-most normalisation the
        subtree entries below an edge are unbounded (each level stores
        children relative to its first nonzero weight), so a root weight
        below the absolute tolerance can still scale O(1) matrix
        content — snapping it to zero deletes that content outright.
        This exact bug was found by the differential fuzzer on the
        near-zero-amplitude family (equivalence products of circuits
        with 1e-6-scale rotations).
        """
        raw = edge.weight * factor
        if raw == 0:
            return self.zero_edge
        product = self.complex_table.lookup(raw)
        if product == 0:
            return Edge(edge.node, raw)
        return Edge(edge.node, product)

    # ------------------------------------------------------------------
    # Addition
    # ------------------------------------------------------------------

    def add(self, left: Edge, right: Edge) -> Edge:
        """Pointwise sum of two DDs at the same level, vector or matrix.

        Addition is jointly homogeneous — ``wA·A + wB·B = wA·(A + r·B)``
        with ``r = wB/wA`` — so the memo keys on ``(A, B, r)``: the sum
        is computed with the left weight taken as 1 (left children pass
        through unscaled, right children are scaled by ``r``), and the
        memoised result is rescaled by ``wA``.  A key on the absolute
        weights almost never hits on phase-rich states: every
        accumulated scale is a new key, and the recursion enumerates
        paths.  The relative interning guard every package sets makes
        the unit-scale result valid at any scale.

        The rescale is a plain product, not interned: every caller hands
        the sum to a node constructor, which interns the weights it
        keeps, so a memo hit costs no table lookup.  Operands are not
        reordered, since ``A + r·B`` and ``B + A/r`` differ in the last
        bit.  The memo empties at every
        :meth:`~repro.perf.kernel.PythonEngine.load`, around every
        matrix-vector product of :class:`~repro.dd.apply.GateApplier`
        and at :meth:`compact`: the points where the SoA kernel's replay
        (``KernelEngine._add``) drops its own, so both engines hit alike.
        """
        if left.is_zero:
            return right
        if right.is_zero:
            return left
        lnode = left.node
        rnode = right.node
        if is_terminal(lnode) and is_terminal(rnode):
            return self.terminal_edge(left.weight + right.weight)
        if is_terminal(lnode) or is_terminal(rnode) or lnode.var != rnode.var:
            raise DDError("cannot add DDs of mismatched depth or level")
        ratio = right.weight / left.weight
        key = (lnode.index, rnode.index, ratio)
        result = self._add_table.lookup(key)
        if result is None:
            children = tuple(
                self.add(lchild, self.scale(rchild, ratio))
                for lchild, rchild in zip(lnode.edges, rnode.edges)
            )
            make = (
                self.make_vector_node
                if len(children) == 2
                else self.make_matrix_node
            )
            result = self._add_table.insert(key, make(lnode.var, children))
        weight = result.weight * left.weight
        return Edge(result.node, weight) if weight != 0 else self.zero_edge

    #: Matrix DDs add by the same rule (node indices are unique across
    #: vector and matrix nodes, so they share one memo).
    matrix_add = add

    def clear_add_memo(self) -> None:
        """Empty the add memo (the engines' shared memo lifetime)."""
        self._add_table.clear()

    # ------------------------------------------------------------------
    # Multiplication
    # ------------------------------------------------------------------

    def mat_vec(self, matrix: Edge, vector: Edge) -> Edge:
        """Apply a matrix DD to a vector DD (both rooted at the same level)."""
        if matrix.is_zero or vector.is_zero:
            return self.zero_edge
        if is_terminal(matrix.node) and is_terminal(vector.node):
            return self.terminal_edge(matrix.weight * vector.weight)
        if is_terminal(matrix.node) or is_terminal(vector.node):
            raise DDError("matrix and vector DDs have mismatched depth")
        if matrix.node.var != vector.node.var:
            raise DDError(
                f"matrix at level {matrix.node.var} applied to vector at "
                f"level {vector.node.var}"
            )
        key = (matrix.node.index, vector.node.index)
        cached = self._matvec_table.lookup(key)
        if cached is not None:
            return self.scale(cached, matrix.weight * vector.weight)
        var = matrix.node.var
        children = []
        for row in range(2):
            terms = [
                self.mat_vec(matrix.node.edges[2 * row + col], vector.node.edges[col])
                for col in range(2)
            ]
            children.append(self.add(terms[0], terms[1]))
        result = self.make_vector_node(var, tuple(children))
        self._matvec_table.insert(key, result)
        return self.scale(result, matrix.weight * vector.weight)

    def mat_mat(self, left: Edge, right: Edge) -> Edge:
        """Multiply two matrix DDs (``left @ right``)."""
        if left.is_zero or right.is_zero:
            return self.zero_edge
        if is_terminal(left.node) and is_terminal(right.node):
            return self.terminal_edge(left.weight * right.weight)
        if is_terminal(left.node) or is_terminal(right.node):
            raise DDError("matrix DDs have mismatched depth")
        if left.node.var != right.node.var:
            raise DDError("matrix product at mismatched levels")
        key = (left.node.index, right.node.index)
        cached = self._matmat_table.lookup(key)
        if cached is not None:
            return self.scale(cached, left.weight * right.weight)
        var = left.node.var
        children = []
        for row in range(2):
            for col in range(2):
                terms = [
                    self.mat_mat(
                        left.node.edges[2 * row + k], right.node.edges[2 * k + col]
                    )
                    for k in range(2)
                ]
                children.append(self.matrix_add(terms[0], terms[1]))
        result = self.make_matrix_node(var, tuple(children))
        self._matmat_table.insert(key, result)
        return self.scale(result, left.weight * right.weight)

    # ------------------------------------------------------------------
    # Kronecker products
    # ------------------------------------------------------------------

    def vector_kron(self, top: Edge, bottom: Edge) -> Edge:
        """Tensor product placing ``top`` on the more significant qubits.

        ``bottom`` keeps its variable indices; ``top``'s variables must
        already be shifted above them by the caller.
        """
        if top.is_zero or bottom.is_zero:
            return self.zero_edge
        if is_terminal(top.node):
            return self.scale(bottom, top.weight)
        key = (top.node.index, bottom.node.index, bottom.weight)
        cached = self._kron_table.lookup(key)
        if cached is not None:
            return self.scale(cached, top.weight)
        children = tuple(
            self.vector_kron(top.node.edges[b], bottom) for b in range(2)
        )
        result = self.make_vector_node(top.node.var, children)
        self._kron_table.insert(key, result)
        return self.scale(result, top.weight)

    # ------------------------------------------------------------------
    # Dense conversions
    # ------------------------------------------------------------------

    def from_statevector(self, vector: Sequence[complex]) -> Edge:
        """Build a vector DD from a dense state vector.

        The length must be a power of two; qubit ``n - 1`` is the most
        significant bit of the index (the first split, as in Fig. 4a).
        """
        array = np.asarray(vector, dtype=np.complex128)
        if array.ndim != 1 or array.size == 0 or array.size & (array.size - 1):
            raise DDError("state vector length must be a power of two")
        num_qubits = int(round(math.log2(array.size)))

        def build(offset: int, size: int, var: int) -> Edge:
            if size == 1:
                value = complex(array[offset])
                if abs(value) <= self.tolerance:
                    return self.zero_edge
                return self.terminal_edge(value)
            half = size // 2
            low = build(offset, half, var - 1)
            high = build(offset + half, half, var - 1)
            return self.make_vector_node(var, (low, high))

        return build(0, array.size, num_qubits - 1)

    def to_statevector(self, edge: Edge, num_qubits: int) -> np.ndarray:
        """Expand a vector DD to a dense array of ``2^num_qubits`` entries."""
        result = np.zeros(2**num_qubits, dtype=np.complex128)
        if edge.is_zero:
            return result
        cache: Dict[int, np.ndarray] = {}

        def expand(node: Node, var: int) -> np.ndarray:
            if is_terminal(node):
                return np.ones(1, dtype=np.complex128)
            sub = cache.get(node.index)
            if sub is not None:
                return sub
            size = 2**node.var
            sub = np.zeros(2 * size, dtype=np.complex128)
            for b in range(2):
                child = node.edges[b]
                if child.is_zero:
                    continue
                sub[b * size : (b + 1) * size] = child.weight * expand(
                    child.node, node.var - 1
                )
            cache[node.index] = sub
            return sub

        if is_terminal(edge.node):
            if num_qubits != 0:
                raise DDError("terminal edge cannot represent a multi-qubit state")
            return np.array([edge.weight], dtype=np.complex128)
        if edge.node.var != num_qubits - 1:
            raise DDError(
                f"DD rooted at level {edge.node.var} is not a "
                f"{num_qubits}-qubit state"
            )
        return edge.weight * expand(edge.node, edge.node.var)

    def matrix_from_array(self, matrix: np.ndarray) -> Edge:
        """Build a matrix DD from a dense unitary (verification-sized)."""
        matrix = np.asarray(matrix, dtype=np.complex128)
        dim = matrix.shape[0]
        if matrix.shape != (dim, dim) or dim & (dim - 1) or dim == 0:
            raise DDError("matrix must be square with power-of-two dimension")
        num_qubits = int(round(math.log2(dim)))

        def build(rows: Tuple[int, int], cols: Tuple[int, int], var: int) -> Edge:
            if rows[1] - rows[0] == 1:
                value = complex(matrix[rows[0], cols[0]])
                if abs(value) <= self.tolerance:
                    return self.zero_edge
                return self.terminal_edge(value)
            row_mid = (rows[0] + rows[1]) // 2
            col_mid = (cols[0] + cols[1]) // 2
            children = (
                build((rows[0], row_mid), (cols[0], col_mid), var - 1),
                build((rows[0], row_mid), (col_mid, cols[1]), var - 1),
                build((row_mid, rows[1]), (cols[0], col_mid), var - 1),
                build((row_mid, rows[1]), (col_mid, cols[1]), var - 1),
            )
            return self.make_matrix_node(var, children)

        return build((0, dim), (0, dim), num_qubits - 1)

    def matrix_to_array(self, edge: Edge, num_qubits: int) -> np.ndarray:
        """Expand a matrix DD to a dense array (verification-sized)."""
        dim = 2**num_qubits
        if edge.is_zero:
            return np.zeros((dim, dim), dtype=np.complex128)
        cache: Dict[int, np.ndarray] = {}

        def expand(node: Node) -> np.ndarray:
            if is_terminal(node):
                return np.ones((1, 1), dtype=np.complex128)
            sub = cache.get(node.index)
            if sub is not None:
                return sub
            half = 2**node.var
            sub = np.zeros((2 * half, 2 * half), dtype=np.complex128)
            for row in range(2):
                for col in range(2):
                    child = node.edges[2 * row + col]
                    if child.is_zero:
                        continue
                    block = child.weight * expand(child.node)
                    sub[
                        row * half : (row + 1) * half,
                        col * half : (col + 1) * half,
                    ] = block
            cache[node.index] = sub
            return sub

        if is_terminal(edge.node):
            if num_qubits != 0:
                raise DDError("terminal edge is not a multi-qubit matrix")
            return np.array([[edge.weight]], dtype=np.complex128)
        if edge.node.var != num_qubits - 1:
            raise DDError("matrix DD level does not match num_qubits")
        return edge.weight * expand(edge.node)

    # ------------------------------------------------------------------
    # Structural queries
    # ------------------------------------------------------------------

    def amplitude(self, edge: Edge, index: int, num_qubits: int) -> complex:
        """Amplitude of basis state ``index``: product of path weights.

        This is the path-following rule of Example 9 in the paper.
        """
        value = edge.weight
        node = edge.node
        var = num_qubits - 1
        while not is_terminal(node):
            if node.var != var:
                raise DDError("level mismatch while following a path")
            bit = (index >> var) & 1
            child = node.edges[bit]
            value *= child.weight
            if value == 0:
                return 0j
            node = child.node
            var -= 1
        return value

    def node_count(self, edge: Edge) -> int:
        """Number of non-terminal nodes reachable from ``edge``.

        This is the "size" column reported for DD-based sampling in
        Table I of the paper.
        """
        seen = set()

        def visit(node: Node) -> None:
            if is_terminal(node) or node.index in seen:
                return
            seen.add(node.index)
            for child in node.edges:
                visit(child.node)

        visit(edge.node)
        return len(seen)

    def nodes_per_level(self, edge: Edge) -> Dict[int, int]:
        """Histogram of node counts per qubit level."""
        seen = set()
        histogram: Dict[int, int] = {}

        def visit(node: Node) -> None:
            if is_terminal(node) or node.index in seen:
                return
            seen.add(node.index)
            histogram[node.var] = histogram.get(node.var, 0) + 1
            for child in node.edges:
                visit(child.node)

        visit(edge.node)
        return histogram

    def count_nonzero_paths(self, edge: Edge) -> int:
        """Number of basis states with nonzero amplitude (exact).

        Computed by dynamic programming over the DAG in O(size) — no
        path enumeration — so it works for states whose support is
        exponential (e.g. 2^48 for qft_48).
        """
        if edge.is_zero:
            return 0
        memo: Dict[int, int] = {}

        def count(node: Node) -> int:
            if is_terminal(node):
                return 1
            cached = memo.get(node.index)
            if cached is not None:
                return cached
            total = sum(
                count(child.node) for child in node.edges if not child.is_zero
            )
            memo[node.index] = total
            return total

        return count(edge.node)

    def inner_product(self, left: Edge, right: Edge) -> complex:
        """⟨left|right⟩ over two vector DDs at the same level."""
        if left.is_zero or right.is_zero:
            return 0j
        if is_terminal(left.node) and is_terminal(right.node):
            return left.weight.conjugate() * right.weight
        if is_terminal(left.node) or is_terminal(right.node):
            raise DDError("inner product of mismatched depths")
        if left.node.var != right.node.var:
            raise DDError("inner product at mismatched levels")
        key = (left.node.index, right.node.index)
        cached = self._inner_table.lookup(key)
        if cached is not None:
            return left.weight.conjugate() * right.weight * cached.weight
        total = 0j
        for b in range(2):
            lc, rc = left.node.edges[b], right.node.edges[b]
            if lc.is_zero or rc.is_zero:
                continue
            total += self.inner_product(lc, rc)
        self._inner_table.insert(key, self.terminal_edge(total))
        return left.weight.conjugate() * right.weight * total

    def norm_squared(self, edge: Edge) -> float:
        """⟨ψ|ψ⟩ — should be 1 for a physical state."""
        return float(self.inner_product(edge, edge).real)

    def fidelity(self, left: Edge, right: Edge) -> float:
        """|⟨left|right⟩|² between two vector DDs."""
        return float(abs(self.inner_product(left, right)) ** 2)

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------

    def compact(self, roots: Sequence[Edge]) -> List[Edge]:
        """Garbage-collect: keep only nodes reachable from ``roots``.

        Long simulations (e.g. hundreds of Grover iterations) retain every
        intermediate node in the unique table; this rebuilds the table
        from the live roots and clears the compute tables, bounding
        memory.  Returns the rebuilt root edges (same states, possibly
        different node objects).  Each collection is traced as a
        ``dd.compact`` span (with before/after table sizes) when a
        telemetry session is active.
        """
        with _telemetry.span("dd.compact", roots=len(roots)) as span:
            span.set_attr("nodes_before", len(self.unique_table))
            old_nodes: Dict[int, Node] = {}

            def snapshot(node: Node) -> None:
                if is_terminal(node) or node.index in old_nodes:
                    return
                old_nodes[node.index] = node
                for child in node.edges:
                    snapshot(child.node)

            for root in roots:
                snapshot(root.node)
            self.unique_table.clear()
            self.clear_compute_tables()
            rebuilt: Dict[int, Node] = {}

            def rebuild(node: Node) -> Node:
                if is_terminal(node):
                    return node
                cached = rebuilt.get(node.index)
                if cached is not None:
                    return cached
                edges = tuple(
                    Edge(rebuild(child.node), child.weight) for child in node.edges
                )
                new_node = self.unique_table.get_node(node.var, edges)
                rebuilt[node.index] = new_node
                return new_node

            results = [Edge(rebuild(root.node), root.weight) for root in roots]
            span.set_attr("nodes_after", len(self.unique_table))
            session = _telemetry.active()
            if session is not None:
                session.registry.counter("dd.compactions").inc()
        return results

    def clear_compute_tables(self) -> None:
        """Drop memoisation tables (e.g. between unrelated simulations)."""
        for table in (
            self._add_table,
            self._matvec_table,
            self._matmat_table,
            self._kron_table,
            self._inner_table,
        ):
            table.clear()

    def statistics(self) -> Dict[str, int]:
        """Table sizes and hit counters, for diagnostics and benches."""
        stats = {
            "unique_nodes": len(self.unique_table),
            "unique_hits": self.unique_table.hits,
            "unique_misses": self.unique_table.misses,
            "complex_entries": len(self.complex_table),
            "op_cache_hits": self.op_cache_hits,
            "op_cache_misses": self.op_cache_misses,
        }
        for table in (
            self._add_table,
            self._matvec_table,
            self._matmat_table,
            self._kron_table,
            self._inner_table,
        ):
            stats[f"{table.name}_entries"] = len(table)
            stats[f"{table.name}_hit_rate"] = round(table.hit_rate(), 4)
            stats[f"{table.name}_clears"] = table.clears
        return stats

    def stats(self) -> Dict[str, int]:
        """Alias for :meth:`statistics` (the short name benches use)."""
        return self.statistics()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DDPackage(scheme={self.scheme.value}, "
            f"nodes={len(self.unique_table)})"
        )

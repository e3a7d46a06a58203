"""Structure-of-arrays decision-diagram kernel for the cold-build hot path.

The pure-Python engine (:class:`repro.dd.apply.GateApplier` over
:class:`repro.dd.package.DDPackage`) pays one Python frame, several dict
probes, and three :class:`~repro.dd.complex_table.ComplexTable` bucket
scans per node per gate.  Cold builds — the dominant cost of cold service
requests now that sampling itself is flat-array — spend most of their
time in that per-node overhead, not in arithmetic.

This module re-implements the strong-simulation hot path on a
structure-of-arrays working state:

* :class:`SoAState` keeps one :class:`_Level` per qubit with parallel
  arrays of child indices (``c0``/``c1``, ``-1`` = zero edge, pointing
  into the level below; at level 0 index ``0`` marks the terminal) and
  complex edge weights (``w0``/``w1``), plus a per-level uniquing dict —
  the unique table flattened into row indices.
* :class:`KernelEngine` applies gates directly on that representation.
  Strategy routing is delegated to the *python* applier's
  :meth:`~repro.dd.apply.GateApplier.classify`, and every arithmetic
  step — L2 normalisation, complex interning, scalar scaling, DD
  addition — replays the reference implementation's exact float
  operation sequence, so both engines produce **bit-identical** states
  (and therefore bit-identical :class:`~repro.perf.compiled_dd.CompiledDD`
  arrays and samples at equal seed).
* Each strategy (diagonal, descent, decompose) is one scalar replay on
  those arrays: a memoised walk that visits the nodes the python
  applier visits, in the same order.
* Interning probes the package's
  :class:`~repro.dd.complex_table.ComplexTable` exact-hit index
  (:attr:`~repro.dd.complex_table.ComplexTable.fixed`) inline and calls
  :meth:`~repro.dd.complex_table.ComplexTable.lookup`, the one
  implementation of the interning rule, on a miss.

Anything the kernel does not cover — generic matrix-vector products,
matrix-matrix composition, mid-circuit measurement — falls back to the
python engine: the SoA state converts to :class:`~repro.dd.node.Edge`
form, the reference applier runs, and the result converts back.  Each
round trip is counted in :attr:`KernelStats.fallbacks` and surfaced as
the ``kernel.fallbacks`` telemetry counter.  Pruning and sifting rounds
take the same round trip, in the build loop.

:func:`select_engine` gives every vector-DD build the kernel.
:class:`PythonEngine` puts the reference applier behind the same
interface; it is the bit-identity oracle, chosen only by
``kernel="python"``.
"""

from __future__ import annotations

import cmath
import math
from typing import Dict, List, Tuple

import numpy as np

from .. import telemetry as _telemetry
from ..circuit.operations import DiagonalOperation
from ..dd.node import TERMINAL, Edge, is_terminal
from ..dd.normalization import NormalizationScheme, normalize_weights
from ..exceptions import DDError, SimulationError

__all__ = [
    "EngineError",
    "KernelEngine",
    "KernelStats",
    "PythonEngine",
    "SoAState",
    "select_engine",
]

_ZERO = (-1, 0j)


def _same_edge(tc: int, tw: complex, c: int, w: complex) -> bool:
    """Bit-exact edge equality (``==`` would conflate ``±0.0``)."""
    if tc != c or tw != w:
        return False
    if tw.real == 0.0 and math.copysign(1.0, tw.real) != math.copysign(1.0, w.real):
        return False
    if tw.imag == 0.0 and math.copysign(1.0, tw.imag) != math.copysign(1.0, w.imag):
        return False
    return True


class _Level:
    """One qubit level of the SoA state: parallel rows plus uniquing."""

    __slots__ = ("c0", "c1", "w0", "w1", "dedup", "rebuild")

    def __init__(self) -> None:
        self.c0: List[int] = []
        self.c1: List[int] = []
        self.w0: List[complex] = []
        self.w1: List[complex] = []
        #: (c0, w0, c1, w1) -> row, mirroring the unique table's key.
        self.dedup: Dict[Tuple[int, complex, int, complex], int] = {}
        #: row -> (result_row, factor, table_version): memoised result of
        #: re-normalising a row against itself (the no-op short-circuit
        #: for structurally unaffected subtrees).
        self.rebuild: Dict[int, Tuple[int, complex, int]] = {}

    def __len__(self) -> int:
        return len(self.c0)

    def intern_row(self, c0: int, w0: complex, c1: int, w1: complex) -> int:
        key = (c0, w0, c1, w1)
        row = self.dedup.get(key)
        if row is None:
            row = len(self.c0)
            self.dedup[key] = row
            self.c0.append(c0)
            self.w0.append(w0)
            self.c1.append(c1)
            self.w1.append(w1)
        return row


class SoAState:
    """A vector DD flattened into per-level parallel arrays.

    ``levels[v]`` holds the nodes with variable ``v``.  Child indices
    point into the level below; ``-1`` is the zero stub and, at level 0,
    ``0`` marks the terminal.  The root is ``(root, root_weight)`` into
    the top level; a zero state is ``root_weight == 0``.
    """

    __slots__ = ("num_qubits", "levels", "root", "root_weight")

    def __init__(self, num_qubits: int):
        self.num_qubits = num_qubits
        self.levels = [_Level() for _ in range(num_qubits)]
        self.root = -1
        self.root_weight = 0j

    @property
    def is_zero(self) -> bool:
        """Whether the state is the zero vector (no reachable nodes)."""
        return self.root_weight == 0

    def total_rows(self) -> int:
        """Stored rows across all levels (live + garbage)."""
        return sum(len(level) for level in self.levels)

    def reachable_rows(self) -> List[List[int]]:
        """Per-level live row indices, in first-visit (root-down) order."""
        per_level: List[List[int]] = [[] for _ in self.levels]
        if self.is_zero or self.num_qubits == 0:
            return per_level
        frontier = [self.root]
        for var in range(self.num_qubits - 1, -1, -1):
            level = self.levels[var]
            per_level[var] = frontier
            if var == 0:
                break
            seen = set()
            next_frontier: List[int] = []
            for row in frontier:
                for child, weight in (
                    (level.c0[row], level.w0[row]),
                    (level.c1[row], level.w1[row]),
                ):
                    if weight != 0 and child not in seen:
                        seen.add(child)
                        next_frontier.append(child)
            frontier = next_frontier
        return per_level

    def node_count(self) -> int:
        """Live (reachable) node count — matches ``package.node_count``."""
        return sum(len(rows) for rows in self.reachable_rows())


class KernelStats:
    """Counters for one engine instance (telemetry + stats parity)."""

    __slots__ = ("gates", "levels_processed", "fallbacks")

    def __init__(self) -> None:
        self.gates = 0
        #: SoA rows rebuilt by gate application.
        self.levels_processed = 0
        #: Edge⇄SoA round trips through the python engine.
        self.fallbacks = 0


class KernelEngine:
    """Applies gates to a :class:`SoAState`, bit-identical to the python engine.

    ``applier`` is the reference :class:`~repro.dd.apply.GateApplier` on
    the same package: it provides strategy routing (so both engines make
    identical per-operation choices) and executes fallback operations.
    Strategy counters are incremented on the applier itself, keeping
    :class:`~repro.simulators.base.SimulationStats` identical across
    engines.
    """

    name = "vector"

    def __init__(self, package, num_qubits: int, applier):
        self.package = package
        self.num_qubits = num_qubits
        self.applier = applier
        self.tolerance = package.tolerance
        self.scheme = package.scheme
        self.stats = KernelStats()
        self._table = package.complex_table
        self._add_cache: Dict[tuple, Tuple[int, complex]] = {}
        self.state = SoAState(num_qubits)

    # ------------------------------------------------------------------
    # Edge ⇄ SoA conversion
    # ------------------------------------------------------------------

    def load(self, edge: Edge) -> None:
        """Replace the working SoA state with an :class:`Edge`-rooted DD.

        The rows start afresh, so a round trip (a fallback, or a pruning
        or sifting round of the build loop) leaves no garbage rows, and
        the row-keyed addition memo goes with the old rows.
        """
        state = self.state = SoAState(self.num_qubits)
        self._add_cache.clear()
        if edge.is_zero:
            return
        if is_terminal(edge.node):
            raise DDError("cannot load a terminal-only state into the kernel")
        if edge.node.var != self.num_qubits - 1:
            raise DDError(
                f"DD rooted at level {edge.node.var} is not a "
                f"{self.num_qubits}-qubit state"
            )
        rows: Dict[int, int] = {}

        # Iterative post-order DFS (deep registers exceed the default
        # recursion limit long before they exhaust memory).
        stack: List[Tuple] = [(edge.node, False)]
        while stack:
            node, expanded = stack.pop()
            if node.index in rows:
                continue
            if expanded:
                converted = []
                for child in node.edges:
                    if child.weight == 0:
                        converted.append(_ZERO)
                    elif is_terminal(child.node):
                        converted.append((0, child.weight))
                    else:
                        converted.append((rows[child.node.index], child.weight))
                (c0, w0), (c1, w1) = converted
                rows[node.index] = state.levels[node.var].intern_row(
                    c0, w0, c1, w1
                )
                continue
            stack.append((node, True))
            for child in node.edges:
                if child.weight != 0 and not is_terminal(child.node):
                    stack.append((child.node, False))
        state.root = rows[edge.node.index]
        state.root_weight = edge.weight

    def node_count(self) -> int:
        """Live nodes of the working state (``package.node_count``)."""
        return self.state.node_count()

    def table_size(self) -> int:
        """Stored rows plus unique-table entries: what :meth:`compact` bounds.

        Every fallback's edge round trip leaves nodes in the package's
        unique table, so they count too.
        """
        return self.state.total_rows() + len(self.package.unique_table)

    def to_edge(self) -> Edge:
        """Convert the working state back to a canonical :class:`Edge` DD.

        Nodes are rebuilt through ``unique_table.get_node`` with the
        stored weights verbatim (the :meth:`DDPackage.compact` pattern) —
        no renormalisation, so the output is bit-identical to what the
        python engine would hold.
        """
        state = self.state
        if state.is_zero:
            return self.package.zero_edge
        get_node = self.package.unique_table.get_node
        reachable = state.reachable_rows()
        nodes: List[Dict[int, object]] = [{} for _ in state.levels]
        for var in range(state.num_qubits):
            level = state.levels[var]
            below = nodes[var - 1] if var > 0 else None
            for row in reachable[var]:
                edges = []
                for child, weight in (
                    (level.c0[row], level.w0[row]),
                    (level.c1[row], level.w1[row]),
                ):
                    if weight == 0:
                        edges.append(Edge(TERMINAL, 0j))
                    elif var == 0:
                        edges.append(Edge(TERMINAL, weight))
                    else:
                        edges.append(Edge(below[child], weight))
                nodes[var][row] = get_node(var, tuple(edges))
        root_node = nodes[state.num_qubits - 1][state.root]
        return Edge(root_node, state.root_weight)

    # ------------------------------------------------------------------
    # Gate application
    # ------------------------------------------------------------------

    def apply(self, op) -> None:
        """Apply one instruction to the working state (in place)."""
        applier = self.applier
        if op.max_qubit >= self.num_qubits:
            raise DDError(
                f"operation touches qubit {op.max_qubit} outside the "
                f"{self.num_qubits}-qubit register"
            )
        if self.state.root_weight == 0:
            return
        self.stats.gates += 1
        strategy = applier.classify(op)
        if strategy == "diagonal":
            applier.diagonal_applications += 1
            if isinstance(op, DiagonalOperation):
                for term in op.terms:
                    applier.diagonal_term_applications += 1
                    self._subspace_phase(
                        term.ones, term.zeros, cmath.exp(1j * term.angle)
                    )
            else:
                diag = np.diag(op.gate.array)
                for pattern, value in enumerate(diag):
                    value = complex(value)
                    if abs(value - 1.0) <= self.tolerance:
                        continue
                    ones = set(op.controls)
                    zeros = set(op.neg_controls)
                    for bit, qubit in enumerate(op.targets):
                        if (pattern >> bit) & 1:
                            ones.add(qubit)
                        else:
                            zeros.add(qubit)
                    self._subspace_phase(ones, zeros, value)
            return
        if strategy == "descent":
            applier.descent_applications += 1
            self._descent(op)
            return
        if strategy == "decompose":
            applier.decompose_applications += 1
            for kind, *payload in applier.decomposition_steps(op):
                if self.state.root_weight == 0:
                    return
                if kind == "op":
                    self._descent(payload[0])
                else:
                    ones, zeros, phase = payload
                    self._subspace_phase(ones, zeros, phase)
            return
        self._fallback(op)

    def _fallback(self, op) -> None:
        """Round-trip through the python engine for uncovered operations."""
        self.stats.fallbacks += 1
        session = _telemetry.active()
        if session is not None:
            session.registry.counter("kernel.fallbacks").inc()
        self.load(self.applier.apply(self.to_edge(), op))

    # ------------------------------------------------------------------
    # Exact-replay scalar primitives
    # ------------------------------------------------------------------

    def _scale_pair(self, c: int, w: complex, factor: complex) -> Tuple[int, complex]:
        """Replay of ``DDPackage.scale`` on an SoA edge."""
        raw = w * factor
        if raw == 0:
            return _ZERO
        table = self._table
        product = table.fixed.get(raw)
        if product is None:
            product = table.lookup(raw)
        if product == 0:
            return (c, raw)
        return (c, product)

    def _make_node(
        self,
        var: int,
        e0: Tuple[int, complex],
        e1: Tuple[int, complex],
    ) -> Tuple[int, complex]:
        """Replay of ``DDPackage.make_vector_node`` on SoA edges."""
        c0, w0 = e0
        c1, w1 = e1
        tolerance = self.tolerance
        if self.scheme is NormalizationScheme.L2:
            # Inline replay of normalize_weights(..., L2): same float
            # operation sequence, term order, and tolerance tests.
            a0 = abs(w0)
            if a0 > tolerance:
                magnitude = math.sqrt(a0**2 + abs(w1) ** 2)
                phase = w0 / a0
                factor = magnitude * phase
                n0 = complex(a0 / magnitude, 0.0)
                n1 = w1 / factor if abs(w1) > tolerance else 0j
            else:
                a1 = abs(w1)
                if a1 > tolerance:
                    magnitude = math.sqrt(a0**2 + a1**2)
                    phase = w1 / a1
                    factor = magnitude * phase
                    n0 = 0j
                    n1 = complex(a1 / magnitude, 0.0)
                else:
                    return _ZERO
        else:
            (n0, n1), factor = normalize_weights(
                (w0, w1), self.scheme, tolerance
            )
            if factor == 0:
                return _ZERO
        table = self._table
        fixed_get = table.fixed.get
        interned = fixed_get(factor)
        factor = interned if interned is not None else table.lookup(factor)
        if factor == 0:
            return _ZERO
        interned = fixed_get(n0)
        n0 = interned if interned is not None else table.lookup(n0)
        if n0 == 0:
            c0 = -1
        interned = fixed_get(n1)
        n1 = interned if interned is not None else table.lookup(n1)
        if n1 == 0:
            c1 = -1
        row = self.state.levels[var].intern_row(c0, n0, c1, n1)
        return (row, factor)

    def _rebuild_row(self, var: int, row: int) -> Tuple[int, complex]:
        """Re-normalise a row against its own children, memoised.

        This is what the python engine does when a traversal leaves both
        children untouched; the result depends only on the row and the
        complex-table contents, so it is cached per table version.
        """
        level = self.state.levels[var]
        entry = level.rebuild.get(row)
        if entry is not None and entry[2] == self._table.version:
            return (entry[0], entry[1])
        result = self._make_node(
            var,
            (level.c0[row], level.w0[row]),
            (level.c1[row], level.w1[row]),
        )
        level.rebuild[row] = (result[0], result[1], self._table.version)
        return result

    def _terminal_add(self, wa: complex, wb: complex) -> Tuple[int, complex]:
        """Replay of ``DDPackage.terminal_edge(wa + wb)``."""
        value = wa + wb
        if value == 0:
            return _ZERO
        table = self._table
        interned = table.fixed.get(value)
        if interned is None:
            interned = table.lookup(value)
        if interned == 0:
            return (0, value)
        return (0, interned)

    def _add(
        self,
        var: int,
        a: Tuple[int, complex],
        b: Tuple[int, complex],
    ) -> Tuple[int, complex]:
        """Replay of ``DDPackage.add`` (zero shortcuts, cache, recursion)."""
        ca, wa = a
        cb, wb = b
        if wa == 0:
            return b
        if wb == 0:
            return a
        if var < 0:
            return self._terminal_add(wa, wb)
        ka = (ca, wa.real, wa.imag)
        kb = (cb, wb.real, wb.imag)
        if kb < ka:
            a, b, ka, kb = b, a, kb, ka
            ca, wa = a
            cb, wb = b
        key = (var,) + ka + kb
        cached = self._add_cache.get(key)
        if cached is not None:
            return cached
        level = self.state.levels[var]
        lc0 = level.c0
        lw0 = level.w0
        lc1 = level.c1
        lw1 = level.w1
        table = self._table
        fixed_get = table.fixed.get
        lookup = table.lookup
        below = var - 1
        # The four child scalings, inlined (see _scale_pair): raw == 0
        # short-circuits to the zero edge, a canonical-zero snap keeps
        # the raw weight.
        raw = lw0[ca] * wa
        if raw == 0:
            sa0 = _ZERO
        else:
            product = fixed_get(raw)
            if product is None:
                product = lookup(raw)
            sa0 = (lc0[ca], raw if product == 0 else product)
        raw = lw0[cb] * wb
        if raw == 0:
            sb0 = _ZERO
        else:
            product = fixed_get(raw)
            if product is None:
                product = lookup(raw)
            sb0 = (lc0[cb], raw if product == 0 else product)
        e0 = self._add(below, sa0, sb0)
        raw = lw1[ca] * wa
        if raw == 0:
            sa1 = _ZERO
        else:
            product = fixed_get(raw)
            if product is None:
                product = lookup(raw)
            sa1 = (lc1[ca], raw if product == 0 else product)
        raw = lw1[cb] * wb
        if raw == 0:
            sb1 = _ZERO
        else:
            product = fixed_get(raw)
            if product is None:
                product = lookup(raw)
            sb1 = (lc1[cb], raw if product == 0 else product)
        e1 = self._add(below, sa1, sb1)
        result = self._make_node(var, e0, e1)
        self._add_cache[key] = result
        return result

    # ------------------------------------------------------------------
    # Subspace phase (diagonal strategy)
    # ------------------------------------------------------------------

    def _subspace_phase(self, ones, zeros, phase: complex) -> None:
        """Replay of ``GateApplier.apply_subspace_phase`` on the SoA state."""
        state = self.state
        ones = set(ones)
        zeros_set = set(zeros)
        if not ones and not zeros_set:
            state.root, state.root_weight = self._scale_pair(
                state.root, state.root_weight, phase
            )
            return
        lowest = min(ones | zeros_set)
        levels = state.levels
        memo: List[Dict[int, Tuple[int, complex]]] = [
            {} for _ in range(state.num_qubits)
        ]
        table = self._table
        fixed_get = table.fixed.get
        lookup = table.lookup
        make_node = self._make_node
        rebuild_row = self._rebuild_row
        same_edge = _same_edge
        processed = 0

        def walk(c: int, w: complex, var: int) -> Tuple[int, complex]:
            nonlocal processed
            if w == 0:
                return (c, w)
            if var < lowest:
                # Inlined _scale_pair(c, w, phase).
                raw = w * phase
                if raw == 0:
                    return _ZERO
                product = fixed_get(raw)
                if product is None:
                    product = lookup(raw)
                return (c, raw) if product == 0 else (c, product)
            cached = memo[var].get(c)
            if cached is not None:
                raw = cached[1] * w
                if raw == 0:
                    return _ZERO
                product = fixed_get(raw)
                if product is None:
                    product = lookup(raw)
                return (cached[0], raw) if product == 0 else (cached[0], product)
            level = levels[var]
            processed += 1
            c0, w0 = level.c0[c], level.w0[c]
            c1, w1 = level.c1[c], level.w1[c]
            if var in ones:
                t1 = walk(c1, w1, var - 1)
                if same_edge(t1[0], t1[1], c1, w1):
                    result = rebuild_row(var, c)
                else:
                    result = make_node(var, (c0, w0), t1)
            elif var in zeros_set:
                t0 = walk(c0, w0, var - 1)
                if same_edge(t0[0], t0[1], c0, w0):
                    result = rebuild_row(var, c)
                else:
                    result = make_node(var, t0, (c1, w1))
            else:
                t0 = walk(c0, w0, var - 1)
                t1 = walk(c1, w1, var - 1)
                if same_edge(t0[0], t0[1], c0, w0) and same_edge(
                    t1[0], t1[1], c1, w1
                ):
                    result = rebuild_row(var, c)
                else:
                    result = make_node(var, t0, t1)
            memo[var][c] = result
            raw = result[1] * w
            if raw == 0:
                return _ZERO
            product = fixed_get(raw)
            if product is None:
                product = lookup(raw)
            return (result[0], raw) if product == 0 else (result[0], product)

        state.root, state.root_weight = walk(
            state.root, state.root_weight, state.num_qubits - 1
        )
        self.stats.levels_processed += processed

    # ------------------------------------------------------------------
    # Single-qubit descent strategy
    # ------------------------------------------------------------------

    def _descent(self, op) -> None:
        """Replay of ``GateApplier._apply_single_qubit_descent`` on SoA."""
        state = self.state
        target = op.targets[0]
        controls = op.controls
        neg_controls = op.neg_controls
        (u00, u01), (u10, u11) = op.gate.matrix
        levels = state.levels
        memo: List[Dict[int, Tuple[int, complex]]] = [
            {} for _ in range(state.num_qubits)
        ]
        table = self._table
        fixed_get = table.fixed.get
        lookup = table.lookup
        make_node = self._make_node
        rebuild_row = self._rebuild_row
        scale_pair = self._scale_pair
        add = self._add
        same_edge = _same_edge
        processed = 0

        def walk(c: int, w: complex, var: int) -> Tuple[int, complex]:
            nonlocal processed
            if w == 0:
                return (c, w)
            cached = memo[var].get(c)
            if cached is not None:
                raw = cached[1] * w
                if raw == 0:
                    return _ZERO
                product = fixed_get(raw)
                if product is None:
                    product = lookup(raw)
                return (cached[0], raw) if product == 0 else (cached[0], product)
            level = levels[var]
            processed += 1
            c0, w0 = level.c0[c], level.w0[c]
            c1, w1 = level.c1[c], level.w1[c]
            if var == target:
                below = var - 1
                n0 = add(
                    below,
                    scale_pair(c0, w0, u00),
                    scale_pair(c1, w1, u01),
                )
                n1 = add(
                    below,
                    scale_pair(c0, w0, u10),
                    scale_pair(c1, w1, u11),
                )
                result = make_node(var, n0, n1)
            elif var in controls:
                t1 = walk(c1, w1, var - 1)
                if same_edge(t1[0], t1[1], c1, w1):
                    result = rebuild_row(var, c)
                else:
                    result = make_node(var, (c0, w0), t1)
            elif var in neg_controls:
                t0 = walk(c0, w0, var - 1)
                if same_edge(t0[0], t0[1], c0, w0):
                    result = rebuild_row(var, c)
                else:
                    result = make_node(var, t0, (c1, w1))
            else:
                t0 = walk(c0, w0, var - 1)
                t1 = walk(c1, w1, var - 1)
                if same_edge(t0[0], t0[1], c0, w0) and same_edge(
                    t1[0], t1[1], c1, w1
                ):
                    result = rebuild_row(var, c)
                else:
                    result = make_node(var, t0, t1)
            memo[var][c] = result
            raw = result[1] * w
            if raw == 0:
                return _ZERO
            product = fixed_get(raw)
            if product is None:
                product = lookup(raw)
            return (result[0], raw) if product == 0 else (result[0], product)

        state.root, state.root_weight = walk(
            state.root, state.root_weight, state.num_qubits - 1
        )
        self.stats.levels_processed += processed

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------

    def compact(self) -> None:
        """Drop unreachable rows, rebuilding levels from the live set.

        The SoA state holds no package node, so the package's unique
        table (filled by fallbacks) is collected to empty, and the
        applier's operator DDs go with it, as in
        :meth:`PythonEngine.compact`; its strategy counters stay.
        """
        self.package.compact([])
        self.applier.clear_operator_cache()
        self._add_cache.clear()
        state = self.state
        fresh = SoAState(self.num_qubits)
        self.state = fresh
        if state.is_zero:
            return
        reachable = state.reachable_rows()
        remap: List[Dict[int, int]] = [{} for _ in state.levels]
        for var in range(state.num_qubits):
            level = state.levels[var]
            below = remap[var - 1] if var > 0 else None
            target_level = fresh.levels[var]
            for row in reachable[var]:
                c0, w0 = level.c0[row], level.w0[row]
                c1, w1 = level.c1[row], level.w1[row]
                nc0 = -1 if w0 == 0 else (0 if var == 0 else below[c0])
                nc1 = -1 if w1 == 0 else (0 if var == 0 else below[c1])
                remap[var][row] = target_level.intern_row(nc0, w0, nc1, w1)
        fresh.root = remap[state.num_qubits - 1][state.root]
        fresh.root_weight = state.root_weight


class PythonEngine:
    """The reference applier behind :class:`KernelEngine`'s interface.

    The working state is an :class:`Edge` in the package itself, so
    :meth:`load` and :meth:`to_edge` are free and the unique table is
    the store :meth:`compact` collects.  ``stats`` stays zero: the
    python engine has no SoA levels and no fallbacks.
    """

    name = "python"

    def __init__(self, package, num_qubits: int, applier):
        self.package = package
        self.num_qubits = num_qubits
        self.applier = applier
        self.stats = KernelStats()
        self.edge = package.zero_edge

    def load(self, edge: Edge) -> None:
        """Make ``edge`` the working state."""
        self.edge = edge

    def apply(self, op) -> None:
        """Apply one instruction through the reference applier."""
        self.edge = self.applier.apply(self.edge, op)

    def to_edge(self) -> Edge:
        """The working state."""
        return self.edge

    def node_count(self) -> int:
        """Live nodes of the working state."""
        return self.package.node_count(self.edge)

    def table_size(self) -> int:
        """Unique-table entries, the size that triggers :meth:`compact`."""
        return len(self.package.unique_table)

    def compact(self) -> None:
        """Collect the package down to the working state.

        The applier's operator DDs lose their nodes with the rest of
        the table, so its cache goes too; its strategy counters stay.
        """
        self.edge = self.package.compact([self.edge])[0]
        self.applier.clear_operator_cache()


class EngineError(SimulationError, ValueError):
    """An engine switch other than ``"auto"`` or ``"python"``."""


def select_engine(kernel: str = "auto"):
    """The engine class a build runs on: the one engine choice.

    ``kernel="auto"`` picks :class:`KernelEngine` for every vector-DD
    build, whatever its scheme, approximation or reordering;
    ``kernel="python"`` picks the reference.  Both are bit-identical, so
    the choice changes speed, never an answer.  Raises
    :class:`EngineError` for any other value.
    """
    if kernel == "auto":
        return KernelEngine
    if kernel == "python":
        return PythonEngine
    raise EngineError(f"unknown kernel {kernel!r}; expected 'auto' or 'python'")

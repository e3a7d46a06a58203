"""Compiled decision diagrams: the flat sampling artifact.

The vectorised sampler flattens a DD into per-node arrays once and then
advances all shots one level per NumPy operation.  This module promotes
that flattening to a first-class, *cached* artifact:

* :class:`CompiledDD` — the ``(p0, child0, child1)`` arrays plus level
  index, built **iteratively** (no recursion, so registers with hundreds
  of qubits compile fine) and usable by every consumer that needs branch
  probabilities: the vectorised sampler, top-qubit marginal sampling,
  exact per-qubit marginals, and the dense alias/prefix samplers.  One
  traversal flattens both kinds of DD the service stores: a state
  (:func:`compile_edge`) and a density matrix's diagonal
  (:func:`compile_probability_edge`); only the per-node ``p0`` differs.
* :class:`CompiledDDCache` — a per-package cache keyed on the DD root,
  with build/reuse counters.  Node indexes are unique for a package's
  lifetime (they survive ``compact()``), so ``(root index, scheme flag)``
  identifies a compiled artifact exactly.  Packages are held weakly; a
  garbage-collected package takes its compiled entries with it.

The module-level :data:`DEFAULT_CACHE` is shared by all
:class:`~repro.core.dd_sampler.DDSampler` instances, so two samplers over
the same final state pay the flattening cost once.
"""

from __future__ import annotations

import weakref
from typing import Callable, Dict, Iterable, Iterator, List, Optional

import numpy as np

from ..dd.node import Edge, Node, is_terminal
from ..exceptions import SamplingError

__all__ = [
    "CompiledDD",
    "CompiledDDCache",
    "DEFAULT_CACHE",
    "compile_edge",
    "compile_probability_edge",
]


#: Stable-serialisation contract version.  Bump whenever the meaning of
#: the flat arrays changes (levels encoding, probability convention, …)
#: or the builds that fill them do (2: the ratio-keyed add memo and the
#: relative interning guard move weights in the last bits); the service
#: artifact store folds it into every cache key so stale on-disk
#: artifacts are invalidated rather than misread.
ARTIFACT_VERSION = 2


#: Dense expansion guard: ``probabilities()`` materialises 2^n floats.
_DENSE_QUBIT_CAP = 26

#: Vectorised sampling packs outcomes into int64.
_PACKED_QUBIT_CAP = 62


class CompiledDD:
    """Flattened traversal tables of one DD root.

    Compact node ``i`` descends to its 0-successor with probability
    ``p0[i]``; ``child0[i]``/``child1[i]`` are the successors' compact
    ids (0 — never dereferenced — for zero or terminal children, which
    either carry probability 0 or end the walk).  ``levels[v]`` lists the
    compact ids of the nodes splitting qubit ``v``.  ``children`` is the
    sampler's derived walk table, ``children[2*i + b] = child_b[i]``; it
    is rebuilt on construction and never serialised.
    """

    __slots__ = (
        "num_qubits",
        "root",
        "p0",
        "child0",
        "child1",
        "children",
        "id_of",
        "levels",
    )

    def __init__(
        self,
        num_qubits: int,
        root: int,
        p0: np.ndarray,
        child0: np.ndarray,
        child1: np.ndarray,
        id_of: Dict[int, int],
        levels: List[np.ndarray],
    ):
        self.num_qubits = num_qubits
        self.root = root
        self.p0 = p0
        self.child0 = child0
        self.child1 = child1
        children = np.empty(2 * child0.size, dtype=np.int64)
        children[0::2] = child0
        children[1::2] = child1
        self.children = children
        self.id_of = id_of
        self.levels = levels

    @property
    def size(self) -> int:
        """Number of non-terminal nodes in the compiled DD."""
        return self.p0.size

    # ------------------------------------------------------------------
    # Stable serialisation (the persistent-cache contract)
    # ------------------------------------------------------------------

    def to_arrays(self) -> Dict[str, np.ndarray]:
        """The artifact as plain NumPy arrays, ready for ``np.savez``.

        The ragged ``levels`` list is flattened into ``levels_flat`` plus
        a ``level_offsets`` prefix (length ``num_qubits + 1``); qubit
        ``v``'s node ids are ``levels_flat[level_offsets[v]:level_offsets[v+1]]``.
        ``id_of`` is deliberately *not* serialised — it maps package node
        indexes, which are meaningless outside the builder's process.
        Round-tripping through :meth:`from_arrays` preserves every float
        bit, so samples drawn from a restored artifact are bit-identical
        to the original's for equal seeds.
        """
        offsets = np.zeros(self.num_qubits + 1, dtype=np.int64)
        for var, ids in enumerate(self.levels):
            offsets[var + 1] = offsets[var] + ids.size
        flat = (
            np.concatenate(self.levels)
            if self.size
            else np.zeros(0, dtype=np.int64)
        )
        return {
            "p0": np.ascontiguousarray(self.p0, dtype=np.float64),
            "child0": np.ascontiguousarray(self.child0, dtype=np.int64),
            "child1": np.ascontiguousarray(self.child1, dtype=np.int64),
            "levels_flat": np.ascontiguousarray(flat, dtype=np.int64),
            "level_offsets": offsets,
            "header": np.asarray(
                [ARTIFACT_VERSION, self.num_qubits, self.root], dtype=np.int64
            ),
        }

    @classmethod
    def from_arrays(cls, arrays: Dict[str, np.ndarray]) -> "CompiledDD":
        """Rebuild a :class:`CompiledDD` from :meth:`to_arrays` output.

        Every structural invariant is re-validated, so a truncated or
        bit-flipped artifact raises :class:`~repro.exceptions.SamplingError`
        instead of producing silently-wrong samples; the artifact store
        treats that as corruption and rebuilds.
        """
        try:
            header = np.asarray(arrays["header"], dtype=np.int64)
            p0 = np.asarray(arrays["p0"], dtype=np.float64)
            child0 = np.asarray(arrays["child0"], dtype=np.int64)
            child1 = np.asarray(arrays["child1"], dtype=np.int64)
            flat = np.asarray(arrays["levels_flat"], dtype=np.int64)
            offsets = np.asarray(arrays["level_offsets"], dtype=np.int64)
        except (KeyError, ValueError, TypeError) as error:
            raise SamplingError(f"malformed compiled-DD artifact: {error}")
        if header.shape != (3,):
            raise SamplingError("malformed compiled-DD artifact: bad header")
        version, num_qubits, root = (int(v) for v in header)
        if version != ARTIFACT_VERSION:
            raise SamplingError(
                f"compiled-DD artifact version {version} != {ARTIFACT_VERSION}"
            )
        size = p0.size
        if size == 0:
            raise SamplingError("compiled-DD artifact has no nodes")
        if num_qubits < 1 or not 0 <= root < size:
            raise SamplingError("compiled-DD artifact root out of range")
        if child0.shape != (size,) or child1.shape != (size,):
            raise SamplingError("compiled-DD artifact arrays disagree on size")
        if not np.all(np.isfinite(p0)) or p0.min() < 0.0 or p0.max() > 1.0:
            raise SamplingError("compiled-DD artifact probabilities corrupt")
        for child in (child0, child1):
            if child.size and (child.min() < 0 or child.max() >= size):
                raise SamplingError("compiled-DD artifact child ids corrupt")
        if (
            offsets.shape != (num_qubits + 1,)
            or offsets[0] != 0
            or offsets[-1] != flat.size
            or flat.size != size
            or np.any(np.diff(offsets) < 0)
        ):
            raise SamplingError("compiled-DD artifact level index corrupt")
        if flat.size and (flat.min() < 0 or flat.max() >= size):
            raise SamplingError("compiled-DD artifact level ids corrupt")
        levels = [
            flat[offsets[var] : offsets[var + 1]] for var in range(num_qubits)
        ]
        return cls(
            num_qubits=num_qubits,
            root=root,
            p0=p0,
            child0=child0,
            child1=child1,
            id_of={},
            levels=levels,
        )

    # ------------------------------------------------------------------
    # Sampling
    # ------------------------------------------------------------------

    def sample(self, shots: int, rng: np.random.Generator) -> np.ndarray:
        """Draw ``shots`` samples, one vectorised step per level."""
        if shots < 0:
            raise SamplingError("shots must be non-negative")
        if self.num_qubits > _PACKED_QUBIT_CAP:
            raise SamplingError(
                "vectorised sampling packs outcomes into int64 and supports "
                f"at most {_PACKED_QUBIT_CAP} qubits"
            )
        return self.sample_top(self.num_qubits, shots, rng)

    def sample_top(
        self, num_qubits: int, shots: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Sample the ``num_qubits`` most significant qubits (exact marginal).

        The walk stops after ``num_qubits`` levels; results are
        right-aligned (bit ``j`` is register qubit ``n - num_qubits + j``).

        Every level draws ``rng.random(shots)`` once and takes branch 1
        where the draw is ``>= p0`` of the walker's node, so the samples
        and the generator's state afterwards depend only on the seed.
        Walkers advance with one gather from the interleaved table,
        ``current = children[2*current + bit]``.  Every path visits
        every level, so on a level holding a single node all walkers
        stand on it: its ``p0`` is a scalar and no positions are
        gathered until a level with several nodes comes next.
        """
        if not 0 < num_qubits <= self.num_qubits:
            raise SamplingError(
                f"cannot sample {num_qubits} top qubits of a "
                f"{self.num_qubits}-qubit register"
            )
        if num_qubits > _PACKED_QUBIT_CAP:
            raise SamplingError(
                f"top-qubit sampling packs into int64: max {_PACKED_QUBIT_CAP}"
            )
        shift = self.num_qubits - num_qubits
        p0, children, levels = self.p0, self.children, self.levels
        draws = np.empty(shots, dtype=np.float64)
        ones = np.empty(shots, dtype=np.bool_)
        slots = np.empty(shots, dtype=np.int64)
        current = np.full(shots, self.root, dtype=np.int64)
        indices = np.zeros(shots, dtype=np.int64)
        for var in range(self.num_qubits - 1, shift - 1, -1):
            rng.random(out=draws)
            ids = levels[var]
            single = ids.size == 1
            if single:
                np.greater_equal(draws, p0[ids[0]], out=ones)
            else:
                np.greater_equal(draws, p0.take(current), out=ones)
            np.left_shift(indices, 1, out=indices)
            np.bitwise_or(indices, ones, out=indices)
            if var > shift and levels[var - 1].size != 1:
                if single:
                    np.add(ones, 2 * ids[0], out=slots)
                else:
                    np.left_shift(current, 1, out=slots)
                    np.bitwise_or(slots, ones, out=slots)
                # A fresh gather: take() into an ``out`` buffer is slower.
                current = children.take(slots)
        return indices

    # ------------------------------------------------------------------
    # Exact distributions derived from the compiled tables
    # ------------------------------------------------------------------

    def marginal_probabilities(self) -> np.ndarray:
        """Exact ``P(qubit = 1)`` for every qubit, in O(size).

        Propagates the visit probability (the upstream quantity of the
        paper's Section IV-B) level by level through the flat arrays.
        """
        visit = np.zeros(self.size, dtype=np.float64)
        visit[self.root] = 1.0
        p_one = np.zeros(self.num_qubits, dtype=np.float64)
        for var in range(self.num_qubits - 1, -1, -1):
            ids = self.levels[var]
            if ids.size == 0:
                continue
            weights = visit[ids]
            prob0 = self.p0[ids]
            prob1 = 1.0 - prob0
            p_one[var] = float(weights @ prob1)
            if var == 0:
                continue
            mass0 = weights * prob0
            mass1 = weights * prob1
            keep0 = mass0 > 0.0
            keep1 = mass1 > 0.0
            np.add.at(visit, self.child0[ids][keep0], mass0[keep0])
            np.add.at(visit, self.child1[ids][keep1], mass1[keep1])
        return p_one

    def probabilities(self) -> np.ndarray:
        """Dense probability vector (2^n entries) from the compiled tables.

        Built bottom-up over the levels, so sub-DD sharing is exploited:
        each node's subtree vector is computed once.  Intended for the
        dense alias/prefix samplers at verification sizes.
        """
        if self.num_qubits > _DENSE_QUBIT_CAP:
            raise SamplingError(
                f"dense expansion beyond {_DENSE_QUBIT_CAP} qubits refused"
            )
        vectors: Dict[int, np.ndarray] = {}
        for var in range(self.num_qubits):
            half = 1 << var
            for cid in self.levels[var]:
                out = np.zeros(2 * half, dtype=np.float64)
                prob0 = self.p0[cid]
                prob1 = 1.0 - prob0
                if var == 0:
                    out[0] = prob0
                    out[1] = prob1
                else:
                    if prob0 > 0.0:
                        out[:half] = prob0 * vectors[self.child0[cid]]
                    if prob1 > 0.0:
                        out[half:] = prob1 * vectors[self.child1[cid]]
                vectors[cid] = out
        return vectors[self.root]


def _flatten(
    edge: Edge,
    num_qubits: int,
    branch_p0: Callable[[List[Node]], Iterable[float]],
) -> CompiledDD:
    """Flatten the DD under ``edge``; ``branch_p0(nodes)`` yields each ``p0``.

    The one traversal behind both compilers: an explicit-stack DFS (so
    register depth is not limited by the Python recursion limit) lists
    the reachable non-terminal nodes, ``branch_p0`` maps that list to
    the nodes' 0-branch probabilities in the same order, and one fill
    writes the child ids and the level index.
    """
    if edge.is_zero:
        raise SamplingError("cannot compile the zero vector")
    if is_terminal(edge.node):
        raise SamplingError("cannot compile a bare terminal edge")

    id_of: Dict[int, int] = {}
    nodes: List[Node] = []
    stack = [edge.node]
    while stack:
        node = stack.pop()
        if is_terminal(node) or node.index in id_of:
            continue
        id_of[node.index] = len(nodes)
        nodes.append(node)
        for child in node.edges:
            if not child.is_zero and not is_terminal(child.node):
                stack.append(child.node)

    count = len(nodes)
    p0 = np.fromiter(branch_p0(nodes), dtype=np.float64, count=count)
    # Zero and terminal children keep id 0: they are never dereferenced.
    child0 = np.zeros(count, dtype=np.int64)
    child1 = np.zeros(count, dtype=np.int64)
    per_level: List[List[int]] = [[] for _ in range(num_qubits)]
    for compact, node in enumerate(nodes):
        for child, child_array in zip(node.edges, (child0, child1)):
            if not child.is_zero and not is_terminal(child.node):
                child_array[compact] = id_of[child.node.index]
        per_level[node.var].append(compact)

    levels = [np.asarray(ids, dtype=np.int64) for ids in per_level]
    return CompiledDD(
        num_qubits=num_qubits,
        root=id_of[edge.node.index],
        p0=p0,
        child0=child0,
        child1=child1,
        id_of=id_of,
        levels=levels,
    )


def compile_edge(
    edge: Edge,
    num_qubits: int,
    downstream: Optional[Dict[int, float]] = None,
) -> CompiledDD:
    """Flatten the DD under ``edge`` into a :class:`CompiledDD`.

    ``downstream`` carries the per-node correction masses for non-L2
    normalisation schemes; ``None`` asserts the L2 invariant (all masses
    1), so each node's ``p0`` is ``|w0|² / (|w0|² + |w1|²)``.
    """

    def mass(child: Edge) -> float:
        if child.is_zero:
            return 0.0
        weight_sq = abs(child.weight) ** 2
        if downstream is None or is_terminal(child.node):
            return weight_sq
        return weight_sq * downstream[child.node.index]

    def branch_p0(nodes: List[Node]) -> Iterator[float]:
        for node in nodes:
            mass0, mass1 = mass(node.edges[0]), mass(node.edges[1])
            total = mass0 + mass1
            if total <= 0.0:
                raise SamplingError("node with zero probability mass")
            yield mass0 / total

    return _flatten(edge, num_qubits, branch_p0)


def compile_probability_edge(edge: Edge, num_qubits: int) -> CompiledDD:
    """Flatten a *probability* vector DD into a :class:`CompiledDD`.

    :func:`compile_edge` assumes L2 semantics — path products are
    amplitudes, branch masses are ``|w|²``.  The diagonal of a density
    matrix (:func:`repro.dd.density.diagonal_edge`) is an **L1** object:
    path products are probabilities ``rho_ii`` directly.  This compiler
    computes each node's complex subtree sum ``S(v) = w0·S(c0) +
    w1·S(c1)`` by DP over the DAG and sets ``p0 = Re(m0 / (m0 + m1))``
    with ``m_b = w_b·S(c_b)``.  Taking the *quotient* cancels the common
    phase accumulated on the path prefix (every full path product is a
    real non-negative probability, so both branch masses under one node
    carry the same prefix phase), and renormalises the trace for free —
    a state with ``tr(rho) = 1 - ε`` of float drift still yields exact
    per-node branch probabilities.  Float dust is clipped into
    ``[0, 1]``, so the result passes :meth:`CompiledDD.from_arrays`
    validation and serves through the artifact store like any exact
    compiled DD.
    """
    sums: Dict[int, complex] = {}

    def mass(child: Edge) -> complex:
        if child.is_zero:
            return 0j
        if is_terminal(child.node):
            return child.weight
        return child.weight * sums[child.node.index]

    def branch_p0(nodes: List[Node]) -> Iterator[float]:
        # Subtree sums bottom-up: children sit at strictly lower levels,
        # so ascending-var order is a topological order of the DAG.
        for node in sorted(nodes, key=lambda n: n.var):
            total = 0j
            for child in node.edges:
                if not child.is_zero:
                    total += mass(child)
            sums[node.index] = total
        for node in nodes:
            mass0, mass1 = mass(node.edges[0]), mass(node.edges[1])
            total = mass0 + mass1
            # A node whose whole subtree cancelled to float dust carries
            # no probability mass; any branch choice is unobservable.
            probability = 1.0 if total == 0 else (mass0 / total).real
            yield min(max(probability, 0.0), 1.0)

    return _flatten(edge, num_qubits, branch_p0)


class CompiledDDCache:
    """Per-package cache of :class:`CompiledDD` artifacts.

    Keys are ``(root node index, downstream-free flag)``; packages are
    weak keys.  ``max_entries`` bounds each package's table with FIFO
    eviction.
    """

    def __init__(self, max_entries: int = 128):
        if max_entries < 1:
            raise SamplingError("cache needs at least one entry")
        self.max_entries = max_entries
        self._per_package: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()
        self.builds = 0
        self.reuses = 0
        self.evictions = 0

    def get_or_build(
        self,
        package,
        edge: Edge,
        num_qubits: int,
        downstream: Optional[Dict[int, float]] = None,
    ) -> CompiledDD:
        """Return the cached artifact for ``edge``, compiling on miss."""
        table = self._per_package.get(package)
        if table is None:
            table = {}
            self._per_package[package] = table
        key = (edge.node.index, downstream is None)
        cached = table.get(key)
        if cached is not None:
            self.reuses += 1
            return cached
        compiled = compile_edge(edge, num_qubits, downstream)
        if len(table) >= self.max_entries:
            table.pop(next(iter(table)))
            self.evictions += 1
        table[key] = compiled
        self.builds += 1
        return compiled

    def stats(self) -> Dict[str, int]:
        """Build/reuse/eviction counters plus current entry count."""
        entries = sum(len(table) for table in self._per_package.values())
        return {
            "builds": self.builds,
            "reuses": self.reuses,
            "evictions": self.evictions,
            "entries": entries,
        }

    def clear(self) -> None:
        """Drop all cached artifacts and reset counters."""
        self._per_package.clear()
        self.builds = 0
        self.reuses = 0
        self.evictions = 0


#: Process-wide cache shared by all samplers.
DEFAULT_CACHE = CompiledDDCache()

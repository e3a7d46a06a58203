"""Canonical storage of complex edge weights.

Decision diagrams only compact well when amplitudes that are *numerically*
equal are recognised as *structurally* equal — for instance, the 48-qubit
QFT state collapses to 48 nodes only if the many occurrences of 1/sqrt(2)
produced along different arithmetic routes unify.  Following the approach
of Zulehner, Hillmich, Wille ("How to efficiently handle complex values?",
ICCAD 2019 — reference [24] of the paper), every weight is interned through
a :class:`ComplexTable` that performs tolerance-based lookup: values within
``tolerance`` of an existing entry are replaced by that entry.

The table buckets values on a grid of side ``tolerance`` and checks the
neighbouring buckets, so lookup is O(1) and two values within tolerance of
each other land at most one bucket apart per axis.
"""

from __future__ import annotations

import math
from typing import Dict, Tuple

__all__ = ["ComplexTable", "DEFAULT_TOLERANCE"]

DEFAULT_TOLERANCE = 1e-10


class ComplexTable:
    """Interning table for complex numbers with tolerance-based lookup."""

    def __init__(
        self,
        tolerance: float = DEFAULT_TOLERANCE,
        relative_tolerance: float = 0.0,
    ):
        if tolerance <= 0:
            raise ValueError("tolerance must be positive")
        if relative_tolerance < 0:
            raise ValueError("relative_tolerance must be non-negative")
        self.tolerance = tolerance
        self.relative_tolerance = relative_tolerance
        self._buckets: Dict[Tuple[int, int], complex] = {}
        #: Exact-hit index: every entry some :meth:`lookup` resolved a
        #: value to itself, keyed and valued by the entry object (equality
        #: folds a ``-0.0`` probe onto it).  An entry is its own nearest
        #: entry, so ``lookup(v) == fixed[v]`` holds for as long as it
        #: stays in its bucket; the miss that evicts it also drops it
        #: here.  Hot callers (the SoA kernel) probe it inline and call
        #: :meth:`lookup` only on a miss.  A value that snaps to a
        #: *different* entry is never indexed: a later insert can sit
        #: closer to it and take it over.
        self.fixed: Dict[complex, complex] = {}
        self.hits = 0
        self.misses = 0
        #: Monotonic insert counter.  A lookup result can only change when
        #: a miss inserts a new entry (which, under the relative guard, may
        #: also evict one), so the SoA kernel's row re-normalisation memo
        #: (``KernelEngine._rebuild_row``) stays valid exactly as long as
        #: ``version`` is unchanged.  The counter survives :meth:`clear`
        #: so a stale memo never revalidates.
        self.version = getattr(self, "version", 0)
        # Seed the exact constants that appear in virtually every circuit,
        # so they are always the canonical representatives.
        for seed in (
            0.0,
            1.0,
            -1.0,
            1j,
            -1j,
            complex(math.sqrt(0.5), 0.0),
            complex(-math.sqrt(0.5), 0.0),
            complex(0.0, math.sqrt(0.5)),
            complex(0.0, -math.sqrt(0.5)),
            0.5 + 0.0j,
            -0.5 + 0.0j,
        ):
            self.lookup(complex(seed))

    def __len__(self) -> int:
        return len(self._buckets)

    def lookup(self, value: complex) -> complex:
        """Return the canonical representative for ``value``.

        If an entry within ``tolerance`` (Chebyshev distance) exists, the
        *nearest* such entry is returned; otherwise ``value`` becomes a new
        canonical entry.  ``-0.0`` components are normalised to ``+0.0``
        first so the zero is unique.  With a nonzero
        ``relative_tolerance``, a nonzero value additionally unifies only
        with entries within ``relative_tolerance * max(|a|, |b|)`` —
        tiny weights never alias to relatively-distant neighbours (they
        may still snap to exact zero, which is governed by the absolute
        window alone).

        A value sitting within tolerance of two canonical entries (they can
        be up to ``2 * tolerance`` apart, one bucket to each side) resolves
        to the nearest one by Euclidean distance; exact distance ties break
        on the lexicographically smaller ``(real, imag)`` pair.  This makes
        the result a pure function of the value and the canonical set —
        independent of bucket-scan order and of the insertion order that
        placed the entries — so boundary values canonicalise identically
        in every run.

        This is the one implementation of the interning rule, written
        inline because it is the hot path of every build: the python
        engine calls it per weight, and the SoA kernel calls it whenever
        :attr:`fixed` misses.
        """
        vr = value.real
        vi = value.imag
        if vr == 0.0:
            vr = 0.0
        if vi == 0.0:
            vi = 0.0
        norm = complex(vr, vi)
        tol = self.tolerance
        relative = self.relative_tolerance
        kr = int(math.floor(vr / tol + 0.5))
        ki = int(math.floor(vi / tol + 0.5))
        buckets = self._buckets
        # Check the home bucket and its eight neighbours, keeping the best
        # in-tolerance candidate rather than the first one scanned.
        best = None
        best_rank = None
        for dr in (0, -1, 1):
            kk = kr + dr
            for di in (0, -1, 1):
                cand = buckets.get((kk, ki + di))
                if cand is None:
                    continue
                cr = cand.real
                cim = cand.imag
                if abs(cr - vr) > tol or abs(cim - vi) > tol:
                    continue
                distance = abs(cand - norm)
                # Relative guard: a nonzero weight may only unify with an
                # entry that is close *relative to its magnitude*.  Under
                # left-most normalisation a tiny top weight divides the
                # O(1) subtree below it, so an absolute-window snap (fine
                # for O(1) amplitudes) becomes an O(tolerance / |w|)
                # relative error amplified through the whole branch.
                # Zero stays an absolute snap: unifying with exact zero
                # *drops* the branch instead of rescaling it, which costs
                # only the snapped magnitude itself.
                if (
                    relative
                    and cand != 0.0
                    and norm != 0.0
                    and distance > relative * max(abs(cand), abs(norm))
                ):
                    continue
                rank = (distance, cr, cim)
                if best_rank is None or rank < best_rank:
                    best, best_rank = cand, rank
        if best is not None:
            self.hits += 1
            if best == norm:
                self.fixed[best] = best
            return best
        key = (kr, ki)
        evicted = buckets.setdefault(key, norm)
        if evicted is not norm:
            # Only a relative-guard miss can find its home bucket
            # occupied; the entry it overwrites stops being canonical.
            buckets[key] = norm
            self.fixed.pop(evicted, None)
        self.misses += 1
        self.version += 1
        self.fixed[norm] = norm
        return norm

    def is_zero(self, value: complex) -> bool:
        """Whether ``value`` canonicalises to zero."""
        return abs(value.real) <= self.tolerance and abs(value.imag) <= self.tolerance

    def is_one(self, value: complex) -> bool:
        """Whether ``value`` canonicalises to one."""
        return (
            abs(value.real - 1.0) <= self.tolerance
            and abs(value.imag) <= self.tolerance
        )

    def clear(self) -> None:
        """Drop all entries (and re-seed the standard constants)."""
        self.__init__(self.tolerance, self.relative_tolerance)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ComplexTable(entries={len(self)}, hits={self.hits}, "
            f"misses={self.misses}, tol={self.tolerance:g})"
        )

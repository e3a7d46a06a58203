"""Memoisation tables for recursive decision-diagram operations.

Addition, multiplication, inner products, and gate construction are all
recursive over node pairs; without memoisation their cost would be the
number of *paths* instead of the number of *nodes*.  A compute table maps
operation-specific keys to result edges.

Keys embed node ``index`` values (stable unique identifiers) and canonical
weights, so equal sub-problems collide reliably.

Growth can be bounded with ``max_entries``: when an insert would exceed
the bound the table is cleared wholesale (CUDD-style), trading re-derived
results for a hard memory ceiling.  ``hit_rate()`` and the ``clears``
counter make the trade-off observable through ``DDPackage.stats()``.
"""

from __future__ import annotations

from typing import Dict, Optional

from .node import Edge

__all__ = ["ComputeTable"]


class ComputeTable:
    """A single operation's memo table with hit/miss statistics."""

    def __init__(self, name: str, max_entries: Optional[int] = None):
        if max_entries is not None and max_entries < 1:
            raise ValueError("max_entries must be positive when given")
        self.name = name
        self.max_entries = max_entries
        self._table: Dict[tuple, Edge] = {}
        self.hits = 0
        self.misses = 0
        #: Clear-on-overflow events since the last explicit ``clear()``.
        self.clears = 0

    def __len__(self) -> int:
        return len(self._table)

    def lookup(self, key: tuple) -> Optional[Edge]:
        """Cached result for ``key``, or ``None`` on a miss."""
        result = self._table.get(key)
        if result is not None:
            self.hits += 1
        else:
            self.misses += 1
        return result

    def insert(self, key: tuple, result: Edge) -> Edge:
        """Memoise ``result`` under ``key`` (evicts on collision)."""
        if (
            self.max_entries is not None
            and len(self._table) >= self.max_entries
            and key not in self._table
        ):
            # CUDD-style overflow handling: drop everything rather than
            # tracking per-entry age.  Hit/miss counters keep running so
            # hit_rate() reflects the whole session.
            self._table.clear()
            self.clears += 1
        self._table[key] = result
        return result

    def hit_rate(self) -> float:
        """Fraction of lookups answered from the table (0.0 when unused)."""
        total = self.hits + self.misses
        if total == 0:
            return 0.0
        return self.hits / total

    def clear(self) -> None:
        """Drop every entry (keeps the hit/miss counters)."""
        self._table.clear()
        self.clears = 0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ComputeTable({self.name!r}, entries={len(self)}, "
            f"hits={self.hits}, misses={self.misses})"
        )

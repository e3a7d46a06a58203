"""Sampling results.

A :class:`SampleResult` is what weak simulation produces: a multiset of
measured bitstrings (stored as counts per basis index) plus timing
metadata.  This is also the shape of data a physical quantum computer
returns after repeated runs — the object weak simulation mimics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Tuple

import numpy as np

from ..exceptions import SamplingError

__all__ = ["SampleResult", "bitstrings"]

#: Outcome indexes are split into 64-bit words for the bit matrix.
_WORD_MASK = (1 << 64) - 1


def _index_words(counts: Dict[int, int], width: int) -> np.ndarray:
    """The keys of ``counts`` as a uint64 matrix, most significant word first."""
    words = max(1, -(-width // 64))
    if words == 1:
        keys = np.fromiter(counts, dtype=np.uint64, count=len(counts))
        return keys.reshape(-1, 1)
    wide = np.array(list(counts), dtype=object)
    return np.stack(
        [
            ((wide >> (64 * word)) & _WORD_MASK).astype(np.uint64)
            for word in range(words - 1, -1, -1)
        ],
        axis=1,
    )


def bitstrings(bits: np.ndarray) -> List[str]:
    """The rows of a ``(k, width)`` 0/1 bit matrix as bitstrings, MSB first."""
    rows, width = bits.shape
    text = np.empty((rows, width + 1), dtype=np.uint8)
    np.add(bits, ord("0"), out=text[:, :width])
    text[:, width] = ord("\n")
    return text.tobytes().decode("ascii").splitlines()


@dataclass
class SampleResult:
    """Counts of measured bitstrings from one weak-simulation run."""

    num_qubits: int
    counts: Dict[int, int]
    method: str = "unknown"
    precompute_seconds: float = 0.0
    sampling_seconds: float = 0.0
    #: Free-form diagnostics (DD/table statistics, worker counts, …);
    #: not part of the statistical result.
    metadata: Dict[str, Any] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @classmethod
    def from_samples(
        cls,
        num_qubits: int,
        samples: Iterable[int],
        method: str = "unknown",
        precompute_seconds: float = 0.0,
        sampling_seconds: float = 0.0,
    ) -> "SampleResult":
        """Aggregate raw basis-index samples into counts."""
        array = np.asarray(list(samples) if not isinstance(samples, np.ndarray) else samples)
        if array.size and (array.min() < 0 or array.max() >= 2**num_qubits):
            raise SamplingError("sample index outside the basis-state range")
        values, frequencies = np.unique(array, return_counts=True)
        counts = dict(zip(values.tolist(), frequencies.tolist()))
        return cls(
            num_qubits=num_qubits,
            counts=counts,
            method=method,
            precompute_seconds=precompute_seconds,
            sampling_seconds=sampling_seconds,
        )

    # ------------------------------------------------------------------
    # Basic queries
    # ------------------------------------------------------------------

    @property
    def shots(self) -> int:
        """Total number of recorded samples."""
        return sum(self.counts.values())

    @property
    def total_seconds(self) -> float:
        """Precompute plus sampling time (when both were recorded)."""
        return self.precompute_seconds + self.sampling_seconds

    @property
    def distinct_outcomes(self) -> int:
        """Number of different bitstrings observed."""
        return len(self.counts)

    def frequency(self, index: int) -> float:
        """Empirical probability estimate of basis state ``index``."""
        shots = self.shots
        if shots == 0:
            raise SamplingError("no samples recorded")
        return self.counts.get(index, 0) / shots

    def count_table(
        self, limit: Optional[int] = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        """The counts as arrays: ``(bits, frequencies)``.

        ``bits`` is the ``(k, num_qubits)`` uint8 matrix of outcome bits,
        ``q_{n-1}`` first; ``frequencies`` the int64 counts.  Rows follow
        the order of :attr:`counts`, or with ``limit`` the ``limit`` most
        frequent outcomes, by descending count then ascending index.
        """
        if limit is not None and limit < 0:
            raise ValueError(f"limit must be non-negative, got {limit}")
        words = _index_words(self.counts, self.num_qubits)
        frequencies = np.fromiter(
            self.counts.values(), dtype=np.int64, count=len(self.counts)
        )
        if limit is not None:
            order = np.lexsort(tuple(words[:, ::-1].T) + (-frequencies,))[:limit]
            words, frequencies = words[order], frequencies[order]
        bits = np.unpackbits(words.astype(">u8").view(np.uint8), axis=1)
        return bits[:, bits.shape[1] - self.num_qubits :], frequencies

    def bitstring_counts(self) -> Dict[str, int]:
        """Counts keyed by bitstrings ``q_{n-1} ... q_0``."""
        bits, frequencies = self.count_table()
        return dict(zip(bitstrings(bits), frequencies.tolist()))

    def most_common(self, limit: int = 10) -> List[Tuple[str, int]]:
        """The ``limit`` most frequent outcomes as (bitstring, count)."""
        bits, frequencies = self.count_table(limit)
        return list(zip(bitstrings(bits), frequencies.tolist()))

    # ------------------------------------------------------------------
    # Derived distributions
    # ------------------------------------------------------------------

    def empirical_probabilities(self) -> Dict[int, float]:
        """Counts normalised to relative frequencies."""
        shots = self.shots
        if shots == 0:
            raise SamplingError("no samples recorded")
        return {k: v / shots for k, v in self.counts.items()}

    def marginal_probability(self, qubit: int) -> float:
        """Empirical probability that ``qubit`` was measured as 1."""
        if not 0 <= qubit < self.num_qubits:
            raise SamplingError(f"qubit {qubit} out of range")
        shots = self.shots
        if shots == 0:
            raise SamplingError("no samples recorded")
        ones = sum(v for k, v in self.counts.items() if (k >> qubit) & 1)
        return ones / shots

    def marginal_counts(self, qubits: Iterable[int]) -> Dict[int, int]:
        """Counts reduced onto a subset of qubits (ascending significance).

        Bit ``j`` of the reduced key is the value of ``qubits[j]``.
        """
        qubits = list(qubits)
        if len(set(qubits)) != len(qubits):
            raise SamplingError("duplicate qubits in marginal")
        reduced: Dict[int, int] = {}
        for key, value in self.counts.items():
            sub = 0
            for j, qubit in enumerate(qubits):
                sub |= ((key >> qubit) & 1) << j
            reduced[sub] = reduced.get(sub, 0) + value
        return reduced

    def merge(self, other: "SampleResult") -> "SampleResult":
        """Combine two results over the same register."""
        if other.num_qubits != self.num_qubits:
            raise SamplingError("cannot merge results with different registers")
        counts = dict(self.counts)
        for key, value in other.counts.items():
            counts[key] = counts.get(key, 0) + value
        return SampleResult(
            num_qubits=self.num_qubits,
            counts=counts,
            method=self.method if self.method == other.method else "mixed",
            precompute_seconds=self.precompute_seconds + other.precompute_seconds,
            sampling_seconds=self.sampling_seconds + other.sampling_seconds,
        )

    def to_json(self) -> str:
        """Serialise to JSON (counts keyed by bitstring for readability)."""
        import json

        payload = {
            "format": "repro-samples",
            "num_qubits": self.num_qubits,
            "method": self.method,
            "precompute_seconds": self.precompute_seconds,
            "sampling_seconds": self.sampling_seconds,
            "counts": self.bitstring_counts(),
        }
        if self.metadata:
            payload["metadata"] = self.metadata
        return json.dumps(payload)

    @classmethod
    def from_json(cls, text: str) -> "SampleResult":
        """Inverse of :meth:`to_json`."""
        import json

        payload = json.loads(text)
        if payload.get("format") != "repro-samples":
            raise SamplingError("not a repro-samples document")
        return cls(
            num_qubits=int(payload["num_qubits"]),
            counts={int(k, 2): int(v) for k, v in payload["counts"].items()},
            method=payload.get("method", "unknown"),
            precompute_seconds=float(payload.get("precompute_seconds", 0.0)),
            sampling_seconds=float(payload.get("sampling_seconds", 0.0)),
            metadata=payload.get("metadata", {}),
        )

    def to_array(self) -> np.ndarray:
        """Dense count vector of length ``2^n`` (small registers only)."""
        if self.num_qubits > 24:
            raise SamplingError("dense count vector beyond 24 qubits refused")
        dense = np.zeros(2**self.num_qubits, dtype=np.int64)
        for key, value in self.counts.items():
            dense[key] = value
        return dense

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SampleResult(method={self.method!r}, qubits={self.num_qubits}, "
            f"shots={self.shots}, distinct={self.distinct_outcomes})"
        )

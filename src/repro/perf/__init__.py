"""Performance subsystem: compiled sampling artifacts and parallelism.

* :mod:`repro.perf.compiled_dd` — :class:`CompiledDD`, the cached flat
  ``(p0, child0, child1)`` traversal tables every vectorised sampling
  path shares, plus the process-wide :data:`DEFAULT_CACHE` with
  build/reuse counters.
* :mod:`repro.perf.parallel` — seed-stable chunked sampling: results are
  identical for any worker count because the chunk layout and per-chunk
  ``SeedSequence`` streams depend only on the seed and shot count.
* :mod:`repro.perf.bench` — the one in-tree benchmark harness behind
  ``BENCH_sampling.json`` (``python -m repro.perf.bench``): every layer
  of weak simulation timed once per circuit, each section checked, and
  ``--gate`` running one section at gate size for ``make test``.
"""

from .compiled_dd import DEFAULT_CACHE, CompiledDD, CompiledDDCache, compile_edge
from .parallel import DEFAULT_CHUNK_SHOTS, chunk_layout, sample_chunked

__all__ = [
    "CompiledDD",
    "CompiledDDCache",
    "DEFAULT_CACHE",
    "compile_edge",
    "DEFAULT_CHUNK_SHOTS",
    "chunk_layout",
    "sample_chunked",
]

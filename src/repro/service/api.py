"""The service front door: submit requests, await seed-stable results.

:class:`SamplingService` ties the layers together: cache key
(:mod:`repro.service.keys`) → in-process hot cache → persistent
:class:`~repro.service.store.ArtifactStore` → coalescing
:class:`~repro.service.scheduler.BuildScheduler` → sampling.  The
contract that makes the cache *safe to use* is bit-identity: for
``method="dd"`` with an integer seed, a response is byte-for-byte the
same :class:`~repro.core.results.SampleResult` that
:func:`repro.core.weak_sim.simulate_and_sample` produces for the same
arguments — whether the artifact was just built, read back from disk, or
found hot in memory, and at any client concurrency.  That holds because
the artifact is built by the library's own
:func:`~repro.core.weak_sim.build_artifact`, its round-trip is
float64-bit-exact, and every tier draws through the library's
:func:`~repro.core.weak_sim.sample_artifact` (same per-level draws, same
seed-stable chunking under ``workers``).  Every ``dd``-backend result
carries the artifact's build record as ``metadata["build"]``, the
record the store keeps as ``meta``.

Requests go where :meth:`BuildSpec.route
<repro.simulators.build_spec.BuildSpec.route>` sends them, the same
route ``simulate_and_sample`` takes.  Those the compiled-artifact path
cannot serve are still answered, just without the cache
(``cache="bypass"``, through ``simulate_and_sample``): dense ``vector*``
methods, the non-default DD samplers (``dd-path`` …, which need the live
DD rather than the flattened tables), and noiseless measure-and-continue
circuits (run by :class:`~repro.core.shot_executor.ShotExecutor`).

Telemetry: pass a :class:`repro.telemetry.Telemetry` session and the
service activates it for its lifetime.  Every request opens a
``service.request`` span; builds appear as the simulator's ``build``
and the flattening's ``precompute`` spans (their *absence* on a warm
hit is the observable proof that strong simulation was skipped);
counters land under ``service.*``
(see ``docs/serving.md``).
"""

from __future__ import annotations

import collections
import json
import re
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor, TimeoutError
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

import numpy as np

from .. import telemetry as _telemetry
from ..circuit.circuit import QuantumCircuit
from ..core.results import SampleResult, bitstrings
from ..core.weak_sim import sample_artifact, sample_statevector, simulate_and_sample
from ..dd.normalization import NormalizationScheme
from ..exceptions import MemoryOutError, ReproError
from ..perf.compiled_dd import CompiledDD
from ..simulators.build_spec import BuildSpec
from .keys import spec_key
from .scheduler import AdmissionError, BuildOutcome, BuildScheduler, ServicePolicy
from .store import DEFAULT_MAX_BYTES, ArtifactStore

__all__ = [
    "SamplingRequest",
    "SamplingResponse",
    "SamplingService",
    "resolve_circuit",
]

#: Default number of CompiledDD artifacts pinned in process memory.
DEFAULT_HOT_ENTRIES = 8

_SUPREMACY_NAME = re.compile(r"^supremacy_(\d+)x(\d+)_(\d+)$")
_FAMILY_NAME = re.compile(r"^(qft|grover|ghz|w)_(\d+)$")


def resolve_circuit(spec: Any) -> QuantumCircuit:
    """Turn a request's ``circuit`` field into a :class:`QuantumCircuit`.

    Accepts a builtin name (string), ``{"name": ...}``,
    ``{"qasm": source}``, or ``{"qasm_file": path}``.  Builtin
    parameterised families use fixed seeds (``grover_N`` draws its
    marked element with seed 1, ``supremacy_*`` with seed 0) so the same
    name always means the same circuit — a requirement for the cache key
    to be meaningful across processes.
    """
    if isinstance(spec, dict):
        if "qasm" in spec:
            from ..circuit.qasm import parse_qasm

            return parse_qasm(spec["qasm"])
        if "qasm_file" in spec:
            from ..circuit.qasm import parse_qasm

            with open(spec["qasm_file"], "r", encoding="utf-8") as handle:
                return parse_qasm(handle.read())
        if "name" in spec:
            spec = spec["name"]
        else:
            raise ReproError(
                "circuit object needs one of 'qasm', 'qasm_file', 'name'"
            )
    if not isinstance(spec, str):
        raise ReproError(f"cannot resolve circuit from {type(spec).__name__}")
    if spec == "bell":
        from ..algorithms.states import bell_pair

        return bell_pair()
    match = _FAMILY_NAME.match(spec)
    if match:
        family, size = match.group(1), int(match.group(2))
        if family == "qft":
            from ..algorithms.qft import qft

            return qft(size)
        if family == "grover":
            from ..algorithms.grover import grover

            return grover(size, seed=1).circuit
        if family == "ghz":
            from ..algorithms.states import ghz

            return ghz(size)
        from ..algorithms.states import w_state

        return w_state(size)
    match = _SUPREMACY_NAME.match(spec)
    if match:
        from ..algorithms.supremacy import supremacy

        return supremacy(
            int(match.group(1)), int(match.group(2)), int(match.group(3)), seed=0
        )
    raise ReproError(
        f"unknown builtin circuit {spec!r} (expected bell, qft_N, grover_N, "
        "ghz_N, w_N, or supremacy_RxC_D)"
    )


#: The typed scalars of a request record: field -> (JSON type, default).
#: ``shots`` has no default; a ``None`` default also admits ``null``.
_SCALARS: Dict[str, Any] = {
    "shots": ("integer", ...),
    "seed": ("integer", None),
    "workers": ("integer", None),
    "optimize": ("boolean", True),
    "initial_state": ("integer", 0),
    "deadline_seconds": ("number", None),
}

_PYTHON_TYPES = {"integer": int, "boolean": bool, "number": (int, float)}


def request_scalars(record: Dict[str, Any]) -> Dict[str, Any]:
    """The typed scalar fields of a request record, checked strictly.

    Integer fields (``shots``, ``seed``, ``workers``, ``initial_state``)
    must be JSON integers, ``optimize`` a JSON boolean and
    ``deadline_seconds`` a JSON number; a boolean is never a number.
    An absent field takes its default.  Any other value raises
    :class:`~repro.exceptions.ReproError` naming the field, so a
    mistyped value is refused rather than coerced.  The dispatcher
    (:meth:`~repro.service.pool.WorkerPool.routing_key`) and
    :meth:`SamplingRequest.from_record` both parse through here.
    """
    scalars: Dict[str, Any] = {}
    for name, (kind, default) in _SCALARS.items():
        if name not in record:
            if default is ...:
                raise ReproError(f"request is missing the {name!r} field")
            scalars[name] = default
            continue
        value = record[name]
        if value is None and default is None:
            scalars[name] = None
        elif isinstance(value, bool) != (kind == "boolean") or not isinstance(
            value, _PYTHON_TYPES[kind]
        ):
            raise ReproError(
                f"request field {name!r} must be a JSON {kind}, got {value!r}"
            )
        else:
            scalars[name] = float(value) if kind == "number" else value
    return scalars


class _JsonText(bytes):
    """Already-encoded JSON, spliced into a record verbatim."""


def _counts_json(bits: np.ndarray, frequencies: np.ndarray) -> bytes:
    """``json.dumps`` of ``{bitstring: count}``, written with array operations.

    Each row of the table is ``"<bits>": <digits>, ``, with the count's
    decimal digits right-aligned in a fixed-width column; masking out
    each count's leading zeros and flattening the table row by row
    yields the object's text in row order.  Counts are non-negative.
    """
    rows, width = bits.shape
    if rows == 0:
        return b"{}"
    digits = len(str(int(frequencies.max())))
    start = width + 4
    table = np.empty((rows, start + digits + 2), dtype=np.uint8)
    punctuation = zip((0, width + 1, width + 2, width + 3, -2, -1), b'"": , ')
    for column, char in punctuation:
        table[:, column] = char
    np.add(bits, ord("0"), out=table[:, 1 : width + 1])
    rest = frequencies
    for column in range(start + digits - 1, start - 1, -1):
        rest, digit = np.divmod(rest, 10)
        np.add(digit, ord("0"), out=table[:, column], casting="unsafe")
    if digits > 1:
        keep = np.ones(table.shape, dtype=np.bool_)
        for offset in range(digits - 1):
            keep[:, start + offset] = frequencies >= 10 ** (digits - 1 - offset)
        table = table[keep]
    return b"{" + table.tobytes()[:-2] + b"}"


@dataclass(frozen=True)
class SamplingRequest:
    """One sampling job: a circuit, a shot count, and reproducibility knobs.

    ``deadline_seconds`` bounds how long the request will *wait for the
    build* (cache hits never wait); an expired deadline yields a
    ``deadline_exceeded`` response while the build keeps running and
    still lands in the cache for the retry.  ``workers`` enables
    seed-stable chunked sampling exactly as in ``simulate_and_sample``.
    The build picks its own engine; the artifact metadata records which
    one ran.

    ``approximation`` opts into approximate weak simulation (DD methods
    only): an :class:`~repro.dd.approximation.ApproximationConfig`, a
    bare epsilon, or a ``{"epsilon": ...}`` mapping, exactly as in the
    JSONL/HTTP schema.  The approximation contract IS part of the cache
    key — an ε-approximated artifact is never served for an exact
    request or for a different ε.  ``epsilon = 0`` (or ``None``) is the
    exact path, byte-identical to a request without the field.  The
    response reports the tracked fidelity lower bound.

    ``reorder`` opts into dynamic qubit reordering for the DD build
    (DD methods only): a :class:`~repro.dd.reorder.ReorderConfig`,
    ``True``, a swap budget, or a ``{"budget": ...}`` mapping.  Like the
    approximation contract it IS part of the cache key — a reordered
    artifact stores level-space arrays plus its qubit permutation, so it
    is never served for a fixed-order request (and vice versa).  The
    service unpermutes samples before reporting, so responses stay in
    the original qubit order and bit-identical to ``simulate_and_sample``
    with the same config.  ``False``/``None`` is the fixed-order path,
    byte-identical to a request without the field.

    ``noise_model`` opts into noisy weak simulation (``method="dd"``
    only): a :class:`~repro.noise.NoiseModel`, a bare depolarizing
    strength, or a mapping, exactly as in the JSONL/HTTP schema (see
    :meth:`~repro.noise.NoiseModel.from_value` and ``docs/noise.md``).
    The full canonical strength tuple IS part of the cache key — a noisy
    artifact (the mixed state's distribution) is never served for an
    exact request or a different model — while a disabled model (all
    strengths zero) is normalised away, leaving the key byte-identical
    to a request without the field.  Noisy builds bypass the optimizer
    (noise binds to the circuit as written) and have no degradation
    fallback; they compose with neither ``approximation`` nor
    ``reorder`` nor ``workers`` (rejected, never silently dropped).  A
    mid-circuit measurement dephases the noisy state, and the artifact
    is cached like any other noisy one.

    The service parses the build settings once per request
    (:meth:`build_spec`); a combination no path can serve is a
    ``rejected`` response carrying its row's message from the rule
    table (:data:`~repro.simulators.build_spec.RULES`, rendered in
    ``docs/api.md``).
    """

    circuit: QuantumCircuit
    shots: int
    seed: Optional[int] = None
    method: str = "dd"
    workers: Optional[int] = None
    scheme: NormalizationScheme = NormalizationScheme.L2
    optimize: bool = True
    initial_state: int = 0
    deadline_seconds: Optional[float] = None
    request_id: Optional[str] = None
    approximation: Optional[Any] = None
    reorder: Optional[Any] = None
    noise_model: Optional[Any] = None

    @classmethod
    def from_record(cls, record: Dict[str, Any]) -> "SamplingRequest":
        """Decode one JSONL/HTTP request record (schema in ``docs/serving.md``).

        The circuit is resolved with :func:`resolve_circuit`.  The build
        features (``approximation``, ``reorder``, ``noise_model``) pass
        through raw: :meth:`build_spec` parses them when the request is
        served, so a malformed value becomes a ``rejected`` response,
        not a crash.  The typed scalars are parsed strictly by
        :func:`request_scalars`.  Fields outside the schema are ignored,
        ``kernel`` among them: the build picks its own engine.  Raises
        :class:`~repro.exceptions.ReproError` for a record that cannot
        become a request.
        """
        if "circuit" not in record:
            raise ReproError("request is missing the 'circuit' field")
        scalars = request_scalars(record)
        request_id = record.get("request_id")
        return cls(
            circuit=resolve_circuit(record["circuit"]),
            method=str(record.get("method", "dd")),
            request_id=None if request_id is None else str(request_id),
            approximation=record.get("approximation"),
            reorder=record.get("reorder"),
            noise_model=record.get("noise_model"),
            **scalars,
        )

    def build_spec(self) -> BuildSpec:
        """The request's :class:`~repro.simulators.build_spec.BuildSpec`.

        Raises the config's own :class:`~repro.exceptions.ReproError`
        for a malformed feature value.
        """
        return BuildSpec.of(
            scheme=self.scheme,
            optimize=self.optimize,
            initial_state=self.initial_state,
            approximation=self.approximation,
            reorder=self.reorder,
            noise=self.noise_model,
        )


@dataclass
class SamplingResponse:
    """The service's answer; inspect ``status`` before ``result``.

    ``status`` is one of ``"ok"``, ``"rejected"`` (admission guard or
    invalid parameters — retrying unchanged cannot succeed),
    ``"deadline_exceeded"`` (retry later; the build continues), or
    ``"error"`` (the build failed).  ``cache`` says where the artifact
    came from: ``"memory"`` (hot in-process), ``"disk"`` (persistent
    store), ``"built"`` (cold), or ``"bypass"`` (request class outside
    the artifact cache).  ``backend`` is what actually sampled:
    ``"dd"``, ``"statevector"``, ``"stabilizer"``, or
    ``"shot-executor"``.
    """

    request_id: Optional[str]
    status: str
    result: Optional[SampleResult] = None
    backend: Optional[str] = None
    cache: Optional[str] = None
    key: Optional[str] = None
    error: Optional[str] = None
    degraded_reason: Optional[str] = None
    build_seconds: float = 0.0
    sampling_seconds: float = 0.0
    #: Rigorous lower bound on the fidelity of the state that was
    #: sampled; ``None`` for exact answers (see docs/approximation.md).
    fidelity_bound: Optional[float] = None
    #: The noise model the served artifact was built under (its
    #: canonical nonzero-strength dict); ``None`` for exact answers
    #: (see docs/noise.md).
    noise: Optional[Dict[str, Any]] = None

    @property
    def ok(self) -> bool:
        """Whether the request produced a result."""
        return self.status == "ok"

    def to_dict(self, top: Optional[int] = None) -> Dict[str, Any]:
        """The JSONL response record (schema in ``docs/serving.md``).

        ``top`` caps the emitted counts at the most frequent ``top``
        outcomes (full counts by default); a negative ``top`` raises
        :class:`ValueError`.
        """
        return self._record(
            top,
            lambda bits, frequencies: dict(
                zip(bitstrings(bits), frequencies.tolist())
            ),
        )

    def to_json_bytes(
        self, top: Optional[int] = None, extra: Optional[Dict[str, Any]] = None
    ) -> bytes:
        """The response as one encoded JSONL line, ready for the wire.

        Byte for byte ``(json.dumps(record) + "\\n").encode()`` where
        ``record`` is ``to_dict(top)`` updated with ``extra`` — same key
        order, same rank order under ``top``, every status.  The counts
        object is written straight from the count arrays, so no dict of
        bitstrings is built.  A negative ``top`` raises :class:`ValueError`.
        """
        record = self._record(
            top,
            lambda bits, frequencies: _JsonText(
                _counts_json(bits, frequencies)
            ),
        )
        if extra:
            record.update(extra)
        parts = [
            json.dumps(name).encode() + b": " + value
            if isinstance(value, _JsonText)
            else json.dumps({name: value})[1:-1].encode()
            for name, value in record.items()
        ]
        return b"{" + b", ".join(parts) + b"}\n"

    def _record(self, top: Optional[int], encode_counts) -> Dict[str, Any]:
        """The record; counts are ``encode_counts(bits, frequencies)``."""
        if top is not None and top < 0:
            raise ValueError(f"top must be non-negative, got {top}")
        record: Dict[str, Any] = {
            "request_id": self.request_id,
            "status": self.status,
            "backend": self.backend,
            "cache": self.cache,
            "key": self.key,
            "build_seconds": round(self.build_seconds, 9),
            "sampling_seconds": round(self.sampling_seconds, 9),
        }
        if self.error is not None:
            record["error"] = self.error
        if self.degraded_reason is not None:
            record["degraded_reason"] = self.degraded_reason
        if self.fidelity_bound is not None:
            record["fidelity_bound"] = self.fidelity_bound
        if self.noise is not None:
            record["noise"] = self.noise
        if self.result is not None:
            record["num_qubits"] = self.result.num_qubits
            record["shots"] = self.result.shots
            record["method"] = self.result.method
            distinct = self.result.distinct_outcomes
            truncated = top is not None and distinct > top
            record["counts"] = encode_counts(
                *self.result.count_table(top if truncated else None)
            )
            if truncated:
                record["counts_truncated"] = distinct - top
        return record


class SamplingService:
    """Request-oriented weak simulation with a persistent artifact cache.

    Usable as a context manager; :meth:`close` drains the worker pools.
    ``cache_dir=None`` runs without the persistent tier (hot cache and
    coalescing still apply).  A single service instance is thread-safe:
    concurrent :meth:`sample` calls from many client threads coalesce
    onto one build per distinct circuit.
    """

    def __init__(
        self,
        cache_dir: Optional[str] = None,
        max_cache_bytes: int = DEFAULT_MAX_BYTES,
        policy: Optional[ServicePolicy] = None,
        build_workers: int = 2,
        request_workers: int = 4,
        hot_entries: int = DEFAULT_HOT_ENTRIES,
        telemetry: Optional[_telemetry.Telemetry] = None,
    ):
        self.policy = policy or ServicePolicy()
        self.telemetry = telemetry
        self.store = (
            ArtifactStore(cache_dir, max_bytes=max_cache_bytes)
            if cache_dir is not None
            else None
        )
        self.scheduler = BuildScheduler(
            store=self.store,
            policy=self.policy,
            workers=build_workers,
            telemetry=telemetry,
        )
        self._requests = ThreadPoolExecutor(
            max_workers=request_workers, thread_name_prefix="repro-request"
        )
        self._hot: "collections.OrderedDict[str, tuple]" = (
            collections.OrderedDict()
        )
        self._hot_entries = max(0, hot_entries)
        self._lock = threading.Lock()
        self._stats = {
            "requests": 0,
            "ok": 0,
            "rejected": 0,
            "deadline_exceeded": 0,
            "errors": 0,
            "cache_memory_hits": 0,
            "cache_disk_hits": 0,
            "cache_misses": 0,
            "bypass": 0,
        }
        self._closed = False
        self._activation = None
        if telemetry is not None:
            # Hold the session active for the service lifetime so spans
            # and counters from worker threads land in it too.
            self._activation = telemetry.activate()
            self._activation.__enter__()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def close(
        self, drain: bool = True, timeout: Optional[float] = None
    ) -> bool:
        """Drain the request and build pools; idempotent.

        ``drain=True`` waits for in-flight requests and builds
        (``timeout`` bounds the build-pool wait); ``drain=False``
        cancels queued work immediately.  Returns ``True`` when
        everything drained — see
        :meth:`BuildScheduler.close <repro.service.scheduler.BuildScheduler.close>`
        for what happens to builds that outlive the timeout.
        """
        if self._closed:
            return True
        self._closed = True
        self._requests.shutdown(wait=drain, cancel_futures=not drain)
        drained = self.scheduler.close(drain=drain, timeout=timeout)
        session = _telemetry.active()
        if session is not None:
            session.registry.record_service(self.stats())
        if self._activation is not None:
            self._activation.__exit__(None, None, None)
            self._activation = None
        return drained

    def __enter__(self) -> "SamplingService":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Public request surface
    # ------------------------------------------------------------------

    def sample(self, request: SamplingRequest) -> SamplingResponse:
        """Serve one request synchronously (in the calling thread)."""
        return self._handle(request)

    def submit(self, request: SamplingRequest) -> "Future[SamplingResponse]":
        """Enqueue a request on the service's worker pool."""
        if self._closed:
            raise ReproError("SamplingService is closed")
        return self._requests.submit(self._handle, request)

    def sample_batch(
        self, requests: List[SamplingRequest]
    ) -> List[SamplingResponse]:
        """Serve many requests concurrently, preserving input order."""
        futures = [self.submit(request) for request in requests]
        return [future.result() for future in futures]

    def stats(self) -> Dict[str, Any]:
        """Service, scheduler, and store counters in one snapshot.

        ``builds`` (from the scheduler) counts actual strong
        simulations — the number the coalescing and warm-cache tests
        pin.  ``cache_hits`` is memory + disk hits.
        """
        with self._lock:
            snapshot: Dict[str, Any] = dict(self._stats)
            snapshot["hot_entries"] = len(self._hot)
        snapshot["cache_hits"] = (
            snapshot["cache_memory_hits"] + snapshot["cache_disk_hits"]
        )
        snapshot.update(self.scheduler.stats())
        if self.store is not None:
            snapshot["store"] = self.store.stats()
        return snapshot

    # ------------------------------------------------------------------
    # Request handling
    # ------------------------------------------------------------------

    def _handle(self, request: SamplingRequest) -> SamplingResponse:
        self._count("requests")
        with _telemetry.span(
            "service.request",
            method=request.method,
            shots=request.shots,
            request_id=request.request_id,
        ) as span:
            response = self._route(request)
            span.set_attr("status", response.status)
            span.set_attr("cache", response.cache)
            span.set_attr("backend", response.backend)
        self._record_outcome(response)
        return response

    def _route(self, request: SamplingRequest) -> SamplingResponse:
        if request.shots < 0:
            return self._reject(
                request, f"shots must be non-negative, got {request.shots}"
            )
        if request.deadline_seconds is not None and request.deadline_seconds <= 0:
            return self._reject(request, "deadline_seconds must be positive")
        try:
            spec = request.build_spec()
            path = spec.route(request.circuit, request.method, request.workers)
        except ReproError as error:
            return self._reject(request, str(error))
        if request.method == "dd" and path in ("dd", "density"):
            return self._serve_compiled(request, spec)
        # dd-path / dd-multinomial / dd-collapse walk the live DD, which
        # the flat artifact deliberately does not preserve.
        return self._serve_bypass(request, spec, path)

    def _reject(
        self,
        request: SamplingRequest,
        reason: str,
        key: Optional[str] = None,
    ) -> SamplingResponse:
        return SamplingResponse(
            request_id=request.request_id,
            status="rejected",
            key=key,
            error=reason,
        )

    def _error(
        self,
        request: SamplingRequest,
        reason: str,
        key: Optional[str] = None,
    ) -> SamplingResponse:
        return SamplingResponse(
            request_id=request.request_id,
            status="error",
            key=key,
            error=reason,
        )

    # ------------------------------------------------------------------
    # Serving paths
    # ------------------------------------------------------------------

    def _serve_bypass(
        self, request: SamplingRequest, spec: BuildSpec, path: str
    ) -> SamplingResponse:
        """Outside the artifact cache: delegate to ``simulate_and_sample``.

        ``path`` is the request's route (``"statevector"``,
        ``"shot-executor"`` or ``"dd"``) and names the response's backend.
        """
        if path == "statevector":
            dense_bytes = 16 * (2**request.circuit.num_qubits)
            if dense_bytes > self.policy.dense_memory_cap_bytes:
                return self._reject(
                    request,
                    f"dense state needs {dense_bytes} bytes, over the "
                    f"service cap of {self.policy.dense_memory_cap_bytes}",
                )
        start = time.perf_counter()
        try:
            result = simulate_and_sample(
                request.circuit,
                request.shots,
                method=request.method,
                seed=request.seed,
                initial_state=spec.initial_state,
                scheme=spec.scheme,
                memory_cap_bytes=self.policy.dense_memory_cap_bytes,
                workers=request.workers,
                optimize=spec.optimize,
                approximation=spec.approximation,
                reorder=spec.reorder,
            )
        except MemoryOutError as error:
            return self._reject(request, str(error))
        except ReproError as error:
            return self._error(request, str(error))
        elapsed = time.perf_counter() - start
        approx_meta = (result.metadata.get("build") or {}).get("approximation")
        return SamplingResponse(
            request_id=request.request_id,
            status="ok",
            result=result,
            backend=path,
            cache="bypass",
            build_seconds=elapsed - result.sampling_seconds,
            sampling_seconds=result.sampling_seconds,
            fidelity_bound=(
                approx_meta.get("fidelity_bound") if approx_meta else None
            ),
        )

    def _serve_compiled(
        self, request: SamplingRequest, spec: BuildSpec
    ) -> SamplingResponse:
        """The cached path: key → hot → disk → coalesced build → sample."""
        key = spec_key(request.circuit, spec)
        compiled, hot_meta = self._hot_get(key)
        if compiled is not None:
            outcome = BuildOutcome(
                key=key,
                backend="dd",
                source="memory",
                compiled=compiled,
                meta=hot_meta or {},
            )
        else:
            try:
                future = self.scheduler.submit(key, request.circuit, spec)
            except AdmissionError as error:
                return self._reject(request, str(error), key=key)
            self._set_queue_gauge()
            try:
                outcome = future.result(timeout=request.deadline_seconds)
            except TimeoutError:
                return SamplingResponse(
                    request_id=request.request_id,
                    status="deadline_exceeded",
                    key=key,
                    error=(
                        "build did not finish within "
                        f"{request.deadline_seconds} s (it continues in the "
                        "background and will be cached)"
                    ),
                )
            except (AdmissionError, MemoryOutError) as error:
                return self._reject(request, str(error), key=key)
            except ReproError as error:
                return self._error(request, str(error), key=key)
            except Exception as error:  # retried and still failing
                return self._error(request, str(error), key=key)
            finally:
                self._set_queue_gauge()
            if outcome.compiled is not None:
                # Keyed by outcome.key, NOT the request key: when the
                # ladder degrades an exact request to the approximate-DD
                # rung, the artifact lives under the ε-specific key — hot
                # caching it under the exact key would poison every later
                # exact hit with an approximated distribution.
                self._hot_put(outcome.key, outcome.compiled, outcome.meta)
        return self._sample_outcome(request, outcome)

    def _sample_outcome(
        self, request: SamplingRequest, outcome: BuildOutcome
    ) -> SamplingResponse:
        """Draw the shots from a build outcome, RNG-compatible with weak_sim."""
        rng = np.random.default_rng(request.seed)
        start = time.perf_counter()
        with _telemetry.span(
            "service.sample", shots=request.shots, backend=outcome.backend
        ):
            try:
                if outcome.backend == "dd":
                    # Cold, disk and hot hits all carry the build record,
                    # so they draw exactly as the library does.
                    result = sample_artifact(
                        outcome.compiled,
                        outcome.meta,
                        request.shots,
                        rng,
                        request.workers,
                    )
                    result.metadata["build"] = outcome.meta
                elif outcome.backend == "statevector":
                    result = sample_statevector(
                        outcome.statevector,
                        request.shots,
                        method="vector",
                        seed=rng,
                    )
                else:
                    result = outcome.stabilizer_state.sample_result(
                        request.shots, rng
                    )
            except ReproError as error:
                return self._error(request, str(error), key=outcome.key)
        sampling_seconds = time.perf_counter() - start
        result.sampling_seconds = sampling_seconds
        result.precompute_seconds = outcome.build_seconds
        result.metadata["service"] = {
            "key": outcome.key,
            "cache": outcome.source,
            "backend": outcome.backend,
            "attempts": outcome.attempts,
        }
        return SamplingResponse(
            request_id=request.request_id,
            status="ok",
            result=result,
            backend=outcome.backend,
            cache=outcome.source,
            key=outcome.key,
            degraded_reason=outcome.degraded_reason,
            build_seconds=outcome.build_seconds,
            sampling_seconds=sampling_seconds,
            fidelity_bound=(outcome.meta.get("approximation") or {}).get(
                "fidelity_bound"
            ),
            noise=(outcome.meta.get("noise") or {}).get("model"),
        )

    # ------------------------------------------------------------------
    # Hot in-process cache
    # ------------------------------------------------------------------

    def _hot_get(self, key: str):
        """``(compiled, meta)`` for a hot entry, ``(None, None)`` on miss.

        Meta travels with the artifact so a hot hit on an ε-keyed entry
        still reports its fidelity bound.
        """
        with self._lock:
            entry = self._hot.get(key)
            if entry is None:
                return None, None
            self._hot.move_to_end(key)
            return entry

    def _hot_put(
        self,
        key: str,
        compiled: CompiledDD,
        meta: Optional[Dict[str, Any]] = None,
    ) -> None:
        if self._hot_entries == 0:
            return
        with self._lock:
            self._hot[key] = (compiled, meta or {})
            self._hot.move_to_end(key)
            while len(self._hot) > self._hot_entries:
                self._hot.popitem(last=False)

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------

    def _count(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self._stats[name] += amount
        session = _telemetry.active()
        if session is not None and name == "requests":
            session.registry.counter("service.requests").inc(amount)

    def _set_queue_gauge(self) -> None:
        session = _telemetry.active()
        if session is not None:
            session.registry.gauge("service.queue_depth").set(
                self.scheduler.queue_depth()
            )

    def _record_outcome(self, response: SamplingResponse) -> None:
        status_counter = {
            "ok": "ok",
            "rejected": "rejected",
            "deadline_exceeded": "deadline_exceeded",
            "error": "errors",
        }[response.status]
        self._count(status_counter)
        cache_counter = {
            "memory": "cache_memory_hits",
            "disk": "cache_disk_hits",
            "built": "cache_misses",
            "bypass": "bypass",
        }.get(response.cache)
        if cache_counter is not None:
            self._count(cache_counter)
        session = _telemetry.active()
        if session is None:
            return
        registry = session.registry
        registry.counter(f"service.status.{response.status}").inc()
        if response.cache in ("memory", "disk"):
            registry.counter("service.cache.hits").inc()
        elif response.cache == "built":
            # service.builds is incremented by the scheduler (once per
            # actual strong simulation, not per coalesced waiter).
            registry.counter("service.cache.misses").inc()
        elif response.cache == "bypass":
            registry.counter("service.cache.bypass").inc()
        if response.degraded_reason is not None:
            registry.counter("service.degraded").inc()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        cache = self.store.cache_dir if self.store is not None else None
        return f"SamplingService(cache_dir={cache!r})"

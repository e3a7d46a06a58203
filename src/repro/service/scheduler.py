"""Build scheduling: coalescing, retries, and the degradation ladder.

The expensive step the service exists to amortise is the strong
simulation (circuit → final DD → flattened traversal tables).  The
build itself is the library's :func:`repro.core.weak_sim.build_artifact`,
the same function ``simulate_and_sample`` runs, so a served artifact and
its build record (kept by the store as ``meta``) are the library's.  The
:class:`BuildScheduler` decides when and how often that build runs:

* **Coalescing** — concurrent requests for the same cache key share one
  build.  The first request enqueues a job; late arrivals get the same
  :class:`concurrent.futures.Future` and wait on it.  ``stats()['builds']``
  counts *actual* strong simulations, which is how the tests assert that
  four concurrent clients cost one build.
* **Admission guard** — a circuit wider than ``ServicePolicy.max_qubits``
  is rejected up front (a DD *can* blow up exponentially; the guard keeps
  a hostile or unlucky request from taking the process down with it).
* **Degradation ladder** — when the DD build runs out of memory (or the
  DD exceeds ``max_build_nodes``, checked mid-build), the scheduler does
  not fail the request.  It walks the ladder

      DD -> approximate-DD(epsilon) -> statevector -> stabilizer

  The approximate rung (``ServicePolicy.approx_epsilon``; 0 disables it)
  re-runs the DD build with fidelity-driven pruning, keyed under the
  ε-specific cache key so the approximate artifact can never be served
  for an exact request; its outcome carries the tracked fidelity bound
  in ``meta["approximation"]``.  Below that, the dense statevector
  backend answers if the state fits ``dense_memory_cap_bytes``, then the
  stabilizer backend if the circuit is Clifford, and only then the
  request is rejected.  Degraded answers draw from the same (or, for the
  approximate rung, an ε-close) distribution but are *not* bit-identical
  to the exact DD path; the response labels the backend and reason so
  callers can tell.
* **Bounded retry** — transient failures (anything that is not a
  :class:`~repro.exceptions.ReproError`) are retried up to
  ``max_retries`` times; deterministic simulator errors fail fast.

The scheduler knows nothing about shots, seeds, or JSONL — it turns a
(key, circuit, config) into a :class:`BuildOutcome` exactly once per key
in flight.  Sampling from the outcome is the API layer's job.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from concurrent.futures import wait as _futures_wait
from dataclasses import dataclass, field, replace
from typing import Any, Dict, Optional

import numpy as np

from .. import telemetry as _telemetry
from ..circuit.circuit import QuantumCircuit
from ..core.weak_sim import build_artifact
from ..dd.approximation import ApproximationConfig
from ..exceptions import MemoryOutError, ReproError, SamplingError
from ..perf.compiled_dd import CompiledDD
from ..simulators.build_spec import BuildSpec
from ..simulators.statevector import DEFAULT_MEMORY_CAP, StatevectorSimulator
from .store import ArtifactStore

__all__ = ["ServicePolicy", "BuildOutcome", "BuildScheduler", "AdmissionError"]


class AdmissionError(SamplingError):
    """The request was refused: admission guard, or no fallback backend fits.

    Retrying the same request unchanged cannot succeed; the API layer
    maps this to a ``"rejected"`` response rather than an ``"error"``.
    """


@dataclass(frozen=True)
class ServicePolicy:
    """Resource limits and failure-handling knobs for the scheduler.

    ``max_qubits`` is the admission guard: wider circuits are rejected
    outright.  ``max_build_nodes`` (optional) caps the *built* DD — a
    build that succeeds but produces a larger diagram is treated like a
    memory failure and degraded.  ``dense_memory_cap_bytes`` bounds the
    statevector fallback exactly like ``simulate_and_sample``'s
    ``memory_cap_bytes``.  ``max_retries`` bounds re-attempts for
    transient (non-:class:`~repro.exceptions.ReproError`) failures.
    ``approx_epsilon`` is the infidelity allowance the degradation
    ladder's approximate-DD rung may spend when an *exact* build blows
    the memory limits (0 disables the rung; requests that ask for
    approximation themselves are unaffected by this knob).
    """

    max_qubits: int = 64
    max_build_nodes: Optional[int] = None
    dense_memory_cap_bytes: int = DEFAULT_MEMORY_CAP
    max_retries: int = 2
    retry_backoff_seconds: float = 0.05
    approx_epsilon: float = 0.05


@dataclass
class BuildOutcome:
    """What a finished build job hands the API layer.

    Exactly one of ``compiled`` / ``statevector`` / ``stabilizer_state``
    is set, according to ``backend`` (``"dd"``, ``"statevector"``,
    ``"stabilizer"``).  ``source`` records where the artifact came from:
    ``"disk"`` (warm cache) or ``"built"`` (cold).  ``meta`` is a DD
    artifact's build record from
    :func:`~repro.core.weak_sim.build_artifact` (empty for the dense and
    stabilizer rungs).
    """

    key: str
    backend: str
    source: str
    compiled: Optional[CompiledDD] = None
    statevector: Optional[np.ndarray] = None
    stabilizer_state: Optional[Any] = None
    degraded_reason: Optional[str] = None
    build_seconds: float = 0.0
    attempts: int = 1
    meta: Dict[str, Any] = field(default_factory=dict)


class BuildScheduler:
    """Thread-pool executor that builds each distinct circuit once.

    ``store`` may be ``None`` for a purely in-memory service (every miss
    builds).  ``telemetry`` is the session build spans land in; builds
    run on worker threads, so the scheduler activates it explicitly
    around the strong simulation (the process-global active session is
    not otherwise guaranteed to be visible mid-build).
    """

    def __init__(
        self,
        store: Optional[ArtifactStore] = None,
        policy: Optional[ServicePolicy] = None,
        workers: int = 2,
        telemetry: Optional[_telemetry.Telemetry] = None,
    ):
        if workers < 1:
            raise ReproError(f"scheduler needs >= 1 worker, got {workers}")
        self.store = store
        self.policy = policy or ServicePolicy()
        self._telemetry = telemetry
        self._executor = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="repro-build"
        )
        self._lock = threading.Lock()
        self._in_flight: Dict[str, "Future[BuildOutcome]"] = {}
        self._stats = {
            "builds": 0,
            "build_attempts": 0,
            "build_failures": 0,
            "store_put_failures": 0,
            "retries": 0,
            "degraded": 0,
            "coalesced": 0,
            "store_hits": 0,
            # Requests answered by the degradation ladder's
            # approximate-DD rung (exact build blew the memory limits,
            # the ε-keyed approximate build succeeded).
            "approx_degraded": 0,
            # Named distinctly from the API layer's "rejected" status
            # bucket: SamplingService.stats() merges both dicts, and a
            # shared key would let this admission-guard counter shadow
            # the per-response one (a ladder rejection would then read
            # as zero rejections in the merged snapshot).
            "admission_rejected": 0,
        }

    # ------------------------------------------------------------------
    # Public surface
    # ------------------------------------------------------------------

    def submit(
        self,
        key: str,
        circuit: QuantumCircuit,
        spec: BuildSpec = BuildSpec(),
    ) -> "Future[BuildOutcome]":
        """The future for ``key``'s artifact, creating at most one job.

        The admission guard runs synchronously: an over-wide circuit
        raises :class:`AdmissionError` here, before a thread is spent.
        ``key`` must be :func:`repro.service.keys.spec_key` of
        ``circuit`` and ``spec`` (a checked
        :class:`~repro.simulators.build_spec.BuildSpec`).  The build picks
        its own engine, and the stored artifact's metadata records the
        one that ran as ``meta["engine"]``.  Every enabled feature IS
        part of the key: an ε-approximated artifact never shares a key
        with an exact one, and a reordered artifact stores level-space
        arrays whose ``meta["reorder"]`` permutation travels with it so
        warm hits can unpermute without rebuilding.  ``spec.noise`` routes
        the build through the density-matrix simulator; noisy builds skip the
        degradation ladder entirely — no pure-state fallback can
        represent the mixed state — so a memory blowout is a rejection,
        not a degraded answer.
        """
        if circuit.num_qubits > self.policy.max_qubits:
            with self._lock:
                self._stats["admission_rejected"] += 1
            raise AdmissionError(
                f"circuit has {circuit.num_qubits} qubits; the service "
                f"admits at most {self.policy.max_qubits} "
                f"(ServicePolicy.max_qubits)"
            )
        with self._lock:
            future = self._in_flight.get(key)
            if future is not None:
                self._stats["coalesced"] += 1
                return future
            future = self._executor.submit(self._run_job, key, circuit, spec)
            self._in_flight[key] = future
            future.add_done_callback(lambda _f, _key=key: self._retire(_key))
            return future

    def queue_depth(self) -> int:
        """Number of build jobs currently in flight (for the gauge)."""
        with self._lock:
            return len(self._in_flight)

    def stats(self) -> Dict[str, int]:
        """Scheduler counters (builds are actual strong simulations)."""
        with self._lock:
            return dict(self._stats)

    def close(
        self, drain: bool = True, timeout: Optional[float] = None
    ) -> bool:
        """Shut the build pool down; ``True`` when everything drained.

        ``drain=True`` (the default) waits for in-flight build futures —
        bounded by ``timeout`` seconds when given, indefinitely
        otherwise.  When the timeout expires (or with ``drain=False``),
        queued-but-unstarted jobs are *cancelled* rather than abandoned:
        their futures resolve with ``CancelledError``, so coalesced
        waiters blocked on them wake up instead of hanging on a future
        no thread will ever complete (the abandoned-future leak).  A
        build already running on a thread cannot be interrupted; its
        future still completes when the thread finishes.
        """
        with self._lock:
            pending = list(self._in_flight.values())
        drained = True
        if drain and pending:
            _done, not_done = _futures_wait(pending, timeout=timeout)
            drained = not not_done
        if drain and drained:
            self._executor.shutdown(wait=True)
        else:
            self._executor.shutdown(wait=False, cancel_futures=True)
        return drained

    # ------------------------------------------------------------------
    # The build job (worker thread)
    # ------------------------------------------------------------------

    def _retire(self, key: str) -> None:
        with self._lock:
            self._in_flight.pop(key, None)

    def _count(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self._stats[name] += amount
        if name == "builds":
            # The telemetry counter must track *actual* strong
            # simulations, not how many coalesced requests shared one —
            # the concurrency tests pin exactly this distinction.
            session = _telemetry.active()
            if session is not None:
                session.registry.counter("service.builds").inc(amount)

    def _run_job(
        self, key: str, circuit: QuantumCircuit, spec: BuildSpec
    ) -> BuildOutcome:
        with _telemetry.activate(self._telemetry):
            stored = self._stored(key)
            if stored is not None:
                return stored
            return self._build_with_ladder(key, circuit, spec)

    def _stored(self, key: str) -> Optional[BuildOutcome]:
        """The artifact under ``key`` from the persistent store, if any."""
        stored = self.store.get(key) if self.store is not None else None
        if stored is None:
            return None
        self._count("store_hits")
        return BuildOutcome(
            key=key,
            backend="dd",
            source="disk",
            compiled=stored.compiled,
            meta=stored.meta,
        )

    def _built(
        self, key: str, compiled: CompiledDD, meta: Dict[str, Any]
    ) -> BuildOutcome:
        """Count a finished build and persist its artifact (best-effort)."""
        # Counted only once the strong simulation has actually produced
        # a usable artifact: counting at attempt start double-counted
        # ``service.builds`` whenever a failure *after* the simulation
        # (an over-budget DD, a transient store error) pushed the job
        # back through the retry/degradation ladder —
        # the counter the coalescing tests and serve-net-smoke's
        # one-build-per-fingerprint gate pin would then drift from the
        # number of artifacts ever produced.
        self._count("builds")
        if self.store is not None:
            try:
                self.store.put(key, compiled, meta=meta)
            except Exception:
                # Persistence is best-effort: a full disk must not fail
                # (or re-run) a build whose artifact is already in hand.
                self._count("store_put_failures")
        return BuildOutcome(
            key=key, backend="dd", source="built", compiled=compiled, meta=meta
        )

    def _build_with_ladder(
        self, key: str, circuit: QuantumCircuit, spec: BuildSpec
    ) -> BuildOutcome:
        attempts = 0
        start = time.perf_counter()
        while True:
            attempts += 1
            try:
                outcome = self._build_dd(key, circuit, spec)
                outcome.attempts = attempts
                outcome.build_seconds = time.perf_counter() - start
                return outcome
            except (MemoryOutError, MemoryError) as error:
                self._count("build_failures")
                if spec.noise is not None:
                    # No rung can answer a noisy request: approximation's
                    # fidelity accounting, the dense statevector, and the
                    # stabilizer backend are all pure-state machinery and
                    # cannot represent the mixed state the client asked
                    # to sample.  Reject instead of silently de-noising.
                    raise AdmissionError(
                        f"noisy density build failed ({error}); noisy "
                        "requests have no degradation fallback"
                    )
                outcome = None
                if (
                    spec.approximation is None
                    and self.policy.approx_epsilon > 0.0
                ):
                    # The approximate-DD rung: only for requests that
                    # asked for an exact build (an approximate build that
                    # still blows the limit falls straight through).
                    outcome = self._try_approximate(circuit, spec, str(error))
                if outcome is None:
                    outcome = self._degrade(key, circuit, spec, str(error))
                outcome.attempts = attempts
                outcome.build_seconds = time.perf_counter() - start
                return outcome
            except ReproError:
                # Deterministic: the same circuit fails the same way.
                self._count("build_failures")
                raise
            except Exception:
                self._count("build_failures")
                if attempts > self.policy.max_retries:
                    raise
                self._count("retries")
                time.sleep(self.policy.retry_backoff_seconds * attempts)

    def _build_dd(
        self, key: str, circuit: QuantumCircuit, spec: BuildSpec
    ) -> BuildOutcome:
        """One :func:`~repro.core.weak_sim.build_artifact`; may raise for the ladder."""
        self._count("build_attempts")
        # The mid-build guard aborts a doomed build early; a cap of 0
        # (used by tests to force degradation) stays with the post-build
        # check below, since node_limit needs a positive ceiling.
        limit = self.policy.max_build_nodes
        compiled, meta = build_artifact(circuit, spec, node_limit=limit or None)
        if limit is not None and compiled.size > limit:
            # MemoryError (not MemoryOutError, whose constructor wants byte
            # counts) so the ladder treats an over-large DD like a real OOM.
            raise MemoryError(
                f"built DD has {compiled.size} flattened nodes, over the "
                f"service limit of {limit} (ServicePolicy.max_build_nodes)"
            )
        return self._built(key, compiled, meta)

    # ------------------------------------------------------------------
    # Degradation ladder
    # ------------------------------------------------------------------

    def _try_approximate(
        self, circuit: QuantumCircuit, spec: BuildSpec, reason: str
    ) -> Optional[BuildOutcome]:
        """The approximate-DD rung: rebuild with ε pruning, ε-keyed.

        Returns ``None`` when this rung cannot answer either (the ladder
        then continues to statevector/stabilizer).  The outcome's
        ``key`` is the ε-specific cache key — deliberately different
        from the exact request key, so the API layer must hot-cache it
        under ``outcome.key`` and the artifact store never cross-serves
        the two.  The rung builds without reordering and, like every
        vector-DD build, on the SoA kernel.
        """
        from .keys import spec_key

        config = ApproximationConfig(epsilon=self.policy.approx_epsilon)
        approx_spec = replace(spec, approximation=config, reorder=None)
        approx_key = spec_key(circuit, approx_spec)
        degraded_reason = (
            f"approximate DD (epsilon={config.epsilon}): {reason}"
        )
        outcome = self._stored(approx_key)
        if outcome is not None:
            outcome.degraded_reason = degraded_reason
            self._count("approx_degraded")
            return outcome
        try:
            outcome = self._build_dd(approx_key, circuit, approx_spec)
        except (MemoryOutError, MemoryError):
            # Even the pruned DD blows the limit; next rung.
            self._count("build_failures")
            return None
        except ReproError:
            # Deterministic approximation failure (e.g. the allowance
            # cannot cover the state); fall through rather than fail a
            # request the dense backend might still answer.
            self._count("build_failures")
            return None
        outcome.degraded_reason = degraded_reason
        self._count("approx_degraded")
        return outcome

    def _degrade(
        self, key: str, circuit: QuantumCircuit, spec: BuildSpec, reason: str
    ) -> BuildOutcome:
        """DD build failed on memory: statevector, then stabilizer, then give up."""
        dense_bytes = 16 * (2**circuit.num_qubits)
        if dense_bytes <= self.policy.dense_memory_cap_bytes:
            simulator = StatevectorSimulator(
                memory_cap_bytes=self.policy.dense_memory_cap_bytes,
                optimize=spec.optimize,
            )
            statevector = simulator.run(circuit, initial_state=spec.initial_state)
            self._count("degraded")
            return BuildOutcome(
                key=key,
                backend="statevector",
                source="built",
                statevector=statevector,
                degraded_reason=reason,
            )
        if spec.initial_state == 0:
            try:
                from ..simulators.stabilizer import StabilizerSimulator

                state = StabilizerSimulator().run(circuit)
            except ReproError:
                state = None
            if state is not None:
                self._count("degraded")
                return BuildOutcome(
                    key=key,
                    backend="stabilizer",
                    source="built",
                    stabilizer_state=state,
                    degraded_reason=reason,
                )
        raise AdmissionError(
            f"DD build failed ({reason}) and no fallback backend fits: "
            f"dense state needs {dense_bytes} bytes "
            f"(cap {self.policy.dense_memory_cap_bytes}) and the circuit "
            "is not Clifford"
        )

"""Multi-process worker pool with consistent-hash shard routing.

One Python process can only build or sample one artifact at a time per
core it owns; serving "heavy traffic" means many processes.  The
:class:`WorkerPool` runs N worker processes, each wrapping its own
:class:`~repro.service.api.SamplingService`.  The cache tiers layer as:

* **L1** — each worker's in-process hot LRU of :class:`CompiledDD`
  objects (``hot_entries`` per worker, zero-copy reuse),
* **L2** — the shared on-disk :class:`~repro.service.store.ArtifactStore`
  (``cache_dir``), safe for concurrent workers via its advisory file
  locks; a worker that never built an artifact still warm-starts it
  from here,
* below that, the cold build (coalesced per worker by its
  :class:`~repro.service.scheduler.BuildScheduler`).

What makes L1 effective is **shard routing**: the dispatcher computes
the request's artifact cache key (circuit fingerprint + build config,
:func:`repro.service.keys.cache_key`) and sends it to the worker the
consistent-hash ring (:mod:`repro.service.ring`) assigns for that key.
Every request for the same circuit lands on the same worker, so each
artifact is built once pool-wide and stays hot in exactly one process —
the shard-locality hit rate the bench reports is the fraction of
requests answered from the owning worker's L1.

Back-pressure is explicit: each worker has a bounded dispatch window
(``max_queue_depth`` outstanding requests); a request routed to a full
worker raises :class:`PoolSaturatedError` *in the dispatcher*, which the
HTTP front door maps to ``429 Retry-After`` — overload sheds at the
door instead of growing an unbounded queue inside a worker.  Draining
(:meth:`WorkerPool.drain`) stops intake, waits for in-flight work with a
bounded timeout, then stops workers via queue sentinels; ``terminate``
is only a last resort for a worker that ignores its sentinel.

Tasks cross the process boundary as plain JSONL-schema dicts (the same
records ``python -m repro.service`` reads), never as pickled circuit
objects: the worker re-resolves the circuit itself, so the dispatcher
and worker cannot disagree about what was requested.  Answers come back
as a :class:`PoolReply`: the status and cache tier the dispatcher needs
for routing and accounting, plus the response line already encoded by
:meth:`~repro.service.api.SamplingResponse.to_json_bytes` — the parent
process never decodes or re-encodes a counts table.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import signal
import threading
import time
from concurrent.futures import Future, InvalidStateError
from typing import Any, Dict, Iterable, List, NamedTuple, Optional, Set, Tuple

from .. import telemetry as _telemetry
from ..exceptions import ReproError, SamplingError
from .ring import DEFAULT_REPLICAS, HashRing
from .scheduler import ServicePolicy
from .store import DEFAULT_MAX_BYTES

__all__ = [
    "PoolConfig",
    "PoolClosedError",
    "PoolReply",
    "PoolSaturatedError",
    "WorkerPool",
    "DEADLINE_RETRY_AFTER",
    "DEFAULT_MAX_QUEUE_DEPTH",
]

#: Outstanding requests a single worker may have before the dispatcher
#: sheds new arrivals for its shard (HTTP 429 at the front door).
DEFAULT_MAX_QUEUE_DEPTH = 32

#: Seconds a ``deadline_exceeded`` answer asks the client to wait before
#: retrying (its ``retry_after`` field; the build keeps running, so the
#: retry hits the cache).
DEADLINE_RETRY_AFTER = 2

#: How many resolved routing keys the dispatcher memoises (spec → key).
_ROUTING_CACHE_ENTRIES = 1024


def _guard_qasm_spec(spec: Any, root: Optional[str]) -> None:
    """Refuse ``{"qasm_file": ...}`` circuit specs outside ``root``.

    The pool serves network clients, and a ``qasm_file`` spec makes the
    server ``open()`` a local path of the client's choosing — an
    arbitrary-file-read/probe vector.  With no allow-listed root
    (the default) such specs are rejected outright; with one, only real
    paths inside the root resolve.  Inline ``qasm`` and builtin names
    are unaffected.
    """
    if not (isinstance(spec, dict) and "qasm_file" in spec):
        return
    if root is None:
        raise ReproError(
            "qasm_file circuit specs are not allowed over the network "
            "(start the server with --allow-qasm-file DIR to permit "
            "files under DIR, or send the source inline as 'qasm')"
        )
    path = spec["qasm_file"]
    if not isinstance(path, str):
        raise ReproError(
            f"qasm_file must be a string, got {type(path).__name__}"
        )
    resolved = os.path.realpath(path)
    allowed = os.path.realpath(root)
    if os.path.commonpath([allowed, resolved]) != allowed:
        raise ReproError(
            f"qasm_file {path!r} is outside the allowed directory"
        )


class PoolSaturatedError(SamplingError):
    """The target worker's dispatch window is full; retry after a beat."""

    def __init__(self, message: str, retry_after: float = 1.0):
        super().__init__(message)
        self.retry_after = retry_after


class PoolClosedError(SamplingError):
    """The pool is draining or closed; no new work is admitted."""


class PoolReply(NamedTuple):
    """A worker's answer to one request record.

    ``body`` is the whole response line, ``(json.dumps(record) +
    "\\n").encode()`` for the JSONL response record plus ``"worker"``
    (and ``"retry_after"`` on a ``deadline_exceeded`` answer); ``status``
    and ``cache`` repeat the record's fields so the dispatcher can map
    and count the answer without decoding the body.
    """

    status: str
    cache: Optional[str]
    worker: int
    body: bytes


class PoolConfig:
    """Per-worker service configuration, kept to picklable primitives.

    The pool forks workers, so everything a worker needs must cross the
    process boundary; a plain attribute bag of ints/strings does, a
    live ``SamplingService`` never would.
    """

    def __init__(
        self,
        cache_dir: Optional[str] = None,
        max_cache_bytes: int = DEFAULT_MAX_BYTES,
        hot_entries: int = 8,
        request_workers: int = 2,
        build_workers: int = 1,
        max_qubits: int = 64,
        max_build_nodes: Optional[int] = None,
        dense_memory_cap_bytes: Optional[int] = None,
        qasm_file_root: Optional[str] = None,
    ):
        self.cache_dir = cache_dir
        self.max_cache_bytes = max_cache_bytes
        self.hot_entries = hot_entries
        self.request_workers = request_workers
        self.build_workers = build_workers
        self.max_qubits = max_qubits
        self.max_build_nodes = max_build_nodes
        self.dense_memory_cap_bytes = dense_memory_cap_bytes
        #: Directory under which ``{"qasm_file": ...}`` specs may read;
        #: ``None`` (the default) rejects them — network clients must
        #: not be able to make the server open arbitrary local paths.
        self.qasm_file_root = qasm_file_root

    def policy(self) -> ServicePolicy:
        """The worker-side ``ServicePolicy`` this config describes."""
        kwargs: Dict[str, Any] = {
            "max_qubits": self.max_qubits,
            "max_build_nodes": self.max_build_nodes,
        }
        if self.dense_memory_cap_bytes is not None:
            kwargs["dense_memory_cap_bytes"] = self.dense_memory_cap_bytes
        return ServicePolicy(**kwargs)


def _worker_main(
    index: int,
    config: PoolConfig,
    task_queue: "multiprocessing.Queue",
    result_queue: "multiprocessing.Queue",
) -> None:
    """A worker process: one SamplingService, tasks in, replies out."""
    # The parent owns Ctrl-C; workers drain via their queue sentinel.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    from .api import SamplingRequest, SamplingService

    service = SamplingService(
        cache_dir=config.cache_dir,
        max_cache_bytes=config.max_cache_bytes,
        policy=config.policy(),
        build_workers=config.build_workers,
        request_workers=config.request_workers,
        hot_entries=config.hot_entries,
    )

    def extra(status: str) -> Dict[str, Any]:
        if status == "deadline_exceeded":
            return {"worker": index, "retry_after": DEADLINE_RETRY_AFTER}
        return {"worker": index}

    def reply(
        task_id: int, status: str, cache: Optional[str], body: bytes
    ) -> None:
        result_queue.put((index, task_id, PoolReply(status, cache, index, body)))

    def emit(task_id: int, record: Dict[str, Any]) -> None:
        """Answer with a small record built here (it holds no counts)."""
        record.update(extra(record["status"]))
        body = (json.dumps(record) + "\n").encode()
        reply(task_id, record["status"], None, body)

    def finish(task_id: int, top: Optional[int], future: Future) -> None:
        try:
            response = future.result()
            body = response.to_json_bytes(top=top, extra=extra(response.status))
        except Exception as error:  # pragma: no cover - defensive
            emit(task_id, {"status": "error", "error": str(error)})
            return
        reply(task_id, response.status, response.cache, body)

    try:
        while True:
            item = task_queue.get()
            kind = item[0]
            if kind == "stop":
                break
            if kind == "stats":
                result_queue.put((index, item[1], {"stats": service.stats()}))
                continue
            _, task_id, record, top = item
            try:
                # The dispatcher guards too, but the worker re-checks so
                # the invariant holds even for records that reach a
                # queue some other way.
                _guard_qasm_spec(record.get("circuit"), config.qasm_file_root)
                request = SamplingRequest.from_record(record)
            except (ReproError, ValueError, OSError) as error:
                emit(
                    task_id,
                    {
                        "request_id": record.get("request_id"),
                        "status": "rejected",
                        "error": str(error),
                    },
                )
                continue
            try:
                future = service.submit(request)
            except ReproError as error:
                emit(
                    task_id,
                    {
                        "request_id": record.get("request_id"),
                        "status": "error",
                        "error": str(error),
                    },
                )
                continue
            future.add_done_callback(
                lambda f, _id=task_id, _top=top: finish(_id, _top, f)
            )
    finally:
        # close() drains the request pool, so every pending done
        # callback has emitted its record before the exit marker.
        service.close()
        result_queue.put((index, None, {"exit": True, "stats": service.stats()}))


class WorkerPool:
    """Consistent-hash-sharded pool of sampling-service processes.

    Usable as a context manager.  ``submit_record`` is thread-safe and
    returns a :class:`concurrent.futures.Future` resolving to a
    :class:`PoolReply` whose ``body`` is the encoded response line
    (JSONL schema plus a ``"worker"`` field) — the asyncio front door
    awaits it via ``asyncio.wrap_future`` and writes the body as is.
    """

    def __init__(
        self,
        workers: int = 2,
        config: Optional[PoolConfig] = None,
        max_queue_depth: int = DEFAULT_MAX_QUEUE_DEPTH,
        replicas: int = DEFAULT_REPLICAS,
    ):
        if workers < 1:
            raise ReproError(f"pool needs >= 1 worker, got {workers}")
        if max_queue_depth < 1:
            raise ReproError(
                f"max_queue_depth must be >= 1, got {max_queue_depth}"
            )
        self.config = config or PoolConfig()
        self.max_queue_depth = max_queue_depth
        self.num_workers = workers
        self.ring = HashRing(
            [f"worker-{i}" for i in range(workers)], replicas=replicas
        )
        self._context = multiprocessing.get_context("fork")
        self._processes: List[Any] = []
        self._task_queues: List[Any] = []
        self._result_queue: Optional[Any] = None
        self._reader: Optional[threading.Thread] = None
        self._monitor: Optional[threading.Thread] = None
        self._monitor_stop = threading.Event()
        self._suspect: Dict[int, Set[int]] = {}
        self._lock = threading.Lock()
        # task_id -> (future, worker index, is_control_plane)
        self._pending: Dict[int, Tuple[Future, int, bool]] = {}
        self._outstanding: List[int] = [0] * workers
        self._task_counter = 0
        self._routing_cache: Dict[Tuple[str, bool, int], str] = {}
        self._final_stats: Dict[int, Dict[str, Any]] = {}
        self._stats = {
            "dispatched": 0,
            "completed": 0,
            "shed": 0,
            "resolve_rejected": 0,
            "shard_memory_hits": 0,
            "shard_disk_hits": 0,
            "shard_builds": 0,
            "terminated_workers": 0,
            "dead_worker_failures": 0,
        }
        self._started = False
        self._draining = False
        self._closed = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self) -> "WorkerPool":
        """Fork the workers and start the result-reader thread."""
        if self._started:
            raise ReproError("pool is already started")
        self._started = True
        self._result_queue = self._context.Queue()
        for index in range(self.num_workers):
            task_queue = self._context.Queue()
            process = self._context.Process(
                target=_worker_main,
                args=(index, self.config, task_queue, self._result_queue),
                name=f"repro-pool-{index}",
                daemon=True,
            )
            # Fork before any parent thread starts so the children never
            # inherit a mid-mutation interpreter state.
            process.start()
            self._task_queues.append(task_queue)
            self._processes.append(process)
        self._reader = threading.Thread(
            target=self._read_results, name="repro-pool-reader", daemon=True
        )
        self._reader.start()
        self._monitor = threading.Thread(
            target=self._watch_workers, name="repro-pool-monitor", daemon=True
        )
        self._monitor.start()
        return self

    def __enter__(self) -> "WorkerPool":
        if not self._started:
            self.start()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def workers_alive(self) -> int:
        """How many worker processes are currently running."""
        return sum(1 for process in self._processes if process.is_alive())

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------

    def routing_key(self, record: Dict[str, Any]) -> str:
        """The artifact cache key a record routes by (memoised).

        Resolving a circuit spec costs a parse, so identical specs are
        memoised; the memo key is the canonical JSON of the spec plus
        the build-config fields that enter the artifact key.  The
        record's scalars are parsed by
        :func:`~repro.service.api.request_scalars`, as the worker parses
        them.  Raises :class:`~repro.exceptions.ReproError` for an
        unresolvable spec or a mistyped scalar.
        """
        from .api import request_scalars, resolve_circuit
        from .keys import cache_key

        if "circuit" not in record:
            raise ReproError("request is missing the 'circuit' field")
        _guard_qasm_spec(record["circuit"], self.config.qasm_file_root)
        scalars = request_scalars(record)
        optimize, initial_state = scalars["optimize"], scalars["initial_state"]
        memo_key = (
            json.dumps(record["circuit"], sort_keys=True),
            optimize,
            initial_state,
        )
        with self._lock:
            cached = self._routing_cache.get(memo_key)
        if cached is not None:
            return cached
        circuit = resolve_circuit(record["circuit"])
        key = cache_key(
            circuit, optimize=optimize, initial_state=initial_state
        )
        with self._lock:
            if len(self._routing_cache) >= _ROUTING_CACHE_ENTRIES:
                self._routing_cache.clear()
            self._routing_cache[memo_key] = key
        return key

    def worker_for(self, routing_key: str) -> int:
        """The worker index the ring assigns for ``routing_key``."""
        return int(self.ring.assign(routing_key).rsplit("-", 1)[1])

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------

    def submit_record(
        self, record: Dict[str, Any], top: Optional[int] = None
    ) -> "Future[PoolReply]":
        """Route one JSONL-schema request record to its shard's worker.

        The future resolves to the worker's :class:`PoolReply`.  Raises
        :class:`PoolClosedError` when draining/closed,
        :class:`PoolSaturatedError` when the shard's worker is at its
        dispatch-window limit, :class:`ValueError` for a negative
        ``top``, and :class:`~repro.exceptions.ReproError` when the
        circuit spec cannot be resolved (the caller answers 400, not a
        worker).
        """
        if not self._started:
            raise ReproError("pool is not started")
        if self._draining or self._closed:
            raise PoolClosedError("worker pool is draining")
        if top is not None and top < 0:
            raise ValueError(f"top must be non-negative, got {top}")
        try:
            key = self.routing_key(record)
        except (ReproError, OSError):
            # OSError: a qasm_file under the allowed root that does not
            # exist or cannot be read — a caller-side 400, not a crash.
            self._count("resolve_rejected")
            raise
        index = self.worker_for(key)
        process = self._processes[index]
        if not process.is_alive():
            raise PoolClosedError(f"worker {index} is not running")
        future: "Future[PoolReply]" = Future()
        with self._lock:
            # Re-checked under the lock: drain() flips the flag under the
            # same lock, so a pending entry is either registered before
            # the orphan sweep (which fails it cleanly) or refused here.
            if self._draining or self._closed:
                raise PoolClosedError("worker pool is draining")
            if self._outstanding[index] >= self.max_queue_depth:
                self._stats["shed"] += 1
                shed = True
            else:
                shed = False
                self._task_counter += 1
                task_id = self._task_counter
                self._pending[task_id] = (future, index, False)
                self._outstanding[index] += 1
                self._stats["dispatched"] += 1
        if shed:
            self._shed_telemetry(index)
            raise PoolSaturatedError(
                f"worker {index} has {self.max_queue_depth} requests "
                "outstanding; retry shortly",
                retry_after=1.0,
            )
        self._set_depth_gauge(index)
        self._task_queues[index].put(("req", task_id, record, top))
        return future

    def submit_stats(self, index: int) -> "Future[Dict[str, Any]]":
        """Ask one worker for its service stats (control-plane message).

        Control-plane requests do not count against ``_outstanding`` —
        a ``/stats`` poll must never consume the data-plane dispatch
        window and trigger spurious 429 shedding under load.
        """
        if not self._started:
            raise ReproError("pool is not started")
        if not self._processes[index].is_alive():
            raise PoolClosedError(f"worker {index} is not running")
        future: "Future[Dict[str, Any]]" = Future()
        with self._lock:
            self._task_counter += 1
            task_id = self._task_counter
            self._pending[task_id] = (future, index, True)
        self._task_queues[index].put(("stats", task_id))
        return future

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------

    def _read_results(self) -> None:
        assert self._result_queue is not None
        exits = 0
        while exits < self.num_workers:
            index, task_id, payload = self._result_queue.get()
            if task_id is None:
                if payload.get("reader_stop"):
                    break
                exits += 1
                self._final_stats[index] = payload.get("stats") or {}
                continue
            with self._lock:
                entry = self._pending.pop(task_id, None)
                if entry is not None and not entry[2]:
                    self._outstanding[index] = max(
                        0, self._outstanding[index] - 1
                    )
                    self._stats["completed"] += 1
            if isinstance(payload, PoolReply):
                self._record_shard(payload.cache)
            self._set_depth_gauge(index)
            if entry is not None:
                try:
                    entry[0].set_result(payload)
                except InvalidStateError:
                    pass  # the caller timed out and cancelled the future

    def _watch_workers(self, interval: float = 0.25) -> None:
        """Fail the pending futures of crashed workers; clients never hang.

        A worker that dies mid-request (OOM during a DD build, an
        external kill) can never answer, and some of its emitted
        results may be lost in the pipe — without this sweep the
        front door's ``await`` blocks forever and ``drain()``
        deadlocks at its in-flight wait.  Two-sweep confirmation: the
        first sweep that sees a dead worker snapshots its pending task
        ids, the next one fails whichever of those the reader thread
        has still not resolved — the gap lets results already
        serialized into the result queue drain first.
        """
        while not self._monitor_stop.wait(interval):
            for index, process in enumerate(self._processes):
                if process.is_alive():
                    continue
                with self._lock:
                    stuck = [
                        task_id
                        for task_id, entry in self._pending.items()
                        if entry[1] == index
                    ]
                if not stuck:
                    self._suspect.pop(index, None)
                    continue
                confirmed = [
                    task_id
                    for task_id in stuck
                    if task_id in self._suspect.get(index, ())
                ]
                self._suspect[index] = set(stuck)
                if confirmed:
                    self._fail_tasks(
                        index,
                        confirmed,
                        f"worker {index} died (exit code "
                        f"{process.exitcode}) with the request pending",
                    )

    def _fail_tasks(
        self, index: int, task_ids: Iterable[int], reason: str
    ) -> None:
        entries = []
        with self._lock:
            for task_id in task_ids:
                entry = self._pending.pop(task_id, None)
                if entry is None:
                    continue
                entries.append(entry)
                if not entry[2]:
                    self._outstanding[index] = max(
                        0, self._outstanding[index] - 1
                    )
            self._stats["dead_worker_failures"] += len(entries)
        for future, _index, _control in entries:
            if not future.done():
                future.set_exception(PoolClosedError(reason))
        if entries:
            self._set_depth_gauge(index)

    def _record_shard(self, cache: Optional[str]) -> None:
        counter = {
            "memory": "shard_memory_hits",
            "disk": "shard_disk_hits",
            "built": "shard_builds",
        }.get(cache)
        if counter is None:
            return
        self._count(counter)
        session = _telemetry.active()
        if session is not None:
            session.registry.counter(f"service.pool.shard.{cache}").inc()

    def _count(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self._stats[name] += amount

    def _set_depth_gauge(self, index: int) -> None:
        session = _telemetry.active()
        if session is not None:
            with self._lock:
                depth = self._outstanding[index]
            session.registry.gauge(
                f"service.pool.queue_depth.worker{index}"
            ).set(depth)

    def _shed_telemetry(self, index: int) -> None:
        session = _telemetry.active()
        if session is not None:
            session.registry.counter("service.pool.shed").inc()
            session.registry.counter(
                f"service.pool.shed.worker{index}"
            ).inc()

    # ------------------------------------------------------------------
    # Stats
    # ------------------------------------------------------------------

    def stats(self, include_workers: bool = True) -> Dict[str, Any]:
        """Dispatcher counters, plus per-worker service stats when live.

        ``workers`` is a list indexed by worker; live workers answer a
        control-plane stats request, exited workers report the snapshot
        they emitted on shutdown.
        """
        with self._lock:
            snapshot: Dict[str, Any] = dict(self._stats)
            snapshot["outstanding"] = list(self._outstanding)
        snapshot["workers_alive"] = self.workers_alive()
        snapshot["max_queue_depth"] = self.max_queue_depth
        if not include_workers:
            return snapshot
        futures: List[Tuple[int, Optional[Future]]] = []
        for index, process in enumerate(self._processes):
            if process.is_alive() and not self._closed:
                try:
                    futures.append((index, self.submit_stats(index)))
                    continue
                except (ReproError, OSError):  # pragma: no cover - racing exit
                    pass
            futures.append((index, None))
        workers: List[Optional[Dict[str, Any]]] = []
        for index, future in futures:
            if future is None:
                workers.append(self._final_stats.get(index))
                continue
            try:
                workers.append(future.result(timeout=2.0).get("stats"))
            except Exception:  # pragma: no cover - worker died mid-query
                workers.append(self._final_stats.get(index))
        snapshot["workers"] = workers
        totals: Dict[str, int] = {}
        for worker_stats in workers:
            for field in ("requests", "builds", "cache_hits", "degraded"):
                if worker_stats and field in worker_stats:
                    totals[field] = totals.get(field, 0) + int(
                        worker_stats[field]
                    )
        snapshot["totals"] = totals
        return snapshot

    # ------------------------------------------------------------------
    # Drain / close
    # ------------------------------------------------------------------

    def drain(self, timeout: float = 60.0) -> bool:
        """Stop intake, finish in-flight work, stop workers; ``True`` if clean.

        The deadline covers the whole drain.  Workers still alive when
        it expires are terminated (counted in ``terminated_workers``)
        and their pending futures fail with :class:`PoolClosedError`
        rather than hanging forever.
        """
        if self._closed:
            return True
        with self._lock:
            self._draining = True
        # Stop the liveness monitor before the workers exit on purpose,
        # so a clean shutdown is never mistaken for a crash while the
        # reader is still draining queued results.
        self._monitor_stop.set()
        if self._monitor is not None:
            self._monitor.join(timeout=5.0)
        deadline = time.monotonic() + max(0.0, timeout)
        clean = True
        for queue in self._task_queues:
            queue.put(("stop",))
        for process in self._processes:
            process.join(timeout=max(0.1, deadline - time.monotonic()))
            if process.is_alive():
                process.terminate()
                process.join(timeout=5.0)
                self._count("terminated_workers")
                clean = False
        if self._result_queue is not None:
            self._result_queue.put((-1, None, {"reader_stop": True}))
        if self._reader is not None:
            self._reader.join(timeout=5.0)
        with self._lock:
            orphans = list(self._pending.values())
            self._pending.clear()
        for future, _index, _control in orphans:
            if not future.done():
                future.set_exception(
                    PoolClosedError("worker pool drained with request pending")
                )
            clean = False
        self._closed = True
        session = _telemetry.active()
        if session is not None:
            session.registry.record_pool(self.stats(include_workers=False))
        return clean

    def close(self) -> None:
        """Drain with the default timeout; idempotent."""
        if not self._closed and self._started:
            self.drain()
        self._closed = True

    def exit_codes(self) -> List[Optional[int]]:
        """Worker process exit codes (``None`` while still running)."""
        return [process.exitcode for process in self._processes]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"WorkerPool(workers={self.num_workers}, "
            f"cache_dir={self.config.cache_dir!r})"
        )

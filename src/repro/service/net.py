"""Asyncio HTTP/1.1 front door over the sharded worker pool.

Hand-rolled on :func:`asyncio.start_server` — the stdlib has no async
HTTP server and the request surface here is tiny, so the parser speaks
exactly the HTTP/1.1 subset the service needs (request line, headers,
``Content-Length`` bodies, keep-alive) and nothing else.  The JSON
bodies are the *same records* the batch JSONL CLI reads, so anything
that can be a request line in a file can be a POST body on the wire —
with one security exception: ``{"qasm_file": ...}`` specs are rejected
in network mode (they make the server open a client-chosen local path)
unless ``--allow-qasm-file DIR`` allow-lists a directory.

Endpoints:

``POST /v1/sample``
    Body: one JSONL-schema request record.  Answer: the response record
    (plus ``"worker"``), with the HTTP status mapped from the service
    status — 200 ``ok``, 400 ``rejected``, 500 ``error``, and 503 +
    ``Retry-After`` for ``deadline_exceeded`` (the build keeps running;
    a retry hits the cache).  The worker encodes the body once
    (:class:`~repro.service.pool.PoolReply`); the front door writes it
    unchanged.
``POST /v1/batch``
    Body: many records, one per line.  Answer: JSONL, input order, one
    record per line (the workers' bodies joined); per-line failures
    (parse errors, shed shards) become per-line records, the batch
    itself is always 200.
``GET /healthz``
    Liveness: 200 with worker counts, 503 once draining.
``GET /stats``
    Dispatcher + per-worker counters as JSON.

Load shedding happens *before* a worker sees the request: a full shard
window answers ``429 Retry-After`` (:class:`PoolSaturatedError`), a
draining pool ``503 Retry-After`` (:class:`PoolClosedError`).  Routing
(circuit resolution + fingerprint hashing) is CPU work, so it runs on a
small thread pool, never on the event loop.

``serve_forever`` installs SIGTERM/SIGINT handlers for graceful drain:
stop accepting, answer stragglers with 503, wait for in-flight
responses, then drain the pool (bounded) so every worker exits cleanly.

The module also ships the minimal asyncio client (:func:`http_request`,
:func:`post_json`) used by ``--net-smoke``, the closed-loop bench, and
``examples/serving_demo.py`` — same no-new-deps rule as the server.
"""

from __future__ import annotations

import asyncio
import json
import signal
import sys
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Dict, List, Optional, Tuple

from .. import telemetry as _telemetry
from ..exceptions import ReproError
from .pool import (
    DEADLINE_RETRY_AFTER,
    PoolClosedError,
    PoolReply,
    PoolSaturatedError,
    WorkerPool,
)

__all__ = [
    "HttpFrontDoor",
    "http_request",
    "post_json",
    "serve_forever",
    "DEFAULT_PORT",
]

DEFAULT_PORT = 8766

#: Largest accepted request body (a QASM circuit of this size is already
#: far beyond what the admission guard would let through).
DEFAULT_MAX_BODY_BYTES = 8 * 1024 * 1024

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    429: "Too Many Requests",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
}

#: Backstop on waiting for a worker's reply when the request carries no
#: deadline of its own — generous next to any sane build, but finite,
#: so a lost reply becomes a 503 instead of a connection that never
#: answers and a drain that never finishes.
DEFAULT_REQUEST_TIMEOUT = 300.0

#: Service response status → HTTP status for ``/v1/sample``.
_STATUS_CODES = {
    "ok": 200,
    "rejected": 400,
    "deadline_exceeded": 503,
    "error": 500,
}


class _HttpError(Exception):
    """Internal: parse/validation failure carrying its HTTP status."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status


async def _read_request(
    reader: asyncio.StreamReader, max_body: int
) -> Optional[Tuple[str, str, Dict[str, str], bytes]]:
    """Parse one request; ``None`` on a cleanly closed connection."""
    try:
        request_line = await reader.readline()
    except (ConnectionError, asyncio.IncompleteReadError):
        return None
    except (asyncio.LimitOverrunError, ValueError):
        # StreamReader raises ValueError past its 64 KiB line limit —
        # answer 431, don't drop the connection with no response.
        raise _HttpError(431, "request line too long")
    if not request_line:
        return None
    parts = request_line.decode("latin-1").strip().split()
    if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
        raise _HttpError(400, "malformed request line")
    method, path = parts[0].upper(), parts[1]
    headers: Dict[str, str] = {}
    while True:
        try:
            line = await reader.readline()
        except (asyncio.LimitOverrunError, ValueError):
            raise _HttpError(431, "header line too long")
        if not line:
            raise _HttpError(400, "connection closed inside headers")
        text = line.decode("latin-1").strip()
        if not text:
            break
        name, _, value = text.partition(":")
        if not _:
            raise _HttpError(400, f"malformed header line {text!r}")
        headers[name.strip().lower()] = value.strip()
    length_text = headers.get("content-length", "0")
    try:
        length = int(length_text)
    except ValueError:
        raise _HttpError(400, f"bad Content-Length {length_text!r}")
    if length < 0:
        raise _HttpError(400, "negative Content-Length")
    if length > max_body:
        raise _HttpError(413, f"body exceeds {max_body} bytes")
    body = await reader.readexactly(length) if length else b""
    return method, path, headers, body


def _response_bytes(
    status: int,
    body: bytes,
    content_type: str = "application/json",
    extra_headers: Optional[Dict[str, str]] = None,
    keep_alive: bool = True,
) -> bytes:
    reason = _REASONS.get(status, "Unknown")
    lines = [
        f"HTTP/1.1 {status} {reason}",
        f"Content-Type: {content_type}",
        f"Content-Length: {len(body)}",
        f"Connection: {'keep-alive' if keep_alive else 'close'}",
    ]
    for name, value in (extra_headers or {}).items():
        lines.append(f"{name}: {value}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body


def _json_body(payload: Dict[str, Any]) -> bytes:
    return (json.dumps(payload) + "\n").encode("utf-8")


#: A routed answer: HTTP status, encoded body, ``Retry-After`` hint.
_Answer = Tuple[int, bytes, Optional[float]]


def _answer(status: int, payload: Dict[str, Any]) -> _Answer:
    """A JSON answer built in the front door (no counts in it)."""
    return status, _json_body(payload), payload.get("retry_after")


class HttpFrontDoor:
    """The network face of a :class:`~repro.service.pool.WorkerPool`.

    ``port=0`` binds an ephemeral port (read it back from ``.port``
    after :meth:`start` — the tests and the closed-loop bench do).
    ``top`` caps emitted counts server-wide; a record's own ``"top"``
    field wins per request.
    """

    def __init__(
        self,
        pool: WorkerPool,
        host: str = "127.0.0.1",
        port: int = DEFAULT_PORT,
        top: Optional[int] = None,
        max_body_bytes: int = DEFAULT_MAX_BODY_BYTES,
        telemetry: Optional[_telemetry.Telemetry] = None,
        request_timeout: float = DEFAULT_REQUEST_TIMEOUT,
    ):
        self.pool = pool
        self.host = host
        self.port = port
        self.top = top
        self.max_body_bytes = max_body_bytes
        self.request_timeout = request_timeout
        self.telemetry = telemetry
        self._server: Optional[asyncio.base_events.Server] = None
        self._router = ThreadPoolExecutor(
            max_workers=2, thread_name_prefix="repro-router"
        )
        self._draining = False
        self._inflight = 0
        self._idle = asyncio.Event()
        self._idle.set()
        self._activation = None
        self.stats = {
            "http_requests": 0,
            "http_ok": 0,
            "http_shed": 0,
            "http_unavailable": 0,
            "http_client_errors": 0,
            "http_server_errors": 0,
        }

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> "HttpFrontDoor":
        """Bind and start accepting connections."""
        if self.telemetry is not None:
            self._activation = self.telemetry.activate()
            self._activation.__enter__()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        return self

    async def drain(self, pool_timeout: float = 60.0) -> bool:
        """Graceful shutdown: refuse new work, finish in-flight, drain pool."""
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        try:
            # In-flight requests are themselves bounded (reply timeouts
            # fail them with 503), but a bug must never turn SIGTERM
            # into a hang — give up on idleness after the drain budget.
            await asyncio.wait_for(
                self._idle.wait(), timeout=max(1.0, pool_timeout)
            )
        except asyncio.TimeoutError:
            pass
        loop = asyncio.get_running_loop()
        clean = await loop.run_in_executor(
            None, lambda: self.pool.drain(timeout=pool_timeout)
        )
        self._router.shutdown(wait=False)
        session = _telemetry.active()
        if session is not None:
            for name, value in self.stats.items():
                session.registry.gauge(f"service.{name}").set(value)
        if self._activation is not None:
            self._activation.__exit__(None, None, None)
            self._activation = None
        return clean

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                try:
                    parsed = await _read_request(reader, self.max_body_bytes)
                except _HttpError as error:
                    writer.write(
                        _response_bytes(
                            error.status,
                            _json_body({"error": str(error)}),
                            keep_alive=False,
                        )
                    )
                    await writer.drain()
                    break
                if parsed is None:
                    break
                method, path, headers, body = parsed
                keep_alive = (
                    headers.get("connection", "keep-alive").lower() != "close"
                )
                self._inflight += 1
                self._idle.clear()
                try:
                    status, answer, retry_after = await self._dispatch(
                        method, path, body
                    )
                finally:
                    self._inflight -= 1
                    if self._inflight == 0:
                        self._idle.set()
                extra = {}
                if status in (429, 503):
                    extra["Retry-After"] = str(
                        1 if retry_after is None else retry_after
                    )
                writer.write(
                    _response_bytes(
                        status,
                        answer,
                        extra_headers=extra,
                        keep_alive=keep_alive,
                    )
                )
                await writer.drain()
                if not keep_alive:
                    break
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # client went away mid-request; nothing to answer
        except Exception as error:  # pragma: no cover - last resort
            # Anything _dispatch's own catch-all missed (a parser bug,
            # a write failure dressed as something else) still owes the
            # client a response before the socket closes.
            try:
                writer.write(
                    _response_bytes(
                        500,
                        _json_body(
                            {"error": f"{type(error).__name__}: {error}"}
                        ),
                        keep_alive=False,
                    )
                )
                await writer.drain()
            except (ConnectionError, OSError):
                pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover
                pass

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------

    async def _dispatch(
        self, method: str, path: str, body: bytes
    ) -> _Answer:
        self.stats["http_requests"] += 1
        with _telemetry.span("service.http", method=method, path=path) as span:
            try:
                answer = await self._route(method, path, body)
            except PoolClosedError as error:
                # e.g. a drain-orphaned or dead-worker future surfacing
                # at an await the route handler did not wrap.
                answer = _answer(503, {
                    "status": "unavailable",
                    "error": str(error),
                    "retry_after": 5,
                })
            except Exception as error:
                # A handler bug answers 500 — never a silently dropped
                # connection that skews http_requests vs status buckets.
                answer = _answer(500, {
                    "status": "error",
                    "error": f"{type(error).__name__}: {error}",
                })
            status = answer[0]
            span.set_attr("status", status)
        bucket = (
            "http_ok"
            if status < 400
            else "http_shed"
            if status == 429
            else "http_unavailable"
            if status == 503
            else "http_client_errors"
            if status < 500
            else "http_server_errors"
        )
        self.stats[bucket] += 1
        session = _telemetry.active()
        if session is not None:
            session.registry.counter("service.http.requests").inc()
            session.registry.counter(f"service.http.status.{status}").inc()
        return answer

    async def _route(self, method: str, path: str, body: bytes) -> _Answer:
        path = path.split("?", 1)[0]
        if self._draining and path not in ("/healthz", "/stats"):
            return _answer(503, {
                "status": "unavailable",
                "error": "server is draining",
                "retry_after": 5,
            })
        if path == "/healthz":
            if method != "GET":
                return _answer(405, {"error": "healthz is GET-only"})
            draining = self._draining
            return _answer(503 if draining else 200, {
                "status": "draining" if draining else "ok",
                "workers": self.pool.num_workers,
                "workers_alive": self.pool.workers_alive(),
            })
        if path == "/stats":
            if method != "GET":
                return _answer(405, {"error": "stats is GET-only"})
            loop = asyncio.get_running_loop()
            # Default executor, not the router pool: stats collection
            # blocks on worker round-trips and must not starve sample
            # routing of its two threads.
            pool_stats = await loop.run_in_executor(None, self.pool.stats)
            return _answer(200, {"pool": pool_stats, "http": dict(self.stats)})
        if path == "/v1/sample":
            if method != "POST":
                return _answer(405, {"error": "sample is POST-only"})
            return await self._sample(body)
        if path == "/v1/batch":
            if method != "POST":
                return _answer(405, {"error": "batch is POST-only"})
            return await self._batch(body)
        return _answer(404, {"error": f"no route for {path!r}"})

    async def _submit(
        self, record: Dict[str, Any]
    ) -> "asyncio.Future[PoolReply]":
        """Route one record on the router thread pool; await-able result.

        Raises :class:`ValueError` for a ``top`` that is not a
        non-negative JSON integer or ``null`` (the callers answer
        ``rejected``); a boolean, a float or a string is not coerced.
        """
        top = record.get("top", self.top)
        if top is not None and type(top) is not int:
            raise ValueError(
                f"request field 'top' must be a JSON integer or null, got {top!r}"
            )
        loop = asyncio.get_running_loop()
        future = await loop.run_in_executor(
            self._router, self.pool.submit_record, record, top
        )
        return asyncio.wrap_future(future)

    def _reply_timeout(self, record: Dict[str, Any]) -> float:
        """How long to wait for a worker's reply to ``record``.

        A request with its own ``deadline_seconds`` gets that plus a
        grace margin (the worker enforces the deadline itself; the wait
        here only guards against the reply never arriving at all).
        """
        deadline = record.get("deadline_seconds")
        try:
            deadline = None if deadline is None else float(deadline)
        except (TypeError, ValueError):
            deadline = None
        if deadline is not None and deadline > 0:
            return deadline + 30.0
        return self.request_timeout

    async def _await_reply(
        self,
        pending: "asyncio.Future[PoolReply]",
        record: Dict[str, Any],
    ) -> _Answer:
        """Await a worker reply, bounded; the worker's body passes through.

        A ``deadline_exceeded`` body already carries ``retry_after``
        (:data:`~repro.service.pool.DEADLINE_RETRY_AFTER`), and the
        ``Retry-After`` header repeats it.
        """
        timeout = self._reply_timeout(record)
        try:
            reply = await asyncio.wait_for(pending, timeout=timeout)
        except PoolClosedError as error:
            # The worker died with the request pending, or the pool
            # drained out from under it — retryable, not the client's
            # fault.
            return _answer(503, {
                "status": "unavailable",
                "error": str(error),
                "retry_after": 5,
            })
        except asyncio.TimeoutError:
            return _answer(503, {
                "status": "unavailable",
                "error": f"no worker reply within {timeout:.0f}s",
                "retry_after": 5,
            })
        status = _STATUS_CODES.get(reply.status, 500)
        retry_after = DEADLINE_RETRY_AFTER if status == 503 else None
        return status, reply.body, retry_after

    async def _sample(self, body: bytes) -> _Answer:
        try:
            record = json.loads(body.decode("utf-8"))
            if not isinstance(record, dict):
                raise ValueError("request body must be a JSON object")
        except (ValueError, UnicodeDecodeError) as error:
            return _answer(400, {"status": "rejected", "error": str(error)})
        try:
            pending = await self._submit(record)
        except PoolSaturatedError as error:
            return _answer(429, {
                "status": "shed",
                "error": str(error),
                "retry_after": error.retry_after,
            })
        except PoolClosedError as error:
            return _answer(503, {
                "status": "unavailable",
                "error": str(error),
                "retry_after": 5,
            })
        except (ReproError, ValueError, TypeError, OSError) as error:
            # OSError: an allow-listed qasm_file that is missing or
            # unreadable — same 400 contract as any unresolvable spec.
            return _answer(400, {"status": "rejected", "error": str(error)})
        return await self._await_reply(pending, record)

    async def _batch(self, body: bytes) -> _Answer:
        try:
            lines = body.decode("utf-8").splitlines()
        except UnicodeDecodeError as error:
            return _answer(400, {"status": "rejected", "error": str(error)})
        slots: List[bytes] = []
        pending: List[
            Tuple[int, Dict[str, Any], "asyncio.Future[PoolReply]"]
        ] = []
        for number, line in enumerate(lines, start=1):
            line = line.strip()
            if not line:
                continue
            slot = len(slots)
            slots.append(b"")
            try:
                record = json.loads(line)
                if not isinstance(record, dict):
                    raise ValueError("request line must be a JSON object")
                pending.append((slot, record, await self._submit(record)))
            except PoolSaturatedError as error:
                slots[slot] = _json_body({
                    "status": "shed",
                    "error": f"line {number}: {error}",
                    "retry_after": error.retry_after,
                })
            except PoolClosedError as error:
                slots[slot] = _json_body({
                    "status": "unavailable",
                    "error": f"line {number}: {error}",
                })
            except (ReproError, ValueError, TypeError, OSError) as error:
                slots[slot] = _json_body({
                    "status": "rejected",
                    "error": f"line {number}: {error}",
                })
        for slot, record, future in pending:
            # Per-line failures stay per-line records — the batch
            # itself is always 200, even for a dead-worker reply.
            _status, slots[slot], _retry = await self._await_reply(
                future, record
            )
        return 200, b"".join(slots), None


# ---------------------------------------------------------------------------
# Blocking runner (the CLI's serve mode)
# ---------------------------------------------------------------------------


def serve_forever(
    pool: WorkerPool,
    host: str = "127.0.0.1",
    port: int = DEFAULT_PORT,
    top: Optional[int] = None,
    telemetry: Optional[_telemetry.Telemetry] = None,
    drain_timeout: float = 60.0,
    ready_message: bool = True,
) -> bool:
    """Serve until SIGTERM/SIGINT, then drain gracefully; ``True`` if clean."""

    async def run() -> bool:
        front = HttpFrontDoor(
            pool, host=host, port=port, top=top, telemetry=telemetry
        )
        await front.start()
        if ready_message:
            print(
                f"repro-serve: listening on http://{front.host}:{front.port} "
                f"({pool.num_workers} workers, "
                f"L2 cache {pool.config.cache_dir or 'disabled'})",
                file=sys.stderr,
                flush=True,
            )
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            loop.add_signal_handler(signum, stop.set)
        await stop.wait()
        if ready_message:
            print("repro-serve: draining...", file=sys.stderr, flush=True)
        clean = await front.drain(pool_timeout=drain_timeout)
        for signum in (signal.SIGTERM, signal.SIGINT):
            loop.remove_signal_handler(signum)
        return clean

    return asyncio.run(run())


# ---------------------------------------------------------------------------
# Minimal asyncio HTTP client (smoke, bench, examples)
# ---------------------------------------------------------------------------


async def http_request(
    host: str,
    port: int,
    method: str,
    path: str,
    body: Optional[bytes] = None,
    timeout: float = 120.0,
) -> Tuple[int, Dict[str, str], bytes]:
    """One HTTP/1.1 request over a fresh connection; (status, headers, body)."""
    reader, writer = await asyncio.wait_for(
        asyncio.open_connection(host, port), timeout=timeout
    )
    try:
        payload = body or b""
        head = (
            f"{method} {path} HTTP/1.1\r\n"
            f"Host: {host}:{port}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(payload)}\r\n"
            f"Connection: close\r\n\r\n"
        )
        writer.write(head.encode("latin-1") + payload)
        await writer.drain()
        status_line = await asyncio.wait_for(reader.readline(), timeout=timeout)
        parts = status_line.decode("latin-1").split(maxsplit=2)
        if len(parts) < 2 or not parts[0].startswith("HTTP/1."):
            raise ReproError(f"malformed HTTP status line {status_line!r}")
        status = int(parts[1])
        headers: Dict[str, str] = {}
        while True:
            line = await asyncio.wait_for(reader.readline(), timeout=timeout)
            text = line.decode("latin-1").strip()
            if not text:
                break
            name, _, value = text.partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0"))
        data = (
            await asyncio.wait_for(reader.readexactly(length), timeout=timeout)
            if length
            else b""
        )
        return status, headers, data
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):  # pragma: no cover
            pass


async def post_json(
    host: str,
    port: int,
    path: str,
    payload: Dict[str, Any],
    timeout: float = 120.0,
) -> Tuple[int, Dict[str, Any]]:
    """POST a JSON record; returns ``(status, parsed response body)``."""
    status, _headers, body = await http_request(
        host,
        port,
        "POST",
        path,
        body=json.dumps(payload).encode("utf-8"),
        timeout=timeout,
    )
    return status, json.loads(body.decode("utf-8")) if body else {}

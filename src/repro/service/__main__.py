"""``python -m repro.service``: batch JSONL sampling, or the HTTP server.

Batch mode (the default) reads one JSON request per line, answers with
one JSON response per line, in input order (schema in
``docs/serving.md``)::

    python -m repro.service --requests jobs.jsonl --out answers.jsonl \\
        --cache-dir ~/.cache/repro

``--serve`` starts the network front door instead: a consistent-hash
sharded multi-process worker pool behind an asyncio HTTP server
(endpoints in ``docs/serving.md``), draining gracefully on SIGTERM::

    python -m repro.service --serve --port 8766 --pool-workers 4 \\
        --cache-dir ~/.cache/repro

A request line names a circuit either inline (``{"qasm": "..."}``), by
file (``{"qasm_file": "bell.qasm"}`` — local batch mode only; the
network server rejects file specs unless ``--allow-qasm-file DIR``
allow-lists a directory), or by builtin name
(``"qft_16"``, ``"grover_8"``, ``"ghz_12"``, ``"bell"``,
``"supremacy_4x4_8"``)::

    {"request_id": "r1", "circuit": "qft_16", "shots": 100000, "seed": 7}

A malformed line produces a ``rejected`` response on its output line —
the batch never dies half-way.  ``--smoke`` runs the self-test used by
``make serve-smoke``: a cold pass and a warm pass over qft_16 and
grover_8 through a real JSONL round-trip, asserting that the warm pass
builds nothing and that both passes are bit-identical to
``simulate_and_sample`` at the same seed.  ``--net-smoke`` is the
network-tier equivalent (``make serve-net-smoke``): a real HTTP server
over a 2-worker pool, 50 concurrent mixed clients with a deliberately
tiny dispatch window, asserting bit-identity, one build per unique
circuit pool-wide, observed 429 shedding, and a clean drain.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from typing import Any, Dict, List, Optional, TextIO

from ..cli import non_negative_int
from ..exceptions import ReproError
from .api import SamplingRequest, SamplingResponse, SamplingService, resolve_circuit

__all__ = ["main", "resolve_circuit", "run_batch"]


def run_batch(
    service: SamplingService,
    source: TextIO,
    sink: TextIO,
    top: Optional[int] = None,
) -> int:
    """Stream JSONL requests through ``service``; returns the error count.

    Each line is decoded by :meth:`SamplingRequest.from_record` and
    responses are written in input order, each encoded by
    :meth:`SamplingResponse.to_json_bytes`.  Lines that fail to parse or
    resolve become ``rejected`` response records instead of killing the
    batch; the return value counts every non-``ok`` response.  A
    negative ``top`` raises :class:`ValueError` before any request is
    read.
    """
    if top is not None and top < 0:
        raise ValueError(f"top must be non-negative, got {top}")
    slots: List[Optional[SamplingResponse]] = []
    futures = []
    for line_number, line in enumerate(source, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
            if not isinstance(record, dict):
                raise ReproError("request line must be a JSON object")
            request = SamplingRequest.from_record(record)
        except (ValueError, ReproError, OSError) as error:
            slots.append(
                SamplingResponse(
                    request_id=None,
                    status="rejected",
                    error=f"line {line_number}: {error}",
                )
            )
            continue
        slot = len(slots)
        slots.append(None)
        futures.append((slot, service.submit(request)))
    for slot, future in futures:
        slots[slot] = future.result()
    failures = 0
    for response in slots:
        assert response is not None
        if not response.ok:
            failures += 1
        sink.write(response.to_json_bytes(top=top).decode("ascii"))
    sink.flush()
    return failures


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description="Batch weak-simulation sampling: JSONL requests in, "
        "JSONL responses out, compiled artifacts cached on disk.",
    )
    parser.add_argument(
        "--requests",
        metavar="FILE",
        default="-",
        help="JSONL request file ('-' for stdin, the default)",
    )
    parser.add_argument(
        "--out",
        metavar="FILE",
        default="-",
        help="JSONL response file ('-' for stdout, the default)",
    )
    parser.add_argument(
        "--cache-dir",
        metavar="DIR",
        default=None,
        help="persistent artifact cache directory (omit to run uncached)",
    )
    parser.add_argument(
        "--max-cache-bytes",
        type=int,
        default=None,
        metavar="N",
        help="size budget for the artifact cache (LRU-evicted beyond it)",
    )
    parser.add_argument(
        "--request-workers",
        type=int,
        default=4,
        metavar="N",
        help="concurrent request slots (default 4)",
    )
    parser.add_argument(
        "--build-workers",
        type=int,
        default=2,
        metavar="N",
        help="concurrent strong-simulation builds (default 2)",
    )
    parser.add_argument(
        "--top",
        type=non_negative_int,
        default=None,
        metavar="N",
        help="emit only the N most frequent outcomes per response (N >= 0)",
    )
    parser.add_argument(
        "--stats",
        action="store_true",
        help="print service/cache counters to stderr when done",
    )
    parser.add_argument(
        "--trace",
        metavar="FILE",
        help="write a telemetry trace of the batch as JSONL to FILE",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="run the cold/warm self-test (used by 'make serve-smoke')",
    )
    serving = parser.add_argument_group("network serving")
    serving.add_argument(
        "--serve",
        action="store_true",
        help="run the HTTP front door over a sharded worker pool instead "
        "of a JSONL batch (drains gracefully on SIGTERM)",
    )
    serving.add_argument(
        "--host",
        default="127.0.0.1",
        help="bind address for --serve (default 127.0.0.1)",
    )
    serving.add_argument(
        "--port",
        type=int,
        default=None,
        metavar="N",
        help="bind port for --serve (default 8766; 0 picks a free port)",
    )
    serving.add_argument(
        "--pool-workers",
        type=int,
        default=2,
        metavar="N",
        help="worker processes in the sharded pool (default 2)",
    )
    serving.add_argument(
        "--max-queue-depth",
        type=int,
        default=None,
        metavar="N",
        help="outstanding requests per worker before new arrivals are "
        "shed as HTTP 429 (default 32)",
    )
    serving.add_argument(
        "--allow-qasm-file",
        metavar="DIR",
        default=None,
        help="permit {\"qasm_file\": ...} circuit specs under DIR in "
        "--serve mode; by default they are rejected over the network, "
        "since they make the server open a client-chosen local path",
    )
    serving.add_argument(
        "--drain-timeout",
        type=float,
        default=60.0,
        metavar="SECONDS",
        help="bound on the graceful drain after SIGTERM (default 60)",
    )
    serving.add_argument(
        "--net-smoke",
        action="store_true",
        help="run the HTTP/pool self-test (used by 'make serve-net-smoke')",
    )
    return parser


def _smoke(cache_dir: Optional[str]) -> int:
    """Cold pass, warm pass, bit-identity: the serve-smoke gate."""
    from ..core.weak_sim import simulate_and_sample
    from ..telemetry import Telemetry

    cases = [
        {"request_id": "qft_16", "circuit": "qft_16", "shots": 100000, "seed": 7},
        {"request_id": "grover_8", "circuit": "grover_8", "shots": 20000, "seed": 11},
    ]
    references = {
        case["request_id"]: simulate_and_sample(
            resolve_circuit(case["circuit"]),
            case["shots"],
            method="dd",
            seed=case["seed"],
        ).counts
        for case in cases
    }

    def one_pass(directory: str, label: str) -> Dict[str, Any]:
        request_lines = "".join(json.dumps(case) + "\n" for case in cases)
        telemetry = Telemetry()
        with SamplingService(cache_dir=directory, telemetry=telemetry) as service:
            source = _io_stringio(request_lines)
            sink = _io_stringio("")
            failures = run_batch(service, source, sink)
            stats = service.stats()
        responses = [
            json.loads(line) for line in sink.getvalue().splitlines() if line
        ]
        build_spans = [
            span for span in telemetry.tracer.spans if span.name == "build"
        ]
        counters = telemetry.registry.snapshot()["counters"]
        if failures:
            raise ReproError(f"{label} pass had {failures} failed responses")
        for response in responses:
            expected = references[response["request_id"]]
            width = response["num_qubits"]
            got = {int(k, 2): v for k, v in response["counts"].items()}
            if got != expected:
                raise ReproError(
                    f"{label} pass: {response['request_id']} counts differ "
                    "from simulate_and_sample at the same seed"
                )
            if len(format(max(expected), "b")) > width:
                raise ReproError("response num_qubits narrower than counts")
        return {
            "builds": stats["builds"],
            "build_spans": len(build_spans),
            "cache_hits": counters.get("service.cache.hits", 0),
            "responses": responses,
        }

    def check(condition: bool, message: str) -> None:
        if not condition:
            raise ReproError(f"serve-smoke: {message}")

    with tempfile.TemporaryDirectory() as tmp:
        directory = cache_dir or tmp
        cold = one_pass(directory, "cold")
        check(cold["builds"] == len(cases), "cold pass must build every case")
        check(cold["build_spans"] >= len(cases), "cold pass must trace builds")
        warm = one_pass(directory, "warm")
        check(warm["builds"] == 0, "warm pass must not build")
        check(warm["build_spans"] == 0, "warm pass must not trace builds")
        check(
            warm["cache_hits"] == len(cases),
            "warm pass must answer every case from the cache",
        )
        for response in warm["responses"]:
            check(
                response["cache"] in ("disk", "memory"),
                f"warm response {response['request_id']} not from cache",
            )
    print(
        "serve-smoke ok: "
        f"{len(cases)} circuits, cold builds={cold['builds']}, "
        f"warm builds={warm['builds']}, warm cache hits={warm['cache_hits']}, "
        "bit-identical to weak_sim"
    )
    return 0


def _io_stringio(initial: str):
    import io

    buffer = io.StringIO(initial)
    buffer.seek(0)
    return buffer


def _net_smoke(cache_dir: Optional[str]) -> int:
    """HTTP + pool self-test: the serve-net-smoke gate.

    Starts a real server (ephemeral port) over a 2-worker pool with a
    deliberately tiny dispatch window, fires 50 concurrent mixed
    clients that retry on 429/503, and asserts:

    * every request eventually answers ``ok`` with counts bit-identical
      to :func:`simulate_and_sample` at the same seed,
    * each circuit is served by exactly one worker (shard routing) and
      built exactly once pool-wide (L1/L2 reuse),
    * at least one request was shed as 429 (the window is sized so the
      50-client cold burst must overflow it),
    * the drain is clean and every worker exits with code 0.
    """
    import asyncio

    from ..core.weak_sim import simulate_and_sample
    from .net import HttpFrontDoor, http_request, post_json
    from .pool import PoolConfig, WorkerPool

    cases = [
        {"request_id": "qft_16", "circuit": "qft_16", "shots": 20000, "seed": 7},
        {"request_id": "grover_8", "circuit": "grover_8", "shots": 10000, "seed": 11},
        {"request_id": "ghz_20", "circuit": "ghz_20", "shots": 10000, "seed": 3},
    ]
    clients = 50
    references = {
        case["request_id"]: simulate_and_sample(
            resolve_circuit(case["circuit"]),
            case["shots"],
            method="dd",
            seed=case["seed"],
        ).counts
        for case in cases
    }

    def check(condition: bool, message: str) -> None:
        if not condition:
            raise ReproError(f"serve-net-smoke: {message}")

    async def run(pool: WorkerPool) -> Dict[str, Any]:
        front = HttpFrontDoor(pool, port=0)
        await front.start()
        status, _headers, body = await http_request(
            front.host, front.port, "GET", "/healthz"
        )
        check(status == 200, f"healthz answered {status}, expected 200")
        retries = 0

        async def client(slot: int) -> Any:
            nonlocal retries
            case = cases[slot % len(cases)]
            record = dict(case)
            record["request_id"] = f"{case['request_id']}#{slot}"
            for _attempt in range(600):
                status, payload = await post_json(
                    front.host, front.port, "/v1/sample", record
                )
                if status == 200:
                    return case["request_id"], payload
                if status in (429, 503):
                    # The shed path the window exists to exercise:
                    # back off a beat, then retry into the warm cache.
                    retries += 1
                    await asyncio.sleep(0.05)
                    continue
                raise ReproError(
                    f"serve-net-smoke: HTTP {status} for "
                    f"{record['request_id']}: {payload}"
                )
            raise ReproError(
                f"serve-net-smoke: {record['request_id']} never admitted"
            )

        answers = await asyncio.gather(*(client(i) for i in range(clients)))
        status, _headers, body = await http_request(
            front.host, front.port, "GET", "/stats"
        )
        check(status == 200, f"stats answered {status}, expected 200")
        stats = json.loads(body.decode("utf-8"))
        clean = await front.drain(pool_timeout=60.0)
        return {"answers": answers, "stats": stats, "clean": clean,
                "retries": retries}

    with tempfile.TemporaryDirectory() as tmp:
        directory = cache_dir or tmp
        pool = WorkerPool(
            workers=2,
            config=PoolConfig(cache_dir=directory, request_workers=2),
            max_queue_depth=4,
        )
        pool.start()
        try:
            outcome = asyncio.run(run(pool))
        finally:
            pool.close()

    check(len(outcome["answers"]) == clients, "lost client responses")
    served_by: Dict[str, set] = {}
    for case_id, payload in outcome["answers"]:
        check(
            payload.get("status") == "ok",
            f"{case_id} answered status {payload.get('status')!r}",
        )
        got = {int(k, 2): v for k, v in payload["counts"].items()}
        check(
            got == references[case_id],
            f"{case_id} counts differ from simulate_and_sample "
            "at the same seed",
        )
        served_by.setdefault(case_id, set()).add(payload.get("worker"))
    for case_id, workers in served_by.items():
        check(
            len(workers) == 1,
            f"{case_id} was served by workers {sorted(workers)}; shard "
            "routing must pin each circuit to one worker",
        )
    pool_stats = outcome["stats"]["pool"]
    check(
        pool_stats["totals"].get("builds") == len(cases),
        f"pool built {pool_stats['totals'].get('builds')} artifacts for "
        f"{len(cases)} unique circuits (must be exactly one each)",
    )
    check(
        pool_stats["shed"] >= 1 and outcome["retries"] >= 1,
        "the 50-client cold burst never overflowed the dispatch window; "
        "shedding path untested",
    )
    check(outcome["clean"], "drain was not clean")
    codes = pool.exit_codes()
    check(
        all(code == 0 for code in codes),
        f"worker exit codes {codes}; expected all 0",
    )
    print(
        "serve-net-smoke ok: "
        f"{clients} clients over {len(cases)} circuits, "
        f"builds={pool_stats['totals']['builds']}, "
        f"shed={pool_stats['shed']}, retries={outcome['retries']}, "
        "bit-identical to weak_sim, clean drain"
    )
    return 0


def _serve(args: argparse.Namespace) -> int:
    """The CLI's ``--serve`` mode: pool + front door until SIGTERM."""
    from .net import DEFAULT_PORT, serve_forever
    from .pool import DEFAULT_MAX_QUEUE_DEPTH, PoolConfig, WorkerPool

    session = None
    if args.trace:
        from ..telemetry import Telemetry

        session = Telemetry()
    config_kwargs: Dict[str, Any] = {
        "cache_dir": args.cache_dir,
        "request_workers": args.request_workers,
        "build_workers": args.build_workers,
        "qasm_file_root": args.allow_qasm_file,
    }
    if args.max_cache_bytes is not None:
        config_kwargs["max_cache_bytes"] = args.max_cache_bytes
    pool = WorkerPool(
        workers=args.pool_workers,
        config=PoolConfig(**config_kwargs),
        max_queue_depth=(
            DEFAULT_MAX_QUEUE_DEPTH
            if args.max_queue_depth is None
            else args.max_queue_depth
        ),
    )
    pool.start()
    try:
        clean = serve_forever(
            pool,
            host=args.host,
            port=DEFAULT_PORT if args.port is None else args.port,
            top=args.top,
            telemetry=session,
            drain_timeout=args.drain_timeout,
        )
    finally:
        pool.close()
    if args.stats:
        print(
            json.dumps(
                pool.stats(include_workers=False), indent=2, sort_keys=True
            ),
            file=sys.stderr,
        )
    if session is not None:
        try:
            records = session.export(args.trace)
        except OSError as error:
            print(f"error: cannot write {args.trace}: {error}", file=sys.stderr)
            return 2
        print(f"trace: {records} records -> {args.trace}", file=sys.stderr)
    return 0 if clean else 1


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point for ``python -m repro.service``; returns the exit code."""
    args = _build_parser().parse_args(argv)
    if args.smoke:
        try:
            return _smoke(args.cache_dir)
        except ReproError as error:
            print(f"error: {error}", file=sys.stderr)
            return 1
    if args.net_smoke:
        try:
            return _net_smoke(args.cache_dir)
        except ReproError as error:
            print(f"error: {error}", file=sys.stderr)
            return 1
    if args.serve:
        return _serve(args)

    session = None
    if args.trace:
        from ..telemetry import Telemetry

        session = Telemetry()

    service_kwargs: Dict[str, Any] = {
        "cache_dir": args.cache_dir,
        "build_workers": args.build_workers,
        "request_workers": args.request_workers,
        "telemetry": session,
    }
    if args.max_cache_bytes is not None:
        service_kwargs["max_cache_bytes"] = args.max_cache_bytes

    try:
        source = (
            sys.stdin
            if args.requests == "-"
            else open(args.requests, "r", encoding="utf-8")
        )
    except OSError as error:
        print(f"error: cannot read {args.requests}: {error}", file=sys.stderr)
        return 2
    try:
        sink = (
            sys.stdout
            if args.out == "-"
            else open(args.out, "w", encoding="utf-8")
        )
    except OSError as error:
        print(f"error: cannot write {args.out}: {error}", file=sys.stderr)
        if source is not sys.stdin:
            source.close()
        return 2

    try:
        with SamplingService(**service_kwargs) as service:
            failures = run_batch(service, source, sink, top=args.top)
            stats = service.stats()
    finally:
        if source is not sys.stdin:
            source.close()
        if sink is not sys.stdout:
            sink.close()

    if args.stats:
        print(json.dumps(stats, indent=2, sort_keys=True), file=sys.stderr)
    if session is not None:
        try:
            records = session.export(args.trace)
        except OSError as error:
            print(f"error: cannot write {args.trace}: {error}", file=sys.stderr)
            return 2
        print(
            f"trace: {records} records -> {args.trace}",
            file=sys.stderr,
        )
    return 1 if failures else 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())

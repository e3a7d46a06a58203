"""The repository benchmark: HTTP time-to-counts on three workloads.

Run from the repository root::

    python3 perfbench/run.py --workload serve_hot --seed 1 --seconds 20 --trace 0

Each run starts ``python -m repro.service --serve --pool-workers 2`` as a
subprocess with a fresh cache directory and drives it from this one
asyncio process in a **closed loop over 2 connections**: each
connection sends its next request only when the previous answer has
arrived.  Closed, because the callers this service has (an XEB script,
a parameter sweep) wait for counts before sending the next circuit;
two connections, to match the two pool workers.

Workloads (generators and the reasons for them in ``workloads.py``):

``serve_hot``       six circuits warmed into memory, 100k-shot requests.
``serve_cold``      distinct circuits at 1k shots, every request builds;
                    then the same stream replayed from the disk tier.
``serve_features``  noisy, approximate, reordered and mid-circuit-
                    measurement circuits (the python-engine paths).

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` runs the same HTTP loop for the server-side counters,
then replays the same requests in-process with a span around every
layer call (``replay.py``) and reports per-layer metrics; the trace is
written to ``.perfbench/trace-<workload>.jsonl`` and renders with
``python -m repro.telemetry.report``.

Every answer is checked (``checks.py``); a wrong answer, a non-200
reply or a non-``ok`` status counts as a failed operation.  The tier
each workload targets is asserted from the responses and ``/stats``.
The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import shutil
import signal
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Server start-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 5
#: Closed-loop client connections (one per pool worker).
CONNECTIONS = 2
#: ``serve_cold`` spends this share of ``--seconds`` building, then
#: replays what it built from the disk tier.
COLD_BUILD_SHARE = 0.8
#: Fewest distinct circuits ``serve_cold`` builds before its replay.
#: Each worker keeps 8 artifacts in memory; with this many circuits
#: spread over two workers, every artifact has left memory by the time
#: its replay arrives, so each replay is a store read.
COLD_MIN_BUILDS = 48

@dataclass
class Exchange:
    """One request sent and the raw answer received."""

    request: Any
    request_id: str
    phase: str  # "main", or "disk" for the serve_cold replay
    status: int
    body: bytes
    latency: float
    #: For a "disk" exchange, the request id of the build it replays.
    origin: Optional[str] = None


@dataclass
class Verdict:
    """What the checks made of one exchange."""

    exchange: Exchange
    failure: Optional[str]
    tier: Optional[str]
    digest: Optional[str]
    server_seconds: float


def _percentile(values: List[float], q: float) -> float:
    import numpy as np

    return float(np.percentile(values, q)) if values else 0.0


def _numbered(requests: Iterator[Any]) -> Iterator[Tuple[Any, str, None]]:
    for index, request in enumerate(requests):
        yield request, f"r{index}", None


async def closed_loop(
    server: Any,
    source: Iterator[Tuple[Any, str, Optional[str]]],
    done: Callable[[int], bool],
    phase: str,
) -> List[Exchange]:
    """Drive ``source`` over ``CONNECTIONS`` keep-alive connections.

    ``source`` yields ``(request, request_id, origin)``; ``done(issued)``
    is asked before each send, and the loop also ends when ``source``
    runs dry.
    """
    from serve import Connection, ServerError

    exchanges: List[Exchange] = []
    issued = 0

    async def client() -> None:
        nonlocal issued
        connection = Connection(server.host, server.port)
        try:
            while not done(issued):
                item = next(source, None)
                if item is None:
                    return
                issued += 1
                request, request_id, origin = item
                body = request.body(request_id)
                start = time.perf_counter()
                try:
                    status, data = await connection.request("POST", "/v1/sample", body)
                except (ConnectionError, asyncio.IncompleteReadError, ServerError):
                    await connection.close()
                    status, data = 0, b""
                exchanges.append(
                    Exchange(
                        request, request_id, phase, status, data,
                        time.perf_counter() - start, origin,
                    )
                )
        finally:
            await connection.close()

    await asyncio.gather(*(client() for _ in range(CONNECTIONS)))
    return exchanges


async def _warm(server: Any, requests: List[Any]) -> None:
    """Answer ``requests`` once each (``serve_hot`` set-up)."""
    from serve import Connection, ServerError
    from checks import decode

    connection = await Connection(server.host, server.port).open()
    try:
        for index, request in enumerate(requests):
            status, body = await connection.request(
                "POST", "/v1/sample", request.body(f"warm{index}")
            )
            if status != 200 or decode(body).get("status") != "ok":
                raise ServerError(f"warm-up of {request.family} answered HTTP {status}")
    finally:
        await connection.close()


async def drive(
    workload: str, seed: int, seconds: float, run_dir: Path
) -> Dict[str, Any]:
    """Set up the server, run the closed loop, and return the raw outcome."""
    from serve import Server
    from workloads import stream, warmup_requests

    requests = stream(workload, seed)
    warm = warmup_requests(workload)
    setup_times: List[float] = []
    server: Optional[Server] = None
    try:
        for attempt in range(SETUP_REPEATS):
            if server is not None:
                await server.stop()
            server = Server(ROOT, run_dir / f"cache-{attempt}")
            start = time.perf_counter()
            await server.start()
            await _warm(server, warm)
            setup_times.append(time.perf_counter() - start)
        assert server is not None
        before = await server.stats()
        start = time.perf_counter()
        if workload == "serve_cold":
            deadline = start + COLD_BUILD_SHARE * seconds
            main = await closed_loop(
                server,
                _numbered(requests),
                lambda issued: issued >= COLD_MIN_BUILDS and time.perf_counter() >= deadline,
                "main",
            )
            # The same requests, same seeds, in the same order: each
            # answer must now come from the ArtifactStore and match the
            # built answer bit for bit.
            replay = iter(
                [(ex.request, ex.request_id + "-disk", ex.request_id) for ex in main]
            )
            disk = await closed_loop(server, replay, lambda issued: False, "disk")
        else:
            deadline = start + seconds
            main = await closed_loop(
                server,
                _numbered(requests),
                lambda issued: time.perf_counter() >= deadline,
                "main",
            )
            disk = []
        elapsed = time.perf_counter() - start
        after = await server.stats()
        peak_rss = server.peak_rss_mb()
    finally:
        if server is not None:
            await server.stop()
    return {
        "setup_times": setup_times,
        "exchanges": main + disk,
        "elapsed": elapsed,
        "before": before,
        "after": after,
        "peak_rss_mb": peak_rss,
    }


def judge(exchanges: List[Exchange]) -> List[Verdict]:
    """Check every answer; frees each response body once judged."""
    from checks import (
        References,
        check_answer,
        counts_digest,
        decode,
        parse_counts,
        probe_counts,
    )
    from workloads import first_of_each

    references = References()
    verdicts: List[Verdict] = []
    built: Dict[str, Optional[str]] = {}
    for exchange in exchanges:
        failure: Optional[str] = None
        tier = digest = None
        server_seconds = 0.0
        if exchange.status != 200:
            failure = f"HTTP {exchange.status}"
        else:
            payload = decode(exchange.body)
            counts = parse_counts(payload)
            tier = payload.get("cache")
            digest = counts_digest(counts)
            server_seconds = float(payload.get("build_seconds") or 0.0) + float(
                payload.get("sampling_seconds") or 0.0
            )
            failure = check_answer(exchange.request, payload, counts, references)
        if exchange.origin is not None and failure is None:
            if digest != built.get(exchange.origin):
                failure = "disk-tier answer differs from the built answer"
        if exchange.phase == "main":
            built[exchange.request_id] = digest
        exchange.body = b""
        verdicts.append(Verdict(exchange, failure, tier, digest, server_seconds))
    main = [v for v in verdicts if v.exchange.phase == "main"]
    by_request = {id(v.exchange.request): v for v in main}
    for request in first_of_each([v.exchange.request for v in main]):
        verdict = by_request[id(request)]
        if verdict.failure is None and counts_digest(probe_counts(request)) != verdict.digest:
            verdict.failure = "not bit-identical to the in-process library at equal seed"
    return verdicts


def tier_violations(
    workload: str, verdicts: List[Verdict], before: Dict[str, Any], after: Dict[str, Any]
) -> List[str]:
    """Where the run did not exercise the tier its workload is built for."""
    problems: List[str] = []
    builds = int(after["totals"].get("builds", 0)) - int(before["totals"].get("builds", 0))
    answered = [v for v in verdicts if v.tier is not None]

    def expect(phase: str, tier_of: Callable[[Any], str]) -> None:
        wrong = [
            v for v in answered
            if v.exchange.phase == phase and v.tier != tier_of(v.exchange.request)
        ]
        if wrong:
            problems.append(
                f"{len(wrong)} {phase} answers not from the expected tier "
                f"(first: {wrong[0].exchange.request.family} from {wrong[0].tier})"
            )

    main = [v for v in verdicts if v.exchange.phase == "main"]
    if workload == "serve_hot":
        expect("main", lambda request: "memory")
        expected_builds = 0
    elif workload == "serve_cold":
        expect("main", lambda request: "built")
        expect("disk", lambda request: "disk")
        expected_builds = len({v.exchange.request.identity for v in main})
    else:
        expect("main", lambda request: "bypass" if request.kind == "mcm" else "built")
        expected_builds = sum(1 for v in main if v.exchange.request.kind != "mcm")
    if builds != expected_builds:
        problems.append(f"scheduler built {builds} artifacts, expected {expected_builds}")
    return problems


def end_to_end(outcome: Dict[str, Any], verdicts: List[Verdict]) -> Dict[str, float]:
    """The end-to-end metrics of one run."""
    ok = [v for v in verdicts if v.failure is None]
    main_latencies = [1e3 * v.exchange.latency for v in ok if v.exchange.phase == "main"]
    elapsed = outcome["elapsed"]
    return {
        "setup_s": statistics.median(outcome["setup_times"]),
        "requests_per_s": len(ok) / elapsed,
        "shots_per_s": sum(v.exchange.request.shots for v in ok) / elapsed,
        "latency_p50_ms": _percentile(main_latencies, 50),
        "latency_p95_ms": _percentile(main_latencies, 95),
        "peak_rss_mb": outcome["peak_rss_mb"],
    }


def server_side(outcome: Dict[str, Any], verdicts: List[Verdict]) -> Dict[str, float]:
    """Per-layer metrics read from the HTTP run: dispatch, tiers, disk latency."""
    ok = [v for v in verdicts if v.failure is None]
    dispatch = [1e3 * (v.exchange.latency - v.server_seconds) for v in ok]
    disk = [1e3 * v.exchange.latency for v in ok if v.exchange.phase == "disk"]
    before, after = outcome["before"], outcome["after"]
    tiers = {
        tier: int(after.get(f"shard_{tier}", 0)) - int(before.get(f"shard_{tier}", 0))
        for tier in ("memory_hits", "disk_hits", "builds")
    }
    answered = sum(tiers.values())
    return {
        "net.dispatch_ms": statistics.median(dispatch) if dispatch else 0.0,
        "scheduler.builds": int(after["totals"].get("builds", 0)),
        "pool.memory_hit_ratio": tiers["memory_hits"] / answered if answered else 0.0,
        "store.disk_latency_p50_ms": _percentile(disk, 50),
        "store.disk_latency_p95_ms": _percentile(disk, 95),
    }


def traced_replay(
    workload: str, verdicts: List[Verdict], seconds: float, run_dir: Path
) -> Tuple[Dict[str, float], int, List[str], Path]:
    """Replay the run's answered requests through the layers, traced."""
    from replay import Replay
    from workloads import warmup_requests

    replay = Replay(run_dir / "replay-store")
    for request in warmup_requests(workload):
        replay.warm(request)
    answered = [v for v in verdicts if v.tier is not None]
    main = [v for v in answered if v.exchange.phase == "main"]
    start = time.perf_counter()
    share = COLD_BUILD_SHARE if workload == "serve_cold" else 1.0
    done = set()
    for verdict in main:
        if time.perf_counter() - start >= share * seconds:
            break
        replay.run(_item(verdict))
        done.add(verdict.exchange.request_id)
    for verdict in answered:
        if verdict.exchange.origin in done:
            replay.run(_item(verdict))
    metrics = replay.layer_metrics()
    path = ROOT / ".perfbench" / f"trace-{workload}.jsonl"
    path.parent.mkdir(parents=True, exist_ok=True)
    replay.write(path, metrics)
    return metrics, replay.requests, replay.mismatches, path


def _item(verdict: Verdict):
    from replay import ReplayItem

    exchange = verdict.exchange
    return ReplayItem(exchange.request, exchange.request_id, verdict.tier, verdict.digest)


def _units(section: str) -> Dict[str, str]:
    """Metric name to unit, for one section of ``BENCHMARK.json``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in spec[section]}


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="perfbench/run.py",
        description="HTTP time-to-counts benchmark of python -m repro.service --serve.",
    )
    parser.add_argument(
        "--workload", required=True,
        choices=("serve_hot", "serve_cold", "serve_features"),
    )
    parser.add_argument("--seed", type=int, default=0, help="request-generator seed")
    parser.add_argument("--seconds", type=float, default=20.0, help="measured seconds")
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), default=0,
        help="1: per-layer metrics from a traced in-process replay",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Run one workload and print its metrics; the last line is JSON."""
    args = _parser().parse_args(argv)
    # SIGTERM unwinds like an exception, so the server is always stopped.
    signal.signal(signal.SIGTERM, _terminate)
    if not (ROOT / "src" / "repro" / "service" / "__main__.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    run_dir = ROOT / ".perfbench" / f"run-{args.workload}-{time.time_ns()}"
    run_dir.mkdir(parents=True)
    try:
        outcome = asyncio.run(drive(args.workload, args.seed, args.seconds, run_dir))
        verdicts = judge(outcome["exchanges"])
        violations = tier_violations(
            args.workload, verdicts, outcome["before"], outcome["after"]
        )
        attempted = len(verdicts)
        failed = sum(1 for v in verdicts if v.failure is not None)
        if args.trace:
            metrics = server_side(outcome, verdicts)
            layer, replayed, mismatches, trace_path = traced_replay(
                args.workload, verdicts, args.seconds, run_dir
            )
            metrics.update(layer)
            attempted += replayed
            failed += len(mismatches)
            units = _units("per_layer")
        else:
            metrics = end_to_end(outcome, verdicts)
            units = _units("end_to_end")
            trace_path = None
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    _report(args, outcome, verdicts, violations, attempted, failed, metrics, units, trace_path)
    result = {
        "correct": failed == 0 and not violations,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit} for name, unit in units.items()
        },
    }
    print(json.dumps(result))
    return 0


def _terminate(signum: int, _frame: Any) -> None:
    raise SystemExit(128 + signum)


def _report(args, outcome, verdicts, violations, attempted, failed, metrics, units, trace_path):
    """Human-readable lines: every metric by name and unit, then the checks."""
    ok = [v for v in verdicts if v.failure is None]
    disk = [1e3 * v.exchange.latency for v in ok if v.exchange.phase == "disk"]
    print(
        f"workload {args.workload}  seed {args.seed}  {len(verdicts)} requests "
        f"in {outcome['elapsed']:.2f} s over {CONNECTIONS} connections (closed loop)"
    )
    for name, unit in units.items():
        print(f"  {name:<28} {metrics[name]:>14.6g} {unit}")
    print(f"  {'error_rate':<28} {failed / attempted if attempted else 0.0:>14.6g} ratio")
    setups = " ".join(f"{t:.3f}" for t in outcome["setup_times"])
    print(f"  set-ups (s): {setups}")
    if disk and not args.trace:
        print(f"  {'disk_latency_p50_ms':<28} {_percentile(disk, 50):>14.6g} ms")
        print(f"  {'disk_latency_p95_ms':<28} {_percentile(disk, 95):>14.6g} ms")
    for verdict in verdicts:
        if verdict.failure is not None:
            print(f"  FAILED {verdict.exchange.request_id} ({verdict.exchange.request.family}): {verdict.failure}")
    for problem in violations:
        print(f"  TIER {problem}")
    if trace_path is not None:
        print(f"  trace: {trace_path.relative_to(ROOT)}")


if __name__ == "__main__":
    sys.exit(main())

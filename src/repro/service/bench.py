"""Serving-performance harness: emits ``BENCH_serving.json``.

Measures the economics the service exists for — a build paid once, then
answered from cache:

* **cold vs warm latency** — per case, the first request on an empty
  cache (strong simulation + flatten + store) against the first request
  of a *fresh service instance* over the same cache directory (disk
  load + sample, the cross-process warm start) and a repeat request on
  a live service (hot in-memory artifact).  Each latency is split into
  its **startup** component (everything before sampling: build or
  artifact load) and the sampling itself, which is identical work in
  both regimes; ``warm_speedup`` is the startup ratio — the latency the
  cache actually removes — while ``end_to_end_speedup`` reports the
  whole-request ratio, which approaches the startup ratio as builds get
  more expensive relative to the shot count,
* **kernel on/off cold builds** — the cold request is additionally run
  with the python reference engine (``kernel="python"``) on a separate
  cache directory; the startup ratio is the cold-build speedup the SoA
  vector kernel delivers *through the service*, and the stored
  artifact's metadata must record which engine built it,
* **concurrent throughput** — N simultaneous clients asking for the
  same circuit must coalesce onto exactly one build and all receive
  bit-identical results,
* **bit-identity** — every response, cold (either engine) or warm, is
  compared against ``simulate_and_sample`` at the same seed,
* **closed-loop network serving** (version 3) — a real
  :class:`~repro.service.net.HttpFrontDoor` over a real
  :class:`~repro.service.pool.WorkerPool`, driven by N concurrent
  HTTP clients round-robining a mixed workload (qft_16 / grover_8 /
  ghz_20) for a fixed duration after an untimed warmup.  Reports
  sustained shots/sec, request rate, p50/p95/p99 latency, the
  shard-locality hit rate (fraction of post-warmup answers served from
  the owning worker's in-process L1), pool-wide build count (must be
  one per unique circuit regardless of worker count), and a
  bit-identity spot check per circuit.  Run once with 1 worker and once
  with several; the ``scaling`` entry records both throughputs plus
  ``cpu_count`` — worker scaling is only physically possible with the
  cores to back it, so the validation gate on the speedup is
  CPU-aware (see :func:`validate_payload`).

Run it with::

    python -m repro.service.bench --out BENCH_serving.json
    python -m repro.service.bench --smoke        # toy sizes, seconds
    python -m repro.service.bench --validate BENCH_serving.json

Validation enforces the headline acceptance bar: warm-start latency at
least ``WARM_SPEEDUP_FLOOR``× better than cold (full sizes only — toy
smoke circuits build too fast for the ratio to be meaningful), one
build under concurrency, universal bit-identity, a ≥90% shard-locality
hit rate for the multi-worker serving run, and — on machines with at
least 4 cores — a ≥2.5× multi-worker throughput gain over 1 worker.
On fewer cores the workers time-slice one CPU, so the gate degrades to
a sanity bound; the measured numbers are recorded either way, never
extrapolated.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time
from typing import Dict, List, Optional

from ..algorithms.grover import grover
from ..algorithms.qft import qft
from ..circuit.circuit import QuantumCircuit
from ..core.weak_sim import simulate_and_sample
from .api import SamplingRequest, SamplingService

__all__ = ["FORMAT", "VERSION", "run_harness", "validate_payload", "main"]

FORMAT = "repro-bench-serving"
VERSION = 3

#: The acceptance bar: a warm start (disk artifact, no strong
#: simulation) must be at least this many times faster than a cold one.
WARM_SPEEDUP_FLOOR = 5.0

#: Fraction of post-warmup serving answers that must come from the
#: owning worker's in-process L1 (cache == "memory"): the whole point
#: of consistent-hash shard routing.
SHARD_LOCALITY_FLOOR = 0.9

#: Multi-worker over single-worker sustained-throughput floor — only
#: enforced when the machine has at least this many cores to run the
#: workers on (see ``validate_payload``).
SCALING_SPEEDUP_FLOOR = 2.5
SCALING_MIN_CORES = 4

_SCHEMA: Dict[str, List[str]] = {
    "cases": [
        "name",
        "num_qubits",
        "shots",
        "cold_seconds",
        "cold_python_seconds",
        "warm_seconds",
        "hot_seconds",
        "cold_startup_seconds",
        "cold_python_startup_seconds",
        "kernel_build_speedup",
        "engine",
        "warm_startup_seconds",
        "warm_speedup",
        "end_to_end_speedup",
        "bit_identical",
        "store_entries",
    ],
    "concurrency": [
        "circuit",
        "clients",
        "shots",
        "builds",
        "coalesced",
        "total_seconds",
        "throughput_rps",
        "bit_identical",
    ],
    "serving": [
        "clients",
        "duration_seconds",
        "circuits",
        "runs",
        "scaling",
    ],
}

#: Keys every entry of ``serving.runs`` must carry.
_SERVING_RUN_KEYS = [
    "workers",
    "elapsed_seconds",
    "requests_ok",
    "requests_shed",
    "shots_per_sec",
    "requests_per_sec",
    "p50_ms",
    "p95_ms",
    "p99_ms",
    "shard_hit_rate",
    "builds",
    "bit_identical",
    "clean_drain",
]


def _bench_case(
    name: str,
    circuit: QuantumCircuit,
    shots: int,
    seed: int,
    root: str,
) -> Dict:
    """Cold / hot / warm latency for one circuit, checked against weak_sim."""
    reference = simulate_and_sample(circuit, shots, method="dd", seed=seed)
    cache_dir = os.path.join(root, name)
    request = SamplingRequest(circuit, shots, seed=seed, request_id=name)

    with SamplingService(cache_dir=cache_dir) as service:
        start = time.perf_counter()
        cold = service.sample(request)
        cold_seconds = time.perf_counter() - start
        start = time.perf_counter()
        hot = service.sample(request)
        hot_seconds = time.perf_counter() - start
        stored = service.store.get(cold.key)
        engine = (stored.meta or {}).get("engine") if stored else None

    # The same cold request on the python reference engine, on its own
    # cache directory: the startup delta is the kernel's cold-build win
    # measured end to end through the service.
    with SamplingService(cache_dir=os.path.join(root, name + "-py")) as service:
        start = time.perf_counter()
        cold_python = service.sample(
            SamplingRequest(
                circuit, shots, seed=seed, request_id=name, kernel="python"
            )
        )
        cold_python_seconds = time.perf_counter() - start

    # A fresh service over the same directory is the cross-process warm
    # start: the artifact comes off disk, strong simulation never runs.
    with SamplingService(cache_dir=cache_dir) as service:
        start = time.perf_counter()
        warm = service.sample(request)
        warm_seconds = time.perf_counter() - start
        builds_warm = service.stats()["builds"]
        store_entries = service.stats()["store"]["entries"]

    bit_identical = all(
        response.ok and response.result.counts == reference.counts
        for response in (cold, cold_python, warm, hot)
    )
    # Sampling cost is common to both regimes; what the cache removes is
    # everything before it (strong simulation + flatten vs artifact load).
    cold_startup = max(cold_seconds - cold.sampling_seconds, 1e-9)
    cold_python_startup = max(
        cold_python_seconds - cold_python.sampling_seconds, 1e-9
    )
    warm_startup = max(warm_seconds - warm.sampling_seconds, 1e-9)
    return {
        "name": name,
        "num_qubits": circuit.num_qubits,
        "shots": shots,
        "cold_seconds": round(cold_seconds, 6),
        "cold_python_seconds": round(cold_python_seconds, 6),
        "warm_seconds": round(warm_seconds, 6),
        "hot_seconds": round(hot_seconds, 6),
        "cold_startup_seconds": round(cold_startup, 6),
        "cold_python_startup_seconds": round(cold_python_startup, 6),
        "kernel_build_speedup": round(cold_python_startup / cold_startup, 2),
        "engine": engine,
        "warm_startup_seconds": round(warm_startup, 6),
        "warm_speedup": round(cold_startup / warm_startup, 2),
        "end_to_end_speedup": round(cold_seconds / max(warm_seconds, 1e-9), 2),
        "warm_builds": builds_warm,
        "cold_cache": cold.cache,
        "warm_cache": warm.cache,
        "bit_identical": bit_identical,
        "store_entries": store_entries,
    }


def _bench_concurrency(
    circuit: QuantumCircuit,
    name: str,
    clients: int,
    shots: int,
    seed: int,
    root: str,
) -> Dict:
    """N simultaneous same-circuit clients: one build, identical answers."""
    reference = simulate_and_sample(circuit, shots, method="dd", seed=seed)
    cache_dir = os.path.join(root, f"{name}-concurrent")
    requests = [
        SamplingRequest(circuit, shots, seed=seed, request_id=f"client-{i}")
        for i in range(clients)
    ]
    with SamplingService(
        cache_dir=cache_dir, request_workers=clients
    ) as service:
        start = time.perf_counter()
        responses = service.sample_batch(requests)
        total_seconds = time.perf_counter() - start
        stats = service.stats()
    bit_identical = all(
        response.ok and response.result.counts == reference.counts
        for response in responses
    )
    return {
        "circuit": name,
        "clients": clients,
        "shots": shots,
        "builds": stats["builds"],
        "coalesced": stats["coalesced"] + stats["cache_memory_hits"],
        "total_seconds": round(total_seconds, 6),
        "throughput_rps": round(clients / max(total_seconds, 1e-9), 2),
        "bit_identical": bit_identical,
    }


def _percentile_ms(latencies: List[float], fraction: float) -> float:
    """Nearest-rank percentile of ``latencies`` (seconds), in ms."""
    if not latencies:
        return 0.0
    ordered = sorted(latencies)
    index = min(len(ordered) - 1, int(round(fraction * (len(ordered) - 1))))
    return round(ordered[index] * 1000.0, 3)


def _shard_tier_counts(pool_stats: Dict) -> Dict[str, int]:
    return {
        "memory": int(pool_stats.get("shard_memory_hits", 0)),
        "disk": int(pool_stats.get("shard_disk_hits", 0)),
        "built": int(pool_stats.get("shard_builds", 0)),
    }


def _bench_serving_run(
    workers: int,
    records: List[Dict],
    references: Dict[str, Dict[int, int]],
    clients: int,
    duration: float,
    root: str,
) -> Dict:
    """One closed-loop run: N HTTP clients against a ``workers``-process pool.

    The cache directory is fresh per run so every worker count pays its
    own builds; the warmup request per circuit is untimed, and the
    shard-locality rate is computed from the dispatcher's tier counters
    *after* the warmup snapshot, so builds and disk loads during warmup
    do not dilute it.
    """
    import asyncio

    from .net import HttpFrontDoor, http_request, post_json
    from .pool import PoolConfig, WorkerPool

    cache_dir = os.path.join(root, f"serving-{workers}w")
    pool = WorkerPool(
        workers=workers,
        config=PoolConfig(cache_dir=cache_dir, request_workers=2),
        max_queue_depth=64,
    )
    pool.start()

    async def get_pool_stats(front: "HttpFrontDoor") -> Dict:
        status, _headers, body = await http_request(
            front.host, front.port, "GET", "/stats"
        )
        if status != 200:
            raise RuntimeError(f"/stats answered HTTP {status}")
        return json.loads(body.decode("utf-8"))["pool"]

    async def run() -> Dict:
        front = HttpFrontDoor(pool, port=0)
        await front.start()
        for record in records:
            warm = dict(record)
            warm["request_id"] = f"warmup-{record['circuit']}"
            status, payload = await post_json(
                front.host, front.port, "/v1/sample", warm
            )
            if status != 200 or payload.get("status") != "ok":
                raise RuntimeError(
                    f"warmup for {record['circuit']} failed: "
                    f"HTTP {status} {payload.get('status')!r}"
                )
        warm_tiers = _shard_tier_counts(await get_pool_stats(front))

        latencies: List[float] = []
        counters = {"ok": 0, "shed": 0, "shots": 0}
        start = time.monotonic()
        deadline = start + duration

        async def client(slot: int) -> None:
            step = slot
            while time.monotonic() < deadline:
                record = dict(records[step % len(records)])
                step += clients
                record["request_id"] = f"c{slot}-{step}"
                record["top"] = 32
                begin = time.perf_counter()
                status, payload = await post_json(
                    front.host, front.port, "/v1/sample", record
                )
                elapsed = time.perf_counter() - begin
                if status == 200 and payload.get("status") == "ok":
                    counters["ok"] += 1
                    counters["shots"] += int(record["shots"])
                    latencies.append(elapsed)
                elif status in (429, 503):
                    counters["shed"] += 1
                    await asyncio.sleep(0.02)
                else:
                    raise RuntimeError(
                        f"serving loop got HTTP {status}: {payload}"
                    )

        await asyncio.gather(*(client(i) for i in range(clients)))
        elapsed_seconds = time.monotonic() - start
        end_stats = await get_pool_stats(front)
        end_tiers = _shard_tier_counts(end_stats)

        bit_identical = True
        for record in records:
            probe = dict(record)
            probe["request_id"] = f"probe-{record['circuit']}"
            status, payload = await post_json(
                front.host, front.port, "/v1/sample", probe
            )
            if status != 200 or payload.get("status") != "ok":
                bit_identical = False
                continue
            got = {int(k, 2): v for k, v in payload["counts"].items()}
            if got != references[record["circuit"]]:
                bit_identical = False

        clean = await front.drain(pool_timeout=60.0)
        loop_answers = {
            tier: end_tiers[tier] - warm_tiers[tier] for tier in end_tiers
        }
        answered = sum(loop_answers.values())
        return {
            "workers": workers,
            "elapsed_seconds": round(elapsed_seconds, 3),
            "requests_ok": counters["ok"],
            "requests_shed": counters["shed"],
            "shots_per_sec": round(
                counters["shots"] / max(elapsed_seconds, 1e-9), 1
            ),
            "requests_per_sec": round(
                counters["ok"] / max(elapsed_seconds, 1e-9), 2
            ),
            "p50_ms": _percentile_ms(latencies, 0.50),
            "p95_ms": _percentile_ms(latencies, 0.95),
            "p99_ms": _percentile_ms(latencies, 0.99),
            "shard_hit_rate": round(
                loop_answers["memory"] / answered, 4
            )
            if answered
            else 0.0,
            "builds": int(end_stats.get("totals", {}).get("builds", -1)),
            "bit_identical": bit_identical,
            "clean_drain": clean,
        }

    try:
        return asyncio.run(run())
    finally:
        pool.close()


def _bench_serving(
    clients: int, seed: int, smoke: bool, root: str
) -> Dict:
    """The closed-loop serving section: one run per worker count."""
    from .api import resolve_circuit

    if smoke:
        workload = [("qft_8", 2_000), ("grover_4", 1_000), ("ghz_8", 1_000)]
        worker_counts = [1, 2]
        duration = 1.5
    else:
        workload = [("qft_16", 20_000), ("grover_8", 10_000), ("ghz_20", 10_000)]
        worker_counts = [1, 4]
        duration = 6.0
    records = [
        {"circuit": name, "shots": shots, "seed": seed + offset}
        for offset, (name, shots) in enumerate(workload)
    ]
    references = {
        record["circuit"]: simulate_and_sample(
            resolve_circuit(record["circuit"]),
            record["shots"],
            method="dd",
            seed=record["seed"],
        ).counts
        for record in records
    }
    runs = [
        _bench_serving_run(
            workers, records, references, clients, duration, root
        )
        for workers in worker_counts
    ]
    single, multi = runs[0], runs[-1]
    return {
        "clients": clients,
        "duration_seconds": duration,
        "circuits": [record["circuit"] for record in records],
        "runs": runs,
        "scaling": {
            "workers_single": single["workers"],
            "workers_multi": multi["workers"],
            "shots_per_sec_single": single["shots_per_sec"],
            "shots_per_sec_multi": multi["shots_per_sec"],
            "speedup": round(
                multi["shots_per_sec"] / max(single["shots_per_sec"], 1e-9), 2
            ),
            # Worker scaling needs cores to run on; validation reads
            # this to decide whether the 2.5x floor is physical here.
            "cpu_count": len(os.sched_getaffinity(0))
            if hasattr(os, "sched_getaffinity")
            else (os.cpu_count() or 1),
        },
    }


def run_harness(
    shots: int = 100_000,
    clients: int = 4,
    seed: int = 7,
    smoke: bool = False,
) -> Dict:
    """Execute all harness sections and return the payload dict."""
    if smoke:
        shots = min(shots, 5_000)
    cases = (
        [("qft_8", qft(8)), ("grover_4", grover(4, seed=1).circuit)]
        if smoke
        else [("qft_16", qft(16)), ("grover_8", grover(8, seed=1).circuit)]
    )
    payload: Dict = {
        "format": FORMAT,
        "version": VERSION,
        "config": {
            "shots": shots,
            "clients": clients,
            "seed": seed,
            "smoke": smoke,
        },
        "cases": [],
    }
    with tempfile.TemporaryDirectory(prefix="repro-bench-serving-") as root:
        for name, circuit in cases:
            payload["cases"].append(
                _bench_case(name, circuit, shots, seed, root)
            )
        concurrency_name, concurrency_circuit = cases[0]
        payload["concurrency"] = _bench_concurrency(
            concurrency_circuit, concurrency_name, clients, shots, seed, root
        )
        payload["serving"] = _bench_serving(clients, seed, smoke, root)
    return payload


def validate_payload(payload: Dict) -> None:
    """Raise ``ValueError`` when ``payload`` drifts from the schema."""
    if payload.get("format") != FORMAT:
        raise ValueError(f"format must be {FORMAT!r}")
    if payload.get("version") != VERSION:
        raise ValueError(f"version must be {VERSION}")
    if "config" not in payload:
        raise ValueError("missing section 'config'")
    for section, keys in _SCHEMA.items():
        if section not in payload:
            raise ValueError(f"missing section {section!r}")
        entries = payload[section]
        if section == "cases":
            if not isinstance(entries, list) or not entries:
                raise ValueError("'cases' must be a non-empty list")
        else:
            entries = [entries]
        for entry in entries:
            missing = [key for key in keys if key not in entry]
            if missing:
                raise ValueError(f"section {section!r} missing keys {missing}")
    smoke = bool(payload["config"].get("smoke"))
    for case in payload["cases"]:
        if not case["bit_identical"]:
            raise ValueError(
                f"case {case['name']!r} was not bit-identical to weak_sim"
            )
        if case.get("warm_builds", 0) != 0:
            raise ValueError(
                f"case {case['name']!r} rebuilt on the warm start"
            )
        if not smoke and case["warm_speedup"] < WARM_SPEEDUP_FLOOR:
            raise ValueError(
                f"case {case['name']!r} warm-start speedup "
                f"{case['warm_speedup']}x is below the "
                f"{WARM_SPEEDUP_FLOOR}x floor"
            )
        if not smoke and case["end_to_end_speedup"] <= 1.0:
            raise ValueError(
                f"case {case['name']!r} warm request was not faster than "
                "cold end to end"
            )
        if case["engine"] != "vector":
            raise ValueError(
                f"case {case['name']!r}: stored artifact metadata records "
                f"engine {case['engine']!r}, expected 'vector'"
            )
        if not smoke and case["kernel_build_speedup"] < 1.0:
            raise ValueError(
                f"case {case['name']!r}: kernel cold build was slower than "
                f"the python engine ({case['kernel_build_speedup']}x)"
            )
    concurrency = payload["concurrency"]
    if concurrency["clients"] < 4:
        raise ValueError("concurrency section must use >= 4 clients")
    if concurrency["builds"] != 1:
        raise ValueError(
            f"{concurrency['clients']} concurrent clients caused "
            f"{concurrency['builds']} builds (expected 1)"
        )
    if not concurrency["bit_identical"]:
        raise ValueError("concurrent responses were not bit-identical")
    serving = payload["serving"]
    runs = serving.get("runs")
    if not isinstance(runs, list) or len(runs) < 2:
        raise ValueError("'serving.runs' needs a 1-worker and a multi-worker run")
    circuits = serving.get("circuits") or []
    for run in runs:
        missing = [key for key in _SERVING_RUN_KEYS if key not in run]
        if missing:
            raise ValueError(f"serving run missing keys {missing}")
        label = f"serving run ({run['workers']} workers)"
        if not run["bit_identical"]:
            raise ValueError(f"{label} was not bit-identical to weak_sim")
        if not run["clean_drain"]:
            raise ValueError(f"{label} did not drain cleanly")
        if run["requests_ok"] < 1:
            raise ValueError(f"{label} completed no requests")
        if run["builds"] != len(circuits):
            raise ValueError(
                f"{label} built {run['builds']} artifacts for "
                f"{len(circuits)} unique circuits (shard routing must "
                "build each exactly once pool-wide)"
            )
    multi = runs[-1]
    if not smoke and multi["shard_hit_rate"] < SHARD_LOCALITY_FLOOR:
        raise ValueError(
            f"multi-worker shard-locality hit rate "
            f"{multi['shard_hit_rate']} is below the "
            f"{SHARD_LOCALITY_FLOOR} floor"
        )
    scaling = serving["scaling"]
    for key in (
        "workers_single",
        "workers_multi",
        "shots_per_sec_single",
        "shots_per_sec_multi",
        "speedup",
        "cpu_count",
    ):
        if key not in scaling:
            raise ValueError(f"serving scaling missing key {key!r}")
    if scaling["shots_per_sec_multi"] <= 0:
        raise ValueError("multi-worker run sustained no throughput")
    # The 2.5x floor is a statement about parallel hardware: N workers
    # sharing one core time-slice it and cannot beat one worker by any
    # margin physics allows us to demand.  Enforce the floor only where
    # the cores exist; elsewhere the honest numbers are still recorded.
    if (
        not smoke
        and scaling["cpu_count"] >= SCALING_MIN_CORES
        and scaling["workers_multi"] >= SCALING_MIN_CORES
        and scaling["speedup"] < SCALING_SPEEDUP_FLOOR
    ):
        raise ValueError(
            f"{scaling['workers_multi']}-worker throughput speedup "
            f"{scaling['speedup']}x is below the {SCALING_SPEEDUP_FLOOR}x "
            f"floor on a {scaling['cpu_count']}-core machine"
        )


def _build_parser() -> argparse.ArgumentParser:
    """The bench CLI's argument parser (importable for the docs checker)."""
    parser = argparse.ArgumentParser(
        prog="repro-bench-serving",
        description="Benchmark the sampling service's cold/warm cache "
        "economics and emit BENCH_serving.json.",
    )
    parser.add_argument(
        "--out", default="BENCH_serving.json", help="output JSON path"
    )
    parser.add_argument(
        "--shots", type=int, default=100_000, help="shots per request"
    )
    parser.add_argument(
        "--clients",
        type=int,
        default=4,
        help="simultaneous clients in the concurrency section",
    )
    parser.add_argument("--seed", type=int, default=7, help="harness RNG seed")
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="toy sizes: exercises every section in seconds",
    )
    parser.add_argument(
        "--validate",
        metavar="FILE",
        help="validate an existing payload against the schema and exit",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point for ``python -m repro.service.bench``."""
    args = _build_parser().parse_args(argv)

    if args.validate:
        with open(args.validate, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
        try:
            validate_payload(payload)
        except ValueError as error:
            print(f"schema drift: {error}", file=sys.stderr)
            return 1
        print(f"{args.validate}: schema ok (version {payload['version']})")
        return 0

    payload = run_harness(
        shots=args.shots, clients=args.clients, seed=args.seed, smoke=args.smoke
    )
    validate_payload(payload)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    headline = payload["cases"][0]
    concurrency = payload["concurrency"]
    scaling = payload["serving"]["scaling"]
    serving_multi = payload["serving"]["runs"][-1]
    print(
        f"wrote {args.out}: {headline['name']} cold "
        f"{headline['cold_seconds']}s vs warm {headline['warm_seconds']}s "
        f"({headline['warm_speedup']}x); kernel cold build "
        f"{headline['kernel_build_speedup']}x vs python; "
        f"{concurrency['clients']} clients -> "
        f"{concurrency['builds']} build at "
        f"{concurrency['throughput_rps']} req/s; serving "
        f"{scaling['workers_multi']}w {serving_multi['shots_per_sec']} "
        f"shots/s p95 {serving_multi['p95_ms']}ms locality "
        f"{serving_multi['shard_hit_rate']} "
        f"(x{scaling['speedup']} vs 1w on {scaling['cpu_count']} cores)"
    )
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())

#!/usr/bin/env python
"""Serving walkthrough: warm-cache resampling of a QFT-10 circuit.

The paper pays for one strong simulation and then samples cheaply;
:mod:`repro.service` stretches that across processes by persisting the
compiled sampling artifact.  This demo plays both roles:

* a **cold** service builds the DD, samples, and writes the artifact to
  an on-disk cache,
* a **warm** service (a fresh instance on the same cache directory —
  stand-in for a fresh process) answers the same request with *zero*
  strong simulation, which its telemetry session proves: no ``build``
  spans, ``service.builds`` absent, one cache hit,
* both answers are **bit-identical** to ``simulate_and_sample`` at the
  same seed — the cache is a pure accelerator, never a behaviour change,
* finally a **network** act: a real asyncio HTTP server over a 2-worker
  sharded pool answers the same record schema as JSON POSTs — repeats of
  a circuit always land on the worker the consistent-hash ring owns it
  to (one build pool-wide, then in-memory hits), still bit-identical.

Run:  python examples/serving_demo.py
"""

import asyncio
import tempfile

from repro import simulate_and_sample
from repro.algorithms import qft
from repro.service import SamplingRequest, SamplingService
from repro.service.api import resolve_circuit
from repro.service.net import HttpFrontDoor, post_json
from repro.service.pool import PoolConfig, WorkerPool
from repro.telemetry import Telemetry

SHOTS = 50_000
SEED = 7


def main() -> None:
    circuit = qft(10)
    circuit.measure_all()
    print(f"qft_10: {circuit.num_qubits} qubits, {circuit.num_operations} gates")

    reference = simulate_and_sample(circuit, SHOTS, seed=SEED)
    request = SamplingRequest(circuit, shots=SHOTS, seed=SEED)

    cache_dir = tempfile.mkdtemp(prefix="repro-serving-")
    # -- cold: build + cache --------------------------------------------
    with SamplingService(cache_dir=cache_dir) as service:
        cold = service.sample(request)
        stats = service.stats()
    print(
        f"cold:  status={cold.status} cache={cold.cache} "
        f"build={cold.build_seconds:.4f}s sample={cold.sampling_seconds:.4f}s "
        f"(builds={stats['builds']}, store entries={stats['store']['entries']})"
    )

    # -- warm: a fresh service on the same cache directory --------------
    telemetry = Telemetry()
    with SamplingService(cache_dir=cache_dir, telemetry=telemetry) as service:
        warm = service.sample(request)
        stats = service.stats()
    build_spans = [s for s in telemetry.tracer.spans if s.name == "build"]
    counters = telemetry.registry.snapshot()["counters"]
    print(
        f"warm:  status={warm.status} cache={warm.cache} "
        f"build={warm.build_seconds:.4f}s sample={warm.sampling_seconds:.4f}s "
        f"(builds={stats['builds']}, cache hits={counters['service.cache.hits']})"
    )

    # The warm run never strong-simulated: the artifact came off disk.
    assert stats["builds"] == 0
    assert not build_spans
    assert warm.cache == "disk"

    # And neither path changed a single count.
    assert cold.result.counts == reference.counts
    assert warm.result.counts == reference.counts
    print(
        f"bit-identical to simulate_and_sample at seed {SEED}: "
        f"{reference.distinct_outcomes} distinct outcomes, "
        f"top {reference.most_common(3)}"
    )

    serve_over_http()


SPECS = [("ghz_6", 2000, 3), ("qft_6", 2000, 5)]


def serve_over_http() -> None:
    """The network act: HTTP front door over a sharded 2-worker pool."""
    cache_dir = tempfile.mkdtemp(prefix="repro-serving-http-")
    pool = WorkerPool(
        workers=2, config=PoolConfig(cache_dir=cache_dir)
    ).start()

    async def run():
        front = HttpFrontDoor(pool, port=0)  # port=0: pick a free port
        await front.start()
        print(f"\nHTTP front door on http://{front.host}:{front.port} "
              f"({pool.num_workers} workers)")
        answers = {}
        # Same record schema as the batch JSONL file, now as POST bodies;
        # the repeat of each circuit hits the owning worker's hot cache.
        for name, shots, seed in SPECS:
            for attempt in ("cold", "hot"):
                status, payload = await post_json(
                    front.host, front.port, "/v1/sample",
                    {"circuit": name, "shots": shots, "seed": seed},
                )
                assert status == 200 and payload["status"] == "ok"
                answers.setdefault(name, []).append(payload)
                print(f"  {name} ({attempt}): worker={payload['worker']} "
                      f"cache={payload['cache']}")
        stats = pool.stats()
        clean = await front.drain(pool_timeout=60.0)
        return answers, stats, clean

    answers, stats, clean = asyncio.run(run())

    for name, shots, seed in SPECS:
        first, second = answers[name]
        # The ring pins each circuit to one worker, so the repeat is a
        # shard-local cache hit...
        assert first["worker"] == second["worker"]
        # ...and both answers match simulate_and_sample exactly.
        reference = simulate_and_sample(
            resolve_circuit(name), shots, method="dd", seed=seed
        ).counts
        for payload in (first, second):
            assert {int(k, 2): v for k, v in payload["counts"].items()} == reference
    assert stats["totals"]["builds"] == 2  # one per unique circuit, pool-wide
    assert clean and pool.exit_codes() == [0, 0]
    print(f"2 circuits x 2 requests -> {stats['totals']['builds']} builds "
          f"pool-wide, bit-identical over HTTP, clean drain")


if __name__ == "__main__":
    main()

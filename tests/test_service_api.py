"""The SamplingService contract: bit-identity, coalescing, degradation.

The headline guarantees under test:

* every ``method="dd"`` response — cold, hot, warm, chunked — is
  bit-identical to ``simulate_and_sample`` at the same seed,
* a warm cache answers without any strong simulation (``builds == 0``,
  ``service.cache.hits`` counted, zero ``build`` spans in the trace),
* concurrent same-circuit clients coalesce onto exactly one build,
* failures degrade down the ladder (statevector → stabilizer → reject)
  instead of crashing or OOMing, and transient errors are retried.
"""

import threading
import time

import pytest

from repro.algorithms.qft import qft
from repro.algorithms.states import bell_pair, ghz
from repro.circuit.circuit import QuantumCircuit
from repro.core.weak_sim import simulate_and_sample
from repro.service import (
    SamplingRequest,
    SamplingService,
    ServicePolicy,
)
from repro.simulators.dd_simulator import DDSimulator
from repro.telemetry import Telemetry


def _build_spans(telemetry):
    return [span for span in telemetry.tracer.spans if span.name == "build"]


# ---------------------------------------------------------------------------
# Bit-identity across cache states
# ---------------------------------------------------------------------------


def test_cold_hot_warm_all_bit_identical_to_weak_sim(tmp_path):
    circuit = qft(6)
    reference = simulate_and_sample(circuit, 4000, method="dd", seed=11)
    request = SamplingRequest(circuit, 4000, seed=11)
    with SamplingService(cache_dir=str(tmp_path)) as service:
        cold = service.sample(request)
        hot = service.sample(request)
    with SamplingService(cache_dir=str(tmp_path)) as service:
        warm = service.sample(request)
    assert cold.cache == "built"
    assert hot.cache == "memory"
    assert warm.cache == "disk"
    for response in (cold, hot, warm):
        assert response.ok
        assert response.backend == "dd"
        assert response.result.counts == reference.counts


@pytest.mark.parametrize(
    "circuit_name, features",
    [
        ("supremacy_2x3_4", {}),
        ("supremacy_2x3_4", {"approximation": 0.1}),
        ("supremacy_2x3_4", {"reorder": True}),
        ("ghz_4", {"noise_model": 0.02}),
    ],
    ids=["exact", "approximate", "reordered", "noisy"],
)
def test_every_tier_carries_the_library_build_record(
    tmp_path, circuit_name, features
):
    from repro.service.api import resolve_circuit

    circuit = resolve_circuit(circuit_name)
    library = {
        "noise" if name == "noise_model" else name: value
        for name, value in features.items()
    }
    reference = simulate_and_sample(circuit, 500, seed=3, **library)
    request = SamplingRequest(circuit, 500, seed=3, **features)
    with SamplingService(cache_dir=str(tmp_path)) as service:
        cold = service.sample(request)
        hot = service.sample(request)
        stored = service.store.get(cold.key)
    with SamplingService(cache_dir=str(tmp_path)) as service:
        disk = service.sample(request)
    assert [r.cache for r in (cold, hot, disk)] == ["built", "memory", "disk"]
    build = reference.metadata["build"]
    for response in (cold, hot, disk):
        assert response.result.counts == reference.counts
        assert response.result.metadata["build"] == build
        assert set(response.result.metadata["service"]) == {
            "key", "cache", "backend", "attempts",
        }
    assert stored.meta == build


def test_workers_chunking_matches_weak_sim(tmp_path):
    circuit = qft(6)
    reference = simulate_and_sample(
        circuit, 4000, method="dd", seed=3, workers=3
    )
    with SamplingService(cache_dir=str(tmp_path)) as service:
        service.sample(SamplingRequest(circuit, 10, seed=0))  # prime cache
        response = service.sample(
            SamplingRequest(circuit, 4000, seed=3, workers=3)
        )
    assert response.ok and response.cache == "memory"
    assert response.result.counts == reference.counts


def test_uncached_service_works_without_cache_dir():
    circuit = bell_pair()
    reference = simulate_and_sample(circuit, 2000, method="dd", seed=5)
    with SamplingService() as service:
        first = service.sample(SamplingRequest(circuit, 2000, seed=5))
        second = service.sample(SamplingRequest(circuit, 2000, seed=5))
    assert first.cache == "built"
    assert second.cache == "memory"  # hot cache still amortises in-process
    assert first.result.counts == second.result.counts == reference.counts


# ---------------------------------------------------------------------------
# Warm cache skips strong simulation (the paper's amortisation, served)
# ---------------------------------------------------------------------------


def test_warm_cache_skips_build_entirely(tmp_path):
    circuit = qft(16)
    request = SamplingRequest(circuit, 100_000, seed=7)
    reference = simulate_and_sample(circuit, 100_000, method="dd", seed=7)

    cold_session = Telemetry()
    with SamplingService(
        cache_dir=str(tmp_path), telemetry=cold_session
    ) as service:
        cold = service.sample(request)
        assert service.stats()["builds"] == 1
    assert len(_build_spans(cold_session)) == 1

    warm_session = Telemetry()
    with SamplingService(
        cache_dir=str(tmp_path), telemetry=warm_session
    ) as service:
        warm = service.sample(request)
        stats = service.stats()
    counters = warm_session.registry.snapshot()["counters"]
    assert warm.ok and warm.cache == "disk"
    assert stats["builds"] == 0
    assert counters.get("service.cache.hits") == 1
    assert "service.builds" not in counters
    assert _build_spans(warm_session) == []  # no strong simulation at all
    assert warm.result.counts == cold.result.counts == reference.counts


def test_close_absorbs_service_stats_into_registry(tmp_path):
    session = Telemetry()
    with SamplingService(cache_dir=str(tmp_path), telemetry=session) as service:
        service.sample(SamplingRequest(bell_pair(), 100, seed=1))
    gauges = session.registry.snapshot()["gauges"]
    assert gauges.get("service.requests") == 1
    assert gauges.get("service.builds") == 1
    assert "service.store.entries" in gauges


# ---------------------------------------------------------------------------
# Concurrency: coalescing and thread-safety
# ---------------------------------------------------------------------------


def test_four_concurrent_clients_one_build(tmp_path):
    circuit = qft(8)
    reference = simulate_and_sample(circuit, 3000, method="dd", seed=9)
    session = Telemetry()
    with SamplingService(
        cache_dir=str(tmp_path), request_workers=4, telemetry=session
    ) as service:
        responses = service.sample_batch(
            [SamplingRequest(circuit, 3000, seed=9) for _ in range(4)]
        )
        stats = service.stats()
    assert [r.status for r in responses] == ["ok"] * 4
    assert stats["builds"] == 1
    assert session.registry.snapshot()["counters"]["service.builds"] == 1
    assert len(_build_spans(session)) == 1
    for response in responses:
        assert response.result.counts == reference.counts


def test_concurrent_client_threads_one_build(tmp_path):
    circuit = ghz(10)
    responses = [None] * 4
    with SamplingService(cache_dir=str(tmp_path)) as service:

        def client(slot):
            responses[slot] = service.sample(
                SamplingRequest(circuit, 2000, seed=slot)
            )

        threads = [
            threading.Thread(target=client, args=(slot,)) for slot in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        stats = service.stats()
    assert all(response.ok for response in responses)
    assert stats["builds"] == 1


# ---------------------------------------------------------------------------
# Admission, deadlines, retries, degradation
# ---------------------------------------------------------------------------


def test_admission_guard_rejects_wide_circuits(tmp_path):
    policy = ServicePolicy(max_qubits=4)
    with SamplingService(cache_dir=str(tmp_path), policy=policy) as service:
        response = service.sample(SamplingRequest(ghz(6), 100, seed=1))
        stats = service.stats()
    assert response.status == "rejected"
    assert "max_qubits" in response.error
    assert stats["builds"] == 0
    assert stats["rejected"] == 1


def test_deadline_exceeded_then_served_from_cache(tmp_path, monkeypatch):
    class SlowSimulator(DDSimulator):
        def run(self, circuit, initial_state=0):
            time.sleep(0.4)
            return super().run(circuit, initial_state=initial_state)

    monkeypatch.setattr(
        "repro.core.weak_sim.DDSimulator", SlowSimulator
    )
    circuit = bell_pair()
    with SamplingService(cache_dir=str(tmp_path)) as service:
        late = service.sample(
            SamplingRequest(circuit, 100, seed=2, deadline_seconds=0.05)
        )
        assert late.status == "deadline_exceeded"
        assert late.result is None
        # The build keeps running and lands in the cache; a retry with a
        # generous deadline is answered without a second build.
        retry = service.sample(
            SamplingRequest(circuit, 100, seed=2, deadline_seconds=30.0)
        )
        stats = service.stats()
    assert retry.ok
    assert stats["builds"] == 1


def test_transient_failures_are_retried(tmp_path, monkeypatch):
    calls = {"count": 0}
    real = DDSimulator

    class FlakySimulator:
        def __init__(self, *args, **kwargs):
            self._inner = real(*args, **kwargs)

        @property
        def stats(self):
            return self._inner.stats

        def run(self, circuit, initial_state=0):
            calls["count"] += 1
            if calls["count"] <= 2:
                raise RuntimeError("transient build hiccup")
            return self._inner.run(circuit, initial_state=initial_state)

    monkeypatch.setattr(
        "repro.core.weak_sim.DDSimulator", FlakySimulator
    )
    with SamplingService(cache_dir=str(tmp_path)) as service:
        response = service.sample(SamplingRequest(bell_pair(), 200, seed=4))
        stats = service.stats()
    assert response.ok
    assert calls["count"] == 3
    assert stats["retries"] == 2


def test_permanent_failure_after_retry_budget(tmp_path, monkeypatch):
    class BrokenSimulator:
        def __init__(self, *args, **kwargs):
            pass

        def run(self, circuit, initial_state=0):
            raise RuntimeError("always broken")

    monkeypatch.setattr(
        "repro.core.weak_sim.DDSimulator", BrokenSimulator
    )
    policy = ServicePolicy(max_retries=1, retry_backoff_seconds=0.0)
    with SamplingService(cache_dir=str(tmp_path), policy=policy) as service:
        response = service.sample(SamplingRequest(bell_pair(), 100))
        stats = service.stats()
    assert response.status == "error"
    assert "always broken" in response.error
    assert stats["retries"] == 1


def test_degrades_to_statevector_on_memory_pressure(tmp_path):
    # max_build_nodes=0 makes every DD build "too big": the ladder must
    # answer from the dense backend instead of failing the request.
    policy = ServicePolicy(max_build_nodes=0)
    with SamplingService(cache_dir=str(tmp_path), policy=policy) as service:
        response = service.sample(SamplingRequest(ghz(3), 2000, seed=6))
        stats = service.stats()
    assert response.ok
    assert response.backend == "statevector"
    assert response.degraded_reason is not None
    assert stats["degraded"] == 1
    total = sum(response.result.counts.values())
    assert total == 2000
    assert set(response.result.counts) <= {0, 7}  # still a GHZ state


def test_degrades_to_stabilizer_when_dense_does_not_fit(tmp_path):
    policy = ServicePolicy(max_build_nodes=0, dense_memory_cap_bytes=64)
    with SamplingService(cache_dir=str(tmp_path), policy=policy) as service:
        response = service.sample(SamplingRequest(ghz(3), 1000, seed=6))
    assert response.ok
    assert response.backend == "stabilizer"
    assert set(response.result.counts) <= {0, 7}


def test_rejects_when_no_ladder_rung_fits(tmp_path):
    policy = ServicePolicy(max_build_nodes=0, dense_memory_cap_bytes=64)
    with SamplingService(cache_dir=str(tmp_path), policy=policy) as service:
        response = service.sample(SamplingRequest(qft(3), 1000, seed=6))
    assert response.status == "rejected"
    assert "fallback" in response.error


# ---------------------------------------------------------------------------
# Routing: bypass paths and validation
# ---------------------------------------------------------------------------


def test_mid_circuit_measurement_routes_to_shot_executor(tmp_path):
    circuit = QuantumCircuit(2).h(0).measure(0).h(1).measure_all()
    with SamplingService(cache_dir=str(tmp_path)) as service:
        response = service.sample(SamplingRequest(circuit, 500, seed=8))
        stats = service.stats()
    assert response.ok
    assert response.backend == "shot-executor"
    assert response.cache == "bypass"
    assert stats["builds"] == 0
    assert response.result.shots == 500


def test_vector_method_bypasses_cache(tmp_path):
    circuit = bell_pair()
    reference = simulate_and_sample(circuit, 1000, method="vector", seed=12)
    with SamplingService(cache_dir=str(tmp_path)) as service:
        response = service.sample(
            SamplingRequest(circuit, 1000, seed=12, method="vector")
        )
    assert response.ok
    assert response.cache == "bypass"
    assert response.backend == "statevector"
    assert response.result.counts == reference.counts


def test_non_default_dd_method_bypasses_cache(tmp_path):
    circuit = bell_pair()
    reference = simulate_and_sample(
        circuit, 1000, method="dd-multinomial", seed=13
    )
    with SamplingService(cache_dir=str(tmp_path)) as service:
        response = service.sample(
            SamplingRequest(circuit, 1000, seed=13, method="dd-multinomial")
        )
    assert response.ok and response.cache == "bypass"
    assert response.result.counts == reference.counts


@pytest.mark.parametrize(
    "kwargs, fragment",
    [
        ({"shots": -1}, "non-negative"),
        ({"shots": 10, "method": "psychic"}, "unknown sampling method"),
        ({"shots": 10, "workers": 2, "method": "vector"}, "requires method"),
        ({"shots": 10, "deadline_seconds": -1.0}, "positive"),
    ],
)
def test_invalid_requests_are_rejected(tmp_path, kwargs, fragment):
    with SamplingService(cache_dir=str(tmp_path)) as service:
        response = service.sample(SamplingRequest(bell_pair(), **kwargs))
    assert response.status == "rejected"
    assert fragment in response.error


def test_hot_cache_lru_eviction(tmp_path):
    with SamplingService(cache_dir=str(tmp_path), hot_entries=1) as service:
        service.sample(SamplingRequest(ghz(3), 10, seed=1))
        service.sample(SamplingRequest(ghz(4), 10, seed=1))  # evicts ghz_3
        again = service.sample(SamplingRequest(ghz(3), 10, seed=1))
        stats = service.stats()
    assert again.cache == "disk"  # fell back to the persistent tier
    assert stats["hot_entries"] == 1
    assert stats["builds"] == 2


def test_submit_returns_future_and_close_is_idempotent(tmp_path):
    service = SamplingService(cache_dir=str(tmp_path))
    future = service.submit(SamplingRequest(bell_pair(), 100, seed=1))
    assert future.result().ok
    service.close()
    service.close()  # idempotent
    with pytest.raises(Exception):
        service.submit(SamplingRequest(bell_pair(), 100, seed=1))


def test_response_to_dict_round_trips_counts(tmp_path):
    with SamplingService(cache_dir=str(tmp_path)) as service:
        response = service.sample(
            SamplingRequest(bell_pair(), 1000, seed=2, request_id="r-1")
        )
    record = response.to_dict()
    assert record["request_id"] == "r-1"
    assert record["status"] == "ok"
    assert sum(record["counts"].values()) == 1000
    truncated = response.to_dict(top=1)
    assert len(truncated["counts"]) == 1
    assert truncated["counts_truncated"] >= 1


# ---------------------------------------------------------------------------
# Scheduler shutdown: bounded drain, no abandoned futures
# ---------------------------------------------------------------------------


def test_close_drain_times_out_and_cancels_queued_builds(monkeypatch):
    """A blocked build must not make close() hang, and the queued job
    behind it must resolve (CancelledError), never dangle forever."""
    from concurrent.futures import CancelledError

    from repro.service import BuildScheduler

    release = threading.Event()
    real = DDSimulator

    class StuckSimulator:
        def __init__(self, *args, **kwargs):
            self._inner = real(*args, **kwargs)

        @property
        def stats(self):
            return self._inner.stats

        def run(self, circuit, initial_state=0):
            release.wait(timeout=30.0)
            return self._inner.run(circuit, initial_state=initial_state)

    monkeypatch.setattr("repro.core.weak_sim.DDSimulator", StuckSimulator)
    scheduler = BuildScheduler(store=None, workers=1)
    running = scheduler.submit("key-running", bell_pair())
    queued = scheduler.submit("key-queued", ghz(3))
    try:
        start = time.perf_counter()
        drained = scheduler.close(drain=True, timeout=0.3)
        elapsed = time.perf_counter() - start
        assert drained is False
        assert elapsed < 5.0  # bounded, not the 30s the build would take
        # The queued future was cancelled, not abandoned: a coalesced
        # waiter blocked on it wakes up instead of hanging.
        with pytest.raises(CancelledError):
            queued.result(timeout=1.0)
    finally:
        release.set()
    assert running.result(timeout=30.0).backend == "dd"


def test_close_drain_waits_for_inflight_builds(tmp_path):
    from repro.service import BuildScheduler

    scheduler = BuildScheduler(store=None, workers=1)
    future = scheduler.submit("key", qft(6))
    assert scheduler.close(drain=True, timeout=30.0) is True
    assert future.done() and future.result().backend == "dd"


def test_service_close_reports_drain_result(tmp_path):
    service = SamplingService(cache_dir=str(tmp_path))
    service.sample(SamplingRequest(bell_pair(), 50, seed=1))
    assert service.close(drain=True, timeout=10.0) is True


# ---------------------------------------------------------------------------
# Builds-counter semantics: count artifacts produced, never attempts
# ---------------------------------------------------------------------------


def test_store_put_failure_neither_fails_nor_recounts_the_build(
    tmp_path, monkeypatch
):
    """Regression: a failure *after* the strong simulation (here: the
    store write) used to re-enter the retry ladder with ``builds``
    already counted, double-counting service.builds.  Persistence is
    best-effort: the response stays ok and builds stays 1."""
    with SamplingService(cache_dir=str(tmp_path)) as service:

        def broken_put(*args, **kwargs):
            raise OSError("disk full")

        monkeypatch.setattr(service.store, "put", broken_put)
        response = service.sample(SamplingRequest(bell_pair(), 300, seed=9))
        stats = service.stats()
    assert response.ok
    reference = simulate_and_sample(bell_pair(), 300, method="dd", seed=9)
    assert response.result.counts == reference.counts
    assert stats["builds"] == 1
    assert stats["build_attempts"] == 1
    assert stats["store_put_failures"] == 1
    assert stats["retries"] == 0


def test_build_attempts_reconcile_with_builds_and_failures(
    tmp_path, monkeypatch
):
    calls = {"count": 0}
    real = DDSimulator

    class FlakySimulator:
        def __init__(self, *args, **kwargs):
            self._inner = real(*args, **kwargs)

        @property
        def stats(self):
            return self._inner.stats

        def run(self, circuit, initial_state=0):
            calls["count"] += 1
            if calls["count"] <= 2:
                raise RuntimeError("transient build hiccup")
            return self._inner.run(circuit, initial_state=initial_state)

    monkeypatch.setattr("repro.core.weak_sim.DDSimulator", FlakySimulator)
    with SamplingService(cache_dir=str(tmp_path)) as service:
        response = service.sample(SamplingRequest(bell_pair(), 200, seed=4))
        stats = service.stats()
    assert response.ok
    assert stats["build_attempts"] == 3
    assert stats["builds"] == 1
    assert stats["build_failures"] == 2
    assert stats["build_attempts"] == stats["builds"] + stats["build_failures"]


def test_counter_consistency_under_degradation_and_coalescing(tmp_path):
    """Every request lands in exactly one status bucket, telemetry's
    service.builds agrees with the scheduler, and attempts reconcile —
    under a mix of degraded, rejected, coalesced, and cached traffic."""
    telemetry = Telemetry()
    policy = ServicePolicy(max_build_nodes=0, dense_memory_cap_bytes=64)
    with SamplingService(
        cache_dir=str(tmp_path),
        policy=policy,
        telemetry=telemetry,
        request_workers=4,
    ) as service:
        futures = [
            service.submit(SamplingRequest(ghz(3), 50, seed=s))
            for s in range(3)  # stabilizer degradation, possibly coalesced
        ]
        degraded = [future.result() for future in futures]
        rejected = service.sample(SamplingRequest(qft(3), 50, seed=1))
        stats = service.stats()
    assert all(r.status == "ok" and r.backend == "stabilizer" for r in degraded)
    assert rejected.status == "rejected"
    assert stats["requests"] == 4
    # Regression: the scheduler's admission counter used to be named
    # "rejected" too and shadowed this status bucket in the merged
    # snapshot, so a ladder rejection read as zero rejections.
    assert stats["rejected"] == 1
    assert stats["admission_rejected"] == 0  # ladder, not the width guard
    assert stats["requests"] == (
        stats["ok"]
        + stats["rejected"]
        + stats["deadline_exceeded"]
        + stats["errors"]
    )
    # Degradation means no DD artifact was ever produced.
    assert stats["builds"] == 0
    assert stats["build_attempts"] == stats["builds"] + stats["build_failures"]
    counters = telemetry.registry.snapshot()["counters"]
    assert counters.get("service.builds", 0) == stats["builds"]
    assert counters.get("service.requests", 0) == stats["requests"]

"""WorkerPool: shard routing, back-pressure, drain, and bit-identity.

These tests fork real worker processes (tiny circuits, small shot
counts) and pin the pool's contract: every record routes to the worker
the ring assigns for its artifact key, responses are bit-identical to
``simulate_and_sample``, a full dispatch window sheds with
``PoolSaturatedError`` instead of queueing unboundedly, and a drain
leaves no hung futures and no crashed workers.  Replies are
:class:`~repro.service.pool.PoolReply` tuples whose ``body`` is the
encoded response line; :func:`_decoded` checks that the reply's fields
agree with the body before a test reads the record.
"""

import json

import pytest

from repro.core.weak_sim import simulate_and_sample
from repro.exceptions import ReproError
from repro.service.__main__ import resolve_circuit
from repro.service.pool import (
    PoolClosedError,
    PoolConfig,
    PoolSaturatedError,
    WorkerPool,
)


def _record(circuit, shots, seed, request_id=None):
    return {
        "request_id": request_id or f"{circuit}-{seed}",
        "circuit": circuit,
        "shots": shots,
        "seed": seed,
    }


def _decoded(reply):
    """The response record in ``reply.body``, checked against the reply."""
    assert reply.body.endswith(b"\n") and reply.body.count(b"\n") == 1
    record = json.loads(reply.body)
    assert record["status"] == reply.status
    assert record.get("cache") == reply.cache
    assert record["worker"] == reply.worker
    return record


# ---------------------------------------------------------------------------
# Round trip and bit-identity
# ---------------------------------------------------------------------------


def test_round_trip_bit_identical_and_sharded(tmp_path):
    specs = [("bell", 400, 3), ("ghz_4", 300, 5), ("qft_4", 300, 7)]
    with WorkerPool(
        workers=2, config=PoolConfig(cache_dir=str(tmp_path))
    ) as pool:
        futures = {
            name: [
                pool.submit_record(_record(name, shots, seed, f"{name}-{i}"))
                for i in range(2)
            ]
            for name, shots, seed in specs
        }
        responses = {
            name: [_decoded(future.result(timeout=60)) for future in pair]
            for name, pair in futures.items()
        }
        # Dispatcher-side routing must agree with where answers came from.
        expected_worker = {
            name: pool.worker_for(pool.routing_key(_record(name, s, d)))
            for name, s, d in specs
        }
    for name, shots, seed in specs:
        reference = simulate_and_sample(
            resolve_circuit(name), shots, method="dd", seed=seed
        ).counts
        for response in responses[name]:
            assert response["status"] == "ok"
            got = {int(k, 2): v for k, v in response["counts"].items()}
            assert got == reference
            assert response["worker"] == expected_worker[name]
    assert pool.exit_codes() == [0, 0]


def test_same_circuit_always_lands_on_one_worker(tmp_path):
    with WorkerPool(
        workers=3, config=PoolConfig(cache_dir=str(tmp_path))
    ) as pool:
        futures = [
            pool.submit_record(_record("ghz_4", 100, seed, f"g-{seed}"))
            for seed in range(6)
        ]
        workers = {_decoded(f.result(timeout=60))["worker"] for f in futures}
        stats = pool.stats()
    assert len(workers) == 1
    # One build pool-wide; the repeats hit the owning worker's caches.
    # (shard_builds counts responses *answered by* a fresh build, which
    # includes coalesced waiters — totals.builds is the true build count.)
    assert stats["totals"]["builds"] == 1
    assert (
        stats["shard_memory_hits"]
        + stats["shard_disk_hits"]
        + stats["shard_builds"]
    ) == 6
    assert stats["shard_builds"] >= 1


def test_repeats_after_a_build_answer_from_the_owning_workers_memory(tmp_path):
    # Shard locality: once a circuit is built, every sequential repeat
    # is answered from the memory of the worker that built it.
    with WorkerPool(
        workers=2, config=PoolConfig(cache_dir=str(tmp_path))
    ) as pool:
        first = _decoded(
            pool.submit_record(_record("qft_4", 200, 0)).result(timeout=60)
        )
        repeats = [
            _decoded(
                pool.submit_record(_record("qft_4", 200, seed)).result(timeout=60)
            )
            for seed in range(1, 7)
        ]
    assert first["cache"] == "built"
    assert [r["cache"] for r in repeats] == ["memory"] * len(repeats)
    assert {r["worker"] for r in repeats} == {first["worker"]}


# ---------------------------------------------------------------------------
# Back-pressure and bad input
# ---------------------------------------------------------------------------


def test_full_dispatch_window_sheds(tmp_path):
    with WorkerPool(
        workers=1,
        config=PoolConfig(cache_dir=str(tmp_path)),
        max_queue_depth=1,
    ) as pool:
        # A cold qft_10 build holds the single window slot long enough
        # that an immediate second submission must be shed.
        first = pool.submit_record(_record("qft_10", 200_000, 1, "slow"))
        with pytest.raises(PoolSaturatedError) as info:
            for attempt in range(100):
                pool.submit_record(_record("qft_10", 200_000, 1, f"x{attempt}"))
        assert info.value.retry_after > 0
        assert _decoded(first.result(timeout=120))["status"] == "ok"
        assert pool.stats(include_workers=False)["shed"] >= 1


def test_unresolvable_circuit_rejected_at_dispatch(tmp_path):
    with WorkerPool(workers=1, config=PoolConfig()) as pool:
        with pytest.raises(ReproError):
            pool.submit_record(_record("no_such_circuit_9", 10, 1))
        assert pool.stats(include_workers=False)["resolve_rejected"] == 1


_BELL_QASM = (
    "OPENQASM 2.0;\n"
    'include "qelib1.inc";\n'
    "qreg q[2];\n"
    "h q[0];\n"
    "cx q[0],q[1];\n"
)


def test_qasm_file_spec_rejected_by_default(tmp_path):
    # Network clients must not be able to make the pool open arbitrary
    # local paths; with no allow-listed root the spec form is refused
    # at dispatch, before any file is touched.
    path = tmp_path / "bell.qasm"
    path.write_text(_BELL_QASM, encoding="utf-8")
    with WorkerPool(workers=1, config=PoolConfig()) as pool:
        with pytest.raises(ReproError, match="qasm_file"):
            pool.submit_record(
                {"circuit": {"qasm_file": str(path)}, "shots": 10, "seed": 1}
            )
        assert pool.stats(include_workers=False)["resolve_rejected"] == 1


def test_qasm_file_spec_allowed_under_configured_root(tmp_path):
    inside = tmp_path / "circuits"
    inside.mkdir()
    (inside / "bell.qasm").write_text(_BELL_QASM, encoding="utf-8")
    outside = tmp_path / "secret.qasm"
    outside.write_text(_BELL_QASM, encoding="utf-8")
    config = PoolConfig(qasm_file_root=str(inside))
    with WorkerPool(workers=1, config=config) as pool:
        response = _decoded(
            pool.submit_record(
                {
                    "circuit": {"qasm_file": str(inside / "bell.qasm")},
                    "shots": 50,
                    "seed": 1,
                }
            ).result(timeout=60)
        )
        assert response["status"] == "ok"
        with pytest.raises(ReproError, match="outside the allowed"):
            pool.submit_record(
                {"circuit": {"qasm_file": str(outside)}, "shots": 10}
            )
        # Traversal out of the root is caught on the *resolved* path.
        with pytest.raises(ReproError, match="outside the allowed"):
            pool.submit_record(
                {
                    "circuit": {
                        "qasm_file": str(inside / ".." / "secret.qasm")
                    },
                    "shots": 10,
                }
            )
        # A missing file under the root is an OSError for the caller
        # (the front door maps it to 400), never an unhandled crash.
        with pytest.raises(OSError):
            pool.submit_record(
                {
                    "circuit": {"qasm_file": str(inside / "missing.qasm")},
                    "shots": 10,
                }
            )


def test_crashed_worker_fails_pending_futures(tmp_path):
    # A worker killed mid-build can never answer; the liveness monitor
    # must fail its pending futures instead of letting callers (and
    # drain) hang forever.
    pool = WorkerPool(
        workers=1, config=PoolConfig(cache_dir=str(tmp_path))
    ).start()
    try:
        future = pool.submit_record(_record("qft_10", 200_000, 1, "doomed"))
        pool._processes[0].kill()
        with pytest.raises(PoolClosedError, match="died"):
            future.result(timeout=30)
        stats = pool.stats(include_workers=False)
        assert stats["dead_worker_failures"] == 1
        assert stats["outstanding"] == [0]
        with pytest.raises(PoolClosedError):
            pool.submit_record(_record("bell", 10, 1))
    finally:
        pool.close()


def test_stats_polling_does_not_consume_dispatch_window(tmp_path):
    # /stats is control-plane traffic: it must not occupy data-plane
    # window slots, else monitoring a loaded server sheds real work.
    with WorkerPool(
        workers=1, config=PoolConfig(), max_queue_depth=1
    ) as pool:
        future = pool.submit_stats(0)
        with pool._lock:
            assert pool._outstanding == [0]
            assert all(entry[2] for entry in pool._pending.values())
        assert "requests" in future.result(timeout=30)["stats"]
        # The single window slot is still free for a real request.
        response = _decoded(
            pool.submit_record(_record("bell", 50, 1)).result(timeout=60)
        )
        assert response["status"] == "ok"


def test_worker_side_rejection_comes_back_as_record(tmp_path):
    with WorkerPool(workers=1, config=PoolConfig()) as pool:
        response = _decoded(
            pool.submit_record(
                {"request_id": "bad", "circuit": "bell", "shots": -5, "seed": 1}
            ).result(timeout=60)
        )
    assert response["status"] == "rejected"
    assert "shots" in response["error"]


# ---------------------------------------------------------------------------
# Drain
# ---------------------------------------------------------------------------


def test_drain_is_clean_and_refuses_new_work(tmp_path):
    pool = WorkerPool(
        workers=2, config=PoolConfig(cache_dir=str(tmp_path))
    ).start()
    future = pool.submit_record(_record("bell", 200, 2))
    assert pool.drain(timeout=60.0) is True
    assert future.done() and _decoded(future.result())["status"] == "ok"
    assert pool.exit_codes() == [0, 0]
    assert pool.stats(include_workers=False)["terminated_workers"] == 0
    with pytest.raises(PoolClosedError):
        pool.submit_record(_record("bell", 10, 1))


def test_close_is_idempotent(tmp_path):
    pool = WorkerPool(workers=1, config=PoolConfig()).start()
    pool.close()
    pool.close()
    assert pool.exit_codes() == [0]


def test_negative_top_refused_before_dispatch(tmp_path):
    with WorkerPool(workers=1, config=PoolConfig()) as pool:
        with pytest.raises(ValueError, match="top must be non-negative"):
            pool.submit_record(_record("bell", 10, 1), top=-1)
        assert pool.stats(include_workers=False)["dispatched"] == 0
        # top=0 is valid: every outcome is summarised as truncated.
        response = _decoded(
            pool.submit_record(_record("bell", 100, 1), top=0).result(
                timeout=60
            )
        )
    assert response["counts"] == {}
    assert response["counts_truncated"] == 2

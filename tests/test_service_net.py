"""HTTP front door: endpoints, status mapping, shedding, drain.

Each test runs a real asyncio server on an ephemeral port over a real
(small) worker pool, and talks to it with the module's own stdlib
client.  The wire contract under test: the JSON bodies are exactly the
batch JSONL records, service statuses map to HTTP statuses
(200/400/500/503), overload answers 429 with a ``Retry-After`` header,
and a draining server answers 503 without dropping in-flight work.
"""

import asyncio
import json

import pytest

from repro.core.weak_sim import simulate_and_sample
from repro.service.__main__ import resolve_circuit
from repro.service.net import HttpFrontDoor, http_request, post_json
from repro.service.pool import PoolConfig, WorkerPool


def _run(coro):
    return asyncio.run(coro)


def _pool(tmp_path, workers=1, depth=32):
    return WorkerPool(
        workers=workers,
        config=PoolConfig(cache_dir=str(tmp_path)),
        max_queue_depth=depth,
    ).start()


async def _with_server(pool, scenario):
    front = HttpFrontDoor(pool, port=0)
    await front.start()
    try:
        return await scenario(front)
    finally:
        await front.drain(pool_timeout=60.0)


# ---------------------------------------------------------------------------
# Happy path
# ---------------------------------------------------------------------------


def test_sample_endpoint_is_bit_identical(tmp_path):
    pool = _pool(tmp_path)

    async def scenario(front):
        status, payload = await post_json(
            front.host,
            front.port,
            "/v1/sample",
            {"request_id": "r1", "circuit": "ghz_4", "shots": 500, "seed": 11},
        )
        return status, payload

    status, payload = _run(_with_server(pool, scenario))
    assert status == 200
    assert payload["status"] == "ok"
    assert "worker" in payload
    reference = simulate_and_sample(
        resolve_circuit("ghz_4"), 500, method="dd", seed=11
    ).counts
    assert {int(k, 2): v for k, v in payload["counts"].items()} == reference
    assert pool.exit_codes() == [0]


def test_healthz_and_stats(tmp_path):
    pool = _pool(tmp_path)

    async def scenario(front):
        health = await http_request(front.host, front.port, "GET", "/healthz")
        await post_json(
            front.host,
            front.port,
            "/v1/sample",
            {"circuit": "bell", "shots": 100, "seed": 1},
        )
        stats = await http_request(front.host, front.port, "GET", "/stats")
        return health, stats

    (h_status, _h, h_body), (s_status, _s, s_body) = _run(
        _with_server(pool, scenario)
    )
    assert h_status == 200
    health = json.loads(h_body)
    assert health["status"] == "ok" and health["workers"] == 1
    assert s_status == 200
    stats = json.loads(s_body)
    assert stats["pool"]["dispatched"] == 1
    assert stats["pool"]["totals"]["builds"] == 1
    assert stats["http"]["http_requests"] >= 2


def test_batch_endpoint_mixed_lines_in_order(tmp_path):
    pool = _pool(tmp_path)
    lines = [
        json.dumps({"request_id": "a", "circuit": "bell", "shots": 100, "seed": 1}),
        "this is not json",
        json.dumps({"request_id": "b", "circuit": "nope_7", "shots": 10, "seed": 1}),
        json.dumps({"request_id": "c", "circuit": "bell", "shots": 100, "seed": 1}),
    ]

    async def scenario(front):
        return await http_request(
            front.host,
            front.port,
            "POST",
            "/v1/batch",
            body="\n".join(lines).encode(),
        )

    status, _headers, body = _run(_with_server(pool, scenario))
    assert status == 200
    records = [json.loads(line) for line in body.decode().splitlines()]
    assert [r["status"] for r in records] == ["ok", "rejected", "rejected", "ok"]
    assert records[0]["request_id"] == "a"
    assert records[3]["request_id"] == "c"


# ---------------------------------------------------------------------------
# Error mapping
# ---------------------------------------------------------------------------


def test_bad_routes_methods_and_bodies(tmp_path):
    pool = _pool(tmp_path)

    async def scenario(front):
        host, port = front.host, front.port
        return (
            await http_request(host, port, "GET", "/nope"),
            await http_request(host, port, "POST", "/healthz"),
            await http_request(host, port, "GET", "/v1/sample"),
            await http_request(host, port, "POST", "/v1/sample", body=b"{oops"),
            await post_json(host, port, "/v1/sample", {"circuit": "nope_3", "shots": 1}),
        )

    not_found, wrong_health, wrong_sample, bad_json, unresolvable = _run(
        _with_server(pool, scenario)
    )
    assert not_found[0] == 404
    assert wrong_health[0] == 405
    assert wrong_sample[0] == 405
    assert bad_json[0] == 400
    status, payload = unresolvable
    assert status == 400
    assert payload["status"] == "rejected"


def test_worker_side_rejection_maps_to_400(tmp_path):
    pool = _pool(tmp_path)

    async def scenario(front):
        return await post_json(
            front.host,
            front.port,
            "/v1/sample",
            {"circuit": "bell", "shots": -2, "seed": 1},
        )

    status, payload = _run(_with_server(pool, scenario))
    assert status == 400
    assert payload["status"] == "rejected"


def test_mistyped_scalars_answer_400_naming_the_field(tmp_path):
    # Each value used to be coerced and served (100.9 shots as 100,
    # "false" as optimize=True); the dispatcher now refuses it.
    mistyped = [
        ("shots", 100.9),
        ("shots", True),
        ("seed", 7.9),
        ("workers", 2.5),
        ("optimize", "false"),
        ("initial_state", 2.7),
        ("deadline_seconds", "5"),
    ]
    pool = _pool(tmp_path)

    async def scenario(front):
        answers = []
        for field, value in mistyped:
            record = {"circuit": "bell", "shots": 100, "seed": 1, field: value}
            answers.append(
                await post_json(front.host, front.port, "/v1/sample", record)
            )
        return answers

    answers = _run(_with_server(pool, scenario))
    for (field, _value), (status, payload) in zip(mistyped, answers):
        assert status == 400
        assert payload["status"] == "rejected"
        assert f"'{field}'" in payload["error"]


_BELL_QASM = (
    "OPENQASM 2.0;\n"
    'include "qelib1.inc";\n'
    "qreg q[2];\n"
    "h q[0];\n"
    "cx q[0],q[1];\n"
)


def test_qasm_file_specs_rejected_over_the_network(tmp_path):
    # {"qasm_file": ...} would make the server open a client-chosen
    # local path — the wire must answer 400, never read the file.
    target = tmp_path / "probe.qasm"
    target.write_text(_BELL_QASM, encoding="utf-8")
    pool = _pool(tmp_path / "cache")

    async def scenario(front):
        return await post_json(
            front.host,
            front.port,
            "/v1/sample",
            {"circuit": {"qasm_file": str(target)}, "shots": 10, "seed": 1},
        )

    status, payload = _run(_with_server(pool, scenario))
    assert status == 400
    assert payload["status"] == "rejected"
    assert "qasm_file" in payload["error"]


def test_qasm_file_allow_list_serves_inside_and_rejects_outside(tmp_path):
    circuits = tmp_path / "circuits"
    circuits.mkdir()
    (circuits / "bell.qasm").write_text(_BELL_QASM, encoding="utf-8")
    pool = WorkerPool(
        workers=1,
        config=PoolConfig(
            cache_dir=str(tmp_path / "cache"),
            qasm_file_root=str(circuits),
        ),
    ).start()

    async def scenario(front):
        host, port = front.host, front.port
        allowed = await post_json(
            host,
            port,
            "/v1/sample",
            {
                "circuit": {"qasm_file": str(circuits / "bell.qasm")},
                "shots": 100,
                "seed": 1,
            },
        )
        escaped = await post_json(
            host,
            port,
            "/v1/sample",
            {"circuit": {"qasm_file": "/etc/passwd"}, "shots": 10},
        )
        # Missing file under the root: the OSError maps to 400, the
        # connection is answered, and the server keeps serving.
        missing = await post_json(
            host,
            port,
            "/v1/sample",
            {
                "circuit": {"qasm_file": str(circuits / "missing.qasm")},
                "shots": 10,
            },
        )
        again = await post_json(
            host, port, "/v1/sample",
            {"circuit": "bell", "shots": 100, "seed": 1},
        )
        return allowed, escaped, missing, again

    allowed, escaped, missing, again = _run(_with_server(pool, scenario))
    assert allowed[0] == 200 and allowed[1]["status"] == "ok"
    assert escaped[0] == 400 and escaped[1]["status"] == "rejected"
    assert missing[0] == 400 and missing[1]["status"] == "rejected"
    assert again[0] == 200 and again[1]["status"] == "ok"


def test_oversized_header_line_answers_431_not_a_dropped_socket(tmp_path):
    pool = _pool(tmp_path)

    async def scenario(front):
        reader, writer = await asyncio.open_connection(front.host, front.port)
        try:
            # Just over the 64 KiB StreamReader line limit, but small
            # enough to fit loopback socket buffers in one write — the
            # server's 431 + close can't race unsent client data.
            writer.write(
                b"GET /healthz HTTP/1.1\r\n"
                b"X-Junk: " + b"a" * 70_000 + b"\r\n\r\n"
            )
            try:
                await writer.drain()
            except (ConnectionError, OSError):
                pass
            status_line = await asyncio.wait_for(
                reader.readline(), timeout=30.0
            )
            return status_line
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    status_line = _run(_with_server(pool, scenario))
    assert b"431" in status_line


def test_dead_worker_answers_503_instead_of_hanging(tmp_path):
    pool = _pool(tmp_path)

    async def scenario(front):
        request = asyncio.create_task(
            post_json(
                front.host,
                front.port,
                "/v1/sample",
                {"circuit": "qft_10", "shots": 200_000, "seed": 1},
                timeout=60.0,
            )
        )
        for _ in range(500):
            if pool.stats(include_workers=False)["dispatched"] >= 1:
                break
            await asyncio.sleep(0.01)
        pool._processes[0].kill()
        return await request

    status, payload = _run(_with_server(pool, scenario))
    assert status == 503
    assert payload["status"] == "unavailable"
    assert "retry_after" in payload


# ---------------------------------------------------------------------------
# Shedding and drain
# ---------------------------------------------------------------------------


def test_full_window_answers_429_with_retry_after(tmp_path):
    pool = _pool(tmp_path, workers=1, depth=1)

    async def scenario(front):
        host, port = front.host, front.port
        slow = asyncio.create_task(
            post_json(
                host,
                port,
                "/v1/sample",
                {"request_id": "slow", "circuit": "qft_10",
                 "shots": 200_000, "seed": 1},
                timeout=120.0,
            )
        )
        # The slow request must own the single window slot before the
        # hammer starts, else the first hammer request takes it instead
        # and every later (sequential) attempt finds a warm cache.
        for _ in range(500):
            if pool.stats(include_workers=False)["dispatched"] >= 1:
                break
            await asyncio.sleep(0.01)
        # Hammer until the window is observed full; the cold qft_10
        # build makes that a certainty long before the loop runs out.
        shed = None
        for _ in range(200):
            status, headers, body = await http_request(
                host,
                port,
                "POST",
                "/v1/sample",
                body=json.dumps(
                    {"circuit": "qft_10", "shots": 200_000, "seed": 1}
                ).encode(),
            )
            if status == 429:
                shed = (status, headers, json.loads(body))
                break
            await asyncio.sleep(0.01)
        slow_status, slow_payload = await slow
        return shed, slow_status, slow_payload

    shed, slow_status, slow_payload = _run(_with_server(pool, scenario))
    assert shed is not None, "window never overflowed"
    status, headers, payload = shed
    assert status == 429
    assert float(headers["retry-after"]) > 0
    assert payload["status"] == "shed"
    assert slow_status == 200 and slow_payload["status"] == "ok"


def test_draining_server_answers_503(tmp_path):
    pool = _pool(tmp_path)

    async def scenario():
        front = HttpFrontDoor(pool, port=0)
        await front.start()
        host, port = front.host, front.port
        ok_status, _payload = await post_json(
            host, port, "/v1/sample", {"circuit": "bell", "shots": 50, "seed": 1}
        )
        drain = asyncio.create_task(front.drain(pool_timeout=60.0))
        # The listening socket closes during drain; until it does, the
        # route layer answers 503 for non-health paths.
        health = None
        try:
            health = await http_request(host, port, "GET", "/healthz")
        except (ConnectionError, OSError):
            pass
        clean = await drain
        return ok_status, health, clean

    ok_status, health, clean = _run(scenario())
    assert ok_status == 200
    assert clean is True
    if health is not None:  # connection raced the socket close
        assert health[0] == 503
        assert json.loads(health[2])["status"] == "draining"
    assert pool.exit_codes() == [0]


# ---------------------------------------------------------------------------
# Wire identity: worker-encoded bodies pass through byte for byte
# ---------------------------------------------------------------------------


def _in_process_body(service, record, wire_body, extra):
    """``json.dumps(to_dict(top) | extra) + "\\n"`` for ``record`` served
    in this process at the same seed, with the server's timings and cache
    tier (the only fields that legitimately differ) taken from the wire."""
    from repro.service.api import SamplingRequest

    response = service.sample(SamplingRequest.from_record(record))
    wire = json.loads(wire_body)
    response.build_seconds = wire["build_seconds"]
    response.sampling_seconds = wire["sampling_seconds"]
    response.cache = wire["cache"]
    payload = response.to_dict(record.get("top"))
    payload.update(extra)
    return (json.dumps(payload) + "\n").encode()


def test_sample_and_batch_bodies_equal_in_process_encoding(tmp_path):
    from repro.service import SamplingService

    pool = _pool(tmp_path, workers=2)
    full = {"request_id": "full", "circuit": "qft_6", "shots": 3000, "seed": 5}
    top = {"request_id": "top", "circuit": "w_5", "shots": 2000, "seed": 6,
           "top": 2}
    late = {"request_id": "late", "circuit": "qft_12", "shots": 100,
            "seed": 2, "deadline_seconds": 0.001}
    negative = {"request_id": "neg", "circuit": "bell", "shots": 10,
                "seed": 1, "top": -1}

    async def scenario(front):
        host, port = front.host, front.port

        async def post(path, body):
            return await http_request(host, port, "POST", path, body=body)

        answers = {}
        for record in (late, full, top, negative):
            answers[record["request_id"]] = await post(
                "/v1/sample", json.dumps(record).encode()
            )
        lines = [json.dumps(r).encode() for r in (full, negative, top)]
        batch = await post("/v1/batch", b"\n".join(lines))
        return answers, batch

    answers, batch = _run(_with_server(pool, scenario))
    worker = {
        record["request_id"]: pool.worker_for(pool.routing_key(record))
        for record in (full, top, late)
    }
    with SamplingService() as service:
        status, headers, body = answers["late"]
        assert status == 503
        assert headers["retry-after"] == "2"
        assert json.loads(body)["status"] == "deadline_exceeded"
        assert json.loads(body)["retry_after"] == 2
        assert body == _in_process_body(
            service, late, body, {"worker": worker["late"], "retry_after": 2}
        )
        for record in (full, top):
            status, _headers, body = answers[record["request_id"]]
            assert status == 200
            assert body == _in_process_body(
                service, record, body, {"worker": worker[record["request_id"]]}
            )
        assert json.loads(answers["top"][2])["counts_truncated"] > 0
        status, _headers, body = answers["neg"]
        assert status == 400
        assert json.loads(body) == {
            "status": "rejected",
            "error": "top must be non-negative, got -1",
        }

        status, _headers, body = batch
        assert status == 200
        lines = body.splitlines(keepends=True)
        assert len(lines) == 3
        assert lines[0] == _in_process_body(
            service, full, lines[0], {"worker": worker["full"]}
        )
        assert json.loads(lines[1]) == {
            "status": "rejected",
            "error": "line 2: top must be non-negative, got -1",
        }
        assert lines[2] == _in_process_body(
            service, top, lines[2], {"worker": worker["top"]}
        )
    assert pool.exit_codes() == [0, 0]

"""Tests for the sharded multi-worker serve runtime."""

import asyncio
import collections
import json
import time
from pathlib import Path

import pytest

from repro.api.specs import ServeSpec, StoreSpec
from repro.service.sharding import (
    ShardedService,
    shard_for,
    worker_log_path,
)

SPEC = {
    "workload": "uniform",
    "n": 8,
    "k": 3,
    "seed": 5,
    "params": {"width": 0.3},
}


class TestShardFor:
    def test_deterministic_and_in_range(self):
        for workers in (1, 2, 3, 7):
            for index in range(50):
                sid = f"s{index:04d}"
                shard = shard_for(sid, workers)
                assert 0 <= shard < workers
                assert shard == shard_for(sid, workers)

    def test_distribution_is_roughly_even(self):
        counts = collections.Counter(
            shard_for(f"session-{index}", 4) for index in range(400)
        )
        assert set(counts) == {0, 1, 2, 3}
        assert min(counts.values()) > 50

    def test_single_worker_takes_everything(self):
        assert shard_for("anything", 1) == 0

    def test_invalid_arguments_rejected(self):
        with pytest.raises(ValueError):
            shard_for("sid", 0)
        with pytest.raises(ValueError):
            shard_for("sid", 2, strategy="round-robin")


class TestWorkerLogPath:
    def test_inserts_shard_before_suffix(self):
        assert worker_log_path("events.jsonl", 2) == Path("events.w2.jsonl")
        assert worker_log_path(
            Path("/tmp/run/events.jsonl"), 0
        ) == Path("/tmp/run/events.w0.jsonl")

    def test_none_base_stays_none(self):
        assert worker_log_path(None, 3) is None

    def test_shards_never_collide(self):
        paths = {worker_log_path("events.jsonl", s) for s in range(8)}
        assert len(paths) == 8


async def http(host, port, method, path, body=None):
    """Minimal HTTP/1.1 client: one request, one JSON response."""
    reader, writer = await asyncio.open_connection(host, port)
    payload = json.dumps(body).encode() if body is not None else b""
    writer.write(
        (
            f"{method} {path} HTTP/1.1\r\nHost: {host}\r\n"
            f"Content-Length: {len(payload)}\r\n\r\n"
        ).encode()
        + payload
    )
    await writer.drain()
    raw = await reader.read()
    writer.close()
    status = int(raw.split(b" ", 2)[1])
    return status, json.loads(raw.split(b"\r\n\r\n", 1)[1])


def with_fleet(coro, tmp_path, workers=2):
    """Run ``coro(host, port, service)`` against a live 2-worker fleet."""
    spec = ServeSpec(
        host="127.0.0.1",
        port=0,
        workers=workers,
        store=StoreSpec(backend="disk-npz", path=str(tmp_path / "cold")),
        log=str(tmp_path / "events.jsonl"),
        resolution=256,
    )
    service = ShardedService(spec, monitor_interval=0.05)
    service.start_workers()

    async def runner():
        server = await service.start()
        host, port = server.sockets[0].getsockname()[:2]
        try:
            return await coro(host, port, service)
        finally:
            server.close()
            await server.wait_closed()
            await service.shutdown()

    try:
        return asyncio.run(runner())
    finally:
        service.stop_workers()


class TestFleetHttp:
    def test_fleet_lifecycle_and_fanout(self, tmp_path):
        async def scenario(host, port, service):
            # Health fans out to every worker.
            assert await http(host, port, "GET", "/v1/healthz") == (
                200,
                {"ok": True},
            )

            # Meta reports the router topology.
            status, meta = await http(host, port, "GET", "/v1/meta")
            assert status == 200
            assert meta["topology"]["role"] == "router"
            assert meta["topology"]["workers"] == 2
            assert meta["topology"]["strategy"] == "blake2b"

            # Sessions land on the shard their id hashes to and are
            # reachable back through the router.
            sids = []
            for _ in range(6):
                status, created = await http(
                    host, port, "POST", "/v1/sessions", {"spec": SPEC}
                )
                assert status == 200
                sids.append(created["session_id"])

            for sid in sids:
                status, nxt = await http(
                    host, port, "GET", f"/v1/sessions/{sid}/next"
                )
                assert status == 200 and "question" in nxt
                question = nxt["question"]
                status, applied = await http(
                    host,
                    port,
                    "POST",
                    f"/v1/sessions/{sid}/answers",
                    {
                        "i": question["i"],
                        "j": question["j"],
                        "holds": True,
                    },
                )
                assert status == 200
                assert applied["questions_asked"] == 1

            # The merged session list covers both shards.
            status, listed = await http(host, port, "GET", "/v1/sessions")
            assert status == 200
            assert sorted(listed["sessions"]) == sorted(sids)

            # Cluster stats: per-worker payloads plus fleet totals.
            status, stats = await http(host, port, "GET", "/v1/stats")
            assert status == 200
            assert stats["topology"]["role"] == "router"
            assert len(stats["workers"]) == 2
            shards = {worker["shard"] for worker in stats["workers"]}
            assert shards == {0, 1}
            assert stats["sessions"]["active"] == len(sids)
            # Everyone shares one instance: exactly one build fleet-wide.
            assert stats["store"]["builds"] == 1
            assert (
                stats["store"]["cold_hits"] + stats["store"]["cold_waited"]
                >= 1
            )

            # Unknown sessions surface the worker's own 404 envelope.
            status, error = await http(
                host, port, "GET", "/v1/sessions/nope/next"
            )
            assert status == 404
            assert error["error"]["code"] == "not_found"

        with_fleet(scenario, tmp_path)

    def test_unversioned_paths_are_404_at_the_router(self, tmp_path):
        async def scenario(host, port, service):
            for method, path, body in (
                ("GET", "/healthz", None),
                ("POST", "/sessions", {"spec": SPEC}),
                ("GET", "/sessions/x/next", None),
            ):
                status, payload = await http(host, port, method, path, body)
                assert status == 404
                assert payload["error"]["code"] == "not_found"
            # A bare spec (no "spec" wrapper) is a bad /v1 create body.
            status, payload = await http(
                host, port, "POST", "/v1/sessions", SPEC
            )
            assert status == 400
            assert payload["error"]["code"] == "bad_request"
            _, listed = await http(host, port, "GET", "/v1/sessions")
            assert listed["sessions"] == []

        with_fleet(scenario, tmp_path)

    def test_client_chosen_session_id_is_respected(self, tmp_path):
        async def scenario(host, port, service):
            status, created = await http(
                host,
                port,
                "POST",
                "/v1/sessions",
                {"spec": SPEC, "session_id": "pinned"},
            )
            assert status == 200
            assert created["session_id"] == "pinned"
            status, snapshot = await http(
                host, port, "GET", "/v1/sessions/pinned"
            )
            assert status == 200
            # Reusing the id reaches the same shard and conflicts there.
            status, payload = await http(
                host,
                port,
                "POST",
                "/v1/sessions",
                {"spec": SPEC, "session_id": "pinned"},
            )
            assert status == 409
            assert payload["error"]["code"] == "conflict"

        with_fleet(scenario, tmp_path)

    def test_killed_worker_restarts_with_state(self, tmp_path):
        async def scenario(host, port, service):
            status, created = await http(
                host, port, "POST", "/v1/sessions", {"spec": SPEC}
            )
            sid = created["session_id"]
            status, nxt = await http(
                host, port, "GET", f"/v1/sessions/{sid}/next"
            )
            question = nxt["question"]
            await http(
                host,
                port,
                "POST",
                f"/v1/sessions/{sid}/answers",
                {"i": question["i"], "j": question["j"], "holds": True},
            )
            _, before = await http(host, port, "GET", f"/v1/sessions/{sid}")

            shard = shard_for(sid, service.spec.workers)
            service._procs[shard].terminate()

            deadline = time.monotonic() + 30.0
            after = None
            while time.monotonic() < deadline:
                status, payload = await http(
                    host, port, "GET", f"/v1/sessions/{sid}"
                )
                if status == 200:
                    after = payload
                    break
                await asyncio.sleep(0.05)
            assert service.restarts >= 1
            # The restarted worker replayed its shard log: identical state.
            assert after == before

        with_fleet(scenario, tmp_path)

"""Self-tests of the benchmark.

Run from the repository root::

    PYTHONPATH=src python3 -m pytest -q perfbench/selftest.py

They are kept out of the tier-1 suite's file pattern because the smoke
tests launch real servers.
"""

from __future__ import annotations

import asyncio
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import stats, tracing
from perfbench.loadgen import LoadGenerator, validate_body
from perfbench.workloads import (
    WORKLOADS,
    make_plan,
    possible_orderings,
)

ROOT = Path(__file__).resolve().parent.parent
RUN = [sys.executable, str(ROOT / "perfbench" / "run.py")]


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


# -- seeded inputs ---------------------------------------------------------


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_plan_is_a_function_of_the_seed(name):
    workload = WORKLOADS[name]
    first = make_plan(workload, 5, 6, 8)
    again = make_plan(workload, 5, 6, 8)
    other = make_plan(workload, 6, 6, 8)
    assert first == again
    assert first.instances != other.instances
    assert first.arrivals != other.arrivals
    ids = [s.session_id for s in first.capacity + first.latency]
    assert len(set(ids)) == len(ids)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_instances_fall_in_the_workload_band(name):
    from repro.api.specs import InstanceSpec

    workload = WORKLOADS[name]
    plan = make_plan(workload, 9, 4, 4)
    low, high = workload.orderings
    for spec in plan.instances:
        dists = InstanceSpec.from_dict(spec).materialize()
        count = possible_orderings(
            [d.lower for d in dists], [d.upper for d in dists], workload.k
        )
        assert low <= count <= high


def test_fresh_instances_serve_two_capacity_sessions_one_latency_session():
    plan = make_plan(WORKLOADS["fresh-npz"], 2, 6, 6)
    capacity = [s.instance for s in plan.capacity]
    latency = [s.instance for s in plan.latency]
    assert capacity == [0, 0, 1, 1, 2, 2]
    assert latency == [3, 4, 5, 6, 7, 8]
    specs = [json.dumps(spec, sort_keys=True) for spec in plan.instances]
    assert len(set(specs)) == len(specs)


def test_shared_workloads_reuse_their_instances_in_both_phases():
    workload = WORKLOADS["noisy-shared"]
    count = workload.shared_instances
    plan = make_plan(workload, 2, count, count)
    assert len(plan.instances) == count
    assert [s.instance for s in plan.warmup] == list(range(count))
    assert {s.instance for s in plan.capacity} == set(range(count))
    assert {s.instance for s in plan.latency} == set(range(count))


def test_fresh_workloads_need_no_warmup():
    assert make_plan(WORKLOADS["fresh-npz"], 2, 4, 4).warmup == []


def test_reserve_continues_the_latency_schedule():
    plan = make_plan(WORKLOADS["fresh-npz"], 2, 4, 10)
    assert len(plan.latency) == 10 and len(plan.reserve) == 5
    assert len(plan.arrivals) == 15
    assert plan.arrivals == sorted(plan.arrivals)
    # Reserve sessions build fresh instances too.
    assert plan.reserve[0].instance == plan.latency[-1].instance + 1


def test_possible_orderings_matches_brute_force():
    # Disjoint intervals: only the obvious order is possible.
    assert possible_orderings([0.0, 1.0, 2.0], [0.5, 1.5, 2.5], 2) == 1
    # Two overlapping top tuples above a clearly lower third: both
    # orders of the top pair are possible.
    assert possible_orderings([0.0, 1.0, 1.1], [0.5, 2.0, 2.1], 2) == 2
    # Everything overlaps: all 3·2 ordered pairs are possible.
    assert possible_orderings([0.0, 0.1, 0.2], [1.0, 1.1, 1.2], 2) == 6


def test_arrivals_are_poisson_at_the_workload_rate():
    from perfbench.workloads import arrival_offsets

    offsets = arrival_offsets(5.0, 4000, seed=1)
    gaps = [b - a for a, b in zip([0.0, *offsets[:-1]], offsets, strict=True)]
    assert all(g > 0 for g in gaps)
    assert abs(sum(gaps) / len(gaps) - 0.2) < 0.02


# -- percentiles -------------------------------------------------------------


def test_percentile_names_follow_the_ten_beyond_rule():
    assert stats.min_samples(50) == 20
    assert stats.min_samples(90) == 100
    assert stats.min_samples(99) == 1000
    assert stats.supported(99, 1000) and not stats.supported(99, 999)
    assert stats.supported(90, 100) and not stats.supported(90, 99)


def test_a_run_too_short_for_its_percentiles_fails_its_checks():
    from types import SimpleNamespace

    from perfbench.loadgen import Record, SessionOutcome
    from perfbench.run import sample_support

    def generator(sessions, requests):
        records = [
            Record("latency", route, "s", 0.0, 0.0, 0.001, 200, True)
            for route in ("create", "next", "answer")
            for _ in range(requests if route != "create" else sessions)
        ]
        outcomes = {
            str(i): SessionOutcome(str(i), "latency", 0, arrival=0.0, end=0.1)
            for i in range(sessions)
        }
        return SimpleNamespace(records=records, sessions=outcomes)

    assert sample_support(generator(100, 1000)) == []
    problems = sample_support(generator(99, 999))
    assert len(problems) == 4
    assert any("next p99 needs 1000" in p for p in problems)
    assert any("session p90 needs 100" in p for p in problems)


def test_rounds_split_every_session_once_in_order():
    from perfbench.loadgen import split

    items = list(range(11))
    parts = [split(items, 5, index) for index in range(5)]
    assert [x for part in parts for x in part] == items
    assert [len(part) for part in parts] == [2, 2, 2, 2, 3]


def test_percentile_interpolates_like_numpy():
    values = [float(v) for v in range(1, 101)]
    assert stats.percentile(values, 50) == pytest.approx(50.5)
    assert stats.percentile(values, 99) == pytest.approx(99.01)
    assert stats.percentile([], 99) == 0.0


# -- self time ---------------------------------------------------------------


def _span(span_id, parent, start, end, name="x", pid=1):
    return {
        "id": span_id,
        "parent": parent,
        "name": name,
        "start": start,
        "end": end,
        "pid": pid,
    }


def test_self_time_subtracts_the_union_of_children():
    spans = [
        _span(1, 0, 0.0, 10.0),
        _span(2, 1, 1.0, 4.0),  # overlaps its sibling ...
        _span(3, 1, 3.0, 6.0),  # ... so together they cover 1..6
        _span(4, 2, 2.0, 3.0),  # grandchild: only its parent's business
        _span(5, 1, 9.0, 12.0),  # runs past the parent's end: clipped
        _span(1, 0, 0.0, 2.0, pid=2),  # same id, other process
    ]
    own = tracing.self_times(spans)
    assert own[(1, 1)] == pytest.approx(10.0 - 5.0 - 1.0)
    assert own[(1, 2)] == pytest.approx(3.0 - 1.0)
    assert own[(1, 3)] == pytest.approx(3.0)
    assert own[(1, 4)] == pytest.approx(1.0)
    assert own[(2, 1)] == pytest.approx(2.0)


def test_recorder_nests_sync_and_async_spans():
    recorder = tracing.Recorder()

    def inner():
        return 7

    traced_inner = recorder.sync("inner", inner)

    async def outer():
        await asyncio.sleep(0)
        return traced_inner()

    traced_outer = recorder.coroutine("outer", outer)
    assert asyncio.run(traced_outer()) == 7
    spans = {name: (span_id, parent) for span_id, parent, name, *_ in recorder.spans}
    assert spans["inner"][1] == spans["outer"][0]
    assert spans["outer"][1] == 0


def test_route_of_names_the_v1_routes():
    assert tracing.route_of("POST", "/v1/sessions") == ("create", None)
    assert tracing.route_of("GET", "/v1/sessions/a1/next") == ("next", "a1")
    assert tracing.route_of("POST", "/v1/sessions/a1/answers") == ("answer", "a1")
    assert tracing.route_of("GET", "/v1/sessions/a1") == ("snapshot", "a1")
    assert tracing.route_of("GET", "/v1/stats") == ("stats", None)


# -- failure accounting --------------------------------------------------------


def _generator(port: int) -> LoadGenerator:
    return LoadGenerator(make_plan(WORKLOADS["noisy-shared"], 1, 1, 1), port, 2)


def test_refused_connection_counts_as_failed():
    import socket

    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
    # Nothing listens on the port any more.
    generator = _generator(port)
    record, body = asyncio.run(
        generator.call("latency", "next", "GET", "/v1/sessions/x/next")
    )
    assert body is None and not record.ok and record.status == 0
    assert "ConnectionRefusedError" in record.error


def test_not_found_counts_as_failed():
    async def scenario():
        async def reply_404(reader, writer):
            await reader.readline()
            body = b'{"error": {"code": "not_found", "message": "no"}}'
            writer.write(
                b"HTTP/1.1 404 Not Found\r\nContent-Length: %d\r\n"
                b"Connection: close\r\n\r\n%s" % (len(body), body)
            )
            await writer.drain()
            writer.close()

        server = await asyncio.start_server(reply_404, "127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        async with server:
            return await _generator(port).call(
                "latency", "next", "GET", "/v1/sessions/x/next"
            )

    record, body = asyncio.run(scenario())
    assert body is None and not record.ok and record.status == 404


def test_validate_body_rejects_what_the_protocol_would_not_send():
    validate_body("next", {"session_id": "a", "question": {"i": 1, "j": 2}})
    validate_body("next", {"session_id": "a", "done": True})
    with pytest.raises(ValueError):
        validate_body("next", {"session_id": "a"})
    with pytest.raises(ValueError):
        validate_body("next", {"session_id": "a", "question": {"i": 1}})
    with pytest.raises(ValueError):
        validate_body("answer", {"session_id": "a", "questions_asked": 1})
    with pytest.raises(ValueError):
        validate_body("create", {"session_id": "a", "extra": 1})


# -- the committed definition --------------------------------------------------


def test_benchmark_json_matches_the_code():
    from perfbench.run import END_TO_END, NOMINAL_SECONDS

    definition = json.loads((ROOT / "BENCHMARK.json").read_text())
    for entry in definition["workloads"]:
        assert entry["why"] == WORKLOADS[entry["name"]].why
    assert {m["name"]: m["unit"] for m in definition["end_to_end"]} == END_TO_END
    assert [m["name"] for m in definition["per_layer"]] == tracing.metric_names()
    assert len(definition["per_layer"]) <= 128
    for metric in definition["per_layer"]:
        assert metric["unit"] == tracing.layer_unit(metric["name"])
        higher = metric["name"] in tracing.HIGHER_IS_BETTER
        assert metric["better"] == ("higher" if higher else "lower")
    assert definition["run_seconds"] == NOMINAL_SECONDS
    assert all(0 < m["bound"] <= 0.25 for m in definition["end_to_end"])


# -- live smoke runs -------------------------------------------------------------


def test_sessions_that_end_early_are_topped_up_from_the_reserve(tmp_path):
    """A truthful crowd with a budget no session can spend ends every
    session early with ``done``; the latency phase adds reserve sessions
    until the answer floor is met."""
    from dataclasses import replace

    from perfbench.loadgen import drive
    from perfbench.service import Server

    workload = replace(WORKLOADS["fresh-npz"], answers=60, rate=50.0)
    # Four scheduled sessions answer fewer than 50 questions (about 10
    # each) and their two reserve sessions more.
    plan = make_plan(workload, 4, 1, 4)
    server = Server(ROOT, tmp_path, ["-m", "repro", "serve"], workload.serve_args())
    try:
        server.start()
        generator = asyncio.run(
            drive(plan, server.port, 2, min_requests=50)
        )
    finally:
        server.stop()
    latency = [s for s in generator.sessions.values() if s.phase == "latency"]
    assert generator.checks.ok, generator.checks.failures
    assert all(0 < s.acked < workload.answers for s in latency)
    assert len(latency) > 4
    assert sum(s.acked for s in latency) >= 50
    assert generator.latency_shortfall(0, 50) == 0


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_run_passes_every_check(name):
    done = subprocess.run(
        [*RUN, "--workload", name, "--seed", "3", "--quick", "--trace", "0"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    result = _last_json(done.stdout)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] > 0
    from perfbench.run import END_TO_END

    assert list(result["metrics"]) == list(END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_smoke_run_reports_every_layer_metric():
    done = subprocess.run(
        [*RUN, "--workload", "fresh-npz", "--seed", "3", "--quick", "--trace", "1"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    result = _last_json(done.stdout)
    assert result["correct"]
    assert list(result["metrics"]) == tracing.metric_names()
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    for layer in ("builders.build_ms", "serialize.encode_ms",
                  "manager.create_session_ms", "server.request_ms.next"):
        assert metrics[f"{layer}.count"] > 0, layer
    # The cold tier's spans are printed in the table, not reported.
    row = next(
        line.split() for line in done.stdout.splitlines()
        if line.split()[:1] == ["store.cold_put_ms"]
    )
    assert int(row[1]) > 0


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        ROOT / "perfbench",
        tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "noisy-shared",
         "--seed", "1", "--seconds", "10", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=180,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout

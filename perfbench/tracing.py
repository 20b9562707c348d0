"""Per-layer tracing: span wrappers for the traced launcher, and the
analysis that turns their spans into the per-layer metrics.

:func:`install` replaces the public callables at each layer boundary of
``repro`` (plus the private connection handler, which has no public
per-request function) with wrappers that record a span: name, start,
end, parent span, pid, session id where the call carries one, and a few
counts read off the arguments or the result.  Parents follow
:mod:`contextvars`, so spans nest per asyncio task.  Each process keeps
its spans in memory and writes them out when it receives SIGTERM.

A span's *self time* is its duration minus the part of it that its
child spans cover (:func:`self_times`).
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import json
import os
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from perfbench.stats import timing_summary

#: A recorded span, as written to and read from the span files.
Span = Dict[str, Any]


class Recorder:
    """In-memory span store of one process."""

    def __init__(self) -> None:
        self.spans: List[tuple] = []
        self._ids = itertools.count(1)
        self.current: contextvars.ContextVar = contextvars.ContextVar(
            "perfbench_span", default=0
        )
        #: session id → enqueue times of its pending next-question requests.
        self.enqueued: Dict[str, List[float]] = defaultdict(list)

    def record(
        self,
        span_id: int,
        parent: int,
        name: str,
        start: float,
        end: float,
        extra: Dict[str, Any],
    ) -> None:
        self.spans.append((span_id, parent, name, start, end, extra))

    def sync(
        self,
        name: str,
        function: Callable,
        describe: Optional[Callable[..., Dict[str, Any]]] = None,
    ) -> Callable:
        """Wrap a plain function or method."""
        recorder = self

        @functools.wraps(function)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            span_id = next(recorder._ids)
            parent = recorder.current.get()
            token = recorder.current.set(span_id)
            start = time.perf_counter()
            result, error = None, None
            try:
                result = function(*args, **kwargs)
                return result
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = time.perf_counter()
                recorder.current.reset(token)
                extra = describe(start, result, *args, **kwargs) if describe else {}
                if error:
                    extra["error"] = error
                recorder.record(span_id, parent, name, start, end, extra)

        return wrapper

    def coroutine(
        self,
        name: str,
        function: Callable,
        describe: Optional[Callable[..., Dict[str, Any]]] = None,
    ) -> Callable:
        """Wrap an ``async def`` function or method."""
        recorder = self

        @functools.wraps(function)
        async def wrapper(*args: Any, **kwargs: Any) -> Any:
            span_id = next(recorder._ids)
            parent = recorder.current.get()
            token = recorder.current.set(span_id)
            start = time.perf_counter()
            error = None
            try:
                return await function(*args, **kwargs)
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = time.perf_counter()
                recorder.current.reset(token)
                extra = describe(*args, **kwargs) if describe else {}
                if error:
                    extra["error"] = error
                recorder.record(span_id, parent, name, start, end, extra)

        return wrapper

    def dump(self, directory: Path) -> None:
        """Write this process's spans to ``directory/spans.<pid>.json``."""
        directory.mkdir(parents=True, exist_ok=True)
        pid = os.getpid()
        rows = [
            {
                "id": span_id,
                "parent": parent,
                "name": name,
                "start": start,
                "end": end,
                "pid": pid,
                **extra,
            }
            for span_id, parent, name, start, end, extra in list(self.spans)
        ]
        path = directory / f"spans.{pid}.json"
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(rows))
        tmp.replace(path)


# ----------------------------------------------------------------------
# What each wrapper reads off its call
# ----------------------------------------------------------------------


class _SniffingReader:
    """Stream reader proxy that keeps the request line and body, so the
    connection span knows its route and session."""

    def __init__(self, reader: Any) -> None:
        self._reader = reader
        self.request_line = b""
        self.body = b""

    async def readline(self) -> bytes:
        line = await self._reader.readline()
        if not self.request_line:
            self.request_line = line
        return line

    async def readexactly(self, count: int) -> bytes:
        self.body = await self._reader.readexactly(count)
        return self.body

    def __getattr__(self, name: str) -> Any:
        return getattr(self._reader, name)


def route_of(method: str, path: str) -> Tuple[str, Optional[str]]:
    """``(route, session id)`` of a ``/v1`` request."""
    segments = [s for s in path.split("?", 1)[0].split("/") if s]
    if segments[:1] == ["v1"]:
        segments = segments[1:]
    if segments == ["sessions"] and method == "POST":
        return "create", None
    if len(segments) >= 2 and segments[0] == "sessions":
        tail = segments[2:]
        route = {
            (): "snapshot",
            ("next",): "next",
            ("answers",): "answer",
            ("close",): "close",
        }.get(tuple(tail), "other")
        return route, segments[1]
    return (segments[0] if segments else "other"), None


def _request_line(line: bytes) -> Tuple[str, str]:
    parts = line.decode("latin-1").split()
    return (parts[0], parts[1]) if len(parts) >= 2 else ("", "")


def install(recorder: Recorder) -> None:
    """Replace every traced callable in ``repro`` with its wrapper."""
    from repro.core import session as core_session
    from repro.questions.residual import ResidualEvaluator
    from repro.service import cache as service_cache
    from repro.service import server as service_server
    from repro.service import store as service_store
    from repro.service.manager import SessionManager
    from repro.tpo.builders import TPOBuilder
    from repro.tpo.space import OrderingSpace
    from repro.uncertainty.entropy import EntropyMeasure

    # -- HTTP: the private per-request entry point -----------------------
    def connection_extra(reader: Any, *_: Any, **__: Any) -> Dict[str, Any]:
        method, path = _request_line(reader.request_line)
        route, sid = route_of(method, path)
        if route == "create" and reader.body:
            try:
                sid = json.loads(reader.body).get("session_id")
            except (ValueError, AttributeError):
                sid = None
        return {"route": route, "sid": sid}

    traced_handle = recorder.coroutine(
        "server.request", service_server._handle_connection, connection_extra
    )

    async def handle_connection(reader: Any, *args: Any, **kwargs: Any) -> None:
        await traced_handle(_SniffingReader(reader), *args, **kwargs)

    service_server._handle_connection = handle_connection

    batcher_request = service_server.NextQuestionBatcher.request

    def request(self: Any, session_id: str) -> Any:
        start = time.perf_counter()
        span_id = next(recorder._ids)
        parent = recorder.current.get()
        recorder.enqueued[session_id].append(start)
        token = recorder.current.set(span_id)
        try:
            future = batcher_request(self, session_id)
        finally:
            recorder.current.reset(token)
        future.add_done_callback(
            lambda _: recorder.record(
                span_id,
                parent,
                "server.batch",
                start,
                time.perf_counter(),
                {"sid": session_id},
            )
        )
        return future

    service_server.NextQuestionBatcher.request = request
    service_server.Context.flush_log = recorder.coroutine(
        "server.flush", service_server.Context.flush_log
    )

    # -- manager ----------------------------------------------------------
    original_next = SessionManager.next_questions

    def next_questions(self: Any, session_ids: Iterable[str]) -> Any:
        ids = list(session_ids)
        return traced_next(self, ids)

    def next_extra(start: float, result: Any, self: Any, ids: List[str]) -> Dict[str, Any]:
        waits = []
        for sid in ids:
            pending = recorder.enqueued.get(sid)
            if pending:
                waits.append((start - pending.pop(0)) * 1000.0)
        return {"batch": len(ids), "batch_wait_ms": waits}

    traced_next = recorder.sync("manager.next_questions", original_next, next_extra)
    SessionManager.next_questions = functools.wraps(original_next)(next_questions)
    SessionManager.submit_answer = recorder.sync(
        "manager.submit_answer",
        SessionManager.submit_answer,
        lambda start, result, self, sid, *a, **k: {"sid": sid},
    )
    SessionManager.create_session = recorder.sync(
        "manager.create_session",
        SessionManager.create_session,
        lambda start, result, *a, **k: {"sid": result},
    )
    SessionManager.flush_log = recorder.sync(
        "manager.flush_log",
        SessionManager.flush_log,
        lambda start, result, *a, **k: {"events": result or 0},
    )

    # -- question selection ------------------------------------------------
    core_session.relevant_questions = recorder.sync(
        "candidates.relevant_questions",
        core_session.relevant_questions,
        lambda start, result, *a, **k: {"pool": len(result or ())},
    )
    ResidualEvaluator.rank_singles_many = recorder.sync(
        "residual.rank", ResidualEvaluator.rank_singles_many
    )
    ResidualEvaluator.apply_answer = recorder.sync(
        "residual.apply_answer", ResidualEvaluator.apply_answer
    )
    for method in ("evaluate_batch", "evaluate_restrictions"):
        setattr(
            EntropyMeasure,
            method,
            recorder.sync("uncertainty.evaluate", getattr(EntropyMeasure, method)),
        )

    # -- ordering space ------------------------------------------------------
    OrderingSpace.stance_matrix = recorder.sync(
        "space.stance_matrix",
        OrderingSpace.stance_matrix,
        lambda start, result, *a, **k: {
            "cells": 0 if result is None else int(result.size)
        },
    )
    OrderingSpace.reweight_by_answer = recorder.sync(
        "space.reweight", OrderingSpace.reweight_by_answer
    )
    OrderingSpace.condition = recorder.sync(
        "space.condition", OrderingSpace.condition
    )

    # -- store, codec, builders ----------------------------------------------
    for cls in (service_cache.TPOCache, service_store.TwoTierStore):
        cls.get_space = recorder.sync("store.get_space", cls.get_space)
    service_store.ColdTier.get = recorder.sync(
        "store.cold_get",
        service_store.ColdTier.get,
        lambda start, result, *a, **k: {"hit": result is not None},
    )
    service_store.ColdTier.put = recorder.sync(
        "store.cold_put", service_store.ColdTier.put
    )
    service_store.tree_to_npz = recorder.sync(
        "serialize.encode",
        service_store.tree_to_npz,
        lambda start, result, *a, **k: {
            "bytes": Path(result).stat().st_size if result else 0
        },
    )
    service_store.tree_from_npz = recorder.sync(
        "serialize.decode", service_store.tree_from_npz
    )
    service_cache.tree_to_dict = recorder.sync(
        "serialize.encode", service_cache.tree_to_dict
    )
    service_cache.tree_from_dict = recorder.sync(
        "serialize.decode", service_cache.tree_from_dict
    )
    TPOBuilder.build = recorder.sync(
        "builders.build",
        TPOBuilder.build,
        lambda start, result, *a, **k: {
            "leaves": 0 if result is None else int(result.ordering_count())
        },
    )


# ----------------------------------------------------------------------
# Analysis
# ----------------------------------------------------------------------


def load_spans(directory: Path) -> List[Span]:
    """Every span written by every process of a traced server."""
    spans: List[Span] = []
    for path in sorted(directory.glob("spans.*.json")):
        spans.extend(json.loads(path.read_text()))
    return spans


def _covered(intervals: List[Tuple[float, float]], low: float, high: float) -> float:
    """Length of ``[low, high]`` covered by the union of ``intervals``."""
    clipped = sorted(
        (max(a, low), min(b, high)) for a, b in intervals if b > low and a < high
    )
    total, reach = 0.0, low
    for a, b in clipped:
        if b <= reach:
            continue
        total += b - max(a, reach)
        reach = b
    return total


def self_times(spans: List[Span]) -> Dict[Tuple[int, int], float]:
    """Self time in seconds of every span, keyed by ``(pid, id)``.

    A span's self time is its duration minus the part of its interval
    that its child spans (same process, ``parent`` = its id) cover.
    """
    children: Dict[Tuple[int, int], List[Tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span["parent"]:
            children[(span["pid"], span["parent"])].append(
                (span["start"], span["end"])
            )
    result = {}
    for span in spans:
        key = (span["pid"], span["id"])
        duration = span["end"] - span["start"]
        covered = _covered(children.get(key, []), span["start"], span["end"])
        result[key] = duration - covered
    return result


#: Timed per-layer metric → (span names, "duration" or "self").  Spans
#: nested directly inside a span of the same name are not counted again.
TIMED_SPANS = {
    "manager.next_questions_ms": (("manager.next_questions",), "duration"),
    "manager.submit_answer_ms": (("manager.submit_answer",), "duration"),
    "manager.create_session_ms": (("manager.create_session",), "duration"),
    "manager.flush_log_ms": (("manager.flush_log",), "duration"),
    "candidates.relevant_questions_ms": (
        ("candidates.relevant_questions",),
        "duration",
    ),
    "space.stance_matrix_ms": (("space.stance_matrix",), "duration"),
    "space.update_ms": (("space.reweight", "space.condition"), "duration"),
    "space.reweight_ms": (("space.reweight",), "duration"),
    "space.condition_ms": (("space.condition",), "duration"),
    "residual.rank_ms": (("residual.rank",), "self"),
    "residual.apply_answer_ms": (("residual.apply_answer",), "duration"),
    "uncertainty.evaluate_ms": (("uncertainty.evaluate",), "duration"),
    "store.get_space_ms": (("store.get_space",), "duration"),
    "store.cold_get_ms": (("store.cold_get",), "duration"),
    "store.cold_put_ms": (("store.cold_put",), "duration"),
    "serialize.encode_ms": (("serialize.encode",), "duration"),
    "serialize.decode_ms": (("serialize.decode",), "duration"),
    "builders.build_ms": (("builders.build",), "duration"),
}

#: Printed in the table but not reported as metrics: layers that one of
#: the workloads never reaches (the cold tier runs only behind disk-npz;
#: a noisy crowd only reweights and a truthful one only conditions), so
#: their times would read 0 on every run of it.
TABLE_ONLY = {
    "space.reweight_ms",
    "space.condition_ms",
    "store.cold_get_ms",
    "store.cold_put_ms",
}

#: Routes whose request spans get their own ``server.request_ms.<route>``.
ROUTES = ("create", "next", "answer")

#: Counter per-layer metrics and their units.
COUNTERS = {
    "server.batch_size": "requests",
    "manager.events_per_flush": "events",
    "manager.rankings_computed": "count",
    "manager.ranking_reuse_share": "share",
    "candidates.pool_size": "pairs",
    "space.stance_cells": "count",
    "residual.evaluations": "count",
    "residual.contradictions": "count",
    "store.hit_rate": "share",
    "store.builds": "count",
    "serialize.bytes": "bytes",
    "builders.leaves": "count",
}

#: Per-layer metrics where a larger value is the better one.
HIGHER_IS_BETTER = {
    "server.batch_size",
    "manager.events_per_flush",
    "manager.ranking_reuse_share",
    "store.hit_rate",
}

#: Waiting spans: their self time is time awaited, not time busy.
WAITING_SPANS = {"server.batch", "server.flush", "server.request"}


def timed_metric_names() -> List[str]:
    """Every timed per-layer metric prefix, in report order."""
    return [
        *(f"server.request_ms.{route}" for route in ROUTES),
        "server.self_ms",
        "server.wait_ms",
        "server.batch_wait_ms",
        *TIMED_SPANS,
        "loadgen.late_ms",
        "loadgen.admission_wait_ms",
    ]


def metric_names() -> List[str]:
    """Every per-layer metric the traced run reports."""
    names = []
    for prefix in timed_metric_names():
        if prefix not in TABLE_ONLY:
            names += list(timing_summary(prefix, []))
    return names + [name for name in COUNTERS if name not in TABLE_ONLY]


def layer_unit(metric: str) -> str:
    """Unit of a per-layer metric name."""
    if metric in COUNTERS:
        return COUNTERS[metric]
    return "count" if metric.endswith(".count") else "ms"


def per_layer(run: Any) -> Tuple[Dict[str, float], List[str]]:
    """Per-layer metrics and the layer self-time table of a traced pass."""
    from perfbench.loadgen import scrape_stats

    spans = run.spans or []
    by_key = {(s["pid"], s["id"]): s for s in spans}
    own = self_times(spans)

    def nested_in_same(span: Span) -> bool:
        parent = by_key.get((span["pid"], span["parent"]))
        return parent is not None and parent["name"] == span["name"]

    named: Dict[str, List[Span]] = defaultdict(list)
    for span in spans:
        if not nested_in_same(span):
            named[span["name"]].append(span)

    def ms(span: Span, kind: str = "duration") -> float:
        if kind == "self":
            return own[(span["pid"], span["id"])] * 1000.0
        return (span["end"] - span["start"]) * 1000.0

    metrics: Dict[str, float] = {}
    requests = [s for s in named["server.request"] if s.get("route") in ROUTES]
    for metric, (names, kind) in TIMED_SPANS.items():
        metrics.update(
            timing_summary(
                metric, [ms(s, kind) for name in names for s in named[name]]
            )
        )
    for route in ROUTES:
        metrics.update(
            timing_summary(
                f"server.request_ms.{route}",
                [ms(s) for s in requests if s["route"] == route],
            )
        )
    metrics.update(timing_summary("server.self_ms", [ms(s, "self") for s in requests]))
    metrics.update(timing_summary("server.wait_ms", _server_waits(run.generator, requests)))
    metrics.update(
        timing_summary(
            "server.batch_wait_ms",
            [w for s in named["manager.next_questions"] for w in s.get("batch_wait_ms", [])],
        )
    )
    generator = run.generator
    latency_records = [r for r in generator.records if r.phase == "latency"]
    metrics.update(timing_summary("loadgen.late_ms", [r.late_ms for r in latency_records]))
    metrics.update(
        timing_summary(
            "loadgen.admission_wait_ms",
            [
                (s.admitted - s.arrival) * 1000.0
                for s in generator.sessions.values()
                if s.phase == "latency"
            ],
        )
    )
    stats = scrape_stats(generator.verdict["stats"])
    flushes = named["manager.flush_log"]
    pools = [s["pool"] for s in named["candidates.relevant_questions"]]
    reused = stats["rankings_memo_hits"] + stats["rankings_coalesced"]
    rankings = reused + stats["rankings_computed"]
    metrics.update(
        {
            "server.batch_size": (
                stats["next_requests"] / stats["next_batches"]
                if stats["next_batches"]
                else 0.0
            ),
            "manager.events_per_flush": (
                sum(s["events"] for s in flushes) / len(flushes) if flushes else 0.0
            ),
            "manager.rankings_computed": float(stats["rankings_computed"]),
            "manager.ranking_reuse_share": reused / rankings if rankings else 0.0,
            "candidates.pool_size": sum(pools) / len(pools) if pools else 0.0,
            "space.stance_cells": float(sum(s["cells"] for s in named["space.stance_matrix"])),
            "residual.evaluations": float(stats["evaluations"]),
            "residual.contradictions": float(stats["contradictions"]),
            "store.hit_rate": stats["hit_rate"],
            "store.builds": float(stats["builds"]),
            "serialize.bytes": float(sum(s.get("bytes", 0) for s in named["serialize.encode"])),
            "builders.leaves": float(sum(s["leaves"] for s in named["builders.build"])),
        }
    )
    table = timed_table(metrics) + [
        f"  {name:<34} {metrics[name]:.6g}" for name in COUNTERS
    ] + layer_table(spans, own)
    return {name: metrics[name] for name in metric_names()}, table


def timed_table(metrics: Dict[str, float]) -> List[str]:
    """One line per timed per-layer metric; ``*`` marks a p99 that its
    sample count does not support."""
    from perfbench.stats import supported

    lines = [f"  {'timed span':<34} {'count':>7} {'p50 ms':>9} {'p99 ms':>10} {'sum ms':>10}"]
    for prefix in timed_metric_names():
        count = int(metrics[f"{prefix}.count"])
        mark = " " if supported(99, count) else "*"
        lines.append(
            f"  {prefix:<34} {count:>7} {metrics[f'{prefix}.p50']:>9.3f} "
            f"{metrics[f'{prefix}.p99']:>9.3f}{mark} {metrics[f'{prefix}.sum']:>10.1f}"
        )
    return lines


def _server_waits(generator: Any, requests: List[Span]) -> List[float]:
    """Client-observed time in flight minus the worker's request span,
    for every latency-phase request matched to its span by (route,
    session, order)."""
    spans: Dict[Tuple[str, str], List[Span]] = defaultdict(list)
    for span in sorted(requests, key=lambda s: s["start"]):
        spans[(span["route"], span["sid"])].append(span)
    waits = []
    seen: Dict[Tuple[str, str], int] = defaultdict(int)
    for record in generator.records:
        if record.route not in ROUTES or not record.ok:
            continue
        key = (record.route, record.session_id)
        index = seen[key]
        seen[key] += 1
        if index < len(spans.get(key, [])) and record.phase == "latency":
            span = spans[key][index]
            in_flight = (record.done - record.sent) * 1000.0
            waits.append(in_flight - (span["end"] - span["start"]) * 1000.0)
    return waits


def layer_table(spans: List[Span], own: Dict[Tuple[int, int], float]) -> List[str]:
    """Self time per layer, as a share of the time spent inside the
    manager API (the worker's computing time)."""
    layer_ms: Dict[str, float] = defaultdict(float)
    manager_ms = 0.0
    for span in spans:
        name = span["name"]
        if name in WAITING_SPANS:
            continue
        layer_ms[name] += own[(span["pid"], span["id"])] * 1000.0
        if name.startswith("manager.") and name != "manager.flush_log":
            manager_ms += (span["end"] - span["start"]) * 1000.0
    lines = [
        "layer self time (share of time inside manager create/next/answer)",
        f"  {'span':<32} {'self ms':>10} {'share':>7}",
    ]
    for name, value in sorted(layer_ms.items(), key=lambda item: -item[1]):
        share = value / manager_ms if manager_ms and name != "manager.flush_log" else 0.0
        shown = f"{share:>7.1%}" if name != "manager.flush_log" else "    n/a"
        lines.append(f"  {name:<32} {value:>10.1f} {shown}")
    lines.append(f"  {'(manager API total)':<32} {manager_ms:>10.1f}")
    return lines

"""Single-process HTTP load generator and its correctness checks.

Two phases drive one :class:`~perfbench.workloads.Plan` through the
public ``/v1`` API, never with more than ``clients`` connections open,
after an untimed warm-up that creates one session per shared instance
so that the capacity phase measures warm ranking, not builds:

* **capacity** — a closed loop: ``clients`` coroutines run sessions back
  to back, each request sent as soon as the previous one returns;
* **latency** — an open loop: sessions arrive on the plan's Poisson
  schedule, at most ``clients`` in flight; a later arrival waits in the
  generator, and that wait counts.

The phases alternate in :data:`ROUNDS` rounds, each with an equal slice
of both, so that a slow spell of a shared machine shares its cost out
over both phases instead of landing on one whole phase.  If sessions that end early with ``done`` leave a route short of
the samples its percentiles need, sessions of the plan's reserve follow
on the schedule, outside any round, until it is not.

Every request is timed from when it was *due*: a session's create from
when the generator admitted the session, every later request from the
moment the previous reply arrived.  So a stall in the server or the
generator shows in the latencies of the requests it delays.  The wait
for admission is not part of the create latency (at the open-loop rate
its p90 is set by how Poisson arrivals happen to cluster, and moves by
more than half between runs of one seed); it is reported on its own and
counts in the session latency, which runs from the scheduled arrival.
A request that gets a non-2xx status, a refused or reset connection, a
malformed reply or no reply within :data:`REQUEST_TIMEOUT` counts as
failed.

Crowd answers come from :class:`repro.service.bench.SessionCrowd`: a pure
function of (instance ground truth, session id, pair), so results do not
depend on how requests interleave.  Every 200 body is parsed back into
its :mod:`repro.service.protocol` response type; a body that does not
round-trip, an out-of-range question, or an answer count the server
disagrees with is a check failure.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import math
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from perfbench.workloads import Plan, PlannedSession

#: Seconds a request may take before it counts as failed.
REQUEST_TIMEOUT = 30.0
#: Rounds of (capacity slice, latency slice) in a run.
ROUNDS = 5


@dataclass
class Record:
    """One HTTP request as the generator saw it (``perf_counter`` times)."""

    phase: str
    route: str
    session_id: Optional[str]
    #: When the request was due: when the session was admitted for a
    #: create, the previous reply for every later request.
    due: float
    sent: float
    done: float
    status: int
    ok: bool
    error: str = ""

    @property
    def latency_ms(self) -> float:
        """From when the request was due to its last reply byte."""
        return (self.done - self.due) * 1000.0

    @property
    def late_ms(self) -> float:
        """How late the generator sent it."""
        return (self.sent - self.due) * 1000.0


@dataclass
class SessionOutcome:
    """What one session did, as acknowledged by the server."""

    session_id: str
    phase: str
    instance: int
    arrival: float
    admitted: float = 0.0
    end: float = 0.0
    created: bool = False
    acked: int = 0
    failed: bool = False


@dataclass
class Checks:
    """Correctness verdicts gathered during and after a run."""

    failures: List[str] = field(default_factory=list)
    bodies_checked: int = 0

    def fail(self, message: str) -> None:
        if len(self.failures) < 50:
            self.failures.append(message)
        else:
            self.failures[-1] = f"... and more ({message})"

    @property
    def ok(self) -> bool:
        return not self.failures


# ----------------------------------------------------------------------
# Response validation against the protocol types
# ----------------------------------------------------------------------


def validate_body(route: str, body: Any) -> None:
    """Raise ``ValueError`` unless ``body`` round-trips through its
    :mod:`repro.service.protocol` response type."""
    from repro.service import protocol as p

    if not isinstance(body, dict):
        raise ValueError(f"{route}: body is not a JSON object")
    try:
        if route == "create":
            parsed = p.CreateSessionResponse(**body).to_payload()
        elif route == "next":
            question = body.get("question")
            extra = set(body) - {"session_id", "question", "done"}
            if extra or ("done" in body) == (question is not None):
                raise ValueError(f"next: unexpected shape {sorted(body)}")
            parsed = p.NextQuestionResponse(
                session_id=body["session_id"],
                question=(
                    None
                    if question is None
                    else (question["i"], question["j"])
                ),
            ).to_payload()
        elif route == "answer":
            parsed = p.AnswerResponse.from_summary(body).to_payload()
        elif route == "snapshot":
            parsed = p.SnapshotResponse.from_snapshot(body).to_payload()
        elif route == "stats":
            fields = dict(body)
            fields.pop("store")
            fields["topology"] = p.TopologyInfo(**fields["topology"])
            parsed = p.StatsResponse(**fields).to_payload()
        else:
            raise ValueError(f"no protocol type for route {route!r}")
    except (KeyError, TypeError) as exc:
        raise ValueError(f"{route}: {type(exc).__name__} {exc}") from None
    if parsed != body:
        raise ValueError(f"{route}: body does not round-trip: {body!r}")


# ----------------------------------------------------------------------
# HTTP
# ----------------------------------------------------------------------


class Client:
    """Raw HTTP/1.1 over asyncio streams; one connection per request,
    as the service closes each connection after its reply."""

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port

    async def exchange(
        self, method: str, path: str, payload: Any = None
    ) -> Tuple[int, Any]:
        """Send one request; returns ``(status, decoded JSON body)``."""
        body = b"" if payload is None else json.dumps(payload).encode()
        reader, writer = await asyncio.open_connection(self.host, self.port)
        try:
            writer.write(
                (
                    f"{method} {path} HTTP/1.1\r\n"
                    f"Host: {self.host}:{self.port}\r\n"
                    "Content-Type: application/json\r\n"
                    f"Content-Length: {len(body)}\r\n"
                    "Connection: close\r\n\r\n"
                ).encode("latin-1")
                + body
            )
            await writer.drain()
            raw = await reader.read(-1)
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except OSError:
                pass
        head, _, data = raw.partition(b"\r\n\r\n")
        status_line = head.split(b"\r\n", 1)[0].split()
        if len(status_line) < 2 or not status_line[1].isdigit():
            raise ValueError("malformed status line")
        return int(status_line[1]), json.loads(data) if data.strip() else None


# ----------------------------------------------------------------------
# The generator
# ----------------------------------------------------------------------


class LoadGenerator:
    """Runs a plan's two phases against one server and checks replies."""

    def __init__(self, plan: Plan, port: int, clients: int) -> None:
        self.plan = plan
        self.client = Client("127.0.0.1", port)
        self.clients = clients
        self.records: List[Record] = []
        self.sessions: Dict[str, SessionOutcome] = {}
        self.checks = Checks()
        self.truths = _ground_truths(plan.instances)
        self.phase_seconds: Dict[str, float] = {"capacity": 0.0, "latency": 0.0}
        #: Capacity-phase sessions completed, and per second in each round.
        self.capacity_completed = 0
        self.capacity_rates: List[float] = []
        #: ``/v1/stats`` and the top-K share (set by :func:`drive`).
        self.verdict: Dict[str, Any] = {}

    async def call(
        self,
        phase: str,
        route: str,
        method: str,
        path: str,
        payload: Any = None,
        due: Optional[float] = None,
        session_id: Optional[str] = None,
    ) -> Tuple[Record, Any]:
        """One timed, validated request; the body is ``None`` on failure."""
        sent = time.perf_counter()
        status, body, error = 0, None, ""
        try:
            status, body = await asyncio.wait_for(
                self.client.exchange(method, path, payload),
                REQUEST_TIMEOUT,
            )
        except asyncio.TimeoutError:
            error = "timeout"
        except (OSError, ValueError, asyncio.IncompleteReadError) as exc:
            error = f"{type(exc).__name__}: {exc}"
        done = time.perf_counter()
        ok = 200 <= status < 300
        if status and not ok:
            error = f"HTTP {status}: {body!r}"[:300]
        if ok:
            try:
                validate_body(route, body)
                self.checks.bodies_checked += 1
            except ValueError as exc:
                self.checks.fail(str(exc))
                ok, error = False, "invalid body"
        record = Record(
            phase,
            route,
            session_id,
            sent if due is None else due,
            sent,
            done,
            status,
            ok,
            error,
        )
        self.records.append(record)
        return record, body if ok else None

    async def run_session(
        self, planned: PlannedSession, phase: str, due: float
    ) -> None:
        """Create one session and answer until its budget or ``done``."""
        from repro.questions.model import Question
        from repro.service.bench import SessionCrowd

        workload = self.plan.workload
        sid = planned.session_id
        outcome = SessionOutcome(sid, phase, planned.instance, arrival=due)
        outcome.admitted = time.perf_counter()
        self.sessions[sid] = outcome
        crowd = SessionCrowd(
            self.truths[planned.instance],
            salt=sid,
            flip_percent=workload.flip_percent,
            accuracy=workload.accuracy,
        )
        record, body = await self.call(
            phase,
            "create",
            "POST",
            "/v1/sessions",
            {"spec": planned.spec, "session_id": sid},
            due=outcome.admitted,
            session_id=sid,
        )
        outcome.end = record.done
        if body is None:
            outcome.failed = True
            return
        outcome.created = True
        if body["session_id"] != sid:
            self.checks.fail(f"create returned id {body['session_id']!r}")
        while outcome.acked < workload.answers:
            record, body = await self.call(
                phase,
                "next",
                "GET",
                f"/v1/sessions/{sid}/next",
                due=outcome.end,
                session_id=sid,
            )
            outcome.end = record.done
            if body is None:
                outcome.failed = True
                return
            if body.get("done"):
                return
            i, j = body["question"]["i"], body["question"]["j"]
            if not (
                isinstance(i, int)
                and isinstance(j, int)
                and 0 <= i < j < workload.n
            ):
                self.checks.fail(f"{sid}: question ({i}, {j}) out of range")
                outcome.failed = True
                return
            answer = crowd.ask(Question(i, j))
            record, body = await self.call(
                phase,
                "answer",
                "POST",
                f"/v1/sessions/{sid}/answers",
                {
                    "i": i,
                    "j": j,
                    "holds": bool(answer.holds),
                    "accuracy": answer.accuracy,
                },
                due=outcome.end,
                session_id=sid,
            )
            outcome.end = record.done
            if body is None:
                outcome.failed = True
                return
            outcome.acked += 1
            if body["questions_asked"] != outcome.acked:
                self.checks.fail(
                    f"{sid}: server counts {body['questions_asked']} "
                    f"answers, generator {outcome.acked}"
                )

    async def warmup_phase(self) -> None:
        """Create one session per shared instance, so that every build
        happens before the capacity clock starts."""
        slots = asyncio.Semaphore(self.clients)

        async def create(planned: PlannedSession) -> None:
            sid = planned.session_id
            outcome = SessionOutcome(sid, "warmup", planned.instance, 0.0)
            self.sessions[sid] = outcome
            async with slots:
                _, body = await self.call(
                    "warmup",
                    "create",
                    "POST",
                    "/v1/sessions",
                    {"spec": planned.spec, "session_id": sid},
                    session_id=sid,
                )
            outcome.created = body is not None
            outcome.failed = body is None

        await asyncio.gather(*(create(p) for p in self.plan.warmup))

    async def closed_loop(self, sessions: Sequence[PlannedSession]) -> None:
        """Run ``sessions`` back to back on ``clients`` coroutines."""
        if not sessions:
            return
        pending = iter(sessions)
        started = time.perf_counter()

        async def client_loop() -> None:
            for planned in pending:
                await self.run_session(
                    planned, "capacity", time.perf_counter()
                )

        await asyncio.gather(*(client_loop() for _ in range(self.clients)))
        elapsed = time.perf_counter() - started
        self.phase_seconds["capacity"] += elapsed
        ids = {planned.session_id for planned in sessions}
        completed = sum(1 for sid in ids if not self.sessions[sid].failed)
        self.capacity_completed += completed
        self.capacity_rates.append(completed / elapsed)

    async def open_loop(
        self, arrivals: Sequence[Tuple[PlannedSession, float]]
    ) -> None:
        """Sessions arriving ``gap`` seconds after each other, starting
        now, at most ``clients`` in flight."""
        slots = asyncio.Semaphore(self.clients)
        loop = asyncio.get_running_loop()
        started = time.perf_counter()
        # Schedule against the loop clock, record against perf_counter.
        loop_started = loop.time()

        async def arrive(planned: PlannedSession, offset: float) -> None:
            await asyncio.sleep(loop_started + offset - loop.time())
            async with slots:
                await self.run_session(planned, "latency", started + offset)

        offsets = itertools.accumulate(gap for _, gap in arrivals)
        await asyncio.gather(
            *(
                arrive(planned, offset)
                for (planned, _), offset in zip(arrivals, offsets)
            )
        )
        self.phase_seconds["latency"] += time.perf_counter() - started

    def latency_shortfall(self, min_sessions: int, min_requests: int) -> int:
        """Latency-phase sessions still needed for ``min_sessions``
        sessions and ``min_requests`` next and answer requests, if each
        further session used its whole answer budget."""
        sessions = sum(1 for s in self.sessions.values() if s.phase == "latency")
        # Every answer follows a next request, so answers are the fewer.
        answers = sum(
            1
            for r in self.records
            if r.phase == "latency" and r.route == "answer"
        )
        return max(
            min_sessions - sessions,
            math.ceil((min_requests - answers) / self.plan.workload.answers),
            0,
        )

    async def run(self, min_sessions: int, min_requests: int) -> None:
        """Warm-up, then :data:`ROUNDS` rounds of a capacity slice followed
        by a latency slice, then reserve sessions until
        :meth:`latency_shortfall` is 0."""
        await self.warmup_phase()
        arrivals = self.plan.arrivals
        gaps = [b - a for a, b in zip([0.0, *arrivals[:-1]], arrivals)]
        nominal = len(self.plan.latency)
        scheduled = list(zip(self.plan.latency + self.plan.reserve, gaps, strict=True))
        for index in range(ROUNDS):
            await self.closed_loop(split(self.plan.capacity, ROUNDS, index))
            await self.open_loop(split(scheduled[:nominal], ROUNDS, index))
        reserve = scheduled[nominal:]
        while reserve:
            count = self.latency_shortfall(min_sessions, min_requests)
            if not count:
                break
            await self.open_loop(reserve[:count])
            reserve = reserve[count:]

    async def verify(self) -> Dict[str, Any]:
        """Post-run checks; returns ``/v1/stats`` and top-K quality.

        ``topk_overlap_share`` is the mean share of each answered
        session's served top-K that belongs to the true top-K;
        ``topk_exact_share`` is the share of them whose served top-K
        equals the true one.  Warm-up sessions are checked but not scored.
        """
        created = [s for s in self.sessions.values() if s.created]
        slots = asyncio.Semaphore(self.clients)
        k = self.plan.workload.k

        async def check(outcome: SessionOutcome) -> Optional[Tuple[float, bool]]:
            async with slots:
                _, body = await self.call(
                    "check",
                    "snapshot",
                    "GET",
                    f"/v1/sessions/{outcome.session_id}",
                    session_id=outcome.session_id,
                )
            if body is None:
                self.checks.fail(f"{outcome.session_id}: snapshot failed")
                return 0.0, False
            if body["questions_asked"] != outcome.acked:
                self.checks.fail(
                    f"{outcome.session_id}: snapshot has "
                    f"{body['questions_asked']} answers, "
                    f"{outcome.acked} acknowledged"
                )
            if outcome.phase == "warmup":
                return None
            served = [int(t) for t in body["top_k"]]
            truth = [int(t) for t in self.truths[outcome.instance].top_k(k)]
            return len(set(served) & set(truth)) / k, served == truth

        checked = await asyncio.gather(*(check(s) for s in created))
        results = [r for r in checked if r is not None]
        _, stats = await self.call("check", "stats", "GET", "/v1/stats")
        if stats is None:
            self.checks.fail("/v1/stats failed")
            stats = {}
        else:
            counted = sum(stats.get("sessions", {}).values())
            if counted != len(created):
                self.checks.fail(
                    f"/v1/stats counts {counted} sessions, "
                    f"{len(created)} were created"
                )
        count = max(1, len(results))
        return {
            "stats": stats,
            "topk_overlap_share": sum(r[0] for r in results) / count,
            "topk_exact_share": sum(r[1] for r in results) / count,
        }


#: ``/v1/stats`` counters and whether they repeat exactly for a seed.
#: Counts that depend on how requests interleave (batching, whether two
#: sessions of one instance or state arrive together) are marked
#: ``False``.
STATS_COUNTERS = {
    "sessions": True,
    "next_requests": True,
    "next_batches": False,
    "hot_hits": True,
    "hot_misses": True,
    "builds": False,
    "cold_hits": False,
    "cold_waited": False,
    "hit_rate": True,
    "cold_hit_rate": False,
    "rankings_computed": False,
    "rankings_memo_hits": False,
    "rankings_coalesced": False,
    "evaluations": False,
    "contradictions": True,
}


def scrape_stats(stats: Dict[str, Any]) -> Dict[str, float]:
    """Flatten ``/v1/stats`` into the counters of :data:`STATS_COUNTERS`."""
    cache = stats.get("cache", {})
    hot = cache.get("hot", cache)
    rankings = stats.get("rankings", {})
    flat: Dict[str, float] = {
        "sessions": sum(stats.get("sessions", {}).values()),
        "next_requests": stats.get("next_requests", 0),
        "next_batches": stats.get("next_batches", 0),
        "hot_hits": hot.get("hits", 0),
        "hot_misses": hot.get("misses", 0),
        # A plain cache builds on every miss; a two-tier store counts.
        "builds": cache.get("builds", hot.get("misses", 0)),
        "cold_hits": cache.get("cold_hits", 0),
        "cold_waited": cache.get("cold_waited", 0),
        "rankings_computed": rankings.get("computed", 0),
        "rankings_memo_hits": rankings.get("memo_hits", 0),
        "rankings_coalesced": rankings.get("coalesced", 0),
        "evaluations": stats.get("evaluations", 0),
        "contradictions": stats.get("contradictions", 0),
    }
    lookups = flat["hot_hits"] + flat["hot_misses"]
    flat["hit_rate"] = (
        (lookups - flat["builds"]) / lookups if lookups else 0.0
    )
    reused = flat["cold_hits"] + flat["cold_waited"]
    consults = flat["builds"] + reused
    flat["cold_hit_rate"] = reused / consults if consults else 0.0
    return flat


def _ground_truths(instances: Sequence[Dict[str, Any]]) -> List[Any]:
    """Per-instance ground truth, by ``SessionCrowd``'s recipe."""
    from repro.api.specs import InstanceSpec
    from repro.crowd.oracle import GroundTruth
    from repro.utils.rng import derive_seed, ensure_rng

    return [
        GroundTruth.sample(
            InstanceSpec.from_dict(spec).materialize(),
            ensure_rng(derive_seed(spec["seed"], "truth")),
        )
        for spec in instances
    ]


def split(items: Sequence[Any], parts: int, index: int) -> List[Any]:
    """The ``index``-th of ``parts`` contiguous, near-equal slices."""
    count = len(items)
    return list(items[index * count // parts : (index + 1) * count // parts])


async def drive(
    plan: Plan,
    port: int,
    clients: int,
    min_sessions: int = 0,
    min_requests: int = 0,
) -> LoadGenerator:
    """Run the plan and the post-run checks against ``port``; see
    :meth:`LoadGenerator.latency_shortfall` for the floors."""
    generator = LoadGenerator(plan, port, clients)
    await generator.run(min_sessions, min_requests)
    generator.verdict = await generator.verify()
    return generator

"""The benchmark's traffic mixes and the seeded inputs they generate.

Each :class:`Workload` fixes how the server is launched and what its
sessions look like.  :func:`make_plan` turns a workload and a seed into
the concrete sessions of a run: instance specs, session ids and the
open-loop arrival offsets.  The same seed always gives the same plan;
the server only ever sees the generated specs.

Instance sizes vary by two orders of magnitude between seeds (an
N=24, K=4 uniform instance has anywhere from ~300 to ~30000 possible
top-4 orderings), which would make one seed's run incomparable with
the next.  Each workload therefore fixes a band on that count — the
working-set size — and draws instances from the seed until one falls
inside it.  The count is computed here, from the score intervals
alone, so no part of the program under test chooses its own inputs.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import random
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

#: Reserve sessions the latency phase may add, as a share of its
#: scheduled ones, when sessions that end early leave a route short of
#: the samples its percentiles need.
LATENCY_RESERVE = 0.5
#: Instances where more tuples than this could reach the top-K are far
#: above every workload's band; :func:`possible_orderings` skips them.
MAX_CANDIDATES = 15


@dataclass(frozen=True)
class Workload:
    """One traffic mix: server launch flags plus session shape and rates."""

    name: str
    why: str
    #: ``repro serve --store``; ``None`` keeps the server's default.
    store: Optional[str]
    #: ``repro serve --resolution``.
    resolution: int
    #: Answers each session submits before it stops asking.
    answers: int
    #: SessionCrowd recipe: share of flipped answers and stated accuracy.
    flip_percent: int
    accuracy: float
    #: > 0: every session of both phases draws from this many instances,
    #: which an untimed warm-up builds before the capacity clock starts.
    #: 0: every instance is fresh; in the capacity phase each serves
    #: ``sessions_per_instance`` consecutive sessions, in the latency
    #: phase one, so that every timed create builds (a mix of builds and
    #: hot hits puts the create median in the gap between the two, where
    #: it jumps between runs); the phases share no instances.
    shared_instances: int
    #: Open-loop arrival rate of the latency phase, sessions per second.
    rate: float
    #: Sessions the closed-loop capacity phase runs.
    capacity_sessions: int
    #: Sessions the open-loop latency phase runs.
    latency_sessions: int
    #: Accepted range of possible top-K orderings per instance.
    orderings: Tuple[int, int]
    sessions_per_instance: int = 2
    n: int = 24
    k: int = 4
    width: float = 0.35

    def serve_args(self) -> List[str]:
        """The ``repro serve`` flags this workload runs with."""
        args = [
            "--workers",
            "1",
            "--resolution",
            str(self.resolution),
        ]
        if self.store is not None:
            args += ["--store", self.store]
        return args


# Rates sit at a fifth to a seventh of each workload's capacity on a
# 2-vCPU VM.  Closer to saturation, a slow spell of the machine queues
# sessions in the generator, and the latency phase's tails moved by more
# than half between runs of one seed.  `fresh-npz` runs slower still:
# every one of its open-loop sessions builds, which makes it ~0.1 s long,
# and at 4 sessions/s about half of them overlapped another.  The session
# median then sat on the edge between sessions served alone and sessions
# slowed by a neighbour's build, and moved by more than a quarter between
# runs; at 2.5/s about a third overlap.  Session counts fill ~45 s in
# alternating rounds.  A workload over a `--workers 2` fleet was tried
# and dropped: on two cores its four processes made even its medians
# move by a third between runs of one seed.
WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            name="noisy-shared",
            why=(
                "ranking hot path: 1 worker, 40 prebuilt shared instances, "
                "noisy crowd so every answer reweights and no path is "
                "pruned; open loop at 4 sessions/s"
            ),
            store=None,
            resolution=640,
            answers=10,
            flip_percent=25,
            accuracy=0.9,
            shared_instances=40,
            rate=4.0,
            capacity_sessions=250,
            latency_sessions=110,
            orderings=(1200, 1600),
        ),
        Workload(
            name="fresh-npz",
            why=(
                "builds and the npz cold tier: 1 worker over disk-npz; every "
                "timed create builds a fresh instance (2 sessions each in the "
                "closed loop); truthful crowd prunes; open loop at 2.5 sessions/s"
            ),
            store="disk-npz",
            resolution=1024,
            answers=10,
            flip_percent=0,
            accuracy=1.0,
            shared_instances=0,
            rate=2.5,
            capacity_sessions=100,
            latency_sessions=100,
            orderings=(1000, 3000),
        ),
    )
}


@dataclass(frozen=True)
class PlannedSession:
    """One session the generator will run."""

    session_id: str
    spec: Dict[str, Any]
    #: Index into the plan's instance table (for the crowd's ground truth).
    instance: int


@dataclass(frozen=True)
class Plan:
    """Everything one run sends, derived from (workload, seed) alone."""

    workload: Workload
    seed: int
    instances: List[Dict[str, Any]]
    #: One create per shared instance, before the capacity clock starts.
    warmup: List[PlannedSession]
    capacity: List[PlannedSession]
    latency: List[PlannedSession]
    #: Latency-phase sessions run only if the scheduled ones end early
    #: and leave a route short of samples.
    reserve: List[PlannedSession]
    #: Poisson arrival times of each latency-phase and then each reserve
    #: session, in seconds; the generator keeps their gaps.
    arrivals: List[float]


def derived_seed(seed: int, *labels: Any) -> int:
    """A 31-bit seed derived from ``seed`` and ``labels`` (BLAKE2b)."""
    digest = hashlib.blake2b(
        json.dumps([seed, *labels]).encode("utf-8"), digest_size=4
    )
    return int.from_bytes(digest.digest(), "big") & 0x7FFFFFFF


def possible_orderings(
    lowers: Sequence[float], uppers: Sequence[float], k: int
) -> int:
    """How many top-``k`` prefixes have positive probability.

    For independent interval-supported scores, the prefix
    ``t_1 ≻ … ≻ t_k`` is possible exactly when, walking up from the
    largest lower bound among the other tuples, each ``t_i`` can still
    exceed everything below it: ``upper(t_i) > max(floor, …)`` with the
    floor raised to each chosen tuple's lower bound in turn.  Returns -1
    without counting when more than :data:`MAX_CANDIDATES` tuples could
    reach the top-``k``.
    """
    import numpy as np

    lowers = np.asarray(lowers, dtype=float)
    uppers = np.asarray(uppers, dtype=float)
    kth_lower = np.sort(lowers)[-k]
    candidates = np.flatnonzero(uppers > kth_lower)
    if len(candidates) > MAX_CANDIDATES:
        return -1
    grid = np.stack(
        np.meshgrid(*([candidates] * k), indexing="ij"), axis=-1
    ).reshape(-1, k)
    distinct = np.ones(len(grid), dtype=bool)
    for a, b in itertools.combinations(range(k), 2):
        distinct &= grid[:, a] != grid[:, b]
    prefixes = grid[distinct]
    # The largest lower bound outside a prefix is among the k+1 largest.
    top = np.argsort(-lowers, kind="stable")[: k + 1]
    inside = (prefixes[:, :, None] == top[None, None, :]).any(axis=1)
    floor = lowers[top[np.argmax(~inside, axis=1)]]
    possible = np.ones(len(prefixes), dtype=bool)
    for position in range(k - 1, -1, -1):
        tuples = prefixes[:, position]
        possible &= uppers[tuples] > floor
        floor = np.maximum(floor, lowers[tuples])
    return int(possible.sum())


def _instance_spec(workload: Workload, seed: int) -> Dict[str, Any]:
    return {
        "workload": "uniform",
        "n": workload.n,
        "k": workload.k,
        "seed": seed,
        "params": {"width": workload.width},
    }


def draw_instance(
    workload: Workload, seed: int, *labels: Any
) -> Dict[str, Any]:
    """The first seed-derived instance whose ordering count is in band."""
    from repro.api.specs import InstanceSpec

    low, high = workload.orderings
    for attempt in itertools.count():
        spec = _instance_spec(
            workload, derived_seed(seed, workload.name, *labels, attempt)
        )
        distributions = InstanceSpec.from_dict(spec).materialize()
        count = possible_orderings(
            [d.lower for d in distributions],
            [d.upper for d in distributions],
            workload.k,
        )
        if low <= count <= high:
            return spec
    raise AssertionError("unreachable")


def arrival_offsets(rate: float, count: int, seed: int) -> List[float]:
    """Poisson arrivals: cumulative exponential gaps at ``rate`` per s."""
    rng = random.Random(seed)
    offsets, clock = [], 0.0
    for _ in range(count):
        clock += rng.expovariate(rate)
        offsets.append(clock)
    return offsets


def make_plan(
    workload: Workload,
    seed: int,
    capacity_sessions: Optional[int] = None,
    latency_sessions: Optional[int] = None,
) -> Plan:
    """The run's sessions; session counts default to the workload's."""
    n_capacity = (
        workload.capacity_sessions
        if capacity_sessions is None
        else capacity_sessions
    )
    n_latency = (
        workload.latency_sessions
        if latency_sessions is None
        else latency_sessions
    )
    instances: List[Dict[str, Any]] = []
    if workload.shared_instances:
        instances = [
            draw_instance(workload, seed, "shared", index)
            for index in range(workload.shared_instances)
        ]

    def phase(name: str, count: int, per: int) -> List[PlannedSession]:
        sessions = []
        for index in range(count):
            if workload.shared_instances:
                instance = index % workload.shared_instances
            else:
                if index % per == 0:
                    instances.append(
                        draw_instance(workload, seed, name, index // per)
                    )
                instance = len(instances) - 1
            sessions.append(
                PlannedSession(
                    session_id=f"{name[0]}{seed}-{index:04d}",
                    spec=instances[instance],
                    instance=instance,
                )
            )
        return sessions

    warmup = [
        PlannedSession(f"w{seed}-{index:04d}", spec, index)
        for index, spec in enumerate(instances)
    ]
    capacity = phase("capacity", n_capacity, workload.sessions_per_instance)
    n_reserve = math.ceil(n_latency * LATENCY_RESERVE)
    latency = phase("latency", n_latency + n_reserve, 1)
    arrivals = arrival_offsets(
        workload.rate,
        n_latency + n_reserve,
        derived_seed(seed, workload.name, "arrivals"),
    )
    return Plan(
        workload,
        seed,
        instances,
        warmup,
        capacity,
        latency[:n_latency],
        latency[n_latency:],
        arrivals,
    )

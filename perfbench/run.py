#!/usr/bin/env python3
"""Run one workload of the HTTP session-service benchmark.

Usage (from the repository root)::

    python3 perfbench/run.py --workload noisy-shared --seed 1 \\
        --seconds 45 --trace 0

``--workload all`` runs every workload in turn.  With ``--trace 0`` the
run launches ``python -m repro serve`` (five times, for the set-up
median), drives the workload through real HTTP and reports the
end-to-end metrics.  With ``--trace 1`` it makes that untraced pass and
then a second pass against a server started by ``traced_serve.py``,
whose span wrappers give the per-layer metrics; the difference between
the passes is printed as the tracing overhead.

Human-readable tables go to standard output first; the last line is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import shutil
import statistics
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench.service import PINNED_ENV, Server  # noqa: E402

#: Server launches per pass; ``setup_s`` is their median.
SETUP_LAUNCHES = 5
#: The run length the workloads' session counts are sized for.
NOMINAL_SECONDS = 45
#: Latency charged to a failed request or session: it misses every limit.
FAILED_MS = 60_000.0
#: Where runs keep their logs, stores and spans (removed afterwards).
RUN_DIR = ROOT / ".bench_run"

#: End-to-end metric → unit, in report order.  The tails, which moved
#: by more than a quarter between sets of runs on a shared 2-vCPU VM
#: (next/answer p90 and p99, create/session p90), are left out and
#: printed with the latency table instead.
END_TO_END = {
    "setup_s": "s",
    "sessions_per_s": "1/s",
    "next_p50_ms": "ms",
    "answer_p50_ms": "ms",
    "create_p50_ms": "ms",
    "session_p50_s": "s",
    "success_rate": "share",
    "server_rss_mb": "MiB",
    "topk_overlap_share": "share",
}

#: Latency-phase percentiles printed and kept in ``--json`` results:
#: as high as the phase's samples support (1000 requests, 100 sessions).
DETAIL_PERCENTILES = {
    "create": (50, 90),
    "next": (50, 90, 99),
    "answer": (50, 90, 99),
    "session": (50, 90),
}


def _bootstrap() -> None:
    """Make the checkout's ``src`` importable, or exit non-zero."""
    package = ROOT / "src" / "repro" / "__init__.py"
    if not package.is_file():
        print(f"no program source at {package.parent}", file=sys.stderr)
        raise SystemExit(2)
    os.environ.update(PINNED_ENV)  # before NumPy is first imported
    sys.path.insert(0, str(ROOT / "src"))
    import repro

    if Path(repro.__file__).resolve() != package.resolve():
        print(f"imported repro from {repro.__file__}", file=sys.stderr)
        raise SystemExit(2)


@dataclass
class Pass:
    """One launch-drive-stop cycle of a workload."""

    setups: List[float]
    generator: Any
    rss_mb: float
    spans: Optional[List[Dict[str, Any]]] = None


def run_pass(
    plan: Any, workdir: Path, traced: bool, launches: int, quick: bool = False
) -> Pass:
    """Launch the server ``launches`` times (timing each), drive the plan
    against the last launch, and stop it.  The latency phase runs until
    every printed percentile has the samples it needs."""
    from perfbench.fingerprint import clients
    from perfbench.loadgen import drive
    from perfbench.tracing import load_spans

    spans_dir = workdir / "spans"
    if traced:
        command = [str(ROOT / "perfbench" / "traced_serve.py"), str(spans_dir)]
    else:
        command = ["-m", "repro"]
    command.append("serve")
    setups: List[float] = []
    generator, rss = None, 0.0
    for index in range(launches):
        server = Server(
            ROOT, workdir / f"launch{index}", command, plan.workload.serve_args()
        )
        try:
            setups.append(server.start())
            if index == launches - 1:
                sessions, requests = (0, 0) if quick else latency_floors()
                generator = asyncio.run(
                    drive(
                        plan,
                        server.port,
                        clients(),
                        min_sessions=sessions,
                        min_requests=requests,
                    )
                )
                rss = server.peak_rss_mb()
        finally:
            server.stop()
    return Pass(
        setups,
        generator,
        rss,
        load_spans(spans_dir) if traced else None,
    )


def latency_floors() -> Tuple[int, int]:
    """Latency-phase sessions and requests per route that every
    percentile of :data:`DETAIL_PERCENTILES` needs."""
    from perfbench.stats import min_samples

    def floor(*names: str) -> int:
        return max(min_samples(p) for n in names for p in DETAIL_PERCENTILES[n])

    return floor("create", "session"), floor("next", "answer")


def latency_samples(generator: Any) -> Dict[str, List[float]]:
    """Latency-phase samples per route (ms) and per session (seconds,
    from the scheduled arrival).  A failed one counts as :data:`FAILED_MS`."""
    samples = {
        route: [
            r.latency_ms if r.ok else FAILED_MS
            for r in generator.records
            if r.phase == "latency" and r.route == route
        ]
        for route in ("create", "next", "answer")
    }
    samples["session"] = [
        (s.end - s.arrival) if not s.failed else FAILED_MS / 1000.0
        for s in generator.sessions.values()
        if s.phase == "latency"
    ]
    return samples


def latency_detail(generator: Any) -> Dict[str, Dict[str, float]]:
    """Count and percentiles of the latency phase's samples."""
    from perfbench.stats import percentile

    return {
        name: {
            "count": float(len(values)),
            **{f"p{p}": percentile(values, p) for p in DETAIL_PERCENTILES[name]},
        }
        for name, values in latency_samples(generator).items()
    }


def end_to_end(run: Pass) -> Dict[str, float]:
    """The end-to-end metrics of one pass."""
    generator = run.generator
    detail = latency_detail(generator)
    phased = [r for r in generator.records if r.phase != "check"]
    metrics = {
        "setup_s": statistics.median(run.setups),
        "sessions_per_s": (
            generator.capacity_completed / generator.phase_seconds["capacity"]
        ),
        "next_p50_ms": detail["next"]["p50"],
        "answer_p50_ms": detail["answer"]["p50"],
        "create_p50_ms": detail["create"]["p50"],
        "session_p50_s": detail["session"]["p50"],
        "success_rate": sum(r.ok for r in phased) / len(phased),
        "server_rss_mb": run.rss_mb,
        "topk_overlap_share": generator.verdict["topk_overlap_share"],
    }
    return {name: metrics[name] for name in END_TO_END}


def sample_support(generator: Any) -> List[str]:
    """Printed percentiles the latency phase's samples do not support."""
    from perfbench.stats import min_samples

    problems = []
    for name, row in latency_detail(generator).items():
        for p in DETAIL_PERCENTILES[name]:
            if row["count"] < min_samples(p):
                problems.append(
                    f"{name} p{p} needs {min_samples(p)} samples, "
                    f"got {int(row['count'])}"
                )
    return problems


def _format(value: float) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def measure(
    name: str, seed: int, seconds: float, trace: bool, quick: bool
) -> Dict[str, Any]:
    """Run one workload; returns its result record."""
    from perfbench.fingerprint import fingerprint
    from perfbench.loadgen import scrape_stats
    from perfbench.workloads import WORKLOADS, make_plan

    workload = WORKLOADS[name]
    if quick:
        counts = (4, 6)
    else:
        # The latency phase is at its sample floor already; a shorter run
        # shortens the capacity phase.
        scale = seconds / NOMINAL_SECONDS
        counts = (
            max(1, round(workload.capacity_sessions * scale)),
            max(latency_floors()[0], workload.latency_sessions),
        )
    plan = make_plan(workload, seed, *counts)
    workdir = RUN_DIR / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        plain = run_pass(plan, workdir / "plain", False, SETUP_LAUNCHES, quick)
        traced = (
            run_pass(plan, workdir / "traced", True, 1, quick) if trace else None
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    generator = plain.generator
    failures = list(generator.checks.failures)
    if not quick:
        failures += sample_support(generator)
    phased = [r for r in generator.records if r.phase != "check"]
    failed = sum(not r.ok for r in phased)
    if failed:
        # No request of these workloads is meant to fail.
        failures.append(f"{failed} of {len(phased)} requests failed")
    result: Dict[str, Any] = {
        "workload": name,
        "seed": seed,
        "fingerprint": fingerprint(ROOT, seed),
        "sessions": {
            phase: sum(1 for s in generator.sessions.values() if s.phase == phase)
            for phase in ("warmup", "capacity", "latency")
        },
        "phase_seconds": generator.phase_seconds,
        "capacity_rates": generator.capacity_rates,
        "attempted": len(phased),
        "failed": failed,
        "errors": sorted({r.error for r in phased if not r.ok})[:10],
        "checks": failures,
        "bodies_checked": generator.checks.bodies_checked,
        "end_to_end": end_to_end(plain),
        "latency": latency_detail(generator),
        "stats": scrape_stats(generator.verdict["stats"]),
    }
    if traced is not None:
        from perfbench.tracing import per_layer

        failures += [f"traced: {f}" for f in traced.generator.checks.failures]
        result["traced_end_to_end"] = end_to_end(traced)
        result["per_layer"], result["layer_table"] = per_layer(traced)
    result["correct"] = not failures
    return result


def report(result: Dict[str, Any]) -> None:
    """Print one result's tables for a human reader."""
    from perfbench.loadgen import STATS_COUNTERS

    print(f"== {result['workload']} (seed {result['seed']})")
    print("fingerprint: " + json.dumps(result["fingerprint"], sort_keys=True))
    print(
        f"sessions {result['sessions']}  capacity per round "
        + " ".join(f"{rate:.4g}" for rate in result["capacity_rates"])
        + "  phase seconds "
        + ", ".join(f"{k} {v:.2f}" for k, v in result["phase_seconds"].items())
    )
    traced = result.get("traced_end_to_end")
    header = f"{'metric':<20} {'unit':<6} {'value':>12}"
    print(header + (f" {'traced':>12} {'overhead':>9}" if traced else ""))
    for metric, unit in END_TO_END.items():
        value = result["end_to_end"][metric]
        line = f"{metric:<20} {unit:<6} {_format(value):>12}"
        if traced:
            other = traced[metric]
            share = (other - value) / value if value else 0.0
            line += f" {_format(other):>12} {share:>+8.1%}"
        print(line)
    print(f"latency phase  {'count':>7} {'p50':>9} {'p90':>9} {'p99':>9}")
    for name, row in result["latency"].items():
        unit = "s" if name == "session" else "ms"
        print(
            f"  {name:<7} {unit:<3} {int(row['count']):>7} "
            + " ".join(f"{row[f'p{p}']:>9.4g}" for p in DETAIL_PERCENTILES[name])
        )
    print("/v1/stats (= repeats exactly for a seed, ~ depends on interleaving)")
    for counter, exact in STATS_COUNTERS.items():
        mark = "=" if exact else "~"
        print(f"  {mark} {counter:<20} {_format(result['stats'][counter])}")
    for line in result.get("layer_table", []):
        print(line)
    print(
        f"requests {result['attempted']} failed {result['failed']}"
        + (f" errors {result['errors']}" if result["errors"] else "")
    )
    verdict = "PASS" if result["correct"] else "FAIL"
    print(f"checks: {verdict} ({result['bodies_checked']} bodies validated)")
    for failure in result["checks"]:
        print(f"  - {failure}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=NOMINAL_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="a handful of sessions per phase, for the self-tests",
    )
    parser.add_argument(
        "--json", default=None, metavar="PATH", help="also write all results"
    )
    args = parser.parse_args(argv)
    _bootstrap()
    from perfbench.workloads import WORKLOADS

    if args.workload != "all" and args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        result = measure(name, args.seed, args.seconds, bool(args.trace), args.quick)
        report(result)
        results.append(result)
    if args.json:
        Path(args.json).write_text(json.dumps(results, indent=2) + "\n")
    from perfbench.tracing import layer_unit

    key = "per_layer" if args.trace else "end_to_end"
    unit_of = layer_unit if args.trace else END_TO_END.__getitem__
    metrics: Dict[str, Any] = {}
    for result in results:
        prefix = "" if len(results) == 1 else f"{result['workload']}/"
        for metric, value in result[key].items():
            metrics[prefix + metric] = {"value": value, "unit": unit_of(metric)}
    correct = all(r["correct"] for r in results)
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": sum(r["attempted"] for r in results),
                "failed": sum(r["failed"] for r in results),
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

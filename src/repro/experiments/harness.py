"""Experiment harness: configs, multi-seed runners, result tables.

Every reproduction experiment is a grid of cells
``(policy, budget, repetition)`` over one workload family.  The harness
guarantees *paired* comparisons: all policies inside a repetition face the
same score distributions and the same ground-truth realization, while
worker noise and policy randomness get per-cell independent streams.
"""

from __future__ import annotations

import csv
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.api.catalog import ENGINES, WORKLOADS
from repro.api.specs import MeasureSpec, PolicySpec
from repro.core.session import SessionResult, UncertaintyReductionSession
from repro.crowd.oracle import GroundTruth
from repro.crowd.simulator import SimulatedCrowd
from repro.experiments.grid import GridCell
from repro.utils.rng import derive_seed


@dataclass
class ExperimentConfig:
    """One workload family plus global run options."""

    n: int = 20
    k: int = 10
    workload: str = "uniform"
    workload_params: Dict = field(default_factory=lambda: {"width": 0.15})
    worker_accuracy: float = 1.0
    replication: int = 1
    assumed_accuracy: Optional[float] = None
    measure: str = "H"
    measure_params: Dict = field(default_factory=dict)
    engine: str = "grid"
    engine_params: Dict = field(default_factory=lambda: {"resolution": 800})
    repetitions: int = 3
    base_seed: int = 2016
    track_trajectory: bool = False

    def to_params(self) -> Dict[str, Any]:
        """JSON-serializable dict form, used as grid-cell identity."""
        return asdict(self)

    def workload_for(self, rep: int):
        """Score distributions of repetition ``rep`` (policy-independent)."""
        seed = derive_seed(self.base_seed, "workload", rep)
        return WORKLOADS.create(
            self.workload, self.n, rng=seed, **self.workload_params
        )

    def truth_for(self, rep: int, distributions) -> GroundTruth:
        """Ground-truth realization of repetition ``rep``."""
        seed = derive_seed(self.base_seed, "truth", rep)
        return GroundTruth.sample(distributions, rng=seed)


def run_cell(
    config: ExperimentConfig,
    policy_name: str,
    budget: int,
    rep: int,
    policy_params: Optional[Dict] = None,
) -> SessionResult:
    """Run one (policy, budget, repetition) cell and return its books."""
    distributions = config.workload_for(rep)
    truth = config.truth_for(rep, distributions)
    crowd = SimulatedCrowd(
        truth,
        worker_accuracy=config.worker_accuracy,
        replication=config.replication,
        assumed_accuracy=config.assumed_accuracy,
        rng=derive_seed(config.base_seed, "crowd", rep, policy_name, budget),
    )
    session = UncertaintyReductionSession(
        distributions,
        config.k,
        crowd,
        builder=ENGINES.create(config.engine, **config.engine_params),
        measure=MeasureSpec(config.measure, config.measure_params).build(),
        rng=derive_seed(config.base_seed, "policy", rep, policy_name, budget),
        track_trajectory=config.track_trajectory,
    )
    policy = PolicySpec(policy_name, policy_params or {}).build()
    return session.run(policy, budget)


def standard_row(result: SessionResult, **extra) -> Dict[str, Any]:
    """The standard flat projection of a :class:`SessionResult`.

    This is the row shape shared by every figure driver's result table and
    by the grid store — plain JSON-serializable scalars only.
    """
    row: Dict[str, Any] = dict(
        policy=result.policy,
        budget=result.budget,
        asked=result.questions_asked,
        distance=result.distance_to_truth,
        initial_distance=result.initial_distance,
        uncertainty=result.final_uncertainty,
        cpu=result.cpu_seconds,
        orderings=result.orderings_final,
    )
    row.update(extra)
    return row


def run_cell_record(
    config: Union[ExperimentConfig, Dict[str, Any]],
    policy: str,
    budget: int,
    rep: int,
    policy_params: Optional[Dict] = None,
) -> Dict[str, Any]:
    """Picklable grid-cell runner: run one cell, return its standard row.

    ``config`` may arrive as the :meth:`ExperimentConfig.to_params` dict —
    the form grid cells carry so they stay JSON-addressable.
    """
    if isinstance(config, dict):
        config = ExperimentConfig(**config)
    result = run_cell(config, policy, budget, rep, policy_params)
    return standard_row(result, rep=rep)


#: Default grid-cell runner: the dotted path of :func:`run_cell_record`.
CELL_RUNNER = "repro.experiments.harness:run_cell_record"


def config_cells(
    experiment: str,
    config: ExperimentConfig,
    policies: Dict[str, Optional[Dict]],
    budgets: Sequence[int],
    tags: Optional[Dict[str, Any]] = None,
) -> List[GridCell]:
    """Declare the common ``policy × budget × repetition`` cell block.

    Every figure driver whose cells are plain :func:`run_cell` invocations
    builds its grid from one or more of these blocks; ``tags`` label all
    cells of the block (e.g. an arm name) without entering cell identity.
    """
    cells: List[GridCell] = []
    for policy_name, policy_params in policies.items():
        for budget in budgets:
            for rep in range(config.repetitions):
                cells.append(
                    GridCell(
                        experiment=experiment,
                        runner=CELL_RUNNER,
                        params={
                            "config": config.to_params(),
                            "policy": policy_name,
                            "budget": budget,
                            "rep": rep,
                            "policy_params": policy_params,
                        },
                        tags=dict(tags or {}),
                    )
                )
    return cells


class ResultTable:
    """A flat collection of result records with aggregation & formatting."""

    def __init__(self, rows: Optional[List[Dict]] = None) -> None:
        self.rows: List[Dict] = list(rows) if rows else []

    def add(self, **record) -> None:
        """Append one record."""
        self.rows.append(record)

    def add_result(self, result: SessionResult, **extra) -> None:
        """Append the standard projection of a :class:`SessionResult`."""
        self.add(**standard_row(result, **extra))

    # ------------------------------------------------------------------

    def aggregate(
        self, group_keys: Sequence[str], value_keys: Sequence[str]
    ) -> "ResultTable":
        """Mean/std over repetitions per group (NaN-aware)."""
        groups: Dict[Tuple, List[Dict]] = {}
        for row in self.rows:
            key = tuple(row.get(k) for k in group_keys)
            groups.setdefault(key, []).append(row)
        aggregated = ResultTable()
        for key, members in groups.items():
            record = dict(zip(group_keys, key, strict=True))
            record["reps"] = len(members)
            for value_key in value_keys:
                values = np.asarray(
                    [float(m.get(value_key, math.nan)) for m in members]
                )
                finite = values[np.isfinite(values)]
                record[value_key] = (
                    float(finite.mean()) if finite.size else math.nan
                )
                record[value_key + "_std"] = (
                    float(finite.std()) if finite.size > 1 else 0.0
                )
            aggregated.add(**record)
        return aggregated

    def pivot(
        self, series_key: str, x_key: str, value_key: str
    ) -> Dict[str, List[Tuple[float, float]]]:
        """Series view: ``{series: [(x, value), …]}`` sorted by x."""
        series: Dict[str, List[Tuple[float, float]]] = {}
        for row in self.rows:
            series.setdefault(str(row[series_key]), []).append(
                (row[x_key], row[value_key])
            )
        for points in series.values():
            points.sort(key=lambda pair: pair[0])
        return series

    # ------------------------------------------------------------------

    def columns(self) -> List[str]:
        """Union of record keys, in first-seen order."""
        seen: List[str] = []
        for row in self.rows:
            for key in row:
                if key not in seen:
                    seen.append(key)
        return seen

    def to_csv(self, path) -> None:
        """Write all records to CSV."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        columns = self.columns()
        with open(path, "w", newline="") as handle:
            writer = csv.DictWriter(handle, fieldnames=columns)
            writer.writeheader()
            for row in self.rows:
                writer.writerow(row)

    def format(self, columns: Optional[Sequence[str]] = None) -> str:
        """Aligned plain-text table (what the benches print)."""
        columns = list(columns) if columns else self.columns()

        def fmt(value) -> str:
            if isinstance(value, float):
                if math.isnan(value):
                    return "nan"
                return f"{value:.4g}"
            return str(value)

        body = [[fmt(row.get(c, "")) for c in columns] for row in self.rows]
        widths = [
            max(len(c), *(len(line[i]) for line in body)) if body else len(c)
            for i, c in enumerate(columns)
        ]
        header = "  ".join(c.ljust(w) for c, w in zip(columns, widths, strict=True))
        rule = "  ".join("-" * w for w in widths)
        lines = [header, rule]
        for line in body:
            lines.append("  ".join(v.ljust(w) for v, w in zip(line, widths, strict=True)))
        return "\n".join(lines)

    def __len__(self) -> int:
        return len(self.rows)

    def __repr__(self) -> str:
        return f"ResultTable(rows={len(self.rows)})"


def format_series(
    series: Dict[str, List[Tuple[float, float]]],
    x_label: str = "B",
    value_format: str = "{:.4f}",
) -> str:
    """Print figure-style series: one row per algorithm, one column per x.

    This mirrors how the paper's figures are read: who wins at each budget.
    """
    xs = sorted({x for points in series.values() for x, _ in points})
    name_width = max(len(name) for name in series) if series else 4
    header = " " * (name_width + 2) + "  ".join(
        f"{x_label}={x:<8g}" for x in xs
    )
    lines = [header]
    for name in sorted(series):
        lookup = dict(series[name])
        cells = [
            value_format.format(lookup[x]) if x in lookup else "-"
            for x in xs
        ]
        lines.append(
            f"{name.ljust(name_width)}  " + "  ".join(c.ljust(10) for c in cells)
        )
    return "\n".join(lines)


__all__ = [
    "ExperimentConfig",
    "run_cell",
    "run_cell_record",
    "standard_row",
    "config_cells",
    "CELL_RUNNER",
    "ResultTable",
    "format_series",
]

"""Experiment harness and per-figure reproduction modules.

Each module maps to one experiment id of :data:`EXPERIMENTS` and exposes
``grid(fast) -> ExperimentGrid`` (the declared cell grid),
``run(fast=True, workers=0, store=None, resume=False) -> ResultTable``,
``report(table) -> str`` and a printing ``main``.  Execution — serial or
process-pool fan-out with a durable, resumable JSON-lines store — lives in
:mod:`repro.experiments.runner` / :mod:`repro.experiments.store`.
"""

from repro.experiments import (
    astar_comparison,
    distributions_exp,
    fig1a,
    fig1b,
    incr_ablation,
    measures,
    noisy,
    scalability,
    transitive_ablation,
)
from repro.experiments.grid import ExperimentGrid, GridCell
from repro.experiments.harness import (
    ExperimentConfig,
    ResultTable,
    format_series,
    run_cell,
)
from repro.experiments.runner import GridRunReport, run_grid
from repro.experiments.store import ResultStore

#: Experiment id → module.
EXPERIMENTS = {
    "FIG1A": fig1a,
    "FIG1B": fig1b,
    "MEAS": measures,
    "ASTAR": astar_comparison,
    "NOISE": noisy,
    "DIST": distributions_exp,
    "INCR": incr_ablation,
    "SCALE": scalability,
    "TRANS": transitive_ablation,
}

__all__ = [
    "ExperimentConfig",
    "ExperimentGrid",
    "GridCell",
    "GridRunReport",
    "ResultStore",
    "ResultTable",
    "format_series",
    "run_cell",
    "run_grid",
    "EXPERIMENTS",
    "fig1a",
    "fig1b",
    "measures",
    "astar_comparison",
    "noisy",
    "distributions_exp",
    "incr_ablation",
    "scalability",
    "transitive_ablation",
]

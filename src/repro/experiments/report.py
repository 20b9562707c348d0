"""Consolidated experiment reporting.

Runs any subset of the reproduction experiments and renders one Markdown
document with every series/table.  Used by ``python -m repro experiment
all --output report.md`` and by release checklists.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Iterable, Optional

from repro.experiments.harness import ResultTable


def run_report(
    experiment_ids: Optional[Iterable[str]] = None,
    fast: bool = True,
    output: Optional[str] = None,
    csv_dir: Optional[str] = None,
) -> str:
    """Run experiments and return (optionally write) a Markdown report.

    Parameters
    ----------
    experiment_ids:
        Keys of :data:`repro.experiments.EXPERIMENTS` (default: all,
        sorted).
    fast:
        Fast profiles (minutes) vs paper-sized grids (hours for C-off).
    output:
        Path to write the Markdown document to.
    csv_dir:
        Directory for per-experiment raw CSV dumps.
    """
    from repro.experiments import EXPERIMENTS

    names = sorted(EXPERIMENTS) if experiment_ids is None else [
        name.upper() for name in experiment_ids
    ]
    unknown = [n for n in names if n not in EXPERIMENTS]
    if unknown:
        raise ValueError(
            f"unknown experiment ids {unknown}; available: "
            f"{sorted(EXPERIMENTS)}"
        )
    profile = "fast" if fast else "full"
    lines = [
        "# Reproduction report",
        "",
        f"Profile: **{profile}**. Generated by `repro.experiments.report`.",
        "",
    ]
    for name in names:
        module = EXPERIMENTS[name]
        start = time.time()
        table: ResultTable = module.run(fast=fast)
        elapsed = time.time() - start
        if csv_dir is not None:
            table.to_csv(Path(csv_dir) / f"{name.lower()}.csv")
        lines.append(f"## {name}")
        lines.append("")
        lines.append(f"_{len(table)} records, {elapsed:.1f}s wall._")
        lines.append("")
        lines.append("```")
        lines.append(module.report(table))
        lines.append("```")
        lines.append("")
    document = "\n".join(lines)
    if output is not None:
        Path(output).write_text(document)
    return document


__all__ = ["run_report"]

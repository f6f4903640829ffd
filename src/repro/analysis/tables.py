"""Table I and Table II emitters.

Table I (the three BOOM configurations) comes straight from the config
objects; Table II (benchmark instructions, interval size, number of
SimPoints) is *measured* — each row reads the workload's SimPoint
selection, fetched through the experiment pipeline exactly as the flow
stores it, and sets it against the paper's values at the documented
1:1000 scale.  A warm store serves the selections alone: the BBV
profiles behind them are neither read nor decoded.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.flow.experiment import experiment_pipeline, FlowSettings
from repro.uarch.config import ALL_CONFIGS, BoomConfig
from repro.workloads.suite import get_workload, workload_names


def table_i(configs: tuple[BoomConfig, ...] = ALL_CONFIGS) -> str:
    """Render Table I: the three BOOM configurations side by side."""
    rows = [config.describe() for config in configs]
    keys = list(rows[0])
    # One width per configuration column, across all of its cells.
    widths = [max(len(str(row[key])) for key in keys) for row in rows]
    lines = []
    for key in keys:
        cells = "  ".join(str(row[key]).rjust(width)
                          for row, width in zip(rows, widths))
        lines.append(f"{key:<24}{cells}")
    return "\n".join(lines)


@dataclass(frozen=True)
class TableIIRow:
    """One measured Table II row."""

    benchmark: str
    suite: str
    interval: int
    num_simpoints: int
    coverage: float
    instructions: int
    paper_instructions_scaled: int
    paper_simpoints: int


def table_ii(settings: FlowSettings | None = None,
             store=None) -> list[TableIIRow]:
    """Measure Table II from each workload's SimPoint selection.

    Pass an :class:`~repro.pipeline.artifacts.ArtifactStore` to reuse
    (and populate) the cached selection artifacts — the same ones the
    sweep's pipeline stages share; only a missing selection profiles.
    """
    if settings is None:
        settings = FlowSettings()
    rows = []
    for name in workload_names():
        spec = get_workload(name)
        selection = experiment_pipeline(settings, store).selection(name)
        top = selection.top_points()
        rows.append(TableIIRow(
            benchmark=name,
            suite=spec.suite,
            interval=spec.interval_for_scale(settings.scale),
            num_simpoints=len(top),
            coverage=selection.coverage_of(top),
            instructions=selection.total_instructions,
            paper_instructions_scaled=spec.target_instructions(settings.scale),
            paper_simpoints=spec.paper_simpoints,
        ))
    return rows


def format_table_ii(rows: list[TableIIRow]) -> str:
    """Render measured Table II next to the paper's scaled values."""
    lines = [f"{'Benchmark':<14}{'Suite':<9}{'Interval':>9}{'#SP':>5}"
             f"{'Cov':>6}{'Instructions':>14}{'Paper/1000':>12}"
             f"{'PaperSP':>8}"]
    for row in rows:
        lines.append(
            f"{row.benchmark:<14}{row.suite:<9}{row.interval:>9}"
            f"{row.num_simpoints:>5}{row.coverage:>6.2f}"
            f"{row.instructions:>14,}{row.paper_instructions_scaled:>12,}"
            f"{row.paper_simpoints:>8}")
    return "\n".join(lines)

"""Sweep comparison: quantify what a design change does, per component.

The ablation studies all ask the same question — *given two sweeps
(baseline and variant), what changed?* — so this module answers it
generically: per-workload and suite-average deltas of IPC, tile power,
per-component power, and perf/W, with a rendered report.

Example::

    baseline = runner.run_all()
    variant = runner.run_all(configs=(MEGA_BOOM.with_issue_queues("ring"),))
    delta = compare_sweeps(baseline, variant,
                           "MegaBOOM", "MegaBOOM-ringiq")
    print(format_comparison(delta))
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.exact import mean
from repro.analysis.figures import ResultMap
from repro.power.area import ANALYZED_COMPONENTS
from repro.workloads.suite import workload_names


@dataclass(frozen=True)
class WorkloadDelta:
    """Relative change of one workload's key metrics (variant/baseline)."""

    workload: str
    ipc_ratio: float
    tile_ratio: float
    perf_per_watt_ratio: float
    component_ratios: dict[str, float]


@dataclass
class SweepComparison:
    """Baseline-vs-variant comparison across a workload set."""

    baseline_name: str
    variant_name: str
    deltas: list[WorkloadDelta] = field(default_factory=list)

    def average(self, metric: str) -> float:
        # Empty on a fully-degraded sweep pair; 1.0 == "no change".
        if not self.deltas:
            return 1.0
        return mean(getattr(delta, metric) for delta in self.deltas)

    def average_component(self, name: str) -> float:
        if not self.deltas:
            return 1.0
        return mean(delta.component_ratios[name] for delta in self.deltas)

    def biggest_component_changes(self, count: int = 3) -> \
            list[tuple[str, float]]:
        """Components whose suite-average power moved the most."""
        moves = [(name, self.average_component(name))
                 for name in ANALYZED_COMPONENTS]
        moves.sort(key=lambda item: abs(item[1] - 1.0), reverse=True)
        return moves[:count]


def _ratio(variant: float, baseline: float) -> float:
    if baseline == 0.0:
        return 1.0 if variant == 0.0 else float("inf")
    return variant / baseline


def compare_sweeps(baseline: ResultMap, variant: ResultMap,
                   baseline_config: str, variant_config: str,
                   workloads: list[str] | None = None) -> SweepComparison:
    """Compare ``variant_config`` results against ``baseline_config``."""
    if workloads is None:
        workloads = [w for w in workload_names()
                     if (w, baseline_config) in baseline
                     and (w, variant_config) in variant]
    comparison = SweepComparison(baseline_name=baseline_config,
                                 variant_name=variant_config)
    for workload in workloads:
        base = baseline[(workload, baseline_config)]
        var = variant[(workload, variant_config)]
        components = {
            name: _ratio(var.component_mw(name), base.component_mw(name))
            for name in ANALYZED_COMPONENTS}
        comparison.deltas.append(WorkloadDelta(
            workload=workload,
            ipc_ratio=_ratio(var.ipc, base.ipc),
            tile_ratio=_ratio(var.tile_mw, base.tile_mw),
            perf_per_watt_ratio=_ratio(var.perf_per_watt,
                                       base.perf_per_watt),
            component_ratios=components))
    return comparison


def format_comparison(comparison: SweepComparison) -> str:
    """Render a comparison as an aligned text report."""
    lines = [f"{comparison.variant_name} vs {comparison.baseline_name}",
             f"{'workload':<14}{'IPC':>8}{'tile':>8}{'perf/W':>8}"]
    for delta in comparison.deltas:
        lines.append(f"{delta.workload:<14}{delta.ipc_ratio:>8.3f}"
                     f"{delta.tile_ratio:>8.3f}"
                     f"{delta.perf_per_watt_ratio:>8.3f}")
    lines.append(f"{'AVERAGE':<14}{comparison.average('ipc_ratio'):>8.3f}"
                 f"{comparison.average('tile_ratio'):>8.3f}"
                 f"{comparison.average('perf_per_watt_ratio'):>8.3f}")
    lines.append("largest component moves: " + ", ".join(
        f"{name} x{ratio:.2f}"
        for name, ratio in comparison.biggest_component_changes()))
    return "\n".join(lines)

"""Suite-level efficiency summaries (the paper's contribution #5).

The paper's headline: the smallest BOOM is on average ~1.6x slower than
the largest but delivers ~52 % more performance per watt.  These helpers
compute the same aggregates from a sweep.

A degraded sweep (PR 2's graceful-degradation mode) can hand these
functions a *partial* result map — some (workload, config) pairs failed
or timed out.  Cross-configuration aggregates are only meaningful for
workloads measured on all three configurations, so :func:`summarize`
skips incomplete workloads and reports the skipped set instead of
raising ``KeyError``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.exact import mean
from repro.analysis.figures import ResultMap
from repro.uarch.config import CLOCK_HZ
from repro.workloads.suite import workload_names

_CONFIGS = ("MediumBOOM", "LargeBOOM", "MegaBOOM")


def energy_per_instruction_pj(result) -> float | None:
    """Average tile energy per retired instruction, picojoules.

    ``P = tile_mw`` over a window of ``IPC`` instructions per cycle at
    the study clock: E/instr = P / (IPC * f).  Returns ``None`` when the
    result retired nothing (``ipc == 0``) — energy per instruction is
    undefined, and ``None`` survives strict JSON where ``inf`` cannot.
    """
    if result.ipc == 0.0:
        return None
    watts = result.tile_mw * 1e-3
    instr_per_second = result.ipc * CLOCK_HZ
    return watts / instr_per_second * 1e12


def energy_delay_product(result) -> float | None:
    """EDP per instruction (J*s, scaled to pJ*ns for readability).

    Lower is better; EDP weights performance and energy equally, the
    metric under which mid-size designs typically shine.  ``None`` when
    undefined (``ipc == 0``).
    """
    if result.ipc == 0.0:
        return None
    energy_pj = energy_per_instruction_pj(result)
    delay_ns = 1e9 / (result.ipc * CLOCK_HZ)
    return energy_pj * delay_ns


@dataclass(frozen=True)
class EfficiencySummary:
    """Cross-configuration efficiency aggregates."""

    ipc_ratio_mega_over_medium: float
    perf_per_watt_ratio_medium_over_mega: float
    winners: dict[str, str]          # benchmark -> best perf/W config
    medium_wins: int
    average_perf_per_watt: dict[str, float]
    #: workloads excluded because a config was missing or unmeasurable
    skipped: tuple[str, ...] = ()

    def format(self) -> str:
        lines = [
            f"Mega/Medium IPC ratio (avg):        "
            f"{self.ipc_ratio_mega_over_medium:.2f}  (paper: 1.6)",
            f"Medium/Mega perf-per-watt (avg):    "
            f"{self.perf_per_watt_ratio_medium_over_mega:.2f}  "
            f"(paper: 1.52)",
            f"MediumBOOM wins perf/W on {self.medium_wins} of "
            f"{len(self.winners)} benchmarks  (paper: 8 of 11)",
        ]
        for config, value in self.average_perf_per_watt.items():
            lines.append(f"  avg perf/W {config:<12} {value:8.1f} IPC/W")
        if self.skipped:
            lines.append(f"skipped (incomplete results): "
                         f"{', '.join(self.skipped)}")
        return "\n".join(lines)


def complete_workloads(results: ResultMap,
                       configs: tuple[str, ...] = _CONFIGS
                       ) -> tuple[list[str], list[str]]:
    """Split the suite into (complete, skipped) for a result map.

    A workload is *complete* when every requested config is present in
    ``results``; everything else — missing pairs from a degraded sweep —
    lands in the skipped list.
    """
    complete = []
    skipped = []
    for workload in workload_names():
        if all((workload, config) in results for config in configs):
            complete.append(workload)
        else:
            skipped.append(workload)
    return complete, skipped


def summarize(results: ResultMap) -> EfficiencySummary:
    """Compute the paper's headline efficiency aggregates from a sweep.

    Workloads missing any of the three configurations — or whose
    MediumBOOM/MegaBOOM denominators are zero — are skipped and reported
    in :attr:`EfficiencySummary.skipped` rather than crashing on the
    partial maps a degraded sweep produces.
    """
    names, skipped = complete_workloads(results)
    usable = [w for w in names
              if results[(w, "MediumBOOM")].ipc
              and results[(w, "MegaBOOM")].perf_per_watt]
    skipped.extend(w for w in names if w not in usable)
    if not usable:
        return EfficiencySummary(
            ipc_ratio_mega_over_medium=0.0,
            perf_per_watt_ratio_medium_over_mega=0.0,
            winners={}, medium_wins=0, average_perf_per_watt={},
            skipped=tuple(skipped))
    ipc_ratio = mean(results[(w, "MegaBOOM")].ipc
                     / results[(w, "MediumBOOM")].ipc for w in usable)
    ppw_ratio = mean(results[(w, "MediumBOOM")].perf_per_watt
                     / results[(w, "MegaBOOM")].perf_per_watt
                     for w in usable)
    winners = {}
    for workload in usable:
        best = max(_CONFIGS,
                   key=lambda c: results[(workload, c)].perf_per_watt)
        winners[workload] = best
    averages = {config: mean(results[(w, config)].perf_per_watt
                             for w in usable)
                for config in _CONFIGS}
    return EfficiencySummary(
        ipc_ratio_mega_over_medium=ipc_ratio,
        perf_per_watt_ratio_medium_over_mega=ppw_ratio,
        winners=winners,
        medium_wins=sum(1 for best in winners.values()
                        if best == "MediumBOOM"),
        average_perf_per_watt=averages,
        skipped=tuple(skipped),
    )

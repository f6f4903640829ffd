"""Programmatic validation of the paper's 8 key takeaways.

Each check evaluates one of the paper's boxed takeaways against a sweep's
results and returns a :class:`TakeawayCheck` with the evidence, so the
benchmark harness and EXPERIMENTS.md can report exactly which qualitative
claims the reproduction supports.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.exact import mean
from repro.analysis.figures import ResultMap
from repro.power.area import ANALYZED_COMPONENTS
from repro.uarch.config import config_by_name
from repro.workloads.suite import workload_names

_CONFIGS = ("MediumBOOM", "LargeBOOM", "MegaBOOM")
_FP_WORKLOADS = ("fft", "ifft", "qsort")


@dataclass(frozen=True)
class TakeawayCheck:
    """Outcome of one key-takeaway validation."""

    number: int
    claim: str
    passed: bool
    evidence: str


def _avg(results: ResultMap, config: str, component: str) -> float:
    values = [results[(w, config)].component_mw(component)
              for w in workload_names() if (w, config) in results]
    # A degraded sweep may have no results at all for a config; 0.0 lets
    # the takeaway fail on evidence instead of crashing on mean([]).
    return mean(values) if values else 0.0


def _skipped(number: int, claim: str, *pairs: tuple[str, str]) -> \
        TakeawayCheck:
    """Failed check recording which (workload, config) results were
    missing from a degraded sweep."""
    missing = ", ".join(f"{w}/{c}" for w, c in pairs)
    return TakeawayCheck(number, claim, False,
                         f"skipped: missing results for {missing}")


def check_takeaway_1(results: ResultMap) -> TakeawayCheck:
    """Integer RF power varies strongly across configs (bypass ports)."""
    medium = _avg(results, "MediumBOOM", "int_regfile")
    large = _avg(results, "LargeBOOM", "int_regfile")
    mega = _avg(results, "MegaBOOM", "int_regfile")
    passed = mega > 3.0 * large > 3.0 * medium
    return TakeawayCheck(
        1, "Integer RF power grows super-linearly with ports "
           "(Medium << Large << Mega)",
        passed,
        f"IRF avg mW: Medium={medium:.2f} Large={large:.2f} "
        f"Mega={mega:.2f}")


def check_takeaway_2(results: ResultMap) -> TakeawayCheck:
    """FP RF: near-zero in Medium/Large outside FP code; Mega static floor."""
    floors = {}
    for config in _CONFIGS:
        int_only = [results[(w, config)].component_mw("fp_regfile")
                    for w in workload_names()
                    if w not in _FP_WORKLOADS and (w, config) in results]
        floors[config] = mean(int_only) if int_only else 0.0
    passed = (floors["MediumBOOM"] < 0.25 and floors["LargeBOOM"] < 0.35
              and floors["MegaBOOM"] > 3.0 * floors["LargeBOOM"])
    return TakeawayCheck(
        2, "FP RF power is tiny in Medium/Large but has a large static "
           "floor in Mega (2x ports)",
        passed,
        "FP-free-workload FP RF floor mW: "
        + " ".join(f"{c}={floors[c]:.3f}" for c in _CONFIGS))


def check_takeaway_3(results: ResultMap) -> TakeawayCheck:
    """FP rename burns power even in FP-free code (branch snapshots)."""
    ratios = []
    for config in _CONFIGS:
        free_values = [results[(w, config)].component_mw("fp_rename")
                       for w in workload_names()
                       if w not in _FP_WORKLOADS and (w, config) in results]
        heavy_values = [results[(w, config)].component_mw("fp_rename")
                        for w in _FP_WORKLOADS if (w, config) in results]
        fp_free = mean(free_values) if free_values else 0.0
        fp_heavy = mean(heavy_values) if heavy_values else 0.0
        ratios.append(fp_free / fp_heavy if fp_heavy else 0.0)
    passed = all(ratio > 0.35 for ratio in ratios)
    return TakeawayCheck(
        3, "FP Rename Unit consumes comparable power in FP-free and "
           "FP-heavy code (allocation-list snapshots per branch)",
        passed,
        "FP-free/FP-heavy fp_rename power ratios per config: "
        + " ".join(f"{r:.2f}" for r in ratios))


def check_takeaway_4(results: ResultMap) -> TakeawayCheck:
    """Issue units are collectively #2 behind the BP; int IQ leads them,
    and occupancy (dijkstra) beats IPC (sha) as the power driver."""
    evidence = []
    passed = True
    for config in _CONFIGS:
        averages = {name: _avg(results, config, name)
                    for name in ANALYZED_COMPONENTS}
        issue_total = (averages["int_issue"] + averages["mem_issue"]
                       + averages["fp_issue"])
        others = {name: value for name, value in averages.items()
                  if name not in ("branch_predictor", "int_issue",
                                  "mem_issue", "fp_issue")}
        if issue_total < max(others.values()):
            passed = False
        if averages["int_issue"] < max(averages["mem_issue"],
                                       averages["fp_issue"]):
            passed = False
        evidence.append(f"{config}: issue_total={issue_total:.2f}")
    claim = ("Issue units are collectively the #2 consumer; the int IQ "
             "dominates them and occupancy, not IPC, drives its power")
    missing = [(w, "MegaBOOM") for w in ("dijkstra", "sha")
               if (w, "MegaBOOM") not in results]
    if missing:
        return _skipped(4, claim, *missing)
    dijkstra = results[("dijkstra", "MegaBOOM")]
    sha = results[("sha", "MegaBOOM")]
    occupancy_beats_ipc = (
        dijkstra.component_mw("int_issue") > sha.component_mw("int_issue")
        and dijkstra.ipc < sha.ipc)
    passed = passed and occupancy_beats_ipc
    evidence.append(
        f"dijkstra intIQ={dijkstra.component_mw('int_issue'):.2f} "
        f"(ipc {dijkstra.ipc:.2f}) vs sha "
        f"intIQ={sha.component_mw('int_issue'):.2f} (ipc {sha.ipc:.2f})")
    return TakeawayCheck(4, claim, passed, "; ".join(evidence))


def check_takeaway_5(results: ResultMap) -> TakeawayCheck:
    """Collapsing queues pay shift writes on every issue."""
    # Structural check via the slot data: inner slots accumulate writes
    # beyond their insertions (the shift traffic).
    claim = ("Collapsing issue queues spend energy shifting entries "
             "toward the head (front slots busier than tail slots)")
    if ("sha", "MegaBOOM") not in results:
        return _skipped(5, claim, ("sha", "MegaBOOM"))
    sha = results[("sha", "MegaBOOM")]
    slots = sha.int_issue_slot_mw()
    passed = len(slots) == 40 and slots[0] > slots[-1]
    return TakeawayCheck(
        5, claim, passed,
        f"MegaBOOM sha slot powers: head={slots[0]:.3f} mW, "
        f"tail={slots[-1]:.3f} mW" if slots else "no slot data")


def check_takeaway_6(results: ResultMap) -> TakeawayCheck:
    """The merged-regfile ROB stays a modest consumer (~4-5% of tile)."""
    shares = []
    for config in _CONFIGS:
        rob = _avg(results, config, "rob")
        tiles = [results[(w, config)].tile_mw for w in workload_names()
                 if (w, config) in results]
        tile = mean(tiles) if tiles else 0.0
        shares.append(rob / tile if tile else 0.0)
    passed = all(0.01 < share < 0.08 for share in shares)
    return TakeawayCheck(
        6, "The ROB is a modest (~4%) consumer because the merged "
           "register file keeps instruction data out of it",
        passed,
        "ROB tile share per config: "
        + " ".join(f"{s:.1%}" for s in shares))


def check_takeaway_7(results: ResultMap,
                     gshare_results: ResultMap | None = None) -> \
        TakeawayCheck:
    """The BP is the #1 consumer; TAGE ~2.5x gshare when both measured."""
    passed = True
    evidence = []
    for config in _CONFIGS:
        averages = {name: _avg(results, config, name)
                    for name in ANALYZED_COMPONENTS}
        top = max(averages, key=averages.get)
        if top != "branch_predictor":
            passed = False
        evidence.append(f"{config} top={top} "
                        f"({averages[top]:.2f} mW)")
    if gshare_results:
        ratios = []
        for config in _CONFIGS:
            tage = _avg(results, config, "branch_predictor")
            # Ablation names are derived from the config's content hash
            # (see BoomConfig._ablated), so look the name up through the
            # same helper instead of reassembling it by string format.
            gshare_name = config_by_name(config) \
                .with_predictor("gshare").name
            values = [
                gshare_results[(w, gshare_name)].component_mw(
                    "branch_predictor")
                for w in workload_names()
                if (w, gshare_name) in gshare_results]
            gshare = mean(values) if values else 0.0
            if gshare:
                ratios.append(tage / gshare)
        if ratios:
            average_ratio = mean(ratios)
            passed = passed and 1.6 < average_ratio < 4.0
            evidence.append(f"TAGE/gshare power ratio: {average_ratio:.2f} "
                            "(paper: ~2.5)")
        else:
            passed = False
            evidence.append("TAGE/gshare ratio: no gshare results")
    return TakeawayCheck(
        7, "The branch predictor is the top power consumer in every "
           "configuration; TAGE costs ~2.5x gshare",
        passed, "; ".join(evidence))


def check_takeaway_8(results: ResultMap) -> TakeawayCheck:
    """Mega's D$ outdraws Large's despite identical geometry (MSHRs,
    second memory unit), and the D$ is a top-3 consumer in Mega."""
    large = _avg(results, "LargeBOOM", "dcache")
    mega = _avg(results, "MegaBOOM", "dcache")
    averages = {name: _avg(results, "MegaBOOM", name)
                for name in ANALYZED_COMPONENTS}
    rank = sorted(averages, key=averages.get, reverse=True)
    passed = mega > 1.3 * large and "dcache" in rank[:4]
    return TakeawayCheck(
        8, "MegaBOOM's L1D consumes clearly more than LargeBOOM's despite "
           "identical size/associativity (2x MSHRs + second memory unit)",
        passed,
        f"dcache avg mW: Large={large:.2f} Mega={mega:.2f}; Mega rank: "
        f"{rank.index('dcache') + 1}")


def check_all(results: ResultMap,
              gshare_results: ResultMap | None = None) -> \
        list[TakeawayCheck]:
    """Run every takeaway check."""
    return [
        check_takeaway_1(results),
        check_takeaway_2(results),
        check_takeaway_3(results),
        check_takeaway_4(results),
        check_takeaway_5(results),
        check_takeaway_6(results),
        check_takeaway_7(results, gshare_results),
        check_takeaway_8(results),
    ]

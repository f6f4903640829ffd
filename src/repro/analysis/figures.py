"""Data-series emitters for every figure in the paper's evaluation.

Each ``fig*`` function takes the dictionary produced by
:meth:`repro.flow.sweep.SweepRunner.run_all` — keyed by
``(workload, config name)`` — and returns the exact series the paper
plots.  The series are the deliverable and are easy to plot downstream;
:mod:`repro.flow.report` renders them as the report's markdown
sections.
"""

from __future__ import annotations

from repro.flow.results import ExperimentResult
from repro.power.area import ANALYZED_COMPONENTS
from repro.workloads.suite import workload_names

ResultMap = dict[tuple[str, str], ExperimentResult]

#: Display labels matching the paper's component naming.
COMPONENT_LABELS: dict[str, str] = {
    "branch_predictor": "Branch Predictor",
    "fetch_buffer": "Fetch Buffer",
    "int_rename": "Int Rename",
    "fp_rename": "FP Rename",
    "int_issue": "Int Issue Unit",
    "mem_issue": "Mem Issue Unit",
    "fp_issue": "FP Issue Unit",
    "rob": "ROB",
    "int_regfile": "Int Regfile",
    "fp_regfile": "FP Regfile",
    "lsu": "LSU",
    "dcache": "L1 D-Cache",
    "icache": "L1 I-Cache",
}


def _workloads(results: ResultMap, config_name: str) -> list[str]:
    return [w for w in workload_names() if (w, config_name) in results]


def component_power_series(results: ResultMap, config_name: str) -> \
        dict[str, dict[str, float]]:
    """Figs. 5/6/7: per-component power (mW) per workload for one config."""
    series: dict[str, dict[str, float]] = {}
    for workload in _workloads(results, config_name):
        result = results[(workload, config_name)]
        series[workload] = {name: result.component_mw(name)
                            for name in ANALYZED_COMPONENTS}
    return series


def fig8_issue_slots(results: ResultMap,
                     config_name: str = "MegaBOOM") -> \
        dict[str, list[float]]:
    """Fig. 8: per-slot integer-IQ power for dijkstra vs sha (MegaBOOM).

    Degraded sweeps may be missing either workload; absent pairs are
    simply omitted from the returned mapping.
    """
    return {workload: results[(workload, config_name)].int_issue_slot_mw()
            for workload in ("dijkstra", "sha")
            if (workload, config_name) in results}


def fig9_component_share(results: ResultMap) -> dict[str, float]:
    """Fig. 9: analyzed-component share of tile power per configuration."""
    shares: dict[str, float] = {}
    for config_name in ("MediumBOOM", "LargeBOOM", "MegaBOOM"):
        rows = [results[(w, config_name)]
                for w in _workloads(results, config_name)]
        if rows:
            shares[config_name] = (sum(r.analyzed_share for r in rows)
                                   / len(rows))
    return shares


def fig10_ipc(results: ResultMap) -> dict[str, dict[str, float]]:
    """Fig. 10: IPC per benchmark per configuration."""
    series: dict[str, dict[str, float]] = {}
    for config_name in ("MediumBOOM", "LargeBOOM", "MegaBOOM"):
        series[config_name] = {
            w: results[(w, config_name)].ipc
            for w in _workloads(results, config_name)}
    return series


def fig11_perf_per_watt(results: ResultMap) -> dict[str, dict[str, float]]:
    """Fig. 11: performance per watt per benchmark per configuration."""
    series: dict[str, dict[str, float]] = {}
    for config_name in ("MediumBOOM", "LargeBOOM", "MegaBOOM"):
        series[config_name] = {
            w: results[(w, config_name)].perf_per_watt
            for w in _workloads(results, config_name)}
    return series

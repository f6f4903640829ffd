"""Design-space exploration analysis: Pareto frontiers over a swept
config lattice (ROADMAP item 3).

The paper's Fig. 4-style efficiency analysis compares three designs;
this module scales the same question — *which designs buy performance
efficiently?* — to an arbitrary swept design space:

* :func:`summarize_space` collapses a (possibly degraded) sweep result
  map into one :class:`DesignPoint` per config: suite-averaged IPC,
  tile power, perf/W, energy per instruction, the structural area proxy
  from :mod:`repro.power.area`, and per-component power for hotspot
  attribution;
* :func:`pareto_frontier` splits the points into the non-dominated set
  and the pruned dominated set under (IPC up, tile mW down, area down);
* :func:`frontier_hotspots` attributes each frontier point's power to
  its hottest components — the paper's hotspot lens applied *along the
  frontier* instead of at three fixed designs;
* :func:`sensitivity_table` reports the per-axis Δmetric of the
  single-parameter neighbors around a center point (the generated
  neighborhood makes those neighbors exist by construction);
* :func:`frontier_document` bundles everything into the strict-JSON
  artifact ``repro-cli dse`` emits.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.analysis.efficiency import energy_per_instruction_pj
from repro.analysis.exact import mean
from repro.analysis.figures import ResultMap
from repro.power.area import ANALYZED_COMPONENTS, area_proxy
from repro.uarch.config import BoomConfig, config_id, PRESET_CONFIGS
from repro.uarch.space import DesignSpace
from repro.workloads.suite import workload_names

__all__ = [
    "DesignPoint",
    "OBJECTIVES",
    "summarize_space",
    "dominates",
    "pareto_frontier",
    "frontier_hotspots",
    "sensitivity_table",
    "frontier_document",
    "format_frontier",
    "format_sensitivity",
]

#: frontier objectives: (DesignPoint attribute, sense)
OBJECTIVES: tuple[tuple[str, str], ...] = (
    ("ipc", "max"),
    ("tile_mw", "min"),
    ("area", "min"),
)


@dataclass(frozen=True)
class DesignPoint:
    """One swept design, collapsed to its suite-level DSE metrics."""

    name: str
    config_id: str
    ipc: float
    tile_mw: float
    perf_per_watt: float
    epi_pj: float | None
    area: float
    components_mw: dict[str, float] = field(default_factory=dict)
    #: lattice coordinates relative to the space base (presentation)
    params: dict[str, int] = field(default_factory=dict)
    workloads: tuple[str, ...] = ()
    preset: bool = False

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "config_id": self.config_id,
            "ipc": self.ipc,
            "tile_mw": self.tile_mw,
            "perf_per_watt": self.perf_per_watt,
            "epi_pj": self.epi_pj,
            "area": self.area,
            "components_mw": dict(self.components_mw),
            "params": dict(self.params),
            "workloads": list(self.workloads),
            "preset": self.preset,
        }


def summarize_space(results: ResultMap, configs: Sequence[BoomConfig],
                    workloads: Sequence[str] | None = None,
                    space: DesignSpace | None = None,
                    ) -> tuple[list[DesignPoint], list[str]]:
    """Collapse a sweep over ``configs`` into per-design summaries.

    Returns ``(points, skipped)``.  Cross-design comparisons are only
    meaningful over a common workload set, so a config missing any of
    the requested workloads (a degraded sweep) — or measuring zero IPC
    anywhere — lands in ``skipped`` instead of skewing the frontier.
    """
    if workloads is None:
        swept = {workload for workload, _ in results}
        workloads = [w for w in workload_names() if w in swept]
    points: list[DesignPoint] = []
    skipped: list[str] = []
    preset_names = {config.name for config in PRESET_CONFIGS}
    for config in configs:
        rows = [results.get((workload, config.name))
                for workload in workloads]
        if any(row is None or row.ipc == 0.0 for row in rows):
            skipped.append(config.name)
            continue
        epis = [energy_per_instruction_pj(row) for row in rows]
        epis = [value for value in epis if value is not None]
        components = {
            name: mean(row.component_mw(name) for row in rows)
            for name in ANALYZED_COMPONENTS}
        points.append(DesignPoint(
            name=config.name,
            config_id=config_id(config),
            ipc=mean(row.ipc for row in rows),
            tile_mw=mean(row.tile_mw for row in rows),
            perf_per_watt=mean(row.perf_per_watt for row in rows),
            epi_pj=mean(epis) if epis else None,
            area=area_proxy(config),
            components_mw=components,
            params=(space.overrides_for(config)
                    if space is not None else {}),
            workloads=tuple(workloads),
            preset=config.name in preset_names,
        ))
    return points, skipped


def dominates(a: DesignPoint, b: DesignPoint,
              objectives: tuple[tuple[str, str], ...] = OBJECTIVES) -> bool:
    """Whether ``a`` Pareto-dominates ``b``: no worse on every
    objective, strictly better on at least one."""
    strictly_better = False
    for attribute, sense in objectives:
        va, vb = getattr(a, attribute), getattr(b, attribute)
        if sense == "max":
            if va < vb:
                return False
            strictly_better = strictly_better or va > vb
        else:
            if va > vb:
                return False
            strictly_better = strictly_better or va < vb
    return strictly_better


def pareto_frontier(points: Iterable[DesignPoint],
                    objectives: tuple[tuple[str, str], ...] = OBJECTIVES,
                    ) -> tuple[list[DesignPoint], list[DesignPoint]]:
    """Split points into (frontier, dominated).

    The frontier is sorted by descending IPC — reading it top to bottom
    walks the efficiency ramp from the most aggressive design down.
    Duplicate-metric points (distinct configs, same measurements) all
    stay on the frontier: none strictly beats the other.
    """
    points = list(points)
    frontier: list[DesignPoint] = []
    dominated: list[DesignPoint] = []
    for point in points:
        if any(dominates(other, point, objectives) for other in points):
            dominated.append(point)
        else:
            frontier.append(point)
    frontier.sort(key=lambda p: (-p.ipc, p.tile_mw, p.area, p.name))
    dominated.sort(key=lambda p: (-p.ipc, p.tile_mw, p.area, p.name))
    return frontier, dominated


def frontier_hotspots(frontier: Sequence[DesignPoint],
                      top: int = 3) -> dict[str, list[tuple[str, float,
                                                            float]]]:
    """Per-frontier-point hotspot attribution.

    For each non-dominated design: its ``top`` hottest analyzed
    components as ``(component, mW, share-of-analyzed)`` — the paper's
    per-component hotspot story told along the frontier.
    """
    out: dict[str, list[tuple[str, float, float]]] = {}
    for point in frontier:
        analyzed = sum(point.components_mw.values())
        ranked = sorted(point.components_mw.items(),
                        key=lambda item: (-item[1], item[0]))
        out[point.name] = [
            (name, mw, mw / analyzed if analyzed else 0.0)
            for name, mw in ranked[:top]]
    return out


def sensitivity_table(space: DesignSpace, points: Sequence[DesignPoint],
                      center: DesignPoint | None = None,
                      ) -> list[dict]:
    """Per-axis Δmetric of single-parameter steps around ``center``.

    ``center`` defaults to the point whose config ID matches the space's
    base (the preset the neighborhood was generated around).  For every
    axis with measured single-change neighbors, reports the average
    per-rung-step change in IPC, tile power, and area — the local
    gradient of the design space at the preset.
    """
    by_id = {point.config_id: point for point in points}
    if center is None:
        center = by_id.get(config_id(space.base))
    if center is None:
        return []
    axes = {axis.path: axis for axis in space.axes}
    base_indexes = dict(zip((axis.path for axis in space.axes),
                            space.base_indexes()))
    rows: list[dict] = []
    for path, axis in axes.items():
        deltas: list[tuple[float, float, float]] = []
        for point in points:
            if point.config_id == center.config_id:
                continue
            if set(point.params) != {path}:
                continue
            step = (axis.nearest_index(point.params[path])
                    - base_indexes[path])
            if step == 0:
                continue
            deltas.append(((point.ipc - center.ipc) / step,
                           (point.tile_mw - center.tile_mw) / step,
                           (point.area - center.area) / step))
        if not deltas:
            continue
        rows.append({
            "axis": path,
            "neighbors": len(deltas),
            "dipc_per_step": mean(delta[0] for delta in deltas),
            "dmw_per_step": mean(delta[1] for delta in deltas),
            "darea_per_step": mean(delta[2] for delta in deltas),
        })
    rows.sort(key=lambda row: -abs(row["dipc_per_step"]))
    return rows


def frontier_document(points: Sequence[DesignPoint],
                      frontier: Sequence[DesignPoint],
                      dominated: Sequence[DesignPoint],
                      skipped: Sequence[str] = (),
                      sensitivity: Sequence[dict] = (),
                      spec: dict | None = None,
                      settings: dict | None = None) -> dict:
    """The ``dse frontier`` artifact: everything a report needs, as
    strict JSON."""
    return {
        "format": 1,
        "spec": spec or {},
        "settings": settings or {},
        "objectives": [list(objective) for objective in OBJECTIVES],
        "points": [point.to_dict() for point in points],
        "frontier": [point.name for point in frontier],
        "dominated": [point.name for point in dominated],
        "skipped": list(skipped),
        "hotspots": {
            name: [[component, mw, share]
                   for component, mw, share in ranked]
            for name, ranked in frontier_hotspots(frontier).items()},
        "sensitivity": list(sensitivity),
    }


def format_frontier(points: Sequence[DesignPoint],
                    frontier: Sequence[DesignPoint],
                    skipped: Sequence[str] = ()) -> str:
    """Human-readable frontier table with hotspot annotations."""
    on_frontier = {point.name for point in frontier}
    lines = [f"Pareto frontier: {len(frontier)} of {len(points)} design "
             f"points non-dominated (IPC vs tile mW vs area)"]
    header = (f"  {'design':<26}{'IPC':>6}{'mW':>8}{'IPC/W':>8}"
              f"{'pJ/i':>7}{'area(MGE)':>10}  hottest components")
    lines.append(header)
    hotspots = frontier_hotspots(frontier)
    for point in frontier:
        hot = ", ".join(f"{name} {share:.0%}"
                        for name, _, share in hotspots[point.name][:2])
        marker = "*" if point.preset else " "
        epi = f"{point.epi_pj:7.1f}" if point.epi_pj is not None \
            else f"{'-':>7}"
        lines.append(f" {marker}{point.name:<26}{point.ipc:>6.2f}"
                     f"{point.tile_mw:>8.2f}{point.perf_per_watt:>8.1f}"
                     f"{epi}{point.area / 1e6:>10.2f}  {hot}")
    near = [point for point in points
            if point.name not in on_frontier and point.preset]
    for point in near:
        lines.append(f" *{point.name:<26} (dominated)")
    if skipped:
        lines.append(f"  skipped (incomplete results): "
                     f"{', '.join(skipped)}")
    lines.append("  (* = paper preset; area in millions of "
                 "gate-equivalents)")
    return "\n".join(lines)


def format_sensitivity(rows: Sequence[dict], center_name: str) -> str:
    """Human-readable per-axis sensitivity table."""
    if not rows:
        return (f"(no single-axis neighbors of {center_name} measured; "
                f"generate a neighborhood around it first)")
    lines = [f"Sensitivity around {center_name} (per lattice step):",
             f"  {'axis':<26}{'n':>3}{'dIPC':>9}{'dmW':>9}"
             f"{'darea(kGE)':>12}"]
    for row in rows:
        lines.append(f"  {row['axis']:<26}{row['neighbors']:>3}"
                     f"{row['dipc_per_step']:>+9.3f}"
                     f"{row['dmw_per_step']:>+9.2f}"
                     f"{row['darea_per_step'] / 1e3:>+12.1f}")
    return "\n".join(lines)

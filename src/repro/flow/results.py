"""Result records for the experimental flow, with JSON serialization.

One :class:`ExperimentResult` captures everything the paper reports for a
(workload, configuration) pair: the SimPoint selection, per-point IPC and
power, and the SimPoint-weighted aggregates used in Figs. 5-11.  Records
serialize to plain dictionaries so sweeps can be cached on disk.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

from repro.power.area import ANALYZED_COMPONENTS, REST_OF_TILE
from repro.power.report import ComponentPower, PowerReport

#: the order :class:`~repro.power.model.PowerModel` reports components in
_MODEL_ORDER = (*ANALYZED_COMPONENTS, REST_OF_TILE)


def _reject_non_finite(node, path: str) -> None:
    """Fail with the offending key path if ``node`` holds NaN/inf.

    ``json.dumps(allow_nan=False)`` would also refuse, but its error
    doesn't say *which* value is bad; this walk does.
    """
    if isinstance(node, float):
        if not math.isfinite(node):
            raise ValueError(f"non-finite value at {path}: {node!r}")
    elif isinstance(node, dict):
        for key, value in node.items():
            _reject_non_finite(value, f"{path}.{key}")
    elif isinstance(node, (list, tuple)):
        for index, value in enumerate(node):
            _reject_non_finite(value, f"{path}[{index}]")


@dataclass
class SimPointRun:
    """One executed SimPoint: measured stats summary plus power."""

    interval_index: int
    weight: float
    warmup_instructions: int
    measured_instructions: int
    cycles: int
    ipc: float
    report: PowerReport

    def to_dict(self) -> dict:
        return {
            "interval_index": self.interval_index,
            "weight": self.weight,
            "warmup_instructions": self.warmup_instructions,
            "measured_instructions": self.measured_instructions,
            "cycles": self.cycles,
            "ipc": self.ipc,
            "components": {
                name: [c.leakage_mw, c.internal_mw, c.switching_mw]
                for name, c in self.report.components.items()},
            "int_issue_slot_mw": self.report.int_issue_slot_mw,
        }

    @classmethod
    def from_dict(cls, data: dict, config_name: str,
                  workload: str) -> "SimPointRun":
        report = PowerReport(config_name=config_name, workload=workload,
                             cycles=data["cycles"])
        # Rebuild the components in the power model's insertion order:
        # the cache stores them with sorted keys, and sums over them
        # (``tile_mw``) must not change in the last bit on a warm read.
        components = data["components"]
        order = [name for name in _MODEL_ORDER if name in components]
        if len(order) < len(components):
            order += [name for name in components if name not in order]
        for name in order:
            leak, internal, switch = components[name]
            report.components[name] = ComponentPower(leak, internal, switch)
        report.int_issue_slot_mw = list(data["int_issue_slot_mw"])
        return cls(interval_index=data["interval_index"],
                   weight=data["weight"],
                   warmup_instructions=data["warmup_instructions"],
                   measured_instructions=data["measured_instructions"],
                   cycles=data["cycles"], ipc=data["ipc"], report=report)


@dataclass
class ExperimentResult:
    """SimPoint-weighted outcome for one (workload, configuration) pair."""

    workload: str
    config_name: str
    scale: float
    total_instructions: int
    interval_size: int
    num_intervals: int
    chosen_k: int
    coverage: float
    runs: list[SimPointRun] = field(default_factory=list)

    @property
    def _weight_total(self) -> float:
        return sum(run.weight for run in self.runs)

    @property
    def ipc(self) -> float:
        """SimPoint-weighted IPC (Fig. 10)."""
        total = self._weight_total
        if not total:
            return 0.0
        return sum(run.weight * run.ipc for run in self.runs) / total

    def component_mw(self, name: str) -> float:
        """SimPoint-weighted power of one component (Figs. 5-7)."""
        total = self._weight_total
        if not total:
            return 0.0
        return sum(run.weight * run.report.components[name].total_mw
                   for run in self.runs) / total

    @property
    def tile_mw(self) -> float:
        total = self._weight_total
        if not total:
            return 0.0
        return sum(run.weight * run.report.tile_mw
                   for run in self.runs) / total

    @property
    def analyzed_mw(self) -> float:
        return sum(self.component_mw(name) for name in ANALYZED_COMPONENTS)

    @property
    def analyzed_share(self) -> float:
        """Fig. 9: analyzed-component share of the tile power."""
        tile = self.tile_mw
        return self.analyzed_mw / tile if tile else 0.0

    @property
    def perf_per_watt(self) -> float:
        """IPC per watt (Fig. 11)."""
        tile_watts = self.tile_mw * 1e-3
        return self.ipc / tile_watts if tile_watts else 0.0

    def int_issue_slot_mw(self) -> list[float]:
        """SimPoint-weighted per-slot power of the integer IQ (Fig. 8)."""
        total = self._weight_total
        if not total or not self.runs:
            return []
        slots = len(self.runs[0].report.int_issue_slot_mw)
        out = [0.0] * slots
        for run in self.runs:
            for index, value in enumerate(run.report.int_issue_slot_mw):
                out[index] += run.weight * value
        return [value / total for value in out]

    @property
    def detailed_instructions(self) -> int:
        """Instructions actually simulated in detail (speedup accounting)."""
        return sum(run.warmup_instructions + run.measured_instructions
                   for run in self.runs)

    def to_dict(self) -> dict:
        return {
            "workload": self.workload,
            "config_name": self.config_name,
            "scale": self.scale,
            "total_instructions": self.total_instructions,
            "interval_size": self.interval_size,
            "num_intervals": self.num_intervals,
            "chosen_k": self.chosen_k,
            "coverage": self.coverage,
            "runs": [run.to_dict() for run in self.runs],
        }

    def to_json(self) -> str:
        """Canonical (sorted-key) strict-JSON form.

        Byte-identical for equal results regardless of how they were
        produced — the form the serial-vs-parallel determinism guarantee
        is stated (and tested) in.  ``allow_nan=False`` makes any
        non-finite value a loud serialization error instead of emitting
        ``NaN``/``Infinity`` tokens that no strict JSON parser (or the
        artifact-store round trip) would accept.
        """
        payload = self.to_dict()
        _reject_non_finite(payload, f"{self.workload}/{self.config_name}")
        return json.dumps(payload, sort_keys=True, allow_nan=False)

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentResult":
        result = cls(workload=data["workload"],
                     config_name=data["config_name"],
                     scale=data["scale"],
                     total_instructions=data["total_instructions"],
                     interval_size=data["interval_size"],
                     num_intervals=data["num_intervals"],
                     chosen_k=data["chosen_k"],
                     coverage=data["coverage"])
        result.runs = [
            SimPointRun.from_dict(run, data["config_name"],
                                  data["workload"])
            for run in data["runs"]]
        return result

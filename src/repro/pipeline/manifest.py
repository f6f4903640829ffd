"""Run manifests: per-stage execution/cache accounting for one sweep.

A :class:`RunManifest` is the observability artifact the staged pipeline
produces alongside its results: how many times each stage actually
executed, how often the artifact cache served it, how much wall-clock
each stage consumed, and the overall cache hit rate.  ``repro-cli sweep
--verbose`` prints it, and sweeps with a disk cache persist it as
``run_manifest.json`` in the cache root.

The manifest is also how the study's headline caching property is
verified: on a cold cache a full sweep must execute ``bbv_profile``,
``simpoint_selection`` and ``checkpoints`` exactly once per workload
(not once per workload x configuration), and a warm re-run must report
a 100 % hit rate with zero stage executions.

Since the supervised-scheduler refactor the manifest also carries the
sweep's *fault record*: permanently-failed experiments (``failures``),
abandoned hung tasks (``timeouts``) and the per-task transparent retry
counts (``retries``).  A sweep with a non-empty ``failures`` or
``timeouts`` section still completes and persists every other result;
``repro-cli sweep`` turns those sections into a failure table and a
non-zero exit code.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from repro.pipeline.artifacts import StageStats


@dataclass(frozen=True)
class TaskRecord:
    """One task the scheduler could not complete (or had to abandon)."""

    key: str          # e.g. "qsort/MediumBOOM" or "prepare:qsort"
    kind: str         # "permanent" | "transient" | "timeout" | "skipped"
    error: str        # the failing exception, rendered
    attempts: int = 1

    def to_dict(self) -> dict:
        return {"key": self.key, "kind": self.kind, "error": self.error,
                "attempts": self.attempts}

    @classmethod
    def from_dict(cls, data: Mapping) -> "TaskRecord":
        return cls(key=data["key"], kind=data["kind"],
                   error=data["error"], attempts=data.get("attempts", 1))


@dataclass(frozen=True)
class TaskExecution:
    """Where and when one scheduled task actually ran (successfully).

    Captured by the scheduler's task envelope so degraded-run triage —
    which worker ran what, when, after how many attempts — needs only
    the manifest, not the full trace file.
    """

    key: str            # task identity, e.g. "qsort/MediumBOOM"
    pid: int            # worker process id
    started: float      # wall-clock (epoch seconds) at attempt start
    ended: float        # wall-clock at attempt end
    attempts: int = 1   # attempts consumed including the successful one

    @property
    def seconds(self) -> float:
        return self.ended - self.started

    def to_dict(self) -> dict:
        return {"key": self.key, "pid": self.pid, "started": self.started,
                "ended": self.ended, "attempts": self.attempts}

    @classmethod
    def from_dict(cls, data: Mapping) -> "TaskExecution":
        return cls(key=data["key"], pid=data.get("pid", 0),
                   started=data.get("started", 0.0),
                   ended=data.get("ended", 0.0),
                   attempts=data.get("attempts", 1))


@dataclass
class RunManifest:
    """Stage-level accounting for one scheduler run."""

    stages: dict[str, StageStats] = field(default_factory=dict)
    wall_seconds: float = 0.0
    jobs: int = 1
    experiments: int = 0
    failures: list[TaskRecord] = field(default_factory=list)
    timeouts: list[TaskRecord] = field(default_factory=list)
    retries: dict[str, int] = field(default_factory=dict)
    tasks: list[TaskExecution] = field(default_factory=list)
    trace: str = ""     # merged trace path for this run, if traced

    @classmethod
    def delta(cls, before: Mapping[str, StageStats],
              after: Mapping[str, StageStats],
              wall_seconds: float = 0.0, jobs: int = 1,
              experiments: int = 0,
              failures: list[TaskRecord] | None = None,
              timeouts: list[TaskRecord] | None = None,
              retries: Mapping[str, int] | None = None,
              tasks: list[TaskExecution] | None = None,
              trace: str = "") -> "RunManifest":
        """Manifest covering the work done between two stats snapshots."""
        stages: dict[str, StageStats] = {}
        for stage, stats in after.items():
            previous = before.get(stage, StageStats())
            diff = stats.minus(previous)
            if diff.lookups or diff.executions or diff.corrupt:
                stages[stage] = diff
        return cls(stages=stages, wall_seconds=wall_seconds, jobs=jobs,
                   experiments=experiments,
                   failures=list(failures or ()),
                   timeouts=list(timeouts or ()),
                   retries=dict(retries or {}),
                   tasks=list(tasks or ()),
                   trace=trace)

    # ------------------------------------------------------------------
    # aggregates
    # ------------------------------------------------------------------

    def executions(self, stage: str) -> int:
        stats = self.stages.get(stage)
        return stats.executions if stats is not None else 0

    @property
    def total_hits(self) -> int:
        return sum(s.hits for s in self.stages.values())

    @property
    def total_misses(self) -> int:
        return sum(s.misses for s in self.stages.values())

    @property
    def total_executions(self) -> int:
        return sum(s.executions for s in self.stages.values())

    @property
    def hit_rate(self) -> float:
        lookups = self.total_hits + self.total_misses
        if not lookups:
            return 1.0
        return self.total_hits / lookups

    @property
    def total_retries(self) -> int:
        return sum(self.retries.values())

    @property
    def ok(self) -> bool:
        """Whether every scheduled task completed (retries are fine)."""
        return not self.failures and not self.timeouts

    # ------------------------------------------------------------------
    # serialization / rendering
    # ------------------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "wall_seconds": self.wall_seconds,
            "jobs": self.jobs,
            "experiments": self.experiments,
            "hit_rate": self.hit_rate,
            "stages": {stage: stats.to_dict()
                       for stage, stats in sorted(self.stages.items())},
            "failures": [record.to_dict() for record in self.failures],
            "timeouts": [record.to_dict() for record in self.timeouts],
            "retries": dict(sorted(self.retries.items())),
            "tasks": [record.to_dict() for record in self.tasks],
            "trace": self.trace,
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "RunManifest":
        return cls(
            stages={stage: StageStats.from_dict(stats)
                    for stage, stats in data.get("stages", {}).items()},
            wall_seconds=data.get("wall_seconds", 0.0),
            jobs=data.get("jobs", 1),
            experiments=data.get("experiments", 0),
            failures=[TaskRecord.from_dict(record)
                      for record in data.get("failures", [])],
            timeouts=[TaskRecord.from_dict(record)
                      for record in data.get("timeouts", [])],
            retries=dict(data.get("retries", {})),
            tasks=[TaskExecution.from_dict(record)
                   for record in data.get("tasks", [])],
            trace=data.get("trace", ""))

    def format(self) -> str:
        """Fixed-width stage-accounting table."""
        from repro.pipeline.stages import STAGE_ORDER

        order = {stage: index for index, stage in enumerate(STAGE_ORDER)}
        lines = [f"{'stage':<20}{'exec':>6}{'hits':>7}{'miss':>6}"
                 f"{'corrupt':>8}{'seconds':>9}"]
        for stage in sorted(self.stages,
                            key=lambda s: (order.get(s, 99), s)):
            stats = self.stages[stage]
            lines.append(f"{stage:<20}{stats.executions:>6}"
                         f"{stats.hits:>7}{stats.misses:>6}"
                         f"{stats.corrupt:>8}"
                         f"{stats.seconds:>9.2f}")
        lines.append(f"cache hit rate {self.hit_rate:.1%} over "
                     f"{self.experiments} experiments "
                     f"({self.wall_seconds:.2f}s, jobs={self.jobs})")
        fault_table = self.format_faults()
        if fault_table:
            lines.append(fault_table)
        return "\n".join(lines)

    def format_faults(self) -> str:
        """Failure/retry/timeout table; empty string for a clean run."""
        if self.ok and not self.retries:
            return ""
        lines: list[str] = []
        if self.retries:
            lines.append(f"retries ({self.total_retries} total):")
            for key, count in sorted(self.retries.items()):
                lines.append(f"  {key:<34} x{count}")
        for label, records in (("timeouts", self.timeouts),
                               ("failures", self.failures)):
            if not records:
                continue
            lines.append(f"{label} ({len(records)}):")
            for record in records:
                lines.append(f"  {record.key:<34} {record.kind:<10} "
                             f"attempts={record.attempts}  {record.error}")
        return "\n".join(lines)

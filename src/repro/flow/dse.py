"""Design-space exploration flow: lattice -> sweep -> Pareto frontier.

``repro-cli dse`` drives this module.  One :func:`run_dse` call takes a
:class:`~repro.uarch.space.SpaceSpec` (or a pre-generated point list),
runs every point through the same supervised, content-addressed sweep
machinery as the preset study — the presets in the lattice hit the very
same cache entries — and collapses the results into the frontier
artifact of :mod:`repro.analysis.dse`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from repro.analysis.dse import (
    DesignPoint,
    format_frontier,
    format_sensitivity,
    frontier_document,
    pareto_frontier,
    sensitivity_table,
    summarize_space,
)
from repro.flow.experiment import FlowSettings
from repro.flow.results import ExperimentResult
from repro.flow.scheduler import RetryPolicy
from repro.flow.sweep import DEFAULT_CACHE_DIR, SweepRunner
from repro.pipeline.manifest import RunManifest
from repro.uarch.config import BoomConfig
from repro.uarch.space import (
    DesignSpace,
    SpaceSpec,
    generate_points,
    spec_to_dict,
)

__all__ = ["DseOutcome", "run_dse"]


@dataclass
class DseOutcome:
    """Everything one DSE run produced."""

    spec: SpaceSpec
    configs: list[BoomConfig]
    results: dict[tuple[str, str], ExperimentResult]
    points: list[DesignPoint]
    frontier: list[DesignPoint]
    dominated: list[DesignPoint]
    skipped: list[str] = field(default_factory=list)
    sensitivity: list[dict] = field(default_factory=list)
    manifest: RunManifest | None = None
    wall_seconds: float = 0.0

    @property
    def points_per_s(self) -> float:
        """Swept design points per second of sweep wall time (the
        BENCH-tracked DSE throughput metric)."""
        if self.wall_seconds <= 0.0:
            return 0.0
        return len(self.points) / self.wall_seconds

    def document(self) -> dict:
        """The strict-JSON frontier artifact."""
        return frontier_document(
            self.points, self.frontier, self.dominated,
            skipped=self.skipped, sensitivity=self.sensitivity,
            spec=spec_to_dict(self.spec),
            settings={"points_per_s": self.points_per_s,
                      "wall_seconds": self.wall_seconds})

    def format(self) -> str:
        """Human-readable frontier + sensitivity report."""
        parts = [format_frontier(self.points, self.frontier,
                                 skipped=self.skipped),
                 "", format_sensitivity(self.sensitivity, self.spec.base)]
        return "\n".join(parts)


def run_dse(spec: SpaceSpec,
            settings: FlowSettings | None = None,
            cache_dir: Path | str | None = DEFAULT_CACHE_DIR,
            jobs: int = 1, *,
            configs: list[BoomConfig] | None = None,
            workloads: list[str] | None = None,
            policy: RetryPolicy | None = None,
            timeout: float | None = None,
            fail_fast: bool = False,
            resume: bool = False,
            trace: bool = False,
            progress: bool = False,
            runner_hook=None) -> DseOutcome:
    """Generate (or adopt) a point set, sweep it, compute the frontier.

    ``configs`` overrides generation with a pre-materialized point list
    (e.g. loaded from a ``dse generate`` space document), keeping the
    sweep bit-reproducible from the serialized artifact.  Incomplete
    points (a degraded sweep under fault injection) are skipped by the
    frontier, not fatal — the outcome's ``skipped`` list and the sweep
    manifest carry the evidence.

    ``runner_hook`` receives the internal :class:`SweepRunner` before
    the sweep starts — the end-to-end benchmark (``perf/repeat.py``)
    uses it to read the run's manifest.
    """
    space = DesignSpace.around(spec.base)
    if configs is None:
        configs = generate_points(spec, space=space)
    runner = SweepRunner(settings=settings, cache_dir=cache_dir)
    if runner_hook is not None:
        runner_hook(runner)
    started = perf_counter()
    results = runner.run_all(
        configs=configs, workloads=workloads, jobs=jobs, policy=policy,
        timeout=timeout, fail_fast=fail_fast, resume=resume, trace=trace,
        progress=progress)
    wall = perf_counter() - started
    points, skipped = summarize_space(results, configs,
                                      workloads=workloads, space=space)
    frontier, dominated = pareto_frontier(points)
    sensitivity = sensitivity_table(space, points)
    return DseOutcome(
        spec=spec, configs=configs, results=results, points=points,
        frontier=frontier, dominated=dominated, skipped=skipped,
        sensitivity=sensitivity, manifest=runner.last_manifest,
        wall_seconds=wall)

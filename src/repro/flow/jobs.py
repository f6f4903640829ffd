"""Job-shaped entry points: one request in, one JSON document out.

The CLI subcommands parse argparse namespaces and print; the job
server needs the same flows behind a callable that takes a validated
:class:`~repro.serve.protocol.JobRequest` and returns a JSON-able
result document.  :func:`run_job` is that seam — it owns nothing but
the translation (request -> FlowSettings/configs/guardrails -> sweep
or DSE run -> document), so anything new that learns to speak
``JobRequest`` gets the full supervised pipeline for free.
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable

from repro.flow.experiment import FlowSettings
from repro.flow.scheduler import RetryPolicy
from repro.flow.sweep import SweepRunner
from repro.uarch.config import ALL_CONFIGS, config_by_name

__all__ = ["JobLimits", "run_job"]


class JobLimits:
    """Server-side execution policy applied to every job.

    Requests say *what* to compute; the operator says how hard any one
    job may hit the machine: ``jobs_cap`` clamps the per-job worker
    fan-out a request may ask for, and the remaining knobs forward to
    the supervised scheduler / :class:`ResourceGuard` guardrails.
    """

    def __init__(self, *, jobs_cap: int = 1,
                 timeout: float | None = None,
                 retries: int | None = None,
                 deadline: float | None = None,
                 max_rss_mb: float | None = None,
                 min_free_mb: float | None = None) -> None:
        self.jobs_cap = max(1, jobs_cap)
        self.timeout = timeout
        self.retries = retries
        self.deadline = deadline
        self.max_rss_mb = max_rss_mb
        self.min_free_mb = min_free_mb

    def policy(self) -> RetryPolicy | None:
        if self.retries is None:
            return None
        return RetryPolicy(max_attempts=self.retries + 1)


def run_job(request, cache_dir: Path | str | None, *,
            limits: JobLimits | None = None,
            trace: bool = False,
            runner_hook: Callable[[SweepRunner], None] | None = None) \
        -> dict:
    """Execute one job request; returns its JSON-able result document.

    Raises whatever the underlying flow raises — the caller (the job
    server's worker tier, a test) owns failure classification via
    :func:`repro.errors.classify_failure`.
    """
    limits = limits if limits is not None else JobLimits()
    settings = FlowSettings(scale=request.scale, seed=request.seed)
    jobs = min(request.jobs, limits.jobs_cap)
    workloads = list(request.workloads) \
        if request.workloads is not None else None
    if request.kind == "dse":
        return _run_dse_job(request, settings, cache_dir, jobs=jobs,
                            workloads=workloads, limits=limits,
                            trace=trace, runner_hook=runner_hook)
    return _run_sweep_job(request, settings, cache_dir, jobs=jobs,
                          workloads=workloads, limits=limits,
                          trace=trace, runner_hook=runner_hook)


def _run_sweep_job(request, settings: FlowSettings,
                   cache_dir: Path | str | None, *, jobs: int,
                   workloads: list[str] | None, limits: JobLimits,
                   trace: bool, runner_hook) -> dict:
    from repro.analysis import summarize

    if request.configs is not None:
        configs = tuple(config_by_name(name) for name in request.configs)
    else:
        configs = ALL_CONFIGS
    runner = SweepRunner(settings, cache_dir=cache_dir)
    if runner_hook is not None:
        runner_hook(runner)
    results = runner.run_all(
        configs=configs, workloads=workloads, jobs=jobs,
        policy=limits.policy(), timeout=limits.timeout, trace=trace,
        deadline=limits.deadline, max_rss_mb=limits.max_rss_mb,
        min_free_mb=limits.min_free_mb)
    manifest = runner.last_manifest
    document: dict = {
        "kind": "sweep",
        "request": request.to_dict(),
        "results": {f"{workload}/{config}": result.to_dict()
                    for (workload, config), result
                    in sorted(results.items())},
        "ok": manifest.ok if manifest is not None else True,
    }
    if manifest is not None:
        document["manifest"] = manifest.to_dict()
    try:
        document["summary"] = summarize(results).format()
    except Exception:
        pass  # a summary glitch must not fail a completed sweep
    return document


def _run_dse_job(request, settings: FlowSettings,
                 cache_dir: Path | str | None, *, jobs: int,
                 workloads: list[str] | None, limits: JobLimits,
                 trace: bool, runner_hook) -> dict:
    from repro.flow.dse import run_dse
    from repro.uarch.space import SpaceSpec

    spec = SpaceSpec(base=request.base, mode=request.mode,
                     count=request.points, radius=request.radius,
                     max_changed=request.max_changed,
                     seed=request.space_seed)
    outcome = run_dse(
        spec, settings=settings, cache_dir=cache_dir, jobs=jobs,
        workloads=workloads, policy=limits.policy(),
        timeout=limits.timeout, trace=trace, runner_hook=runner_hook)
    manifest = outcome.manifest
    return {
        "kind": "dse",
        "request": request.to_dict(),
        "frontier": outcome.document(),
        "ok": manifest.ok if manifest is not None else True,
    }

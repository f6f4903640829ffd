"""The end-to-end experimental flow (paper Figs. 3 and 4).

Since the staged-pipeline refactor the flow is a composition of
content-addressed stages; see :mod:`repro.pipeline` for the stage and
artifact-store machinery re-exported here.
"""

from repro.flow.dse import DseOutcome, run_dse
from repro.flow.experiment import (
    DEFAULT_BIC_THRESHOLD,
    DEFAULT_MAX_K,
    FlowSettings,
    profile_and_select,
    run_experiment,
    run_selection,
)
from repro.flow.interrupt import InterruptGuard
from repro.flow.results import ExperimentResult, SimPointRun
from repro.flow.scheduler import (
    RetryPolicy,
    ScheduleOutcome,
    SupervisedScheduler,
    Task,
)
from repro.flow.speedup import speedup_report, SpeedupReport, SpeedupRow
from repro.flow.sweep import DEFAULT_CACHE_DIR, MODEL_VERSION, SweepRunner
from repro.pipeline import ArtifactStore, ExperimentPipeline, RunManifest

__all__ = [
    "DseOutcome",
    "run_dse",
    "DEFAULT_BIC_THRESHOLD",
    "DEFAULT_MAX_K",
    "FlowSettings",
    "profile_and_select",
    "run_experiment",
    "run_selection",
    "ExperimentResult",
    "InterruptGuard",
    "SimPointRun",
    "RetryPolicy",
    "ScheduleOutcome",
    "SupervisedScheduler",
    "Task",
    "speedup_report",
    "SpeedupReport",
    "SpeedupRow",
    "DEFAULT_CACHE_DIR",
    "MODEL_VERSION",
    "SweepRunner",
    "ArtifactStore",
    "ExperimentPipeline",
    "RunManifest",
]

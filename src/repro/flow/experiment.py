"""The end-to-end experiment: paper Fig. 3 and Fig. 4 as staged pipeline.

For one (workload, configuration) pair:

1. build the workload program (Table II scale),
2. profile basic-block vectors on the functional simulator (gem5 stage),
3. run SimPoint selection (projection, k-means, BIC, coverage),
4. create architectural checkpoints with warm-up margins (Spike stage),
5. for each top-ranked SimPoint: restore into the detailed BOOM core,
   run the warm-up un-measured, then measure the interval (Verilator
   stage) and convert activity to power (Joules stage),
6. aggregate SimPoint-weighted IPC and per-component power.

Each step is a discrete :mod:`repro.pipeline.stages` stage whose output
is cached under a content-addressed fingerprint, so steps 1-4 — which
depend only on the workload — are computed once and shared by every
configuration and predictor (see DESIGN.md, "Pipeline stages & artifact
cache").

Example::

    from repro.flow.experiment import run_experiment
    from repro.uarch.config import MEDIUM_BOOM

    result = run_experiment("sha", MEDIUM_BOOM, scale=0.2)
    print(result.ipc, result.tile_mw, result.perf_per_watt)
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.flow.results import ExperimentResult
from repro.pipeline.artifacts import ArtifactStore
from repro.pipeline.faults import FaultInjector
from repro.pipeline.stages import (
    ExperimentPipeline,
    assemble_result,
    compute_checkpoints,
    power_runs_from_raw,
    simulate_raw_runs,
)
from repro.profiling.bbv import BBVProfile
from repro.simpoint.simpoints import DEFAULT_WARMUP, SimPointSelection
from repro.uarch.config import BoomConfig
from repro.workloads.suite import build_program

#: BIC threshold tuned for 1:1000-scale workloads: the scaled programs
#: expose more fine-grained phase structure than the paper's full-length
#: runs, so the SimPoint-3.0 default of 0.9 over-fragments them.
DEFAULT_BIC_THRESHOLD = 0.4
DEFAULT_MAX_K = 8
DEFAULT_SEED = 17


@dataclass(frozen=True)
class FlowSettings:
    """Knobs of the experimental flow, fixed across the whole study.

    Every *model* field participates in the pipeline's stage
    fingerprints, so changing any of them — including
    ``bic_threshold``, ``max_k`` and ``coverage`` — invalidates the
    affected cached artifacts.  The two fault-injection fields
    (``faults``, ``fault_seed``) configure the test harness of
    :mod:`repro.pipeline.faults`; they alter *how* a run executes
    (crashes, retries, corruption) but never what it computes, so they
    are deliberately excluded from every fingerprint.
    """

    scale: float = 1.0
    seed: int = DEFAULT_SEED
    warmup: int = DEFAULT_WARMUP
    bic_threshold: float = DEFAULT_BIC_THRESHOLD
    max_k: int = DEFAULT_MAX_K
    coverage: float = 0.9
    #: fault-injection spec string (see repro.pipeline.faults); also
    #: settable via the REPRO_FAULTS environment variable
    faults: str | None = None
    fault_seed: int = 0

    def scaled_warmup(self) -> int:
        return max(200, int(self.warmup * self.scale))


def experiment_pipeline(settings: FlowSettings,
                        store: ArtifactStore | None) -> ExperimentPipeline:
    if store is None:
        store = ArtifactStore(None, faults=FaultInjector.from_settings(
            settings, None))
    return ExperimentPipeline(store, settings)


def profile_and_select(workload: str, settings: FlowSettings,
                       store: ArtifactStore | None = None) -> \
        tuple[BBVProfile, SimPointSelection]:
    """Stages 1-3: profile BBVs and select SimPoints for one workload.

    With a ``store``, both artifacts are served from / persisted to the
    content-addressed cache shared with the full experiment flow.
    """
    pipeline = experiment_pipeline(settings, store)
    return pipeline.profile(workload), pipeline.selection(workload)


def run_experiment(workload: str, config: BoomConfig,
                   scale: float = 1.0,
                   settings: FlowSettings | None = None,
                   store: ArtifactStore | None = None) -> ExperimentResult:
    """Run the full staged flow for one (workload, configuration) pair."""
    if settings is None:
        settings = FlowSettings(scale=scale)
    return experiment_pipeline(settings, store).result(workload, config)


def run_selection(workload: str, config: BoomConfig,
                  selection: SimPointSelection,
                  settings: FlowSettings) -> ExperimentResult:
    """Stages 4-6 for an externally supplied interval selection.

    This is how alternative sampling policies (periodic/random baselines
    in :mod:`repro.simpoint.sampling`) reuse the checkpoint + detailed
    simulation + power machinery unchanged.  External selections have no
    content address, so this path is deliberately uncached.
    """
    program = build_program(workload, scale=settings.scale,
                            seed=settings.seed)
    checkpoints = compute_checkpoints(workload, settings, selection,
                                      program)
    raw = simulate_raw_runs(config, program, checkpoints,
                            selection.interval_size)
    runs = power_runs_from_raw(raw, config, workload)
    return assemble_result(workload, config, settings, selection, runs)

"""The experiment flow as discrete, content-addressed pipeline stages.

The paper's flow (Figs. 3 and 4) is explicitly staged, and each stage
maps onto one tool of the original toolchain:

==================  =============================================
stage               paper counterpart
==================  =============================================
bbv_profile         gem5 (functional run + SimPoint BBV probe)
simpoint_selection  SimPoint 3.0 (projection, k-means, BIC)
checkpoints         Spike (architectural checkpoint generation)
detailed_sim        Verilator (detailed BOOM RTL simulation)
power_report        Cadence Joules (activity -> power conversion)
experiment_result   the aggregated per-pair study record
==================  =============================================

The first three stages depend only on the *workload* (plus the flow
settings), so their artifacts are shared by every configuration and
predictor that consumes them; only ``detailed_sim`` onward depend on the
:class:`~repro.uarch.config.BoomConfig`.  :class:`ExperimentPipeline`
materializes any stage on demand through an
:class:`~repro.pipeline.artifacts.ArtifactStore`: each stage's
fingerprint chains the fingerprints of its inputs, so changing any
upstream parameter (scale, seed, interval, BIC threshold, max_k,
coverage, warm-up, config, predictor, or the model version) changes
every downstream address and can never serve a stale artifact.  The
pipeline memoizes each fingerprint, and decoding a stored profile,
selection or result needs neither numpy (only computing a selection
clusters) nor the simulators (:data:`COMPUTE_MODULES`).

On a disk-backed store the pipeline drops each artifact from memory
once its last reader in the run has finished, and reads it back from
disk if a later stage asks again: the profile once its selection is
clustered, the checkpoints once the workload is prepared (its batch
reloads them), and the detailed and power records once the result is
assembled.  A memory-only store (``ArtifactStore(None)``, for one-shot
runs and stage timings) keeps every artifact, since its memo is the
only copy; a sweep always runs on a disk-backed store.  On any store,
the profile pass's restart points and the compiled superblocks go once
the checkpoints are captured, and the program once its batch has run.
"""

from __future__ import annotations

import importlib
from dataclasses import asdict
from typing import TYPE_CHECKING, Any

from repro.check.validators import require_valid_result
from repro.errors import CorruptArtifactError
from repro.flow.results import ExperimentResult, SimPointRun
from repro.pipeline.artifacts import ArtifactStore, MODEL_VERSION
from repro.profiling.bbv import BBVProfile, BBVProfiler, RestartTrail
# simulate_checkpoint is re-exported: stage 4's per-checkpoint entry point
from repro.sim.batch import simulate_checkpoint, simulate_raw_runs_batched
from repro.simpoint.simpoints import (
    SimPoint,
    SimPointSelection,
    select_simpoints,
)
from repro.uarch.config import BoomConfig
from repro.workloads.suite import build_program, get_workload, WORKLOADS

if TYPE_CHECKING:
    from collections.abc import Sequence

    from repro.checkpoint.checkpoint import Checkpoint

PROFILE_STAGE = "bbv_profile"
SELECTION_STAGE = "simpoint_selection"
CHECKPOINT_STAGE = "checkpoints"
DETAILED_STAGE = "detailed_sim"
POWER_STAGE = "power_report"
RESULT_STAGE = "experiment_result"

#: dependency order; cache invalidation of a stage cascades rightwards
STAGE_ORDER = (PROFILE_STAGE, SELECTION_STAGE, CHECKPOINT_STAGE,
               DETAILED_STAGE, POWER_STAGE, RESULT_STAGE)

#: stages that depend only on (workload, settings) — computed once per
#: workload and shared across every config x predictor combination
WORKLOAD_STAGES = (PROFILE_STAGE, SELECTION_STAGE, CHECKPOINT_STAGE)

#: the original toolchain component each stage reproduces
PAPER_COUNTERPART = {
    PROFILE_STAGE: "gem5 (BBV probe)",
    SELECTION_STAGE: "SimPoint 3.0",
    CHECKPOINT_STAGE: "Spike",
    DETAILED_STAGE: "Verilator",
    POWER_STAGE: "Cadence Joules",
    RESULT_STAGE: "study record",
}


#: the modules that compute stages and read the checkpoints they replay;
#: a warm run, which reads only results and selections, needs none of them
COMPUTE_MODULES = (
    "repro.isa.assembler",
    "repro.sim.executor",
    "repro.obs.heartbeat",
    "repro.checkpoint.creator",
    "repro.checkpoint.store",
    "repro.uarch.core",
    "repro.check.invariants",
    "repro.obs.flight",
    "repro.power.model",
)


def import_compute_stack() -> None:
    """Import the workload generators and :data:`COMPUTE_MODULES`, all at
    once.

    A warm run never calls this.  A run with work to compute calls it
    before it allocates: the same modules imported one by one, as each
    stage first ran, raised ``dse_cold`` peak RSS from 43.3 to 44.7 MB.
    """
    for spec in WORKLOADS:
        spec.builder  # resolving a builder imports its generator module
    for name in COMPUTE_MODULES:
        importlib.import_module(name)


# ----------------------------------------------------------------------
# artifact (de)serialization
# ----------------------------------------------------------------------

def _require(data: Any, keys: tuple[str, ...], artifact: str) -> None:
    """Reject a decoded payload that is not the artifact it claims to be.

    Raised as :class:`CorruptArtifactError` (a *transient* failure) so
    the artifact store discards and recomputes it — and so a supervising
    scheduler retries rather than aborts when a torn or garbage artifact
    surfaces through a worker.
    """
    if not isinstance(data, dict):
        raise CorruptArtifactError(
            f"{artifact} artifact is {type(data).__name__}, not a mapping")
    missing = [key for key in keys if key not in data]
    if missing:
        raise CorruptArtifactError(
            f"{artifact} artifact missing keys: {', '.join(missing)}")


def profile_to_dict(profile: BBVProfile) -> dict:
    return {
        "interval_size": profile.interval_size,
        "vectors": [{str(block): count for block, count in vector.items()}
                    for vector in profile.vectors],
        "interval_lengths": list(profile.interval_lengths),
        "blocks": [list(block) for block in profile.blocks],
        "total_instructions": profile.total_instructions,
        "program_name": profile.program_name,
    }


def profile_from_dict(data: dict) -> BBVProfile:
    _require(data, ("interval_size", "vectors", "interval_lengths",
                    "blocks", "total_instructions", "program_name"),
             "bbv_profile")
    return BBVProfile(
        interval_size=data["interval_size"],
        vectors=[{int(block): count for block, count in vector.items()}
                 for vector in data["vectors"]],
        interval_lengths=list(data["interval_lengths"]),
        blocks=[tuple(block) for block in data["blocks"]],
        total_instructions=data["total_instructions"],
        program_name=data["program_name"])


def selection_to_dict(selection: SimPointSelection) -> dict:
    return {
        "points": [asdict(point) for point in selection.points],
        "chosen_k": selection.chosen_k,
        "interval_size": selection.interval_size,
        "num_intervals": selection.num_intervals,
        "total_instructions": selection.total_instructions,
        "bic_scores": {str(k): score
                       for k, score in selection.bic_scores.items()},
        "labels": None if selection.labels is None
        else [int(label) for label in selection.labels],
        "coverage_target": selection.coverage_target,
    }


def selection_from_dict(data: dict) -> SimPointSelection:
    _require(data, ("points", "chosen_k", "interval_size", "num_intervals",
                    "total_instructions", "bic_scores", "coverage_target"),
             "simpoint_selection")
    labels = data.get("labels")
    return SimPointSelection(
        points=[SimPoint(**point) for point in data["points"]],
        chosen_k=data["chosen_k"],
        interval_size=data["interval_size"],
        num_intervals=data["num_intervals"],
        total_instructions=data["total_instructions"],
        bic_scores={int(k): score
                    for k, score in data["bic_scores"].items()},
        labels=None if labels is None else tuple(labels),
        coverage_target=data["coverage_target"])


# ----------------------------------------------------------------------
# stage computations (shared by the cached pipeline and the uncached
# run_selection path used by the sampling-policy baselines)
# ----------------------------------------------------------------------

def compute_profile(workload: str, settings, program=None,
                    trail: RestartTrail | None = None) -> BBVProfile:
    """Stage 1: functional run + per-interval basic-block vectors; the
    run leaves its restart points in ``trail``, if given."""
    spec = get_workload(workload)
    if program is None:
        program = build_program(workload, scale=settings.scale,
                                seed=settings.seed)
    interval = spec.interval_for_scale(settings.scale)
    return BBVProfiler(interval).profile(program, trail=trail)


def compute_selection(profile: BBVProfile, settings) -> SimPointSelection:
    """Stage 2: SimPoint 3.0 clustering over the BBV matrix."""
    return select_simpoints(profile, max_k=settings.max_k,
                            seed=settings.seed,
                            bic_threshold=settings.bic_threshold,
                            coverage=settings.coverage)


def compute_checkpoints(workload: str, settings,
                        selection: SimPointSelection, program=None,
                        restarts: Sequence[Checkpoint] = ()) \
        -> list[Checkpoint]:
    """Stage 3: snapshot every SimPoint's warm-up start, each capture
    resuming from the nearest of the profile pass's ``restarts`` (from
    the program's initial state when there are none)."""
    from repro.checkpoint.creator import create_checkpoints

    if program is None:
        program = build_program(workload, scale=settings.scale,
                                seed=settings.seed)
    return create_checkpoints(program, selection,
                              warmup=settings.scaled_warmup(),
                              restarts=restarts)


def simulate_raw_runs(config: BoomConfig, program,
                      checkpoints: list[Checkpoint],
                      interval_size: int) -> list[dict]:
    """Stage 4: replay each checkpoint through the detailed core.

    Returns plain-dict records — the "signal trace" artifact — carrying
    the complete measured :class:`CoreStats` so the power stage can be
    recomputed (or re-calibrated) without re-running the detailed core.
    One config is the batch-of-one case of
    :func:`repro.sim.batch.simulate_raw_runs_batched`, so every stage-4
    run replays a shared fetch trace and the two cannot drift.
    """
    return simulate_raw_runs_batched(
        (config,), program, checkpoints, interval_size)[config.name]


def power_runs_from_raw(raw: list[dict], config: BoomConfig,
                        workload: str) -> list[SimPointRun]:
    """Stage 5: convert measured activity to per-point power reports."""
    from repro.power.model import PowerModel
    from repro.uarch.stats import CoreStats

    model = PowerModel(config)
    runs: list[SimPointRun] = []
    for record in raw:
        stats = CoreStats.from_dict(record["stats"])
        report = model.report(stats, workload=workload)
        runs.append(SimPointRun(
            interval_index=record["interval_index"],
            weight=record["weight"],
            warmup_instructions=record["warmup_instructions"],
            measured_instructions=record["measured_instructions"],
            cycles=stats.cycles,
            ipc=stats.ipc,
            report=report))
    return runs


def assemble_result(workload: str, config: BoomConfig, settings,
                    selection: SimPointSelection,
                    runs: list[SimPointRun]) -> ExperimentResult:
    """Stage 6: the SimPoint-weighted study record for one pair."""
    result = ExperimentResult(
        workload=workload, config_name=config.name, scale=settings.scale,
        total_instructions=selection.total_instructions,
        interval_size=selection.interval_size,
        num_intervals=selection.num_intervals,
        chosen_k=selection.chosen_k,
        coverage=selection.coverage_of(selection.top_points()))
    result.runs = list(runs)
    return result


# ----------------------------------------------------------------------
# the pipeline
# ----------------------------------------------------------------------

class ExperimentPipeline:
    """Materializes experiment stages through an artifact store.

    Fingerprints are pure functions of the parameters (no artifact needs
    to exist to compute them), which lets a warm run short-circuit at the
    final ``experiment_result`` stage without touching any upstream
    artifact, and lets schedulers plan work before computing anything.
    """

    def __init__(self, store: ArtifactStore, settings) -> None:
        self.store = store
        self.settings = settings
        #: workload -> assembled Program, the run's only program cache.
        #: Sharing one Program object across stages (and across the N
        #: config points of a sweep) also shares the executor's superblock
        #: cache and the detailed core's decode table, which are keyed by
        #: program identity and die with it.  Fingerprints never include
        #: the program, so cached artifacts are unaffected.
        self._programs: dict[str, Any] = {}
        #: workload -> restart points of the profile pass this pipeline
        #: ran, until its checkpoints are captured
        self._restarts: dict[str, list[Checkpoint]] = {}
        #: (stage, workload[, config]) -> fingerprint (see _memo)
        self._fingerprints: dict[tuple, str] = {}
        #: config -> ``asdict(config)``, hashed into every workload's
        #: detailed fingerprint but built once per config
        self._config_dicts: dict[BoomConfig, dict] = {}

    def program(self, workload: str):
        """The assembled :class:`Program` for ``workload`` (memoized).

        Only a stage that computes asks for a program, so the first call
        also imports the compute stack, before anything is simulated.
        """
        program = self._programs.get(workload)
        if program is None:
            import_compute_stack()
            settings = self.settings
            program = build_program(workload, scale=settings.scale,
                                    seed=settings.seed)
            self._programs[workload] = program
        return program

    # -------------------------- fingerprints --------------------------
    #
    # Each digest is memoized per (stage, workload, config): the settings
    # are fixed for the pipeline's lifetime and BoomConfig is frozen, so
    # a warm run hashes each chain link once instead of on every lookup.

    def _memo(self, key: tuple, params) -> str:
        digest = self._fingerprints.get(key)
        if digest is None:
            digest = self.store.fingerprint(key[0], params())
            self._fingerprints[key] = digest
        return digest

    def profile_fingerprint(self, workload: str) -> str:
        settings = self.settings
        return self._memo((PROFILE_STAGE, workload), lambda: {
            "workload": workload,
            "scale": settings.scale,
            "seed": settings.seed,
            "interval": get_workload(workload).interval_for_scale(
                settings.scale),
            "model": MODEL_VERSION,
        })

    def selection_fingerprint(self, workload: str) -> str:
        settings = self.settings
        return self._memo((SELECTION_STAGE, workload), lambda: {
            "profile": self.profile_fingerprint(workload),
            "max_k": settings.max_k,
            "bic_threshold": settings.bic_threshold,
            "coverage": settings.coverage,
            "seed": settings.seed,
            "model": MODEL_VERSION,
        })

    def checkpoint_fingerprint(self, workload: str) -> str:
        return self._memo((CHECKPOINT_STAGE, workload), lambda: {
            "selection": self.selection_fingerprint(workload),
            "warmup": self.settings.scaled_warmup(),
            "model": MODEL_VERSION,
        })

    def detailed_fingerprint(self, workload: str,
                             config: BoomConfig) -> str:
        def params() -> dict:
            fields = self._config_dicts.get(config)
            if fields is None:
                fields = self._config_dicts[config] = asdict(config)
            return {"checkpoints": self.checkpoint_fingerprint(workload),
                    "config": fields,
                    "model": MODEL_VERSION}

        return self._memo((DETAILED_STAGE, workload, config), params)

    def power_fingerprint(self, workload: str, config: BoomConfig) -> str:
        return self._memo((POWER_STAGE, workload, config), lambda: {
            "detailed": self.detailed_fingerprint(workload, config),
            "model": MODEL_VERSION,
        })

    def result_fingerprint(self, workload: str, config: BoomConfig) -> str:
        return self._memo((RESULT_STAGE, workload, config), lambda: {
            "power": self.power_fingerprint(workload, config),
            "model": MODEL_VERSION,
        })

    # ------------------------- materialization ------------------------

    def profile(self, workload: str) -> BBVProfile:
        def compute() -> BBVProfile:
            trail = RestartTrail()
            profile = compute_profile(workload, self.settings,
                                      self.program(workload), trail)
            self._restarts[workload] = trail.points
            return profile

        return self.store.fetch_json(
            PROFILE_STAGE, self.profile_fingerprint(workload),
            compute=compute, encode=profile_to_dict,
            decode=profile_from_dict, label=workload)

    def selection(self, workload: str) -> SimPointSelection:
        def compute() -> SimPointSelection:
            selection = compute_selection(self.profile(workload),
                                          self.settings)
            # clustering is the profile's last reader
            self.store.forget(PROFILE_STAGE,
                              self.profile_fingerprint(workload))
            return selection

        return self.store.fetch_json(
            SELECTION_STAGE, self.selection_fingerprint(workload),
            compute=compute, encode=selection_to_dict,
            decode=selection_from_dict, label=workload)

    def checkpoints(self, workload: str) -> list[Checkpoint]:
        from repro.checkpoint.store import load_checkpoints, save_checkpoints

        def compute() -> list[Checkpoint]:
            from repro.sim.executor import release_blocks

            selection = self.selection(workload)
            program = self.program(workload)
            checkpoints = compute_checkpoints(
                workload, self.settings, selection, program,
                self._restarts.pop(workload, ()))
            # the capture is the last run of the functional executor
            release_blocks(program)
            return checkpoints

        return self.store.fetch_dir(
            CHECKPOINT_STAGE, self.checkpoint_fingerprint(workload),
            compute=compute, save=save_checkpoints, load=load_checkpoints,
            label=workload)

    def detailed(self, workload: str, config: BoomConfig) -> list[dict]:
        def compute() -> list[dict]:
            settings = self.settings
            interval = get_workload(workload) \
                .interval_for_scale(settings.scale)
            return simulate_raw_runs(config, self.program(workload),
                                     self.checkpoints(workload), interval)

        return self.store.fetch_json(
            DETAILED_STAGE, self.detailed_fingerprint(workload, config),
            compute=compute, label=f"{workload}/{config.name}")

    def power_runs(self, workload: str,
                   config: BoomConfig) -> list[SimPointRun]:
        return self.store.fetch_json(
            POWER_STAGE, self.power_fingerprint(workload, config),
            compute=lambda: power_runs_from_raw(
                self.detailed(workload, config), config, workload),
            encode=lambda runs: [run.to_dict() for run in runs],
            decode=lambda payload: [
                SimPointRun.from_dict(run, config.name, workload)
                for run in payload],
            label=f"{workload}/{config.name}")

    def result(self, workload: str, config: BoomConfig) -> ExperimentResult:
        def compute() -> ExperimentResult:
            result = assemble_result(
                workload, config, self.settings,
                self.selection(workload),
                self.power_runs(workload, config))
            # Save boundary: impossible values in a freshly computed
            # result are a model bug — permanent, recorded, not retried.
            require_valid_result(result, boundary="save")
            # the result is the power and detailed records' last reader
            self.store.forget(POWER_STAGE,
                              self.power_fingerprint(workload, config))
            self.store.forget(DETAILED_STAGE,
                              self.detailed_fingerprint(workload, config))
            return result

        def decode(payload: Any) -> ExperimentResult:
            result = ExperimentResult.from_dict(payload)
            # Load boundary: a cached artifact that parses but carries
            # impossible values is treated like a torn one — the raised
            # ResultValidationError lands in peek_json's corrupt guard,
            # so the artifact is discarded and recomputed.
            require_valid_result(result, boundary="load")
            return result

        return self.store.fetch_json(
            RESULT_STAGE, self.result_fingerprint(workload, config),
            compute=compute,
            encode=lambda result: result.to_dict(),
            decode=decode, label=f"{workload}/{config.name}")

    # --------------------------- scheduling ---------------------------

    def prepare_workload(self, workload: str) -> None:
        """Materialize every workload-scoped stage (profiling through
        checkpoints) — the unit of per-workload parallel fan-out.

        A disk-backed store then drops the checkpoints from memory: the
        workload's batch reads them back when it runs.
        """
        self.selection(workload)
        self.checkpoints(workload)
        self.store.forget(CHECKPOINT_STAGE,
                          self.checkpoint_fingerprint(workload))

    def prepare_detailed_batch(self, workload: str,
                               configs: list[BoomConfig]) -> int:
        """Materialize ``detailed_sim`` for many configs in one batch.

        Runs the batched engine (:mod:`repro.sim.batch`) over every
        config whose detailed artifact is not yet cached, then persists
        each per-config record list under its ordinary stage fingerprint
        — byte-identical to what the serial path would have written, so
        downstream stages (and concurrent per-config workers) consume it
        with no knowledge of how it was produced.  Returns the number of
        configs simulated; a later :meth:`detailed` call for any of them
        is a cache hit.

        The batch is the last reader of the workload's program, which is
        dropped after it and takes its decode table with it; a
        disk-backed store drops the checkpoints too.
        """
        missing = [config for config in configs
                   if not self.store.has(
                       DETAILED_STAGE,
                       self.detailed_fingerprint(workload, config))]
        if missing:
            self._simulate_batch(workload, missing)
        self.store.forget(CHECKPOINT_STAGE,
                          self.checkpoint_fingerprint(workload))
        self._programs.pop(workload, None)
        return len(missing)

    def _simulate_batch(self, workload: str,
                        missing: list[BoomConfig]) -> None:
        settings = self.settings
        interval = get_workload(workload).interval_for_scale(settings.scale)
        batched = simulate_raw_runs_batched(
            missing, self.program(workload), self.checkpoints(workload),
            interval)
        for config in missing:
            raw = batched[config.name]
            # fetch_json with a precomputed payload: the journaled,
            # atomic, fault-injectable write path the serial compute
            # uses — a batch-primed artifact is indistinguishable on
            # disk from a serially-computed one.
            self.store.fetch_json(
                DETAILED_STAGE,
                self.detailed_fingerprint(workload, config),
                compute=lambda raw=raw: raw,
                label=f"{workload}/{config.name}")

    def workload_prepared(self, workload: str) -> bool:
        """Whether the per-workload chain is already cached."""
        return (self.store.has(SELECTION_STAGE,
                               self.selection_fingerprint(workload))
                and self.store.has(CHECKPOINT_STAGE,
                                   self.checkpoint_fingerprint(workload)))

    def peek_result(self, workload: str,
                    config: BoomConfig) -> ExperimentResult | None:
        """Cache-only result lookup (no computation, no miss counted)."""
        def decode(payload: Any) -> ExperimentResult:
            result = ExperimentResult.from_dict(payload)
            require_valid_result(result, boundary="load")
            return result

        return self.store.peek_json(
            RESULT_STAGE, self.result_fingerprint(workload, config),
            decode=decode)

    def adopt_result(self, workload: str, config: BoomConfig,
                     result: ExperimentResult) -> None:
        """Memoize a result computed (and persisted) by a worker."""
        self.store.remember(RESULT_STAGE,
                            self.result_fingerprint(workload, config),
                            result)

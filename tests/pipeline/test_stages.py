"""Tests for the staged experiment pipeline: sharing, fingerprint
chaining, serializer round-trips and warm-run behavior."""

from dataclasses import asdict

import numpy as np

from repro.flow.experiment import FlowSettings
from repro.pipeline.artifacts import (
    ArtifactStore,
    MODEL_VERSION,
    canonical_fingerprint,
)
from repro.pipeline.stages import (
    ExperimentPipeline,
    PAPER_COUNTERPART,
    STAGE_ORDER,
    WORKLOAD_STAGES,
    profile_from_dict,
    profile_to_dict,
    selection_from_dict,
    selection_to_dict,
)
from repro.uarch.config import ALL_CONFIGS, MEDIUM_BOOM, MEGA_BOOM
from repro.uarch.space import DesignSpace
from repro.workloads.suite import get_workload

SETTINGS = FlowSettings(scale=0.1)


def _pipeline(root=None):
    return ExperimentPipeline(ArtifactStore(root), SETTINGS)


# ----------------------------------------------------------------------
# fingerprint chaining
# ----------------------------------------------------------------------

def test_workload_stage_fingerprints_ignore_config():
    pipeline = _pipeline()
    assert pipeline.profile_fingerprint("sha") == \
        _pipeline().profile_fingerprint("sha")
    assert pipeline.checkpoint_fingerprint("sha") == \
        _pipeline().checkpoint_fingerprint("sha")


def test_result_fingerprint_differs_by_config_and_predictor():
    pipeline = _pipeline()
    base = pipeline.result_fingerprint("sha", MEDIUM_BOOM)
    assert pipeline.result_fingerprint("sha", MEGA_BOOM) != base
    assert pipeline.result_fingerprint(
        "sha", MEDIUM_BOOM.with_predictor("gshare")) != base


def test_settings_change_propagates_to_every_stage():
    """Fingerprints chain: a selection-only knob reaches the result."""
    tweaked = ExperimentPipeline(ArtifactStore(None),
                                 FlowSettings(scale=0.1, bic_threshold=0.7))
    base = _pipeline()
    assert tweaked.selection_fingerprint("sha") != \
        base.selection_fingerprint("sha")
    assert tweaked.checkpoint_fingerprint("sha") != \
        base.checkpoint_fingerprint("sha")
    assert tweaked.result_fingerprint("sha", MEDIUM_BOOM) != \
        base.result_fingerprint("sha", MEDIUM_BOOM)


def test_fingerprints_computed_without_running_stages():
    pipeline = _pipeline()
    pipeline.result_fingerprint("sha", MEDIUM_BOOM)
    assert all(stats.executions == 0
               for stats in pipeline.store.stats().values())


def _direct_chain(workload, config):
    """Every stage digest of one pair, hashed from scratch."""
    interval = get_workload(workload).interval_for_scale(SETTINGS.scale)
    profile = canonical_fingerprint("bbv_profile", {
        "workload": workload, "scale": SETTINGS.scale,
        "seed": SETTINGS.seed, "interval": interval,
        "model": MODEL_VERSION})
    selection = canonical_fingerprint("simpoint_selection", {
        "profile": profile, "max_k": SETTINGS.max_k,
        "bic_threshold": SETTINGS.bic_threshold,
        "coverage": SETTINGS.coverage, "seed": SETTINGS.seed,
        "model": MODEL_VERSION})
    checkpoints = canonical_fingerprint("checkpoints", {
        "selection": selection, "warmup": SETTINGS.scaled_warmup(),
        "model": MODEL_VERSION})
    detailed = canonical_fingerprint("detailed_sim", {
        "checkpoints": checkpoints, "config": asdict(config),
        "model": MODEL_VERSION})
    power = canonical_fingerprint("power_report", {
        "detailed": detailed, "model": MODEL_VERSION})
    result = canonical_fingerprint("experiment_result", {
        "power": power, "model": MODEL_VERSION})
    return [profile, selection, checkpoints, detailed, power, result]


def _chain(pipeline, workload, config):
    return [pipeline.profile_fingerprint(workload),
            pipeline.selection_fingerprint(workload),
            pipeline.checkpoint_fingerprint(workload),
            pipeline.detailed_fingerprint(workload, config),
            pipeline.power_fingerprint(workload, config),
            pipeline.result_fingerprint(workload, config)]


def test_memoized_fingerprints_equal_direct_digests(monkeypatch):
    """Presets and a DSE point: the memoized chain is the hashed one, and
    a repeat lookup hashes nothing."""
    dse_point = DesignSpace.around("MediumBOOM").random(1, seed=5)[0]
    configs = (*ALL_CONFIGS, dse_point)
    pipeline = _pipeline()
    first = {config: _chain(pipeline, "sha", config) for config in configs}

    def no_hashing(stage, params):
        raise AssertionError(f"{stage} fingerprint recomputed")

    monkeypatch.setattr(pipeline.store, "fingerprint", no_hashing)
    for config in configs:
        assert _chain(pipeline, "sha", config) == first[config] == \
            _direct_chain("sha", config)


# ----------------------------------------------------------------------
# serializer round-trips
# ----------------------------------------------------------------------

def test_profile_roundtrip_through_json():
    import json

    original = _pipeline().profile("qsort")
    data = json.loads(json.dumps(profile_to_dict(original)))
    restored = profile_from_dict(data)
    assert restored.total_instructions == original.total_instructions
    assert restored.interval_size == original.interval_size
    assert len(restored.vectors) == len(original.vectors)
    assert restored.vectors[0] == original.vectors[0]


def test_selection_roundtrip_through_json():
    import json

    pipeline = _pipeline()
    original = pipeline.selection("qsort")
    data = json.loads(json.dumps(selection_to_dict(original)))
    restored = selection_from_dict(data)
    assert restored.chosen_k == original.chosen_k
    assert [p.interval_index for p in restored.points] == \
        [p.interval_index for p in original.points]
    assert np.array_equal(restored.labels, original.labels)
    assert restored.bic_scores == original.bic_scores


# ----------------------------------------------------------------------
# sharing and warm runs
# ----------------------------------------------------------------------

def test_workload_stages_shared_across_configs(tmp_path):
    pipeline = _pipeline(tmp_path)
    for config in (MEDIUM_BOOM, MEGA_BOOM,
                   MEDIUM_BOOM.with_predictor("gshare")):
        pipeline.result("qsort", config)
    stats = pipeline.store.stats()
    for stage in WORKLOAD_STAGES:
        assert stats[stage].executions == 1, stage
    assert stats["detailed_sim"].executions == 3


def test_warm_pipeline_only_touches_result_stage(tmp_path):
    _pipeline(tmp_path).result("qsort", MEDIUM_BOOM)
    warm = _pipeline(tmp_path)
    warm.result("qsort", MEDIUM_BOOM)
    stats = warm.store.stats()
    assert stats["experiment_result"].hits == 1
    assert sum(s.executions for s in stats.values()) == 0
    # upstream stages were never even consulted
    for stage in WORKLOAD_STAGES:
        assert stage not in stats or stats[stage].lookups == 0


def test_prepare_then_result_adds_no_extra_executions(tmp_path):
    pipeline = _pipeline(tmp_path)
    assert not pipeline.workload_prepared("qsort")
    pipeline.prepare_workload("qsort")
    assert pipeline.workload_prepared("qsort")
    prepared = {stage: stats.executions
                for stage, stats in pipeline.store.stats().items()}
    pipeline.result("qsort", MEDIUM_BOOM)
    stats = pipeline.store.stats()
    for stage in WORKLOAD_STAGES:
        assert stats[stage].executions == prepared[stage]


def test_adopted_workload_artifacts_are_reused():
    source = _pipeline()
    source.prepare_workload("qsort")
    target = _pipeline()
    target.adopt_workload("qsort",
                          selection=source.selection("qsort"),
                          checkpoints=source.checkpoints("qsort"))
    result = target.result("qsort", MEDIUM_BOOM)
    stats = target.store.stats()
    assert stats["simpoint_selection"].executions == 0
    assert stats["checkpoints"].executions == 0
    assert result.to_json() == source.result("qsort", MEDIUM_BOOM).to_json()


def test_peek_result_does_not_compute(tmp_path):
    pipeline = _pipeline(tmp_path)
    assert pipeline.peek_result("qsort", MEDIUM_BOOM) is None
    pipeline.result("qsort", MEDIUM_BOOM)
    fresh = _pipeline(tmp_path)
    peeked = fresh.peek_result("qsort", MEDIUM_BOOM)
    assert peeked is not None
    assert fresh.store.stats()["experiment_result"].executions == 0


# ----------------------------------------------------------------------
# stage metadata
# ----------------------------------------------------------------------

def test_every_stage_has_a_paper_counterpart():
    assert set(PAPER_COUNTERPART) == set(STAGE_ORDER)
    assert "gem5" in PAPER_COUNTERPART["bbv_profile"]
    assert "Spike" in PAPER_COUNTERPART["checkpoints"]

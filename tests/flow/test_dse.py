"""Tests for the DSE flow orchestration (repro.flow.dse)."""

import json

import pytest

from repro.flow.dse import run_dse
from repro.flow.experiment import FlowSettings
from repro.flow.sweep import SweepRunner
from repro.uarch.config import ALL_CONFIGS, config_id
from repro.uarch.space import generate_points, SpaceSpec

SETTINGS = FlowSettings(scale=0.05)
SPEC = SpaceSpec(base="MediumBOOM", count=6, seed=11)


@pytest.fixture(scope="module")
def outcome(tmp_path_factory):
    cache = tmp_path_factory.mktemp("dse_cache")
    return run_dse(SPEC, settings=SETTINGS, cache_dir=cache,
                   workloads=["sha"])


def test_outcome_covers_every_point(outcome):
    assert len(outcome.points) == len(outcome.configs)
    assert not outcome.skipped
    assert len(outcome.results) == len(outcome.configs)  # 1 workload
    assert {point.name for point in outcome.points} == \
        {config.name for config in outcome.configs}


def test_presets_lead_the_point_set(outcome):
    assert [config.name for config in outcome.configs[:3]] == \
        [config.name for config in ALL_CONFIGS]


def test_frontier_partitions_the_points(outcome):
    names = {point.name for point in outcome.points}
    frontier = {point.name for point in outcome.frontier}
    dominated = {point.name for point in outcome.dominated}
    assert frontier | dominated == names
    assert not frontier & dominated
    assert outcome.frontier, "frontier cannot be empty"


def test_document_is_strict_json(outcome):
    document = outcome.document()
    text = json.dumps(document, sort_keys=True, allow_nan=False)
    rebuilt = json.loads(text)
    assert rebuilt["spec"] == {
        "base": "MediumBOOM", "mode": "neighborhood", "count": 6,
        "radius": 2, "max_changed": 2, "seed": 11,
        "include_presets": True}
    assert set(rebuilt["frontier"]) <= \
        {point["name"] for point in rebuilt["points"]}
    assert rebuilt["settings"]["points_per_s"] > 0


def test_format_report_mentions_frontier_and_sensitivity(outcome):
    text = outcome.format()
    assert "Pareto frontier" in text
    assert "Sensitivity around MediumBOOM" in text


def test_points_per_s_positive(outcome):
    assert outcome.points_per_s > 0
    assert outcome.wall_seconds > 0


def test_rerun_from_cache_is_identical(outcome, tmp_path):
    """A warm re-run over the same spec reproduces the same points and
    the same frontier membership."""
    # note: different cache dir -> cold; same spec -> same configs
    again = run_dse(SPEC, settings=SETTINGS,
                    cache_dir=None, workloads=["sha"])
    assert [config_id(c) for c in again.configs] == \
        [config_id(c) for c in outcome.configs]
    assert [p.name for p in again.frontier] == \
        [p.name for p in outcome.frontier]


def _timeless(document: dict) -> str:
    for field in ("points_per_s", "wall_seconds"):
        document["settings"].pop(field)
    return json.dumps(document, sort_keys=True, allow_nan=False)


def test_warm_rerun_document_is_bit_identical(tmp_path):
    """Results decoded from the cache sum their power components in the
    model's order, so a warm run's frontier document matches the cold
    one to the last bit."""
    spec = SpaceSpec(base="MediumBOOM", mode="random", count=4, seed=17,
                     include_presets=False)
    cold, warm = [run_dse(spec, settings=SETTINGS, cache_dir=tmp_path,
                          workloads=["sha", "qsort"]) for _ in range(2)]
    assert warm.manifest.stages["experiment_result"].executions == 0
    assert [result.tile_mw for result in warm.results.values()] == \
        [result.tile_mw for result in cold.results.values()]
    assert _timeless(warm.document()) == _timeless(cold.document())


def test_explicit_configs_bypass_generation(tmp_path):
    configs = generate_points(SpaceSpec(base="MediumBOOM", count=2,
                                        include_presets=False))
    out = run_dse(SPEC, settings=SETTINGS, cache_dir=tmp_path,
                  configs=configs, workloads=["sha"])
    assert [c.name for c in out.configs] == [c.name for c in configs]


def test_runner_hook_sees_the_runner_before_the_sweep(tmp_path):
    """The end-to-end benchmark reads the sweep's manifest through the
    hook, so the hook must get the one runner before it starts."""
    spec = SpaceSpec(base="MediumBOOM", mode="random", count=2, seed=5,
                     include_presets=False)
    workloads = ["sha", "qsort"]
    seen = []

    def hook(runner):
        seen.append((runner, runner.last_manifest))

    out = run_dse(spec, settings=SETTINGS, cache_dir=tmp_path,
                  workloads=workloads, runner_hook=hook)
    assert len(seen) == 1
    runner, manifest_at_hook = seen[0]
    assert isinstance(runner, SweepRunner)
    assert manifest_at_hook is None  # the sweep had not started
    assert runner.last_manifest is out.manifest
    assert out.manifest.experiments == len(out.configs) * len(workloads)


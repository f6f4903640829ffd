"""Seed-stability tests: conclusions must not hinge on the seed.

Workload input data, k-means seeding and the random projection all take
the study seed, so each test re-runs experiments across seeds.
"""

from statistics import mean, pstdev

import pytest

from repro.flow.experiment import FlowSettings, run_experiment
from repro.pipeline.artifacts import ArtifactStore
from repro.uarch.config import MEDIUM_BOOM, MEGA_BOOM

SEEDS = (11, 17, 23)
PAIRS = (("sha", MEGA_BOOM), ("dijkstra", MEGA_BOOM),
         ("sha", MEDIUM_BOOM), ("qsort", MEDIUM_BOOM))


@pytest.fixture(scope="module")
def runs():
    """``{(workload, config name): [result per seed]}`` at scale 0.3."""
    found = {}
    for seed in SEEDS:
        settings = FlowSettings(scale=0.3, seed=seed)
        store = ArtifactStore()
        for workload, config in PAIRS:
            found.setdefault((workload, config.name), []).append(
                run_experiment(workload, config, settings=settings,
                               store=store))
    return found


@pytest.mark.parametrize("workload", ["sha", "dijkstra"])
def test_ipc_stable_across_seeds(runs, workload):
    results = runs[(workload, "MegaBOOM")]
    for metric in ("ipc", "tile_mw"):
        values = [getattr(result, metric) for result in results]
        assert pstdev(values) / mean(values) < 0.15, metric


def test_config_ordering_survives_seed_change(runs):
    """Mega faster than Medium for every seed (the Fig. 10 ordering)."""
    for medium, mega in zip(runs[("sha", "MediumBOOM")],
                            runs[("sha", "MegaBOOM")]):
        assert mega.ipc > medium.ipc


def test_simpoint_counts_bounded_across_seeds(runs):
    assert all(1 <= len(result.runs) <= 8
               for result in runs[("qsort", "MediumBOOM")])

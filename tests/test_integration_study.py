"""Whole-study integration: a reduced-scale end-to-end run.

The benchmark harness validates the full Table II scale; this test runs
the same pipeline at scale 0.2 so `pytest tests/` alone exercises every
stage against the headline shape claims (a regression canary for the
study itself, not just its parts).
"""

from statistics import mean

import pytest

from repro.analysis.efficiency import summarize
from repro.analysis.figures import fig9_component_share
from repro.analysis.takeaways import check_all
from repro.flow.experiment import FlowSettings
from repro.flow.speedup import speedup_report
from repro.flow.sweep import SweepRunner
from repro.power.area import ANALYZED_COMPONENTS
from repro.workloads.suite import workload_names

SETTINGS = FlowSettings(scale=0.2)


@pytest.fixture(scope="module")
def study():
    runner = SweepRunner(SETTINGS, cache_dir=None)
    return runner.run_all()


@pytest.mark.slow
def test_every_pair_completed(study):
    assert len(study) == 33
    for (workload, config), result in study.items():
        assert result.ipc > 0, (workload, config)
        assert result.tile_mw > 0, (workload, config)
        assert result.coverage >= 0.9, (workload, config)


@pytest.mark.slow
def test_headline_orderings_hold_at_reduced_scale(study):
    names = workload_names()
    # Power ordering: Mega > Large > Medium on the suite average.
    tiles = {config: mean(study[(w, config)].tile_mw for w in names)
             for config in ("MediumBOOM", "LargeBOOM", "MegaBOOM")}
    assert tiles["MediumBOOM"] < tiles["LargeBOOM"] < tiles["MegaBOOM"]
    # Performance ordering per workload (widest never slower).
    for workload in names:
        assert study[(workload, "MegaBOOM")].ipc >= \
            study[(workload, "MediumBOOM")].ipc - 0.05
    # Efficiency conclusion: the small core prevails on average.
    summary = summarize(study)
    assert summary.average_perf_per_watt["MediumBOOM"] > \
        summary.average_perf_per_watt["MegaBOOM"]


@pytest.mark.slow
def test_branch_predictor_is_top_hotspot(study):
    names = workload_names()
    for config in ("MediumBOOM", "LargeBOOM", "MegaBOOM"):
        averages = {component: mean(
            study[(w, config)].component_mw(component) for w in names)
            for component in ANALYZED_COMPONENTS}
        assert max(averages, key=averages.get) == "branch_predictor", \
            config


@pytest.mark.slow
def test_component_share_grows_with_width(study):
    shares = fig9_component_share(study)
    assert shares["MediumBOOM"] < shares["LargeBOOM"] < \
        shares["MegaBOOM"]


@pytest.mark.slow
def test_simpoint_saves_order_of_magnitude(study):
    report = speedup_report([study[(w, "MegaBOOM")]
                             for w in workload_names()])
    assert report.overall_speedup > 10.0


@pytest.mark.slow
def test_takeaway_checks_run_end_to_end(study):
    checks = check_all(study)
    assert len(checks) == 8
    # At reduced scale a subset of quantitative thresholds may wobble;
    # the structural ones must hold.
    by_number = {check.number: check for check in checks}
    assert by_number[6].passed   # ROB share
    assert by_number[7].passed   # BP is #1

"""Sweep-level comparison of the ring and collapsing issue queues."""

from statistics import mean

import pytest

from repro.flow.experiment import FlowSettings
from repro.flow.sweep import SweepRunner
from repro.uarch.config import MEGA_BOOM

SETTINGS = FlowSettings(scale=0.1)
WORKLOADS = ["qsort", "sha", "dijkstra"]


def test_ring_comparison_shows_issue_power_drop():
    runner = SweepRunner(SETTINGS, cache_dir=None)
    ring = MEGA_BOOM.with_issue_queues("ring")
    results = runner.run_all(configs=(MEGA_BOOM, ring), workloads=WORKLOADS)
    pairs = [(results[(w, "MegaBOOM")], results[(w, ring.name)])
             for w in WORKLOADS]
    # IPC essentially unchanged, issue power down.
    assert mean(variant.ipc / base.ipc for base, variant in pairs) == \
        pytest.approx(1.0, abs=0.05)
    assert mean(variant.component_mw("int_issue")
                / base.component_mw("int_issue")
                for base, variant in pairs) < 1.0

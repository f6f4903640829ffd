"""Tests for tables, figure emitters, takeaway checks, and efficiency.

Runs a miniature sweep (small scale) once per module; these tests verify
structure and internal consistency of the emitters — the full-scale shape
claims live in the benchmark harness.
"""

import pytest

from repro.analysis.efficiency import summarize
from repro.analysis.figures import (
    component_power_series,
    fig10_ipc,
    fig11_perf_per_watt,
    fig8_issue_slots,
    fig9_component_share,
)
from repro.analysis.tables import format_table_ii, table_i, table_ii
from repro.analysis.takeaways import check_all
from repro.flow.experiment import FlowSettings
from repro.flow.sweep import SweepRunner
from repro.power.area import ANALYZED_COMPONENTS
from repro.uarch.config import ALL_CONFIGS, MEGA_BOOM
from repro.workloads.suite import workload_names

SETTINGS = FlowSettings(scale=0.08)


@pytest.fixture(scope="module")
def results():
    runner = SweepRunner(SETTINGS, cache_dir=None)
    return runner.run_all()


class TestTables:
    def test_table_i_lists_all_configs(self):
        text = table_i()
        for config in ALL_CONFIGS:
            assert config.name in text
        assert "12R/6W" in text

    def test_table_ii_rows(self):
        rows = table_ii(SETTINGS)
        assert [row.benchmark for row in rows] == workload_names()
        for row in rows:
            assert row.coverage >= 0.9
            assert row.num_simpoints >= 1
            assert row.instructions > 0

    def test_format_table_ii(self):
        rows = table_ii(SETTINGS)
        text = format_table_ii(rows)
        assert "Benchmark" in text
        assert "sha" in text


class TestFigures:
    def test_component_series_complete(self, results):
        series = component_power_series(results, "MegaBOOM")
        assert set(series) == set(workload_names())
        for workload, components in series.items():
            assert set(components) == set(ANALYZED_COMPONENTS)
            assert all(v >= 0 for v in components.values())

    def test_fig8_slots(self, results):
        slots = fig8_issue_slots(results)
        assert set(slots) == {"dijkstra", "sha"}
        assert len(slots["dijkstra"]) == MEGA_BOOM.int_iq_entries

    def test_fig9_shares(self, results):
        shares = fig9_component_share(results)
        assert set(shares) == {c.name for c in ALL_CONFIGS}
        assert all(0.3 < share < 1.0 for share in shares.values())

    def test_fig10_and_11_series(self, results):
        ipc = fig10_ipc(results)
        ppw = fig11_perf_per_watt(results)
        for config in ipc:
            assert set(ipc[config]) == set(workload_names())
            for workload in ipc[config]:
                assert ipc[config][workload] > 0
                assert ppw[config][workload] > 0


class TestTakeaways:
    def test_checks_return_eight(self, results):
        checks = check_all(results)
        assert [c.number for c in checks] == list(range(1, 9))
        for check in checks:
            assert check.evidence


class TestEfficiency:
    def test_summary_fields(self, results):
        summary = summarize(results)
        assert summary.ipc_ratio_mega_over_medium > 1.0
        assert summary.perf_per_watt_ratio_medium_over_mega > 1.0
        assert set(summary.winners) == set(workload_names())
        assert 0 <= summary.medium_wins <= 11
        assert summary.average_perf_per_watt["MediumBOOM"] > 0

    def test_summary_format(self, results):
        text = summarize(results).format()
        assert "IPC ratio" in text
        assert "perf-per-watt" in text

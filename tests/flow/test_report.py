"""Tests for the markdown report generator and energy metrics."""

import pytest

from repro.analysis.efficiency import (
    energy_delay_product,
    energy_delay_squared,
    energy_per_instruction_pj,
)
from repro.flow import report
from repro.flow.experiment import FlowSettings
from repro.flow.report import generate_report, ReportInputs, SECTIONS
from repro.flow.sweep import SweepRunner
from tests.test_imports import heavy_modules_after


SETTINGS = FlowSettings(scale=0.06)


@pytest.fixture(scope="module")
def report_cache(tmp_path_factory):
    cache = tmp_path_factory.mktemp("cache")
    runner = SweepRunner(SETTINGS, cache_dir=cache)
    return cache, generate_report(runner)


@pytest.fixture(scope="module")
def report_text(report_cache):
    return report_cache[1]


def test_warm_report_never_reprofiles(report_cache, monkeypatch):
    """Table II reads the sweep's cached profiles instead of re-running
    the BBV pass for every workload."""
    from repro.pipeline import stages
    from repro.workloads.suite import workload_names

    def no_profiling(*args, **kwargs):
        raise AssertionError("a warm report re-ran BBV profiling")

    monkeypatch.setattr(stages, "compute_profile", no_profiling)
    cache, cold = report_cache
    runner = SweepRunner(SETTINGS, cache_dir=cache)
    warm = generate_report(runner)
    stats = runner.store.stats()
    assert stats["bbv_profile"].executions == 0
    assert stats["bbv_profile"].hits == len(workload_names())
    assert sum(stage.executions for stage in stats.values()) == 0
    assert warm.split("## Pipeline cache")[0] == \
        cold.split("## Pipeline cache")[0]


def test_warm_report_loads_neither_numpy_nor_the_pool(report_cache):
    """Regenerating the report from stored artifacts never clusters and
    never fans out, so it must not pay for numpy or multiprocessing."""
    cache, _ = report_cache
    loaded = heavy_modules_after(
        "import sys\n"
        "from repro.flow.experiment import FlowSettings\n"
        "from repro.flow.report import generate_report\n"
        "from repro.flow.sweep import SweepRunner\n"
        f"runner = SweepRunner(FlowSettings(scale={SETTINGS.scale!r}),"
        " cache_dir=sys.argv[1])\n"
        "generate_report(runner)\n"
        "assert runner.last_manifest.hit_rate == 1.0",
        str(cache))
    assert loaded == set()


def _recorded_report(runner, monkeypatch):
    """``generate_report`` with every section's output recorded."""
    recorded = []

    def recording(name, render):
        def wrapper(inputs):
            recorded.append((name, render(inputs)))
            return recorded[-1][1]
        return wrapper

    monkeypatch.setattr(report, "SECTIONS", {
        name: recording(name, render) for name, render in SECTIONS.items()})
    return generate_report(runner), recorded


@pytest.mark.parametrize("warmth", ["cold", "warm"])
def test_report_is_the_header_plus_every_section(
        warmth, report_cache, tmp_path, monkeypatch):
    """No text lives outside a section, whether the sweep executes or
    is served from the cache."""
    cache = tmp_path if warmth == "cold" else report_cache[0]
    runner = SweepRunner(SETTINGS, cache_dir=cache)
    text, recorded = _recorded_report(runner, monkeypatch)
    assert [name for name, _ in recorded] == list(SECTIONS)
    assert text == "\n".join([report.header(SETTINGS),
                              *(section for _, section in recorded)])
    if warmth == "cold":
        assert runner.store.stats()["detailed_sim"].executions > 0


def test_sections_render_from_a_sweep_in_hand(report_cache):
    """The benchmarks' path: sections rendered from results already
    computed, each a verbatim slice of the report, heading first."""
    cache, text = report_cache
    runner = SweepRunner(SETTINGS, cache_dir=cache)
    inputs = ReportInputs(runner, results=runner.run_all())
    rendered = {name: render(inputs) for name, render in SECTIONS.items()
                if name != "cache"}
    for name, section in rendered.items():
        assert section.startswith("## "), name
        assert section in text, name
    assert "Branch Predictor" in rendered["fig5-7"]
    assert "slots; sha:" in rendered["fig8"]
    assert "| sha |" in rendered["fig10"]
    assert "**[PASS] #1**" in rendered["takeaways"] or \
        "**[FAIL] #1**" in rendered["takeaways"]


def test_report_contains_every_section(report_text):
    for heading in ("Table I", "Table II", "Figs. 5-7", "Fig. 8",
                    "Fig. 9", "Fig. 10", "Fig. 11", "Energy metrics",
                    "SimPoint speedup", "Key takeaways",
                    "Efficiency summary"):
        assert heading in report_text, heading


def test_report_mentions_all_workloads_and_configs(report_text):
    from repro.workloads.suite import workload_names

    for workload in workload_names():
        assert workload in report_text
    for config in ("MediumBOOM", "LargeBOOM", "MegaBOOM"):
        assert config in report_text


def test_report_is_markdown(report_text):
    assert report_text.startswith("# Study report")
    assert "| Benchmark |" in report_text
    assert "```" in report_text


class TestEnergyMetrics:
    def make_result(self, ipc=2.0, tile_mw=40.0):
        from repro.flow.results import ExperimentResult, SimPointRun
        from repro.power.report import ComponentPower, PowerReport

        result = ExperimentResult(
            workload="w", config_name="MegaBOOM", scale=1.0,
            total_instructions=1000, interval_size=100, num_intervals=10,
            chosen_k=1, coverage=1.0)
        report = PowerReport(config_name="MegaBOOM", workload="w",
                             cycles=100)
        report.components["x"] = ComponentPower(0.0, 0.0, tile_mw)
        result.runs = [SimPointRun(
            interval_index=0, weight=1.0, warmup_instructions=0,
            measured_instructions=200, cycles=100, ipc=ipc, report=report)]
        return result

    def test_energy_per_instruction(self):
        result = self.make_result(ipc=2.0, tile_mw=40.0)
        # 40 mW / (2 * 500 MHz) = 40 pJ per instruction.
        assert energy_per_instruction_pj(result) == pytest.approx(40.0)

    def test_edp_and_ed2p_ordering(self):
        fast = self.make_result(ipc=4.0, tile_mw=40.0)
        slow = self.make_result(ipc=1.0, tile_mw=40.0)
        assert energy_delay_product(fast) < energy_delay_product(slow)
        # ED^2P penalizes the slow design even harder.
        ratio_edp = energy_delay_product(slow) / energy_delay_product(fast)
        ratio_ed2p = energy_delay_squared(slow) / \
            energy_delay_squared(fast)
        assert ratio_ed2p > ratio_edp

    def test_zero_ipc_is_undefined(self):
        # None (not inf): the sentinel survives strict-JSON round trips.
        dead = self.make_result(ipc=0.0)
        dead.runs[0].ipc = 0.0
        assert energy_per_instruction_pj(dead) is None
        assert energy_delay_product(dead) is None
        assert energy_delay_squared(dead) is None

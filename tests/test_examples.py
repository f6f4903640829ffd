"""Smoke tests: every example script must run to completion.

Marked slow (full-scale workloads inside); run with ``-m slow`` or let CI
include them.  Each example is executed in-process with a patched argv.
"""

import runpy
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"

ALL_EXAMPLES = sorted(p.name for p in EXAMPLES.glob("*.py"))


def run_example(name, argv=()):
    saved = sys.argv
    sys.argv = [str(EXAMPLES / name), *argv]
    try:
        runpy.run_path(str(EXAMPLES / name), run_name="__main__")
    finally:
        sys.argv = saved


def test_example_inventory():
    assert len(ALL_EXAMPLES) >= 6
    assert "quickstart.py" in ALL_EXAMPLES


def test_quickstart(capsys):
    run_example("quickstart.py")
    out = capsys.readouterr().out
    assert "sum(1..100) = 5050" in out
    assert "performance per watt" in out


@pytest.mark.slow
def test_simpoint_phases(capsys):
    run_example("simpoint_phases.py")
    out = capsys.readouterr().out
    assert "phase timeline" in out
    assert "bitcount" in out


@pytest.mark.slow
def test_hotspot_analysis(capsys):
    run_example("hotspot_analysis.py")
    out = capsys.readouterr().out
    assert "hotspot ranking" in out
    assert "## Key takeaways" in out


@pytest.mark.slow
def test_design_space_exploration(capsys):
    run_example("design_space_exploration.py")
    out = capsys.readouterr().out
    assert "MegaBOOM-smallIQ" in out
    assert "Pareto frontier" in out
    assert "Sensitivity around MediumBOOM" in out


@pytest.mark.slow
def test_pipeline_debug(capsys):
    run_example("pipeline_debug.py")
    out = capsys.readouterr().out
    assert "sha on MegaBOOM" in out
    assert "avg issue-queue wait" in out


@pytest.mark.slow
def test_dvfs_frontier(capsys):
    run_example("dvfs_frontier.py")
    out = capsys.readouterr().out
    assert "MIPS/W" in out


@pytest.mark.slow
def test_cpi_characterization(capsys):
    run_example("cpi_characterization.py", argv=["MediumBOOM"])
    out = capsys.readouterr().out
    assert "CPI stacks on MediumBOOM" in out
    assert "tarfind" in out

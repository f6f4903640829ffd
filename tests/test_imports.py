"""Import-cost contract: heavy modules load only where they are used.

numpy serves SimPoint clustering and BBV matrices, the process pool
serves ``jobs > 1``, and the compute stack — the detailed core, the
functional executor, checkpointing, runtime invariants and the DSE —
serves runs that compute.  Entry points and warm runs need none of
them.  pytest has already imported numpy and the whole package, so
every check runs in a fresh interpreter.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis.tables import table_ii
from repro.flow.experiment import FlowSettings
from repro.flow.sweep import SweepRunner
from repro.pipeline.stages import (
    compute_profile,
    compute_selection,
    selection_from_dict,
    selection_to_dict,
)

SRC = Path(__file__).resolve().parents[1] / "src"
HEAVY = ("numpy", "multiprocessing")
COMPUTE = ("repro.uarch.core", "repro.sim.executor",
           "repro.checkpoint.creator", "repro.check.invariants",
           "repro.flow.dse")


def last_line_of(code: str, *argv: str) -> str:
    """The last line ``code`` prints in a fresh interpreter.

    ``argv`` reaches ``code`` as ``sys.argv[1:]``.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", code, *argv], env=env,
                          capture_output=True, text=True, timeout=120,
                          check=True)
    return done.stdout.splitlines()[-1]


def heavy_modules_after(code: str, *argv: str,
                        watch: tuple[str, ...] = HEAVY) -> set[str]:
    """The ``watch`` modules a fresh interpreter holds after ``code``."""
    return set(last_line_of(
        code + "\nimport sys\n"
        f"print(' '.join(m for m in {watch!r} if m in sys.modules))",
        *argv).split())


@pytest.mark.parametrize("module", ["repro.cli", "repro.flow.sweep",
                                    "repro.flow.report", "repro.flow.dse"])
def test_entry_points_load_neither_numpy_nor_the_pool(module):
    assert heavy_modules_after(f"import {module}") == set()


@pytest.mark.parametrize("module", ["repro.cli", "repro.flow.sweep",
                                    "repro.flow.report"])
def test_entry_points_load_no_compute_stack(module):
    assert heavy_modules_after(f"import {module}", watch=COMPUTE) == set()


def test_selection_types_import_without_numpy():
    assert heavy_modules_after(
        "from repro.simpoint.simpoints import (DEFAULT_COVERAGE,"
        " DEFAULT_MAX_K, SimPoint, SimPointSelection)") == set()


def test_cold_selection_loads_numpy():
    loaded = heavy_modules_after(
        "from repro.flow.experiment import FlowSettings\n"
        "from repro.pipeline.stages import compute_profile,"
        " compute_selection\n"
        "settings = FlowSettings(scale=0.05)\n"
        "selection = compute_selection(compute_profile('sha', settings),"
        " settings)\n"
        "assert selection.points and selection.chosen_k >= 1")
    assert loaded == {"numpy"}


def test_cold_profile_loads_the_executor():
    loaded = heavy_modules_after(
        "from repro.flow.experiment import FlowSettings\n"
        "from repro.pipeline.stages import compute_profile\n"
        "profile = compute_profile('sha', FlowSettings(scale=0.05))\n"
        "assert profile.total_instructions > 0", watch=COMPUTE)
    assert loaded == {"repro.sim.executor"}


def test_cold_sweep_imports_its_stack_before_it_computes(tmp_path):
    """Every compute module loads in one place, before the first stage
    runs: afterwards a cold sweep imports only numpy's clustering."""
    late = last_line_of(
        "import sys\n"
        "from repro.flow.experiment import FlowSettings\n"
        "from repro.flow.sweep import SweepRunner\n"
        "from repro.pipeline import stages\n"
        "from repro.uarch.config import MEDIUM_BOOM\n"
        "stacked = []\n"
        "def recording(load=stages.import_compute_stack):\n"
        "    load()\n"
        "    stacked.extend(sys.modules)\n"
        "stages.import_compute_stack = recording\n"
        "runner = SweepRunner(FlowSettings(scale=0.05),"
        " cache_dir=sys.argv[1])\n"
        "runner.run_all(configs=(MEDIUM_BOOM,), workloads=['sha'])\n"
        "assert stacked and runner.last_manifest.total_executions\n"
        "print(' '.join(sorted(m for m in set(sys.modules) - set(stacked)"
        " if m.startswith('repro.'))))", str(tmp_path))
    assert set(late.split()) == {"repro.simpoint.bic",
                                 "repro.simpoint.kmeans",
                                 "repro.simpoint.pcg64",
                                 "repro.simpoint.projection"}


def test_computed_and_round_tripped_selections_hold_tuple_labels():
    settings = FlowSettings(scale=0.05)
    profile = compute_profile("qsort", settings)
    computed = compute_selection(profile, settings)
    restored = selection_from_dict(selection_to_dict(computed))
    assert restored == computed
    for selection in (computed, restored):
        assert isinstance(selection.labels, tuple)
        assert len(selection.labels) == profile.num_intervals
        assert all(type(label) is int for label in selection.labels)


def test_cold_sweep_and_dse_load_neither_numpy_random_nor_statistics(
        tmp_path):
    """SimPoint draws from the in-repo PCG64 stream and the analyses
    average with the exact in-repo mean, so cold runs leave numpy's
    random package and statistics (with fractions and decimal) unloaded."""
    loaded = heavy_modules_after(
        "import sys\n"
        "from repro.flow.dse import run_dse\n"
        "from repro.flow.experiment import FlowSettings\n"
        "from repro.flow.sweep import SweepRunner\n"
        "from repro.uarch.space import SpaceSpec\n"
        "settings = FlowSettings(scale=0.05)\n"
        "runner = SweepRunner(settings, cache_dir=sys.argv[1] + '/sweep')\n"
        "runner.run_all()\n"
        "assert runner.last_manifest.total_executions\n"
        "run_dse(SpaceSpec(base='MediumBOOM', mode='random', count=2,"
        " seed=3, include_presets=False), settings,"
        " cache_dir=sys.argv[1] + '/dse', workloads=['sha'])",
        str(tmp_path),
        watch=("numpy.random", "statistics", "fractions", "decimal"))
    assert loaded == set()


@pytest.fixture(scope="module")
def warm_cache(tmp_path_factory):
    """A cache filled by a scale-0.05 cold sweep of the whole study."""
    cache = tmp_path_factory.mktemp("warm")
    runner = SweepRunner(FlowSettings(scale=0.05), cache_dir=cache)
    runner.run_all()
    assert runner.last_manifest.total_executions
    return cache


def test_warm_report_loads_no_workload_generator(warm_cache):
    """The report reads workload names and intervals from the static
    table, so no generator module is compiled or imported."""
    loaded = last_line_of(
        "import sys\n"
        "from repro.flow.experiment import FlowSettings\n"
        "from repro.flow.report import generate_report\n"
        "from repro.flow.sweep import SweepRunner\n"
        "runner = SweepRunner(FlowSettings(scale=0.05),"
        " cache_dir=sys.argv[1])\n"
        "assert '## Table II' in generate_report(runner)\n"
        "assert not runner.last_manifest.total_executions\n"
        "print('modules:', *sorted(m for m in sys.modules"
        " if m.startswith('repro.workloads.generators')))",
        str(warm_cache))
    assert loaded == "modules:"


def test_warm_table_ii_reads_selections_not_profiles(warm_cache,
                                                     tmp_path):
    settings = FlowSettings(scale=0.05)
    cold = table_ii(settings)
    cache = tmp_path / "cache"
    shutil.copytree(warm_cache, cache)
    shutil.rmtree(cache / "bbv_profile")
    store = SweepRunner(settings, cache_dir=cache).store
    assert table_ii(settings, store=store) == cold
    assert set(store.stats_snapshot()) == {"simpoint_selection"}
    assert not (cache / "bbv_profile").exists()

"""Import-cost contract: numpy and the process pool load only where used.

numpy serves SimPoint clustering and BBV matrices, the process pool
serves ``jobs > 1``.  Entry points and warm runs need neither.  pytest
has already imported numpy, so every check runs in a fresh interpreter.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.flow.experiment import FlowSettings
from repro.pipeline.stages import (
    compute_profile,
    compute_selection,
    selection_from_dict,
    selection_to_dict,
)

SRC = Path(__file__).resolve().parents[1] / "src"
HEAVY = ("numpy", "multiprocessing")


def heavy_modules_after(code: str, *argv: str) -> set[str]:
    """The :data:`HEAVY` modules a fresh interpreter holds after ``code``.

    ``argv`` reaches ``code`` as ``sys.argv[1:]``.
    """
    probe = (code + "\nimport sys\n"
             f"print(' '.join(m for m in {HEAVY!r} if m in sys.modules))")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", probe, *argv], env=env,
                          capture_output=True, text=True, timeout=120,
                          check=True)
    return set(done.stdout.splitlines()[-1].split())


@pytest.mark.parametrize("module", ["repro.cli", "repro.flow.sweep",
                                    "repro.flow.report", "repro.flow.dse"])
def test_entry_points_load_neither_numpy_nor_the_pool(module):
    assert heavy_modules_after(f"import {module}") == set()


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

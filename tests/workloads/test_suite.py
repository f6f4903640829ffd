"""Tests for the workload registry and Table II metadata."""

import pytest

from repro.errors import ReproError
from repro.workloads.suite import (
    build_program,
    get_workload,
    REPRODUCTION_SCALE,
    workload_names,
)

TABLE_II = {
    # name: (suite, interval, paper simpoints, paper instructions)
    "basicmath": ("MiBench", 1000, 2, 364_758_047),
    "stringsearch": ("MiBench", 1000, 2, 136_360_766),
    "fft": ("MiBench", 1000, 1, 266_217_322),
    "ifft": ("MiBench", 1000, 1, 266_643_273),
    "bitcount": ("MiBench", 1000, 3, 495_204_057),
    "qsort": ("MiBench", 1000, 1, 22_868_929),
    "dijkstra": ("MiBench", 1000, 1, 227_879_044),
    "patricia": ("MiBench", 2000, 2, 154_589_629),
    "matmult": ("Embench", 1000, 1, 516_885_284),
    "sha": ("MiBench", 1000, 3, 111_029_722),
    "tarfind": ("Embench", 2000, 1, 1_220_430_895),
}


def test_all_eleven_workloads_registered():
    assert set(workload_names()) == set(TABLE_II)


@pytest.mark.parametrize("name", sorted(TABLE_II))
def test_table_ii_metadata(name):
    suite, interval, simpoints, instructions = TABLE_II[name]
    spec = get_workload(name)
    assert spec.suite == suite
    assert spec.interval_size == interval
    assert spec.paper_simpoints == simpoints
    assert spec.paper_instructions == instructions


def test_reproduction_scale_is_documented_1_to_1000():
    assert REPRODUCTION_SCALE == 1000


def test_target_instructions_scales_linearly():
    spec = get_workload("sha")
    assert spec.target_instructions(1.0) == spec.paper_instructions // 1000
    assert spec.target_instructions(0.5) == pytest.approx(
        spec.paper_instructions / 2000, rel=0.01)


def test_interval_for_scale_has_floor():
    spec = get_workload("sha")
    assert spec.interval_for_scale(1.0) == 1000
    assert spec.interval_for_scale(0.001) == 200


def test_unknown_workload_raises():
    with pytest.raises(ReproError):
        get_workload("doom")


def test_build_program_caches():
    a = build_program("qsort", scale=0.02)
    b = build_program("qsort", scale=0.02)
    assert a is b
    c = build_program("qsort", scale=0.03)
    assert c is not a


def test_different_seeds_differ():
    a = build_program("qsort", scale=0.02, seed=1)
    b = build_program("qsort", scale=0.02, seed=2)
    assert a.data != b.data

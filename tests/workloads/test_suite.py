"""Tests for the static workload table and Table II metadata."""

import hashlib
import importlib
import weakref

import pytest

from repro.errors import ReproError
from repro.workloads.suite import (
    build_program,
    get_workload,
    REPRODUCTION_SCALE,
    workload_names,
)

TABLE_II = {
    # name: (suite, interval, paper simpoints, paper instructions),
    # in the paper's row order
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


#: name -> (builder path, digest of the program it assembles at scale 0.05,
#: seed 7: every instruction's fields plus the data image)
BUILDERS = {
    "basicmath": ("basicmath:build", "45b08aa2d7546604"),
    "stringsearch": ("stringsearch:build", "8792c03eb89cc34b"),
    "fft": ("fft:build_fft", "146321269fbcf1b9"),
    "ifft": ("fft:build_ifft", "bdfcd6238e5f9ea7"),
    "bitcount": ("bitcount:build", "920858448c7d2193"),
    "qsort": ("qsort:build", "0cc2f750904e0119"),
    "dijkstra": ("dijkstra:build", "a4d0e4eeefffb94b"),
    "patricia": ("patricia:build", "d75591b85c39ed5e"),
    "matmult": ("matmult:build", "b09864be5446e3d3"),
    "sha": ("sha:build", "ebf9755d5fd0a27b"),
    "tarfind": ("tarfind:build", "ee9a842f62bc81f1"),
}


def test_all_eleven_workloads_registered():
    assert workload_names() == list(TABLE_II)


def test_descriptions_are_pinned():
    text = "\n".join(get_workload(name).description
                     for name in workload_names())
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == \
        "b5fb55dc1e0807db"


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_builder_path_resolves_to_the_workloads_generator(name):
    path, _ = BUILDERS[name]
    spec = get_workload(name)
    assert spec.builder_path == f"repro.workloads.generators.{path}"
    module, function = spec.builder_path.split(":")
    assert spec.builder is getattr(importlib.import_module(module), function)


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_build_program_assembles_the_pinned_program(name):
    program = build_program(name, 0.05, 7)
    text = repr([(i.mnemonic, i.rd, i.rs1, i.rs2, i.rs3, i.imm)
                 for i in program.instructions]) + program.data.hex()
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == BUILDERS[name][1]


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
    with pytest.raises(ReproError) as raised:
        get_workload("doom")
    assert str(raised.value) == \
        f"unknown workload 'doom' (known: {', '.join(TABLE_II)})"


def test_build_program_builds_a_fresh_program():
    # nothing caches programs process-wide: each call assembles a new,
    # equal program, and the last reference to one frees it
    a = build_program("qsort", scale=0.02)
    b = build_program("qsort", scale=0.02)
    assert a is not b
    assert (a.encode_text(), a.data) == (b.encode_text(), b.data)
    dead = weakref.ref(a)
    del a
    assert dead() is None


def test_different_seeds_differ():
    a = build_program("qsort", scale=0.02, seed=1)
    b = build_program("qsort", scale=0.02, seed=2)
    assert a.data != b.data

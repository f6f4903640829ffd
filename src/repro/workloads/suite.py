"""The workload suite: Table II of the paper, reproduced at 1:1000 scale.

Each of the eleven benchmarks from MiBench and Embench is re-implemented
as a RISC-V assembly generator with the behavioural signature the paper's
analysis depends on (see DESIGN.md §1).  :data:`WORKLOADS` is Table II as
one static table of :class:`WorkloadSpec` rows: suite, SimPoint interval
size, paper dynamic instruction count and paper SimPoint count, plus the
``module:function`` path of the builder that produces assembly for a given
``scale``.  The builder's module is imported on first use, so reading the
metadata (names, intervals, paper counts) loads no generator.

``scale=1.0`` targets the paper's instruction counts divided by 1000 (the
documented reproduction scale); smaller scales produce miniature versions
for tests.  All workloads self-check and exit with code 0 on success.

Example::

    from repro.workloads.suite import build_program, workload_names

    for name in workload_names():
        program = build_program(name, scale=0.05)
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Callable

from repro.errors import ReproError

if TYPE_CHECKING:
    from repro.isa.program import Program

#: The paper runs everything at 1M-instruction SimPoint intervals (2M for
#: patricia and tarfind); we scale all dynamic counts by 1:1000.
REPRODUCTION_SCALE = 1000

BuilderFn = Callable[[float, int], str]


@dataclass(frozen=True)
class WorkloadSpec:
    """Metadata and builder for one benchmark (one Table II row)."""

    name: str
    suite: str
    #: SimPoint interval size at scale 1.0 (paper interval / 1000)
    interval_size: int
    #: dynamic instruction count reported in Table II (full scale)
    paper_instructions: int
    #: number of top-ranked SimPoints used in the paper
    paper_simpoints: int
    #: ``module:function`` path of the assembly generator
    builder_path: str
    description: str

    @cached_property
    def builder(self) -> BuilderFn:
        """The generator ``(scale, seed) -> assembly``, imported on first
        use: reading the metadata loads no generator module."""
        module, _, function = self.builder_path.partition(":")
        return getattr(importlib.import_module(module), function)

    def target_instructions(self, scale: float = 1.0) -> int:
        """Expected dynamic instructions at ``scale`` (approximate)."""
        return int(self.paper_instructions / REPRODUCTION_SCALE * scale)

    def interval_for_scale(self, scale: float = 1.0) -> int:
        """SimPoint interval size matched to the scaled workload length."""
        return max(200, int(self.interval_size * scale))


def _spec(name: str, suite: str, interval_size: int,
          paper_instructions: int, paper_simpoints: int, builder: str,
          description: str) -> WorkloadSpec:
    return WorkloadSpec(name, suite, interval_size, paper_instructions,
                        paper_simpoints,
                        f"repro.workloads.generators.{builder}", description)


#: Table II, in the paper's row order
WORKLOADS = (
    _spec("basicmath", "MiBench", 1000, 364_758_047, 2, "basicmath:build",
          "Integer square roots, fixed-point cube roots, and angle "
          "conversions: divider visits between polynomial ALU work."),
    _spec("stringsearch", "MiBench", 1000, 136_360_766, 2,
          "stringsearch:build",
          "Horspool multi-pattern text search: byte-load heavy with "
          "data-dependent skips; memory-issue-unit hotspot."),
    _spec("fft", "MiBench", 1000, 266_217_322, 1, "fft:build_fft",
          "Iterative radix-2 complex FFT: the floating-point "
          "pipeline and FP-register-file anchor of the suite."),
    _spec("ifft", "MiBench", 1000, 266_643_273, 1, "fft:build_ifft",
          "Inverse FFT with 1/N normalization: FP-heavy, slightly "
          "longer than the forward transform."),
    _spec("bitcount", "MiBench", 1000, 495_204_057, 3, "bitcount:build",
          "Three bit-counting kernels: data-dependent loop, "
          "branch-free SWAR, and table lookups (three phases)."),
    _spec("qsort", "MiBench", 1000, 22_868_929, 1, "qsort:build",
          "Iterative quicksort over doubles: FP compares with "
          "data-dependent branches; the shortest benchmark."),
    _spec("dijkstra", "MiBench", 1000, 227_879_044, 1, "dijkstra:build",
          "O(V^2) Dijkstra on a dense adjacency matrix: dependent "
          "load/compare chains; integer-issue-queue hotspot."),
    _spec("patricia", "MiBench", 2000, 154_589_629, 2, "patricia:build",
          "Radix-trie build and query over 16-bit keys: pure "
          "pointer chasing; load-to-use latency bound."),
    _spec("matmult", "Embench", 1000, 516_885_284, 1, "matmult:build",
          "Integer matrix multiply: streaming plus strided loads, "
          "the suite's data-cache hotspot."),
    _spec("sha", "MiBench", 1000, 111_029_722, 3, "sha:build",
          "Four-lane interleaved hash rounds: the suite's ILP and "
          "IPC ceiling; stresses the integer register file."),
    _spec("tarfind", "Embench", 2000, 1_220_430_895, 1, "tarfind:build",
          "Tar-archive scan: octal parsing, name matching, and a "
          "branch-per-byte checksum; the suite's IPC floor."),
)

_BY_NAME = {spec.name: spec for spec in WORKLOADS}


def workload_names() -> list[str]:
    """All workload names, in Table II order."""
    return list(_BY_NAME)


def get_workload(name: str) -> WorkloadSpec:
    """Look up one workload spec by name."""
    try:
        return _BY_NAME[name]
    except KeyError:
        known = ", ".join(_BY_NAME)
        raise ReproError(
            f"unknown workload {name!r} (known: {known})") from None


def build_program(name: str, scale: float = 1.0, seed: int = 7) -> Program:
    """Build and assemble one workload at the given scale.

    Every call assembles a new :class:`Program` (equal to the last one
    for the same (name, scale, seed) triple), which the simulators treat
    as immutable.  Nothing here caches it: a caller that runs a program
    more than once keeps it, as the pipeline does for the stages of one
    run, and a dropped program frees its simulator caches with it.
    """
    from repro.isa.assembler import assemble

    spec = get_workload(name)
    source = spec.builder(scale, seed)
    return assemble(source, name=f"{name}@{scale:g}")

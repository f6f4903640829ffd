"""The workload suite: Table II of the paper, reproduced at 1:1000 scale.

Each of the eleven benchmarks from MiBench and Embench is re-implemented
as a RISC-V assembly generator with the behavioural signature the paper's
analysis depends on (see DESIGN.md §1).  A :class:`WorkloadSpec` carries
the Table II metadata — suite, SimPoint interval size, paper dynamic
instruction count, and paper SimPoint count — plus the builder that
produces assembly for a given ``scale``.

``scale=1.0`` targets the paper's instruction counts divided by 1000 (the
documented reproduction scale); smaller scales produce miniature versions
for tests.  All workloads self-check and exit with code 0 on success.

Example::

    from repro.workloads.suite import build_program, workload_names

    for name in workload_names():
        program = build_program(name, scale=0.05)
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
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
    builder: BuilderFn
    description: str

    def target_instructions(self, scale: float = 1.0) -> int:
        """Expected dynamic instructions at ``scale`` (approximate)."""
        return int(self.paper_instructions / REPRODUCTION_SCALE * scale)

    def interval_for_scale(self, scale: float = 1.0) -> int:
        """SimPoint interval size matched to the scaled workload length."""
        return max(200, int(self.interval_size * scale))


_REGISTRY: dict[str, WorkloadSpec] = {}


def register_workload(spec: WorkloadSpec) -> WorkloadSpec:
    """Add ``spec`` to the global registry (used by generator modules)."""
    if spec.name in _REGISTRY:
        raise ReproError(f"workload {spec.name!r} registered twice")
    _REGISTRY[spec.name] = spec
    return spec


def _ensure_loaded() -> None:
    # Generator modules self-register on import.
    from repro.workloads import generators  # noqa: F401


def workload_names() -> list[str]:
    """All registered workload names, in Table II order."""
    _ensure_loaded()
    return list(_REGISTRY)


def get_workload(name: str) -> WorkloadSpec:
    """Look up one workload spec by name."""
    _ensure_loaded()
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(_REGISTRY)
        raise ReproError(
            f"unknown workload {name!r} (known: {known})") from None


@lru_cache(maxsize=64)
def build_program(name: str, scale: float = 1.0, seed: int = 7) -> Program:
    """Build and assemble one workload at the given scale.

    Results are cached: the same (name, scale, seed) triple always returns
    the same :class:`Program` object, which the simulators treat as
    immutable.
    """
    from repro.isa.assembler import assemble

    spec = get_workload(name)
    source = spec.builder(scale, seed)
    return assemble(source, name=f"{name}@{scale:g}")

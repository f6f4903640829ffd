#!/usr/bin/env python3
"""Design-space exploration with custom BOOM configurations.

The paper's flow "can be used to evaluate any CPU design" — this example
does it two ways:

1. hand-crafted ablations the paper never measured (the Key Takeaway
   #1/#7/#8 knobs), evaluated point by point;
2. a generated design-space lattice around MediumBOOM
   (`repro.uarch.space`) swept to an energy-efficiency Pareto frontier
   (`repro.flow.dse.run_dse`).
"""

import dataclasses
from statistics import mean

from repro.flow.dse import run_dse
from repro.flow.experiment import FlowSettings
from repro.flow.sweep import SweepRunner
from repro.uarch.config import LARGE_BOOM, MEGA_BOOM
from repro.uarch.space import SpaceSpec

WORKLOADS = ["sha", "dijkstra", "matmult", "qsort"]
SCALE = 0.3


def design_points():
    yield MEGA_BOOM
    yield MEGA_BOOM.with_predictor("gshare")
    yield dataclasses.replace(MEGA_BOOM, int_iq_entries=20,
                              name="MegaBOOM-smallIQ")
    yield dataclasses.replace(
        LARGE_BOOM,
        dcache=dataclasses.replace(LARGE_BOOM.dcache, mshrs=8),
        name="LargeBOOM-8mshr")
    yield dataclasses.replace(LARGE_BOOM, int_rf_read_ports=12,
                              int_rf_write_ports=6,
                              name="LargeBOOM-fatRF")


def hand_crafted_ablations() -> None:
    runner = SweepRunner(FlowSettings(scale=SCALE), cache_dir=None)
    print(f"{'design':<22}{'IPC':>7}{'tile mW':>9}{'IPC/W':>8}"
          f"{'BP mW':>7}{'IRF mW':>8}{'D$ mW':>7}")
    for config in design_points():
        rows = [runner.run(w, config) for w in WORKLOADS]
        ipc = mean(r.ipc for r in rows)
        tile = mean(r.tile_mw for r in rows)
        ppw = mean(r.perf_per_watt for r in rows)
        bp = mean(r.component_mw("branch_predictor") for r in rows)
        irf = mean(r.component_mw("int_regfile") for r in rows)
        dcache = mean(r.component_mw("dcache") for r in rows)
        print(f"{config.name:<22}{ipc:>7.2f}{tile:>9.2f}{ppw:>8.1f}"
              f"{bp:>7.2f}{irf:>8.2f}{dcache:>7.2f}")
    print("\nobservations to look for:")
    print(" * gshare cuts branch-predictor power at (nearly) equal IPC")
    print(" * the small integer IQ saves power but costs IPC on dijkstra")
    print(" * extra MSHRs raise D-cache power (Key Takeaway #8)")
    print(" * MegaBOOM-class RF ports on a 3-wide core explode IRF power "
          "with no IPC to show for it (Key Takeaway #1)")


def generated_lattice() -> None:
    # the same idea, systematized: a seeded neighborhood of MediumBOOM
    # (plus the paper presets), swept through the supervised scheduler
    # and pruned to the IPC / tile-power / area Pareto frontier
    spec = SpaceSpec(base="MediumBOOM", count=12, seed=7)
    outcome = run_dse(spec, settings=FlowSettings(scale=SCALE),
                      cache_dir=None, workloads=["sha", "dijkstra"])
    print(outcome.format())
    print(f"swept {len(outcome.points)} generated design points at "
          f"{outcome.points_per_s:.1f} points/s")


def main() -> None:
    hand_crafted_ablations()
    print()
    generated_lattice()


if __name__ == "__main__":
    main()

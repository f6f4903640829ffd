#!/usr/bin/env python3
"""Quickstart: assemble, simulate, and measure power in ~30 lines.

Runs a tiny RISC-V program on the functional simulator, then pushes one
real workload (qsort, reduced scale) through the full paper flow —
profiling, SimPoint selection, checkpointing, detailed simulation on
MediumBOOM, and power estimation.
"""

from repro.flow.experiment import run_experiment
from repro.isa.assembler import assemble
from repro.sim.executor import Executor
from repro.uarch.config import MEDIUM_BOOM


def functional_hello() -> None:
    program = assemble("""
        .data
    result: .dword 0
        .text
    _start:
        li   t0, 0
        li   t1, 100
    loop:
        add  t0, t0, t1
        addi t1, t1, -1
        bnez t1, loop
        la   t2, result
        sd   t0, 0(t2)
        li   a0, 0
        li   a7, 93          # exit syscall
        ecall
    """)
    executor = Executor(program)
    executor.run_to_completion()
    total = executor.state.memory.load(program.symbol("result"), 8)
    print(f"functional simulator: sum(1..100) = {total}, "
          f"{executor.state.retired} instructions retired")


def full_flow() -> None:
    result = run_experiment("qsort", MEDIUM_BOOM, scale=0.3)
    print(f"\nqsort on {result.config_name} (scale {result.scale:g}):")
    print(f"  {result.total_instructions:,} instructions profiled into "
          f"{result.num_intervals} intervals")
    print(f"  SimPoint chose k={result.chosen_k}; simulated "
          f"{len(result.runs)} points covering {result.coverage:.0%}")
    print(f"  IPC = {result.ipc:.2f}")
    print(f"  tile power = {result.tile_mw:.2f} mW "
          f"({result.analyzed_share:.0%} in the 13 analyzed components)")
    print(f"  performance per watt = {result.perf_per_watt:.1f} IPC/W")
    print("\n  top power components:")
    ranked = sorted(
        ((name, result.component_mw(name))
         for name in result.runs[0].report.components
         if name != "rest_of_tile"),
        key=lambda item: item[1], reverse=True)
    for name, power in ranked[:5]:
        print(f"    {name:<18} {power:6.3f} mW")


if __name__ == "__main__":
    functional_hello()
    full_flow()

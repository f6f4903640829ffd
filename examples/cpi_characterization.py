#!/usr/bin/env python3
"""CPI-stack characterization of the whole suite.

The power figures say where the *energy* goes; CPI stacks say where the
*cycles* go.  Together they explain the perf-per-watt results: tarfind is
cheap in power but wastes cycles on mispredicts; basicmath serializes on
the divider; sha is pure base CPI.

Runs a steady-state window of every workload on a chosen configuration
and prints the stacked breakdown plus each workload's dominant
bottleneck.
"""

import sys

from repro.analysis.cpi_stack import (
    cpi_stack,
    dominant_bottleneck,
    STACK_COMPONENTS,
)
from repro.uarch.config import config_by_name
from repro.uarch.core import BoomCore
from repro.workloads.suite import build_program, workload_names

SKIP = 20_000
WINDOW = 5_000


def main() -> None:
    config = config_by_name(sys.argv[1] if len(sys.argv) > 1
                            else "MegaBOOM")
    print(f"CPI stacks on {config.name} "
          f"(window of {WINDOW} instructions after {SKIP} warm-up)\n")
    header = f"{'workload':<14}{'CPI':>7}"
    header += "".join(f"{name[:9]:>10}" for name in STACK_COMPONENTS)
    header += "  bottleneck"
    print(header)
    for workload in workload_names():
        program = build_program(workload, scale=1.0)
        core = BoomCore(config, program)
        core.warm_up(SKIP)
        stats = core.begin_measurement()
        core.run(WINDOW)
        stack = cpi_stack(stats, config)
        row = f"{workload:<14}{stack['cpi']:>7.2f}"
        row += "".join(f"{stack[name]:>10.3f}"
                       for name in STACK_COMPONENTS)
        row += f"  {dominant_bottleneck(stack)}"
        print(row)


if __name__ == "__main__":
    main()

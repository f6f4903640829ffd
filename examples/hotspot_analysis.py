#!/usr/bin/env python3
"""Microarchitectural hotspot analysis — the paper's core use case.

Runs the full workload suite on all three BOOM configurations (at a
reduced scale so this finishes in under a minute without a cache), then:

* prints the per-component power ranking per configuration (Figs. 5-7),
* identifies the hotspots the paper's takeaways call out,
* checks all 8 key takeaways programmatically.

Run with ``--full`` for the Table II scale used by the benchmark harness.
"""

import sys
from statistics import mean

from repro.analysis.figures import COMPONENT_LABELS
from repro.flow.experiment import FlowSettings
from repro.flow.sweep import SweepRunner
from repro.flow.report import ReportInputs, SECTIONS
from repro.power.area import ANALYZED_COMPONENTS
from repro.workloads.suite import workload_names


def main() -> None:
    scale = 1.0 if "--full" in sys.argv else 0.25
    print(f"running the 11-workload x 3-configuration sweep "
          f"(scale {scale:g})...")
    runner = SweepRunner(FlowSettings(scale=scale), cache_dir=None)
    results = runner.run_all()

    for config in ("MediumBOOM", "LargeBOOM", "MegaBOOM"):
        averages = {
            name: mean(results[(w, config)].component_mw(name)
                       for w in workload_names())
            for name in ANALYZED_COMPONENTS}
        tile = mean(results[(w, config)].tile_mw for w in workload_names())
        print(f"\n=== {config}: hotspot ranking "
              f"(tile {tile:.1f} mW) ===")
        ranked = sorted(averages.items(), key=lambda kv: kv[1],
                        reverse=True)
        for rank, (name, power) in enumerate(ranked, start=1):
            bar = "#" * int(40 * power / ranked[0][1])
            print(f"{rank:>3}. {COMPONENT_LABELS[name]:<18}"
                  f"{power:7.3f} mW  {bar}")

    print()
    print(SECTIONS["takeaways"](ReportInputs(runner, results=results)))


if __name__ == "__main__":
    main()

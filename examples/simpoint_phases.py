#!/usr/bin/env python3
"""SimPoint phase analysis: see a program's phases and their weights.

Profiles bitcount (three distinct kernels -> three phases) and sha, runs
the SimPoint pipeline, and renders the phase timeline as ASCII — the same
data Fig. 4 of the paper feeds into checkpoint generation.
"""

from repro.flow.experiment import FlowSettings, profile_and_select

SCALE = 0.5
SETTINGS = FlowSettings(scale=SCALE)
GLYPHS = "ABCDEFGHIJ"


def analyze(workload: str) -> None:
    profile, selection = profile_and_select(workload, SETTINGS)
    print(f"\n=== {workload} (scale {SCALE:g}) ===")
    print(f"{profile.total_instructions:,} instructions, "
          f"{profile.num_intervals} intervals of ~{profile.interval_size}, "
          f"{profile.num_blocks} dynamic basic blocks")
    print(f"SimPoint: k={selection.chosen_k} clusters")

    timeline = "".join(GLYPHS[label % len(GLYPHS)]
                       for label in selection.labels)
    print("phase timeline (one glyph per interval):")
    for start in range(0, len(timeline), 72):
        print("  " + timeline[start:start + 72])

    top = selection.top_points()
    print(f"top {len(top)} simulation points "
          f"(coverage {selection.coverage_of(top):.0%}):")
    for point in sorted(top, key=lambda p: -p.weight):
        print(f"  interval {point.interval_index:>4} "
              f"(instr {point.start_instruction:>8,})  "
              f"cluster {GLYPHS[point.cluster % len(GLYPHS)]}  "
              f"weight {point.weight:.2f}")


if __name__ == "__main__":
    for workload in ("bitcount", "sha", "basicmath"):
        analyze(workload)

"""Study report generation: the whole evaluation as one markdown file.

``repro-cli report`` (or :func:`generate_report`) runs the full sweep and
renders every table and figure series, the takeaway checks, the speedup
accounting, and the efficiency summary into a single self-contained
markdown document — the reproducibility artifact a reader can diff
against EXPERIMENTS.md.
"""

from __future__ import annotations

from statistics import mean

from repro.analysis.efficiency import (
    energy_delay_product,
    energy_per_instruction_pj,
    summarize,
)
from repro.analysis.figures import (
    COMPONENT_LABELS,
    component_power_series,
    fig10_ipc,
    fig11_perf_per_watt,
    fig8_issue_slots,
    fig9_component_share,
    ResultMap,
)
from repro.analysis.tables import format_table_ii, table_i, table_ii
from repro.analysis.takeaways import check_all
from repro.flow.speedup import speedup_report
from repro.flow.sweep import SweepRunner
from repro.pipeline.manifest import RunManifest
from repro.power.area import ANALYZED_COMPONENTS
from repro.workloads.suite import workload_names

_CONFIGS = ("MediumBOOM", "LargeBOOM", "MegaBOOM")


def _markdown_table(headers: list[str], rows: list[list[str]]) -> str:
    lines = ["| " + " | ".join(headers) + " |",
             "|" + "|".join("---" for _ in headers) + "|"]
    for row in rows:
        lines.append("| " + " | ".join(row) + " |")
    return "\n".join(lines)


def _mean_or_none(values: list[float]) -> float | None:
    return mean(values) if values else None


def _component_section(results: ResultMap) -> str:
    headers = ["Component (mW)", *_CONFIGS]
    rows = []
    # component_power_series only emits workloads actually present for
    # the config, so a degraded sweep just averages over fewer rows.
    series = {config: component_power_series(results, config)
              for config in _CONFIGS}
    for name in ANALYZED_COMPONENTS:
        cells = [COMPONENT_LABELS[name]]
        for config in _CONFIGS:
            value = _mean_or_none(
                [series[config][w][name] for w in series[config]])
            cells.append(f"{value:.2f}" if value is not None else "-")
        rows.append(cells)
    tile = ["**Tile total**"]
    for config in _CONFIGS:
        total = _mean_or_none([results[(w, config)].tile_mw
                               for w in workload_names()
                               if (w, config) in results])
        tile.append(f"**{total:.1f}**" if total is not None else "-")
    rows.append(tile)
    return _markdown_table(headers, rows)


def _per_benchmark_section(series: dict[str, dict[str, float]],
                           fmt: str = "{:.2f}") -> str:
    headers = ["Benchmark", *_CONFIGS]
    rows = []
    for workload in workload_names():
        rows.append([workload,
                     *(fmt.format(series[config][workload])
                       if workload in series.get(config, {}) else "-"
                       for config in _CONFIGS)])
    return _markdown_table(headers, rows)


def generate_report(runner: SweepRunner,
                    include_gshare: bool = False) -> str:
    """Run the study through ``runner`` and render the markdown report."""
    results = runner.run_all()
    gshare_results = None
    if include_gshare:
        from repro.uarch.config import ALL_CONFIGS

        gshare_results = runner.run_all(
            configs=tuple(c.with_predictor("gshare") for c in ALL_CONFIGS))

    sections = ["# Study report",
                f"\nSettings: scale {runner.settings.scale:g}, seed "
                f"{runner.settings.seed}, warm-up "
                f"{runner.settings.scaled_warmup()} instructions.\n"]

    sections.append("## Table I — configurations\n")
    sections.append("```\n" + table_i() + "\n```\n")

    sections.append("## Table II — workloads and SimPoints\n")
    sections.append("```\n"
                    + format_table_ii(table_ii(runner.settings,
                                              store=runner.store))
                    + "\n```\n")

    sections.append("## Figs. 5-7 — per-component power (suite averages)\n")
    sections.append(_component_section(results) + "\n")

    sections.append("## Fig. 8 — integer IQ per-slot power, MegaBOOM\n")
    slots = fig8_issue_slots(results)
    if "dijkstra" in slots and "sha" in slots:
        sections.append(
            f"dijkstra: {sum(slots['dijkstra']):.2f} mW across "
            f"{len(slots['dijkstra'])} slots; sha: {sum(slots['sha']):.2f} "
            f"mW (IPC {results[('dijkstra', 'MegaBOOM')].ipc:.2f} vs "
            f"{results[('sha', 'MegaBOOM')].ipc:.2f}).\n")
    else:
        sections.append("(dijkstra/sha results missing for MegaBOOM)\n")

    sections.append("## Fig. 9 — analyzed-component share\n")
    shares = fig9_component_share(results)
    sections.append(_markdown_table(
        ["Config", "Share"],
        [[config, f"{share:.1%}"] for config, share in shares.items()])
        + "\n")

    sections.append("## Fig. 10 — IPC\n")
    sections.append(_per_benchmark_section(fig10_ipc(results)) + "\n")

    sections.append("## Fig. 11 — performance per watt (IPC/W)\n")
    sections.append(_per_benchmark_section(fig11_perf_per_watt(results),
                                           "{:.1f}") + "\n")

    sections.append("## Energy metrics (suite averages)\n")
    rows = []
    for config in _CONFIGS:
        config_results = [results[(w, config)] for w in workload_names()
                          if (w, config) in results]
        # The metrics return None for zero-IPC results (satellite of the
        # degraded-sweep story); average only the defined values.
        epis = [v for v in map(energy_per_instruction_pj, config_results)
                if v is not None]
        edps = [v for v in map(energy_delay_product, config_results)
                if v is not None]
        epi = _mean_or_none(epis)
        edp = _mean_or_none(edps)
        rows.append([config,
                     f"{epi:.1f}" if epi is not None else "-",
                     f"{edp:.2f}" if edp is not None else "-"])
    sections.append(_markdown_table(
        ["Config", "pJ/instr", "EDP (pJ*ns)"], rows) + "\n")

    sections.append("## SimPoint speedup\n")
    speedup = speedup_report([results[(w, "MegaBOOM")]
                              for w in workload_names()
                              if (w, "MegaBOOM") in results])
    sections.append("```\n" + speedup.format_table() + "\n```\n")

    sections.append("## Key takeaways\n")
    for check in check_all(results, gshare_results):
        status = "PASS" if check.passed else "FAIL"
        sections.append(f"* **[{status}] #{check.number}** {check.claim}  "
                        f"\n  {check.evidence}")

    sections.append("\n## Efficiency summary\n")
    sections.append("```\n" + summarize(results).format() + "\n```")

    sections.append("\n## Pipeline cache\n")
    sections.append(
        "Per-stage execution and artifact-cache accounting for the "
        "sweeps behind this report (see DESIGN.md, \"Pipeline stages & "
        "artifact cache\").\n")
    cumulative = RunManifest(stages=runner.store.stats_snapshot())
    sections.append("```\n" + cumulative.format() + "\n```")
    return "\n".join(sections)

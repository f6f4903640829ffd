"""Study report generation: the whole evaluation as one markdown file.

The report is an ordered list of named sections (:data:`SECTIONS`): the
two tables, every figure series, the energy metrics, the speedup
accounting, the takeaway checks, the efficiency summary and the cache
accounting.  Each is rendered here and nowhere else.  ``repro-cli
report`` (or :func:`generate_report`) renders all of them under a
settings header — the reproducibility artifact a reader can diff against
EXPERIMENTS.md; ``repro-cli report --section NAME`` renders one, and
computes only the inputs that section reads.
"""

from __future__ import annotations

from functools import cached_property
from statistics import mean
from typing import Callable

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
from repro.analysis.tables import format_table_ii, table_i, table_ii, \
    TableIIRow
from repro.analysis.takeaways import check_all, TakeawayCheck
from repro.flow.experiment import FlowSettings
from repro.flow.speedup import speedup_report
from repro.flow.sweep import SweepRunner
from repro.pipeline.manifest import RunManifest
from repro.power.area import ANALYZED_COMPONENTS
from repro.workloads.suite import workload_names

_CONFIGS = ("MediumBOOM", "LargeBOOM", "MegaBOOM")


class ReportInputs:
    """What the sections read, each computed from ``runner`` on first use.

    ``results`` is the preset sweep; ``gshare_results`` the gshare
    ablation sweep (``None`` unless ``include_gshare``); ``table_ii_rows``
    the measured Table II, which reads the sweep's stored profiles.
    Pass ``results`` to render from a sweep already in hand.
    """

    def __init__(self, runner: SweepRunner, *, include_gshare: bool = False,
                 jobs: int = 1, trace: bool = False,
                 results: ResultMap | None = None) -> None:
        self.runner = runner
        self.include_gshare = include_gshare
        self.jobs = jobs
        self.trace = trace
        if results is not None:
            self.results = results

    @cached_property
    def results(self) -> ResultMap:
        return self.runner.run_all(jobs=self.jobs, trace=self.trace)

    @cached_property
    def gshare_results(self) -> ResultMap | None:
        if not self.include_gshare:
            return None
        from repro.uarch.config import ALL_CONFIGS

        return self.runner.run_all(
            configs=tuple(c.with_predictor("gshare") for c in ALL_CONFIGS),
            jobs=self.jobs, trace=self.trace)

    @cached_property
    def table_ii_rows(self) -> list[TableIIRow]:
        return table_ii(self.runner.settings, store=self.runner.store)

    @cached_property
    def checks(self) -> list[TakeawayCheck]:
        return check_all(self.results, self.gshare_results)

    def load_all(self) -> None:
        """Compute every input, in the order the full report reads them:
        the sweeps first, then Table II from their stored profiles."""
        self.results
        self.gshare_results
        self.table_ii_rows


def _markdown_table(headers: list[str], rows: list[list[str]]) -> str:
    lines = ["| " + " | ".join(headers) + " |",
             "|" + "|".join("---" for _ in headers) + "|"]
    for row in rows:
        lines.append("| " + " | ".join(row) + " |")
    return "\n".join(lines)


def _mean_or_none(values: list[float]) -> float | None:
    return mean(values) if values else None


def _section(heading: str, *body: str) -> str:
    return "\n".join([f"## {heading}\n", *body])


def _per_benchmark_table(series: dict[str, dict[str, float]],
                         fmt: str = "{:.2f}") -> str:
    headers = ["Benchmark", *_CONFIGS]
    rows = []
    for workload in workload_names():
        rows.append([workload,
                     *(fmt.format(series[config][workload])
                       if workload in series.get(config, {}) else "-"
                       for config in _CONFIGS)])
    return _markdown_table(headers, rows)


def _table1(inputs: ReportInputs) -> str:
    return _section("Table I — configurations",
                    "```\n" + table_i() + "\n```\n")


def _table2(inputs: ReportInputs) -> str:
    return _section("Table II — workloads and SimPoints",
                    "```\n" + format_table_ii(inputs.table_ii_rows)
                    + "\n```\n")


def _component_power(inputs: ReportInputs) -> str:
    results = inputs.results
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
    return _section("Figs. 5-7 — per-component power (suite averages)",
                    _markdown_table(headers, rows) + "\n")


def _fig8(inputs: ReportInputs) -> str:
    results = inputs.results
    slots = fig8_issue_slots(results)
    if "dijkstra" in slots and "sha" in slots:
        body = (f"dijkstra: {sum(slots['dijkstra']):.2f} mW across "
                f"{len(slots['dijkstra'])} slots; sha: "
                f"{sum(slots['sha']):.2f} mW (IPC "
                f"{results[('dijkstra', 'MegaBOOM')].ipc:.2f} vs "
                f"{results[('sha', 'MegaBOOM')].ipc:.2f}).\n")
    else:
        body = "(dijkstra/sha results missing for MegaBOOM)\n"
    return _section("Fig. 8 — integer IQ per-slot power, MegaBOOM", body)


def _fig9(inputs: ReportInputs) -> str:
    shares = fig9_component_share(inputs.results)
    return _section("Fig. 9 — analyzed-component share", _markdown_table(
        ["Config", "Share"],
        [[config, f"{share:.1%}"] for config, share in shares.items()])
        + "\n")


def _fig10(inputs: ReportInputs) -> str:
    return _section("Fig. 10 — IPC",
                    _per_benchmark_table(fig10_ipc(inputs.results)) + "\n")


def _fig11(inputs: ReportInputs) -> str:
    return _section("Fig. 11 — performance per watt (IPC/W)",
                    _per_benchmark_table(
                        fig11_perf_per_watt(inputs.results), "{:.1f}")
                    + "\n")


def _energy(inputs: ReportInputs) -> str:
    results = inputs.results
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
    return _section("Energy metrics (suite averages)", _markdown_table(
        ["Config", "pJ/instr", "EDP (pJ*ns)"], rows) + "\n")


def _speedup(inputs: ReportInputs) -> str:
    results = inputs.results
    speedup = speedup_report([results[(w, "MegaBOOM")]
                              for w in workload_names()
                              if (w, "MegaBOOM") in results])
    return _section("SimPoint speedup",
                    "```\n" + speedup.format_table() + "\n```\n")


def _takeaways(inputs: ReportInputs) -> str:
    items = []
    for check in inputs.checks:
        status = "PASS" if check.passed else "FAIL"
        items.append(f"* **[{status}] #{check.number}** {check.claim}  "
                     f"\n  {check.evidence}")
    return _section("Key takeaways", *items, "")


def _efficiency(inputs: ReportInputs) -> str:
    return _section("Efficiency summary",
                    "```\n" + summarize(inputs.results).format() + "\n```\n")


def _cache(inputs: ReportInputs) -> str:
    # The accounting covers everything the full report reads, so this
    # section loads all of it even when rendered alone.
    inputs.load_all()
    cumulative = RunManifest(stages=inputs.runner.store.stats_snapshot())
    return _section(
        "Pipeline cache",
        "Per-stage execution and artifact-cache accounting for the "
        "sweeps behind this report (see DESIGN.md, \"Pipeline stages & "
        "artifact cache\").\n",
        "```\n" + cumulative.format() + "\n```")


#: The report's sections, in report order.
SECTIONS: dict[str, Callable[[ReportInputs], str]] = {
    "table1": _table1,
    "table2": _table2,
    "fig5-7": _component_power,
    "fig8": _fig8,
    "fig9": _fig9,
    "fig10": _fig10,
    "fig11": _fig11,
    "energy": _energy,
    "speedup": _speedup,
    "takeaways": _takeaways,
    "efficiency": _efficiency,
    "cache": _cache,
}


def header(settings: FlowSettings) -> str:
    """The report's title and operating point, above the sections."""
    return (f"# Study report\n\nSettings: scale {settings.scale:g}, seed "
            f"{settings.seed}, warm-up {settings.scaled_warmup()} "
            f"instructions.\n")


def generate_report(runner: SweepRunner, include_gshare: bool = False, *,
                    jobs: int = 1, trace: bool = False) -> str:
    """Run the study through ``runner`` and render the markdown report."""
    inputs = ReportInputs(runner, include_gshare=include_gshare,
                          jobs=jobs, trace=trace)
    inputs.load_all()
    return "\n".join([header(runner.settings),
                      *(render(inputs) for render in SECTIONS.values())])

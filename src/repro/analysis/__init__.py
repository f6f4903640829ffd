"""Analysis: tables, figure series, takeaway checks, efficiency summaries."""

from repro.analysis.accuracy import (
    AccuracyEvaluation,
    MetricCheck,
    build_envelope,
    evaluate_accuracy,
    format_accuracy,
    load_envelopes,
    write_envelope,
)
from repro.analysis.compare import (
    compare_sweeps,
    format_comparison,
    SweepComparison,
    WorkloadDelta,
)
from repro.analysis.cpi_stack import (
    cpi_stack,
    dominant_bottleneck,
    format_cpi_stack,
)
from repro.analysis.dse import (
    DesignPoint,
    dominates,
    format_frontier,
    format_sensitivity,
    frontier_document,
    frontier_hotspots,
    pareto_frontier,
    sensitivity_table,
    summarize_space,
)
from repro.analysis.efficiency import EfficiencySummary, summarize
from repro.analysis.validation import (
    AccuracyReport,
    full_detailed_ipc,
    validate_simpoint_accuracy,
)
from repro.analysis.figures import (
    COMPONENT_LABELS,
    component_power_series,
    fig10_ipc,
    fig11_perf_per_watt,
    fig8_issue_slots,
    fig9_component_share,
)
from repro.analysis.tables import (
    format_table_ii,
    table_i,
    table_ii,
    TableIIRow,
)
from repro.analysis.takeaways import (
    check_all,
    TakeawayCheck,
)

__all__ = [
    "AccuracyEvaluation",
    "MetricCheck",
    "build_envelope",
    "evaluate_accuracy",
    "format_accuracy",
    "load_envelopes",
    "write_envelope",
    "compare_sweeps",
    "format_comparison",
    "SweepComparison",
    "WorkloadDelta",
    "cpi_stack",
    "dominant_bottleneck",
    "format_cpi_stack",
    "AccuracyReport",
    "full_detailed_ipc",
    "validate_simpoint_accuracy",
    "DesignPoint",
    "dominates",
    "format_frontier",
    "format_sensitivity",
    "frontier_document",
    "frontier_hotspots",
    "pareto_frontier",
    "sensitivity_table",
    "summarize_space",
    "EfficiencySummary",
    "summarize",
    "COMPONENT_LABELS",
    "component_power_series",
    "fig10_ipc",
    "fig11_perf_per_watt",
    "fig8_issue_slots",
    "fig9_component_share",
    "format_table_ii",
    "table_i",
    "table_ii",
    "TableIIRow",
    "check_all",
    "TakeawayCheck",
]

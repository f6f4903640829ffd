"""repro.obs — zero-dependency observability: tracing, metrics, progress.

Three pillars (see DESIGN.md §9):

* **Tracing** (:mod:`.tracer`, :mod:`.merge`): nested spans and instant
  events on a monotonic clock, one JSONL file per process, merged onto
  a unified wall-anchored timeline.
* **Metrics** (:mod:`.metrics`): counters/gauges/histograms snapshotted
  into the run manifest.
* **Consumers** (:mod:`.render`, :mod:`.progress`): wall-clock trees,
  critical path, worker utilization, Chrome/Perfetto export, and live
  sweep progress from heartbeat events.

Everything is off-by-default-cheap (a shared no-op tracer when
disabled) and strictly read-only with respect to results: observability
never enters cache keys, fingerprints, or artifacts.
"""

from .flight import (
    FLIGHT_ENV,
    FlightRecorder,
    flight_requested,
    flight_samples,
)
from .heartbeat import HeartbeatEmitter, wrap_control_hook
from .logs import (
    WorkerLogMerger,
    get_logger,
    setup_cli_logging,
    setup_worker_logging,
)
from .merge import merge_event_files, read_event_file, write_merged_trace
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_metrics,
    reset_metrics,
)
from .progress import ProgressMonitor
from .render import (
    build_spans,
    chrome_json,
    critical_path,
    flight_to_chrome,
    format_flight,
    format_summary,
    format_tree,
    sparkline,
    stage_totals,
    to_chrome,
    worker_utilization,
)
from .session import OBS_DIR_NAME, TraceSession, latest_run_dir, resolve_run_dir
from .tracer import (
    HEARTBEAT_ENV,
    NULL_TRACER,
    NullTracer,
    OBS_DIR_ENV,
    OBS_TRACE_ENV,
    TRACE_ENV,
    Tracer,
    configure_tracer,
    ensure_process_tracer,
    get_tracer,
    heartbeat_interval,
    reset_tracer,
    tracing_requested,
)

__all__ = [
    "Counter",
    "FLIGHT_ENV",
    "FlightRecorder",
    "Gauge",
    "HEARTBEAT_ENV",
    "HeartbeatEmitter",
    "Histogram",
    "MetricsRegistry",
    "NULL_TRACER",
    "NullTracer",
    "OBS_DIR_ENV",
    "OBS_DIR_NAME",
    "OBS_TRACE_ENV",
    "ProgressMonitor",
    "TRACE_ENV",
    "TraceSession",
    "Tracer",
    "WorkerLogMerger",
    "build_spans",
    "chrome_json",
    "configure_tracer",
    "critical_path",
    "ensure_process_tracer",
    "flight_requested",
    "flight_samples",
    "flight_to_chrome",
    "format_flight",
    "format_summary",
    "format_tree",
    "get_logger",
    "get_metrics",
    "get_tracer",
    "heartbeat_interval",
    "latest_run_dir",
    "merge_event_files",
    "read_event_file",
    "reset_metrics",
    "reset_tracer",
    "resolve_run_dir",
    "setup_cli_logging",
    "setup_worker_logging",
    "sparkline",
    "stage_totals",
    "to_chrome",
    "tracing_requested",
    "worker_utilization",
    "wrap_control_hook",
    "write_merged_trace",
]

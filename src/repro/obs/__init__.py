"""repro.obs — zero-dependency observability: tracing and its consumers.

Two halves (see DESIGN.md §9):

* **Tracing** (:mod:`.tracer`, :mod:`.merge`, :mod:`.session`): nested
  spans and instant events on a monotonic clock, one JSONL file per
  process, merged onto a unified wall-anchored timeline.
* **Consumers** (:mod:`.render`, :mod:`.progress`): wall-clock trees,
  critical path, worker utilization, the metrics snapshot counted from
  the merged trace, Chrome/Perfetto export, and live sweep progress
  from heartbeat events.

Everything is off-by-default-cheap (a shared no-op tracer when
disabled) and strictly read-only with respect to results: observability
never enters cache keys, fingerprints, or artifacts.

Import from the submodules; the package root re-exports nothing.
"""

"""repro.obs — zero-dependency observability: tracing and its consumers.

Two halves (see DESIGN.md §9):

* **Tracing** (:mod:`.tracer`, :mod:`.merge`, :mod:`.session`): nested
  spans and instant events on a monotonic clock, one JSONL file per
  process, merged onto a unified wall-anchored timeline.  A pool
  worker's event file is its only channel to the parent besides the
  task's return value.
* **Consumers** (:mod:`.render`): wall-clock trees, critical path,
  worker utilization, the metrics snapshot counted from the merged
  trace, and Chrome/Perfetto export.

Live ``--progress`` is not an observability consumer: the sweep's
scheduler prints it from the parent as tasks settle
(:mod:`repro.flow.scheduler`).

Everything is off-by-default-cheap (a shared no-op tracer when
disabled) and strictly read-only with respect to results: observability
never enters cache keys, fingerprints, or artifacts.

Import from the submodules; the package root re-exports nothing.
"""

"""Trace consumers: span-tree reconstruction and rendering.

Works on the merged trace document produced by :mod:`repro.obs.merge`.
Span begin/end records are paired by ``(pid, sid)`` and nested by the
recorded ``parent`` id; spans whose end record never arrived (crashed
worker) are closed at the last timestamp seen for that process so the
tree still renders.

Consumers:

* :func:`format_tree` — indented per-span wall-clock tree.
* :func:`format_summary` — per-stage aggregates, the critical path,
  and worker utilization.
* :func:`trace_metrics` — the run's metrics snapshot: cache, scheduler
  and lease counts, stage seconds and worker utilization.
* :func:`to_chrome` — Chrome trace-event JSON (B/E/i phases, micro-
  second timestamps) loadable in Perfetto / ``chrome://tracing``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any

__all__ = [
    "SpanNode",
    "build_spans",
    "chrome_json",
    "critical_path",
    "flight_to_chrome",
    "format_flight",
    "format_summary",
    "format_tree",
    "sparkline",
    "stage_totals",
    "to_chrome",
    "trace_metrics",
    "worker_utilization",
]


@dataclass
class SpanNode:
    """One reconstructed span with resolved children."""

    name: str
    pid: int
    tid: int
    sid: int
    start: float
    end: float | None = None
    attrs: dict = field(default_factory=dict)
    children: list["SpanNode"] = field(default_factory=list)
    truncated: bool = False

    @property
    def duration(self) -> float:
        return (self.end if self.end is not None else self.start) - self.start


def build_spans(trace: dict) -> list[SpanNode]:
    """Reconstruct the span forest from a merged trace document."""
    events = trace.get("events", [])
    by_sid: dict[tuple, SpanNode] = {}
    roots: list[SpanNode] = []
    last_ts: dict[int, float] = {}
    for event in events:
        pid = event.get("pid", 0)
        uts = event.get("uts", 0.0)
        last_ts[pid] = max(last_ts.get(pid, uts), uts)
        kind = event.get("type")
        if kind == "B":
            node = SpanNode(
                name=event.get("name", "?"), pid=pid,
                tid=event.get("tid", 0), sid=event.get("sid", -1),
                start=uts, attrs=dict(event.get("attrs") or {}))
            by_sid[(pid, node.sid)] = node
            parent = by_sid.get((pid, event.get("parent")))
            if parent is not None:
                parent.children.append(node)
            else:
                roots.append(node)
        elif kind == "E":
            node = by_sid.get((pid, event.get("sid")))
            if node is not None:
                node.end = uts
                node.attrs.update(event.get("attrs") or {})
    for node in by_sid.values():
        if node.end is None:  # crashed before closing: clamp to last seen
            node.end = last_ts.get(node.pid, node.start)
            node.truncated = True
    roots.sort(key=lambda node: node.start)
    return roots


def _walk(nodes: list[SpanNode], depth: int = 0):
    for node in nodes:
        yield node, depth
        yield from _walk(node.children, depth + 1)


def _attr_brief(attrs: dict, limit: int = 3) -> str:
    shown = [f"{key}={value}" for key, value in list(attrs.items())[:limit]]
    return f" [{', '.join(shown)}]" if shown else ""


def format_tree(trace: dict, *, max_depth: int | None = None) -> str:
    """Indented wall-clock span tree of the whole run."""
    roots = build_spans(trace)
    if not roots:
        return "(empty trace)"
    lines = []
    for node, depth in _walk(roots):
        if max_depth is not None and depth > max_depth:
            continue
        marker = " !" if node.truncated else ""
        lines.append(
            f"{'  ' * depth}{node.name:<{max(1, 40 - 2 * depth)}} "
            f"{node.duration * 1000.0:>10.1f} ms  pid={node.pid}"
            f"{_attr_brief(node.attrs)}{marker}")
    return "\n".join(lines)


def stage_totals(trace: dict) -> dict[str, dict]:
    """Aggregate wall-clock by span name: count, total, max seconds."""
    totals: dict[str, dict] = {}
    for node, _depth in _walk(build_spans(trace)):
        entry = totals.setdefault(
            node.name, {"count": 0, "total_s": 0.0, "max_s": 0.0})
        entry["count"] += 1
        entry["total_s"] += node.duration
        entry["max_s"] = max(entry["max_s"], node.duration)
    return totals


def critical_path(trace: dict) -> list[SpanNode]:
    """Longest root span, descending into the longest child at each level."""
    roots = build_spans(trace)
    path: list[SpanNode] = []
    nodes = roots
    while nodes:
        longest = max(nodes, key=lambda node: node.duration)
        path.append(longest)
        nodes = longest.children
    return path


def worker_utilization(trace: dict) -> dict[int, float]:
    """Fraction of the run each process spent inside root spans.

    Root spans per pid are merged into disjoint busy intervals and
    divided by the overall run extent, so overlapping/nested spans are
    not double-counted.
    """
    events = trace.get("events", [])
    if not events:
        return {}
    run_start = min(event.get("uts", 0.0) for event in events)
    run_end = max(event.get("uts", 0.0) for event in events)
    extent = max(run_end - run_start, 1e-9)
    intervals: dict[int, list[tuple[float, float]]] = {}
    for node in build_spans(trace):
        end = node.end if node.end is not None else node.start
        intervals.setdefault(node.pid, []).append((node.start, end))
    utilization: dict[int, float] = {}
    for pid, spans in intervals.items():
        spans.sort()
        busy = 0.0
        cursor: float | None = None
        limit: float | None = None
        for start, end in spans:
            if cursor is None or start > limit:
                if cursor is not None:
                    busy += limit - cursor
                cursor, limit = start, end
            else:
                limit = max(limit, end)
        if cursor is not None:
            busy += limit - cursor
        utilization[pid] = busy / extent
    return utilization


#: instant event -> the snapshot counter that counts it
_COUNTED_EVENTS = {
    "task.done": "scheduler.completed",
    "task.retry": "scheduler.retries",
    "task.failed": "scheduler.failures",
    "task.timeout": "scheduler.timeouts",
    "pool.respawn": "scheduler.respawns",
    "lease.dedupe": "lease.dedupe",
    "lease.steal": "lease.steals",
    "batch.degraded": "sweep.batch_degraded",
}


def trace_metrics(trace: dict) -> dict[str, float]:
    """The run's metrics snapshot, counted from the merged trace.

    ``artifact.<kind>`` counts the artifact cache events (``hit``,
    ``miss`` and ``write`` are always present), the scheduler, lease and
    batch counters count the events in :data:`_COUNTED_EVENTS`,
    ``cache.hit_rate`` is hits over hit-or-miss lookups (1.0 with no
    lookups, like the run manifest), ``stage.<stage>.seconds`` sums the
    ``stage.*`` spans and ``worker.utilization.<pid>`` is
    :func:`worker_utilization`.  Every process writes its own event
    file and the merge folds them all in, so the counts cover the pool
    workers for any ``--jobs``.
    """
    snapshot: dict[str, float] = dict.fromkeys(
        ("artifact.hit", "artifact.miss", "artifact.write",
         *_COUNTED_EVENTS.values()), 0)
    for event in trace.get("events", []):
        if event.get("type") != "I":
            continue
        name = event.get("name", "")
        if name.startswith("artifact."):
            snapshot[name] = snapshot.get(name, 0) + 1
        elif name in _COUNTED_EVENTS:
            snapshot[_COUNTED_EVENTS[name]] += 1
    hits = snapshot["artifact.hit"]
    lookups = hits + snapshot["artifact.miss"]
    snapshot["cache.hit_rate"] = hits / lookups if lookups else 1.0
    for name, entry in stage_totals(trace).items():
        if name.startswith("stage."):
            snapshot[f"{name}.seconds"] = entry["total_s"]
    for pid, fraction in worker_utilization(trace).items():
        snapshot[f"worker.utilization.{pid}"] = fraction
    return dict(sorted(snapshot.items()))


def format_summary(trace: dict) -> str:
    """Per-stage table + critical path + worker utilization."""
    totals = stage_totals(trace)
    lines = ["span                                    count   total(s)     max(s)",
             "-" * 68]
    for name, entry in sorted(totals.items(),
                              key=lambda item: -item[1]["total_s"]):
        lines.append(f"{name:<38} {entry['count']:>6} "
                     f"{entry['total_s']:>10.3f} {entry['max_s']:>10.3f}")
    path = critical_path(trace)
    if path:
        lines.append("")
        lines.append("critical path:")
        for index, node in enumerate(path):
            lines.append(f"{'  ' * index}-> {node.name} "
                         f"({node.duration * 1000.0:.1f} ms, pid={node.pid})")
    utilization = worker_utilization(trace)
    if utilization:
        lines.append("")
        lines.append("worker utilization:")
        for pid, fraction in sorted(utilization.items()):
            lines.append(f"  pid {pid:<8} {fraction * 100.0:5.1f}%")
    skipped = trace.get("skipped_lines", 0)
    if skipped:
        lines.append("")
        lines.append(f"({skipped} unparseable trace line(s) skipped)")
    return "\n".join(lines)


def to_chrome(trace: dict) -> dict:
    """Chrome trace-event format (Perfetto-loadable) from a merged trace."""
    events = trace.get("events", [])
    if not events:
        return {"traceEvents": [], "displayTimeUnit": "ms"}
    origin = min(event.get("uts", 0.0) for event in events)
    chrome: list[dict[str, Any]] = []
    for event in events:
        kind = event.get("type")
        base = {
            "name": event.get("name", "?"),
            "pid": event.get("pid", 0),
            "tid": event.get("tid", event.get("pid", 0)),
            "ts": (event.get("uts", origin) - origin) * 1e6,
        }
        if kind in ("B", "E"):
            chrome.append({**base, "ph": kind,
                           "args": event.get("attrs") or {}})
        elif kind == "I" and base["name"] != "flight":
            # flight samples are exported by flight_to_chrome
            chrome.append({**base, "ph": "i", "s": "p",
                           "args": event.get("attrs") or {}})
    return {"traceEvents": chrome, "displayTimeUnit": "ms"}


def chrome_json(trace: dict) -> str:
    """Serialized :func:`to_chrome` output."""
    return json.dumps(to_chrome(trace), separators=(",", ":"), default=str)


# ----------------------------------------------------------------------
# flight-recorder timelines
# ----------------------------------------------------------------------

_SPARK_TICKS = "▁▂▃▄▅▆▇█"


def sparkline(values: list[float], width: int = 60) -> str:
    """Unicode sparkline of a numeric series, downsampled to *width*.

    A flat series renders at the lowest tick so structure, not absolute
    level, is what draws the eye; scaling is min..max per call.
    """
    values = [float(value) for value in values]
    if not values:
        return ""
    if len(values) > width:
        # bucket-mean downsample keeps spikes visible in long runs
        step = len(values) / width
        values = [
            sum(chunk) / len(chunk)
            for chunk in (values[int(index * step):
                                 max(int((index + 1) * step),
                                     int(index * step) + 1)]
                          for index in range(width))]
    low = min(values)
    span = max(values) - low
    if span <= 0:
        return _SPARK_TICKS[0] * len(values)
    top = len(_SPARK_TICKS) - 1
    return "".join(_SPARK_TICKS[min(top, int((value - low) / span * top))]
                   for value in values)


def _flight_series(flight: dict) -> dict[tuple, list[dict]]:
    """Measure-phase samples grouped by (workload, config, checkpoint)."""
    series: dict[tuple, list[dict]] = {}
    for sample in flight.get("samples", []):
        if sample.get("phase") != "measure":
            continue
        key = (str(sample.get("workload", "?")),
               str(sample.get("config", "?")),
               sample.get("checkpoint"))
        series.setdefault(key, []).append(sample)
    for samples in series.values():
        samples.sort(key=lambda s: (s.get("pid", 0), s.get("seq", 0)))
    return series


def _metric_rows(samples: list[dict]) -> list[tuple[str, list[float]]]:
    rows: list[tuple[str, list[float]]] = [
        ("ipc", [s.get("ipc", 0.0) for s in samples]),
        ("rob_occ", [s.get("occupancy", {}).get("rob", 0.0)
                     for s in samples]),
        ("fetch_stall", [s.get("rates", {}).get("fetch_stall_frac", 0.0)
                         for s in samples]),
        ("dcache_mpki", [s.get("rates", {}).get("dcache_mpki", 0.0)
                         for s in samples]),
        ("tile_mw", [s.get("power", {}).get("tile_mw", 0.0)
                     for s in samples]),
    ]
    return rows


def format_flight(flight: dict, *, width: int = 60) -> str:
    """Sparkline timelines per workload × config × checkpoint.

    One block per measured simulation window; each metric row shows the
    series shape plus its min/mean/max so a single glance separates
    "steady-state" from "phase-change inside the window".
    """
    series = _flight_series(flight)
    if not series:
        return "(no measure-phase flight samples)"
    blocks: list[str] = []
    for (workload, config, checkpoint), samples in sorted(
            series.items(), key=lambda item: (item[0][0], item[0][1],
                                              item[0][2] or 0)):
        cycles = sum(s.get("cycles", 0) for s in samples)
        lines = [f"{workload} × {config} · checkpoint {checkpoint} "
                 f"({len(samples)} samples, {cycles} cycles)"]
        for name, values in _metric_rows(samples):
            if not any(values):
                continue
            mean = sum(values) / len(values)
            lines.append(
                f"  {name:<12} {sparkline(values, width):<{width}} "
                f"min={min(values):.3f} mean={mean:.3f} "
                f"max={max(values):.3f}")
        blocks.append("\n".join(lines))
    skipped = flight.get("skipped_lines", 0)
    if skipped:
        blocks.append(f"({skipped} unparseable flight line(s) skipped)")
    return "\n\n".join(blocks)


def flight_to_chrome(flight: dict) -> dict:
    """Chrome counter tracks (``ph: "C"``) from a merged flight document.

    Each simulated window becomes a set of counter series on its own
    process row, timestamped by simulated cycle (shown as µs), so
    Perfetto plots IPC/occupancy/power against simulated time alongside
    the wall-clock span view of :func:`to_chrome`.
    """
    chrome: list[dict[str, Any]] = []
    for index, ((workload, config, checkpoint), samples) in enumerate(
            sorted(_flight_series(flight).items(),
                   key=lambda item: (item[0][0], item[0][1],
                                     item[0][2] or 0))):
        label = f"{workload}/{config}#{checkpoint}"
        chrome.append({"ph": "M", "name": "process_name", "pid": index,
                       "tid": 0, "args": {"name": label}})
        for sample in samples:
            base = {"pid": index, "tid": 0,
                    "ts": float(sample.get("cycle", 0))}
            chrome.append({**base, "ph": "C", "name": "ipc",
                           "args": {"ipc": sample.get("ipc", 0.0)}})
            occupancy = sample.get("occupancy")
            if occupancy:
                chrome.append({**base, "ph": "C", "name": "occupancy",
                               "args": dict(occupancy)})
            rates = sample.get("rates")
            if rates:
                chrome.append({**base, "ph": "C", "name": "rates",
                               "args": dict(rates)})
            power = sample.get("power")
            if power:
                chrome.append({**base, "ph": "C", "name": "tile_mw",
                               "args": {"mw": power.get("tile_mw", 0.0)}})
    return {"traceEvents": chrome, "displayTimeUnit": "ms"}

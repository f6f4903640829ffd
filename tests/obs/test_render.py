"""Tests for trace rendering: span trees, summaries, Chrome export."""

import json

from repro.obs.merge import merge_event_files
from repro.obs.render import (
    build_spans,
    chrome_json,
    critical_path,
    format_summary,
    format_tree,
    stage_totals,
    to_chrome,
    worker_utilization,
)
from repro.obs.tracer import Tracer


def _recorded_trace(tmp_path):
    """A real two-span trace recorded through the tracer + merger."""
    tracer = Tracer(tmp_path / "events-1.jsonl")
    with tracer.span("task", key="prepare:qsort"):
        with tracer.span("stage.bbv_profile", fingerprint="f00") as span:
            tracer.event("artifact.miss", stage="bbv_profile")
            span.set(instructions=10)
        tracer.event("flight", workload="qsort", seq=0)
    tracer.close()
    return merge_event_files([tmp_path / "events-1.jsonl"])


def test_build_spans_nesting(tmp_path):
    roots = build_spans(_recorded_trace(tmp_path))
    assert len(roots) == 1
    task = roots[0]
    assert task.name == "task"
    assert task.attrs["key"] == "prepare:qsort"
    assert [c.name for c in task.children] == ["stage.bbv_profile"]
    assert not task.truncated
    assert task.duration >= task.children[0].duration >= 0.0


def test_unclosed_span_is_clamped_and_flagged():
    trace = {"events": [
        {"type": "B", "name": "doomed", "ts": 0.0, "uts": 10.0,
         "pid": 5, "tid": 5, "sid": 1, "parent": None, "attrs": {}},
        {"type": "I", "name": "later", "ts": 0.0, "uts": 12.0,
         "pid": 5, "attrs": {}},
    ]}
    (node,) = build_spans(trace)
    assert node.truncated
    assert node.end == 12.0
    assert "!" in format_tree(trace)


def test_stage_totals_and_critical_path(tmp_path):
    trace = _recorded_trace(tmp_path)
    totals = stage_totals(trace)
    assert totals["task"]["count"] == 1
    assert totals["stage.bbv_profile"]["count"] == 1
    path = [node.name for node in critical_path(trace)]
    assert path == ["task", "stage.bbv_profile"]


def test_worker_utilization_no_double_count():
    # two overlapping root spans for one pid must merge, not sum
    events = []
    for sid, (start, end) in enumerate([(0.0, 6.0), (4.0, 8.0)], start=1):
        events.append({"type": "B", "name": "task", "ts": 0.0, "uts": start,
                       "pid": 9, "tid": 9, "sid": sid, "parent": None,
                       "attrs": {}})
        events.append({"type": "E", "name": "task", "ts": 0.0, "uts": end,
                       "pid": 9, "tid": 9, "sid": sid})
    events.sort(key=lambda e: e["uts"])
    events.append({"type": "I", "name": "fin", "ts": 0.0, "uts": 10.0,
                   "pid": 9, "attrs": {}})
    util = worker_utilization({"events": events})
    assert util[9] == (8.0 - 0.0) / 10.0


def test_format_summary_mentions_skipped_lines(tmp_path):
    trace = _recorded_trace(tmp_path)
    trace["skipped_lines"] = 2
    text = format_summary(trace)
    assert "critical path" in text
    assert "2 unparseable" in text


def test_chrome_export_valid_json_matched_pairs(tmp_path):
    trace = _recorded_trace(tmp_path)
    doc = json.loads(chrome_json(trace))
    events = doc["traceEvents"]
    assert doc["displayTimeUnit"] == "ms"
    begins = [e for e in events if e["ph"] == "B"]
    ends = [e for e in events if e["ph"] == "E"]
    assert len(begins) == len(ends) == 2
    # B/E pair up per (pid, tid) in stack order with non-negative ts
    assert all(e["ts"] >= 0 for e in events)
    # flight samples are left to flight_to_chrome
    instants = [e for e in events if e["ph"] == "i"]
    assert {e["name"] for e in instants} == {"artifact.miss"}


def test_chrome_export_carries_span_end_attributes(tmp_path):
    """Attributes set on a live span reach Perfetto on its end record."""
    events = to_chrome(_recorded_trace(tmp_path))["traceEvents"]
    (end,) = [e for e in events
              if e["ph"] == "E" and e["name"] == "stage.bbv_profile"]
    assert end["args"] == {"fingerprint": "f00", "instructions": 10}


def test_chrome_export_empty_trace():
    assert to_chrome({"events": []}) == \
        {"traceEvents": [], "displayTimeUnit": "ms"}
    assert format_tree({"events": []}) == "(empty trace)"


# ----------------------------------------------------------------------
# flight timeline rendering: sparklines and Chrome counter tracks
# ----------------------------------------------------------------------

def _flight_doc():
    def sample(seq, ipc, phase="measure"):
        return {"type": "flight", "pid": 7, "seq": seq, "workload": "sha",
                "config": "MediumBOOM", "checkpoint": 0, "phase": phase,
                "cycle": 4096 * (seq + 1), "cycles": 4096,
                "retired": int(ipc * 4096), "ipc": ipc, "final": False,
                "occupancy": {"rob": 10.0 + seq, "iq": 4.0, "ldq": 2.0,
                              "stq": 1.0, "fetch_buffer": 3.0},
                "rates": {"fetch_stall_frac": 0.1, "branch_mpki": 5.0,
                          "icache_mpki": 1.0, "dcache_mpki": 2.0 + seq},
                "power": {"tile_mw": 20.0 + seq,
                          "shares": {"rob": 0.5, "rest_of_tile": 0.5}}}

    samples = [sample(0, 0.8, phase="warmup"),
               sample(1, 1.0), sample(2, 1.5), sample(3, 0.5)]
    return {"schema": 1, "samples": samples, "skipped_lines": 1}


def test_sparkline_shapes():
    from repro.obs.render import sparkline

    assert sparkline([]) == ""
    flat = sparkline([3.0, 3.0, 3.0])
    assert len(flat) == 3 and len(set(flat)) == 1
    rising = sparkline([0.0, 1.0, 2.0, 3.0])
    assert rising == "".join(sorted(rising))
    assert len(sparkline(list(range(1000)), width=40)) == 40


def test_format_flight_blocks_and_stats():
    from repro.obs.render import format_flight

    out = format_flight(_flight_doc(), width=20)
    assert "sha × MediumBOOM · checkpoint 0 (3 samples" in out
    # warmup samples are excluded from the timeline
    assert "(3 samples, 12288 cycles)" in out
    assert "ipc" in out and "tile_mw" in out
    assert "min=0.500" in out and "max=1.500" in out
    assert "1 unparseable flight line(s) skipped" in out
    assert format_flight({"samples": []}) \
        == "(no measure-phase flight samples)"


def test_flight_to_chrome_counter_tracks():
    import json

    from repro.obs.render import flight_to_chrome

    doc = flight_to_chrome(_flight_doc())
    events = doc["traceEvents"]
    json.dumps(doc)
    meta = [e for e in events if e["ph"] == "M"]
    assert len(meta) == 1
    assert meta[0]["args"]["name"] == "sha/MediumBOOM#0"
    counters = [e for e in events if e["ph"] == "C"]
    # 3 measure samples × (ipc + occupancy + rates + tile_mw)
    assert len(counters) == 12
    ipc_track = [e for e in counters if e["name"] == "ipc"]
    assert [e["args"]["ipc"] for e in ipc_track] == [1.0, 1.5, 0.5]
    assert [e["ts"] for e in ipc_track] == [8192.0, 12288.0, 16384.0]
    assert flight_to_chrome({"samples": []})["traceEvents"] == []

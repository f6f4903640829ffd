"""Tests for the tracer: span nesting, event ordering, the null path."""

import json
import threading

import pytest

from repro.obs.tracer import (
    NULL_TRACER,
    NullTracer,
    Tracer,
    configure_tracer,
    get_tracer,
    reset_tracer,
    tracing_requested,
)


@pytest.fixture(autouse=True)
def _clean_global_tracer():
    reset_tracer()
    yield
    reset_tracer()


def _sink_tracer():
    sink = []
    return Tracer(sink=sink), sink


def test_span_nesting_parents():
    tracer, sink = _sink_tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
        with tracer.span("sibling"):
            pass
    begins = {r["name"]: r for r in sink if r["type"] == "B"}
    assert begins["outer"]["parent"] is None
    assert begins["inner"]["parent"] == begins["outer"]["sid"]
    assert begins["sibling"]["parent"] == begins["outer"]["sid"]


def test_span_event_ordering():
    tracer, sink = _sink_tracer()
    with tracer.span("a"):
        tracer.event("mark", key="v")
    types = [r["type"] for r in sink]
    assert types == ["meta", "B", "I", "E"]
    timestamps = [r["ts"] for r in sink if "ts" in r]
    assert timestamps == sorted(timestamps)


def test_span_attrs_recorded_at_begin_and_late_set():
    tracer, sink = _sink_tracer()
    with tracer.span("stage", fingerprint="abc") as span:
        span.set(outcome="ok")
    begin = next(r for r in sink if r["type"] == "B")
    end = next(r for r in sink if r["type"] == "E")
    assert begin["attrs"]["fingerprint"] == "abc"
    assert end["attrs"]["outcome"] == "ok"


def test_mis_nested_exit_recovers():
    tracer, sink = _sink_tracer()
    outer = tracer.span("outer").__enter__()
    inner = tracer.span("inner").__enter__()
    outer.__exit__(None, None, None)  # wrong order: leak inner
    with tracer.span("next"):
        pass
    begins = {r["name"]: r for r in sink if r["type"] == "B"}
    # the stack recovered: "next" is a root, not a child of the leak
    assert begins["next"]["parent"] is None
    assert inner.sid != outer.sid


def test_per_thread_span_stacks():
    tracer, sink = _sink_tracer()
    ready = threading.Barrier(2)

    def work(name):
        ready.wait()
        with tracer.span(name):
            pass

    threads = [threading.Thread(target=work, args=(f"t{i}",))
               for i in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    begins = [r for r in sink if r["type"] == "B"]
    assert all(r["parent"] is None for r in begins)


def test_file_tracer_writes_jsonl(tmp_path):
    path = tmp_path / "events.jsonl"
    tracer = Tracer(path)
    with tracer.span("s"):
        tracer.event("e", value=1)
    tracer.close()
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    assert lines[0]["type"] == "meta"
    assert [r["type"] for r in lines[1:]] == ["B", "I", "E"]


def test_null_tracer_is_reentrant_noop():
    span = NULL_TRACER.span("x", a=1)
    with span:
        with span:
            span.set(b=2)
    NULL_TRACER.event("e")
    assert NULL_TRACER.enabled is False


def test_get_tracer_defaults_to_null():
    assert isinstance(get_tracer(), NullTracer)


def test_configure_and_reset_global(tmp_path):
    tracer = configure_tracer(tmp_path / "events.jsonl")
    assert get_tracer() is tracer
    assert get_tracer().enabled
    reset_tracer()
    assert isinstance(get_tracer(), NullTracer)


def test_tracing_requested_env_values():
    assert tracing_requested({"REPRO_TRACE": "1"})
    assert tracing_requested({"REPRO_TRACE": "true"})
    assert not tracing_requested({"REPRO_TRACE": "0"})
    assert not tracing_requested({})

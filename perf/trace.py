"""Layer spans recorded around the simulator's public entry points.

:class:`LayerTracer` replaces each layer's entry point with a wrapper
that records a span (layer, name, start, end, parent span, request id),
keeps the spans in memory, and puts every original back on
:meth:`LayerTracer.close`.  Nothing inside ``src/`` knows it is traced.

A layer's *self time* is the duration of its spans minus the part their
child spans cover, so the self times of all layers add up to the time
spent inside the outermost spans.
"""

from __future__ import annotations

import functools
import importlib
import json
from pathlib import Path
from time import perf_counter

#: layer -> entry points wrapped for it, as (module, attribute path).
#: ``simulate_checkpoint`` is wrapped where each caller looks it up: the
#: serial stage-4 loop in ``stages`` and the batched engine in ``batch``.
LAYERS: dict[str, tuple[tuple[str, str], ...]] = {
    "workloads": (("repro.pipeline.stages", "build_program"),),
    "sim": (("repro.sim.executor", "Executor.run"),),
    "profiling": (("repro.pipeline.stages", "compute_profile"),),
    "simpoint": (("repro.pipeline.stages", "compute_selection"),),
    "checkpoint": (("repro.pipeline.stages", "compute_checkpoints"),),
    "uarch": (("repro.pipeline.stages", "simulate_checkpoint"),
              ("repro.sim.batch", "simulate_checkpoint")),
    "power": (("repro.pipeline.stages", "power_runs_from_raw"),),
    "pipeline": (("repro.pipeline.artifacts", "ArtifactStore.fetch_json"),
                 ("repro.pipeline.artifacts", "ArtifactStore.fetch_dir"),
                 ("repro.pipeline.artifacts", "ArtifactStore.peek_json")),
    "flow": (("repro.flow.sweep", "SweepRunner.run_all"),),
    "analysis": (("repro.flow.report", "generate_report"),
                 ("repro.flow.dse", "run_dse")),
}


def _uarch_counts(record: dict) -> dict[str, int]:
    return {"sim_instr": record["warmup_instructions"]
            + record["measured_instructions"],
            "sim_cycles": record["stats"]["cycles"]}


#: layer -> work counted from each call's return value
COUNTERS = {
    "sim": lambda retired: {"instr": retired},
    "profiling": lambda profile: {"instr": profile.total_instructions},
    "simpoint": lambda selection: {"k_total": selection.chosen_k},
    "checkpoint": lambda checkpoints: {"count": len(checkpoints)},
    "uarch": _uarch_counts,
}


def resolve(module: str, path: str) -> tuple[object, str]:
    """The object holding ``path``'s last attribute, and that name."""
    owner = importlib.import_module(module)
    *parents, name = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    return owner, name


class LayerTracer:
    """Context manager that traces every entry point in :data:`LAYERS`."""

    def __init__(self, request_id: str) -> None:
        self.request_id = request_id
        #: finished spans: (id, parent id, layer, name, start, end)
        self.spans: list[tuple[int, int | None, str, str, float, float]] = []
        self.totals = {layer: {"self_s": 0.0, "calls": 0} for layer in LAYERS}
        self._stack: list[list] = []   # open spans: [id, child seconds]
        self._next_id = 0
        self._saved: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # install / restore
    # ------------------------------------------------------------------

    def __enter__(self) -> "LayerTracer":
        try:
            for layer, entries in LAYERS.items():
                for module, path in entries:
                    owner, name = resolve(module, path)
                    # the raw attribute, so a class attribute is restored
                    # exactly as it was defined
                    original = vars(owner)[name]
                    self._saved.append((owner, name, original))
                    setattr(owner, name,
                            self._wrap(layer, path, getattr(owner, name)))
        except BaseException:
            self.close()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        """Put every wrapped attribute back (idempotent)."""
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    def _wrap(self, layer: str, name: str, function):
        totals = self.totals[layer]
        count = COUNTERS.get(layer)
        stack = self._stack

        @functools.wraps(function)
        def span(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else None
            frame = [span_id, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = function(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                totals["self_s"] += duration - frame[1]
                totals["calls"] += 1
                self.spans.append((span_id, parent, layer, name, start, end))
            if count is not None:
                for key, value in count(result).items():
                    totals[key] = totals.get(key, 0) + value
            return result

        return span

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------

    def layer_metrics(self, wall_s: float) -> dict[str, float]:
        """``<layer>.self_s|share|calls`` plus each layer's work counts
        and the rates derived from them."""
        metrics: dict[str, float] = {}
        for layer, totals in self.totals.items():
            self_s = totals["self_s"]
            metrics[f"{layer}.self_s"] = self_s
            metrics[f"{layer}.share"] = self_s / wall_s if wall_s else 0.0
            metrics[f"{layer}.calls"] = totals["calls"]
        sim, uarch = self.totals["sim"], self.totals["uarch"]
        metrics["sim.minstr_per_s"] = (sim.get("instr", 0) / sim["self_s"]
                                       / 1e6 if sim["self_s"] else 0.0)
        metrics["profiling.instr"] = self.totals["profiling"].get("instr", 0)
        metrics["simpoint.k_total"] = self.totals["simpoint"].get("k_total", 0)
        metrics["checkpoint.count"] = self.totals["checkpoint"].get("count", 0)
        metrics["uarch.sim_instr"] = uarch.get("sim_instr", 0)
        metrics["uarch.sim_cycles"] = uarch.get("sim_cycles", 0)
        metrics["uarch.kips"] = (uarch.get("sim_instr", 0) / uarch["self_s"]
                                 / 1e3 if uarch["self_s"] else 0.0)
        return metrics

    def root_seconds(self) -> float:
        """Total duration of the outermost spans (= sum of self times)."""
        return sum(end - start for _, parent, _, _, start, end in self.spans
                   if parent is None)

    def write(self, path: Path, **other) -> None:
        """Write the spans as a Chrome trace-event file.

        Open it in Perfetto or ``chrome://tracing``; each span is one
        complete ("X") event whose category is its layer.
        """
        origin = min((start for *_, start, _ in self.spans), default=0.0)
        events = [{
            "name": name, "cat": layer, "ph": "X", "pid": 1, "tid": 1,
            "ts": (start - origin) * 1e6, "dur": (end - start) * 1e6,
            "args": {"id": span_id, "parent": parent,
                     "request_id": self.request_id},
        } for span_id, parent, layer, name, start, end in self.spans]
        events.sort(key=lambda event: event["ts"])
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({
            "traceEvents": events, "displayTimeUnit": "ms",
            "otherData": {"request_id": self.request_id, **other},
        }, indent=1))

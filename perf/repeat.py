"""One timed repeat of a benchmark workload, in a fresh process.

``perf/run.py`` starts ``python -m perf.repeat '<spec json>'`` once per
repeat, so every repeat pays the interpreter start-up, the imports and a
cold in-process state.  The repeat prints one JSON object: its timings,
the sha256 of every output, and (when traced) the per-layer metrics.

Only public entry points are timed: ``SweepRunner.run_all``,
``run_dse`` and ``generate_report``.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import re
import resource
import sys
import time
from pathlib import Path

#: flow seed of every ``dse_cold`` repeat: the DSE's input is the seeded
#: set of design points, so its simulated work does not swing with the
#: SimPoint count of a different flow seed
DSE_FLOW_SEED = 17

_CACHE_SECTION = re.compile(r"\n## Pipeline cache\n.*", re.S)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def canonical(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"),
                      allow_nan=False)


def result_digests(results) -> dict[str, str]:
    """``workload/config`` -> sha256 of the result's canonical JSON."""
    return {f"{workload}/{config}": digest(result.to_json())
            for (workload, config), result in sorted(results.items())}


def frontier_digest(outcome) -> str:
    """The DSE frontier document without its two timing fields."""
    document = outcome.document()
    for field in ("points_per_s", "wall_seconds"):
        document["settings"].pop(field, None)
    return digest(canonical(document))


def report_digest(text: str) -> str:
    """The report without its ``## Pipeline cache`` section, which counts
    cache hits that a legitimate caching change would alter."""
    return digest(_CACHE_SECTION.sub("", text))


# ----------------------------------------------------------------------
# workloads: each returns (timed, warm); ``timed()`` is the timed region
# and returns (runner, results, documents); ``warm()`` reruns the same
# work on the now-filled cache and returns its results.  Documents are
# not compared cold-vs-warm: a result decoded from the cache sums its
# components in sorted-key order, so derived floats such as the DSE
# points' ``tile_mw`` can differ from the cold run in the last bit.
# ----------------------------------------------------------------------

def sweep_cold(spec: dict):
    from repro.flow.experiment import FlowSettings
    from repro.flow.sweep import SweepRunner

    settings = FlowSettings(scale=spec["scale"], seed=spec["input"])

    def timed():
        runner = SweepRunner(settings, cache_dir=spec["cache_dir"])
        results = runner.run_all(workloads=spec["workloads"], jobs=1)
        return runner, results, {}

    return timed, lambda: timed()[1]


def dse_cold(spec: dict):
    from repro.flow import dse
    from repro.flow.experiment import FlowSettings
    from repro.uarch.space import SpaceSpec

    space = SpaceSpec(base="MediumBOOM", mode="random",
                      count=spec["dse_points"], seed=spec["input"],
                      include_presets=False)
    settings = FlowSettings(scale=spec["scale"], seed=DSE_FLOW_SEED)

    def timed():
        runners = []
        outcome = dse.run_dse(space, settings, cache_dir=spec["cache_dir"],
                              workloads=spec["workloads"],
                              runner_hook=runners.append)
        return runners[0], outcome.results, \
            {"frontier": frontier_digest(outcome)}

    return timed, lambda: timed()[1]


def report_warm(spec: dict):
    from repro.flow import report
    from repro.flow.experiment import FlowSettings
    from repro.flow.sweep import SweepRunner

    settings = FlowSettings(scale=spec["scale"], seed=spec["input"])

    def timed():
        runner = SweepRunner(settings, cache_dir=spec["cache_dir"])
        text = report.generate_report(runner)
        # no results: main reads the ones the report rendered from the
        # runner's memoized store, after the timed region
        return runner, None, {"report": report_digest(text)}

    # its cold reference is the sweep that filled the cache
    return timed, None


WORKLOADS = {"sweep_cold": sweep_cold, "dse_cold": dse_cold,
             "report_warm": report_warm}


def main(spec: dict) -> dict:
    timed, warm = WORKLOADS[spec["workload"]](spec)
    tracer = sampler = None
    with contextlib.ExitStack() as probes:
        if spec["trace"]:
            from perf.sampler import CoreSampler
            from perf.trace import LayerTracer

            tracer = probes.enter_context(LayerTracer(spec["request_id"]))
            sampler = probes.enter_context(CoreSampler())
        setup_s = time.monotonic() - spec["spawn_t"]
        started = time.perf_counter()
        runner, results, documents = timed()
        wall_s = time.perf_counter() - started
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    manifest = runner.last_manifest
    if results is None:
        results = runner.run_all(jobs=1)
    out = {
        "wall_s": wall_s, "setup_s": setup_s, "peak_rss_mb": peak_rss_mb,
        "pairs": result_digests(results), "documents": documents,
        "attempted": manifest.experiments,
        "failed": manifest.experiments - len(results),
        "detailed_instr": sum(result.detailed_instructions
                              for result in results.values()),
        "warm_mismatch": [],
    }
    if tracer is not None:
        layers = tracer.layer_metrics(wall_s)
        layers.update(sampler.metrics())
        layers["pipeline.hit_ratio"] = manifest.hit_rate
        layers["pipeline.computed"] = manifest.total_executions
        out["layers"] = layers
        out["traced_s"] = tracer.root_seconds()
        tracer.write(Path(spec["trace_path"]), workload=spec["workload"],
                     input=spec["input"], wall_s=wall_s, layers=layers)
    if spec["check_warm"] and warm is not None:
        warm_digests = result_digests(warm())
        out["warm_mismatch"] = sorted(
            key for key in out["pairs"].keys() | warm_digests.keys()
            if out["pairs"].get(key) != warm_digests.get(key))
    return out


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))

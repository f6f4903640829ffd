"""End-to-end benchmark of the paper's flow: cold sweep, DSE, warm report.

Usage::

    python3 perf/run.py                                  # all workloads, seed 17
    python3 perf/run.py --workload sweep_cold --seed 29 --seconds 28 --trace 0
    python3 perf/run.py --quick                          # scale 0.05 smoke run
    python3 perf/run.py --seed 29 --update-expected      # rewrite digests

Each timed repeat runs in its own fresh child process (``perf/repeat.py``),
one after another, single-threaded, ``jobs=1``.  The runner prints every
metric with its unit, checks every output against the committed sha256
digests in ``perf/expected/``, writes one JSON record per workload, and
ends its output with one JSON line::

    {"correct": true, "attempted": 132, "failed": 0, "metrics": {...}}

whose metrics are ``BENCHMARK.json``'s ``end_to_end`` set with
``--trace 0`` and its ``per_layer`` set with ``--trace 1``.  Exit code 0
means every output matched, 1 a failed or mismatched output, 2 a
checkout without the program's sources.  See ``perf/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perf" / "out"

WORKLOADS = ("sweep_cold", "dse_cold", "report_warm")
DEFAULT_SEED = 17

#: host seconds of one repeat, child start-up included, on the 2-CPU
#: reference host; ``--seconds`` becomes a fixed repeat count through
#: these, so the inputs a run measures depend only on its arguments
NOMINAL_S = {"sweep_cold": 7.5, "dse_cold": 6.5, "report_warm": 2.0}

#: ``sweep_cold`` repeat i studies flow seed ``seed + i * SEED_STRIDE``:
#: one seed's SimPoint count moves the sweep's simulated work by +-10%,
#: so a run measures several seeds rather than one
SEED_STRIDE = 1000

#: operating points: ``full`` is the paper's 1:1000 scale; ``quick``
#: (scale 0.05, reduced workload lists) is the tests' smoke mode
MODES = {
    "full": {"scale": 1.0, "dse_points": 16,
             "workloads": {"sweep_cold": None,
                           "dse_cold": ["sha", "dijkstra", "qsort"],
                           "report_warm": None}},
    "quick": {"scale": 0.05, "dse_points": 4,
              "workloads": {"sweep_cold": ["sha", "dijkstra", "qsort"],
                            "dse_cold": ["sha", "qsort"],
                            "report_warm": None}},
}

#: end-to-end metrics reported beside BENCHMARK.json's, which every
#: workload must report and none may read 0: ``sim_kips`` is undefined on
#: report_warm (it simulates nothing) and ``failed_frac`` is 0 on a
#: healthy run
EXTRA_E2E = {
    "sim_kips": {"unit": "kinstr/s", "better": "higher", "bound": 0.24},
    "failed_frac": {"unit": "fraction", "better": "lower", "bound": 0.0},
}

CHILD_TIMEOUT_S = 120


class BenchmarkError(RuntimeError):
    """A repeat could not run; the benchmark has no result."""


def load_benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)``."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def summarize(values: list[float], spec: dict) -> dict:
    """Median, quartiles and count of ``values``, with ``spec``'s unit,
    direction and bound."""
    q1, median, q3 = quartiles(values)
    return {"value": median, "q1": q1, "q3": q3, "n": len(values),
            **{key: spec[key] for key in ("unit", "better", "bound")}}


def repeat_count(workload: str, args) -> int:
    if args.quick:
        return 1
    if args.repeats is not None:
        return args.repeats
    if args.seconds is not None:
        return max(1, round(args.seconds / NOMINAL_S[workload]))
    return 3


def repeat_inputs(workload: str, seed: int, repeats: int) -> list[int]:
    if workload == "sweep_cold":
        return [seed + SEED_STRIDE * index for index in range(repeats)]
    return [seed] * repeats


# ----------------------------------------------------------------------
# child processes
# ----------------------------------------------------------------------

def child_env() -> dict[str, str]:
    """The parent's environment minus every ``REPRO_*`` switch (tracing,
    fault injection, checks), with numeric libraries single-threaded and
    a fixed hash seed, so repeats differ only by the host's noise."""
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    env.update(PYTHONHASHSEED="0", OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


def run_child(spec: dict) -> dict:
    spec = dict(spec, spawn_t=time.monotonic())
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "perf.repeat", json.dumps(spec)],
            cwd=ROOT, env=child_env(), capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchmarkError(f"{spec['workload']} repeat (input "
                             f"{spec['input']}) exceeded "
                             f"{CHILD_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        raise BenchmarkError(f"{spec['workload']} repeat (input "
                             f"{spec['input']}) exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


# ----------------------------------------------------------------------
# output checks
# ----------------------------------------------------------------------

def load_expected(path: Path, scale: float) -> dict[str, dict] | None:
    """input -> {output key: sha256}, or None when nothing is pinned
    for this seed at this scale."""
    if not path.exists():
        return None
    data = json.loads(path.read_text())
    if data.get("scale") != scale:
        return None
    return data["inputs"]


class Checker:
    """Compares every repeat's output digests with a reference.

    The reference for an input is its committed expected digests when
    there are any; otherwise the first digests seen for it, which the
    first repeat's warm rerun (or, for report_warm, the cold sweep that
    filled its cache) has already cross-checked.
    """

    def __init__(self, expected: dict[str, dict] | None) -> None:
        self.expected = expected
        self.seen: dict[str, dict] = {}
        self.attempted = 0
        self.failed = 0
        self.mismatched: list[str] = []
        self.verified_inputs: set[str] = set()
        self.unverified_inputs: set[str] = set()

    def check(self, repeat: dict, input_seed: int) -> None:
        key = str(input_seed)
        digests = {**repeat["pairs"], **repeat["documents"]}
        seen = self.seen.setdefault(key, {})
        pinned = self.expected.get(key) if self.expected else None
        if pinned is not None:
            self.verified_inputs.add(key)
            bad = {name for name, value in digests.items()
                   if pinned.get(name) != value}
        else:
            self.unverified_inputs.add(key)
            bad = {name for name, value in digests.items()
                   if seen.get(name, value) != value}
        for name, value in digests.items():
            seen.setdefault(name, value)
        bad |= set(repeat["warm_mismatch"])
        self.mismatched.extend(f"{key}:{name}" for name in sorted(bad))
        self.attempted += repeat["attempted"] + len(repeat["documents"])
        self.failed += repeat["failed"] + len(bad)

    @property
    def status(self) -> str:
        if self.unverified_inputs and not self.verified_inputs:
            return "digests unchecked"
        if self.unverified_inputs:
            return (f"digests verified for {len(self.verified_inputs)} of "
                    f"{len(self.verified_inputs | self.unverified_inputs)}"
                    f" inputs")
        return "digests verified"


# ----------------------------------------------------------------------
# one workload
# ----------------------------------------------------------------------

def run_workload(workload: str, args, bench: dict, work: Path) -> dict:
    mode = MODES["quick" if args.quick else "full"]
    seed = args.seed
    repeats = repeat_count(workload, args)
    inputs = repeat_inputs(workload, seed, repeats)
    path = args.expected_dir / f"{workload}-seed{seed}.json"
    checker = Checker(None if args.update_expected
                      else load_expected(path, mode["scale"]))
    base = {"workload": workload, "scale": mode["scale"],
            "workloads": mode["workloads"][workload],
            "dse_points": mode["dse_points"], "trace": False,
            "check_warm": False}
    tag = f"{workload}-seed{seed}"

    fill_cache = None
    if workload == "report_warm":
        # untimed: the report reads the cache of one cold preset sweep
        fill_cache = work / f"{tag}-filled"
        fill = run_child(dict(base, workload="sweep_cold", input=seed,
                              workloads=None, cache_dir=str(fill_cache)))
        checker.check(fill, seed)

    runs = []
    for index, input_seed in enumerate(inputs):
        cache = fill_cache or work / f"{tag}-r{index}"
        repeat = run_child(dict(
            base, input=input_seed, cache_dir=str(cache),
            check_warm=fill_cache is None and input_seed not in inputs[:index]))
        checker.check(repeat, input_seed)
        runs.append(dict(input=input_seed, **{
            key: repeat[key] for key in ("wall_s", "setup_s", "peak_rss_mb",
                                         "detailed_instr")}))
        if fill_cache is None:
            shutil.rmtree(cache, ignore_errors=True)

    layers, traced_info = {}, {}
    if args.trace:
        cache = fill_cache or work / f"{tag}-traced"
        traced = run_child(dict(
            base, input=inputs[0], cache_dir=str(cache), trace=True,
            request_id=f"{tag}-traced",
            trace_path=str(OUT / f"trace-{workload}.json")))
        checker.check(traced, inputs[0])
        layers = traced["layers"]
        untraced = [run["wall_s"] for run in runs
                    if run["input"] == inputs[0]]
        layers["trace_overhead_frac"] = \
            traced["wall_s"] / statistics.median(untraced) - 1
        traced_info = {"wall_s": traced["wall_s"],
                       "spans_s": traced["traced_s"]}
    shutil.rmtree(fill_cache or work / f"{tag}-traced", ignore_errors=True)

    if args.update_expected and not checker.failed:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(
            {"workload": workload, "seed": seed, "scale": mode["scale"],
             "inputs": checker.seen}, indent=1, sort_keys=True) + "\n")

    samples = {name: [run[name] for run in runs]
               for name in ("wall_s", "setup_s", "peak_rss_mb")}
    if workload != "report_warm":
        samples["sim_kips"] = [run["detailed_instr"] / run["wall_s"] / 1e3
                               for run in runs]
    samples["failed_frac"] = [checker.failed / checker.attempted]
    declared = {**{spec["name"]: spec for spec in bench["end_to_end"]},
                **EXTRA_E2E}
    e2e = {name: summarize(values, declared[name])
           for name, values in samples.items()}
    return {
        "format": 1, "workload": workload, "seed": seed,
        "scale": mode["scale"], "repeats": repeats, "inputs": inputs,
        "trace": int(args.trace), "host": host_info(),
        "correct": checker.failed == 0, "correctness": checker.status,
        "attempted": checker.attempted, "failed": checker.failed,
        "mismatched": checker.mismatched[:20],
        "e2e": e2e, "per_layer": layers, "traced": traced_info,
        "runs": runs,
    }


def host_info() -> dict:
    return {"python": platform.python_version(),
            "machine": platform.machine(), "cpus": os.cpu_count(),
            "processor": platform.processor()}


# ----------------------------------------------------------------------
# reporting
# ----------------------------------------------------------------------

def print_record(record: dict, bench: dict) -> None:
    workload = record["workload"]
    print(f"== {workload}  seed {record['seed']}  scale "
          f"{record['scale']:g}  {record['repeats']} untraced repeat(s), "
          f"inputs {record['inputs']}")
    print(f"  {'metric':<14}{'unit':<10}{'median':>11}{'q1':>11}"
          f"{'q3':>11}{'n':>4}  better  bound")
    for name, metric in record["e2e"].items():
        print(f"  {name:<14}{metric['unit']:<10}{metric['value']:>11.4f}"
              f"{metric['q1']:>11.4f}{metric['q3']:>11.4f}{metric['n']:>4}"
              f"  {metric['better']:<7} {metric['bound']:.0%}")
    n = record["repeats"]
    # the highest percentile with at least ten samples beyond it
    tail = int(100 * (1 - 10 / n))
    if tail <= 50:
        print(f"  tail percentile: none (n={n}; one above the median "
              f"needs ten samples beyond it, n > 20)")
    else:
        walls = [run["wall_s"] for run in record["runs"]]
        print(f"  tail: wall_s p{tail} = "
              f"{statistics.quantiles(walls, n=100)[tail - 1]:.4f} s")
    print(f"  correctness: {record['correctness']}; failed_frac "
          f"{record['failed']}/{record['attempted']}")
    for item in record["mismatched"]:
        print(f"  MISMATCH {item}")
    layers, traced = record["per_layer"], record["traced"]
    if not layers:
        return
    print(f"  per-layer, one traced repeat: wall {traced['wall_s']:.3f} s, "
          f"spans cover {traced['spans_s'] / traced['wall_s']:.1%}, trace "
          f"overhead {layers['trace_overhead_frac']:+.1%}; spans in "
          f"perf/out/trace-{workload}.json")
    print(f"  {'layer':<11}{'self_s':>9}{'share':>8}{'calls':>8}  work")
    names = [spec["name"] for spec in bench["per_layer"]]
    for name in names:
        if not name.endswith(".self_s"):
            continue
        layer = name[:-len(".self_s")]
        work = "  ".join(
            f"{other[len(layer) + 1:]}={layers[other]:.4g}"
            for other in names if other.startswith(layer + ".")
            and other[len(layer) + 1:] not in ("self_s", "share", "calls")
            and not other.startswith("uarch.core."))
        print(f"  {layer:<11}{layers[name]:>9.3f}"
              f"{layers[layer + '.share']:>8.1%}"
              f"{layers[layer + '.calls']:>8.0f}  {work}")
    shares = "  ".join(f"{stage} {layers[f'uarch.core.{stage}_share']:.1%}"
                       for stage in ("commit", "complete", "issue",
                                     "dispatch", "fetch", "other"))
    print(f"  uarch core stages, {layers['uarch.core.samples']:.0f} "
          f"samples: {shares}")


def result_line(records: list[dict], bench: dict, trace: bool) -> dict:
    """The closing summary line: one JSON object."""
    names = bench["per_layer" if trace else "end_to_end"]
    metrics = {}
    for record in records:
        prefix = "" if len(records) == 1 else record["workload"] + "."
        source = record["per_layer"] if trace else record["e2e"]
        for spec in names:
            value = source[spec["name"]]
            value = value["value"] if isinstance(value, dict) else value
            metrics[prefix + spec["name"]] = {"value": value,
                                              "unit": spec["unit"]}
    return {"correct": all(record["correct"] for record in records),
            "attempted": sum(record["attempted"] for record in records),
            "failed": sum(record["failed"] for record in records),
            "metrics": metrics}


def parse_args(argv: list[str] | None = None):
    parser = argparse.ArgumentParser(
        description="End-to-end benchmark of the SimPoint flow.")
    parser.add_argument("--workload", choices=WORKLOADS, action="append",
                        help="workload to run (repeatable; default all)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring budget, turned into a fixed "
                             "repeat count per workload")
    parser.add_argument("--repeats", type=int, default=None,
                        help="untraced repeats per workload (default 3)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=1,
                        help="1: add one traced repeat and report the "
                             "per-layer metrics")
    parser.add_argument("--quick", action="store_true",
                        help="scale 0.05, one repeat, fewer workloads")
    parser.add_argument("--update-expected", action="store_true",
                        help="write this run's digests as the expected "
                             "ones")
    parser.add_argument("--expected-dir", type=Path,
                        default=ROOT / "perf" / "expected")
    parser.add_argument("--out", type=Path, default=OUT / "records",
                        help="directory for the JSON run records")
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perf/run.py: no program sources under {ROOT / 'src'}; "
              f"run from a full checkout", file=sys.stderr)
        return 2
    # a terminated runner must still kill and reap its running child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    bench = load_benchmark()
    work = OUT / "work" / str(os.getpid())
    records = []
    try:
        for workload in args.workload or WORKLOADS:
            record = run_workload(workload, args, bench, work)
            records.append(record)
            print_record(record, bench)
            args.out.mkdir(parents=True, exist_ok=True)
            (args.out / f"{workload}-seed{args.seed}-trace{args.trace}"
                        f".json").write_text(json.dumps(record, indent=1))
    except BenchmarkError as exc:
        print(f"perf/run.py: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    summary = result_line(records, bench, bool(args.trace))
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

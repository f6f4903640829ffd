"""Compare a parent's benchmark runs with a change's, metric by metric.

Usage::

    python3 perf/compare.py PARENT CHANGE

``PARENT`` and ``CHANGE`` are record directories (or record files)
written by ``perf/run.py --out``.  Records with the same workload, seed
and trace setting on both sides are one pair; the value compared is each
run's median.  One row per workload x end-to-end metric gives both
sides' medians and quartiles, the share of pairs the change won, and a
verdict:

* ``improved``: over at least 10 pairs, the change wins at least 9 in
  10 (ties count for neither side) and the medians differ by more than
  the parent's interquartile range;
* ``unresolved``: the parent's own spread (IQR / median) is wider than
  the metric's bound, so the runs cannot tell, unless every change run
  beats every parent run;
* ``regressed``: the change's median is worse than the parent's by more
  than the bound (for ``failed_frac``, any increase);

Bounds are the benchmark's current ones: ``BENCHMARK.json`` and, for
``sim_kips`` and ``failed_frac``, ``perf/run.py``.
* ``unchanged``: everything else.

Exits 1 when any row regressed.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if not __package__:
    # run as a script: import siblings as the ``perf`` package, or this
    # file's directory would lead sys.path and perf/trace.py would
    # shadow the standard library's ``trace``
    sys.path[0] = str(ROOT)

from perf.run import EXTRA_E2E, load_benchmark, quartiles  # noqa: E402

WIN_SHARE = 0.9
MIN_PAIRS = 10


def load(path: Path) -> dict[tuple[str, int, int], dict]:
    """(workload, seed, trace) -> record, for every record under path."""
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    records = {}
    for file in files:
        record = json.loads(file.read_text())
        records[(record["workload"], record["seed"], record["trace"])] = \
            record
    return records


def verdict(parent: list[float], change: list[float], better: str,
            bound: float) -> tuple[str, float]:
    """(verdict, share of pairs the change won) for paired run values."""
    worse = 1.0 if better == "lower" else -1.0   # sign of a worsening
    wins = sum((c - p) * worse < 0 for p, c in zip(parent, change))
    share = wins / len(parent)
    q1, parent_median, q3 = quartiles(parent)
    change_median = quartiles(change)[1]
    worse_by = (change_median - parent_median) * worse
    if len(parent) >= MIN_PAIRS and share >= WIN_SHARE \
            and -worse_by > q3 - q1:
        return "improved", share
    spread = (q3 - q1) / abs(parent_median) if parent_median else 0.0
    if spread > bound:
        beats_all = all((c - p) * worse < 0 for c in change for p in parent)
        return ("unchanged" if beats_all else "unresolved"), share
    if worse_by > bound * abs(parent_median):
        return "regressed", share
    return "unchanged", share


def compare(parent: dict, change: dict) -> list[dict]:
    # the benchmark's current bounds, not the ones a record was made with
    declared = {**{spec["name"]: spec
                   for spec in load_benchmark()["end_to_end"]}, **EXTRA_E2E}
    rows = []
    workloads = sorted({key[0] for key in parent.keys() & change.keys()})
    for workload in workloads:
        keys = sorted(key for key in parent.keys() & change.keys()
                      if key[0] == workload)
        for name in parent[keys[0]]["e2e"]:
            spec = declared[name]
            pairs = [(parent[key]["e2e"][name]["value"],
                      change[key]["e2e"][name]["value"]) for key in keys
                     if name in change[key]["e2e"]]
            if not pairs:
                continue
            before, after = [list(side) for side in zip(*pairs)]
            result, share = verdict(before, after, spec["better"],
                                    spec["bound"])
            rows.append({"workload": workload, "metric": name,
                         "unit": spec["unit"], "bound": spec["bound"],
                         "parent": quartiles(before),
                         "change": quartiles(after), "n": len(pairs),
                         "won": share, "verdict": result})
    return rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    rows = compare(load(args.parent), load(args.change))
    if not rows:
        print("no (workload, seed, trace) record appears on both sides",
              file=sys.stderr)
        return 2
    print(f"{'workload':<12}{'metric':<13}{'unit':<10}"
          f"{'parent median [q1, q3]':>33}{'change median [q1, q3]':>33}"
          f"{'delta':>8}{'won':>6}{'n':>4}  verdict")
    for row in rows:
        (p1, pm, p3), (c1, cm, c3) = row["parent"], row["change"]
        delta = f"{cm / pm - 1:+.1%}" if pm else "-"
        print(f"{row['workload']:<12}{row['metric']:<13}{row['unit']:<10}"
              f"{pm:>10.4f} [{p1:>9.4f}, {p3:>9.4f}]"
              f"{cm:>10.4f} [{c1:>9.4f}, {c3:>9.4f}]"
              f"{delta:>8}{row['won']:>6.0%}{row['n']:>4}  "
              f"{row['verdict']}")
    return 1 if any(row["verdict"] == "regressed" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())

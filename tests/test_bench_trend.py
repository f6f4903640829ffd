"""`repro-bench`: the per-metric trajectory across snapshots, and the
regression gate."""

from __future__ import annotations

import json

from repro.bench import (
    format_trend,
    load_snapshots,
    main,
    regression_failures,
)


def _snapshot(path, date, *, ops, cycles):
    path.write_text(json.dumps({
        "date": date,
        "metrics": {
            "calibration.ops_per_s": ops,
            "core.batched.cycles_per_s": cycles,
            "bench.wall_s": 1.0,  # ungated: excluded from the default set
        },
    }) + "\n")


def test_load_snapshots_oldest_first(tmp_path):
    _snapshot(tmp_path / "BENCH_2026-02-02.json", "2026-02-02",
              ops=1e6, cycles=2e5)
    _snapshot(tmp_path / "BENCH_2026-01-01.json", "2026-01-01",
              ops=1e6, cycles=1e5)
    (tmp_path / "BENCH_broken.json").write_text("{not json")
    names = [name for name, _ in load_snapshots(tmp_path)]
    # oldest first; the unreadable snapshot is skipped with a warning
    assert names == ["BENCH_2026-01-01.json", "BENCH_2026-02-02.json"]


def test_format_trend_normalizes_against_calibration(tmp_path):
    # the machine got 2x faster (calibration doubles) while the metric
    # only doubled too — normalized, that PR is flat (1.00)
    _snapshot(tmp_path / "BENCH_2026-01-01.json", "2026-01-01",
              ops=1e6, cycles=1e5)
    _snapshot(tmp_path / "BENCH_2026-02-02.json", "2026-02-02",
              ops=2e6, cycles=2e5)
    _snapshot(tmp_path / "BENCH_2026-03-03.json", "2026-03-03",
              ops=2e6, cycles=6e5)
    out = format_trend(load_snapshots(tmp_path))
    row = next(line for line in out.splitlines()
               if line.startswith("core.batched.cycles_per_s"))
    assert "1.00" in row and "3.00" in row
    assert "600,000" in row  # latest raw value closes the row
    assert "2026-02-02" in out and "2026-03-03" in out
    assert "bench.wall_s" not in out  # ungated metrics stay out


def test_format_trend_explicit_metric_and_too_few(tmp_path):
    _snapshot(tmp_path / "BENCH_2026-01-01.json", "2026-01-01",
              ops=1e6, cycles=1e5)
    assert "at least two" in format_trend(load_snapshots(tmp_path))
    _snapshot(tmp_path / "BENCH_2026-02-02.json", "2026-02-02",
              ops=1e6, cycles=3e5)
    out = format_trend(load_snapshots(tmp_path),
                       metrics=["bench.wall_s"])
    assert "bench.wall_s" in out
    assert "core.batched.cycles_per_s" not in out


def test_main_trend_mode_runs_no_benchmarks(tmp_path, capsys):
    _snapshot(tmp_path / "BENCH_2026-01-01.json", "2026-01-01",
              ops=1e6, cycles=1e5)
    _snapshot(tmp_path / "BENCH_2026-02-02.json", "2026-02-02",
              ops=1e6, cycles=1e5)
    code = main(["--trend", "--trend-dir", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "core.batched.cycles_per_s" in out
    # trend mode must not write a fresh BENCH snapshot anywhere
    assert len(list(tmp_path.glob("BENCH_*.json"))) == 2


def _metrics(metrics: dict, *, ops: float = 1e6) -> dict:
    return {"metrics": {"calibration.ops_per_s": ops, **metrics}}


BASELINE = _metrics({"core.cycles_per_s": 1000.0,
                     "dse.points_per_s": 10.0})


def test_gate_fails_a_drop_past_the_threshold():
    current = _metrics({"core.cycles_per_s": 600.0,
                        "dse.points_per_s": 10.0})
    failures = regression_failures(current, BASELINE, threshold=0.30)
    assert len(failures) == 1
    assert failures[0].startswith("core.cycles_per_s:")


def test_gate_passes_a_drop_within_the_threshold():
    current = _metrics({"core.cycles_per_s": 750.0,
                        "dse.points_per_s": 9.0})
    assert regression_failures(current, BASELINE, threshold=0.30) == []


def test_gate_normalizes_by_calibration():
    # half the raw rate on a machine half as fast is no regression
    current = _metrics({"core.cycles_per_s": 500.0,
                        "dse.points_per_s": 5.0}, ops=5e5)
    assert regression_failures(current, BASELINE) == []


def test_gate_ignores_ungated_prefixes():
    baseline = _metrics({"functional.reference.instr_per_s": 1000.0,
                         "functional.speedup_over_reference": 8.0})
    current = _metrics({"functional.reference.instr_per_s": 10.0,
                        "functional.speedup_over_reference": 1.0,
                        "stage.bbv_profile_s": 1.0})
    assert regression_failures(current, baseline) == []


def test_gate_fails_a_metric_on_one_side_only():
    current = _metrics({"core.cycles_per_s": 1000.0,
                        "profiled.instr_per_s": 5.0})
    assert regression_failures(current, BASELINE) == [
        "profiled.instr_per_s: missing from the baseline",
        "dse.points_per_s: missing from the current snapshot",
    ]

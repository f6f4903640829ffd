"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main
from repro.pipeline.artifacts import ArtifactStore


def run_cli(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


@pytest.fixture(scope="module")
def full_report(tmp_path_factory):
    """A scale-0.05 cache and the full report rendered into it."""
    cache = tmp_path_factory.mktemp("report_cache")
    path = cache / "report.md"
    assert main(["--scale", "0.05", "--cache-dir", str(cache),
                 "report", "-o", str(path)]) == 0
    return cache, path.read_text()


def run_section(capsys, full_report, name, *flags):
    """``report --section name`` on the report's cache; its output (less
    print's newline) must be a verbatim slice of the full report."""
    cache, full = full_report
    code, out = run_cli(capsys, "--scale", "0.05", "--cache-dir",
                        str(cache), *flags, "report", "--section", name)
    text = out.removesuffix("\n")
    assert text.startswith("## ")
    assert text in full
    return code, text


def test_table1(capsys, full_report):
    code, out = run_section(capsys, full_report, "table1")
    assert code == 0
    assert "MegaBOOM" in out
    assert "Decode width" in out


def test_table2_small_scale(capsys, full_report):
    code, out = run_section(capsys, full_report, "table2")
    assert code == 0
    assert "sha" in out
    assert "tarfind" in out


def test_run_experiment(capsys, tmp_path):
    code, out = run_cli(capsys, "--scale", "0.08",
                        "--cache-dir", str(tmp_path),
                        "run", "qsort", "MediumBOOM")
    assert code == 0
    assert "IPC:" in out
    assert "Tile power:" in out


def test_fig10(capsys, full_report):
    code, out = run_section(capsys, full_report, "fig10")
    assert code == 0
    assert "Fig. 10" in out
    assert "sha" in out


def test_fig9(capsys, full_report):
    code, out = run_section(capsys, full_report, "fig9")
    assert code == 0
    assert "MediumBOOM" in out


def test_speedup(capsys, full_report):
    code, out = run_section(capsys, full_report, "speedup")
    assert code == 0
    assert "TOTAL" in out


def test_section_table1_executes_no_stage(capsys, tmp_path, monkeypatch):
    from repro.flow.sweep import SweepRunner
    from repro.pipeline import stages

    def forbidden(*args, **kwargs):
        raise AssertionError("report --section table1 ran a stage")

    monkeypatch.setattr(SweepRunner, "run_all", forbidden)
    monkeypatch.setattr(stages, "compute_profile", forbidden)
    code, out = run_cli(capsys, "--scale", "0.05", "--cache-dir",
                        str(tmp_path), "report", "--section", "table1")
    assert code == 0
    assert out.startswith("## Table I")
    assert ArtifactStore(tmp_path).artifact_counts() == {}


def test_section_takeaways_exits_one_on_a_failed_takeaway(
        capsys, full_report, monkeypatch):
    from repro.analysis.takeaways import TakeawayCheck
    from repro.flow import report

    monkeypatch.setattr(report, "check_all", lambda results, gshare: [
        TakeawayCheck(1, "holds", True, "fine"),
        TakeawayCheck(2, "does not hold", False, "broken")])
    cache = str(full_report[0])
    code, full = run_cli(capsys, "--scale", "0.05", "--cache-dir", cache,
                         "report")
    assert code == 0
    assert "[FAIL] #2" in full
    code, out = run_cli(capsys, "--scale", "0.05", "--cache-dir", cache,
                        "report", "--section", "takeaways")
    assert code == 1
    assert out in full


def test_report_passes_jobs_and_trace_to_the_sweep(capsys, tmp_path,
                                                   monkeypatch):
    from repro.flow.sweep import SweepRunner

    calls = []

    def record(self, *args, **kwargs):
        calls.append(kwargs)
        return {}

    monkeypatch.setattr(SweepRunner, "run_all", record)
    code = main(["--jobs", "2", "--trace", "--cache-dir", str(tmp_path),
                 "report", "--section", "takeaways", "--gshare"])
    capsys.readouterr()
    assert code == 1  # no results: every takeaway fails
    assert [(call["jobs"], call["trace"]) for call in calls] == \
        [(2, True), (2, True)]


def test_trace_report_section_records_a_run(capsys, tmp_path):
    from repro.obs.session import resolve_run_dir

    code = main(["--scale", "0.05", "--cache-dir", str(tmp_path),
                 "--trace", "report", "--section", "fig10"])
    capsys.readouterr()
    assert code == 0
    run_dir = resolve_run_dir(tmp_path, None)
    assert run_dir is not None
    assert (run_dir / "trace.json").exists()


def test_removed_subcommands_are_usage_errors():
    for argv in (["table1"], ["table2"], ["fig", "10"], ["takeaways"],
                 ["speedup"]):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2


def test_sweep_summary(capsys, tmp_path):
    code, out = run_cli(capsys, "--scale", "0.05",
                        "--cache-dir", str(tmp_path), "sweep")
    assert code == 0
    assert "perf-per-watt" in out


def test_sweep_verbose_prints_manifest(capsys, tmp_path):
    code, out = run_cli(capsys, "--scale", "0.05",
                        "--cache-dir", str(tmp_path), "sweep", "--verbose")
    assert code == 0
    assert "perf-per-watt" in out
    assert "bbv_profile" in out
    assert "cache hit rate" in out


def test_cache_stats_and_clear(capsys, tmp_path):
    code, out = run_cli(capsys, "--cache-dir", str(tmp_path),
                        "cache", "stats")
    assert code == 0
    assert "empty" in out

    run_cli(capsys, "--scale", "0.05", "--cache-dir", str(tmp_path),
            "run", "qsort", "MediumBOOM")
    code, out = run_cli(capsys, "--cache-dir", str(tmp_path),
                        "cache", "stats")
    assert code == 0
    assert "experiment_result" in out

    code, out = run_cli(capsys, "--cache-dir", str(tmp_path),
                        "cache", "clear")
    assert code == 0
    assert "removed" in out
    assert not (tmp_path / "experiment_result").exists()


def test_cache_stats_reads_manifest_with_retired_field(capsys, tmp_path):
    """A manifest written before ``legacy_hits`` was retired still loads."""
    ArtifactStore(tmp_path).put_json("experiment_result", "fp1", {"x": 1})
    stage = {"corrupt": 0, "executions": 1, "hits": 2, "legacy_hits": 0,
             "misses": 1, "seconds": 0.25}
    (tmp_path / "run_manifest.json").write_text(json.dumps({
        "experiments": 1, "failures": [], "hit_rate": 0.4, "jobs": 1,
        "metrics": {}, "retries": {},
        "stages": {"bbv_profile": stage, "experiment_result": stage},
        "tasks": [], "timeouts": [], "trace": "", "wall_seconds": 0.06}))
    code, out = run_cli(capsys, "--cache-dir", str(tmp_path),
                        "cache", "stats")
    assert code == 0
    assert "last sweep:" in out
    assert "bbv_profile" in out
    assert "legacy" not in out


def test_cache_invalidate_cascades_downstream(capsys, tmp_path):
    run_cli(capsys, "--scale", "0.05", "--cache-dir", str(tmp_path),
            "run", "qsort", "MediumBOOM")
    code, out = run_cli(capsys, "--cache-dir", str(tmp_path),
                        "cache", "invalidate", "--stage", "detailed_sim")
    assert code == 0
    assert not (tmp_path / "detailed_sim").exists()
    assert not (tmp_path / "experiment_result").exists()
    assert (tmp_path / "bbv_profile").exists()


def test_cache_invalidate_rejects_unknown_stage(capsys, tmp_path):
    code = main(["--cache-dir", str(tmp_path),
                 "cache", "invalidate", "--stage", "nonsense"])
    assert code == 2
    code = main(["--cache-dir", str(tmp_path), "cache", "invalidate"])
    assert code == 2


def test_checkpoints_command(capsys, tmp_path):
    target = tmp_path / "store"
    code, out = run_cli(capsys, "--scale", "0.05", "checkpoints", "qsort",
                        str(target))
    assert code == 0
    assert "checkpoints" in out
    assert (target / "manifest.json").exists()


def test_pipeline_command(capsys):
    code, out = run_cli(capsys, "--scale", "0.05", "pipeline", "sha",
                        "MegaBOOM", "--uops", "8", "--skip", "500")
    assert code == 0
    assert "cycles" in out
    assert "avg_queue_wait" in out


def test_unknown_workload_rejected():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["run", "doom", "MegaBOOM"])


def test_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_sweep_degraded_exit_code_and_fault_table(capsys, tmp_path):
    code = main(["--scale", "0.05", "--cache-dir", str(tmp_path),
                 "sweep", "--faults", "stage.power_report:fail:n=1"])
    captured = capsys.readouterr()
    assert code == 3
    assert "failures" in captured.out          # fault table printed
    assert "sweep degraded:" in captured.err
    assert "1 failed" in captured.err


def test_sweep_resume_carries_failure_and_reports(capsys, tmp_path):
    code = main(["--scale", "0.05", "--cache-dir", str(tmp_path),
                 "sweep", "--faults", "stage.power_report:fail:n=1"])
    capsys.readouterr()
    assert code == 3

    code = main(["--scale", "0.05", "--cache-dir", str(tmp_path),
                 "sweep", "--resume"])
    captured = capsys.readouterr()
    assert code == 3  # the carried permanent failure still degrades
    assert "resumed:" in captured.out
    assert "carried from interrupted run" in captured.out

    # a plain re-run (no --resume) re-attempts the failed experiment and,
    # with injection gone, completes clean
    code = main(["--scale", "0.05", "--cache-dir", str(tmp_path), "sweep"])
    captured = capsys.readouterr()
    assert code == 0
    assert "perf-per-watt" in captured.out


def test_dse_generate_sweep_and_report(capsys, tmp_path):
    import json

    space_file = tmp_path / "space.json"
    code, out = run_cli(capsys, "dse", "generate", "--points", "6",
                        "--base", "MediumBOOM",
                        "--space", str(space_file))
    assert code == 0
    document = json.loads(space_file.read_text())
    assert len(document["points"]) >= 6

    frontier_file = tmp_path / "frontier.json"
    code, out = run_cli(capsys, "--scale", "0.05",
                        "--cache-dir", str(tmp_path / "cache"),
                        "dse", "sweep", "--space", str(space_file),
                        "--workloads", "sha",
                        "-o", str(frontier_file))
    assert code == 0
    assert "Pareto frontier" in out
    assert "points/s" in out
    frontier = json.loads(frontier_file.read_text())
    assert frontier["frontier"]
    assert not frontier["skipped"]

    # report reuses the warm cache and prints the sensitivity table
    code, out = run_cli(capsys, "--scale", "0.05",
                        "--cache-dir", str(tmp_path / "cache"),
                        "dse", "report", "--space", str(space_file),
                        "--workloads", "sha")
    assert code == 0
    assert "Sensitivity around MediumBOOM" in out


def test_dse_missing_space_document_errors(capsys, tmp_path):
    code = main(["--cache-dir", str(tmp_path), "dse", "sweep",
                 "--space", str(tmp_path / "absent.json")])
    captured = capsys.readouterr()
    assert code == 2
    assert "not found" in captured.err


def test_sweep_retries_transient_faults(capsys, tmp_path):
    code = main(["--scale", "0.05", "--cache-dir", str(tmp_path),
                 "--jobs", "2", "sweep", "--retries", "2",
                 "--faults", "worker.experiment:io:n=1", "--verbose"])
    captured = capsys.readouterr()
    assert code == 0  # transient fault retried to success
    assert "retries" in captured.out


def test_sweep_progress_lines_leave_stdout_unchanged(capsys, tmp_path):
    """``--progress`` writes one stderr line per settled task, a failed
    one included, records no trace, and changes nothing on stdout."""
    faults = "worker.experiment:fail:n=0:k=sha/MegaBOOM"
    outputs = []
    for name, flags in (("plain", ()), ("progress", ("--progress",))):
        cache = tmp_path / name
        code = main(["--scale", "0.05", "--cache-dir", str(cache), "sweep",
                     "--workloads", "qsort", "sha", "--faults", faults,
                     *flags])
        captured = capsys.readouterr()
        assert code == 3
        assert not (cache / "obs").exists()
        outputs.append(captured.out)
    lines = [line for line in captured.err.splitlines()
             if line.startswith("progress: ")]
    # two workloads' shared stages, one batch each, six experiments
    assert [line.split()[1] for line in lines] == \
        ["prepare"] * 2 + ["batch"] * 2 + ["experiment"] * 6
    assert lines[-1].split()[2] == "6/6"
    assert sum("sha/MegaBOOM failed (permanent)" in line
               for line in lines) == 1
    assert outputs[0] == outputs[1]


def test_main_leaves_the_environment_as_it_found_it(capsys, monkeypatch):
    """``--check`` and ``--flight`` are exported for the handler's pool
    workers only while it runs."""
    import os

    import repro.cli

    monkeypatch.setenv("REPRO_CHECK", "0")
    monkeypatch.delenv("REPRO_FLIGHT", raising=False)
    before = dict(os.environ)
    during = {}

    def handler(_args):
        during.update(check=os.environ.get("REPRO_CHECK"),
                      flight=os.environ.get("REPRO_FLIGHT"))
        return 0

    monkeypatch.setattr(repro.cli, "_cmd_workloads", handler)
    assert main(["--flight", "--check", "workloads"]) == 0
    assert during == {"check": "1", "flight": "1"}
    assert dict(os.environ) == before


def test_recover_on_clean_cache(capsys, tmp_path):
    code, out = run_cli(capsys, "--cache-dir", str(tmp_path), "recover")
    assert code == 0
    assert "clean" in out


def test_recover_repairs_and_verifies(capsys, tmp_path):
    import json
    import multiprocessing

    from repro.pipeline.locking import boot_id

    proc = multiprocessing.Process(target=lambda: None)
    proc.start()
    proc.join()
    artifact = tmp_path / "power_report" / "torn.json"
    artifact.parent.mkdir(parents=True)
    artifact.write_text("{half a write")
    journal_dir = tmp_path / "journal"
    journal_dir.mkdir()
    (journal_dir / f"intents-{boot_id()[:8]}-{proc.pid}.jsonl").write_text(
        json.dumps({"op": "claim", "stage": "power_report",
                    "fingerprint": "torn",
                    "path": str(artifact)}) + "\n")

    code, out = run_cli(capsys, "--cache-dir", str(tmp_path),
                        "recover", "--verify")
    assert code == 0
    assert "quarantined 1" in out
    assert "OK" in out
    assert not artifact.exists()


def test_recover_check_only_audits_without_repair(capsys, tmp_path):
    obs = tmp_path / "obs"
    obs.mkdir()
    (obs / "latest").write_text("gone\n")
    code, out = run_cli(capsys, "--cache-dir", str(tmp_path),
                        "recover", "--check")
    assert code == 1  # problems found
    assert "PROBLEM" in out
    assert (obs / "latest").exists()  # audit-only: nothing repaired


# ----------------------------------------------------------------------
# observability: flight recording, accuracy envelopes, exports
# ----------------------------------------------------------------------

def test_flight_sweep_records_and_renders(capsys, tmp_path):
    code = main(["--scale", "0.05", "--cache-dir", str(tmp_path),
                 "--flight", "sweep"])
    capsys.readouterr()
    assert code == 0
    assert (tmp_path / "obs").is_dir()

    code, out = run_cli(capsys, "--cache-dir", str(tmp_path), "flight")
    assert code == 0
    assert "checkpoint" in out
    assert "ipc" in out

    chrome = tmp_path / "flight_chrome.json"
    code, out = run_cli(capsys, "--cache-dir", str(tmp_path),
                        "flight", "-f", "chrome", "-o", str(chrome))
    assert code == 0
    import json as _json
    doc = _json.loads(chrome.read_text())
    assert any(event["ph"] == "C" for event in doc["traceEvents"])


def test_flight_without_run_errors(capsys, tmp_path):
    code = main(["--cache-dir", str(tmp_path), "flight"])
    captured = capsys.readouterr()
    assert code == 2
    assert "no obs run" in captured.err


def test_trace_metrics_prints_the_snapshot(capsys, tmp_path):
    from repro.obs.render import trace_metrics
    from repro.obs.session import resolve_run_dir

    code = main(["--scale", "0.05", "--cache-dir", str(tmp_path),
                 "--trace", "sweep"])
    capsys.readouterr()
    assert code == 0
    run_dir = resolve_run_dir(tmp_path, None)
    assert not (run_dir / "metrics.json").exists()
    snapshot = trace_metrics(json.loads((run_dir / "trace.json").read_text()))
    assert "stage.detailed_sim.seconds" in snapshot
    assert "cache.hit_rate" in snapshot

    code, out = run_cli(capsys, "--cache-dir", str(tmp_path),
                        "trace", "-f", "summary", "--metrics")
    assert code == 0
    assert json.dumps(snapshot, indent=2) in out
    assert '"stage.detailed_sim.seconds"' in out


def test_accuracy_update_then_evaluate(capsys, tmp_path):
    envelopes = tmp_path / "envelopes"
    code, out = run_cli(capsys, "--scale", "0.05",
                        "--cache-dir", str(tmp_path / "cache"),
                        "accuracy", "--update",
                        "--envelopes", str(envelopes),
                        "--workloads", "sha")
    assert code == 0
    assert (envelopes / "sha.json").exists()
    assert "review the diff" in out

    # the deterministic model re-evaluates to zero error against the
    # envelopes it just wrote — even from a cold cache
    code, out = run_cli(capsys, "--scale", "0.05",
                        "--cache-dir", str(tmp_path / "cache2"),
                        "accuracy", "--envelopes", str(envelopes))
    assert code == 0
    assert "verdict: PASS" in out
    assert "MAPE: ipc 0.000%" in out


def test_accuracy_without_envelopes_errors(capsys, tmp_path):
    code = main(["--cache-dir", str(tmp_path),
                 "accuracy", "--envelopes", str(tmp_path / "none")])
    captured = capsys.readouterr()
    assert code == 2
    assert "no accuracy envelopes" in captured.err


def test_bench_trend_via_cli(capsys, tmp_path):
    import json as _json

    for date, cycles in (("2026-01-01", 1e5), ("2026-02-02", 2e5)):
        (tmp_path / f"BENCH_{date}.json").write_text(_json.dumps({
            "date": date,
            "metrics": {"calibration.ops_per_s": 1e6,
                        "core.batched.cycles_per_s": cycles}}))
    code, out = run_cli(capsys, "bench", "--trend",
                        "--trend-dir", str(tmp_path))
    assert code == 0
    assert "core.batched.cycles_per_s" in out
    assert "2.00" in out


# ----------------------------------------------------------------------
# top-level failure handler: taxonomy-coded one-liners, distinct codes
# ----------------------------------------------------------------------

def test_unexpected_error_is_one_line_not_a_traceback(capsys, tmp_path):
    code = main(["--cache-dir", str(tmp_path),
                 "run", "sha", "NoSuchBOOM"])
    captured = capsys.readouterr()
    from repro.errors import EXIT_PERMANENT
    assert code == EXIT_PERMANENT
    assert "repro-cli: error[permanent/" in captured.err
    assert "Traceback" not in captured.err
    assert "--verbose" in captured.err  # points at the escape hatch


def test_verbose_restores_the_traceback(capsys, tmp_path):
    code = main(["--verbose", "--cache-dir", str(tmp_path),
                 "run", "sha", "NoSuchBOOM"])
    captured = capsys.readouterr()
    from repro.errors import EXIT_PERMANENT
    assert code == EXIT_PERMANENT
    assert "Traceback" in captured.err


def test_transient_failure_gets_its_own_exit_code(capsys):
    from repro.cli import _report_failure
    from repro.errors import EXIT_TRANSIENT, TransientError

    code = _report_failure(TransientError("flaky io"), verbose=False,
                           resumable=False)
    captured = capsys.readouterr()
    assert code == EXIT_TRANSIENT
    assert "error[transient/TransientError]: flaky io" in captured.err


def test_interrupt_report_names_signal_and_resume(capsys):
    from repro.cli import _report_failure
    from repro.errors import EXIT_INTERRUPTED, SweepInterrupted

    code = _report_failure(SweepInterrupted("SIGTERM"), verbose=False,
                           resumable=True)
    captured = capsys.readouterr()
    assert code == EXIT_INTERRUPTED
    assert "interrupted by SIGTERM" in captured.err
    assert "--resume" in captured.err


@pytest.mark.parametrize("argv, resumable", [
    (["sweep"], True),
    (["dse", "sweep"], True),
    (["--no-cache", "sweep"], False),
    (["run", "sha", "MediumBOOM"], False),
    (["--no-cache", "run", "sha", "MediumBOOM"], False),
], ids=["sweep", "dse", "no-cache-sweep", "run", "no-cache-run"])
def test_interrupt_names_resume_only_when_state_was_kept(
        capsys, monkeypatch, tmp_path, argv, resumable):
    """Only a sweep or dse with a cache directory can be resumed."""
    from repro import cli
    from repro.errors import EXIT_INTERRUPTED, SweepInterrupted

    def interrupted(_args):
        raise SweepInterrupted("SIGINT")

    for handler in ("_cmd_sweep", "_cmd_dse", "_cmd_run"):
        monkeypatch.setattr(cli, handler, interrupted)
    code = main(["--cache-dir", str(tmp_path), *argv])
    err = capsys.readouterr().err
    assert code == EXIT_INTERRUPTED == 4
    assert "interrupted by SIGINT" in err
    assert ("state settled — resume with --resume" in err) == resumable
    assert ("nothing was kept to resume from" in err) != resumable


def test_keyboard_interrupt_maps_to_interrupted(capsys):
    from repro.cli import _report_failure
    from repro.errors import EXIT_INTERRUPTED

    assert _report_failure(KeyboardInterrupt(), verbose=False,
                           resumable=False) == EXIT_INTERRUPTED
    capsys.readouterr()


def test_usage_errors_still_exit_two():
    with pytest.raises(SystemExit) as excinfo:
        main(["sweep", "--no-such-flag"])
    assert excinfo.value.code == 2


def test_sweep_rejects_unknown_workload(capsys, tmp_path):
    code = main(["--cache-dir", str(tmp_path),
                 "sweep", "--workloads", "sha", "nonesuch"])
    captured = capsys.readouterr()
    assert code == 2
    assert "unknown workload(s): nonesuch" in captured.err


def test_cpi_skip_past_the_program_is_a_usage_error(capsys):
    import re

    code = main(["--scale", "0.05", "cpi", "qsort", "MediumBOOM",
                 "--skip", "2000", "--window", "3000"])
    captured = capsys.readouterr()
    assert code == 2
    assert "--skip 2000 consumed the whole program" in captured.err
    length = int(re.search(r"retires (\d+) instructions",
                           captured.err).group(1))
    assert 0 < length <= 2000
    # A skip inside the program still measures its window.
    code, out = run_cli(capsys, "--scale", "0.05", "cpi", "qsort",
                        "MediumBOOM", "--skip", str(length // 3),
                        "--window", str(length // 3))
    assert code == 0
    assert "dominant bottleneck:" in out


@pytest.mark.parametrize("argv, message", [
    (["cpi", "sha", "--window", "0"], "must be at least"),
    (["cpi", "sha", "--skip", "-5"], "must be at least"),
    (["pipeline", "sha", "--uops", "-3"], "must be at least"),
    (["pipeline", "sha", "--uops", "0"], "must be at least"),
    (["pipeline", "sha", "--skip", "-1"], "must be at least"),
    (["--jobs", "0", "sweep"], "must be at least"),
    (["--jobs", "-3", "sweep"], "must be at least"),
    (["sweep", "--retries", "-1"], "must be at least"),
    (["dse", "sweep", "--retries", "-2"], "must be at least"),
    (["sweep", "--faults", "stage.bbv_profile:fail:k="],
     "argument --faults: fault spec"),
    (["sweep", "--faults", "worker.experiment:boom"],
     "argument --faults: unknown fault kind 'boom'"),
    (["dse", "sweep", "--faults", "worker.experiment"],
     "argument --faults: fault spec"),
    (["--scale", "-1", "run", "qsort", "MediumBOOM"],
     "argument --scale: must be a finite number greater than 0"),
    (["--scale", "0", "run", "qsort", "MediumBOOM"],
     "argument --scale: must be a finite number greater than 0"),
    (["--scale", "nan", "sweep"],
     "argument --scale: must be a finite number greater than 0"),
    (["dse", "generate", "--points", "0"], "must be at least 1"),
    (["dse", "generate", "--radius", "-1"], "must be at least 1"),
    (["dse", "generate", "--max-changed", "0"], "must be at least 1"),
], ids=["cpi-window-0", "cpi-skip-negative", "pipeline-uops-negative",
        "pipeline-uops-0", "pipeline-skip-negative", "jobs-0",
        "jobs-negative", "sweep-retries-negative", "dse-retries-negative",
        "sweep-faults-empty-option", "sweep-faults-unknown-kind",
        "dse-faults-no-kind", "scale-negative", "scale-0", "scale-nan",
        "dse-points-0", "dse-radius-negative", "dse-max-changed-0"])
def test_window_flags_reject_out_of_range_values(capsys, argv, message):
    from repro.errors import EXIT_USAGE

    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == EXIT_USAGE
    assert message in capsys.readouterr().err


def test_pipeline_skip_past_the_program_is_a_usage_error(capsys):
    from repro.errors import EXIT_USAGE

    code = main(["--scale", "0.05", "pipeline", "qsort", "MediumBOOM",
                 "--skip", "100000"])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert "--skip 100000 consumed the whole program" in captured.err
    assert "no retired uops" not in captured.out

"""Interrupted-sweep lifecycle: signal handling and clean settlement.

The headline regression test kills a real ``repro-cli sweep`` child
mid-run and asserts the contract the bugfix introduced: distinct exit
code, ``sweep_state.json`` marked ``interrupted`` (never left at
``running``), no held leases and no open journal intents — i.e.
nothing for ``repro-cli recover`` to do.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.errors import (
    EXIT_INTERRUPTED,
    SweepInterrupted,
    exit_code_for,
)
from repro.flow.interrupt import InterruptGuard
from repro.pipeline.journal import (
    IntentJournal,
    journal_files,
    open_intents,
    read_journal,
)
from repro.pipeline.locking import (
    WorkClaims,
    held_leases,
    release_held,
)


class TestInterruptGuard:
    def test_handler_raises_sweep_interrupted(self):
        with pytest.raises(SweepInterrupted) as excinfo:
            with InterruptGuard() as guard:
                assert guard.installed
                os.kill(os.getpid(), signal.SIGTERM)
                time.sleep(5.0)  # the signal interrupts this
        assert excinfo.value.signal_name == "SIGTERM"

    def test_previous_dispositions_restored(self):
        before = [signal.getsignal(s) for s in InterruptGuard.SIGNALS]
        with InterruptGuard():
            pass
        after = [signal.getsignal(s) for s in InterruptGuard.SIGNALS]
        assert after == before

    def test_noop_off_the_main_thread(self):
        seen = {}

        def worker():
            with InterruptGuard() as guard:
                seen["installed"] = guard.installed

        thread = threading.Thread(target=worker)
        thread.start()
        thread.join()
        assert seen["installed"] is False

    def test_triggered_records_the_signal(self):
        guard = InterruptGuard()
        with pytest.raises(SweepInterrupted):
            with guard:
                os.kill(os.getpid(), signal.SIGINT)
                time.sleep(5.0)
        assert guard.triggered == "SIGINT"

    def test_forked_child_dies_quietly(self):
        # Pool workers fork while the parent's guard is live; the
        # inherited handler must not raise SweepInterrupted there but
        # restore the default disposition and die by the signal.
        with pytest.raises(SweepInterrupted):
            with InterruptGuard():
                ready_r, ready_w = os.pipe()
                pid = os.fork()
                if pid == 0:  # child: announce readiness, wait to be killed
                    os.close(ready_r)
                    os.write(ready_w, b"x")
                    time.sleep(30.0)
                    os._exit(1)  # pragma: no cover - should never run
                os.close(ready_w)
                # A SIGTERM racing fork() is swallowed by CPython's
                # after-fork signal reset; wait for the child's byte.
                os.read(ready_r, 1)
                os.close(ready_r)
                os.kill(pid, signal.SIGTERM)
                _, status = os.waitpid(pid, 0)
                assert os.WIFSIGNALED(status)
                assert os.WTERMSIG(status) == signal.SIGTERM
                os.kill(os.getpid(), signal.SIGTERM)
                time.sleep(5.0)


class TestExitCodes:
    def test_interrupt_maps_to_its_own_code(self):
        assert exit_code_for(SweepInterrupted("SIGTERM")) == \
            EXIT_INTERRUPTED
        assert exit_code_for(KeyboardInterrupt()) == EXIT_INTERRUPTED


class TestHeldLeaseRegistry:
    def test_acquired_lease_is_tracked_and_released(self, tmp_path):
        claims = WorkClaims(tmp_path)
        lease = claims.claim("sim", "deadbeef")
        assert lease is not None
        assert lease in held_leases()
        lease.release()
        assert lease not in held_leases()

    def test_release_held_sweeps_everything(self, tmp_path):
        claims = WorkClaims(tmp_path)
        leases = [claims.claim("sim", f"fp{i}") for i in range(3)]
        assert all(leases)
        assert release_held() >= 3
        assert held_leases() == []
        # lease files are gone too: a fresh claim succeeds
        assert claims.claim("sim", "fp0") is not None
        release_held()


class TestJournalAbortOpen:
    def test_abort_open_settles_unfinished_intents(self, tmp_path):
        journal = IntentJournal(tmp_path)
        journal.claim("sim", "aaaa", tmp_path / "aaaa.json")
        journal.claim("sim", "bbbb", tmp_path / "bbbb.json")
        journal.commit("sim", "aaaa")
        assert journal.open_count() == 1
        assert journal.abort_open() == 1
        assert journal.open_count() == 0

    def test_abort_open_idempotent(self, tmp_path):
        journal = IntentJournal(tmp_path)
        assert journal.abort_open() == 0


class TestKilledSweepRegression:
    """SIGTERM a real sweep child; the settled-state contract holds."""

    @pytest.mark.parametrize("sig", [signal.SIGTERM, signal.SIGINT])
    def test_killed_child_settles_cleanly(self, tmp_path, sig):
        cache = tmp_path / "cache"
        env = dict(os.environ)
        env["PYTHONPATH"] = "src"
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "--scale", "0.4",
             "--cache-dir", str(cache), "sweep"],
            env=env, cwd=Path(__file__).resolve().parents[2],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        state_path = cache / "sweep_state.json"
        deadline = time.monotonic() + 60.0
        while not state_path.exists():
            assert time.monotonic() < deadline, "sweep never started"
            assert proc.poll() is None, proc.communicate()[1]
            time.sleep(0.02)
        proc.send_signal(sig)
        stdout, stderr = proc.communicate(timeout=60.0)

        assert proc.returncode == EXIT_INTERRUPTED, (stdout, stderr)
        state = json.loads(state_path.read_text())
        assert state["status"] == "interrupted"
        # no held leases survive the child
        assert list(cache.glob("leases/*.lease")) == []
        # no open journal intents: every claim was committed or aborted
        remaining = [record for path in journal_files(cache)
                     for record in open_intents(read_journal(path))]
        assert remaining == []
        # the operator message names the signal and the exit code
        assert "interrupted by" in stderr
        # the cache is usable immediately, no recover step: resume runs
        resume = subprocess.run(
            [sys.executable, "-m", "repro.cli", "--scale", "0.4",
             "--cache-dir", str(cache), "sweep", "--resume",
             "--workloads", "sha"],
            env=env, cwd=Path(__file__).resolve().parents[2],
            capture_output=True, text=True, timeout=120.0)
        assert resume.returncode == 0, resume.stderr


def test_interrupt_inside_an_in_process_task_settles_the_sweep(
        tmp_path, monkeypatch):
    """At ``jobs=1`` the tasks run in the sweep process: an interrupt
    raised inside one propagates and settles the sweep, and is never
    recorded as that task's failure."""
    from repro.flow.experiment import FlowSettings
    from repro.flow.sweep import SweepRunner
    from repro.pipeline.stages import ExperimentPipeline
    from repro.uarch.config import MEDIUM_BOOM

    def interrupted(self, workload, config):
        raise SweepInterrupted("SIGTERM")

    monkeypatch.setattr(ExperimentPipeline, "result", interrupted)
    runner = SweepRunner(FlowSettings(scale=0.05), cache_dir=tmp_path)
    with pytest.raises(SweepInterrupted):
        runner.run_all(configs=(MEDIUM_BOOM,), workloads=["sha"], jobs=1)
    state = json.loads((tmp_path / "sweep_state.json").read_text())
    assert state["status"] == "interrupted"
    assert state["failures"] == []
    assert runner.last_manifest.failures == []
    assert runner.last_manifest.retries == {}

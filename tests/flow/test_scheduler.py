"""Tests for the supervised sweep scheduler."""

import os
import signal
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.errors import PERMANENT, TRANSIENT, ReproError
from repro.flow.scheduler import (
    RetryPolicy,
    ScheduleOutcome,
    SupervisedScheduler,
    Task,
)


def _threaded(max_workers=2, **kwargs):
    """A scheduler driving threads: closures work, no pickling needed."""
    kwargs.setdefault("sleep", lambda _delay: None)
    return SupervisedScheduler(
        max_workers,
        executor_factory=lambda workers: ThreadPoolExecutor(workers),
        **kwargs)


# ----------------------------------------------------------------------
# process-pool workers (module level: must be picklable)
# ----------------------------------------------------------------------

def _double(value):
    return value * 2


def _crash_once(payload):
    """Die like an OOM kill on the first attempt, succeed afterwards."""
    marker, value = payload
    try:
        with open(marker, "x"):
            pass
    except FileExistsError:
        return value * 2
    os._exit(23)


def _sleep_for(payload):
    time.sleep(payload)
    return payload


def _always_crash(_payload):
    os._exit(23)


# ----------------------------------------------------------------------
# policy
# ----------------------------------------------------------------------

def test_backoff_grows_exponentially_and_caps():
    policy = RetryPolicy(max_attempts=6, backoff_base=0.1, backoff_cap=0.5)
    assert policy.backoff(1) == pytest.approx(0.1)
    assert policy.backoff(2) == pytest.approx(0.2)
    assert policy.backoff(3) == pytest.approx(0.4)
    assert policy.backoff(4) == pytest.approx(0.5)  # capped
    assert policy.backoff(5) == pytest.approx(0.5)


def test_outcome_absorb_merges_waves():
    first = ScheduleOutcome(results={"a": 1}, retries={"a": 1}, respawns=1)
    second = ScheduleOutcome(results={"b": 2}, retries={"a": 2, "b": 1})
    first.absorb(second)
    assert first.results == {"a": 1, "b": 2}
    assert first.retries == {"a": 3, "b": 1}
    assert first.respawns == 1
    assert first.ok


# ----------------------------------------------------------------------
# happy path and failure classification (thread-backed)
# ----------------------------------------------------------------------

def test_all_tasks_succeed():
    tasks = [Task(f"t{i}", lambda v: v * 10, i) for i in range(5)]
    seen = []
    outcome = _threaded().run(
        tasks, on_result=lambda task, result: seen.append((task.key,
                                                           result)))
    assert outcome.ok
    assert outcome.results == {f"t{i}": i * 10 for i in range(5)}
    assert sorted(seen) == sorted((f"t{i}", i * 10) for i in range(5))
    assert outcome.retries == {}


def test_empty_task_list():
    outcome = _threaded().run([])
    assert outcome.ok and outcome.results == {}


def test_transient_failure_retried_then_succeeds(tmp_path):
    marker = tmp_path / "fired"

    def flaky(value):
        if not marker.exists():
            marker.write_text("x")
            raise OSError("transient blip")
        return value + 1

    outcome = _threaded(max_workers=1).run([Task("flaky", flaky, 41)])
    assert outcome.ok
    assert outcome.results == {"flaky": 42}
    assert outcome.retries == {"flaky": 1}


def test_permanent_failure_recorded_and_rest_completes():
    def worker(value):
        if value == 2:
            raise ReproError("deterministic model error")
        return value

    tasks = [Task(f"t{i}", worker, i) for i in range(4)]
    outcome = _threaded().run(tasks)
    assert not outcome.ok
    assert outcome.results == {"t0": 0, "t1": 1, "t3": 3}
    (record,) = outcome.failures
    assert record.key == "t2"
    assert record.kind == PERMANENT
    assert record.attempts == 1
    assert "deterministic model error" in record.error
    assert outcome.retries == {}  # permanent failures are never retried


def test_transient_retries_exhausted():
    def always_flaky(_value):
        raise OSError("never recovers")

    policy = RetryPolicy(max_attempts=3, backoff_base=0.0)
    outcome = _threaded(policy=policy).run([Task("t", always_flaky, 0)])
    (record,) = outcome.failures
    assert record.kind == TRANSIENT
    assert record.attempts == 3
    assert outcome.retries == {"t": 2}


def test_backoff_sleep_applied_on_retry(tmp_path):
    marker = tmp_path / "fired"
    slept = []

    def flaky(value):
        if not marker.exists():
            marker.write_text("x")
            raise OSError("blip")
        return value

    scheduler = SupervisedScheduler(
        1, policy=RetryPolicy(backoff_base=0.25),
        executor_factory=lambda workers: ThreadPoolExecutor(workers),
        sleep=slept.append)
    assert scheduler.run([Task("t", flaky, 1)]).ok
    assert slept == [pytest.approx(0.25)]


def test_fail_fast_skips_remaining_tasks():
    def worker(value):
        if value == 0:
            raise ReproError("bad model")
        time.sleep(0.02)
        return value

    tasks = [Task(f"t{i}", worker, i) for i in range(6)]
    outcome = _threaded(max_workers=1, fail_fast=True).run(tasks)
    assert outcome.aborted
    kinds = {record.key: record.kind for record in outcome.failures}
    assert kinds["t0"] == PERMANENT
    skipped = [key for key, kind in kinds.items() if kind == "skipped"]
    assert skipped  # the queued tail was recorded, not silently dropped
    assert len(outcome.results) + len(outcome.failures) == 6


def test_progress_writes_one_line_per_settled_task(tmp_path):
    """A retried task writes one line, when it settles; a failed one
    writes its line too; the fail-fast skips after it write none."""
    import io
    import itertools

    marker = tmp_path / "fired"

    def worker(value):
        if value == "flaky" and not marker.exists():
            marker.write_text("x")
            raise OSError("blip")
        if value == "broken":
            raise ReproError("bad model")
        if value == "lost":
            raise OSError("never recovers")
        return value

    stream = io.StringIO()
    ticks = itertools.count()
    scheduler = _threaded(max_workers=1, progress=stream,
                          clock=lambda: float(next(ticks)),
                          policy=RetryPolicy(max_attempts=2,
                                             backoff_base=0.0))
    keys = ["ok", "flaky", "broken", "lost"]
    outcome = scheduler.run([Task(key, worker, key) for key in keys],
                            wave="experiment")
    assert sorted(outcome.results) == ["flaky", "ok"]
    lines = stream.getvalue().splitlines()
    # a retry goes to the back of the queue
    assert [line.split()[3] for line in lines] == \
        ["ok", "broken", "flaky", "lost"]
    assert [line.split()[2] for line in lines] == \
        ["1/4", "2/4", "3/4", "4/4"]
    assert all(line.startswith("progress: experiment ") for line in lines)
    assert "failed (permanent)" in lines[1] and "ok," in lines[2] \
        and "failed (transient)" in lines[3]
    assert lines[-1].endswith("eta 0.0s")

    stream = io.StringIO()
    fail_fast = _threaded(max_workers=1, progress=stream, fail_fast=True)
    outcome = fail_fast.run([Task(key, worker, key)
                             for key in ("broken", "ok", "ok2")])
    assert outcome.aborted
    (line,) = stream.getvalue().splitlines()
    assert line.startswith("progress: tasks 1/3 broken failed")


# ----------------------------------------------------------------------
# real process pools: crash recovery and timeouts
# ----------------------------------------------------------------------

def test_worker_crash_respawns_pool_and_retries(tmp_path):
    tasks = [Task("crasher", _crash_once, (str(tmp_path / "fired"), 21))]
    tasks += [Task(f"t{i}", _double, i) for i in range(3)]
    scheduler = SupervisedScheduler(2, policy=RetryPolicy(max_attempts=3))
    outcome = scheduler.run(tasks)
    assert outcome.ok
    assert outcome.results["crasher"] == 42
    assert outcome.results["t2"] == 4
    assert outcome.respawns >= 1
    assert outcome.retries.get("crasher", 0) >= 1


def test_crash_exhausting_attempts_is_recorded():
    scheduler = SupervisedScheduler(
        1, policy=RetryPolicy(max_attempts=2, backoff_base=0.0))
    outcome = scheduler.run([Task("crasher", _always_crash, None)])
    assert not outcome.ok
    (record,) = outcome.failures
    assert record.key == "crasher"
    assert record.kind == TRANSIENT
    assert record.attempts == 2
    assert outcome.respawns >= 2


def test_timeout_abandons_hung_task_but_finishes_others():
    tasks = [Task("hung", _sleep_for, 10.0),
             Task("quick", _sleep_for, 0.01)]
    scheduler = SupervisedScheduler(2, timeout=1.0)
    started = time.monotonic()
    outcome = scheduler.run(tasks)
    elapsed = time.monotonic() - started
    assert elapsed < 8.0  # did not wait out the 10 s sleep
    assert "quick" in outcome.results
    (record,) = outcome.timeouts
    assert record.key == "hung"
    assert record.kind == "timeout"
    assert not outcome.ok


def _alive(pid):
    """Whether ``pid`` names a live (not zombie) process."""
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="needs /proc")
def test_killed_pool_leaves_no_worker_to_hang_exit(tmp_path):
    """A timed-out worker that ignores SIGTERM still dies with its pool,
    so the interpreter's exit hook has no live worker to join."""
    code = (
        "import os, signal, sys, time\n"
        "from repro.flow.scheduler import SupervisedScheduler, Task\n"
        "def stubborn(directory):\n"
        "    signal.signal(signal.SIGTERM, signal.SIG_IGN)\n"
        "    open(os.path.join(directory, str(os.getpid())), 'w').close()\n"
        "    time.sleep(20.0)\n"
        "outcome = SupervisedScheduler(2, timeout=0.5).run(\n"
        "    [Task('stubborn', stubborn, sys.argv[1])])\n"
        "assert [r.key for r in outcome.timeouts] == ['stubborn']\n")
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    child = subprocess.Popen([sys.executable, "-c", code, str(tmp_path)],
                             env=env, start_new_session=True)
    try:
        status = child.wait(timeout=10.0)
    except subprocess.TimeoutExpired:
        status = None
    workers = [int(name) for name in os.listdir(tmp_path)]
    survivors = [pid for pid in workers if _alive(pid)]
    try:  # leave nothing behind, whatever the outcome
        os.killpg(child.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    child.wait()
    assert status == 0, "the run did not exit within 10 s of a 20 s hang"
    assert workers
    assert not survivors

"""Front-half lifetimes: each workload's functional state lives one run.

A sweep drops the profile once its selection is clustered, the
compiled superblocks once the checkpoints are captured, and the program
(with its decode table) once its batch has run; nothing of the sweep
outlives its runner.  A cache-less sweep does the same on its scratch
store, which goes with the runner.  The checks run in a fresh
interpreter with the cyclic garbage collector off, so an object held
only by a reference cycle counts as alive, as it does for most of a
real sweep.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[2] / "src"

SCRIPT = r"""
import gc
import json
import sys
import weakref

gc.disable()

from repro.flow.experiment import FlowSettings
from repro.flow.sweep import SweepRunner
from repro.pipeline.stages import (
    CHECKPOINT_STAGE,
    ExperimentPipeline,
    PROFILE_STAGE,
    SELECTION_STAGE,
)
from repro.sim import executor
from repro.uarch import decode
from repro.workloads.suite import workload_names

WORKLOADS = workload_names()

programs = {}
violations = []
original = {name: getattr(ExperimentPipeline, name)
            for name in ("program", "checkpoints", "prepare_detailed_batch",
                         "result")}


def program(self, workload):
    built = original["program"](self, workload)
    refs = programs.setdefault(workload, [])
    if not any(ref() is built for ref in refs):
        refs.append(weakref.ref(built))
    return built


def alive(workloads=WORKLOADS):
    return sum(ref() is not None for workload in workloads
               for ref in programs.get(workload, ()))


def audit(self, where):
    # every memoized profile whose selection exists, and every live
    # superblock cache of a workload whose checkpoints exist
    store = self.store
    for workload in WORKLOADS:
        if store.has(SELECTION_STAGE, self.selection_fingerprint(workload)) \
                and (PROFILE_STAGE, self.profile_fingerprint(workload)) \
                in store._memory:
            violations.append(f"{where}: {workload} profile memoized")
        built = self._programs.get(workload)
        if built is not None and store.has(
                CHECKPOINT_STAGE, self.checkpoint_fingerprint(workload)) \
                and id(built) in executor._BLOCK_CACHES:
            violations.append(f"{where}: {workload} superblocks alive")


def audited(name):
    def wrapper(self, *args):
        value = original[name](self, *args)
        audit(self, name)
        if name == "prepare_detailed_batch" and alive([args[0]]):
            # the program and its decode table go with the batch
            violations.append(f"{name}: {args[0]} program alive")
        return value
    return wrapper


ExperimentPipeline.program = program
for name in ("checkpoints", "prepare_detailed_batch", "result"):
    setattr(ExperimentPipeline, name, audited(name))

cache_dir = sys.argv[1]
settings = FlowSettings(scale=0.05)
runner = SweepRunner(settings, cache_dir=cache_dir)
disk = runner.run_all(jobs=1)
audit(runner.pipeline, "end of sweep")
del runner
alive_after_disk = alive()
caches_after_disk = (len(executor._BLOCK_CACHES),
                     len(decode._DECODE_CACHES))

# a cache-less runner stores on a scratch directory of its own, so it
# frees the front half as a disk-backed one does
disk_violations = len(violations)
memory_runner = SweepRunner(settings, cache_dir=None)
memory = memory_runner.run_all(jobs=1)
audit(memory_runner.pipeline, "end of sweep")
scratch = memory_runner.store.root
del memory_runner
print(json.dumps({
    "violations": violations,
    "programs": sum(len(refs) for refs in programs.values()),
    "alive_after_disk": alive_after_disk,
    "caches_after_disk": caches_after_disk,
    "alive_after_memory": alive(),
    "caches_after_memory": (len(executor._BLOCK_CACHES),
                            len(decode._DECODE_CACHES)),
    "memory_violations": violations[disk_violations:],
    "scratch_after_memory": scratch.exists(),
    "pairs": len(disk),
    "same_results": sorted(disk) == sorted(memory) and all(
        disk[key].to_json() == memory[key].to_json() for key in disk),
}))
"""


@pytest.fixture(scope="module")
def lifecycle(tmp_path_factory):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("REPRO_TRACE", None)
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT,
         str(tmp_path_factory.mktemp("cache"))],
        env=env, capture_output=True, text=True, timeout=300, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def test_front_half_is_dropped_after_its_last_reader(lifecycle):
    # no profile memoized once its selection exists, no superblock
    # cache once the workload's checkpoints exist, no program once its
    # batch has run
    assert lifecycle["violations"] == []


def test_nothing_of_the_sweep_outlives_its_runner(lifecycle):
    # 11 programs per sweep, disk-backed then cache-less
    assert lifecycle["pairs"] == 33
    assert lifecycle["programs"] == 22
    assert lifecycle["alive_after_disk"] == 0
    assert lifecycle["caches_after_disk"] == [0, 0]
    assert lifecycle["alive_after_memory"] == 0
    assert lifecycle["caches_after_memory"] == [0, 0]


def test_memory_only_sweep_equals_disk_backed_sweep(lifecycle):
    assert lifecycle["same_results"]
    # a cache-less runner frees the front half as a disk-backed one
    # does, and its scratch store goes with it
    assert lifecycle["memory_violations"] == []
    assert lifecycle["scratch_after_memory"] is False

"""Tracing must never perturb results: byte-identical artifacts on/off."""

import hashlib
import json

import pytest

from repro.flow.experiment import FlowSettings
from repro.flow.sweep import MANIFEST_NAME, SWEEP_STATE_NAME, SweepRunner
from repro.obs.session import OBS_DIR_NAME
from repro.obs.tracer import reset_tracer
from repro.pipeline.artifacts import INTERNAL_DIRS
from repro.uarch.config import MEDIUM_BOOM

SETTINGS = FlowSettings(scale=0.1)

#: run bookkeeping that is *expected* to differ (timings, trace paths,
#: pid/timestamp-bearing journals, leases and lock files)
_NON_ARTIFACTS = {MANIFEST_NAME, SWEEP_STATE_NAME}


@pytest.fixture(autouse=True)
def _clean_obs_state():
    reset_tracer()
    yield
    reset_tracer()


def _artifact_digests(cache_dir):
    digests = {}
    for path in sorted(cache_dir.rglob("*")):
        if not path.is_file():
            continue
        relative = path.relative_to(cache_dir)
        if relative.parts[0] in INTERNAL_DIRS or \
                relative.name in _NON_ARTIFACTS or \
                relative.suffix == ".lock":
            continue
        digests[str(relative)] = hashlib.sha256(
            path.read_bytes()).hexdigest()
    return digests


def test_artifacts_byte_identical_tracing_on_vs_off(tmp_path):
    traced_dir = tmp_path / "traced"
    plain_dir = tmp_path / "plain"

    traced = SweepRunner(SETTINGS, cache_dir=traced_dir)
    traced.run_all(configs=(MEDIUM_BOOM,), workloads=["qsort"],
                   trace=True)
    plain = SweepRunner(SETTINGS, cache_dir=plain_dir)
    plain.run_all(configs=(MEDIUM_BOOM,), workloads=["qsort"])

    traced_digests = _artifact_digests(traced_dir)
    plain_digests = _artifact_digests(plain_dir)
    assert traced_digests  # the sweep actually produced artifacts
    assert traced_digests == plain_digests


def test_traced_results_equal_untraced_results(tmp_path):
    traced = SweepRunner(SETTINGS, cache_dir=tmp_path / "a")
    untraced = SweepRunner(SETTINGS, cache_dir=tmp_path / "b")
    got = traced.run_all(configs=(MEDIUM_BOOM,), workloads=["qsort"],
                         trace=True)
    want = untraced.run_all(configs=(MEDIUM_BOOM,), workloads=["qsort"])
    (a,) = got.values()
    (b,) = want.values()
    assert json.dumps(a.to_dict(), sort_keys=True) == \
        json.dumps(b.to_dict(), sort_keys=True)


def test_observability_excluded_from_cache_accounting(tmp_path):
    runner = SweepRunner(SETTINGS, cache_dir=tmp_path)
    runner.run_all(configs=(MEDIUM_BOOM,), workloads=["qsort"],
                   trace=True)
    counts = runner.store.artifact_counts()
    assert OBS_DIR_NAME not in counts
    removed = runner.store.clear()
    assert removed
    # clearing the cache must leave the recorded traces alone
    assert (tmp_path / OBS_DIR_NAME).exists()

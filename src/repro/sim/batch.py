"""Stage-4 detailed simulation: batched, with front-end specialization.

Every detailed core fetches by replaying a
:class:`~repro.uarch.ftrace.FetchTrace`: the oracle instruction stream —
branch outcomes, effective addresses, the dynamic instruction stream
itself — recorded from a functional model of the checkpointed state.
That stream is a pure function of the checkpoint and identical for
every config, so replaying one SimPoint checkpoint across N uarch
configurations records it once:

1. the checkpoint's architectural state is reconstructed **once**, into
   a shared trace that lazily records the oracle instruction stream;
2. each configuration's :class:`~repro.uarch.core.BoomCore` replays that
   stream through its own private fetch timing
   (:class:`~repro.uarch.frontend.FetchUnit`) and steps its own back-end
   independently — through the fused cycle loop for collapsing-queue
   configs.

A single config is simply a batch of one, whose core records (and
trims) a private trace.  Per-config stats are **bit-identical** to a
core running the generic loop (gated by
``tests/sim/test_equivalence.py``), so a batch of any size writes
byte-identical artifacts: the sweep primes whole-workload batches and
falls back to per-config batches on any batch fault (see
:mod:`repro.flow.sweep`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

from repro.check import checks_enabled
from repro.obs.tracer import get_tracer
from repro.uarch.config import BoomConfig

if TYPE_CHECKING:
    from repro.checkpoint.checkpoint import Checkpoint
    from repro.uarch.ftrace import FetchTrace

__all__ = ["raw_record", "simulate_checkpoint",
           "simulate_raw_runs_batched"]


def simulate_checkpoint(config: BoomConfig, program,
                        checkpoint: Checkpoint, interval_size: int, *,
                        trace: FetchTrace | None = None) -> dict:
    """Run one checkpoint through the detailed core; the raw record.

    The single source of truth for stage-4 semantics.  The core replays
    ``trace`` — the oracle fetch stream shared by every config of a
    batch — or, without one, a private trace of ``checkpoint``.
    """
    from repro.check.invariants import CoreInvariantChecker
    from repro.obs.flight import FlightRecorder
    from repro.uarch.core import BoomCore

    tracer = get_tracer()
    with tracer.span("detailed_sim.checkpoint",
                     workload=program.name, config=config.name,
                     checkpoint=checkpoint.interval_index) as span:
        state = checkpoint.restore() if trace is None else None
        core = BoomCore(config, program, state=state, trace=trace)
        # Observers only read, so a checked, recorded or traced run
        # takes the same loop as a plain one and produces byte-identical
        # artifacts — REPRO_FLIGHT and REPRO_CHECK are deliberately not
        # part of the stage fingerprint.  Only the discarded warm-up
        # stats differ: an observed warm-up keeps the accounting an
        # unobserved one skips.
        checker = CoreInvariantChecker(core) if checks_enabled() else None
        recorder = FlightRecorder.for_session(
            core, tracer, workload=program.name,
            checkpoint=checkpoint.interval_index)
        observers = [observer for observer in (checker, recorder)
                     if observer is not None]
        try:
            if checkpoint.warmup_instructions:
                core.warm_up(checkpoint.warmup_instructions, observers)
            if recorder is not None:
                # Closes the warmup phase with a boundary sample *before*
                # the stats window swaps, so the warmup tail is captured.
                recorder.set_phase("measure")
            stats = core.begin_measurement()
            window = checkpoint.measure_instructions or interval_size
            measured = core.run(window, observers)
            if checker is not None:
                checker.check()
        finally:
            # A checkpoint that fails an invariant or deadlocks keeps its
            # last stride's telemetry and ends its span with the totals
            # it reached: that window is the one to look at.
            if recorder is not None:
                recorder.finish()
            span.set(retired=core.retired_total, cycles=core.cycle)
    return raw_record(checkpoint, measured, stats)


def raw_record(checkpoint: Checkpoint, measured: int, stats) -> dict:
    """The stage-4 record of one checkpoint's measured window."""
    return {
        "interval_index": checkpoint.interval_index,
        "weight": checkpoint.weight,
        "warmup_instructions": checkpoint.warmup_instructions,
        "measured_instructions": measured,
        "stats": stats.to_dict(),
    }


def simulate_raw_runs_batched(configs: Iterable[BoomConfig], program,
                              checkpoints: list[Checkpoint],
                              interval_size: int) -> dict[str, list[dict]]:
    """Stage 4 for many configs over one checkpoint set, batched.

    Checkpoint-major: each checkpoint's state is reconstructed once into
    a shared :class:`FetchTrace`, every config replays it, then the
    trace is dropped — at most one trace (one functional state plus the
    recorded entries of the hungriest consumer) is live at a time.
    Returns ``{config.name: raw records}`` where each record list is
    exactly what a batch of that config alone would have produced.
    """
    from repro.uarch.ftrace import FetchTrace

    configs = tuple(configs)
    names = [config.name for config in configs]
    if len(set(names)) != len(names):
        raise ValueError("batched simulation requires unique config "
                         "names (records are keyed by name)")
    raw: dict[str, list[dict]] = {name: [] for name in names}
    for checkpoint in checkpoints:
        trace = FetchTrace(program, checkpoint.restore())
        for config in configs:
            raw[config.name].append(simulate_checkpoint(
                config, program, checkpoint, interval_size, trace=trace))
    return raw

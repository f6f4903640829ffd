"""The flight recorder: per-interval microarchitectural telemetry.

Aggregate IPC and power numbers can drift silently while every tier-1
test stays green; the flight recorder turns one detailed-simulation
window into a *timeline* so drift is attributable.  A
:class:`FlightRecorder` is one of the observers ``BoomCore.run`` calls
every ``_OBSERVER_STRIDE`` cycles: it diffs the core's stats tree
against the previous sample and emits one instant event named
``flight`` through the process tracer, whose attributes hold the
interval's IPC, per-structure occupancy averages, stall/CPI-stack
taxonomy, branch/cache miss rates, and per-component power shares.

Recording is opt-in (``REPRO_FLIGHT=1`` or ``repro-cli --flight``, which
implies tracing) and observation-only: the recorder reads counters that
the run loop settles for every observer, folds nothing back, and writes
only to the trace — so detailed-simulation artifacts are byte-identical
with recording on or off (gated by ``tests/obs/test_flight.py`` and
``tests/sim/test_equivalence.py``).  Samples are merged into
``trace.json`` with every other event; :func:`flight_samples` pulls
them back out in canonical order and ``repro-cli flight`` renders them
as sparkline timelines or Chrome counter tracks.
"""

from __future__ import annotations

import json
import os
from typing import Any

__all__ = [
    "FLIGHT_ENV",
    "FLIGHT_SCHEMA",
    "FlightRecorder",
    "flight_requested",
    "flight_samples",
]

#: user-facing switch: ``REPRO_FLIGHT=1`` arms the recorder (the CLI
#: ``--flight`` flag exports it so pool workers inherit the setting)
FLIGHT_ENV = "REPRO_FLIGHT"

FLIGHT_SCHEMA = 1

_TRUTHY = ("1", "true", "yes", "on")


def flight_requested(environ: dict | None = None) -> bool:
    """Whether ``REPRO_FLIGHT`` asks for flight recording."""
    environ = os.environ if environ is None else environ
    return str(environ.get(FLIGHT_ENV, "")).strip().lower() in _TRUTHY


def _numeric_delta(current: Any, baseline: Any) -> Any:
    """Pointwise ``current - baseline`` over a stats ``to_dict`` tree.

    Ints/floats subtract, dicts recurse per key (a key absent from the
    baseline contributes its full current value — new
    ``retired_by_class`` / ``dispatch_by_trace`` entries), lists diff
    pointwise when shapes match.  Non-numeric leaves pass through.
    """
    if isinstance(current, dict):
        base = baseline if isinstance(baseline, dict) else {}
        return {key: _numeric_delta(value, base.get(key))
                for key, value in current.items()}
    if isinstance(current, list):
        if isinstance(baseline, list) and len(baseline) == len(current):
            return [_numeric_delta(value, base)
                    for value, base in zip(current, baseline)]
        return list(current)
    if isinstance(current, (int, float)) and not isinstance(current, bool):
        if isinstance(baseline, (int, float)) \
                and not isinstance(baseline, bool):
            return current - baseline
        return current
    return current


class FlightRecorder:
    """Core observer sampling one core's telemetry timeline.

    List it among the observers of ``core.run``::

        recorder = FlightRecorder(core, get_tracer(), workload="sha",
                                  checkpoint=0)
        core.run(budget, observers=[recorder])
        recorder.finish()

    Each sample covers the window since the previous one (the stats
    *delta*, so a warmup→measure stats swap resets the baseline
    automatically via the stats object's identity).  ``phase`` tags
    samples ``warmup``/``measure``; :meth:`set_phase` closes the old
    phase with a boundary sample so phase totals reconstruct exactly.
    """

    def __init__(self, core, tracer, *, workload: str = "?",
                 checkpoint: int | None = None,
                 phase: str = "warmup") -> None:
        # Deferred imports: the CLI reads FLIGHT_ENV and stored samples
        # from this module without simulating, while these pull in the
        # uarch/power/analysis stack — a recorder is only built at
        # simulation time.
        from repro.analysis.cpi_stack import cpi_stack
        from repro.power.model import PowerModel
        from repro.uarch.stats import CoreStats

        self.core = core
        self.tracer = tracer
        self.workload = workload
        self.checkpoint = checkpoint
        self.phase = phase
        self.samples = 0
        self.pid = os.getpid()
        self._cpi_stack = cpi_stack
        self._from_dict = CoreStats.from_dict
        self._power = PowerModel(core.config)
        self._baseline: dict | None = None
        self._baseline_id: int | None = None
        self._finished = False

    @classmethod
    def for_session(cls, core, tracer, *, workload: str,
                    checkpoint: int | None = None,
                    environ: dict | None = None) -> "FlightRecorder | None":
        """Recorder emitting through ``tracer``, or ``None``.

        Requires both ``REPRO_FLIGHT`` and an enabled tracer — pool
        workers of a ``--flight`` sweep inherit both from the parent's
        trace session, so their samples land in the same run.
        """
        if not tracer.enabled or not flight_requested(environ):
            return None
        return cls(core, tracer, workload=workload, checkpoint=checkpoint)

    # ------------------------------------------------------------------
    # observer protocol
    # ------------------------------------------------------------------

    def __call__(self) -> None:
        self._sample(final=False)

    def set_phase(self, phase: str) -> None:
        """Close the current phase with a boundary sample and switch."""
        if phase == self.phase:
            return
        self._sample(final=False)
        self.phase = phase

    def finish(self) -> None:
        """Emit the terminal sample (exactly once)."""
        if self._finished:
            return
        self._finished = True
        self._sample(final=True)

    # ------------------------------------------------------------------
    # sampling
    # ------------------------------------------------------------------

    def _sample(self, *, final: bool) -> None:
        stats = self.core.stats
        current = stats.to_dict()
        if self._baseline_id == id(stats):
            delta = _numeric_delta(current, self._baseline)
        else:
            # begin_measurement() swapped in a fresh stats window; its
            # counters already start at zero, so the dict is the delta.
            delta = current
        self._baseline = current
        self._baseline_id = id(stats)
        cycles = delta.get("cycles", 0)
        if cycles <= 0 and not final:
            return  # empty interval (phase boundary with no progress)
        self._emit(self._record(delta, cycles, final))

    def _record(self, delta: dict, cycles: int, final: bool) -> dict:
        core = self.core
        retired = delta.get("retired", 0)
        record: dict[str, Any] = {
            "type": "flight",
            "schema": FLIGHT_SCHEMA,
            "pid": self.pid,
            "workload": self.workload,
            "config": core.config.name,
            "checkpoint": self.checkpoint,
            "phase": self.phase,
            "seq": self.samples,
            "cycle": core.cycle,
            "cycles": cycles,
            "retired": retired,
            "ipc": retired / cycles if cycles else 0.0,
            "final": final,
        }
        if cycles > 0:
            frontend = delta["frontend"]
            iq_occupancy = (delta["int_iq"]["occupancy"]
                            + delta["mem_iq"]["occupancy"]
                            + delta["fp_iq"]["occupancy"])
            record["occupancy"] = {
                "rob": delta["rob"]["occupancy"] / cycles,
                "iq": iq_occupancy / cycles,
                "ldq": delta["lsu"]["ldq_occupancy"] / cycles,
                "stq": delta["lsu"]["stq_occupancy"] / cycles,
                "fetch_buffer":
                    frontend["fetch_buffer_occupancy"] / cycles,
            }
            record["rates"] = {
                "fetch_stall_frac":
                    frontend["fetch_stall_cycles"] / cycles,
                "branch_mpki":
                    (delta["predictor"]["mispredicts"] * 1000.0 / retired
                     if retired else 0.0),
                "icache_mpki":
                    (frontend["icache_misses"] * 1000.0 / retired
                     if retired else 0.0),
                "dcache_mpki":
                    (delta["dcache"]["misses"] * 1000.0 / retired
                     if retired else 0.0),
            }
        if cycles > 0 and retired > 0:
            delta_stats = self._from_dict(delta)
            record["cpi_stack"] = self._cpi_stack(delta_stats, core.config)
            report = self._power.report(delta_stats, self.workload)
            tile = report.tile_mw
            record["power"] = {
                "tile_mw": tile,
                "shares": {name: (component.total_mw / tile if tile
                                  else 0.0)
                           for name, component
                           in sorted(report.components.items())},
            }
        self.samples += 1
        return record

    def _emit(self, record: dict) -> None:
        try:
            # samples stay strict JSON: a non-finite value drops the
            # sample rather than putting NaN on the trace
            json.dumps(record, allow_nan=False)
        except ValueError:
            return
        self.tracer.event("flight", **record)


def flight_samples(trace: dict) -> dict:
    """The flight document of a merged trace: its samples, in order.

    Sample order is canonical — (workload, config, checkpoint, pid,
    seq) — so documents from the same run are identical regardless of
    worker scheduling.  ``skipped_lines`` carries the trace's count of
    torn lines, any of which may have been a sample.
    """
    samples = [event["attrs"] for event in trace.get("events", [])
               if event.get("type") == "I"
               and event.get("name") == "flight"]
    samples.sort(key=lambda s: (str(s.get("workload", "")),
                                str(s.get("config", "")),
                                s.get("checkpoint") or 0,
                                s.get("pid", 0), s.get("seq", 0)))
    return {"schema": FLIGHT_SCHEMA, "samples": samples,
            "skipped_lines": trace.get("skipped_lines", 0)}

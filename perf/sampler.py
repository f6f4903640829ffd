"""Host-time profile of the detailed core by simulated pipeline stage.

:class:`CoreSampler` arms ``ITIMER_PROF`` (process CPU time, ~1 ms) and
attributes every ``SIGPROF`` sample taken inside ``BoomCore`` to one of
:data:`STAGES`, measured entirely from outside the program:

* the generic cycle loop calls one method per stage from ``_step``, so a
  sample maps by the name of the function ``_step`` called (``_commit``,
  ``_complete``, ``_issue``, ``_dispatch``, the front end's ``cycle``);
* the fused loop ``_run_fused`` inlines every stage into one body marked
  by ``# ---- <stage> ----`` comments, so a sample maps by the line the
  fused frame was executing, against those markers as read from the
  source at start-up.  The line comes from the frame's bytecode offset
  through the code's line table, because ``f_lineno`` is ``None`` on
  instructions without a line (such as some loop back-edges, where the
  interpreter often delivers signals).

Samples outside the cycle loops (and inside it but in no stage, such as
occupancy sampling) count as ``other``; samples outside ``BoomCore``
are not counted.
"""

from __future__ import annotations

import bisect
import inspect
import re
import signal

STAGES = ("commit", "complete", "issue", "dispatch", "fetch", "other")

#: function called by ``BoomCore._step`` -> stage
_STEP_CALLEES = {"_commit": "commit", "_complete": "complete",
                 "_issue": "issue", "_dispatch": "dispatch",
                 "cycle": "fetch"}

_MARKER = re.compile(r"#\s*----\s*(\w+)")


def marker_lines(function) -> tuple[list[int], list[str]]:
    """Start lines of each ``# ---- <stage> ----`` section of
    ``function`` and the stage of each (``other`` before the first)."""
    lines, first = inspect.getsourcelines(function)
    starts, stages = [first], ["other"]
    for offset, line in enumerate(lines):
        match = _MARKER.search(line)
        if match:
            starts.append(first + offset)
            stages.append(match.group(1) if match.group(1) in STAGES
                          else "other")
    return starts, stages


def offset_stages(function) -> tuple[list[int], list[str]]:
    """Start offsets of ``function``'s bytecode ranges and the stage of
    each, from the line table; a range without a line belongs to the
    line before it."""
    starts, stages = marker_lines(function)
    code = function.__code__
    offsets, range_stages, line = [], [], code.co_firstlineno
    for start, _end, range_line in code.co_lines():
        line = range_line if range_line is not None else line
        offsets.append(start)
        range_stages.append(stages[bisect.bisect_right(starts, line) - 1])
    return offsets, range_stages


class CoreSampler:
    """``SIGPROF`` sampler; use as a context manager around the work."""

    def __init__(self, interval_s: float = 0.001) -> None:
        from repro.uarch.core import BoomCore

        self.interval_s = interval_s
        self.counts = dict.fromkeys(STAGES, 0)
        self._step = BoomCore._step.__code__
        self._fused = BoomCore._run_fused.__code__
        self._run = BoomCore.run.__code__
        self._offsets, self._stages = offset_stages(BoomCore._run_fused)
        self._previous = None

    def __enter__(self) -> "CoreSampler":
        self._previous = signal.signal(signal.SIGPROF, self._on_sample)
        signal.setitimer(signal.ITIMER_PROF, self.interval_s,
                         self.interval_s)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        signal.signal(signal.SIGPROF, self._previous)

    def _on_sample(self, signum, frame) -> None:
        callee = None
        while frame is not None:
            code = frame.f_code
            if code is self._step:
                stage = _STEP_CALLEES.get(callee.co_name, "other") \
                    if callee is not None else "other"
                break
            if code is self._fused:
                index = bisect.bisect_right(self._offsets, frame.f_lasti)
                stage = self._stages[index - 1]
                break
            if code is self._run:
                stage = "other"
                break
            callee = code
            frame = frame.f_back
        else:
            return
        self.counts[stage] += 1

    @property
    def samples(self) -> int:
        return sum(self.counts.values())

    def metrics(self) -> dict[str, float]:
        """``uarch.core.<stage>_share`` for each stage, and the sample
        count they are shares of."""
        total = self.samples
        metrics = {f"uarch.core.{stage}_share":
                   self.counts[stage] / total if total else 0.0
                   for stage in STAGES}
        metrics["uarch.core.samples"] = total
        return metrics

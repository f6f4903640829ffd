"""Issue queues: collapsing (BOOM's) and ring-shaped.

BOOM's three distributed issue units (integer, memory, floating point)
each use a *collapsing* queue: entries shift toward the head as older
entries issue, keeping the oldest-first priority encoder simple — at the
cost of register writes for every shifted entry on every issue (Key
Takeaway #5).  The model counts those shifts, per-slot writes, and
per-slot per-cycle occupancy; the latter two generate Fig. 8.
:class:`RingIssueQueue` is the non-collapsing alternative the takeaway
proposes; ``BoomConfig.issue_queue_kind`` picks one, and
:func:`make_issue_queue` builds it.  The core's fused loop inlines the
collapsing select; ring-queue cores run the generic loop, which calls
each queue's ``select``.
"""

from __future__ import annotations

from typing import Callable

from repro.uarch.stats import IssueQueueStats
from repro.uarch.uop import Uop

#: Shared empty result for selects that issue nothing (callers must not
#: mutate select()'s return value).
_NO_ISSUE: list[Uop] = []


class IssueQueue:
    """One collapsing issue queue."""

    def __init__(self, name: str, entries: int,
                 stats: IssueQueueStats) -> None:
        self.name = name
        self.entries = entries
        self.stats = stats
        stats.ensure_slots(entries)
        self._queue: list[Uop] = []
        self._occ_hist = [0] * (entries + 1)

    def rebind_stats(self, stats: IssueQueueStats) -> None:
        self.flush_samples()
        stats.ensure_slots(self.entries)
        self.stats = stats

    def __len__(self) -> int:
        return len(self._queue)

    @property
    def is_empty(self) -> bool:
        return not self._queue

    def has_space(self) -> bool:
        return len(self._queue) < self.entries

    def insert(self, uop: Uop) -> None:
        """Dispatch writes the uop into the first free (tail) slot."""
        stats = self.stats
        stats.writes += 1
        stats.slot_writes[len(self._queue)] += 1
        self._queue.append(uop)

    def select(self, cycle: int, max_issue: int,
               can_issue: Callable[[Uop, int], bool]) -> list[Uop]:
        """Oldest-first select of ready uops; collapses the queue.

        ``can_issue(uop, cycle)`` combines operand readiness with the
        caller's structural checks (FU availability, LSU ordering, MSHRs).
        Selected entries are removed; survivors shift toward the head with
        one counted register write per moved entry.  Entries ahead of the
        first issued uop never move, so the survivor list is only built
        (and the queue only rewritten) once something actually issues.
        """
        queue = self._queue
        if not queue or max_issue <= 0:
            return _NO_ISSUE
        issued: list[Uop] | None = None
        kept: list[Uop] = queue  # replaced on first issue
        stats = self.stats
        slot_writes = stats.slot_writes
        for index, uop in enumerate(queue):
            if issued is None:
                if can_issue(uop, cycle):
                    issued = [uop]
                    kept = queue[:index]
            elif len(issued) < max_issue and can_issue(uop, cycle):
                issued.append(uop)
            else:
                new_index = len(kept)
                if new_index != index:
                    stats.shifts += 1
                    slot_writes[new_index] += 1
                kept.append(uop)
        if issued is None:
            return _NO_ISSUE
        self._queue = kept
        stats.issues += len(issued)
        return issued

    def wakeup(self) -> None:
        """A completing destination tag is broadcast to this queue."""
        self.stats.wakeup_broadcasts += 1

    def sample(self) -> None:
        """Per-cycle occupancy sampling (total and per slot)."""
        stats = self.stats
        occupancy = len(self._queue)
        stats.occupancy += occupancy
        slots = stats.slot_occupancy
        for index in range(occupancy):
            slots[index] += 1

    def sample_batched(self) -> None:
        """Record this cycle's occupancy in the histogram (hot path).

        A collapsing queue always occupies the slot prefix ``0..occ-1``,
        so the occupancy histogram losslessly encodes the same per-slot
        residency :meth:`sample` counts cycle by cycle;
        :meth:`flush_samples` converts it in one pass.
        """
        self._occ_hist[len(self._queue)] += 1

    def flush_samples(self) -> None:
        """Fold the batched histogram into the stats counters."""
        hist = self._occ_hist
        stats = self.stats
        slots = stats.slot_occupancy
        cycles_above = 0
        for occ in range(len(hist) - 1, 0, -1):
            count = hist[occ]
            if count:
                cycles_above += count
                stats.occupancy += occ * count
                hist[occ] = 0
            if cycles_above:
                slots[occ - 1] += cycles_above
        hist[0] = 0


class RingIssueQueue:
    """A non-collapsing, age-ordered issue queue (Key Takeaway #5).

    Entries stay in their slots from dispatch to issue — no shift writes —
    at the cost of an age matrix for the oldest-first select (Folegnani &
    González's energy-effective issue logic).  Interface-compatible with
    :class:`IssueQueue`, so the core takes either via
    ``BoomConfig.issue_queue_kind``.
    """

    def __init__(self, name: str, entries: int,
                 stats: IssueQueueStats) -> None:
        self.name = name
        self.entries = entries
        self.stats = stats
        stats.ensure_slots(entries)
        self._slots: list[Uop | None] = [None] * entries
        self._count = 0

    def rebind_stats(self, stats: IssueQueueStats) -> None:
        stats.ensure_slots(self.entries)
        self.stats = stats

    def __len__(self) -> int:
        return self._count

    @property
    def is_empty(self) -> bool:
        return self._count == 0

    def has_space(self) -> bool:
        return self._count < self.entries

    def insert(self, uop: Uop) -> None:
        """Dispatch writes the uop into the first free slot (no shifts)."""
        for index, occupant in enumerate(self._slots):
            if occupant is None:
                self._slots[index] = uop
                self._count += 1
                self.stats.writes += 1
                self.stats.slot_writes[index] += 1
                return
        raise IndexError("insert into a full issue queue")

    def select(self, cycle: int, max_issue: int,
               can_issue: Callable[[Uop, int], bool]) -> list[Uop]:
        """Oldest-first (by sequence number) select across all slots."""
        if self._count == 0 or max_issue <= 0:
            return []
        occupied = [(uop.seq, index, uop)
                    for index, uop in enumerate(self._slots)
                    if uop is not None]
        occupied.sort()
        issued: list[Uop] = []
        for _, index, uop in occupied:
            if len(issued) >= max_issue:
                break
            if can_issue(uop, cycle):
                issued.append(uop)
                self._slots[index] = None
                self._count -= 1
        self.stats.issues += len(issued)
        return issued

    def wakeup(self) -> None:
        self.stats.wakeup_broadcasts += 1

    def sample(self) -> None:
        stats = self.stats
        stats.occupancy += self._count
        slots = stats.slot_occupancy
        for index, occupant in enumerate(self._slots):
            if occupant is not None:
                slots[index] += 1

    def sample_batched(self) -> None:
        # Occupied slots are scattered, not a prefix, so a histogram
        # cannot reconstruct per-slot residency: sample eagerly instead.
        self.sample()

    def flush_samples(self) -> None:
        pass


def make_issue_queue(kind: str, name: str, entries: int,
                     stats: IssueQueueStats):
    """Factory for the configured issue-queue implementation."""
    if kind == "ring":
        return RingIssueQueue(name, entries, stats)
    return IssueQueue(name, entries, stats)

"""Set-associative L1 cache timing model with MSHRs.

True LRU replacement, write-back with dirty bits, and a bounded set of
miss-status handling registers.  The model answers one question per
access: *how many cycles until the data is available*, and `None` when no
MSHR is free (the requester must retry) — which is exactly the structural
behaviour Key Takeaway #8 attributes MegaBOOM's extra D-cache power to.
"""

from __future__ import annotations

from repro.uarch.config import CacheParams
from repro.uarch.stats import CacheStats

#: L2 round-trip at 500 MHz, matching a Chipyard SoC's inclusive L2.
DEFAULT_MISS_PENALTY = 22


class L1Cache:
    """One L1 cache instance (used for both I- and D-side)."""

    def __init__(self, params: CacheParams, stats: CacheStats,
                 hit_latency: int = 3,
                 miss_penalty: int = DEFAULT_MISS_PENALTY) -> None:
        self.params = params
        self.stats = stats
        self.hit_latency = hit_latency
        self.miss_penalty = miss_penalty
        self._line_shift = params.line_bytes.bit_length() - 1
        self._set_mask = params.sets - 1
        # Per set: list of [tag, dirty] in LRU order (index 0 = LRU).
        self._sets: list[list[list]] = [[] for _ in range(params.sets)]
        # Outstanding misses: line address -> cycle the fill completes.
        self._mshrs: dict[int, int] = {}

    def rebind_stats(self, stats: CacheStats) -> None:
        self.stats = stats

    def _locate(self, address: int) -> tuple[int, int]:
        line = address >> self._line_shift
        return line, line & self._set_mask

    def _retire_mshrs(self, cycle: int) -> None:
        done = [line for line, ready in self._mshrs.items() if ready <= cycle]
        for line in done:
            del self._mshrs[line]

    def mshr_occupancy(self, cycle: int) -> int:
        if not self._mshrs:
            return 0
        self._retire_mshrs(cycle)
        return len(self._mshrs)

    def mshrs_in_flight(self, cycle: int) -> int:
        """Live MSHR count at ``cycle``, without retiring expired entries.

        Unlike :meth:`mshr_occupancy` this never mutates the MSHR table,
        so observers (repro.check) can call it without perturbing the
        lazily-retired state the access path sees.
        """
        return sum(1 for ready in self._mshrs.values() if ready > cycle)

    def access(self, address: int, cycle: int,
               is_write: bool = False) -> int | None:
        """Access the cache; returns data-ready latency or None (retry).

        ``None`` means every MSHR is busy with other lines — the request
        cannot even be accepted this cycle.
        """
        stats = self.stats
        line, set_index = self._locate(address)
        ways = self._sets[set_index]
        for position, entry in enumerate(ways):
            if entry[0] == line:
                # Hit: move to MRU, set dirty on writes.
                if position != len(ways) - 1:
                    ways.append(ways.pop(position))
                if is_write:
                    entry[1] = True
                    stats.writes += 1
                else:
                    stats.reads += 1
                # If the line's fill is still in flight, this is really a
                # secondary miss: wait for the outstanding MSHR.
                pending = self._mshrs.get(line)
                if pending is not None and pending > cycle:
                    stats.misses += 1
                    return max(self.hit_latency, pending - cycle)
                return self.hit_latency
        # Miss path.
        self._retire_mshrs(cycle)
        pending = self._mshrs.get(line)
        if pending is not None:
            # Secondary miss merges into the existing MSHR.
            if is_write:
                stats.writes += 1
            else:
                stats.reads += 1
            stats.misses += 1
            return max(self.hit_latency, pending - cycle)
        if len(self._mshrs) >= self.params.mshrs:
            # Refused: the requester retries, so count only the stall.
            stats.mshr_full_stalls += 1
            return None
        if is_write:
            stats.writes += 1
        else:
            stats.reads += 1
        stats.misses += 1
        ready = cycle + self.miss_penalty
        self._mshrs[line] = ready
        stats.mshr_allocs += 1
        # Fill now (timing handled via the returned latency); evict LRU.
        if len(ways) >= self.params.ways:
            victim = ways.pop(0)
            if victim[1]:
                stats.writebacks += 1
        ways.append([line, is_write])
        return self.miss_penalty

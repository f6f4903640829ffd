"""Basic-block-vector (BBV) profiling — the gem5 stage of the paper's flow.

A BBV characterizes one execution interval (a fixed-size chunk of the
dynamic instruction stream) by how many instructions it spent in each
dynamic basic block.  The SimPoint algorithm clusters these vectors to
find program phases (paper Fig. 4, step 1).

:class:`BBVProfiler` runs the functional executor with a
:class:`~repro.sim.executor.BlockCounts`: each executed control-flow
instruction closes a dynamic block, which is credited (weighted by its
instruction count) to the current interval.  Intervals close as soon as
their instruction budget fills, exactly like gem5's SimPoint probe — and,
as in gem5, the counting happens inside the CPU model: the superblock
dispatch loop updates the interval vector and tests the boundary inline,
with no per-block callback.  The profiler then numbers the blocks in
first-seen order.

Example::

    profiler = BBVProfiler(interval_size=10_000)
    profile = profiler.profile(program)
    matrix = profile.matrix()          # intervals x blocks, row-normalized

Profiling itself is pure Python: numpy loads only when
:meth:`BBVProfile.matrix` or :meth:`BBVProfile.weights` builds an array
for clustering.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.errors import SimPointError
from repro.obs.tracer import get_tracer

if TYPE_CHECKING:
    import numpy as np

    from repro.isa.program import Program


@dataclass
class BBVProfile:
    """The result of profiling one program: one vector per interval."""

    interval_size: int
    #: sparse vectors: one dict (block id -> instruction count) per interval
    vectors: list[dict[int, int]]
    #: actual instruction count of each interval (>= interval_size except
    #: possibly the last)
    interval_lengths: list[int]
    #: (start_pc, end_pc) of each dynamic block, indexed by block id
    blocks: list[tuple[int, int]]
    total_instructions: int = 0
    program_name: str = "program"

    def interval_starts(self) -> list[int]:
        """Dynamic-instruction index at which each interval begins.

        Intervals overshoot their budget by up to one basic block, so the
        start of interval *i* is the cumulative length of all earlier
        intervals — not ``i * interval_size``.  Checkpoint placement must
        use these exact boundaries.
        """
        starts = []
        position = 0
        for length in self.interval_lengths:
            starts.append(position)
            position += length
        return starts

    @property
    def num_intervals(self) -> int:
        return len(self.vectors)

    @property
    def num_blocks(self) -> int:
        return len(self.blocks)

    def matrix(self, normalize: bool = True) -> np.ndarray:
        """Dense (intervals x blocks) matrix of block weights.

        With ``normalize`` each row sums to 1, which is what the SimPoint
        clustering operates on (intervals of slightly different lengths
        become comparable).
        """
        # numpy loads only for runs that cluster, never for stored profiles
        import numpy as np

        if not self.vectors:
            raise SimPointError("profile has no intervals")
        dense = np.zeros((self.num_intervals, self.num_blocks))
        for row, vector in enumerate(self.vectors):
            for block_id, weight in vector.items():
                dense[row, block_id] = weight
        if normalize:
            sums = dense.sum(axis=1, keepdims=True)
            sums[sums == 0.0] = 1.0
            dense = dense / sums
        return dense

    def weights(self) -> np.ndarray:
        """Fraction of total instructions in each interval."""
        # numpy loads only for runs that cluster, never for stored profiles
        import numpy as np

        lengths = np.asarray(self.interval_lengths, dtype=float)
        return lengths / lengths.sum()


class BBVProfiler:
    """Collects per-interval basic-block vectors from a functional run."""

    def __init__(self, interval_size: int) -> None:
        if interval_size <= 0:
            raise SimPointError("interval_size must be positive")
        self.interval_size = interval_size

    def profile(self, program: Program,
                max_instructions: int | None = None) -> BBVProfile:
        """Run ``program`` to completion and return its BBV profile."""
        from repro.obs.heartbeat import HeartbeatEmitter
        from repro.sim.executor import BlockCounts, Executor, block_of

        executor = Executor(program)
        emitter = on_interval = None
        tracer = get_tracer()
        if tracer.enabled:
            # sample progress at interval closes: block boundaries and
            # interval contents are untouched, so the traced profile is
            # byte-identical to the untraced one
            emitter = HeartbeatEmitter(tracer, "functional.instr",
                                       units="instructions",
                                       workload=program.name)
            progress = [0]

            def on_interval() -> None:
                progress[0] += counts.lengths[-1]
                emitter(progress[0])

        counts = BlockCounts(self.interval_size, on_interval)
        executor.run(max_instructions=max_instructions, counts=counts)
        if emitter is not None:
            emitter.finish(executor.state.retired)
        vectors = counts.vectors
        lengths = counts.lengths
        if counts.filled:
            vectors.append(counts.current)
            lengths.append(counts.filled)
        # Number the blocks in first-seen order, which the counts'
        # insertion order records: the intervals in order, each in
        # first-seen order.  Each vector is rekeyed in place.
        block_ids: dict[int, int] = {}
        blocks: list[tuple[int, int]] = []
        for index, raw in enumerate(vectors):
            vector = {}
            for key, weight in raw.items():
                block_id = block_ids.get(key)
                if block_id is None:
                    block_id = block_ids[key] = len(blocks)
                    blocks.append(block_of(key))
                vector[block_id] = weight
            vectors[index] = vector
        return BBVProfile(interval_size=self.interval_size, vectors=vectors,
                          interval_lengths=lengths, blocks=blocks,
                          total_instructions=executor.state.retired,
                          program_name=program.name)

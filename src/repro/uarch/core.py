"""The SonicBOOM-like out-of-order core: the cycle-level pipeline loop.

One :class:`BoomCore` instance wires together the fetch unit (with its
branch predictor and L1I), the rename stage (two units, branch snapshots),
the ROB, the three issue queues (collapsing, or ring-shaped when
``BoomConfig.issue_queue_kind`` says ``"ring"``), the physical register
files, the execution units, the LSU, and the L1D — and advances them one
cycle at a time:

    commit -> complete -> issue -> dispatch -> fetch -> sample

Two loops implement that step, and the issue-queue kind alone picks
one: collapsing-queue cores run the fused loop (``_run_fused``), every
stage inlined; ring-queue cores step the generic loop (``_step``),
which is also the fused loop's reference in the tests.  Both record the
retire log when one is set, and both call the same observers (the
invariant checker, the flight recorder) every ``_OBSERVER_STRIDE``
cycles on settled state; what an observer writes to the core is what
either loop goes on with.

The core is the *detailed simulation* stage of the paper's flow (Fig. 3,
step 5): it executes SimPoint checkpoints (warm-up excluded from stats)
and produces the per-component activity counters the power model turns
into Figs. 5-8, plus the IPC of Fig. 10.  :meth:`BoomCore.warm_up`
advances the core exactly as :meth:`BoomCore.run` does; unobserved on
the fused loop, it also skips the accounting that only feeds the stats
:meth:`BoomCore.begin_measurement` then discards.

Example::

    core = BoomCore(MEGA_BOOM, program, state=checkpoint.restore())
    core.warm_up(checkpoint.warmup_instructions)   # stats discarded
    stats = core.begin_measurement()
    core.run(interval_size)                        # measured window
    print(stats.ipc)
"""

from __future__ import annotations

from repro.errors import SimulationError
from repro.isa.instructions import OpClass
from repro.isa.program import Program
from repro.sim.state import ArchState
from repro.uarch.bpu import BranchPredictionUnit
from repro.uarch.cache import L1Cache
from repro.uarch.config import BoomConfig
from repro.uarch.execute import ExecutionUnits
from repro.uarch.frontend import REDIRECT_PENALTY, _LINE_SHIFT, FetchUnit
from repro.uarch.ftrace import FetchTrace
from repro.uarch.issue import make_issue_queue
from repro.uarch.lsu import LoadStoreUnit
from repro.uarch.rename import RenameStage
from repro.uarch.rob import ReorderBuffer
from repro.uarch.stats import CoreStats
from repro.uarch.uop import COMPLETED, ISSUED, Uop

_FORWARD_LATENCY = 4
_SAFETY_FACTOR = 400  # max cycles per requested instruction before we bail
_OBSERVER_STRIDE = 4096  # cycles between observer calls


class BoomCore:
    """Cycle-level model of one BOOM core plus its L1 caches."""

    def __init__(self, config: BoomConfig, program: Program,
                 state: ArchState | None = None,
                 trace: FetchTrace | None = None) -> None:
        self.config = config
        self.program = program
        self.stats = CoreStats()
        stats = self.stats
        self.icache = L1Cache(config.icache, stats.icache, hit_latency=1)
        self.dcache = L1Cache(config.dcache, stats.dcache, hit_latency=3)
        # A core given no trace records a private one of ``state`` (or of
        # the program's initial state) and, as its only reader, trims it
        # and keeps no direction-prediction memo; cores on a shared trace
        # share its memos.
        owns_trace = trace is None
        if owns_trace:
            if state is None:
                state = ArchState.for_program(program)
            trace = FetchTrace(program, state)
        self.bpu = BranchPredictionUnit(
            config.predictor, stats.predictor,
            memos=None if owns_trace else trace.direction_memos)
        self.frontend = FetchUnit(config, trace, self.bpu, self.icache,
                                  stats.frontend, owns_trace=owns_trace)
        # The loop choice: the fused loop replicates the collapsing-queue
        # select inline; ring-queue configs run the generic loop.
        self._fused = config.issue_queue_kind == "collapsing"
        self.rename = RenameStage(config, stats.int_rename, stats.fp_rename)
        self.rob = ReorderBuffer(config.rob_entries, stats.rob)
        kind = config.issue_queue_kind
        self.iq_int = make_issue_queue(kind, "int", config.int_iq_entries,
                                       stats.int_iq)
        self.iq_mem = make_issue_queue(kind, "mem", config.mem_iq_entries,
                                       stats.mem_iq)
        self.iq_fp = make_issue_queue(kind, "fp", config.fp_iq_entries,
                                      stats.fp_iq)
        self.lsu = LoadStoreUnit(config, stats.lsu)
        self.fus = ExecutionUnits(config, stats.execute)
        self.cycle = 0
        self.retired_total = 0
        self.branches_in_flight = 0
        self.fp_in_flight = 0
        #: set to a list to record (uop, commit cycle) pairs on either
        #: loop (differential checks, repro.uarch.pipeview)
        self.retire_log: list[tuple[Uop, int]] | None = None
        self._completions: dict[int, list[Uop]] = {}
        self._queues = {"int": self.iq_int, "mem": self.iq_mem,
                        "fp": self.iq_fp}

    # ------------------------------------------------------------------
    # measurement windows
    # ------------------------------------------------------------------

    def begin_measurement(self) -> CoreStats:
        """Start a fresh stats window (keeps all warm state)."""
        stats = CoreStats()
        self.stats = stats
        self.bpu.rebind_stats(stats.predictor)
        self.icache.rebind_stats(stats.icache)
        self.dcache.rebind_stats(stats.dcache)
        self.frontend.rebind_stats(stats.frontend)
        self.rename.rebind_stats(stats.int_rename, stats.fp_rename)
        self.rob.rebind_stats(stats.rob)
        self.iq_int.rebind_stats(stats.int_iq)
        self.iq_mem.rebind_stats(stats.mem_iq)
        self.iq_fp.rebind_stats(stats.fp_iq)
        self.lsu.rebind_stats(stats.lsu)
        self.fus.rebind_stats(stats.execute)
        return stats

    # ------------------------------------------------------------------
    # the cycle loop
    # ------------------------------------------------------------------

    def run(self, max_instructions: int | None = None,
            observers=()) -> int:
        """Advance the pipeline until ``max_instructions`` retire.

        Without a budget, runs until the program exits and the pipeline
        drains.  Returns the number of instructions retired by this call.
        Every counter of :attr:`stats` is kept; a warm-up whose stats
        :meth:`begin_measurement` will drop runs :meth:`warm_up` instead.

        ``observers`` are zero-argument callables, called in list
        order every ``_OBSERVER_STRIDE`` cycles after the loop has
        settled its state, so every observer reads the stats (and
        ``retired_total``/``cycle``) a generic loop would show on
        either loop.  The loop's termination conditions and step
        sequence are identical with and without observers, so a run
        whose observers only read retires exactly the same instructions
        as an unobserved one; a value an observer writes to the core (a
        corruption test does) is the one either loop goes on with.
        """
        return self._advance(max_instructions, observers, account=True)

    def warm_up(self, instructions: int, observers=()) -> int:
        """Advance through a warm-up window whose stats will be discarded.

        Retires exactly what ``run(instructions, observers)`` retires and
        leaves the same timing state behind: queues, rename maps and
        free lists, caches and their MSHRs, the predictor, pending
        completions, divider timers, ``cycle`` and ``retired_total``.
        Unobserved on the fused loop, it skips the updates that only feed
        :attr:`stats` — operand bypass and register-read counts,
        per-cycle occupancy sampling, retire-time occupancy and
        ``retired_by_class``, ``dispatch_by_trace``, and issue-queue
        write, slot-write and shift counts — so :attr:`stats` is
        incomplete afterwards; call :meth:`begin_measurement` before
        reading it.  With observers, or on the generic loop, every
        counter is kept, so observers read what they read under
        :meth:`run`.
        """
        return self._advance(instructions, observers,
                             account=bool(observers))

    def _advance(self, max_instructions: int | None, observers,
                 account: bool) -> int:
        start = self.retired_total
        target = None if max_instructions is None \
            else start + max_instructions
        budget = max_instructions if max_instructions is not None \
            else 1 << 40
        deadline = self.cycle + _SAFETY_FACTOR * (budget + 64)
        try:
            if self._fused:
                self._run_fused(target, deadline, observers, account)
            else:
                # -1 when unobserved: the countdown never reaches zero
                countdown = _OBSERVER_STRIDE if observers else -1
                while True:
                    if target is not None and self.retired_total >= target:
                        break
                    if self.frontend.out_of_instructions \
                            and self.rob.is_empty:
                        break
                    self._step()
                    countdown -= 1
                    if countdown == 0:
                        countdown = _OBSERVER_STRIDE
                        self._flush_samples()
                        for observer in observers:
                            observer()
                    if self.cycle > deadline:
                        raise SimulationError(
                            f"pipeline made no progress for "
                            f"{_SAFETY_FACTOR}x the instruction budget "
                            f"(deadlock?) at cycle {self.cycle}")
        finally:
            self._flush_samples()
        return self.retired_total - start

    def _flush_samples(self) -> None:
        # Issue-queue occupancy is sampled into histograms per cycle;
        # fold them into the stats counters (additive and clearing, so
        # the fused loop's histogram references stay valid) whenever
        # someone is about to read the stats.
        self.iq_int.flush_samples()
        self.iq_mem.flush_samples()
        self.iq_fp.flush_samples()

    def _step(self) -> None:
        cycle = self.cycle
        self._commit(cycle)
        self._complete(cycle)
        self._issue(cycle)
        self._dispatch(cycle)
        self.frontend.cycle(cycle)
        self._sample(cycle)
        self.cycle = cycle + 1
        self.stats.cycles += 1

    # ------------------------------------------------------------------
    # commit
    # ------------------------------------------------------------------

    def _commit(self, cycle: int) -> None:
        rob = self.rob
        width = self.config.commit_width
        while width > 0 and rob.head_completed(cycle):
            head = rob.head()
            if head.is_store:
                # Stores write the data cache at commit.
                latency = self.dcache.access(head.mem_addr, cycle,
                                             is_write=True)
                if latency is None:
                    break  # all MSHRs busy; retry next cycle
            rob.pop()
            self.rename.commit(head)
            if head.is_load or head.is_store:
                self.lsu.commit(head)
            if head.is_control:
                self.branches_in_flight -= 1
            if head.dest_kind == "f" or head.queue == "fp":
                self.fp_in_flight -= 1
            if self.retire_log is not None:
                self.retire_log.append((head, cycle))
            # Retire-point occupancy attribution (sampled after the
            # retiring uop has left every structure).
            acc = self.stats.accounting
            acc.retires_sampled += 1
            acc.rob_occupancy_at_retire += len(rob)
            acc.iq_occupancy_at_retire += (len(self.iq_int)
                                           + len(self.iq_mem)
                                           + len(self.iq_fp))
            acc.lsu_occupancy_at_retire += len(self.lsu)
            self.stats.count_retired(head.opclass_name)
            self.retired_total += 1
            width -= 1

    # ------------------------------------------------------------------
    # completion / writeback
    # ------------------------------------------------------------------

    def _complete(self, cycle: int) -> None:
        done = self._completions.pop(cycle, None)
        if not done:
            return
        stats = self.stats
        for uop in done:
            uop.state = COMPLETED
            if uop.dest_kind == "x":
                stats.int_regfile.writes += 1
            elif uop.dest_kind == "f":
                stats.fp_regfile.writes += 1
            if uop.dest_kind:
                # Destination tags broadcast to all three issue queues.
                self.iq_int.wakeup()
                self.iq_mem.wakeup()
                self.iq_fp.wakeup()
            if uop.mispredicted:
                self.rename.recover(fp=uop.fp_snapshotted)
                stats.rob.flushes += 1

    # ------------------------------------------------------------------
    # issue
    # ------------------------------------------------------------------

    def _issue(self, cycle: int) -> None:
        config = self.config
        self.iq_int.select(cycle, config.alu_units, self._try_issue_int)
        self.iq_mem.select(cycle, config.mem_units, self._try_issue_mem)
        self.iq_fp.select(cycle, config.fp_units, self._try_issue_fp)

    def _try_issue_int(self, uop: Uop, cycle: int) -> bool:
        if not uop.ready(cycle):
            return False
        if not self.fus.can_accept(uop.opclass, cycle):
            return False
        latency = self.fus.dispatch(uop.opclass, cycle)
        self._finish_issue(uop, cycle, latency)
        return True

    def _try_issue_fp(self, uop: Uop, cycle: int) -> bool:
        return self._try_issue_int(uop, cycle)

    def _try_issue_mem(self, uop: Uop, cycle: int) -> bool:
        if not uop.ready(cycle):
            return False
        if uop.is_load:
            if not self.lsu.load_may_issue(uop):
                return False
            self.fus.count_load_agu()
            if self.lsu.forwards_from_store(uop):
                latency = _FORWARD_LATENCY
            else:
                access = self.dcache.access(uop.mem_addr, cycle)
                if access is None:
                    return False  # MSHRs exhausted; retry
                latency = access
        else:  # store address+data ready: AGU pass
            latency = self.fus.dispatch(uop.opclass, cycle)
            uop.addr_ready = True
        self._finish_issue(uop, cycle, latency)
        return True

    def _finish_issue(self, uop: Uop, cycle: int, latency: int) -> None:
        uop.state = ISSUED
        uop.issue_cycle = cycle
        stats = self.stats
        # Operand delivery: recently-completed producers arrive on the
        # bypass network; everything else reads the register file.
        bypassed_x = 0
        bypassed_f = 0
        for producer in uop.srcs:
            if producer.complete_cycle >= cycle - 1:
                if producer.dest_kind == "x":
                    bypassed_x += 1
                else:
                    bypassed_f += 1
        stats.int_regfile.bypasses += bypassed_x
        stats.fp_regfile.bypasses += bypassed_f
        stats.int_regfile.reads += max(0, uop.x_reads - bypassed_x)
        stats.fp_regfile.reads += max(0, uop.f_reads - bypassed_f)
        complete_cycle = cycle + latency
        uop.complete_cycle = complete_cycle
        self._completions.setdefault(complete_cycle, []).append(uop)

    # ------------------------------------------------------------------
    # dispatch (decode + rename)
    # ------------------------------------------------------------------

    def _dispatch(self, cycle: int) -> None:
        buffer = self.frontend.buffer
        if not buffer:
            return
        stats = self.stats
        width = self.config.decode_width
        while width > 0 and buffer:
            uop = buffer[0]
            if not self.rob.has_space():
                stats.rob.full_stall_cycles += 1
                return
            queue = self._queues[uop.queue]
            if not queue.has_space():
                queue.stats.full_stall_cycles += 1
                return
            if not self.rename.can_rename(uop):
                unit = self.rename.unit_for(uop.dest_kind)
                unit.stats.stall_cycles += 1
                return
            if uop.is_control and \
                    self.branches_in_flight >= self.config.max_branches:
                return
            if (uop.is_load or uop.is_store) and \
                    not self.lsu.can_dispatch(uop):
                return
            buffer.popleft()
            stats.frontend.fetch_buffer_reads += 1
            fp_snapshot = (not self.config.fp_rename_lazy_snapshots
                           or self.fp_in_flight > 0)
            self.rename.rename(uop, fp_snapshot=fp_snapshot)
            uop.dispatch_cycle = cycle
            self.rob.push(uop)
            queue.insert(uop)
            if uop.is_load or uop.is_store:
                self.lsu.dispatch(uop)
            if uop.is_control:
                self.branches_in_flight += 1
            if uop.dest_kind == "f" or uop.queue == "fp":
                self.fp_in_flight += 1
            by_trace = stats.accounting.dispatch_by_trace
            key = uop.trace_key
            by_trace[key] = by_trace.get(key, 0) + 1
            width -= 1

    # ------------------------------------------------------------------
    # per-cycle occupancy sampling
    # ------------------------------------------------------------------

    def _sample(self, cycle: int) -> None:
        self.rob.sample()
        self.iq_int.sample_batched()
        self.iq_mem.sample_batched()
        self.iq_fp.sample_batched()
        self.lsu.sample()
        self.stats.dcache.mshr_occupancy += self.dcache.mshr_occupancy(cycle)

    # ------------------------------------------------------------------
    # the fused cycle loop
    # ------------------------------------------------------------------

    def _run_fused(self, target: int | None, deadline: int, observers,
                   account: bool) -> None:
        """Specialized cycle loop: the one every collapsing-queue core runs.

        Semantically identical to iterating :meth:`_step`: same stage
        order, same counter updates, same termination and deadline
        conditions — gated bit-identical against the generic loop by
        ``tests/sim/test_equivalence.py`` and the random programs of
        ``tests/uarch/test_differential.py``.  The per-cycle stage bodies
        (commit, complete, the collapsing-queue selects, dispatch/rename,
        fetch, sampling) are inlined here with hot state hoisted into
        locals, so per-cycle Python dispatch collapses into one loop
        body.  Only run for collapsing issue queues; ring-queue cores
        take the generic loop.  A retire log, when set, is recorded here
        too, so it shows the loop every collapsing-queue result comes
        from.

        Bookkeeping whose total follows from a few events is kept in
        locals and worked out in ``settle``.  The issue queues collapse
        in place: a select stops once its units are used, deletes the
        issued entries and charges ``shifts`` and the survivors'
        ``slot_writes`` from the issued positions (the survivors behind
        the first issued entry fill the run of new positions
        ``first .. n-k-1``, marked in a difference array).  Rename keeps
        its free counts, allocation, map-read and snapshot counters, the
        lifetime ``total_*`` ledgers and the flush count as locals; the
        frees since the last settle are ``free - free_mark + allocs``.

        Readiness reads ``complete_cycle`` alone.  It stays ``_NEVER``
        until issue sets it to a later cycle, and writeback pops
        ``completions[cycle]`` before issue and fetch, so there
        ``state == COMPLETED`` holds exactly when ``complete_cycle <=
        cycle``; commit runs before writeback, so there it holds exactly
        when ``complete_cycle < cycle``.  Writeback still sets ``state``
        for observers and the generic loop's ``Uop.ready``.

        ``observers`` follow the :meth:`run` contract: every
        ``_OBSERVER_STRIDE`` cycles the hoisted locals are settled back
        onto the core/stats tree (``settle`` below, the same fold the
        exit path performs) and the occupancy histograms are flushed
        before the observers run — so invariant checkers and flight
        recorders read exactly the state a generic loop would show,
        while the unobserved cost is one integer decrement and compare
        per cycle.  After the observers return, ``load`` — the inverse
        of ``settle``, also run at entry — reads the hoisted core state
        back, so a value an observer wrote is the one the loop goes on
        with, as on the generic loop.  The queue-length mirrors
        (``rob_n``, ``int_n``, ...) stay fast locals outside that pair:
        observers do not resize the queues.

        With ``account`` false (an unobserved :meth:`warm_up`) the loop
        skips the stats-only updates :meth:`warm_up` lists.  The
        skipped ``mshr_occupancy`` call also retires expired D-cache
        fills lazily; that is unobservable, because ``L1Cache.access``
        ignores or retires them before it looks a line up or counts
        MSHRs against capacity.
        """
        config = self.config
        stats = self.stats
        fe = self.frontend
        trace = fe.trace
        trace_entries = trace.entries
        fe_predict = fe._predict
        buffer = fe.buffer
        fetch_width = config.fetch_width
        fetch_buffer_entries = config.fetch_buffer_entries
        icache_access = self.icache.access
        icache_hit = self.icache.hit_latency
        bpu_stats = stats.predictor
        rob = self.rob
        rob_q = rob._queue
        rob_entries = rob.entries
        rob_stats = stats.rob
        iq_int = self.iq_int
        iq_mem = self.iq_mem
        iq_fp = self.iq_fp
        int_q = iq_int._queue
        mem_q = iq_mem._queue
        fp_q = iq_fp._queue
        int_iq_stats = stats.int_iq
        mem_iq_stats = stats.mem_iq
        fp_iq_stats = stats.fp_iq
        int_iq_entries = iq_int.entries
        mem_iq_entries = iq_mem.entries
        fp_iq_entries = iq_fp.entries
        int_slot_writes = int_iq_stats.slot_writes
        mem_slot_writes = mem_iq_stats.slot_writes
        fp_slot_writes = fp_iq_stats.slot_writes
        # Collapse slot writes land on a contiguous run of new positions;
        # each select marks the run in a difference array that settle()
        # folds into slot_writes.
        int_diff = [0] * int_iq_entries
        mem_diff = [0] * mem_iq_entries
        fp_diff = [0] * fp_iq_entries
        int_hist = iq_int._occ_hist
        mem_hist = iq_mem._occ_hist
        fp_hist = iq_fp._occ_hist
        lsu = self.lsu
        ldq = lsu._ldq
        stq = lsu._stq
        lsu_stats = stats.lsu
        ldq_entries = config.ldq_entries
        stq_entries = config.stq_entries
        fus = self.fus
        exec_stats = stats.execute
        dcache = self.dcache
        dcache_access = dcache.access
        dcache_mshrs = dcache._mshrs
        dcache_stats = stats.dcache
        int_unit = self.rename.int_unit
        fp_unit = self.rename.fp_unit
        int_ren_stats = int_unit.stats
        fp_ren_stats = fp_unit.stats
        x_producers = int_unit.producers
        f_producers = fp_unit.producers
        int_rf = stats.int_regfile
        fp_rf = stats.fp_regfile
        frontend_stats = stats.frontend
        completions = self._completions
        acc = stats.accounting
        by_trace = acc.dispatch_by_trace
        by_class = stats.retired_by_class
        commit_width = config.commit_width
        decode_width = config.decode_width
        alu_units = config.alu_units
        mem_units = config.mem_units
        fp_units = config.fp_units
        max_branches = config.max_branches
        lazy_fp = config.fp_rename_lazy_snapshots
        _COMPLETED = COMPLETED
        _ISSUED = ISSUED
        _ALU = OpClass.ALU
        _SYSTEM = OpClass.SYSTEM
        _BRANCH = OpClass.BRANCH
        _JAL = OpClass.JAL
        _JALR = OpClass.JALR
        _MUL = OpClass.MUL
        _DIV = OpClass.DIV
        _FP_ALU = OpClass.FP_ALU
        _FP_MUL = OpClass.FP_MUL
        _FP_CVT = OpClass.FP_CVT
        _FP_DIV = OpClass.FP_DIV
        _REDIRECT = REDIRECT_PENALTY
        _LINE = _LINE_SHIFT
        retire_log = self.retire_log
        # The core state the loop owns while it runs: load() reads it
        # off the core, settle() writes it back.
        cycle = retired_total = entry_retired = branches_in_flight = 0
        fp_in_flight = pos = fe_pc = seq = stall_until = 0
        x_free = x_free_mark = f_free = f_free_mark = 0
        blocked = None
        cycles_count = 0
        # Structure sizes tracked incrementally (mirrors len() exactly:
        # every append/popleft/remove/rebind below adjusts its counter).
        rob_n = len(rob_q)
        int_n = len(int_q)
        mem_n = len(mem_q)
        fp_n = len(fp_q)
        ldq_n = len(ldq)
        stq_n = len(stq)
        buf_n = len(buffer)
        exited = trace.exited
        n_entries = len(trace_entries)
        # Per-call accumulators for counters bumped (multiple times) per
        # cycle; folded into the stats tree in the finally block.
        fbo = 0        # frontend fetch_buffer_occupancy
        fs = 0         # frontend fetch_stall_cycles
        ica = 0        # icache accesses == predictor lookups
        icm = 0        # icache misses
        fbw = 0        # fetch_buffer_writes
        dw = 0         # rob dispatch_writes == fetch_buffer_reads
        rob_occ = 0    # rob occupancy sum
        ldq_occ = 0
        stq_occ = 0
        acc_rob = 0    # accounting occupancy-at-retire sums
        acc_iq = 0
        acc_lsu = 0
        wb = 0         # wakeup broadcasts (same count for all 3 queues)
        irf_w = 0      # int regfile writes
        fprf_w = 0     # fp regfile writes
        # Rename: the free counts are authoritative here and settled onto
        # the units; the frees since the last load are implied by
        # free - free_mark + allocs.
        x_alloc = 0    # int allocs == map writes
        f_alloc = 0
        x_reads = 0    # map-table reads
        f_reads = 0
        x_snap = 0     # int snapshots == control uops dispatched
        f_snap = 0
        flushes = 0    # mispredict flushes == int snapshot restores
        f_rest = 0     # fp snapshot restores
        # A queue goes "stale" after a scan that issued nothing and
        # mutated no state; readiness is event-driven (a completion, a
        # dispatch into the queue, or a busy-divider retry), so a stale
        # queue scans identically — and silently — until the next event.
        int_stale = False
        mem_stale = False
        fp_stale = False

        def finish_issue(uop: Uop, cycle: int, latency: int) -> None:
            # Inline twin of _finish_issue (closure-hoisted stats refs).
            uop.state = _ISSUED
            uop.issue_cycle = cycle
            if account:
                bypassed_x = 0
                bypassed_f = 0
                threshold = cycle - 1
                for producer in uop.srcs:
                    if producer.complete_cycle >= threshold:
                        if producer.dest_kind == "x":
                            bypassed_x += 1
                        else:
                            bypassed_f += 1
                int_rf.bypasses += bypassed_x
                fp_rf.bypasses += bypassed_f
                extra = uop.x_reads - bypassed_x
                if extra > 0:
                    int_rf.reads += extra
                extra = uop.f_reads - bypassed_f
                if extra > 0:
                    fp_rf.reads += extra
            complete_cycle = cycle + latency
            uop.complete_cycle = complete_cycle
            bucket = completions.get(complete_cycle)
            if bucket is None:
                completions[complete_cycle] = [uop]
            else:
                bucket.append(uop)

        def select(queue: list, n: int, units: int, q_stats, diff: list,
                   cycle: int):
            # Inline twin of IssueQueue.select for the int and fp
            # queues: issues up to ``units`` ready uops oldest-first and
            # collapses the queue in place.  Returns how many issued and
            # whether a busy divider turned a ready uop away.
            issued = None
            index = 0
            div_blocked = False
            for uop in queue:
                for producer in uop.srcs:
                    if producer.complete_cycle > cycle:
                        break
                else:
                    # ExecutionUnits.can_accept + dispatch, unrolled per
                    # opclass (same counters and latencies as
                    # execute.LATENCY).
                    opclass = uop.opclass
                    latency = 0
                    if opclass is _ALU or opclass is _SYSTEM:
                        exec_stats.alu_ops += 1
                        latency = 1
                    elif opclass is _BRANCH or opclass is _JAL \
                            or opclass is _JALR:
                        exec_stats.branch_ops += 1
                        exec_stats.alu_ops += 1
                        latency = 1
                    elif opclass is _MUL:
                        exec_stats.mul_ops += 1
                        latency = 3
                    elif opclass is _FP_ALU:
                        exec_stats.fp_alu_ops += 1
                        latency = 3
                    elif opclass is _FP_MUL:
                        exec_stats.fp_mul_ops += 1
                        latency = 4
                    elif opclass is _FP_CVT:
                        exec_stats.fp_cvt_ops += 1
                        latency = 2
                    elif opclass is _DIV:
                        if fus._div_busy_until <= cycle:
                            fus._div_busy_until = cycle + 13
                            exec_stats.div_ops += 1
                            exec_stats.div_busy_cycles += 13
                            latency = 13
                        else:
                            div_blocked = True
                    elif opclass is _FP_DIV:
                        if fus._fp_div_busy_until <= cycle:
                            fus._fp_div_busy_until = cycle + 16
                            exec_stats.fp_div_ops += 1
                            latency = 16
                        else:
                            div_blocked = True
                    if latency:
                        finish_issue(uop, cycle, latency)
                        if issued is None:
                            issued = [index]
                        else:
                            issued.append(index)
                        if len(issued) >= units:
                            break
                index += 1
            if issued is None:
                return 0, div_blocked
            # Collapse in place: drop the issued entries (ascending
            # indices).  The survivors behind the first issued entry each
            # shift once, into the new positions first .. n-k-1 (n-k <
            # entries, so the run's end mark stays inside diff).
            k = len(issued)
            for index in reversed(issued):
                del queue[index]
            q_stats.issues += k
            if account:
                first = issued[0]
                moved = n - first - k
                if moved:
                    q_stats.shifts += moved
                    diff[first] += 1
                    diff[n - k] -= 1
            return k, div_blocked

        def settle() -> None:
            # Locals are authoritative inside the loop; sync them back
            # onto the core and fold the per-call accumulators into the
            # stats tree, then zero the accumulators so the fold stays
            # additive.  Runs on loop exit and before every observer
            # stride: after it returns the core reads exactly as if
            # the generic loop had been stepping it.
            nonlocal cycles_count, fbo, fs, ica, icm, fbw, dw, rob_occ, \
                ldq_occ, stq_occ, acc_rob, acc_iq, acc_lsu, wb, irf_w, \
                fprf_w, x_alloc, f_alloc, x_reads, f_reads, x_snap, \
                f_snap, flushes, f_rest
            self.cycle = cycle
            self.retired_total = retired_total
            self.branches_in_flight = branches_in_flight
            self.fp_in_flight = fp_in_flight
            stats.cycles += cycles_count
            fe.pos = pos
            fe.pc = fe_pc
            fe._seq = seq
            fe.stall_until = stall_until
            fe.blocked_by = blocked
            delta = retired_total - entry_retired
            stats.retired += delta
            rob_stats.commit_reads += delta
            acc.retires_sampled += delta
            acc.rob_occupancy_at_retire += acc_rob
            acc.iq_occupancy_at_retire += acc_iq
            acc.lsu_occupancy_at_retire += acc_lsu
            rob_stats.occupancy += rob_occ
            rob_stats.dispatch_writes += dw
            rob_stats.flushes += flushes
            frontend_stats.fetch_buffer_occupancy += fbo
            frontend_stats.fetch_stall_cycles += fs
            frontend_stats.icache_accesses += ica
            frontend_stats.icache_misses += icm
            frontend_stats.fetch_buffer_writes += fbw
            frontend_stats.fetch_buffer_reads += dw
            bpu_stats.lookups += ica
            lsu_stats.ldq_occupancy += ldq_occ
            lsu_stats.stq_occupancy += stq_occ
            int_iq_stats.wakeup_broadcasts += wb
            mem_iq_stats.wakeup_broadcasts += wb
            fp_iq_stats.wakeup_broadcasts += wb
            int_rf.writes += irf_w
            fp_rf.writes += fprf_w
            for unit, ren_stats, free, mark, allocs, reads, snaps, \
                    restores in ((int_unit, int_ren_stats, x_free,
                                  x_free_mark, x_alloc, x_reads, x_snap,
                                  flushes),
                                 (fp_unit, fp_ren_stats, f_free,
                                  f_free_mark, f_alloc, f_reads, f_snap,
                                  f_rest)):
                frees = free - mark + allocs
                unit.free = free
                unit.total_allocs += allocs
                unit.total_frees += frees
                unit.total_snapshots += snaps
                unit.total_restores += restores
                ren_stats.map_reads += reads
                ren_stats.map_writes += allocs
                ren_stats.freelist_allocs += allocs
                ren_stats.freelist_frees += frees
                ren_stats.snapshots += snaps
                ren_stats.snapshot_restores += restores
            for diff, slot_writes in ((int_diff, int_slot_writes),
                                      (mem_diff, mem_slot_writes),
                                      (fp_diff, fp_slot_writes)):
                run = 0
                for slot in range(len(diff)):
                    run += diff[slot]
                    diff[slot] = 0
                    slot_writes[slot] += run
            cycles_count = 0
            fbo = fs = ica = icm = fbw = dw = 0
            rob_occ = ldq_occ = stq_occ = 0
            acc_rob = acc_iq = acc_lsu = 0
            wb = irf_w = fprf_w = 0
            x_alloc = f_alloc = x_reads = f_reads = 0
            x_snap = f_snap = flushes = f_rest = 0

        def load() -> None:
            # The inverse of settle(): read the state settle() writes
            # back off the core, restarting the retire and free-count
            # marks.  Runs at entry and after every observer stride, so
            # a value an observer wrote is the one the loop goes on with.
            nonlocal cycle, retired_total, entry_retired, \
                branches_in_flight, fp_in_flight, pos, fe_pc, seq, \
                stall_until, blocked, x_free, x_free_mark, f_free, \
                f_free_mark
            cycle = self.cycle
            retired_total = entry_retired = self.retired_total
            branches_in_flight = self.branches_in_flight
            fp_in_flight = self.fp_in_flight
            pos = fe.pos
            fe_pc = fe.pc
            seq = fe._seq
            stall_until = fe.stall_until
            blocked = fe.blocked_by
            x_free = x_free_mark = int_unit.free
            f_free = f_free_mark = fp_unit.free

        load()

        # -1 when unobserved: the countdown decrements forever without
        # hitting zero, so the disabled cost is one int op per cycle.
        countdown = _OBSERVER_STRIDE if observers else -1

        try:
            while True:
                if target is not None and retired_total >= target:
                    break
                if not buf_n and not rob_n and exited \
                        and pos >= n_entries:
                    break

                # ---- commit ----
                width = commit_width
                while width > 0 and rob_n:
                    head = rob_q[0]
                    if head.complete_cycle >= cycle:
                        break
                    if head.is_store:
                        latency = dcache_access(head.mem_addr, cycle,
                                                is_write=True)
                        if latency is None:
                            break  # all MSHRs busy; retry next cycle
                    rob_q.popleft()
                    rob_n -= 1
                    dest_kind = head.dest_kind
                    if dest_kind:
                        if dest_kind == "x":
                            x_free += 1
                            producers = x_producers
                        else:
                            f_free += 1
                            producers = f_producers
                        rd = head.instr.rd
                        if producers.get(rd) is head:
                            del producers[rd]
                    if head.is_load:
                        ldq.remove(head)
                        ldq_n -= 1
                    elif head.is_store:
                        stq.remove(head)
                        stq_n -= 1
                    if head.is_control:
                        branches_in_flight -= 1
                    if dest_kind == "f" or head.queue == "fp":
                        fp_in_flight -= 1
                    if retire_log is not None:
                        retire_log.append((head, cycle))
                    if account:
                        acc_rob += rob_n
                        acc_iq += int_n + mem_n + fp_n
                        acc_lsu += ldq_n + stq_n
                        name = head.opclass_name
                        by_class[name] = by_class.get(name, 0) + 1
                    retired_total += 1
                    width -= 1

                # ---- complete / writeback ----
                done = completions.pop(cycle, None)
                if done:
                    int_stale = mem_stale = fp_stale = False
                    for uop in done:
                        uop.state = _COMPLETED
                        dest_kind = uop.dest_kind
                        if dest_kind == "x":
                            irf_w += 1
                        elif dest_kind == "f":
                            fprf_w += 1
                        if dest_kind:
                            wb += 1
                        if uop.mispredicted:
                            flushes += 1
                            if uop.fp_snapshotted:
                                f_rest += 1

                # ---- issue: int queue (collapsing select) ----
                if int_n and not int_stale:
                    issued_n, div_blocked = select(
                        int_q, int_n, alu_units, int_iq_stats, int_diff,
                        cycle)
                    if issued_n:
                        int_n -= issued_n
                    elif not div_blocked:
                        int_stale = True

                # ---- issue: mem queue ----
                if mem_n and not mem_stale:
                    issued = None
                    index = 0
                    touched = False
                    for uop in mem_q:
                        for producer in uop.srcs:
                            if producer.complete_cycle > cycle:
                                break
                        else:
                            took = False
                            if uop.is_load:
                                lseq = uop.seq
                                may = True
                                for store in stq:
                                    if store.seq > lseq:
                                        break
                                    if not store.addr_ready:
                                        may = False
                                        break
                                if may:
                                    touched = True
                                    exec_stats.agu_ops += 1
                                    addr = uop.mem_addr
                                    tline = addr >> 3
                                    hit = False
                                    searches = 0
                                    for store in stq:
                                        if store.seq > lseq:
                                            break
                                        searches += 1
                                        if store.addr_ready and \
                                                (store.mem_addr >> 3) \
                                                == tline:
                                            hit = True
                                    lsu_stats.cam_searches += searches
                                    if hit:
                                        lsu_stats.forwards += 1
                                        finish_issue(uop, cycle,
                                                     _FORWARD_LATENCY)
                                        took = True
                                    else:
                                        access = dcache_access(addr, cycle)
                                        if access is not None:
                                            finish_issue(uop, cycle,
                                                         access)
                                            took = True
                            else:
                                # Store AGU pass: STORE/FP_STORE both
                                # count one AGU op, single-cycle.
                                exec_stats.agu_ops += 1
                                uop.addr_ready = True
                                finish_issue(uop, cycle, 1)
                                took = True
                            if took:
                                if issued is None:
                                    issued = [index]
                                else:
                                    issued.append(index)
                                if len(issued) >= mem_units:
                                    break
                        index += 1
                    if issued is not None:
                        # The in-place collapse of select, above.
                        k = len(issued)
                        for index in reversed(issued):
                            del mem_q[index]
                        mem_iq_stats.issues += k
                        if account:
                            first = issued[0]
                            moved = mem_n - first - k
                            if moved:
                                mem_iq_stats.shifts += moved
                                mem_diff[first] += 1
                                mem_diff[mem_n - k] -= 1
                        mem_n -= k
                    elif not touched:
                        # No load reached its AGU/CAM step, so the scan
                        # was side-effect free and will stay that way
                        # until a completion, dispatch, or store issue.
                        mem_stale = True

                # ---- issue: fp queue (collapsing select) ----
                if fp_n and not fp_stale:
                    issued_n, div_blocked = select(
                        fp_q, fp_n, fp_units, fp_iq_stats, fp_diff, cycle)
                    if issued_n:
                        fp_n -= issued_n
                    elif not div_blocked:
                        fp_stale = True

                # ---- dispatch (decode + rename) ----
                if buf_n:
                    width = decode_width
                    while width > 0 and buf_n:
                        uop = buffer[0]
                        if rob_n >= rob_entries:
                            rob_stats.full_stall_cycles += 1
                            break
                        qname = uop.queue
                        if qname == "int":
                            if int_n >= int_iq_entries:
                                int_iq_stats.full_stall_cycles += 1
                                break
                            q = int_q
                            q_stats = int_iq_stats
                            q_n = int_n
                            qsel = 0
                        elif qname == "mem":
                            if mem_n >= mem_iq_entries:
                                mem_iq_stats.full_stall_cycles += 1
                                break
                            q = mem_q
                            q_stats = mem_iq_stats
                            q_n = mem_n
                            qsel = 1
                        else:
                            if fp_n >= fp_iq_entries:
                                fp_iq_stats.full_stall_cycles += 1
                                break
                            q = fp_q
                            q_stats = fp_iq_stats
                            q_n = fp_n
                            qsel = 2
                        dest_kind = uop.dest_kind
                        if dest_kind == "x":
                            if x_free <= 0:
                                int_ren_stats.stall_cycles += 1
                                break
                        elif dest_kind and f_free <= 0:
                            fp_ren_stats.stall_cycles += 1
                            break
                        if uop.is_control \
                                and branches_in_flight >= max_branches:
                            break
                        if uop.is_load:
                            if ldq_n >= ldq_entries:
                                break
                        elif uop.is_store:
                            if stq_n >= stq_entries:
                                break
                        buffer.popleft()
                        buf_n -= 1
                        sources = []
                        for kind, reg in uop.src_regs:
                            if kind == "x":
                                x_reads += 1
                                producer = x_producers.get(reg)
                            else:
                                f_reads += 1
                                producer = f_producers.get(reg)
                            if producer is not None:
                                sources.append(producer)
                        uop.srcs = tuple(sources)
                        if dest_kind == "x":
                            x_free -= 1
                            x_alloc += 1
                            x_producers[uop.instr.rd] = uop
                        elif dest_kind:
                            f_free -= 1
                            f_alloc += 1
                            f_producers[uop.instr.rd] = uop
                        if uop.is_control:
                            x_snap += 1
                            branches_in_flight += 1
                            if not lazy_fp or fp_in_flight > 0:
                                f_snap += 1
                                uop.fp_snapshotted = True
                        uop.dispatch_cycle = cycle
                        rob_q.append(uop)
                        rob_n += 1
                        dw += 1
                        q.append(uop)
                        if qsel == 0:
                            int_n = q_n + 1
                            int_stale = False
                        elif qsel == 1:
                            mem_n = q_n + 1
                            mem_stale = False
                        else:
                            fp_n = q_n + 1
                            fp_stale = False
                        if uop.is_load:
                            ldq.append(uop)
                            ldq_n += 1
                            lsu_stats.ldq_writes += 1
                        elif uop.is_store:
                            stq.append(uop)
                            stq_n += 1
                            lsu_stats.stq_writes += 1
                        if dest_kind == "f" or qname == "fp":
                            fp_in_flight += 1
                        if account:
                            q_stats.writes += 1
                            q_stats.slot_writes[q_n] += 1
                            key = uop.trace_key
                            by_trace[key] = by_trace.get(key, 0) + 1
                        width -= 1

                # ---- fetch (FetchUnit.cycle, inlined) ----
                fbo += buf_n
                if pos + fetch_width > n_entries and not exited:
                    fe.pos = pos
                    fe.extend(fetch_width)
                    pos = fe.pos
                    n_entries = len(trace_entries)
                    exited = trace.exited
                if pos < n_entries or not exited:
                    if blocked is not None:
                        if cycle >= blocked.complete_cycle + _REDIRECT:
                            fe.blocked_by = blocked = None
                        else:
                            fs += 1
                    if blocked is None:
                        if cycle < stall_until:
                            fs += 1
                        else:
                            space = fetch_buffer_entries - buf_n
                            if space > 0:
                                latency = icache_access(fe_pc, cycle)
                                ica += 1
                                if latency is None:
                                    stall_until = cycle + 1
                                    fs += 1
                                elif latency > icache_hit:
                                    icm += 1
                                    stall_until = cycle + latency
                                    fs += 1
                                else:
                                    budget = fetch_width \
                                        if fetch_width < space else space
                                    line = fe_pc >> _LINE
                                    predicted = False
                                    while budget > 0 and pos < n_entries:
                                        entry = trace_entries[pos]
                                        dec, epc, mem_addr, taken, \
                                            next_pc = entry
                                        if epc >> _LINE != line:
                                            break
                                        uop = dec.make_uop(seq)
                                        seq += 1
                                        if dec.is_mem:
                                            uop.mem_addr = mem_addr
                                        pos += 1
                                        fe_pc = next_pc
                                        buffer.append(uop)
                                        buf_n += 1
                                        fbw += 1
                                        budget -= 1
                                        if dec.is_control:
                                            predicted = True
                                            if fe_predict(uop, epc, taken,
                                                          next_pc, cycle):
                                                break
                                    if predicted:
                                        # _predict may have set a redirect
                                        # block or a BTB bubble; re-sync
                                        # the hoisted locals.  A stale
                                        # stall_until is always <= cycle
                                        # (it last gated a passed cycle),
                                        # so re-reading it is harmless.
                                        blocked = fe.blocked_by
                                        stall_until = fe.stall_until

                # ---- per-cycle occupancy sampling ----
                if account:
                    rob_occ += rob_n
                    int_hist[int_n] += 1
                    mem_hist[mem_n] += 1
                    fp_hist[fp_n] += 1
                    ldq_occ += ldq_n
                    stq_occ += stq_n
                    if dcache_mshrs:
                        dcache_stats.mshr_occupancy += \
                            dcache.mshr_occupancy(cycle)

                cycle += 1
                cycles_count += 1
                countdown -= 1
                if countdown == 0:
                    countdown = _OBSERVER_STRIDE
                    settle()
                    self._flush_samples()
                    for observer in observers:
                        observer()
                    load()
                if cycle > deadline:
                    raise SimulationError(
                        f"pipeline made no progress for "
                        f"{_SAFETY_FACTOR}x the instruction budget "
                        f"(deadlock?) at cycle {cycle}")
        finally:
            # Settle before control (or an exception) leaves the loop.
            settle()

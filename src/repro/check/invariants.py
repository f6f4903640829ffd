"""Runtime conservation laws for the detailed core.

A :class:`CoreInvariantChecker` is one of the observers of
:meth:`BoomCore.run`, so it fires every ``_OBSERVER_STRIDE`` cycles
*between* pipeline steps — never mid-step — and sees settled state.
Like every observer it only reads: it inspects structural occupancies
and counters, recomputes what they must add up to, and raises
:class:`~repro.errors.InvariantViolation` on the first law that fails.
With checks off the core's hot loop is untouched, and a checked run
retires exactly the same instructions as an unchecked one.

The laws, by structure:

rename (per unit)
    ``free`` never negative, never above ``phys - 32``; every in-flight
    destination in the ROB holds exactly one physical register, so
    ``free + in_flight == phys - 32`` and lifetime
    ``allocs - frees == in_flight``; snapshot restores never outnumber
    snapshots (the lazy-FP-snapshot bug this PR fixes broke exactly this).

occupancy
    ROB, the three issue queues, the fetch buffer, and the LDQ/STQ all
    within their configured capacities; issue-queue residents are exactly
    the dispatched-not-issued uops in the ROB; the core's
    ``branches_in_flight`` / ``fp_in_flight`` shadow counters agree with a
    ROB scan; LDQ/STQ contents are exactly the ROB's loads/stores.

caches
    Live MSHRs (fills still in flight) never exceed the configured count.

register-file ports
    Over each window between two checks, read/write counts stay within
    what the issue bandwidth can generate: reads are counted at issue, so
    ``Δreads <= Δcycles * read_bandwidth``; writes are counted at
    completion and complete bursts can drain the whole in-flight window,
    so ``Δwrites <= Δcycles * issue_width + rob_entries``.  (The int RF
    read-port count equals ``2 * (alu + mem)`` in every configuration;
    the bandwidth bound adds only the FP-queue ops that read an integer
    operand, e.g. ``fcvt.d.w``.)
"""

from __future__ import annotations

from repro.errors import InvariantViolation
from repro.uarch.uop import DISPATCHED


class CoreInvariantChecker:
    """Conservation-law observer for one :class:`BoomCore`.

    List it among the observers of ``core.run``::

        checker = CoreInvariantChecker(core)
        core.run(budget, observers=[checker])
        checker.check()   # final state, after the run returns
    """

    def __init__(self, core) -> None:
        self.core = core
        self.checks_run = 0
        # (stats identity, cycles, int reads/writes, fp reads/writes) at
        # the previous check — the baseline for port-budget deltas.
        self._port_baseline: tuple | None = None

    # -- observer protocol --------------------------------------------

    def __call__(self) -> None:
        self.check()

    # -- the laws ------------------------------------------------------

    def check(self) -> None:
        """Run every invariant against the core's current state."""
        self.checks_run += 1
        core = self.core
        rob_uops = list(core.rob)
        self._check_rename(rob_uops)
        self._check_occupancy(rob_uops)
        self._check_lsu(rob_uops)
        self._check_mshrs()
        self._check_port_budgets()

    def _fail(self, invariant: str, message: str) -> None:
        raise InvariantViolation(invariant, message, cycle=self.core.cycle)

    def _check_rename(self, rob_uops: list) -> None:
        for unit in (self.core.rename.int_unit, self.core.rename.fp_unit):
            kind = unit.kind
            budget = unit.phys_regs - 32
            in_flight = sum(1 for u in rob_uops if u.dest_kind == kind)
            if unit.free < 0:
                self._fail(f"rename.{kind}.free_nonneg",
                           f"free list underflow: free={unit.free}")
            if unit.free > budget:
                self._fail(f"rename.{kind}.free_bound",
                           f"free={unit.free} exceeds phys-32={budget}")
            if unit.free + in_flight != budget:
                self._fail(
                    f"rename.{kind}.conservation",
                    f"free={unit.free} + in_flight={in_flight} != "
                    f"phys-32={budget}")
            if unit.total_allocs - unit.total_frees != in_flight:
                self._fail(
                    f"rename.{kind}.alloc_balance",
                    f"allocs={unit.total_allocs} - "
                    f"frees={unit.total_frees} != in_flight={in_flight}")
            if unit.total_restores > unit.total_snapshots:
                self._fail(
                    f"rename.{kind}.snapshot_balance",
                    f"restores={unit.total_restores} exceed "
                    f"snapshots={unit.total_snapshots}")

    def _check_occupancy(self, rob_uops: list) -> None:
        core = self.core
        config = core.config
        if len(core.rob) > core.rob.entries:
            self._fail("rob.capacity",
                       f"{len(core.rob)} uops in a "
                       f"{core.rob.entries}-entry ROB")
        queued = 0
        for name, queue in core._queues.items():
            occupancy = len(queue)
            queued += occupancy
            if occupancy > queue.entries:
                self._fail(f"iq.{name}.capacity",
                           f"{occupancy} uops in a "
                           f"{queue.entries}-entry queue")
        dispatched = sum(1 for u in rob_uops if u.state == DISPATCHED)
        if queued != dispatched:
            self._fail("iq.rob_membership",
                       f"{queued} uops resident in issue queues but "
                       f"{dispatched} dispatched-not-issued uops in ROB")
        buffered = len(core.frontend.buffer)
        if buffered > config.fetch_buffer_entries:
            self._fail("frontend.buffer_capacity",
                       f"{buffered} uops in a "
                       f"{config.fetch_buffer_entries}-entry fetch buffer")
        branches = sum(1 for u in rob_uops if u.is_control)
        if core.branches_in_flight != branches:
            self._fail("branches.accounting",
                       f"branches_in_flight={core.branches_in_flight} "
                       f"but ROB holds {branches} control uops")
        if core.branches_in_flight > config.max_branches:
            self._fail("branches.capacity",
                       f"{core.branches_in_flight} branches in flight, "
                       f"max_branches={config.max_branches}")
        fp = sum(1 for u in rob_uops
                 if u.dest_kind == "f" or u.queue == "fp")
        if core.fp_in_flight != fp:
            self._fail("fp.accounting",
                       f"fp_in_flight={core.fp_in_flight} "
                       f"but ROB holds {fp} FP uops")

    def _check_lsu(self, rob_uops: list) -> None:
        core = self.core
        config = core.config
        # White-box: the LDQ/STQ lists are the LSU's only state.
        ldq = len(core.lsu._ldq)
        stq = len(core.lsu._stq)
        if ldq > config.ldq_entries:
            self._fail("lsu.ldq_capacity",
                       f"{ldq} loads in a {config.ldq_entries}-entry LDQ")
        if stq > config.stq_entries:
            self._fail("lsu.stq_capacity",
                       f"{stq} stores in a {config.stq_entries}-entry STQ")
        loads = sum(1 for u in rob_uops if u.is_load)
        stores = sum(1 for u in rob_uops if u.is_store)
        if ldq != loads:
            self._fail("lsu.ldq_accounting",
                       f"LDQ holds {ldq} loads but ROB holds {loads}")
        if stq != stores:
            self._fail("lsu.stq_accounting",
                       f"STQ holds {stq} stores but ROB holds {stores}")

    def _check_mshrs(self) -> None:
        core = self.core
        cycle = core.cycle
        for name, cache in (("icache", core.icache), ("dcache",
                                                      core.dcache)):
            live = cache.mshrs_in_flight(cycle)
            limit = cache.params.mshrs
            if live > limit:
                self._fail(f"cache.{name}.mshr_capacity",
                           f"{live} fills in flight, {limit} MSHRs")

    def _check_port_budgets(self) -> None:
        core = self.core
        stats = core.stats
        snapshot = (stats.cycles,
                    stats.int_regfile.reads, stats.int_regfile.writes,
                    stats.fp_regfile.reads, stats.fp_regfile.writes)
        baseline = self._port_baseline
        self._port_baseline = (id(stats),) + snapshot
        if baseline is None or baseline[0] != id(stats):
            # First check, or begin_measurement() swapped the stats tree
            # in between: no comparable window, just re-baseline.
            return
        d_cycles = snapshot[0] - baseline[1]
        if d_cycles <= 0:
            return
        config = core.config
        issue_width = (config.alu_units + config.mem_units
                       + config.fp_units)
        # Reads happen at issue: 2 int operands per int/mem-queue op plus
        # one for FP-queue ops with an integer source; 3 fp operands per
        # FP-queue op (FMA) plus store data on the mem queue.
        int_read_bw = (2 * (config.alu_units + config.mem_units)
                       + config.fp_units)
        fp_read_bw = 3 * config.fp_units + config.mem_units
        burst_slack = config.rob_entries
        budgets = (
            ("int_regfile.read_ports", snapshot[1] - baseline[2],
             d_cycles * int_read_bw),
            ("int_regfile.write_ports", snapshot[2] - baseline[3],
             d_cycles * issue_width + burst_slack),
            ("fp_regfile.read_ports", snapshot[3] - baseline[4],
             d_cycles * fp_read_bw),
            ("fp_regfile.write_ports", snapshot[4] - baseline[5],
             d_cycles * issue_width + burst_slack),
        )
        for invariant, used, budget in budgets:
            if used > budget:
                self._fail(invariant,
                           f"{used} accesses in a {d_cycles}-cycle "
                           f"window, budget {budget}")

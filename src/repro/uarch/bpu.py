"""Branch prediction: TAGE, the gshare baseline, BTB, and RAS.

SonicBOOM's default direction predictor is TAGE; the paper's predecessor
study [14] used gshare, and Key Takeaway #7 compares the two (TAGE burns
~2.5x the power).  Both are implemented here behind one interface so the
ablation benchmark can swap them per configuration.

The model is trace-driven: predictions are made against the oracle outcome
at fetch time, global history is updated with the actual outcome (the
standard trace-driven simplification), and every structure access bumps an
activity counter for the power model.  A direction predictor therefore
sees only the trace's conditional branches, in order, so the cores of a
batch share one run of it per direction config (:class:`DirectionMemo`).
"""

from __future__ import annotations

from repro.uarch.config import PredictorParams
from repro.uarch.stats import PredictorStats

_TAKEN_THRESHOLD = 2  # 2-bit counters: 0,1 not-taken / 2,3 taken


def _fold(value: int, bits: int, out_bits: int) -> int:
    """XOR-fold the low ``bits`` of ``value`` into ``out_bits`` bits."""
    value &= (1 << bits) - 1
    folded = 0
    while value:
        folded ^= value & ((1 << out_bits) - 1)
        value >>= out_bits
    return folded


class BranchTargetBuffer:
    """Direct-mapped BTB: (tag, target) per entry."""

    def __init__(self, entries: int, stats: PredictorStats) -> None:
        self.entries = entries
        self._tags = [0] * entries
        self._targets = [0] * entries
        self._valid = [False] * entries
        self.stats = stats

    def _index(self, pc: int) -> int:
        return (pc >> 2) % self.entries

    def lookup(self, pc: int) -> int | None:
        """Predicted target for ``pc``, or None on a BTB miss."""
        self.stats.btb_lookups += 1
        index = self._index(pc)
        if self._valid[index] and self._tags[index] == pc:
            return self._targets[index]
        self.stats.btb_misses += 1
        return None

    def update(self, pc: int, target: int) -> None:
        self.stats.btb_updates += 1
        index = self._index(pc)
        self._tags[index] = pc
        self._targets[index] = target
        self._valid[index] = True


class ReturnAddressStack:
    """A bounded return-address stack."""

    def __init__(self, entries: int, stats: PredictorStats) -> None:
        self.entries = entries
        self._stack: list[int] = []
        self.stats = stats

    def push(self, address: int) -> None:
        self.stats.ras_pushes += 1
        if len(self._stack) == self.entries:
            self._stack.pop(0)
        self._stack.append(address)

    def pop(self) -> int | None:
        self.stats.ras_pops += 1
        return self._stack.pop() if self._stack else None


class GsharePredictor:
    """Classic gshare: global history XOR pc indexes 2-bit counters."""

    kind = "gshare"
    #: direction-table reads per prediction
    reads = 1

    def __init__(self, params: PredictorParams,
                 stats: PredictorStats) -> None:
        self.entries = params.gshare_entries
        self.history_bits = params.gshare_history_bits
        self._table = [1] * self.entries  # weakly not-taken
        self._history = 0
        self.stats = stats

    def _index(self, pc: int) -> int:
        return ((pc >> 2) ^ self._history) % self.entries

    def predict(self, pc: int) -> bool:
        self.stats.dir_table_reads += self.reads
        return self._table[self._index(pc)] >= _TAKEN_THRESHOLD

    def update(self, pc: int, taken: bool) -> None:
        self.stats.dir_updates += 1
        index = self._index(pc)
        counter = self._table[index]
        if taken:
            self._table[index] = min(3, counter + 1)
        else:
            self._table[index] = max(0, counter - 1)
        mask = (1 << self.history_bits) - 1
        self._history = ((self._history << 1) | int(taken)) & mask


class TagePredictor:
    """TAGE: a bimodal base plus tagged tables with geometric histories."""

    kind = "tage"

    def __init__(self, params: PredictorParams,
                 stats: PredictorStats) -> None:
        self.params = params
        self.stats = stats
        self._base = [1] * params.tage_base_entries
        self.num_tables = params.tage_tables
        #: direction-table reads per prediction: every tagged table and
        #: the base are read in parallel (power!)
        self.reads = self.num_tables + 1
        size = params.tage_table_entries
        # Per tagged table: tags, 3-bit signed-ish counters (0..7), useful.
        self._tags = [[0] * size for _ in range(self.num_tables)]
        self._ctrs = [[4] * size for _ in range(self.num_tables)]
        self._useful = [[0] * size for _ in range(self.num_tables)]
        self._valid = [[False] * size for _ in range(self.num_tables)]
        self._history = 0
        self._history_lengths = params.tage_history_lengths
        self._index_bits = (size - 1).bit_length()
        self._provider: int | None = None
        self._provider_index = 0
        self._pred: bool = False
        self._altpred: bool = False

    def _table_index(self, pc: int, table: int) -> int:
        length = self._history_lengths[table]
        folded = _fold(self._history, length, self._index_bits)
        return ((pc >> 2) ^ folded ^ (table << 1)) % \
            self.params.tage_table_entries

    def _table_tag(self, pc: int, table: int) -> int:
        length = self._history_lengths[table]
        folded = _fold(self._history, length, self.params.tage_tag_bits)
        return ((pc >> 3) ^ (folded << 1)) & \
            ((1 << self.params.tage_tag_bits) - 1)

    def predict(self, pc: int) -> bool:
        """Predict direction (reads every table, see ``reads``)."""
        self.stats.dir_table_reads += self.reads
        base_pred = self._base[(pc >> 2) % len(self._base)] \
            >= _TAKEN_THRESHOLD
        self._provider = None
        self._pred = base_pred
        self._altpred = base_pred
        for table in range(self.num_tables - 1, -1, -1):
            index = self._table_index(pc, table)
            if self._valid[table][index] and \
                    self._tags[table][index] == self._table_tag(pc, table):
                if self._provider is None:
                    self._provider = table
                    self._provider_index = index
                    self._pred = self._ctrs[table][index] >= 4
                else:
                    self._altpred = self._ctrs[table][index] >= 4
                    break
        return self._pred

    def update(self, pc: int, taken: bool) -> None:
        """Train the provider and allocate on mispredicts."""
        self.stats.dir_updates += 1
        if self._provider is not None:
            table, index = self._provider, self._provider_index
            counter = self._ctrs[table][index]
            self._ctrs[table][index] = min(7, counter + 1) if taken \
                else max(0, counter - 1)
            if self._pred != self._altpred:
                useful = self._useful[table][index]
                self._useful[table][index] = min(3, useful + 1) \
                    if self._pred == taken else max(0, useful - 1)
        else:
            base_index = (pc >> 2) % len(self._base)
            counter = self._base[base_index]
            self._base[base_index] = min(3, counter + 1) if taken \
                else max(0, counter - 1)
        if self._pred != taken:
            self._allocate(pc, taken)
        longest = self._history_lengths[-1]
        self._history = ((self._history << 1) | int(taken)) & \
            ((1 << longest) - 1)

    def _allocate(self, pc: int, taken: bool) -> None:
        """On a mispredict, claim an entry in a longer-history table."""
        start = (self._provider + 1) if self._provider is not None else 0
        for table in range(start, self.num_tables):
            index = self._table_index(pc, table)
            if not self._valid[table][index] or \
                    self._useful[table][index] == 0:
                self._valid[table][index] = True
                self._tags[table][index] = self._table_tag(pc, table)
                self._ctrs[table][index] = 4 if taken else 3
                self._useful[table][index] = 0
                self.stats.allocations += 1
                return
        # No victim: age usefulness so future allocations succeed.
        for table in range(start, self.num_tables):
            index = self._table_index(pc, table)
            self._useful[table][index] = max(
                0, self._useful[table][index] - 1)


def make_direction_predictor(params: PredictorParams,
                             stats: PredictorStats):
    """Factory: the configured direction predictor."""
    if params.kind == "gshare":
        return GsharePredictor(params, stats)
    return TagePredictor(params, stats)


def _direction_key(params: PredictorParams) -> tuple:
    """The params a direction predictor's behaviour depends on (not the
    BTB or RAS sizes)."""
    if params.kind == "gshare":
        return ("gshare", params.gshare_entries, params.gshare_history_bits)
    return ("tage", params.tage_base_entries, params.tage_table_entries,
            params.tage_tables, params.tage_tag_bits,
            params.tage_history_lengths)


class DirectionMemo:
    """One direction predictor's outcomes over a trace's conditional branches.

    The direction predictor trains on the oracle outcome of every
    conditional branch, in trace order, and nothing else, so its
    prediction for conditional branch *k* of a fetch trace is the same
    for every core with the same direction params.  The memo runs one
    predictor (with a private stats sink) for all of them: whichever
    core reaches branch *k* first drives it and records
    ``predicted | allocations_added << 1``; the others read the entry
    through their own cursor.  A memo with ``record`` false (a private
    trace's only reader) drives every branch and keeps nothing.

    A memo must not refer to its trace: traces hold their memos, and a
    cycle would keep a dropped trace alive until the garbage collector
    ran.
    """

    __slots__ = ("predictor", "outcomes", "reads", "record")

    def __init__(self, params: PredictorParams, record: bool = True) -> None:
        self.predictor = make_direction_predictor(params, PredictorStats())
        self.reads = self.predictor.reads
        self.outcomes: list[int] = []
        self.record = record

    @classmethod
    def shared(cls, memos: dict, params: PredictorParams) -> "DirectionMemo":
        """The memo for ``params`` in a trace's ``memos``, made on first use."""
        key = _direction_key(params)
        memo = memos.get(key)
        if memo is None:
            memo = memos[key] = cls(params)
        return memo

    def extend(self, pc: int, taken: bool) -> int:
        """Predict and train on the next conditional branch; its outcome."""
        predictor = self.predictor
        stats = predictor.stats
        allocations = stats.allocations
        outcome = 1 if predictor.predict(pc) else 0
        predictor.update(pc, taken)
        outcome |= (stats.allocations - allocations) << 1
        if self.record:
            self.outcomes.append(outcome)
        return outcome


class BranchPredictionUnit:
    """The full front-end predictor: direction + BTB + RAS.

    The BTB and RAS are private.  Direction predictions come from a
    :class:`DirectionMemo`: one taken from ``memos`` (a shared fetch
    trace's, so a batch runs each direction predictor once), or a
    private one.  Each unit charges its own stats for every prediction.
    """

    def __init__(self, params: PredictorParams, stats: PredictorStats,
                 memos: dict | None = None) -> None:
        self.params = params
        self.stats = stats
        self._memo = DirectionMemo(params, record=False) if memos is None \
            else DirectionMemo.shared(memos, params)
        #: conditional branches predicted so far (index into the memo)
        self._cursor = 0
        self.btb = BranchTargetBuffer(params.btb_entries, stats)
        self.ras = ReturnAddressStack(params.ras_entries, stats)

    def rebind_stats(self, stats: PredictorStats) -> None:
        """Swap the stats sink (measurement-window boundaries)."""
        self.stats = stats
        self.btb.stats = stats
        self.ras.stats = stats

    # ------------------------------------------------------------------
    # per-control-instruction prediction against the oracle outcome
    # ------------------------------------------------------------------

    def predict_conditional(self, pc: int, actual_taken: bool,
                            actual_target: int) -> bool:
        """Predict a conditional branch; returns True on mispredict."""
        memo = self._memo
        cursor = self._cursor
        outcomes = memo.outcomes
        if cursor < len(outcomes):
            outcome = outcomes[cursor]
        else:
            outcome = memo.extend(pc, actual_taken)
        self._cursor = cursor + 1
        stats = self.stats
        stats.dir_table_reads += memo.reads
        stats.dir_updates += 1
        stats.allocations += outcome >> 1
        predicted_taken = bool(outcome & 1)
        if actual_taken and (not predicted_taken
                             or self.btb.lookup(pc) != actual_target):
            self.btb.update(pc, actual_target)
        if predicted_taken != actual_taken:
            stats.mispredicts += 1
            return True
        return False

    def predict_jump(self, pc: int, actual_target: int) -> bool:
        """Direct jump (jal): returns True if the BTB missed the target."""
        known = self.btb.lookup(pc)
        if known != actual_target:
            self.btb.update(pc, actual_target)
            return True
        return False

    def predict_indirect(self, pc: int, actual_target: int,
                         is_return: bool, is_call: bool,
                         return_address: int) -> bool:
        """Indirect jump (jalr): RAS for returns, BTB otherwise."""
        if is_return:
            predicted = self.ras.pop()
        else:
            predicted = self.btb.lookup(pc)
        if is_call:
            self.ras.push(return_address)
        mispredicted = predicted != actual_target
        if mispredicted:
            self.stats.mispredicts += 1
            if not is_return:
                self.btb.update(pc, actual_target)
        return mispredicted

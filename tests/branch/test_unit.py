"""Branch unit: misfetch/mispredict classification semantics."""

import pytest

from repro.branch import (
    MISFETCH_PENALTY_SLOTS,
    MISPREDICT_PENALTY_SLOTS,
    BranchUnit,
    FetchOutcome,
    PenaltyCause,
    make_paper_branch_unit,
)
from repro.errors import ConfigError, SimulationError
from repro.isa import InstrKind

PC = 0x1000
TARGET = 0x2000
FALL = PC + 4


@pytest.fixture()
def unit() -> BranchUnit:
    return make_paper_branch_unit()


def train_taken(unit, times=16):
    """Train the PHT (and populate the BTB) for a taken branch at PC.

    Each resolution shifts a 1 into the history, so after ``history.bits``
    iterations the register saturates at all-ones and subsequent
    predictions index a stable, fully trained counter.
    """
    for _ in range(times):
        result = unit.predict(
            PC, InstrKind.COND_BRANCH, TARGET, True, TARGET, FALL
        )
        unit.resolve(result.pht_index, True, pc=PC)


class TestConditional:
    def test_fresh_not_taken_correct(self, unit):
        """Untrained PHT predicts NT; an actually-NT branch is free."""
        result = unit.predict(PC, InstrKind.COND_BRANCH, TARGET, False, FALL, FALL)
        assert result.outcome is FetchOutcome.CORRECT
        assert result.penalty_slots == 0

    def test_fresh_taken_is_mispredict(self, unit):
        """Untrained PHT predicts NT; an actually-taken branch costs 16."""
        result = unit.predict(PC, InstrKind.COND_BRANCH, TARGET, True, TARGET, FALL)
        assert result.outcome is FetchOutcome.MISPREDICT
        assert result.cause is PenaltyCause.PHT_MISPREDICT
        assert result.penalty_slots == MISPREDICT_PENALTY_SLOTS
        # Predicted NT: the wrong path is the fall-through, full window.
        assert result.wrong_path_start == FALL
        assert result.wrong_path_delay == 0
        assert result.wrong_path_slots == MISPREDICT_PENALTY_SLOTS

    def test_trained_taken_btb_hit_correct(self, unit):
        train_taken(unit)
        result = unit.predict(PC, InstrKind.COND_BRANCH, TARGET, True, TARGET, FALL)
        assert result.outcome is FetchOutcome.CORRECT

    def test_predicted_taken_btb_miss_is_misfetch(self, unit):
        """PHT says taken but the BTB has no target: 2-cycle misfetch."""
        train_taken(unit)
        # Evict the branch from the BTB without touching the PHT.
        unit.btb.reset()
        result = unit.predict(PC, InstrKind.COND_BRANCH, TARGET, True, TARGET, FALL)
        assert result.outcome is FetchOutcome.MISFETCH
        assert result.cause is PenaltyCause.BTB_MISFETCH
        assert result.penalty_slots == MISFETCH_PENALTY_SLOTS
        # Wrong path: fall-through fetched until decode.
        assert result.wrong_path_start == FALL
        assert result.wrong_path_slots == MISFETCH_PENALTY_SLOTS

    def test_predicted_taken_actually_not_btb_hit(self, unit):
        """Direction mispredict with a BTB target: wrong path = target."""
        train_taken(unit)
        result = unit.predict(PC, InstrKind.COND_BRANCH, TARGET, False, FALL, FALL)
        assert result.outcome is FetchOutcome.MISPREDICT
        assert result.penalty_slots == MISPREDICT_PENALTY_SLOTS
        assert result.wrong_path_start == TARGET
        assert result.wrong_path_delay == 0

    def test_composite_misfetch_then_mispredict(self, unit):
        """BTB miss + predicted taken + actually NT: delayed wrong path."""
        train_taken(unit)
        unit.btb.reset()
        result = unit.predict(PC, InstrKind.COND_BRANCH, TARGET, False, FALL, FALL)
        assert result.outcome is FetchOutcome.MISPREDICT
        assert result.penalty_slots == MISPREDICT_PENALTY_SLOTS
        assert result.wrong_path_start == TARGET
        assert result.wrong_path_delay == MISFETCH_PENALTY_SLOTS
        assert result.wrong_path_slots == (
            MISPREDICT_PENALTY_SLOTS - MISFETCH_PENALTY_SLOTS
        )

    def test_speculative_btb_insert_on_predicted_taken(self, unit):
        train_taken(unit, times=2)
        assert unit.btb.peek(PC) is not None

    def test_missing_static_target_rejected(self, unit):
        with pytest.raises(SimulationError):
            unit.predict(PC, InstrKind.COND_BRANCH, None, True, TARGET, FALL)

    def test_plain_rejected(self, unit):
        with pytest.raises(SimulationError):
            unit.predict(PC, InstrKind.PLAIN, None, False, FALL, FALL)


class TestDirectTransfers:
    def test_first_jump_is_misfetch(self, unit):
        result = unit.predict(PC, InstrKind.JUMP, TARGET, True, TARGET, FALL)
        assert result.outcome is FetchOutcome.MISFETCH
        assert result.penalty_slots == MISFETCH_PENALTY_SLOTS

    def test_second_jump_hits(self, unit):
        unit.predict(PC, InstrKind.JUMP, TARGET, True, TARGET, FALL)
        result = unit.predict(PC, InstrKind.JUMP, TARGET, True, TARGET, FALL)
        assert result.outcome is FetchOutcome.CORRECT

    def test_call_behaves_like_jump(self, unit):
        unit.predict(PC, InstrKind.CALL, TARGET, True, TARGET, FALL)
        result = unit.predict(PC, InstrKind.CALL, TARGET, True, TARGET, FALL)
        assert result.outcome is FetchOutcome.CORRECT


class TestDynamicTargets:
    def test_first_return_is_misfetch(self, unit):
        result = unit.predict(PC, InstrKind.RETURN, None, True, TARGET, FALL)
        assert result.outcome is FetchOutcome.MISFETCH

    def test_repeated_return_same_target_hits(self, unit):
        unit.predict(PC, InstrKind.RETURN, None, True, TARGET, FALL)
        result = unit.predict(PC, InstrKind.RETURN, None, True, TARGET, FALL)
        assert result.outcome is FetchOutcome.CORRECT

    def test_return_changed_target_is_btb_mispredict(self, unit):
        unit.predict(PC, InstrKind.RETURN, None, True, TARGET, FALL)
        other = 0x3000
        result = unit.predict(PC, InstrKind.RETURN, None, True, other, FALL)
        assert result.outcome is FetchOutcome.MISPREDICT
        assert result.cause is PenaltyCause.BTB_MISPREDICT
        # The wrong path is the stale predicted target.
        assert result.wrong_path_start == TARGET

    def test_ras_predicts_returns(self):
        unit = make_paper_branch_unit(use_ras=True)
        unit.notify_call(TARGET)  # call pushes its return address
        result = unit.predict(PC, InstrKind.RETURN, None, True, TARGET, FALL)
        assert result.outcome is FetchOutcome.CORRECT

    def test_indirect_changed_target_mispredicts(self, unit):
        unit.predict(PC, InstrKind.INDIRECT_CALL, None, True, TARGET, FALL)
        result = unit.predict(PC, InstrKind.INDIRECT_CALL, None, True, 0x3000, FALL)
        assert result.outcome is FetchOutcome.MISPREDICT
        assert result.cause is PenaltyCause.BTB_MISPREDICT


class TestResolution:
    def test_resolution_updates_history(self, unit):
        before = unit.history.snapshot()
        unit.resolve(None, True, pc=PC)
        assert unit.history.snapshot() == ((before << 1) | 1) & unit.history.mask

    def test_prediction_uses_stale_history(self, unit):
        """Predictions between fetch and resolve see unchanged history."""
        result = unit.predict(PC, InstrKind.COND_BRANCH, TARGET, True, TARGET, FALL)
        snapshot = unit.history.snapshot()
        # Another prediction before resolution: history unchanged.
        unit.predict(PC + 8, InstrKind.COND_BRANCH, TARGET, False, FALL + 8, FALL + 8)
        assert unit.history.snapshot() == snapshot
        unit.resolve(result.pht_index, True, pc=PC)
        assert unit.history.snapshot() != snapshot


class TestCoupled:
    def test_coupled_uses_btb_counter(self):
        unit = make_paper_branch_unit(coupled=True)
        # Untrained coupled design: BTB miss -> static not-taken.
        result = unit.predict(PC, InstrKind.COND_BRANCH, TARGET, False, FALL, FALL)
        assert result.outcome is FetchOutcome.CORRECT
        assert result.pht_index is None

    def test_coupled_resolves_into_btb(self):
        unit = make_paper_branch_unit(coupled=True)
        # Force an entry (mispredicted taken), then train its counter.
        unit.predict(PC, InstrKind.COND_BRANCH, TARGET, True, TARGET, FALL)
        unit.resolve(None, True, pc=PC)
        result = unit.predict(PC, InstrKind.COND_BRANCH, TARGET, True, TARGET, FALL)
        assert result.outcome is FetchOutcome.CORRECT


class TestStats:
    def test_penalty_accounting(self, unit):
        unit.predict(PC, InstrKind.JUMP, TARGET, True, TARGET, FALL)  # misfetch
        unit.predict(PC + 8, InstrKind.COND_BRANCH, TARGET, True, TARGET, FALL + 8)
        stats = unit.stats
        assert stats.btb_misfetches == 1
        assert stats.pht_mispredicts == 1
        assert stats.penalty_slots_by_cause["btb_misfetch"] == MISFETCH_PENALTY_SLOTS
        assert (
            stats.penalty_slots_by_cause["pht_mispredict"]
            == MISPREDICT_PENALTY_SLOTS
        )

    def test_reset(self, unit):
        unit.predict(PC, InstrKind.JUMP, TARGET, True, TARGET, FALL)
        unit.reset()
        assert unit.stats.btb_misfetches == 0
        assert unit.btb.peek(PC) is None


class TestConfigValidation:
    def test_bad_penalties(self):
        from repro.branch import BranchTargetBuffer, GlobalHistory, GsharePHT

        with pytest.raises(ConfigError):
            BranchUnit(
                btb=BranchTargetBuffer(),
                pht=GsharePHT(512),
                history=GlobalHistory(9),
                misfetch_penalty_slots=16,
                mispredict_penalty_slots=8,
            )


# -- reference model ------------------------------------------------------------

_REF_BTB_ENTRIES = 8
_REF_BTB_ASSOC = 2
_REF_PHT_ENTRIES = 16
_REF_HISTORY_BITS = 4
_REF_RESOLVE_DELAY = 4


class _ReferenceUnit:
    """An independent, deliberately naive model of the branch unit's
    documented semantics (2-bit counters, LRU BTB, no RAS)."""

    def __init__(self, pht_kind, coupled, speculative_btb_update):
        self.pht_kind = pht_kind
        self.coupled = coupled
        self.speculative = speculative_btb_update
        self.n_sets = _REF_BTB_ENTRIES // _REF_BTB_ASSOC
        # Each set: [tag, target, counter] lists, LRU first.
        self.sets = [[] for _ in range(self.n_sets)]
        self.hits = self.misses = self.insertions = self.evictions = 0
        self.pht = [1] * _REF_PHT_ENTRIES  # weakly not-taken
        self.history = 0
        self.stats = {
            "conditional": 0, "unconditional": 0, "correct": 0,
            "pht_mispredicts": 0, "btb_misfetches": 0, "btb_mispredicts": 0,
            "btb_misfetch": 0, "pht_mispredict": 0, "btb_mispredict": 0,
        }

    def _set_and_tag(self, pc):
        word = pc // 4
        return self.sets[word % self.n_sets], word // self.n_sets

    def _lookup(self, pc):
        ways, tag = self._set_and_tag(pc)
        for way in ways:
            if way[0] == tag:
                ways.remove(way)
                ways.append(way)
                self.hits += 1
                return way
        self.misses += 1
        return None

    def _insert(self, pc, target):
        ways, tag = self._set_and_tag(pc)
        for way in ways:
            if way[0] == tag:
                way[1] = target
                ways.remove(way)
                ways.append(way)
                return
        if len(ways) == _REF_BTB_ASSOC:
            del ways[0]
            self.evictions += 1
        ways.append([tag, target, 2])  # coupled counter starts weakly taken
        self.insertions += 1

    def _index(self, pc):
        mask = _REF_PHT_ENTRIES - 1
        if self.pht_kind == "bimodal":
            return (pc // 4) & mask
        if self.pht_kind == "gag":
            return self.history & mask
        return ((pc // 4) ^ self.history) & mask

    def _penalty(self, cause, slots):
        counter = {
            "btb_misfetch": "btb_misfetches",
            "pht_mispredict": "pht_mispredicts",
            "btb_mispredict": "btb_mispredicts",
        }[cause]
        self.stats[counter] += 1
        self.stats[cause] += slots

    def _misfetch(self, fall, index, predicted):
        self._penalty("btb_misfetch", 8)
        return ("misfetch", "btb_misfetch", 8, fall, 0, 8, index, predicted)

    def _correct(self, index, predicted):
        self.stats["correct"] += 1
        return ("correct", "none", 0, None, 0, 0, index, predicted)

    def predict(self, pc, kind, static_target, taken, actual_target, fall):
        if kind is InstrKind.COND_BRANCH:
            self.stats["conditional"] += 1
            entry = self._lookup(pc)
            if self.coupled:
                index = None
                predicted = entry is not None and entry[2] >= 2
            else:
                index = self._index(pc)
                predicted = self.pht[index] >= 2
            if (self.speculative and predicted) or taken:
                self._insert(pc, static_target)
            if predicted == taken:
                if not predicted or entry is not None:
                    return self._correct(index, predicted)
                return self._misfetch(fall, index, predicted)
            self._penalty("pht_mispredict", 16)
            if not predicted:
                wrong = (fall, 0, 16)
            elif entry is not None:
                wrong = (entry[1], 0, 16)
            else:
                wrong = (static_target, 8, 8)
            return ("mispredict", "pht_mispredict", 16, *wrong, index, predicted)
        self.stats["unconditional"] += 1
        entry = self._lookup(pc)
        if kind in (InstrKind.JUMP, InstrKind.CALL):
            if entry is None:
                self._insert(pc, actual_target)
                return self._misfetch(fall, None, None)
            return self._correct(None, None)
        predicted = None if entry is None else entry[1]
        self._insert(pc, actual_target)
        if predicted is None:
            return self._misfetch(fall, None, None)
        if predicted == actual_target:
            return self._correct(None, None)
        self._penalty("btb_mispredict", 16)
        return ("mispredict", "btb_mispredict", 16, predicted, 0, 16, None, None)

    def resolve(self, index, taken, pc):
        if self.coupled:
            ways, tag = self._set_and_tag(pc)
            for way in ways:
                if way[0] == tag:
                    way[2] = min(3, way[2] + 1) if taken else max(0, way[2] - 1)
        else:
            self.pht[index] = (
                min(3, self.pht[index] + 1) if taken else max(0, self.pht[index] - 1)
            )
        self.history = ((self.history << 1) | int(taken)) & (
            (1 << _REF_HISTORY_BITS) - 1
        )


def _random_sites(rng):
    """Static branch sites: (pc, kind, static target, taken bias)."""
    kinds = (
        [InstrKind.COND_BRANCH] * 14
        + [InstrKind.JUMP, InstrKind.CALL] * 2
        + [InstrKind.RETURN, InstrKind.INDIRECT_CALL] * 2
    )
    pcs = rng.sample(range(0x1000, 0x1400, 4), len(kinds))
    sites = []
    for pc, kind in zip(pcs, kinds):
        static = None
        if kind in (InstrKind.COND_BRANCH, InstrKind.JUMP, InstrKind.CALL):
            static = rng.randrange(0x2000, 0x2400, 4)
        sites.append((pc, kind, static, rng.choice((0.05, 0.5, 0.95))))
    return sites


@pytest.mark.parametrize("speculative", [True, False], ids=["spec", "nonspec"])
@pytest.mark.parametrize("coupled", [False, True], ids=["decoupled", "coupled"])
@pytest.mark.parametrize("pht_kind", ["bimodal", "gag", "gshare"])
def test_unit_matches_reference_model(pht_kind, coupled, speculative):
    """A seeded random branch stream through BranchUnit.predict and
    resolve_due matches the reference model field for field."""
    import random
    from collections import deque

    from repro.branch import BranchTargetBuffer, GlobalHistory, make_pht

    rng = random.Random(f"{pht_kind}-{coupled}-{speculative}")
    unit = BranchUnit(
        btb=BranchTargetBuffer(entries=_REF_BTB_ENTRIES, assoc=_REF_BTB_ASSOC),
        pht=make_pht(pht_kind, _REF_PHT_ENTRIES),
        history=GlobalHistory(_REF_HISTORY_BITS),
        coupled=coupled,
        speculative_btb_update=speculative,
    )
    ref = _ReferenceUnit(pht_kind, coupled, speculative)
    sites = _random_sites(rng)
    queue = deque()
    ref_queue = deque()
    now = 0
    for _ in range(4_000):
        pc, kind, static, bias = rng.choice(sites)
        fall = pc + 4
        taken = rng.random() < bias if kind is InstrKind.COND_BRANCH else True
        if kind is InstrKind.COND_BRANCH:
            actual = static if taken else fall
        elif static is not None:
            actual = static
        else:
            actual = rng.choice((0x3000, 0x3100, 0x3200))
        result = unit.predict(pc, kind, static, taken, actual, fall)
        expected = ref.predict(pc, kind, static, taken, actual, fall)
        assert (
            result.outcome.value,
            result.cause.value,
            result.penalty_slots,
            result.wrong_path_start,
            result.wrong_path_delay,
            result.wrong_path_slots,
            result.pht_index,
            result.predicted_taken,
        ) == expected
        if kind is InstrKind.COND_BRANCH:
            queue.append((now + _REF_RESOLVE_DELAY, result.pht_index, taken, pc))
            ref_queue.append((now + _REF_RESOLVE_DELAY, expected[6], taken, pc))
        now += rng.randrange(3)
        unit.resolve_due(queue, now)
        while ref_queue and ref_queue[0][0] <= now:
            _, index, q_taken, q_pc = ref_queue.popleft()
            ref.resolve(index, q_taken, q_pc)
        assert unit.history.value == ref.history
    unit.resolve_due(queue, now + _REF_RESOLVE_DELAY)
    for _, index, q_taken, q_pc in ref_queue:
        ref.resolve(index, q_taken, q_pc)
    assert not queue

    stats = unit.stats
    assert {
        "conditional": stats.conditional,
        "unconditional": stats.unconditional,
        "correct": stats.correct,
        "pht_mispredicts": stats.pht_mispredicts,
        "btb_misfetches": stats.btb_misfetches,
        "btb_mispredicts": stats.btb_mispredicts,
        **stats.penalty_slots_by_cause,
    } == ref.stats
    btb = unit.btb
    assert (btb.hits, btb.misses, btb.insertions, btb.evictions) == (
        ref.hits, ref.misses, ref.insertions, ref.evictions,
    )
    assert [
        [[e.tag, e.target, e.counter] for e in ways] for ways in btb._sets
    ] == ref.sets
    assert unit.pht.table.values == ref.pht
    assert unit.history.value == ref.history
    # The stream must have exercised every outcome the configuration has.
    assert stats.correct and stats.btb_misfetches and stats.pht_mispredicts
    assert stats.btb_mispredicts and btb.evictions

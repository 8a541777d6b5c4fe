"""Wrong-path walker (static path enumeration)."""

import pytest

from repro.branch import make_paper_branch_unit
from repro.core.wrongpath import (
    iter_lines_from_runs,
    iter_wrong_path_lines,
    iter_wrong_path_runs,
)
from repro.isa import Instruction, InstrKind
from repro.program import CodeImage

BASE = 0x1000  # line 128 with 32-byte lines
LINE = BASE // 32


def image_with(*kinds_targets):
    listing = []
    for i, (kind, target) in enumerate(kinds_targets):
        listing.append(
            Instruction(
                BASE + 4 * i,
                kind,
                target=target,
                behaviour=0 if kind is InstrKind.COND_BRANCH else None,
            )
        )
    return CodeImage.from_instructions(listing)


def plain(n):
    return [(InstrKind.PLAIN, None)] * n


@pytest.fixture()
def unit():
    return make_paper_branch_unit()


class TestStraightLine:
    def test_single_line_span(self, unit):
        image = image_with(*plain(8))
        spans = list(iter_wrong_path_lines(image, unit, BASE, 8, 32))
        assert spans == [(LINE, 8)]

    def test_crosses_lines(self, unit):
        image = image_with(*plain(20))
        spans = list(iter_wrong_path_lines(image, unit, BASE, 20, 32))
        assert spans == [(LINE, 8), (LINE + 1, 8), (LINE + 2, 4)]

    def test_max_instructions_respected(self, unit):
        image = image_with(*plain(20))
        spans = list(iter_wrong_path_lines(image, unit, BASE, 10, 32))
        assert sum(n for _, n in spans) == 10

    def test_stops_at_image_end(self, unit):
        image = image_with(*plain(4))
        spans = list(iter_wrong_path_lines(image, unit, BASE, 100, 32))
        assert sum(n for _, n in spans) == 4

    def test_unaligned_start_pc_stops(self, unit):
        image = image_with(*plain(8))
        assert list(iter_wrong_path_lines(image, unit, BASE + 2, 8, 32)) == []

    def test_zero_budget(self, unit):
        image = image_with(*plain(8))
        assert list(iter_wrong_path_lines(image, unit, BASE, 0, 32)) == []


class TestControlFollowing:
    def test_jump_followed(self, unit):
        # jump at BASE to BASE+64 (line +2).
        image = image_with(
            (InstrKind.JUMP, BASE + 64),
            *plain(15),
            *plain(4),
        )
        spans = list(iter_wrong_path_lines(image, unit, BASE, 5, 32))
        assert spans[0] == (LINE, 1)
        assert spans[1] == (LINE + 2, 4)

    def test_untrained_cond_falls_through(self, unit):
        image = image_with(
            (InstrKind.COND_BRANCH, BASE + 64),
            *plain(17),
        )
        spans = list(iter_wrong_path_lines(image, unit, BASE, 4, 32))
        # Fresh PHT predicts not-taken: sequential walk.  The run splits
        # at the control instruction, staying on the same line.
        assert spans == [(LINE, 1), (LINE, 3)]

    def test_trained_cond_follows_target(self, unit):
        target = BASE + 64
        image = image_with(
            (InstrKind.COND_BRANCH, target),
            *plain(19),
        )
        # Train the PHT (at the current, all-zero history context).
        idx = unit.pht.index(BASE, unit.history.snapshot())
        unit.pht.update(idx, True)
        unit.pht.update(idx, True)
        spans = list(iter_wrong_path_lines(image, unit, BASE, 4, 32))
        assert spans[0] == (LINE, 1)
        assert spans[1] == (LINE + 2, 3)

    def test_return_without_btb_falls_through(self, unit):
        image = image_with((InstrKind.RETURN, None), *plain(7))
        spans = list(iter_wrong_path_lines(image, unit, BASE, 4, 32))
        assert spans == [(LINE, 1), (LINE, 3)]

    def test_return_with_btb_target(self, unit):
        image = image_with((InstrKind.RETURN, None), *plain(19))
        unit.btb.insert(BASE, BASE + 64)
        spans = list(iter_wrong_path_lines(image, unit, BASE, 4, 32))
        assert spans[0] == (LINE, 1)
        assert spans[1] == (LINE + 2, 3)

    def test_walk_does_not_mutate_predictors(self, unit):
        image = image_with(
            (InstrKind.COND_BRANCH, BASE + 32),
            (InstrKind.RETURN, None),
            *plain(14),
        )
        unit.btb.insert(BASE + 4, BASE + 32)
        hits_before = unit.btb.hits
        values_before = list(unit.pht.table.values)
        list(iter_wrong_path_lines(image, unit, BASE, 16, 32))
        assert unit.btb.hits == hits_before
        assert unit.pht.table.values == values_before


@pytest.mark.parametrize("use_ras", [False, True], ids=["btb", "ras"])
def test_fused_walker_matches_composed_reference(use_ras):
    """iter_wrong_path_lines yields exactly what splitting
    iter_wrong_path_runs with iter_lines_from_runs yields, from every
    kind of start pc, with a trained predictor."""
    import random

    from repro.config import BranchConfig, SimConfig
    from repro.core.engine import FetchEngine
    from repro.program.workloads import build_workload
    from repro.trace.generator import generate_trace

    program = build_workload("gcc")
    trace = generate_trace(program, n_instructions=6_000, seed=11)
    engine = FetchEngine(program, SimConfig(branch=BranchConfig(use_ras=use_ras)))
    engine.run(trace)  # trains the BTB, PHT, history (and RAS)
    image, unit = program.image, engine.unit
    rng = random.Random(5)
    starts = [rng.randrange(image.n_instructions) for _ in range(300)]
    for idx in starts:
        pc = image.base + idx * 4
        budget = rng.choice((0, 1, 8, 16, 40))
        line_size = rng.choice((16, 32, 64))
        assert list(
            iter_wrong_path_lines(image, unit, pc, budget, line_size)
        ) == list(
            iter_lines_from_runs(
                iter_wrong_path_runs(image, unit, pc, budget), line_size
            )
        )

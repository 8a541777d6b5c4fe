"""Code image: decoding, run-length queries and the vectorised checks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import DecodeError, ProgramError
from repro.isa import INSTRUCTION_SIZE, Instruction, InstrKind
from repro.program import CodeImage


def build_image():
    """[plain, plain, cond->0x1000, plain, jump->0x1000, plain]"""
    base = 0x1000
    listing = [
        Instruction(base + 0, InstrKind.PLAIN),
        Instruction(base + 4, InstrKind.PLAIN),
        Instruction(base + 8, InstrKind.COND_BRANCH, target=base, behaviour=0),
        Instruction(base + 12, InstrKind.PLAIN),
        Instruction(base + 16, InstrKind.JUMP, target=base),
        Instruction(base + 20, InstrKind.PLAIN),
    ]
    return CodeImage.from_instructions(listing)


class TestConstruction:
    def test_geometry(self):
        image = build_image()
        assert image.base == 0x1000
        assert image.n_instructions == 6
        assert image.size_bytes == 24
        assert image.end == 0x1018

    def test_gap_rejected(self):
        with pytest.raises(ProgramError):
            CodeImage.from_instructions(
                [
                    Instruction(0x1000, InstrKind.PLAIN),
                    Instruction(0x1008, InstrKind.PLAIN),  # hole at 0x1004
                ]
            )

    def test_empty_rejected(self):
        with pytest.raises(ProgramError):
            CodeImage.from_instructions([])


class TestDecode:
    def test_roundtrip(self):
        image = build_image()
        instr = image.decode(0x1008)
        assert instr.kind is InstrKind.COND_BRANCH
        assert instr.target == 0x1000
        assert instr.behaviour == 0

    def test_plain_decodes_without_target(self):
        image = build_image()
        instr = image.decode(0x1000)
        assert instr.kind is InstrKind.PLAIN
        assert instr.target is None
        assert instr.behaviour is None

    def test_outside_image(self):
        image = build_image()
        with pytest.raises(DecodeError):
            image.decode(0x0FFC)
        with pytest.raises(DecodeError):
            image.decode(0x1018)

    def test_misaligned(self):
        with pytest.raises(DecodeError):
            build_image().decode(0x1002)

    def test_contains(self):
        image = build_image()
        assert image.contains(0x1000)
        assert image.contains(0x1014)
        assert not image.contains(0x1018)
        assert not image.contains(0x1002)

    def test_iter_matches_decode(self):
        image = build_image()
        listing = list(image.iter_instructions())
        assert len(listing) == 6
        assert [i.kind for i in listing] == [
            InstrKind.PLAIN,
            InstrKind.PLAIN,
            InstrKind.COND_BRANCH,
            InstrKind.PLAIN,
            InstrKind.JUMP,
            InstrKind.PLAIN,
        ]


class TestRunLength:
    def test_run_to_control_inclusive(self):
        image = build_image()
        assert image.run_length(0x1000) == 3  # plain, plain, cond
        assert image.run_length(0x1008) == 1  # the cond itself

    def test_run_between_controls(self):
        image = build_image()
        assert image.run_length(0x100C) == 2  # plain, jump

    def test_run_to_image_end(self):
        image = build_image()
        assert image.run_length(0x1014) == 1  # trailing plain, no control

    def test_index_address_roundtrip(self):
        image = build_image()
        for idx in range(image.n_instructions):
            assert image.index_of(image.address_of(idx)) == idx

    def test_bad_index(self):
        with pytest.raises(DecodeError):
            build_image().address_of(6)


def reference_next_control(kinds):
    """The straightforward reverse scan the vectorised version replaces."""
    n = len(kinds)
    next_ctrl = [n] * n
    nxt = n
    for i in range(n - 1, -1, -1):
        if kinds[i] != InstrKind.PLAIN:
            nxt = i
        next_ctrl[i] = nxt
    return next_ctrl


def image_of_kinds(kinds):
    """An image with the given kinds and a well-formed target for each."""
    static = (InstrKind.COND_BRANCH, InstrKind.JUMP, InstrKind.CALL)
    targets = [0x1000 if kind in static else -1 for kind in kinds]
    return CodeImage(0x1000, np.array(kinds), np.array(targets), np.full(len(kinds), -1))


kind_lists = st.lists(st.sampled_from(list(InstrKind)), min_size=1, max_size=80)


class TestNextControlScan:
    @settings(max_examples=200, deadline=None)
    @given(kinds=kind_lists)
    def test_matches_reference_loop(self, kinds):
        image = image_of_kinds(kinds)
        assert image.next_ctrl_list == reference_next_control(kinds)

    @pytest.mark.parametrize(
        "kinds",
        [
            [InstrKind.PLAIN] * 7,
            [InstrKind.JUMP, InstrKind.PLAIN, InstrKind.PLAIN],
            [InstrKind.PLAIN],
            [InstrKind.RETURN],
        ],
        ids=["all-plain", "trailing-plain", "one-plain", "one-control"],
    )
    def test_edge_cases(self, kinds):
        image = image_of_kinds(kinds)
        assert image.next_ctrl_list == reference_next_control(kinds)


def reference_instructions(base, kinds, targets, behaviours):
    """Each entry decoded as the image does and built as an Instruction,
    or None if any entry fails to construct."""
    listing = []
    for idx, (kind, target, behaviour) in enumerate(zip(kinds, targets, behaviours)):
        try:
            listing.append(
                Instruction(
                    base + idx * INSTRUCTION_SIZE,
                    InstrKind(kind),
                    target=None if target == -1 else target,
                    behaviour=None if behaviour == -1 else behaviour,
                )
            )
        except ValueError:
            return None
    return listing


entries = st.lists(
    st.tuples(
        st.integers(-2, 7),
        st.sampled_from([-1, 0, 0x1000, 0x2000]),
        st.sampled_from([-1, 0, 3]),
    ),
    min_size=1,
    max_size=40,
)


class TestEntryCheck:
    @settings(max_examples=300, deadline=None)
    @given(rows=entries)
    def test_accepts_exactly_constructible_arrays(self, rows):
        base = 0x1000
        kinds, targets, behaviours = (list(column) for column in zip(*rows))
        arrays = (np.array(kinds), np.array(targets), np.array(behaviours))
        expected = reference_instructions(base, kinds, targets, behaviours)
        if expected is None:
            with pytest.raises(ProgramError):
                CodeImage(base, *arrays)
        else:
            assert list(CodeImage(base, *arrays).iter_instructions()) == expected

    @pytest.mark.parametrize(
        "kinds, targets, first_bad",
        [
            # RETURN with a target at 0x100c, then a target-less COND_BRANCH.
            ([0, 2, 0, 4, 1], [-1, 0x1000, -1, 0x1000, -1], "0x100c"),
            ([0, 3], [-1, -1], "0x1004"),  # CALL without a target
        ],
    )
    def test_error_names_first_bad_address(self, kinds, targets, first_bad):
        with pytest.raises(ProgramError, match=first_bad):
            CodeImage(0x1000, np.array(kinds), np.array(targets), np.full(len(kinds), -1))

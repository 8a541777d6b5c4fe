"""Lowering a symbolic CFG to a concrete code image.

Functions are placed in their CFG insertion order, each aligned to a cache
line (as real linkers do — alignment matters to an I-cache study).  Blocks
within a function are placed back-to-back in their listed order, so a block
with no terminator falls through to the next block at the next address.

Lowering writes the :class:`~repro.program.image.CodeImage` arrays
directly: every slot starts as a PLAIN instruction with no target (which
is also what alignment padding is, as linkers pad with nops), and only
the block terminators are filled in.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ProgramError
from repro.isa import INSTRUCTION_SIZE, Instruction, InstrKind, align_up
from repro.program.cfg import ControlFlowGraph
from repro.program.image import NO_BEHAVIOUR, NO_TARGET, CodeImage

#: Default base address for program text (matches typical Unix layouts).
DEFAULT_TEXT_BASE = 0x0001_0000

#: Default function alignment (one 32-byte I-cache line).
DEFAULT_FUNCTION_ALIGN = 32


@dataclass(frozen=True, slots=True)
class Layout:
    """Result of laying out a CFG.

    Attributes:
        image: the contiguous code image, starting at the first function.
        function_entries: function name -> entry address.
        block_addresses: (function name, block label) -> block start address.
        indirect_targets: address of each INDIRECT_CALL instruction ->
            tuple of candidate callee entry addresses.
    """

    image: CodeImage
    function_entries: dict[str, int]
    block_addresses: dict[tuple[str, str], int]
    indirect_targets: dict[int, tuple[int, ...]]

    @property
    def instructions(self) -> tuple[Instruction, ...]:
        """The address-ordered listing decoded from the image (diagnostic)."""
        return tuple(self.image.iter_instructions())


def layout_cfg(
    cfg: ControlFlowGraph,
    base: int = DEFAULT_TEXT_BASE,
    function_align: int = DEFAULT_FUNCTION_ALIGN,
) -> Layout:
    """Assign addresses to every block and lower the CFG to a code image."""
    cfg.validate()
    if base % INSTRUCTION_SIZE:
        raise ProgramError(f"text base {base:#x} is not instruction-aligned")

    # Pass 1: assign addresses.
    function_entries: dict[str, int] = {}
    block_addresses: dict[tuple[str, str], int] = {}
    start = cursor = align_up(base, function_align)
    for name, function in cfg.functions.items():
        cursor = align_up(cursor, function_align)
        function_entries[name] = cursor
        for block in function.blocks:
            block_addresses[(name, block.label)] = cursor
            cursor += block.n_instructions * INSTRUCTION_SIZE

    # Pass 2: fill in the terminators with resolved targets.
    n = (cursor - start) // INSTRUCTION_SIZE
    kinds = np.zeros(n, dtype=np.int8)
    targets = np.full(n, NO_TARGET, dtype=np.int64)
    behaviours = np.full(n, NO_BEHAVIOUR, dtype=np.int32)
    indirect_targets: dict[int, tuple[int, ...]] = {}
    for name, function in cfg.functions.items():
        addr = function_entries[name]
        for block in function.blocks:
            expected = block_addresses[(name, block.label)]
            if addr != expected:
                raise ProgramError(
                    f"layout drift in {name!r}/{block.label!r}: "
                    f"{addr:#x} != {expected:#x}"
                )
            addr += block.n_plain * INSTRUCTION_SIZE
            term = block.terminator
            if term is None:
                continue
            idx = (addr - start) // INSTRUCTION_SIZE
            kinds[idx] = kind = term.kind
            if kind is InstrKind.COND_BRANCH or kind is InstrKind.JUMP:
                targets[idx] = block_addresses[(name, term.target_label)]
                if term.behaviour is not None:
                    behaviours[idx] = term.behaviour
            elif kind is InstrKind.CALL:
                targets[idx] = function_entries[term.callee]
            elif kind is InstrKind.INDIRECT_CALL:
                behaviours[idx] = term.behaviour
                indirect_targets[addr] = tuple(
                    function_entries[callee] for callee in term.indirect_callees
                )
            addr += INSTRUCTION_SIZE

    return Layout(
        image=CodeImage(start, kinds, targets, behaviours),
        function_entries=function_entries,
        block_addresses=block_addresses,
        indirect_targets=indirect_targets,
    )

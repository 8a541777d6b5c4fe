"""Flat, decodable code image.

The :class:`CodeImage` is the static view of a program that the front-end
simulator needs: given *any* instruction address — in particular one on a
wrong (mispredicted or misfetched) path — it decodes the instruction there
in O(1) and can tell how far the straight-line run extends before the next
control transfer.

The image is a struct-of-arrays (numpy), written directly by
:func:`~repro.program.layout.layout_cfg` and checked once, vectorised, by
the rules :class:`~repro.isa.Instruction` applies per object, so neither
building nor wrong-path walking allocates a Python object per instruction.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

import numpy as np

from repro.errors import DecodeError, ProgramError
from repro.isa import INSTRUCTION_SIZE, Instruction, InstrKind

#: Array entries meaning "no static target" / "no behaviour model".
NO_TARGET = -1
NO_BEHAVIOUR = -1
#: The kinds that must carry a target; every other kind must carry none.
_STATIC_TARGET_KINDS = (InstrKind.COND_BRANCH, InstrKind.JUMP, InstrKind.CALL)


class CodeImage:
    """Contiguous code region decodable at any instruction address."""

    def __init__(
        self,
        base: int,
        kinds: np.ndarray,
        targets: np.ndarray,
        behaviours: np.ndarray,
    ) -> None:
        if base < 0 or base % INSTRUCTION_SIZE:
            raise ProgramError(f"bad image base address {base:#x}")
        n = len(kinds)
        if n == 0:
            raise ProgramError("empty code image")
        if len(targets) != n or len(behaviours) != n:
            raise ProgramError("image arrays must have equal length")
        self._check_entries(base, np.asarray(kinds), np.asarray(targets))
        self.base = base
        self._kinds = np.ascontiguousarray(kinds, dtype=np.int8)
        self._targets = np.ascontiguousarray(targets, dtype=np.int64)
        self._behaviours = np.ascontiguousarray(behaviours, dtype=np.int32)
        self._next_ctrl = self._compute_next_control(self._kinds)
        # Plain-python mirrors: scalar indexing into lists is measurably
        # faster than numpy scalar indexing in the simulator's hot loops.
        self.kinds_list: list[int] = self._kinds.tolist()
        self.targets_list: list[int] = self._targets.tolist()
        self.behaviours_list: list[int] = self._behaviours.tolist()
        self.next_ctrl_list: list[int] = self._next_ctrl.tolist()

    @staticmethod
    def _check_entries(base: int, kinds: np.ndarray, targets: np.ndarray) -> None:
        """Reject the first entry that would not construct as an Instruction."""
        static = np.isin(kinds, _STATIC_TARGET_KINDS)
        bad = (kinds < min(InstrKind)) | (kinds > max(InstrKind))
        bad |= static != (targets != NO_TARGET)
        if bad.any():
            idx = int(np.argmax(bad))
            raise ProgramError(
                f"bad instruction at {base + idx * INSTRUCTION_SIZE:#x}: "
                f"kind {int(kinds[idx])}, target {int(targets[idx])}"
            )

    @staticmethod
    def _compute_next_control(kinds: np.ndarray) -> np.ndarray:
        """For each index, the index of the next control instruction >= it.

        Indices past the last control instruction get ``n`` (one past the
        end), meaning "straight line to the end of the image".
        """
        n = len(kinds)
        controls = np.append(np.flatnonzero(kinds != InstrKind.PLAIN), n)
        return controls[np.searchsorted(controls, np.arange(n))]

    # -- construction -----------------------------------------------------

    @classmethod
    def from_instructions(cls, instructions: Iterable[Instruction]) -> CodeImage:
        """Build an image from a contiguous, address-ordered listing."""
        listing = list(instructions)
        if not listing:
            raise ProgramError("cannot build an image from no instructions")
        base = listing[0].address
        for i, instr in enumerate(listing):
            expected = base + i * INSTRUCTION_SIZE
            if instr.address != expected:
                raise ProgramError(
                    f"non-contiguous listing: expected {expected:#x}, "
                    f"got {instr.address:#x}"
                )
        rows = [
            (i.kind, NO_TARGET if i.target is None else i.target,
             NO_BEHAVIOUR if i.behaviour is None else i.behaviour)
            for i in listing
        ]
        return cls(base, *(np.array(column) for column in zip(*rows)))

    # -- geometry ----------------------------------------------------------

    @property
    def n_instructions(self) -> int:
        """Number of instructions in the image."""
        return len(self.kinds_list)

    @property
    def size_bytes(self) -> int:
        """Image size in bytes."""
        return self.n_instructions * INSTRUCTION_SIZE

    @property
    def end(self) -> int:
        """One past the last byte of the image."""
        return self.base + self.size_bytes

    def contains(self, address: int) -> bool:
        """True if *address* is a valid instruction address in the image."""
        return (
            self.base <= address < self.end
            and (address - self.base) % INSTRUCTION_SIZE == 0
        )

    def index_of(self, address: int) -> int:
        """Instruction index for *address*; raises :class:`DecodeError`."""
        if not self.contains(address):
            raise DecodeError(f"address {address:#x} not in image")
        return (address - self.base) // INSTRUCTION_SIZE

    def address_of(self, index: int) -> int:
        """Address of the instruction at *index*."""
        if not 0 <= index < self.n_instructions:
            raise DecodeError(f"instruction index {index} out of range")
        return self.base + index * INSTRUCTION_SIZE

    # -- decoding ----------------------------------------------------------

    def decode(self, address: int) -> Instruction:
        """Decode the instruction at *address* into an object (slow path)."""
        idx = self.index_of(address)
        kind = InstrKind(self.kinds_list[idx])
        target = self.targets_list[idx]
        behaviour = self.behaviours_list[idx]
        return Instruction(
            address=address,
            kind=kind,
            target=None if target == NO_TARGET else target,
            behaviour=None if behaviour == NO_BEHAVIOUR else behaviour,
        )

    def run_length(self, address: int) -> int:
        """Instructions from *address* up to and including the next control
        transfer (or to the end of the image if no control follows)."""
        idx = self.index_of(address)
        nxt = self.next_ctrl_list[idx]
        if nxt >= self.n_instructions:
            return self.n_instructions - idx
        return nxt - idx + 1

    def iter_instructions(self) -> Iterator[Instruction]:
        """Yield every instruction in address order (diagnostic use)."""
        for idx in range(self.n_instructions):
            yield self.decode(self.address_of(idx))

    def __repr__(self) -> str:
        return (
            f"CodeImage(base={self.base:#x}, "
            f"n_instructions={self.n_instructions})"
        )

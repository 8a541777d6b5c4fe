"""The :class:`Program` container: code image + dynamic behaviour models.

A Program is everything the trace generator and the front-end simulator
need about one workload:

* the static :class:`~repro.program.image.CodeImage` (for fetching and for
  wrong-path walking),
* the table of branch/indirect behaviour models (for generating dynamic
  outcomes),
* entry point and symbol information (for diagnostics).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ProgramError
from repro.program.behaviour import BranchBehaviour, IndirectBehaviour
from repro.program.cfg import ControlFlowGraph
from repro.program.image import CodeImage


@dataclass(slots=True)
class Program:
    """A complete synthetic workload.

    Attributes:
        name: workload name (e.g. ``"gcc"``).
        image: the static code image.
        behaviours: behaviour models indexed by the ``behaviour`` field of
            conditional-branch / indirect-call instructions.
        entry: entry-point address (first instruction executed).
        indirect_targets: INDIRECT_CALL instruction address -> candidate
            callee entry addresses (index chosen by the site's
            :class:`~repro.program.behaviour.IndirectBehaviour`).
        function_entries: function name -> entry address (diagnostics).
        metadata: free-form description (language family, tier sizes, ...).
    """

    name: str
    image: CodeImage
    behaviours: list[BranchBehaviour]
    entry: int
    indirect_targets: dict[int, tuple[int, ...]] = field(default_factory=dict)
    function_entries: dict[str, int] = field(default_factory=dict)
    metadata: dict[str, object] = field(default_factory=dict)
    #: The symbolic CFG the program was lowered from, when available.
    #: Needed by layout transformations (:mod:`repro.program.reorder`).
    cfg: ControlFlowGraph | None = None

    def __post_init__(self) -> None:
        if not self.image.contains(self.entry):
            raise ProgramError(
                f"entry {self.entry:#x} not inside image "
                f"[{self.image.base:#x}, {self.image.end:#x})"
            )
        self._validate_behaviour_indices()
        self._validate_indirect_tables()

    def _validate_behaviour_indices(self) -> None:
        top, n = max(self.image.behaviours_list), len(self.behaviours)
        if top >= n:
            raise ProgramError(
                f"instruction references behaviour {top} but only "
                f"{n} behaviours are defined"
            )

    def _validate_indirect_tables(self) -> None:
        for addr, targets in self.indirect_targets.items():
            instr = self.image.decode(addr)
            if instr.behaviour is None:
                raise ProgramError(f"indirect site {addr:#x} has no behaviour")
            behaviour = self.behaviours[instr.behaviour]
            if not isinstance(behaviour, IndirectBehaviour):
                raise ProgramError(
                    f"indirect site {addr:#x} uses behaviour "
                    f"{type(behaviour).__name__}, expected IndirectBehaviour"
                )
            if behaviour.n_targets != len(targets):
                raise ProgramError(
                    f"indirect site {addr:#x}: behaviour expects "
                    f"{behaviour.n_targets} targets, table has {len(targets)}"
                )
            for target in targets:
                if not self.image.contains(target):
                    raise ProgramError(
                        f"indirect site {addr:#x} targets {target:#x}, "
                        "which is outside the image"
                    )

    def reset_behaviours(self) -> None:
        """Reset every behaviour model (call before each trace generation)."""
        for behaviour in self.behaviours:
            behaviour.reset()

    @property
    def footprint_bytes(self) -> int:
        """Static code size in bytes."""
        return self.image.size_bytes

    def __repr__(self) -> str:
        return (
            f"Program(name={self.name!r}, "
            f"instructions={self.image.n_instructions}, "
            f"functions={len(self.function_entries)})"
        )

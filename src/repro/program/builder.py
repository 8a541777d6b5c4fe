"""Fluent construction of synthetic programs.

:class:`ProgramBuilder` is the public way to assemble a
:class:`~repro.program.program.Program` without touching addresses:

.. code-block:: python

    builder = ProgramBuilder("toy")
    main = builder.function("main")
    main.block("top", n_plain=6)
    main.cond("check", n_plain=2, target="top",
              behaviour=LoopBehaviour(mean_trips=100))
    main.call("tail", n_plain=1, callee="leaf")
    main.jump("again", n_plain=0, target="top")
    leaf = builder.function("leaf")
    leaf.ret("body", n_plain=12)
    program = builder.build()

Block helper methods append one block each; the block order is the layout
order (fall-through goes to the next declared block).
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.errors import ProgramError
from repro.isa import InstrKind
from repro.program.behaviour import BranchBehaviour, IndirectBehaviour
from repro.program.cfg import BasicBlock, ControlFlowGraph, Function, Terminator
from repro.program.layout import (
    DEFAULT_FUNCTION_ALIGN,
    DEFAULT_TEXT_BASE,
    layout_cfg,
)
from repro.program.program import Program


class FunctionBuilder:
    """Accumulates the basic blocks of a single function."""

    def __init__(self, owner: ProgramBuilder, name: str) -> None:
        self._owner = owner
        self.name = name
        self._blocks: list[BasicBlock] = []

    # -- block helpers ------------------------------------------------------

    def block(self, label: str, n_plain: int) -> FunctionBuilder:
        """A straight-line block that falls through to the next block."""
        self._blocks.append(BasicBlock(label, n_plain))
        return self

    def cond(
        self,
        label: str,
        n_plain: int,
        target: str,
        behaviour: BranchBehaviour,
    ) -> FunctionBuilder:
        """Block ending in a conditional branch to *target* (same function)."""
        idx = self._owner.register_behaviour(behaviour)
        term = Terminator(InstrKind.COND_BRANCH, target_label=target, behaviour=idx)
        self._blocks.append(BasicBlock(label, n_plain, term))
        return self

    def jump(self, label: str, n_plain: int, target: str) -> FunctionBuilder:
        """Block ending in an unconditional jump to *target*."""
        term = Terminator(InstrKind.JUMP, target_label=target)
        self._blocks.append(BasicBlock(label, n_plain, term))
        return self

    def call(self, label: str, n_plain: int, callee: str) -> FunctionBuilder:
        """Block ending in a direct call to function *callee*."""
        term = Terminator(InstrKind.CALL, callee=callee)
        self._blocks.append(BasicBlock(label, n_plain, term))
        return self

    def icall(
        self,
        label: str,
        n_plain: int,
        callees: Sequence[str],
        behaviour: IndirectBehaviour,
    ) -> FunctionBuilder:
        """Block ending in an indirect call among *callees*."""
        if behaviour.n_targets != len(callees):
            raise ProgramError(
                f"icall {label!r}: behaviour expects {behaviour.n_targets} "
                f"targets, got {len(callees)} callees"
            )
        idx = self._owner.register_behaviour(behaviour)
        term = Terminator(
            InstrKind.INDIRECT_CALL,
            indirect_callees=tuple(callees),
            behaviour=idx,
        )
        self._blocks.append(BasicBlock(label, n_plain, term))
        return self

    def ret(self, label: str, n_plain: int) -> FunctionBuilder:
        """Block ending in a return."""
        term = Terminator(InstrKind.RETURN)
        self._blocks.append(BasicBlock(label, n_plain, term))
        return self

    def finish(self) -> Function:
        """Materialise the :class:`~repro.program.cfg.Function`."""
        return Function(self.name, list(self._blocks))


class ProgramBuilder:
    """Top-level builder; create functions, then :meth:`build`."""

    def __init__(
        self,
        name: str,
        entry: str = "main",
        base: int = DEFAULT_TEXT_BASE,
        function_align: int = DEFAULT_FUNCTION_ALIGN,
    ) -> None:
        self.name = name
        self.entry = entry
        self.base = base
        self.function_align = function_align
        self._functions: dict[str, FunctionBuilder] = {}
        self._behaviours: list[BranchBehaviour] = []
        self.metadata: dict[str, object] = {}

    def function(self, name: str) -> FunctionBuilder:
        """Start (or retrieve) the builder for function *name*."""
        if name in self._functions:
            return self._functions[name]
        fb = FunctionBuilder(self, name)
        self._functions[name] = fb
        return fb

    def register_behaviour(self, behaviour: BranchBehaviour) -> int:
        """Add a behaviour model, returning its table index."""
        self._behaviours.append(behaviour)
        return len(self._behaviours) - 1

    def build(self) -> Program:
        """Validate, lay out, and return the finished Program."""
        if not self._functions:
            raise ProgramError(f"program {self.name!r} has no functions")
        cfg = ControlFlowGraph(
            functions={name: fb.finish() for name, fb in self._functions.items()},
            entry=self.entry,
        )
        laid_out = layout_cfg(cfg, base=self.base, function_align=self.function_align)
        return Program(
            name=self.name,
            image=laid_out.image,
            behaviours=list(self._behaviours),
            entry=laid_out.function_entries[self.entry],
            indirect_targets=dict(laid_out.indirect_targets),
            function_entries=dict(laid_out.function_entries),
            metadata=dict(self.metadata),
            cfg=cfg,
        )

"""Profile-driven code reordering (the paper's §6 future work).

The paper closes by asking whether "software techniques, like profile
driven basic-block reordering, will significantly improve the I-cache
performance".  This module implements the function-granularity version of
that transformation: profile a program from one of its own dynamic traces
(:func:`function_heat`), then re-lay the functions out hottest-first so
the resident working set occupies a compact, conflict-free region of the
direct-mapped cache (:func:`reorder_program`).

A ``cold-first`` strategy (pessimal: hot code scattered behind cold code)
and a seeded ``shuffle`` are provided as the comparison points used by the
``extension_reorder`` experiment.
"""

from __future__ import annotations

import bisect
import random
from collections import Counter

from repro.errors import ProgramError
from repro.program.cfg import ControlFlowGraph
from repro.program.layout import layout_cfg
from repro.program.program import Program
from repro.trace.event import Trace

#: Recognised orderings for :func:`reorder_program`.
STRATEGIES = ("hot-first", "cold-first", "shuffle", "original")


def function_heat(program: Program, trace: Trace) -> dict[str, int]:
    """Dynamic instruction count per function, from a profiling trace.

    Block starts are mapped to functions by address interval (functions
    are laid out contiguously, so the owning function is the one with the
    greatest entry address <= the block start).
    """
    if trace.program_name != program.name:
        raise ProgramError(
            f"trace is for {trace.program_name!r}, "
            f"program is {program.name!r}"
        )
    entries = sorted(
        (addr, name) for name, addr in program.function_entries.items()
    )
    addresses = [addr for addr, _ in entries]
    names = [name for _, name in entries]
    heat: Counter[str] = Counter()
    for record in trace.records:
        idx = bisect.bisect_right(addresses, record.start) - 1
        if idx < 0:
            raise ProgramError(
                f"block at {record.start:#x} precedes every function"
            )
        heat[names[idx]] += record.length
    # Functions never executed still appear (with zero heat).
    for name in program.function_entries:
        heat.setdefault(name, 0)
    return dict(heat)


def _ordered_names(
    program: Program,
    heat: dict[str, int],
    strategy: str,
    seed: int,
) -> list[str]:
    names = list(program.function_entries)
    if strategy == "original":
        return names
    if strategy == "shuffle":
        rng = random.Random(seed)
        shuffled = list(names)
        rng.shuffle(shuffled)
        return shuffled
    missing = [name for name in names if name not in heat]
    if missing:
        raise ProgramError(f"heat profile missing functions: {missing}")
    hot_first = sorted(names, key=lambda n: (-heat[n], n))
    if strategy == "hot-first":
        return hot_first
    return list(reversed(hot_first))  # cold-first


def reorder_program(
    program: Program,
    heat: dict[str, int] | None = None,
    strategy: str = "hot-first",
    seed: int = 0,
) -> Program:
    """Re-lay *program*'s functions according to *strategy*.

    Returns a new :class:`Program` with identical control flow and
    behaviour models but a different code layout.  ``heat`` is required
    for the profile-driven strategies (``hot-first`` / ``cold-first``)
    and ignored otherwise.
    """
    if strategy not in STRATEGIES:
        raise ProgramError(
            f"unknown strategy {strategy!r}; expected one of {STRATEGIES}"
        )
    if program.cfg is None:
        raise ProgramError(
            f"program {program.name!r} carries no CFG; only builder-made "
            "programs can be reordered"
        )
    if strategy in ("hot-first", "cold-first") and heat is None:
        raise ProgramError(f"strategy {strategy!r} needs a heat profile")
    order = _ordered_names(program, heat or {}, strategy, seed)
    reordered_cfg = ControlFlowGraph(
        functions={name: program.cfg.functions[name] for name in order},
        entry=program.cfg.entry,
    )
    laid_out = layout_cfg(reordered_cfg, base=program.image.base)
    return Program(
        name=program.name,
        image=laid_out.image,
        behaviours=program.behaviours,
        entry=laid_out.function_entries[program.cfg.entry],
        indirect_targets=dict(laid_out.indirect_targets),
        function_entries=dict(laid_out.function_entries),
        metadata={**program.metadata, "layout": strategy},
        cfg=reordered_cfg,
    )

"""Code-image parity with ``tests/goldens/program_images.json``.

Every workload the experiments build is lowered from a symbolic CFG into a
:class:`~repro.program.image.CodeImage`.  This test pins the lowered
images: one sha256 per image over its base address, the kind, target,
behaviour and next-control arrays, the entry point, the function entries
and the indirect-target table.  It covers the 13 suite workloads at two
structure seeds plus gcc re-laid out by :func:`reorder_program`, so any
change to layout, padding, target resolution or the control scan shows up
as a changed digest.

Regenerate (only when a layout change is intended) with::

    PYTHONPATH=src python tests/program/test_image_golden.py
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.program.program import Program
from repro.program.reorder import function_heat, reorder_program
from repro.program.workloads import SUITE, build_workload
from repro.trace.generator import generate_trace

GOLDEN = Path(__file__).resolve().parent.parent / "goldens" / "program_images.json"
SEEDS = (1995, 7)
PROFILE_LENGTH = 8_000
PROFILE_SEED = 1995


def image_digest(program: Program) -> str:
    """sha256 over everything a simulation reads from *program*'s image."""
    image = program.image
    digest = hashlib.sha256()
    digest.update(str(image.base).encode())
    for values, dtype in (
        (image.kinds_list, np.int8),
        (image.targets_list, np.int64),
        (image.behaviours_list, np.int32),
        (image.next_ctrl_list, np.int64),
    ):
        digest.update(np.asarray(values, dtype=dtype).tobytes())
    tables = {
        "entry": program.entry,
        "function_entries": program.function_entries,
        "indirect_targets": {
            str(addr): list(targets)
            for addr, targets in sorted(program.indirect_targets.items())
        },
    }
    digest.update(json.dumps(tables, sort_keys=True).encode())
    return digest.hexdigest()


def _build(case: str) -> Program:
    if case.startswith("gcc@"):
        program = build_workload("gcc")
        strategy = case.split("@", 1)[1]
        if strategy == "hot-first":
            trace = generate_trace(program, PROFILE_LENGTH, seed=PROFILE_SEED)
            heat = function_heat(program, trace)
            return reorder_program(program, heat=heat, strategy="hot-first")
        return reorder_program(program, strategy="shuffle", seed=1)
    name, seed = case.split("/")
    return build_workload(name, seed=int(seed))


CASES = [f"{name}/{seed}" for seed in SEEDS for name in SUITE] + [
    "gcc@hot-first",
    "gcc@shuffle",
]


def _golden() -> dict[str, str]:
    with GOLDEN.open(encoding="utf-8") as handle:
        return json.load(handle)["images"]


def test_golden_covers_every_case():
    assert sorted(_golden()) == sorted(CASES)


@pytest.mark.parametrize("case", CASES)
def test_image_matches_golden(case):
    assert image_digest(_build(case)) == _golden()[case], (
        f"{case} lowered to a different code image"
    )


if __name__ == "__main__":
    images = {case: image_digest(_build(case)) for case in CASES}
    GOLDEN.write_text(
        json.dumps({"images": images}, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    sys.stdout.write(f"wrote {len(images)} digests to {GOLDEN}\n")

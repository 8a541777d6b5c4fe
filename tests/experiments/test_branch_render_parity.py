"""Render parity for the experiments that vary the branch configuration.

Table 3 and the five branch ablations sweep the PHT kind and size, the
BTB geometry, the speculative BTB update and the RAS — every path of the
branch unit, including the configurations the engine's branch fast path
must leave to the generic path.  Each experiment is regenerated at 8k
instructions (seed 1995) and the sha256 of its rendered text is compared
with ``tests/goldens/renders_branch.json``.  The hashes were recorded
before the branch fast path existed, so any drift in prediction,
training or classification shows up here as a changed render.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.core.runner import SimulationRunner
from repro.experiments import registry

GOLDEN = Path(__file__).resolve().parent.parent / "goldens" / "renders_branch.json"
TRACE_LENGTH = 8_000
SEED = 1995


def _golden() -> dict[str, str]:
    with GOLDEN.open(encoding="utf-8") as handle:
        return json.load(handle)["renders"]


@pytest.mark.parametrize("experiment_id", sorted(_golden()))
def test_branch_experiment_render_matches_golden(experiment_id):
    runner = SimulationRunner(trace_length=TRACE_LENGTH, seed=SEED)
    text = registry.run_experiment(experiment_id, runner).render()
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    assert digest == _golden()[experiment_id], (
        f"{experiment_id} rendered differently from its golden hash"
    )

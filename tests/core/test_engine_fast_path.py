"""Differential tests for the engine's hot-loop fast paths.

The cache fast path in ``FetchEngine._issue_run`` (and the inlined
terminator issue in ``_run_span``) batches cache-hit bookkeeping for
direct-mapped, unclassified, stream-buffer-free configurations.  The
branch fast path (``_branch_fast``) predicts conditional branches inline
in ``_run_span`` for live, decoupled branch units.  These tests force the
general path on an otherwise identical engine and assert the results are
bit-identical, so neither fast path can drift from the reference
semantics.
"""

from __future__ import annotations

import pytest

from repro.config import (
    ALL_POLICIES,
    BranchConfig,
    CacheConfig,
    FetchPolicy,
    SimConfig,
)
from repro.core.engine import FetchEngine
from repro.program.workloads import build_workload
from repro.trace.generator import generate_trace

TRACE_LENGTH = 12_000
SEED = 1234


@pytest.fixture(scope="module")
def workload():
    program = build_workload("gcc")
    trace = generate_trace(program, n_instructions=TRACE_LENGTH, seed=SEED)
    return program, trace


def _run(program, trace, config, *, fast: bool, warmup: int = 0):
    engine = FetchEngine(program, config)
    if not fast:
        engine._fast_path = False
    else:
        assert engine._fast_path, "config unexpectedly off the fast path"
    return engine.run(trace, warmup_instructions=warmup)


@pytest.mark.parametrize("policy", ALL_POLICIES)
def test_fast_path_bit_identical_per_policy(workload, policy):
    program, trace = workload
    config = SimConfig(policy=policy)
    assert _run(program, trace, config, fast=True) == _run(
        program, trace, config, fast=False
    )


@pytest.mark.parametrize(
    "kwargs",
    [
        {"prefetch": True},
        {"prefetch": True, "prefetch_variant": "always"},
        {"prefetch": True, "target_prefetch": True},
        {"fill_buffers": 2},
        {"bus_interleave_cycles": 3},
    ],
    ids=lambda kw: ",".join(sorted(kw)),
)
def test_fast_path_bit_identical_variants(workload, kwargs):
    program, trace = workload
    config = SimConfig(policy=FetchPolicy.RESUME, **kwargs)
    assert _run(program, trace, config, fast=True) == _run(
        program, trace, config, fast=False
    )


def test_fast_path_bit_identical_with_warmup(workload):
    program, trace = workload
    config = SimConfig(policy=FetchPolicy.RESUME, prefetch=True)
    assert _run(program, trace, config, fast=True, warmup=3_000) == _run(
        program, trace, config, fast=False, warmup=3_000
    )


@pytest.mark.parametrize(
    "kwargs",
    [
        {"cache": CacheConfig(assoc=4)},
        {"classify": True},
        {"stream_buffers": 2},
        {"perfect_cache": True},
    ],
    ids=lambda kw: ",".join(sorted(kw)),
)
def test_general_configs_stay_off_fast_path(workload, kwargs):
    """Associative / classified / stream / perfect configs must not take it."""
    program, _ = workload
    policy = FetchPolicy.OPTIMISTIC if "classify" in kwargs else FetchPolicy.RESUME
    config = SimConfig(policy=policy, **kwargs)
    assert not FetchEngine(program, config)._fast_path


# -- branch fast path ----------------------------------------------------------

BRANCH_WARMUP = 3_000


def _branch_state(engine):
    """Predictor state a run leaves behind (not all of it is in the result)."""
    unit = engine.unit
    btb = unit.btb
    return (
        (btb.hits, btb.misses, btb.insertions, btb.evictions),
        [[(e.tag, e.target, e.counter) for e in ways] for ways in btb._sets],
        list(unit.pht.table.values),
        unit.history.value,
    )


def _run_branch(program, trace, config, *, branch_fast: bool, warmup: int = 0):
    engine = FetchEngine(program, config)
    if not branch_fast:
        engine._branch_fast = False
    else:
        assert engine._branch_fast, "config unexpectedly off the branch fast path"
    result = engine.run(trace, warmup_instructions=warmup)
    return result, _branch_state(engine)


def _assert_branch_parity(program, trace, config, warmup: int = 0):
    fast = _run_branch(program, trace, config, branch_fast=True, warmup=warmup)
    slow = _run_branch(program, trace, config, branch_fast=False, warmup=warmup)
    assert fast[0] == slow[0]
    assert fast[1] == slow[1]


@pytest.mark.parametrize("warmup", [0, BRANCH_WARMUP], ids=["cold", "warm"])
@pytest.mark.parametrize(
    "variant",
    [{}, {"prefetch": True}, {"target_prefetch": True}],
    ids=["plain", "prefetch", "target_prefetch"],
)
@pytest.mark.parametrize("schedule", ["timing", "architectural"])
@pytest.mark.parametrize("policy", ALL_POLICIES, ids=lambda p: p.name)
def test_branch_fast_path_bit_identical(workload, policy, schedule, variant, warmup):
    program, trace = workload
    config = SimConfig(policy=policy, branch_schedule=schedule, **variant)
    _assert_branch_parity(program, trace, config, warmup=warmup)


def test_branch_fast_path_on_for_paper_default(workload):
    program, _ = workload
    assert FetchEngine(program, SimConfig())._branch_fast


def test_branch_fast_path_off_for_coupled(workload):
    program, _ = workload
    config = SimConfig(branch=BranchConfig(coupled=True))
    assert not FetchEngine(program, config)._branch_fast


@pytest.mark.parametrize(
    "branch",
    [
        BranchConfig(pht_kind="bimodal"),
        BranchConfig(pht_kind="gag"),
        BranchConfig(speculative_btb_update=False),
        BranchConfig(pht_kind="gag", speculative_btb_update=False),
        BranchConfig(use_ras=True),
        BranchConfig(btb_entries=16, btb_assoc=2, pht_entries=64),
    ],
    ids=["bimodal", "gag", "nonspec_btb", "gag_nonspec_btb", "ras", "small"],
)
@pytest.mark.parametrize("warmup", [0, BRANCH_WARMUP], ids=["cold", "warm"])
def test_branch_fast_path_dispatches_other_branch_configs(workload, branch, warmup):
    """Non-gshare PHTs go through their own predict(); the non-speculative
    BTB update takes the inline insert — both stay bit-identical."""
    program, trace = workload
    for policy in (FetchPolicy.RESUME, FetchPolicy.PESSIMISTIC):
        config = SimConfig(policy=policy, branch=branch)
        _assert_branch_parity(program, trace, config, warmup=warmup)


def test_branch_fast_path_off_for_replay(workload):
    from repro.branch.stream import build_stream

    program, trace = workload
    config = SimConfig(branch_schedule="architectural")
    stream = build_stream(program, trace, config)
    assert not FetchEngine(program, config, stream=stream)._branch_fast

"""Tests of the benchmark's own statistics, tracing and gate.

Run from the repository root::

    python3 -m pytest perfbench/test_perfbench.py

The last test runs the ``paper`` workload at a tiny trace length with and
without an injected engine slowdown (about 40 s on a 2-core host).
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402
import speed  # noqa: E402
import stats  # noqa: E402


# -- percentile selection ------------------------------------------------------


def test_nearest_rank_percentile_is_an_observed_value():
    samples = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert stats.percentile(samples, 50) == 3.0
    assert stats.percentile(samples, 100) == 5.0
    assert stats.percentile(samples, 1) == 1.0


@pytest.mark.parametrize(
    ("n", "p", "tail"),
    [(19, 50, 9), (20, 50, 10), (99, 90, 9), (100, 90, 10), (1000, 99, 10)],
)
def test_tail_count(n, p, tail):
    assert stats.tail_count(n, p) == tail


def test_report_keeps_only_percentiles_with_ten_samples_beyond():
    assert stats.percentile_report(list(range(19))) == {}
    assert set(stats.percentile_report(list(range(20)))) == {50.0}
    assert set(stats.percentile_report(list(range(99)))) == {50.0}
    assert set(stats.percentile_report(list(range(100)))) == {50.0, 90.0}
    assert set(stats.percentile_report(list(range(1000)))) == {
        50.0, 90.0, 99.0,
    }
    report = stats.percentile_report([float(i) for i in range(1, 101)])
    assert report == {50.0: 50.0, 90.0: 90.0}


def test_flags_regression_direction():
    assert stats.flags_regression([10, 10, 10], [11.5, 11.5], 0.1)
    assert not stats.flags_regression([10, 10, 10], [10.9], 0.1)
    assert stats.flags_regression([1.0], [0.8], 0.1, better="higher")
    assert not stats.flags_regression([1.0], [1.2], 0.1, better="higher")


# -- self time -----------------------------------------------------------------


def _span(span_id, start, end, parent=None):
    return {"id": span_id, "start": start, "end": end, "parent": parent}


def test_self_time_nested():
    spans = [
        _span(0, 0.0, 10.0),
        _span(1, 1.0, 4.0, parent=0),
        _span(2, 2.0, 3.0, parent=1),
        _span(3, 6.0, 8.0, parent=0),
    ]
    selfs = stats.self_times(spans)
    assert selfs == {0: 5.0, 1: 2.0, 2: 1.0, 3: 2.0}
    # Self times partition the root's duration.
    assert sum(selfs.values()) == pytest.approx(10.0)


def test_self_time_overlapping_children_counted_once():
    spans = [
        _span(0, 0.0, 10.0),
        _span(1, 1.0, 5.0, parent=0),
        _span(2, 3.0, 7.0, parent=0),  # overlaps span 1 (another thread)
        _span(3, 4.0, 6.0, parent=0),  # inside both
    ]
    assert stats.self_times(spans)[0] == pytest.approx(4.0)


def test_self_time_clips_children_to_parent():
    spans = [_span(0, 2.0, 6.0), _span(1, 0.0, 3.0, parent=0),
             _span(2, 5.0, 9.0, parent=0)]
    assert stats.self_times(spans)[0] == pytest.approx(2.0)


def test_covered_length_ignores_empty_intervals():
    assert stats.covered_length([(1.0, 1.0), (3.0, 2.0)]) == 0.0
    assert stats.covered_length([(0.0, 2.0), (1.0, 3.0), (5.0, 6.0)]) == 4.0


# -- host-speed adjustment -----------------------------------------------------


def test_speed_factor_is_the_mean_over_the_reference():
    ref = speed.REFERENCE_KERNEL_S
    # A fast and a slow mode, weighed by the time each held.
    assert speed.speed_factor([ref, ref, 2 * ref, 4 * ref]) == 2.0
    assert speed.adjusted(3.0, 1.5) == 2.0
    with pytest.raises(ValueError):
        speed.speed_factor([])


def test_speed_around_an_operation_takes_the_window_on_either_side():
    sampler = speed.SpeedSampler()
    sampler.samples = [float(i) for i in range(10)]
    w = speed.WINDOW
    # One sample was taken during the operation, between marks 4 and 5.
    assert sampler.around(4, 5) == speed.speed_factor(
        sampler.samples[4 - w:5 + w]
    )
    # Clipped at the first sample; an operation between two samples
    # still gets the window around it.
    assert sampler.around(0, 0) == speed.speed_factor(sampler.samples[:w])


def test_steal_share_slows_a_cpu_time_factor():
    # 300 of 1200 ticks stolen: the CPUs ran 3/4 of the time they wanted.
    share = speed.steal_share((100, 1000), (400, 2200))
    assert share == 0.25
    assert speed.with_steal(1.5, share) == 2.0
    assert speed.steal_share((5, 10), (5, 10)) == 0.0
    steal, total = speed.cpu_ticks()
    assert 0 <= steal <= total


def test_sampler_samples_while_busy_and_restores_the_handler():
    import signal
    import time

    before = signal.getsignal(signal.SIGPROF)
    with speed.SpeedSampler(timer="cpu") as sampler:
        first = sampler.mark()
        end = time.process_time() + 0.3
        while time.process_time() < end:
            pass
    assert signal.getsignal(signal.SIGPROF) is before
    assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)
    taken = sampler.mark() - first
    assert taken >= 5, taken
    assert all(s > 0 for s in sampler.samples)
    assert sampler.factor(first) > 0


# -- the tracer ----------------------------------------------------------------


def test_tracer_records_parent_and_group():
    import tracer as tracing

    tracer = tracing.Tracer()

    def inner():
        return 1

    def outer(eid):
        return traced_inner()

    traced_inner = tracer.wrap(inner, "inner")
    traced_outer = tracer.wrap(outer, "outer", group_arg=0)
    traced_outer("table5")
    by_name = {s["name"]: s for s in tracer.spans}
    assert by_name["inner"]["parent"] == by_name["outer"]["id"]
    assert by_name["inner"]["group"] == by_name["outer"]["group"] == "table5"
    assert by_name["outer"]["parent"] is None


# -- the benchmark definition --------------------------------------------------


def _benchmark_json() -> dict:
    return json.loads((common.ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_matches_the_metrics_reported():
    spec = _benchmark_json()
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == common.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == common.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(common.WORKLOADS)
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_paper_reference_data_shape():
    paper = common.load_json("paper_tables.json")
    assert set(paper["table5"]) == {"B1", "B2", "B4"}
    rows = [
        *paper["table5"].values(), paper["table6"],
        *paper["table5_b4_per_benchmark"].values(),
    ]
    for row in rows:
        assert set(row) == {
            "oracle", "optimistic", "resume", "pessimistic", "decode",
        }
        assert all(0 < v < 5 for v in row.values())


# -- the gate trips on a known slowdown ------------------------------------------

#: Tiny trace length for the gate check (the workload must still run).
TINY_LENGTH = 2_000
#: Pairs of (plain, slowed) passes.
PAIRS = 5
#: Injected slowdown of the end-to-end time, all of it in the engine layer.
SLOWDOWN = 0.10


def _pass(delay: float = 0.0, traced: bool = False) -> dict:
    import subprocess

    cmd = [
        sys.executable, str(common.BENCH_DIR / "local_pass.py"),
        "--workload", "paper", "--seed", "1995",
        "--trace-length", str(TINY_LENGTH), "--inject-delay", str(delay),
    ]
    if traced:
        cmd.append("--traced")
    out = subprocess.run(
        cmd, capture_output=True, text=True, env=common.child_env(),
        cwd=common.ROOT, timeout=300, check=True,
    )
    lines = [l for l in out.stdout.splitlines() if l.startswith("PERFBENCH ")]
    return json.loads(lines[-1][len("PERFBENCH "):])


@pytest.fixture(scope="module")
def slowdown_runs():
    """Wall times of interleaved plain and slowed passes, and their ratios."""
    traced = _pass(traced=True)
    layers = traced["layers"]
    engine_s = sum(
        layers[f"engine.{k}_s"] for k in ("event", "vector", "adaptive")
    )
    share = engine_s / traced["wall_s"]
    assert 0.3 < share <= 1.0, share
    # Each engine run busy-waits this fraction of its own time, which
    # adds SLOWDOWN of the whole pass, all of it inside the engine layer.
    delay = SLOWDOWN / share
    base, slow = [], []
    for i in range(PAIRS):
        order = (0.0, delay) if i % 2 == 0 else (delay, 0.0)
        for d in order:
            done = _pass(delay=d)
            wall = speed.adjusted(done["wall_s"], done["speed"])
            (slow if d else base).append(wall)
    ratios = [s / b for s, b in zip(slow, base)]
    return base, slow, ratios


def test_injected_slowdown_shows_in_paired_passes(slowdown_runs):
    _, _, ratios = slowdown_runs
    assert statistics.median(ratios) > 1 + SLOWDOWN / 2, ratios


@pytest.mark.xfail(
    reason="wall_s keeps a bound of 0.25: even host-speed adjusted, ten "
    "runs on the shared host the bounds were set on spread by up to 0.12 "
    "in a contended spell, so a single-run gate cannot flag a 10% slowdown "
    "(see README.md, Bounds and steadiness)",
    strict=False,
)
def test_wall_s_bound_flags_an_injected_ten_percent_slowdown(slowdown_runs):
    base, slow, _ = slowdown_runs
    bound = next(
        m["bound"] for m in _benchmark_json()["end_to_end"]
        if m["name"] == "wall_s"
    )
    assert stats.flags_regression(base, slow, bound), (base, slow, bound)

"""One pass of the ``paper`` or ``studies`` workload in a fresh interpreter.

Started by ``run.py`` and by ``test_perfbench.py``.  Protocol: lines
``PERFBENCH <json>`` on stdout — ``{"event": "ready", "speed": ...}``
once the workload is set up (imports plus ``prepared()`` of all 13
workloads), then ``{"event": "done", ...}`` with the pass's
measurements.  ``speed`` is the host's speed factor over the set-up or
the pass (``speed.py``); times are reported raw.

``--verify-service`` instead simulates every cell of the service
workload locally and prints their digests, so ``run.py`` can check the
service's answers.
"""

from __future__ import annotations

import argparse
import sys
import time

import common
from common import ALL_IDS, PAPER_IDS, STUDY_IDS, emit, sha256_text

#: Span names whose layer must record at least one span, per workload
#: and phase.  A refactor that moves a call site out from under a
#: wrapper fails the traced run instead of silently dropping a layer.
REQUIRED_SPANS = {
    "paper": {
        "setup": ("program.build", "trace.generate"),
        "pass": (
            "experiment", "runner.run", "engine.build", "engine.run.event",
            "report.render",
        ),
    },
    "studies": {
        "setup": ("program.build", "trace.generate"),
        "pass": (
            "experiment", "runner.run", "program.build", "trace.generate",
            "stream.build", "engine.build", "engine.run.event",
            "engine.run.vector", "engine.run.adaptive", "report.render",
        ),
    },
    "service": {"pass": ("service.sweep",)},
}


#: Benchmarks of the perfect-cache invariant check.
CHECK_BENCHMARKS = ("doduc", "gcc", "li", "groff", "lic")


class CellLog:
    """Latency and identity of every ``SimulationRunner.run`` call.

    Installed in timed passes too: two clock reads and an append per
    cell, against milliseconds of simulation.  Each latency comes with
    the host's speed factor around the call (:meth:`local_speeds`).
    """

    def __init__(self, sampler) -> None:
        self.sampler = sampler
        self.latencies: list[float] = []
        #: ``(first, last)`` speed-sample marks around each call.
        self.marks: list[tuple[int, int]] = []
        self.repeat_latencies: list[float] = []
        self.repeat_marks: list[tuple[int, int]] = []
        self.seen: set = set()
        self.calls = 0
        self.results: list = []
        #: Calls per experiment id (set :attr:`current` before each).
        self.per_experiment: dict[str, int] = {}
        self.current = ""
        self.enabled = True

    def install(self, runner_cls) -> None:
        original = runner_cls.run
        log = self

        def run(self, name, config):
            if not log.enabled:
                return original(self, name, config)
            first = log.sampler.mark()
            start = time.perf_counter()
            result = original(self, name, config)
            elapsed = time.perf_counter() - start
            marks = (first, log.sampler.mark())
            key = (name, config)
            log.calls += 1
            log.per_experiment[log.current] = (
                log.per_experiment.get(log.current, 0) + 1
            )
            if key in log.seen:
                log.repeat_latencies.append(elapsed)
                log.repeat_marks.append(marks)
            else:
                log.seen.add(key)
            log.latencies.append(elapsed)
            log.marks.append(marks)
            log.results.append(result)
            return result

        runner_cls.run = run

    def local_speeds(self, marks) -> list[float]:
        """Speed factor around each call (``SpeedSampler.around``)."""
        return [self.sampler.around(first, last) for first, last in marks]


def _ids(workload: str) -> tuple[str, ...]:
    return PAPER_IDS if workload == "paper" else STUDY_IDS


def _ispi_pairs(workload: str, results: dict) -> list:
    import model

    if workload == "paper":
        return model.paper_pairs_from_tables(
            results["table5"].data["per_benchmark"],
            results["table6"].data["per_benchmark"],
        )
    # The robustness study's per-benchmark means over its own five trace
    # seeds, at the paper's B4 configuration; they do not depend on the
    # workload seed, so the error is a property of the model alone.
    return model.paper_pairs_per_benchmark(
        results["robustness"].data["summaries"]
    )


def layer_metrics(tracer, log: CellLog) -> dict[str, float]:
    """Per-layer metrics of one traced pass, from its spans."""
    import model
    from stats import self_times

    spans = tracer.spans
    by_name: dict[str, list[dict]] = {}
    for span in spans:
        by_name.setdefault(span["name"], []).append(span)

    def total(name):
        return sum(s["end"] - s["start"] for s in by_name.get(name, ()))

    def count(name):
        return len(by_name.get(name, ()))

    def ns_per_instr(name):
        instrs = sum(s["instructions"] for s in by_name.get(name, ()))
        return 1e9 * total(name) / instrs if instrs else 0.0

    metrics: dict[str, float] = {}
    for eid in ALL_IDS:
        metrics[f"experiments.{eid}_s"] = sum(
            s["end"] - s["start"]
            for s in spans
            if s["group"] == eid and s["parent"] is None
        )
    replays = sum(1 for s in by_name.get("engine.build", ()) if s["replay"])
    builds = count("stream.build")
    selfs = self_times(spans)
    metrics.update({
        "program.build_s": total("program.build"),
        "program.builds": count("program.build"),
        "trace.generate_s": total("trace.generate"),
        "trace.generated": count("trace.generate"),
        "stream.build_s": total("stream.build"),
        "stream.builds": builds,
        "stream.replays": replays,
        "stream.replays_per_build": replays / builds if builds else 0.0,
        "engine.build_s": total("engine.build"),
        "engine.event_s": total("engine.run.event"),
        "engine.event_cells": count("engine.run.event"),
        "engine.event_ns_per_instr": ns_per_instr("engine.run.event"),
        "engine.vector_s": total("engine.run.vector"),
        "engine.vector_cells": count("engine.run.vector"),
        "engine.vector_ns_per_instr": ns_per_instr("engine.run.vector"),
        "engine.adaptive_s": total("engine.run.adaptive"),
        "engine.adaptive_cells": count("engine.run.adaptive"),
        "runner.calls": log.calls,
        "runner.unique_cells": len(log.seen),
        "runner.repeat_frac": (
            1.0 - len(log.seen) / log.calls if log.calls else 0.0
        ),
        "runner.self_s": sum(
            selfs[s["id"]] for s in by_name.get("runner.run", ())
        ),
        "report.render_s": total("report.render"),
    })
    metrics.update(model.sim_counts(tracer.results))
    return metrics


def missing_layers(tracer, workload: str) -> list[str]:
    """Required span names that recorded nothing, as ``phase:name``."""
    seen = {
        (("setup" if s["group"] == "setup" else "pass"), s["name"])
        for s in tracer.spans
    }
    return [
        f"{phase}:{name}"
        for phase, names in REQUIRED_SPANS[workload].items()
        for name in names
        if (phase, name) not in seen
    ]


def run_pass(args) -> None:
    import tracer as tracing
    from speed import SpeedSampler

    sampler = SpeedSampler(timer="cpu").start()
    tracer = None
    if args.traced:
        tracer = tracing.Tracer()
        tracer.group_hint = "setup"
        tracing.install(tracer)
    if args.inject_delay:
        tracing.inject_engine_delay(args.inject_delay)
    from repro.core.runner import SimulationRunner
    from repro.experiments import registry
    from repro.program.workloads import SUITE

    registry_ids = tuple(registry.EXPERIMENTS)
    if registry_ids != ALL_IDS or tuple(registry.PAPER_EXPERIMENTS) != PAPER_IDS:
        raise SystemExit(
            "perfbench: the experiment registry changed; update "
            "PAPER_IDS/STUDY_IDS in perfbench/common.py"
        )
    runner = SimulationRunner(trace_length=args.trace_length, seed=args.seed)
    for name in SUITE:
        runner.prepared(name)
    emit(sys.stdout, {"event": "ready", "speed": sampler.factor()})
    if args.setup_only:
        sampler.stop()
        return

    log = CellLog(sampler)
    log.install(SimulationRunner)
    renders: dict[str, str] = {}
    results: dict = {}
    experiment_s: dict[str, float] = {}
    mark = sampler.mark()
    wall0 = time.perf_counter()
    cpu0 = time.process_time()
    for eid in _ids(args.workload):
        log.current = eid
        if tracer is not None:
            tracer.group_hint = eid
        start = time.perf_counter()
        results[eid] = registry.run_experiment(eid, runner)
        renders[eid] = sha256_text(results[eid].render())
        experiment_s[eid] = time.perf_counter() - start
    wall = time.perf_counter() - wall0
    cpu = time.process_time() - cpu0
    sampler.stop()
    speed = sampler.factor(mark)

    import model

    payload = {
        "event": "done",
        "wall_s": wall,
        "cpu_s": cpu,
        "speed": speed,
        "experiment_s": experiment_s,
        "calls": log.calls,
        "unique_cells": len(log.seen),
        "missing": sum(1 for r in log.results if model.is_missing(r)),
        "latencies": log.latencies,
        "latency_speeds": log.local_speeds(log.marks),
        "repeat_latencies": log.repeat_latencies,
        "repeat_speeds": log.local_speeds(log.repeat_marks),
        "renders": renders,
        "experiment_cells": log.per_experiment,
        "ispi_err_pct": model.ispi_error_pct(
            _ispi_pairs(args.workload, results)
        ),
    }
    if tracer is not None:
        layers = layer_metrics(tracer, log)
        payload["layers"] = layers
        payload["missing_layers"] = missing_layers(tracer, args.workload)
        payload["sim_digest"] = sha256_text(repr(sorted(
            (k, v) for k, v in layers.items() if k.startswith("sim.")
        )))
        if args.spans_out:
            from pathlib import Path

            tracer.dump(Path(args.spans_out))
    # Seed-independent invariant, checked outside the timed region on a
    # runner of its own so that the pass's memos stay as they were.
    log.enabled = False
    payload["perfect_cache_violations"] = model.perfect_cache_violations(
        SimulationRunner(trace_length=args.trace_length, seed=args.seed),
        CHECK_BENCHMARKS,
    )
    emit(sys.stdout, payload)


def verify_service(args) -> None:
    """Simulate every service cell locally; print per-request digests."""
    import model
    from repro.core.runner import SimulationRunner

    runner = SimulationRunner(trace_length=args.trace_length, seed=args.seed)
    cache: dict = {}
    digests = []
    for _, cells in model.service_requests():
        row = []
        for cell in cells:
            if cell not in cache:
                cache[cell] = model.result_digest(runner.run(*cell))
            row.append(cache[cell])
        digests.append(row)
    emit(sys.stdout, {"event": "verified", "digests": digests})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("paper", "studies"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace-length", type=int, required=True)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans-out", default=None)
    parser.add_argument("--verify-service", action="store_true")
    parser.add_argument(
        "--inject-delay", type=float, default=0.0, metavar="FRACTION",
        help="slow every engine run by this fraction of its own time",
    )
    args = parser.parse_args(argv)
    common.use_src()
    if args.verify_service:
        verify_service(args)
    else:
        run_pass(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Benchmark of regenerating the paper's tables, its studies, and the sweep
service, end to end and layer by layer.

Usage, from the repository root::

    python3 perfbench/run.py --workload paper --seed 1995 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace
1`` makes one untraced and one traced pass and reports the per-layer
metrics, the tracing overhead among them.  The last line of standard
output is one JSON object: ``correct``, ``attempted`` (cells requested),
``failed`` (cells missing or wrong) and ``metrics``.  See
``perfbench/README.md`` for the workloads and what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import threading
import time

import common
from common import (
    BENCH_DIR, END_TO_END, OUT_DIR, PER_LAYER, SRC, TRACE_LENGTH, WORKLOADS,
)
from speed import SpeedSampler, adjusted
from stats import median, percentile_report

#: Passes per timed run, at least; more while ``--seconds`` is not used up.
MIN_PASSES = 3
#: Set-up samples per timed run, at least (extra set-up-only launches).
MIN_SETUPS = 5
#: A run starts no pass that would end past this many seconds, so a slow
#: host gets fewer passes, not a longer run.
RUN_BUDGET_S = 40.0
REFERENCE_FILE = "reference.json"


class BenchError(Exception):
    """The benchmark could not produce a result."""


def _deadline_kill(proc: subprocess.Popen, seconds: float) -> threading.Timer:
    timer = threading.Timer(max(seconds, 1.0), proc.kill)
    timer.daemon = True
    timer.start()
    return timer


def spawn_local(args, deadline: float, traced=False, setup_only=False,
                spans_out=None, verify=False) -> tuple[float, dict]:
    """Run ``local_pass.py`` once; returns (set-up seconds, final payload).

    Set-up runs from the launch of a fresh interpreter until the child
    reports that the workload is ready; it is returned host-speed
    adjusted by the speed the child measured meanwhile (``speed.py``).
    """
    cmd = [
        sys.executable, str(BENCH_DIR / "local_pass.py"),
        "--seed", str(args.seed), "--trace-length", str(args.trace_length),
    ]
    if verify:
        cmd.append("--verify-service")
    else:
        cmd += ["--workload", args.workload]
    if traced:
        cmd.append("--traced")
    if setup_only:
        cmd.append("--setup-only")
    if spans_out:
        cmd += ["--spans-out", str(spans_out)]
    start = time.perf_counter()
    proc = subprocess.Popen(
        cmd, stdout=subprocess.PIPE, text=True, env=common.child_env(),
        cwd=common.ROOT,
    )
    timer = _deadline_kill(proc, deadline - time.monotonic())
    setup = None
    payload = None
    try:
        for line in proc.stdout:
            if not line.startswith("PERFBENCH "):
                continue
            message = json.loads(line[len("PERFBENCH "):])
            if message["event"] == "ready":
                setup = adjusted(
                    time.perf_counter() - start, message["speed"]
                )
            else:
                payload = message
        code = proc.wait()
    finally:
        timer.cancel()
        proc.stdout.close()
    if code != 0:
        raise BenchError(f"{' '.join(cmd[1:3])} exited with code {code}")
    if not verify and setup is None:
        raise BenchError("pass child never reported ready")
    return setup, payload or {}


def _peak_rss_mb() -> float:
    """Largest peak resident set of this process or any reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def _latency_metrics(cold: list[float], warm: list[float]) -> dict[str, float]:
    cold_report = percentile_report(cold)
    warm_report = percentile_report(warm)
    if 90.0 not in cold_report or 50.0 not in warm_report:
        raise BenchError(
            f"too few latency samples for the reported percentiles "
            f"({len(cold)} cold, {len(warm)} warm)"
        )
    return {
        "request_p50_ms": 1000.0 * cold_report[50.0],
        "request_p90_ms": 1000.0 * cold_report[90.0],
        "warm_request_p50_ms": 1000.0 * warm_report[50.0],
    }


def _reference() -> dict:
    path = BENCH_DIR / REFERENCE_FILE
    return json.loads(path.read_text()) if path.exists() else {}


def _reference_for(args) -> dict | None:
    """The stored seed-1995 reference of this workload, if it applies."""
    ref = _reference()
    if args.seed != common.DEFAULT_SEED or args.update_reference:
        return None
    if ref.get("trace_length") != args.trace_length:
        return None
    return ref.get(args.workload)


def _want_pass(args, passes: int, measured: float, start: float) -> bool:
    """Whether a run makes another pass.

    A traced run makes exactly two (untraced, then traced).  A timed run
    makes at least MIN_PASSES and continues until ``--seconds`` of
    measured time are used up, but starts no pass that would end past
    RUN_BUDGET_S.
    """
    if args.trace:
        return passes < 2
    if passes >= MIN_PASSES and measured >= args.seconds:
        return False
    elapsed = time.monotonic() - start
    return passes == 0 or elapsed + elapsed / passes <= RUN_BUDGET_S


class Tally:
    """Cells requested and cells failed, with the reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def fail(self, cells: int, why: str) -> None:
        self.failed += cells
        self.problems.append(f"{why} ({cells} cells)")


# -- paper and studies ---------------------------------------------------------


def _check_local_pass(done: dict, first: dict | None, ref: dict | None,
                      tally: Tally, check_cells: int) -> None:
    tally.attempted += done["calls"] + check_cells
    if done["missing"]:
        tally.fail(done["missing"], "cells returned MissingResult")
    cells = done["experiment_cells"]
    for eid, digest in done["renders"].items():
        expected = None
        if ref is not None:
            expected = ref["renders"].get(eid)
        elif first is not None:
            expected = first["renders"][eid]
        if expected is not None and digest != expected:
            tally.fail(cells.get(eid, 1), f"{eid} rendering differs")
    bad = done["perfect_cache_violations"]
    if bad:
        tally.fail(5 * len(bad), f"perfect-cache policies disagree on {bad}")
    if ref is not None and done["ispi_err_pct"] != ref["ispi_err_pct"]:
        tally.fail(1, "ispi_err_pct differs from the reference")


def run_local(args, deadline: float) -> tuple[Tally, dict, dict]:
    from local_pass import CHECK_BENCHMARKS

    ref = _reference_for(args)
    tally = Tally()
    check_cells = 5 * len(CHECK_BENCHMARKS)
    setups, walls, raw_walls, speeds = [], [], [], []
    cpus, latencies, repeats, passes = [], [], [], []
    start = time.monotonic()
    while _want_pass(args, len(passes), sum(raw_walls), start):
        traced = bool(args.trace) and len(passes) == 1
        spans_out = None
        if traced:
            spans_out = OUT_DIR / f"spans-{args.workload}-{args.seed}.json"
        setup, done = spawn_local(args, deadline, traced=traced,
                                  spans_out=spans_out)
        _check_local_pass(done, passes[0] if passes else None, ref, tally,
                          check_cells)
        passes.append(done)
        setups.append(setup)
        if not traced:
            speed = done["speed"]
            walls.append(adjusted(done["wall_s"], speed))
            raw_walls.append(done["wall_s"])
            speeds.append(speed)
            cpus.append(done["cpu_s"])
            latencies += map(
                adjusted, done["latencies"], done["latency_speeds"]
            )
            repeats += map(
                adjusted, done["repeat_latencies"], done["repeat_speeds"]
            )
    peak = _peak_rss_mb()
    extra: dict = {"passes": len(passes), "cells_per_pass": passes[0]["calls"]}
    if args.trace:
        untraced, traced_pass = passes
        missing = traced_pass["missing_layers"]
        if missing:
            raise BenchError(
                f"layers recorded no spans on {args.workload}: "
                + ", ".join(missing)
            )
        if ref is not None and traced_pass["sim_digest"] != ref["sim_digest"]:
            tally.fail(1, "sim.* counts differ from the reference")
        layers = dict.fromkeys(PER_LAYER, 0.0)
        layers.update(traced_pass["layers"])
        layers.update(_host(untraced["wall_s"], untraced["cpu_s"], 1))
        layers.update(_overhead(
            adjusted(untraced["wall_s"], untraced["speed"]),
            adjusted(traced_pass["wall_s"], traced_pass["speed"]),
        ))
        extra["sim_digest"] = traced_pass["sim_digest"]
        return tally, layers, extra
    while len(setups) < MIN_SETUPS and time.monotonic() - start < RUN_BUDGET_S:
        setups.append(spawn_local(args, deadline, setup_only=True)[0])
    metrics = {
        "setup_s": median(setups),
        "wall_s": median(walls),
        "peak_rss_mb": peak,
        "ispi_err_pct": passes[0]["ispi_err_pct"],
        **_latency_metrics(latencies, repeats),
    }
    extra.update({
        "setup_samples": setups, "wall_samples": walls,
        "raw_wall_samples": raw_walls, "speed_samples": speeds,
        "cpu_samples": cpus,
        "latency_samples": len(latencies), "warm_samples": len(repeats),
        "renders": passes[0]["renders"],
    })
    return tally, metrics, extra


def _host(wall: float, cpu: float, cores: int) -> dict[str, float]:
    """CPU time of a pass, and the core-seconds it spent not computing."""
    return {"host.cpu_s": cpu, "host.wait_s": wall * cores - cpu}


def _overhead(wall: float, traced_wall: float) -> dict[str, float]:
    return {
        "tracing.overhead_s": traced_wall - wall,
        "tracing.overhead_frac": (traced_wall - wall) / wall,
    }


# -- service -------------------------------------------------------------------


def _service_checks(data: dict, unique: int, tally: Tally) -> list[list[str]]:
    """Check one service pass; returns the cold results' digests."""
    import model

    n = len(model.service_requests())
    cells = sum(len(c) for _, c in model.service_requests())
    phases = (*data["cold"], *data["warm"])
    tally.attempted += len(phases) * cells
    digests = []
    for index in range(n):
        rows = [
            [model.result_digest(r) for r in phase[index].results]
            for phase in phases
        ]
        for phase in phases:
            failures = phase[index].failures
            if failures:
                tally.fail(len(failures), "service reported failed cells")
        missing = sum(d == "missing" for row in rows for d in row)
        if missing:
            tally.fail(missing, "service returned MissingResult")
        if any(row != rows[0] for row in rows):
            tally.fail(len(rows[0]), f"request {index} answers disagree")
        digests.append(rows[0])
    cold, warm = data["cold_counters"], data["warm_counters"]
    if cold["service.cells_simulated"] != unique:
        tally.fail(
            abs(cold["service.cells_simulated"] - unique),
            f"service simulated {cold['service.cells_simulated']} cells, "
            f"expected the {unique} unique ones",
        )
    warm_hits = warm["service.store_hits"] - cold["service.store_hits"]
    warm_cells = len(data["warm"]) * cells
    if warm_hits != warm_cells:
        tally.fail(warm_cells - warm_hits, "warm phase missed the store")
    return digests


def _service_ispi(data: dict) -> float:
    """``ispi_err_pct`` from the Table 5/6 answers of the first cold client."""
    import model

    answers = data["cold"][0]
    table5: dict = {}
    table6: dict = {}
    for index, (tag, cells) in enumerate(model.service_requests()):
        table, group, name = tag
        for (_, config), result in zip(cells, answers[index].results):
            policy = config.policy.value
            if table == "table5":
                table5.setdefault(name, {})[f"{group}-{policy}"] = (
                    result.total_ispi
                )
            elif table == "table6":
                table6.setdefault(name, {})[policy] = result.total_ispi
    return model.ispi_error_pct(model.paper_pairs_from_tables(table5, table6))


def run_service(args, deadline: float) -> tuple[Tally, dict, dict]:
    common.use_src()
    import model
    import service_load
    from local_pass import missing_layers

    ref = _reference_for(args)
    workers = os.cpu_count() or 1
    unique = len({cell for _, cells in model.service_requests() for cell in cells})
    tally = Tally()
    setups, walls, raw_walls, latencies, warm_latencies = [], [], [], [], []
    passes = []
    tracer = None
    # The client mostly waits on the server's workers, so it samples on
    # wall-clock ticks and counts only the kernel's own CPU time.
    sampler = SpeedSampler(timer="real", clock=time.thread_time)
    start = time.monotonic()
    while _want_pass(args, len(passes), sum(raw_walls), start):
        if args.trace and len(passes) == 1:
            import tracer as tracing

            tracer = tracing.Tracer()
            tracing.install(tracer)
        with sampler:
            data = service_load.run_pass(
                args.seed, args.trace_length, workers, len(passes), sampler
            )
        digests = _service_checks(data, unique, tally)
        if passes and digests != passes[0]["digests"]:
            tally.fail(unique, "service answers changed between passes")
        data["digests"] = digests
        data["ispi_err_pct"] = _service_ispi(data)
        data["sim"] = model.sim_counts(
            r for phase in data["cold"] for resp in phase.values()
            for r in resp.results
        )
        # Keep no answers across passes: the client's own memory would
        # otherwise grow with the pass count and show in peak_rss_mb.
        del data["cold"], data["warm"]
        passes.append(data)
        setups.append(adjusted(data["boot_s"], data["boot_speed"]))
        if tracer is None:
            walls.append(adjusted(data["wall_s"], data["cold_speed"]))
            raw_walls.append(data["wall_s"])
            # Cold requests that waited for simulation; the ones the
            # store answered outright are a second mode, near the warm
            # latency, and would leave the median jumping between modes.
            cold, warm = data["cold_speed"], data["warm_speed"]
            latencies += [
                adjusted(t, cold) for t, stored in data["latencies"]
                if not stored
            ]
            warm_latencies += [
                adjusted(t, warm) for t, _ in data["warm_latencies"]
            ]
    peak = _peak_rss_mb()
    # Every answer must equal the same cell simulated locally.
    _, verified = spawn_local(args, deadline, verify=True)
    local = verified["digests"]
    wrong = sum(
        a != b
        for got, want in zip(passes[0]["digests"], local)
        for a, b in zip(got, want)
    )
    if wrong:
        tally.fail(wrong * 3 * len(passes), "service answers differ from local")
    local_digest = common.sha256_text(json.dumps(local))
    if ref is not None and local_digest != ref["digest"]:
        tally.fail(unique, "local answers differ from the reference")
    ispi = passes[0]["ispi_err_pct"]
    if ref is not None and ispi != ref["ispi_err_pct"]:
        tally.fail(1, "ispi_err_pct differs from the reference")
    extra: dict = {
        "passes": len(passes), "digest": local_digest, "unique_cells": unique,
    }
    if args.trace:
        untraced, traced_pass = passes
        layers = dict.fromkeys(PER_LAYER, 0.0)
        layers.update(traced_pass["sim"])
        layers.update(_service_layers(traced_pass))
        layers.update(_host(untraced["pass_wall_s"], untraced["cpu_s"], workers))
        layers.update(_overhead(
            adjusted(untraced["wall_s"], untraced["cold_speed"]),
            adjusted(traced_pass["wall_s"], traced_pass["cold_speed"]),
        ))
        missing = missing_layers(tracer, "service")
        if missing:
            raise BenchError(
                "layers recorded no spans on service: " + ", ".join(missing)
            )
        tracer.dump(OUT_DIR / f"spans-service-{args.seed}.json")
        sim_digest = common.sha256_text(repr(sorted(
            (k, v) for k, v in layers.items() if k.startswith("sim.")
        )))
        if ref is not None and sim_digest != ref["sim_digest"]:
            tally.fail(1, "sim.* counts differ from the reference")
        extra.update({"sim_digest": sim_digest, "ispi_err_pct": ispi})
        return tally, layers, extra
    while len(setups) < MIN_SETUPS and time.monotonic() - start < RUN_BUDGET_S:
        with sampler:
            boot, speed = service_load.boot_once(
                OUT_DIR / f"boot-{os.getpid()}", workers, sampler
            )
        setups.append(adjusted(boot, speed))
    metrics = {
        "setup_s": median(setups),
        "wall_s": median(walls),
        "peak_rss_mb": peak,
        "ispi_err_pct": ispi,
        **_latency_metrics(latencies, warm_latencies),
    }
    extra.update({
        "setup_samples": setups, "wall_samples": walls,
        "raw_wall_samples": raw_walls,
        "speed_samples": [p["cold_speed"] for p in passes],
        "steal_samples": [p["cold_steal"] for p in passes],
        "latency_samples": len(latencies),
        "warm_samples": len(warm_latencies),
    })
    return tally, metrics, extra


def _service_layers(data: dict) -> dict[str, float]:
    cold, warm = data["cold_counters"], data["warm_counters"]
    requested = cold["service.cells_requested"]
    warm_requested = warm["service.cells_requested"] - requested
    return {
        "service.boot_s": data["boot_s"],
        "service.requests": cold["service.requests"],
        "service.cells_requested": requested,
        "service.cells_simulated": cold["service.cells_simulated"],
        "service.store_hits": cold["service.store_hits"],
        "service.deduped": cold["service.deduped"],
        "service.retries": cold["service.retries"],
        "service.failures": cold["service.failures"],
        "service.sim_frac": cold["service.cells_simulated"] / requested,
        "service.warm_hit_frac": (
            (warm["service.store_hits"] - cold["service.store_hits"])
            / warm_requested
        ),
    }


# -- command line --------------------------------------------------------------


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=common.DEFAULT_SEED)
    parser.add_argument(
        "--seconds", type=float, default=18.0,
        help="measured time per run (passes repeat until it is used up)",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--update-reference", action="store_true",
        help="store this run's seed-1995 outputs as the reference",
    )
    args = parser.parse_args(argv)
    args.trace_length = TRACE_LENGTH
    return args


def _update_reference(args, extra: dict, metrics: dict) -> None:
    if args.seed != common.DEFAULT_SEED:
        raise BenchError("references are stored for seed 1995 only")
    ref = _reference()
    if ref.get("trace_length") != args.trace_length:
        ref = {"seed": args.seed, "trace_length": args.trace_length}
    section = ref.setdefault(args.workload, {})
    for key in ("renders", "sim_digest", "digest"):
        if key in extra:
            section[key] = extra[key]
    if "ispi_err_pct" in metrics:
        section["ispi_err_pct"] = metrics["ispi_err_pct"]
    elif "ispi_err_pct" in extra:
        section["ispi_err_pct"] = extra["ispi_err_pct"]
    (BENCH_DIR / REFERENCE_FILE).write_text(
        json.dumps(ref, indent=1, sort_keys=True) + "\n"
    )


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {SRC}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + 175.0
    OUT_DIR.mkdir(exist_ok=True)
    runner = run_service if args.workload == "service" else run_local
    try:
        tally, metrics, extra = runner(args, deadline)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    if args.update_reference:
        _update_reference(args, extra, metrics)
    attempted = max(tally.attempted, 1)
    failed_frac = tally.failed / attempted
    if not args.trace:
        metrics["ok_frac"] = 1.0 - failed_frac
    units = END_TO_END if not args.trace else PER_LAYER
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "trace_length": args.trace_length,
        "host": common.host_fingerprint(),
        "failed_frac": failed_frac,
        "problems": tally.problems,
        "metrics": metrics,
        "detail": extra,
    }
    (OUT_DIR / f"result-{args.workload}-{args.seed}-{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n"
    )
    print(
        f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
        f"trace_length={args.trace_length} passes={extra['passes']} "
        f"host={json.dumps(record['host'], sort_keys=True)}"
    )
    print(f"  failed_frac = {failed_frac:.6g} ({tally.failed} of "
          f"{tally.attempted} cells)")
    for problem in tally.problems:
        print(f"  FAILED: {problem}")
    for name, unit in units.items():
        print(f"  {name} = {metrics[name]:.6g} {unit}")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items()
        },
    }
    sys.stdout.flush()
    print(json.dumps(result, separators=(",", ":")))
    return 0


if __name__ == "__main__":
    sys.exit(main())

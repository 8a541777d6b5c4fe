"""Fault-tolerance smoke check for the sweep layer.

Runs a small parallel sweep under an injected-fault barrage (worker
crash, hard process exit, delay, artifact-cache corruption) and asserts
that

* the sweep completes despite the faults (retries + pool rebuilds),
* every result is bit-identical to a fault-free serial run,
* the recovery machinery actually engaged (faults fired, retries spent),
  and
* a resumed sweep — the same jobs on a fresh runner over the faulted
  sweep's ``checkpoint_dir`` — is served wholly from the result store
  (``checkpoint.hits`` equals the job count), still bit-identically.

Usage::

    PYTHONPATH=src python tools/check_robustness.py
    PYTHONPATH=src python tools/check_robustness.py --trace-length 5000

The benchmark harness runs this as a subprocess (see
benchmarks/bench_robustness.py), so `pytest benchmarks/` enforces the
recovery guarantee alongside the performance budgets.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
)

from repro.config import FetchPolicy, SimConfig  # noqa: E402
from repro.core.faults import FaultPlan, FaultSpec  # noqa: E402
from repro.core.parallel import ParallelRunner  # noqa: E402
from repro.core.runner import SimulationRunner  # noqa: E402

SEED = 7


def _jobs():
    return [
        ("li", SimConfig(policy=FetchPolicy.ORACLE)),
        ("li", SimConfig(policy=FetchPolicy.RESUME)),
        ("doduc", SimConfig(policy=FetchPolicy.ORACLE)),
        ("doduc", SimConfig(policy=FetchPolicy.PESSIMISTIC)),
    ]


def _plan(state_dir: str) -> FaultPlan:
    return FaultPlan(
        faults=[
            FaultSpec(phase="simulate", kind="crash", benchmark="li"),
            FaultSpec(phase="build", kind="exit", benchmark="doduc"),
            FaultSpec(phase="generate", kind="delay", seconds=0.01),
            FaultSpec(phase="cache_load", kind="corrupt", benchmark="li"),
        ],
        state_dir=state_dir,
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--trace-length",
        type=int,
        default=3_000,
        help="dynamic instructions per benchmark (default %(default)s; "
        "the check is about recovery, not simulation scale)",
    )
    args = parser.parse_args(argv)
    trace_length = args.trace_length
    warmup = trace_length // 5

    serial = SimulationRunner(
        trace_length=trace_length, warmup=warmup, seed=SEED
    )
    reference = [serial.run(name, config) for name, config in _jobs()]

    failures: list[str] = []
    with tempfile.TemporaryDirectory() as scratch:
        plan = _plan(os.path.join(scratch, "faults"))
        runner = ParallelRunner(
            trace_length=trace_length, warmup=warmup, seed=SEED,
            max_workers=2, retries=3, backoff_base=0.0,
            cache_dir=os.path.join(scratch, "cache"), fault_plan=plan,
            checkpoint_dir=os.path.join(scratch, "ckpt"),
        )
        results = runner.run_jobs(_jobs())
        fired = plan.fired_total()
        retries = runner.metrics.value("sweep.retries")
        rebuilds = runner.metrics.value("sweep.pool_rebuilds")
        resume = ParallelRunner(
            trace_length=trace_length, warmup=warmup, seed=SEED,
            max_workers=2, checkpoint_dir=os.path.join(scratch, "ckpt"),
        )
        resumed = resume.run_jobs(_jobs())
        hits = resume.metrics.value("checkpoint.hits")

    print(
        f"faulted sweep: {len(results)} cells | {fired} faults fired | "
        f"{retries} retries | {rebuilds} pool rebuild(s)"
    )
    print(f"resumed sweep: {len(resumed)} cells | {hits} checkpoint hits")
    if fired < 3:
        failures.append(
            f"only {fired} faults fired; the barrage did not engage"
        )
    if retries < 1:
        failures.append("no retries were spent; recovery path never ran")
    if hits != len(_jobs()):
        failures.append(
            f"resume hit the store for {hits} of {len(_jobs())} cells"
        )
    for label, swept in (("faulted", results), ("resumed", resumed)):
        for index, (mine, theirs) in enumerate(zip(swept, reference)):
            if (
                mine.penalties.as_dict() != theirs.penalties.as_dict()
                or mine.total_ispi != theirs.total_ispi
                or mine.counters.instructions != theirs.counters.instructions
            ):
                failures.append(
                    f"{label} cell {index} ({theirs.program}) diverged from "
                    f"the fault-free serial reference"
                )

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print(
        "robustness check passed: faulted and resumed sweeps are "
        "bit-identical"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

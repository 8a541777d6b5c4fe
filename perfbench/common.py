"""Constants and helpers shared by ``run.py`` and its child processes.

Nothing here imports ``repro``: the main process of the ``paper`` and
``studies`` workloads stays small, and this module loads even in a
directory that holds only the benchmark.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: Scratch space for service data directories and span dumps
#: (listed in the repository's ``.gitignore``).
OUT_DIR = ROOT / ".perfbench"

WORKLOADS = ("paper", "studies", "service")
DEFAULT_SEED = 1995

#: Dynamic instructions per workload trace (the runner's default warmup,
#: a quarter of this, is simulated but not measured).  EXPERIMENTS.md
#: uses 200k; 8k keeps a run short enough to repeat, and is the shortest
#: length at which no experiment divides by a zero memory-access count
#: on any seed tried (5k and 6k do: ``extension_prefetch_variants``).
TRACE_LENGTH = 8_000

#: Experiment ids, in registry order.  ``paper`` runs the first ten
#: (``PAPER_EXPERIMENTS``); ``studies`` runs the rest.  The benchmark
#: checks at run time that this matches the registry.
PAPER_IDS = (
    "table2", "table3", "table4", "figure1", "figure2",
    "table5", "table6", "figure3", "figure4", "table7",
)
STUDY_IDS = (
    "ablation_btb", "ablation_pht", "ablation_assoc", "ablation_btbupd",
    "ablation_ras", "ablation_pht_size", "ablation_linesize",
    "extension_nonblocking", "extension_l2", "extension_prefetch_variants",
    "extension_reorder", "extension_streambuffer", "adaptive", "robustness",
)
ALL_IDS = PAPER_IDS + STUDY_IDS

#: ISPI components, in the order of ``repro.core.results.COMPONENTS``.
COMPONENTS = (
    "branch_full", "branch", "rt_icache", "wrong_icache", "bus",
    "force_resolve",
)
#: Engine counters summed into the ``sim.*`` metrics.
SIM_COUNTERS = (
    "instructions", "right_probes", "right_misses", "wrong_probes",
    "wrong_misses", "right_fills", "wrong_fills", "prefetches",
    "prefetch_hits", "inflight_merges", "wrong_instructions",
)

#: End-to-end metrics: name -> unit (all lower-is-better but ``ok_frac``).
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "fraction",
    "ispi_err_pct": "%",
    "request_p50_ms": "ms",
    "request_p90_ms": "ms",
    "warm_request_p50_ms": "ms",
}


def _per_layer() -> dict[str, str]:
    metrics = {f"experiments.{eid}_s": "s" for eid in ALL_IDS}
    metrics.update({
        "program.build_s": "s",
        "program.builds": "count",
        "trace.generate_s": "s",
        "trace.generated": "count",
        "stream.build_s": "s",
        "stream.builds": "count",
        "stream.replays": "count",
        "stream.replays_per_build": "ratio",
        "engine.build_s": "s",
        "engine.event_s": "s",
        "engine.event_cells": "count",
        "engine.event_ns_per_instr": "ns",
        "engine.vector_s": "s",
        "engine.vector_cells": "count",
        "engine.vector_ns_per_instr": "ns",
        "engine.adaptive_s": "s",
        "engine.adaptive_cells": "count",
        "runner.calls": "count",
        "runner.unique_cells": "count",
        "runner.repeat_frac": "fraction",
        "runner.self_s": "s",
        "report.render_s": "s",
    })
    metrics.update({f"sim.{name}": "count" for name in SIM_COUNTERS})
    metrics.update({f"sim.slots.{c}": "slots" for c in COMPONENTS})
    metrics.update({
        "sim.prefetch_useful_frac": "fraction",
        "sim.wrong_fill_frac": "fraction",
        "service.boot_s": "s",
        "service.requests": "count",
        "service.cells_requested": "count",
        "service.cells_simulated": "count",
        "service.store_hits": "count",
        "service.deduped": "count",
        "service.retries": "count",
        "service.failures": "count",
        "service.sim_frac": "fraction",
        "service.warm_hit_frac": "fraction",
        "host.cpu_s": "s",
        "host.wait_s": "s",
        "tracing.overhead_s": "s",
        "tracing.overhead_frac": "fraction",
    })
    return metrics


#: Per-layer metrics reported by a traced run: name -> unit.
PER_LAYER = _per_layer()


def child_env() -> dict[str, str]:
    """Environment for child interpreters: ``src`` first on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def use_src() -> None:
    """Put ``src`` first on this interpreter's import path."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def source_digest() -> str:
    """Digest of every ``src/**/*.py`` file: names the code measured
    even where the checkout is not a git repository."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short=12", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def host_fingerprint() -> dict[str, object]:
    """What a result was measured on: cores, interpreter, NumPy, code."""
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "missing"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "machine": platform.machine(),
        "commit": git_commit(),
        "src_digest": source_digest(),
    }


def emit(stream, payload: dict) -> None:
    """One protocol line from a child process to ``run.py``."""
    stream.write("PERFBENCH " + json.dumps(payload, separators=(",", ":")) + "\n")
    stream.flush()


def load_json(name: str) -> dict:
    return json.loads((BENCH_DIR / name).read_text())

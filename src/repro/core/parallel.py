"""Multi-process simulation sweeps with fault-tolerant execution.

Experiment sweeps are embarrassingly parallel across benchmarks (each
(program, trace) pair is independent), and the pure-Python engine is
CPU-bound, so a process pool gives near-linear speedups for the big
tables.  Jobs are grouped by benchmark and each batch runs in one
worker through a :class:`~repro.core.runner.SimulationRunner` — the one
cell executor — so a worker builds a workload and generates its trace
once, then replays it through all of that benchmark's configurations,
exactly as a serial sweep does.

Long sweeps must survive partial failure.  The runner therefore layers
fault tolerance over the pool:

* **Retry with bounded deterministic exponential backoff** — *transient*
  failures (``BrokenProcessPool``, OS-level worker death, watchdog
  timeouts, injected transient faults) requeue the failed batch under
  the runner's :class:`~repro.core.faults.RetryPolicy`.  Library errors
  (:class:`ReproError`) and unknown exceptions are *deterministic* —
  retrying cannot help, so they fail fast (or are skipped, below).
* **Watchdog timeouts** — with ``job_timeout`` set, a batch still
  running when the deadline passes is killed (the whole pool is torn
  down, since a pool cannot kill one worker) and requeued against its
  retry budget; completed batches from the same round are kept.
* **Pool rebuild** — a broken pool is discarded and rebuilt; only
  unfinished batches are resubmitted.
* **Graceful degradation** — with ``on_error="skip"``, a batch that
  exhausts its budget (or fails deterministically) is recorded in
  :attr:`failures` as a structured :class:`SweepFailure` and its cells
  become :class:`MissingResult` placeholders instead of aborting the
  sweep.
* **Checkpoint/resume** — with ``checkpoint_dir`` set, every completed
  ``(benchmark, config)`` cell lands in a
  :class:`~repro.core.store.ResultStore`; a restarted sweep reuses stored
  cells bit-identically.

Retries, timeouts, skips, pool rebuilds, and checkpoint activity are
published as ``sweep.*`` / ``checkpoint.*`` counters in :attr:`metrics`.

Determinism is preserved: with no faults injected, a parallel sweep
returns bit-identical results to the serial runner for the same
(trace_length, seed, warmup), and — with ``collect_metrics=True`` — a
metrics registry identical to a serial observed sweep (counter merge is
commutative, so retries and completion order cannot perturb it).  With
faults injected, a *recovered* sweep is still bit-identical: faults fire
at phase boundaries and failed attempts publish nothing, so only the new
``sweep.*`` counters differ.
"""

from __future__ import annotations

import contextlib
import time
from collections import deque
from collections.abc import Iterable, Sequence
from concurrent.futures import FIRST_EXCEPTION, ProcessPoolExecutor, wait
from concurrent.futures import BrokenExecutor
from dataclasses import dataclass

from repro.config import ALL_POLICIES, FetchPolicy, SimConfig
from repro.core.faults import RetryPolicy
from repro.core.results import MissingResult, SimulationResult, SweepFailure
from repro.core.runner import (
    DEFAULT_TRACE_LENGTH,
    SimulationRunner,
    check_runner_args,
    effective_config,
)
from repro.core.store import ResultStore, cell_digest
from repro.errors import ExperimentError, JobTimeoutError
from repro.obs.metrics import MetricsRegistry
from repro.obs.observer import Observer
from repro.obs.profile import PhaseProfiler

#: Injectable sleep (tests stub this out to keep backoff assertions fast).
_sleep = time.sleep

#: Worker payload: (results, metrics-registry dict or None, profile
#: summary or None).  Registries cross the process boundary as plain
#: dicts (via ``MetricsRegistry.as_dict``) to keep pickling trivial.
_WorkerReturn = tuple[
    list[SimulationResult],
    dict[str, object] | None,
    dict[str, dict[str, float]] | None,
]


def _run_benchmark_jobs(args) -> _WorkerReturn:
    """Worker: one benchmark, many configurations (runs in a subprocess).

    *args* is ``(name, configs, trace_length, warmup, seed, collect,
    cache_dir, replay, fault_plan)``; the trailing fault plan may be
    ``None`` (production) or a :class:`~repro.core.faults.FaultPlan`
    (chaos testing).  The batch runs through a :class:`SimulationRunner`
    without a retry budget (the caller owns retries, the watchdog and
    the result store), so each cell is prepared, fault-injected and
    simulated exactly as in a serial sweep.

    Prediction streams cross the process boundary as *cache keys*, never
    as pickled arrays: with a cache configured the runner memory-maps a
    stream's ``.npy`` files from the shared artifact cache (zero-copy
    transport) and builds + stores the stream itself on a miss.
    """
    (
        name, configs, trace_length, warmup, seed, collect, cache_dir,
        replay, plan,
    ) = args
    observer = Observer(profiler=PhaseProfiler()) if collect else None
    runner = SimulationRunner(
        trace_length, seed, warmup, observer, cache_dir,
        replay=replay, fault_plan=plan, retries=0,
    )
    results = [runner.run(name, config) for config in configs]
    if observer is None:
        return results, None, None
    return results, observer.registry.as_dict(), observer.profiler.summary()


@dataclass
class _Batch:
    """One benchmark's unfinished work and its retry bookkeeping."""

    name: str
    entries: list[tuple[int, SimConfig]]
    attempts: int = 0
    next_delay: float = 0.0

    def payload(self, runner: ParallelRunner):
        return (
            self.name,
            tuple(config for _, config in self.entries),
            runner.trace_length,
            runner.warmup,
            runner.seed,
            runner.collect_metrics,
            runner.cache_dir,
            runner.replay,
            runner.fault_plan,
        )


class ParallelRunner:
    """Process-pool counterpart of :class:`SimulationRunner`.

    Presents the same sweep API; results are identical, only wall-clock
    differs.  Use for full-suite sweeps (Table 5-scale work); for single
    runs the in-process runner is cheaper.

    With ``collect_metrics=True`` every worker runs under its own
    :class:`Observer` (null event sink — events do not cross processes)
    and the merged counters land in :attr:`metrics`, per-phase wall-clock
    in :attr:`profile`.

    Fault tolerance is configured per-runner: ``retries`` transient
    re-attempts per batch with deterministic exponential backoff,
    ``job_timeout`` seconds of watchdog per pooled round,
    ``on_error="skip"`` to degrade failed cells to
    :class:`MissingResult` (recorded in :attr:`failures`), and
    ``checkpoint_dir`` for a crash-resumable result store.  ``fault_plan``
    injects deterministic failures for chaos testing (see
    :mod:`repro.core.faults`).
    """

    def __init__(
        self,
        trace_length: int = DEFAULT_TRACE_LENGTH,
        seed: int = 1995,
        warmup: int | None = None,
        max_workers: int | None = None,
        collect_metrics: bool = False,
        cache_dir: str | None = None,
        retries: int = 2,
        backoff_base: float = 0.1,
        backoff_cap: float = 2.0,
        job_timeout: float | None = None,
        on_error: str = "raise",
        checkpoint_dir: str | None = None,
        fault_plan=None,
        replay: str = "auto",
        engine: str = "auto",
    ) -> None:
        self.warmup = check_runner_args(
            trace_length, warmup, job_timeout, on_error, replay, engine
        )
        if max_workers is not None and max_workers < 1:
            raise ExperimentError(f"max_workers must be >= 1: {max_workers}")
        self.trace_length = trace_length
        self.seed = seed
        self.max_workers = max_workers
        self.collect_metrics = collect_metrics
        #: Shared persistent artifact cache directory handed to every
        #: worker (``None`` disables caching).
        self.cache_dir = cache_dir
        #: Transient-failure retry budget and backoff per batch.
        self.retry = RetryPolicy(retries, backoff_base, backoff_cap)
        self.job_timeout = job_timeout
        self.on_error = on_error
        self.checkpoint_dir = checkpoint_dir
        self.fault_plan = fault_plan
        #: Prediction-stream replay mode handed to every worker
        #: (``"auto"`` replays eligible cells, ``"off"`` never does).
        self.replay = replay
        #: Engine backend override applied to every job before it is
        #: dispatched (``"auto"`` leaves configs untouched; see
        #: ``SimulationRunner``): workers then route each cell through
        #: the ``build_engine`` seam as usual.
        self.engine = engine
        #: Merged worker metrics from the most recent ``run_jobs`` (always
        #: a registry; empty unless ``collect_metrics`` or the sweep
        #: needed fault-tolerance machinery, whose ``sweep.*`` counters
        #: always publish).
        self.metrics = MetricsRegistry()
        #: Merged worker phase profile from the most recent ``run_jobs``.
        self.profile = PhaseProfiler()
        #: Structured failure report from the most recent ``run_jobs``
        #: (non-empty only under ``on_error="skip"``).
        self.failures: list[SweepFailure] = []

    # -- fault-tolerant execution -------------------------------------------

    def run_jobs(
        self, jobs: Iterable[tuple[str, SimConfig]]
    ) -> list[SimulationResult]:
        """Run ``(benchmark, config)`` jobs; results in job order.

        A worker failure is retried (transient causes) up to ``retries``
        times, then re-raised as :class:`ExperimentError` naming the
        benchmark whose jobs crashed (the original exception is chained)
        — or, under ``on_error="skip"``, recorded in :attr:`failures`
        with the affected cells returned as :class:`MissingResult`.
        """
        jobs = list(jobs)
        self.metrics = MetricsRegistry()
        self.profile = PhaseProfiler()
        self.failures = []
        if not jobs:
            return []
        store = ResultStore(self.checkpoint_dir)
        results: list[SimulationResult | None] = [None] * len(jobs)
        # Satisfy stored cells first (checkpoint/resume), then group the
        # remainder by benchmark, remembering original positions.
        grouped: dict[str, _Batch] = {}
        for position, (name, config) in enumerate(jobs):
            config = effective_config(self.engine, config)
            if store.enabled:
                cell = self._cell(name, config)
                hit = store.load(cell_digest(*cell), *cell)
                if hit is not None:
                    results[position] = hit
                    self.metrics.inc("checkpoint.hits")
                    continue
            batch = grouped.get(name)
            if batch is None:
                batch = grouped[name] = _Batch(name=name, entries=[])
            batch.entries.append((position, config))
        batches = list(grouped.values())
        if batches:
            if self.max_workers == 1 or len(batches) == 1:
                self._run_in_process(batches, results, store)
            else:
                self._run_pooled(batches, results, store)
        missing = [
            i for i, r in enumerate(results) if r is None
        ]
        if missing:  # pragma: no cover - defensive
            raise ExperimentError(f"jobs {missing} produced no result")
        return results  # type: ignore[return-value]

    def _run_in_process(
        self,
        batches: Sequence[_Batch],
        results: list,
        store: ResultStore,
    ) -> None:
        """Single-process path (``max_workers=1`` or one batch).

        Same retry/skip semantics as the pooled path, minus the watchdog
        (an in-process batch cannot be killed from outside; use the pool
        or the serial runner's signal-based watchdog for that).
        """
        queue: deque[_Batch] = deque(batches)
        while queue:
            batch = queue.popleft()
            self._pause_before_retry(batch)
            try:
                ret = _run_benchmark_jobs(batch.payload(self))
            except Exception as exc:
                self._register_failure(batch, exc, queue, results)
                continue
            self._complete_batch(batch, ret, results, store)

    def _run_pooled(
        self,
        batches: Sequence[_Batch],
        results: list,
        store: ResultStore,
    ) -> None:
        """Pool path: submit rounds, watchdog each round, rebuild on damage."""
        queue: deque[_Batch] = deque(batches)
        pool = ProcessPoolExecutor(max_workers=self.max_workers)
        try:
            while queue:
                round_batches = list(queue)
                queue.clear()
                delay = max(b.next_delay for b in round_batches)
                if delay > 0:
                    _sleep(delay)
                for batch in round_batches:
                    batch.next_delay = 0.0
                futures = [
                    (batch, pool.submit(_run_benchmark_jobs, batch.payload(self)))
                    for batch in round_batches
                ]
                done, _ = wait(
                    [future for _, future in futures],
                    timeout=self.job_timeout,
                    return_when=FIRST_EXCEPTION
                    if self.on_error == "raise" and self.retry.retries == 0
                    else "ALL_COMPLETED",
                )
                # Process finished batches first: a fail-fast raise must
                # happen before any still-running future could be
                # mislabelled as hung below.
                rebuild = False
                for batch, future in futures:
                    if future not in done:
                        continue
                    try:
                        ret = future.result()
                    except Exception as exc:
                        rebuild = rebuild or isinstance(exc, BrokenExecutor)
                        self._register_failure(batch, exc, queue, results)
                        continue
                    self._complete_batch(batch, ret, results, store)
                hung: list[_Batch] = []
                for batch, future in futures:
                    if future in done:
                        continue
                    if future.cancel():
                        # Never started (queued behind a hung worker):
                        # requeue at no cost to the batch's retry budget.
                        queue.append(batch)
                    else:
                        hung.append(batch)
                if hung:
                    self.metrics.inc("sweep.timeouts", len(hung))
                    rebuild = True
                    for batch in hung:
                        timeout_exc = JobTimeoutError(
                            f"batch for benchmark {batch.name!r} exceeded "
                            f"job_timeout={self.job_timeout}s and was killed"
                        )
                        self._register_failure(
                            batch, timeout_exc, queue, results
                        )
                if rebuild:
                    # A broken or watchdog-killed pool can strand workers;
                    # tear it down hard and start fresh for the requeue.
                    self._terminate_pool(pool)
                    if queue:
                        pool = ProcessPoolExecutor(max_workers=self.max_workers)
                        self.metrics.inc("sweep.pool_rebuilds")
        except BaseException:
            # Fail-fast exit (or interrupt): cancel outstanding work so a
            # failed sweep does not keep burning cores behind the raise.
            self._terminate_pool(pool)
            raise
        else:
            self._terminate_pool(pool)

    # -- shared bookkeeping --------------------------------------------------

    def _cell(self, name: str, config: SimConfig) -> tuple:
        """The result-store identity of one cell of this runner."""
        return (name, config, self.trace_length, self.warmup, self.seed)

    def _pause_before_retry(self, batch: _Batch) -> None:
        if batch.next_delay > 0:
            _sleep(batch.next_delay)
            batch.next_delay = 0.0

    def _register_failure(
        self,
        batch: _Batch,
        exc: Exception,
        queue: deque,
        results: list,
    ) -> None:
        """Retry, skip, or raise for one failed batch attempt."""
        batch.attempts += 1
        if self.retry.retryable(exc, batch.attempts):
            batch.next_delay = self.retry.delay(batch.attempts)
            self.metrics.inc("sweep.retries")
            queue.append(batch)
            return
        if self.on_error == "skip":
            self.failures.append(
                SweepFailure.from_exception(
                    batch.name, exc, batch.attempts, cells=len(batch.entries)
                )
            )
            self.metrics.inc("sweep.skipped_cells", len(batch.entries))
            for position, config in batch.entries:
                results[position] = MissingResult(
                    program=batch.name, config=config
                )
            return
        if isinstance(exc, ExperimentError):
            raise exc
        raise self._worker_error(batch.name, exc) from exc

    def _complete_batch(
        self,
        batch: _Batch,
        ret: _WorkerReturn,
        results: list,
        store: ResultStore,
    ) -> None:
        """Scatter one finished batch into the result list (+ store)."""
        batch_results, registry_dict, profile_summary = ret
        # strict=: a lost or duplicated worker result must fail loudly
        # here, not surface later as a None result or dropped configs.
        if len(batch_results) != len(batch.entries):
            raise ExperimentError(
                f"worker for benchmark {batch.name!r} returned "
                f"{len(batch_results)} results for {len(batch.entries)} "
                f"configurations"
            )
        for (position, config), result in zip(
            batch.entries, batch_results, strict=True
        ):
            results[position] = result
            if store.enabled:
                cell = self._cell(batch.name, config)
                store.store(cell_digest(*cell), *cell, result)
                if store.enabled:
                    self.metrics.inc("checkpoint.stores")
        if registry_dict is not None:
            self.metrics.merge(MetricsRegistry.from_dict(registry_dict))
        if profile_summary is not None:
            self.profile.merge_summary(profile_summary)

    @staticmethod
    def _terminate_pool(pool: ProcessPoolExecutor) -> None:
        """Shut a pool down hard: cancel queued work, kill live workers."""
        pool.shutdown(wait=False, cancel_futures=True)
        processes = getattr(pool, "_processes", None) or {}
        for proc in list(processes.values()):
            with contextlib.suppress(Exception):
                proc.terminate()
        for proc in list(processes.values()):
            with contextlib.suppress(Exception):
                proc.join(timeout=5)

    @staticmethod
    def _worker_error(name: str, exc: Exception) -> ExperimentError:
        """Wrap a worker crash, preserving which benchmark it belongs to."""
        error = ExperimentError(
            f"parallel worker failed for benchmark {name!r}: "
            f"{type(exc).__name__}: {exc}"
        )
        error.benchmark = name
        return error

    def run_matrix(
        self,
        names: Sequence[str],
        config: SimConfig,
        policies: Sequence[FetchPolicy] = ALL_POLICIES,
    ) -> dict[str, dict[FetchPolicy, SimulationResult]]:
        """Parallel benchmark x policy matrix (same shape as the serial
        runner's)."""
        jobs = [
            (name, config.with_policy(policy))
            for name in names
            for policy in policies
        ]
        results = self.run_jobs(jobs)
        matrix: dict[str, dict[FetchPolicy, SimulationResult]] = {}
        index = 0
        for name in names:
            matrix[name] = {}
            for policy in policies:
                matrix[name][policy] = results[index]
                index += 1
        return matrix

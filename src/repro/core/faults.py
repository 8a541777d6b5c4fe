"""Deterministic fault injection for sweep robustness testing.

The fault-tolerant sweep layer (retries, watchdog timeouts, graceful
degradation, checkpoint/resume) is only trustworthy if its failure paths
are *exercised*, and real failures — a worker segfault, a full disk, a
corrupted cache entry — are neither portable nor reproducible.  This
module provides the controlled substitute: a :class:`FaultPlan` is a
list of :class:`FaultSpec` entries, each saying *where* (phase +
benchmark), *when* (the Nth matching invocation), and *how* (crash, hard
process exit, delay, artifact corruption, deterministic bug) a failure
should strike.  The runners call :meth:`FaultPlan.fire` at every phase
boundary; without a plan the call sites are no-ops.

Determinism across retries and processes is the core design constraint:
a fault that re-fires on every retry would make recovery untestable.
Each spec therefore carries a budget of ``times`` *tickets* claimed
through atomic marker files (``O_CREAT | O_EXCL``) in a shared
``state_dir``, so a fault fires exactly ``times`` times across all
processes and all retry attempts of a sweep — a crashed-and-requeued
batch finds the ticket already claimed and succeeds.

Faults fire at phase *boundaries* (before the phase body runs), never
mid-simulation, so a retried attempt re-runs the whole phase and the
no-fault result is bit-identical to an undisturbed run — the property
the chaos suite in ``tests/robustness/`` asserts.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from random import Random

from repro.errors import ExperimentError, InjectedFault, JobTimeoutError, ReproError

#: Worker-side phases, matching the runners' profiling phases.
WORKER_PHASES = ("build", "generate", "cache_load", "cache_store", "simulate")

#: Service-side phase boundaries (see :mod:`repro.service`):
#:
#: * ``dispatch``    — fires in the server's event loop just before a
#:   cell is submitted to the worker pool (inside the retry loop, so a
#:   ``crash`` here exercises the service's transient-retry path and an
#:   ``exit`` kills the whole server — the recovery-journal scenario);
#: * ``store_write`` — fires around the ResultStore write of a finished
#:   cell; a ``corrupt`` spec garbles the entry *after* it lands,
#:   modelling on-disk damage the store must treat as a miss;
#: * ``response``    — fires just before the HTTP response bytes are
#:   written, so a client sees a dead/empty connection and must retry.
SERVICE_PHASES = ("dispatch", "store_write", "response")

#: All phases a fault can strike.
PHASES = WORKER_PHASES + SERVICE_PHASES

#: Supported failure modes:
#:
#: * ``crash``   — raise a *transient* :class:`InjectedFault` (models a
#:   flaky worker error; eligible for retry);
#: * ``bug``     — raise a *deterministic* :class:`InjectedFault` (models
#:   a simulation bug; must fail fast / be skipped, never retried);
#: * ``exit``    — ``os._exit`` the process (models OS-level worker
#:   death; surfaces as ``BrokenProcessPool`` in the parent);
#: * ``delay``   — sleep ``seconds`` then continue (models a slow phase;
#:   long delays are what watchdog timeouts kill);
#: * ``corrupt`` — garble the artifact-cache entry for the benchmark
#:   before the phase runs (models on-disk corruption; the cache must
#:   treat it as a miss).
KINDS = ("crash", "bug", "exit", "delay", "corrupt")

#: Exit status used by ``exit`` faults (distinctive in worker post-mortems).
EXIT_STATUS = 17


def is_transient(exc: BaseException) -> bool:
    """Whether retrying could plausibly cure *exc*.

    The failure taxonomy of the fault-tolerant sweep layer (see
    ``docs/robustness.md``).  Transient: broken pools / dead workers
    (``BrokenExecutor``), OS-level I/O trouble (``OSError``), watchdog
    timeouts, and injected faults that declare themselves transient.
    Deterministic (never retried): every other :class:`ReproError` — a
    misconfiguration or simulation bug reproduces identically on retry —
    and unknown exception types, which are assumed to be bugs until
    proven flaky.
    """
    from concurrent.futures import BrokenExecutor

    if isinstance(exc, InjectedFault):
        return exc.transient
    if isinstance(exc, JobTimeoutError):
        return True
    if isinstance(exc, ReproError):
        return False
    return isinstance(exc, (BrokenExecutor, OSError))



@dataclass(frozen=True, slots=True)
class RetryPolicy:
    """How often, and how patiently, a failed unit of work is re-run.

    The one retry policy of the sweep layer: the serial runner (per
    cell), the parallel runner (per batch), the sweep service (per cell)
    and the service client (per request) all decide and wait through
    it.  Attempt *n* (1-based) that fails is followed by a deterministic
    ``min(backoff_base * 2**(n-1), backoff_cap)`` second pause.
    """

    #: Re-attempts allowed after the first failure.
    retries: int = 2
    backoff_base: float = 0.1
    backoff_cap: float = 2.0

    def __post_init__(self) -> None:
        if self.retries < 0:
            raise ExperimentError(f"retries must be >= 0: {self.retries}")
        if self.backoff_base < 0 or self.backoff_cap < 0:
            raise ExperimentError("backoff must be >= 0")

    @classmethod
    def checked(
        cls,
        retries: int,
        backoff_base: float,
        backoff_cap: float,
        *,
        error: type[ReproError],
    ) -> RetryPolicy:
        """A validated policy whose rejection raises *error* instead."""
        try:
            return cls(retries, backoff_base, backoff_cap)
        except ExperimentError as exc:
            raise error(str(exc)) from None

    def delay(self, attempt: int) -> float:
        """Seconds to wait after failed attempt number *attempt*."""
        return min(self.backoff_base * 2 ** (attempt - 1), self.backoff_cap)

    def retryable(self, exc: BaseException, attempts: int) -> bool:
        """Whether *exc*, ending attempt number *attempts*, earns a retry."""
        return attempts <= self.retries and is_transient(exc)


@dataclass(frozen=True, slots=True)
class FaultSpec:
    """One planned failure: where, when, and how to strike."""

    phase: str
    kind: str
    #: Restrict to one benchmark (``None`` = any benchmark).
    benchmark: str | None = None
    #: Fire on the Nth matching invocation seen by a process (1-based).
    invocation: int = 1
    #: Total fires across the whole sweep (all processes, all retries).
    times: int = 1
    #: Sleep duration for ``delay`` faults.
    seconds: float = 0.0

    def __post_init__(self) -> None:
        if self.phase not in PHASES:
            raise ExperimentError(
                f"unknown fault phase {self.phase!r}; known: {', '.join(PHASES)}"
            )
        if self.kind not in KINDS:
            raise ExperimentError(
                f"unknown fault kind {self.kind!r}; known: {', '.join(KINDS)}"
            )
        if self.invocation < 1:
            raise ExperimentError(f"invocation must be >= 1: {self.invocation}")
        if self.times < 1:
            raise ExperimentError(f"times must be >= 1: {self.times}")
        if self.seconds < 0:
            raise ExperimentError(f"seconds must be >= 0: {self.seconds}")

    @classmethod
    def parse(cls, text: str) -> FaultSpec:
        """Parse ``phase:kind[:benchmark[:invocation[:seconds]]]``.

        The CLI's ``--inject-faults`` DSL: ``simulate:crash:li`` crashes
        the first simulation of ``li``; ``generate:delay:*:2:0.5`` sleeps
        0.5s before the second trace generation of any benchmark.
        """
        parts = text.strip().split(":")
        if len(parts) < 2:
            raise ExperimentError(
                f"fault spec {text!r} must be phase:kind[:benchmark"
                f"[:invocation[:seconds]]]"
            )
        phase, kind = parts[0], parts[1]
        benchmark = parts[2] if len(parts) > 2 and parts[2] not in ("", "*") else None
        try:
            invocation = int(parts[3]) if len(parts) > 3 else 1
            seconds = float(parts[4]) if len(parts) > 4 else 0.0
        except ValueError as exc:
            raise ExperimentError(f"bad fault spec {text!r}: {exc}") from None
        return cls(
            phase=phase, kind=kind, benchmark=benchmark,
            invocation=invocation, seconds=seconds,
        )


@dataclass
class FaultPlan:
    """A deterministic, cross-process schedule of injected failures.

    Picklable (it crosses the process-pool boundary with the worker
    payload).  Invocation counters are per-process; the cross-process
    "already fired" truth lives in ``state_dir`` as marker files, so a
    plan re-pickled into a retried worker does not re-fire spent faults.
    """

    faults: list[FaultSpec]
    #: Shared directory coordinating one-shot semantics across processes.
    state_dir: str
    #: Per-process (phase, benchmark) invocation counts.
    _counts: dict[tuple[str, str], int] = field(default_factory=dict)
    #: Faults this process fired without raising (delay/corrupt).
    fired_soft: int = 0

    def __post_init__(self) -> None:
        self.faults = list(self.faults)
        Path(self.state_dir).mkdir(parents=True, exist_ok=True)

    @classmethod
    def parse(cls, text: str, state_dir: str) -> FaultPlan:
        """Build a plan from a comma-separated list of spec strings."""
        specs = [
            FaultSpec.parse(part)
            for part in text.split(",")
            if part.strip()
        ]
        if not specs:
            raise ExperimentError(f"no fault specs in {text!r}")
        return cls(faults=specs, state_dir=state_dir)

    @classmethod
    def seeded(
        cls,
        seed: int,
        state_dir: str,
        benchmarks: tuple[str, ...] = (),
        n_faults: int = 4,
        kinds: tuple[str, ...] = ("crash", "delay", "corrupt"),
        phases: tuple[str, ...] = WORKER_PHASES,
        max_invocation: int = 2,
    ) -> FaultPlan:
        """A pseudo-random but fully reproducible plan.

        The same ``seed`` always yields the same plan, so a chaos run is
        repeatable from its seed alone.  Only recoverable kinds are drawn
        by default (``bug`` would abort the sweep by design).
        """
        rng = Random(seed)
        specs = [
            FaultSpec(
                phase=rng.choice(phases),
                kind=rng.choice(kinds),
                benchmark=rng.choice(benchmarks) if benchmarks else None,
                invocation=rng.randint(1, max_invocation),
                seconds=round(rng.uniform(0.01, 0.05), 3),
            )
            for _ in range(n_faults)
        ]
        return cls(faults=specs, state_dir=state_dir)

    # -- firing --------------------------------------------------------------

    def fire(self, phase: str, benchmark: str) -> FaultSpec | None:
        """Invoke the plan at one phase boundary.

        Counts the invocation, then fires the first matching spec with an
        unclaimed ticket: raising for ``crash``/``bug``, exiting for
        ``exit``, sleeping for ``delay``.  ``corrupt`` (and ``delay``)
        specs are *returned* so the call site can apply site-specific
        damage; ``None`` means the phase proceeds undisturbed.
        """
        key = (phase, benchmark)
        count = self._counts.get(key, 0) + 1
        self._counts[key] = count
        for index, spec in enumerate(self.faults):
            if spec.phase != phase:
                continue
            if spec.benchmark is not None and spec.benchmark != benchmark:
                continue
            if count < spec.invocation:
                continue
            if not self._claim(index, spec):
                continue
            return self._trigger(spec, benchmark)
        return None

    def _claim(self, index: int, spec: FaultSpec) -> bool:
        """Atomically claim one of the spec's ``times`` tickets."""
        for ticket in range(spec.times):
            marker = Path(self.state_dir) / f"fired-{index}-{ticket}"
            try:
                fd = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                continue
            os.close(fd)
            return True
        return False

    def _trigger(self, spec: FaultSpec, benchmark: str) -> FaultSpec | None:
        where = f"{spec.phase} phase of benchmark {benchmark!r}"
        if spec.kind == "crash":
            raise InjectedFault(f"injected transient crash in {where}")
        if spec.kind == "bug":
            raise InjectedFault(
                f"injected deterministic bug in {where}", transient=False
            )
        if spec.kind == "exit":  # pragma: no cover - kills the process
            os._exit(EXIT_STATUS)
        if spec.kind == "delay":
            time.sleep(spec.seconds)
        self.fired_soft += 1
        return spec

    # -- introspection -------------------------------------------------------

    def fired_total(self) -> int:
        """Faults fired so far across *all* processes (marker-file truth)."""
        return sum(
            1 for p in sorted(Path(self.state_dir).iterdir())
            if p.name.startswith("fired-")
        )


def corrupt_entry(directory: str | os.PathLike[str]) -> int:
    """Overwrite every file under *directory* with garbage bytes.

    Used by ``corrupt`` faults to damage an artifact-cache entry in
    place; returns the number of files garbled (0 if the entry does not
    exist yet, in which case the "corruption" is a natural miss).
    """
    root = Path(directory)
    if not root.is_dir():
        return 0
    damaged = 0
    for path in sorted(root.iterdir()):
        if path.is_file():
            path.write_bytes(b"\x00corrupted-by-fault-injection\x00")
            damaged += 1
    return damaged

"""Simulation results: ISPI breakdown and event counters.

The paper's primary metric is **ISPI** — instruction issue slots lost per
correct-path instruction — decomposed into the components of its Figures
1-4:

* ``branch``       — misfetch/mispredict redirect penalties;
* ``branch_full``  — stalls because the unresolved-branch limit was hit;
* ``rt_icache``    — waiting for right-path I-cache fills;
* ``wrong_icache`` — waiting for wrong-path fills past the redirect point
  (Optimistic's extra cost);
* ``bus``          — waiting for the channel because a previously initiated
  fill or prefetch is still in flight;
* ``force_resolve``— the conservative policies' wait before they may even
  start a right-path fill.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.branch.unit import BranchStats
from repro.cache.classify import MissClassification
from repro.cache.icache import CacheStats
from repro.config import FetchPolicy, SimConfig
from repro.core.faults import is_transient
from repro.errors import SimulationError

#: Penalty components, in the stacking order of the paper's figures
#: (bottom to top).
COMPONENTS = (
    "branch_full",
    "branch",
    "rt_icache",
    "wrong_icache",
    "bus",
    "force_resolve",
)


@dataclass(slots=True)
class PenaltyAccumulator:
    """Mutable slot counters, one per ISPI component."""

    branch_full: int = 0
    branch: int = 0
    rt_icache: int = 0
    wrong_icache: int = 0
    bus: int = 0
    force_resolve: int = 0

    def add(self, component: str, slots: int) -> None:
        """Charge *slots* to *component* (must be one of COMPONENTS)."""
        if slots < 0:
            raise SimulationError(f"negative penalty {slots} for {component}")
        setattr(self, component, getattr(self, component) + slots)

    def as_dict(self) -> dict[str, int]:
        """Slot totals keyed by component name."""
        return {name: getattr(self, name) for name in COMPONENTS}

    @property
    def total_slots(self) -> int:
        """Total penalty slots across all components."""
        return sum(getattr(self, name) for name in COMPONENTS)


@dataclass(slots=True)
class EngineCounters:
    """Raw event counts from one simulation run."""

    #: Correct-path instructions issued.
    instructions: int = 0
    #: Correct-path basic blocks processed.
    blocks: int = 0
    #: Right-path line probes / misses.
    right_probes: int = 0
    right_misses: int = 0
    #: Wrong-path line probes / misses (during redirect windows).
    wrong_probes: int = 0
    wrong_misses: int = 0
    #: Demand fills issued from the right / wrong path.
    right_fills: int = 0
    wrong_fills: int = 0
    #: Next-line prefetches issued / demand hits on prefetched lines.
    prefetches: int = 0
    prefetch_hits: int = 0
    #: Target (not-followed-arm) prefetches issued (extension).
    target_prefetches: int = 0
    #: Stream-buffer statistics (Jouppi extension): prefetches issued and
    #: right-path misses served from a buffer head.
    stream_prefetches: int = 0
    stream_hits: int = 0
    #: Second-level cache statistics (L2 extension).
    l2_hits: int = 0
    l2_misses: int = 0
    #: Wrong-path instructions fetched inside redirect windows.
    wrong_instructions: int = 0
    #: Times a right-path miss found its own line already in flight.
    inflight_merges: int = 0
    #: Right-path misses that merged with an in-flight *prefetch* — the
    #: prefetch was issued but arrived too late to hide the whole miss.
    prefetch_late: int = 0

    @property
    def memory_accesses(self) -> int:
        """Total line requests sent to the next level."""
        return (
            self.right_fills
            + self.wrong_fills
            + self.prefetches
            + self.target_prefetches
            + self.stream_prefetches
        )

    @property
    def right_miss_rate(self) -> float:
        """Right-path misses per right-path probe."""
        return self.right_misses / self.right_probes if self.right_probes else 0.0


@dataclass(frozen=True, slots=True)
class IntervalStats:
    """Measured statistics of one scheduling interval.

    Recorded whenever ``SimConfig.adaptive_interval`` is set; the partition
    invariant (enforced by tests/properties/test_interval_partition.py) is
    that the per-interval counters sum exactly to the whole-run totals —
    for warmed-up runs, over the intervals at/after the warmup reset.
    """

    #: Interval number, counted from 0 over the whole trace.
    index: int
    #: Fetch policy the engine ran during this interval.
    policy: FetchPolicy
    #: Correct-path instructions / blocks measured in the interval.
    instructions: int
    blocks: int
    #: Right-/wrong-path I-cache misses measured in the interval.
    right_misses: int
    wrong_misses: int
    #: Penalty slots per ISPI component (keys: :data:`COMPONENTS`).
    penalties: dict[str, int]

    @property
    def penalty_slots(self) -> int:
        """Total penalty slots charged during the interval."""
        return sum(self.penalties[name] for name in COMPONENTS)

    @property
    def ispi(self) -> float:
        """Slots lost per instruction within the interval."""
        n = self.instructions
        return self.penalty_slots / n if n else 0.0


@dataclass(frozen=True, slots=True)
class SimulationResult:
    """Everything measured by one engine run."""

    program: str
    config: SimConfig
    penalties: PenaltyAccumulator
    counters: EngineCounters
    branch_stats: BranchStats
    cache_stats: CacheStats | None
    classification: MissClassification | None = None
    metadata: dict[str, object] = field(default_factory=dict)
    #: Per-interval measurements (empty unless ``adaptive_interval`` set).
    intervals: tuple[IntervalStats, ...] = ()

    # -- ISPI ---------------------------------------------------------------

    def ispi(self, component: str) -> float:
        """Slots lost per correct-path instruction for one component."""
        n = self.counters.instructions
        if n == 0:
            raise SimulationError("no instructions were simulated")
        return getattr(self.penalties, component) / n

    @property
    def total_ispi(self) -> float:
        """Total penalty ISPI (the height of the paper's figure bars)."""
        n = self.counters.instructions
        if n == 0:
            raise SimulationError("no instructions were simulated")
        return self.penalties.total_slots / n

    def ispi_breakdown(self) -> dict[str, float]:
        """Per-component ISPI keyed by component name."""
        return {name: self.ispi(name) for name in COMPONENTS}

    # -- derived metrics ------------------------------------------------------

    @property
    def miss_rate_percent(self) -> float:
        """Right-path misses per correct-path instruction, in percent."""
        n = self.counters.instructions
        return 100.0 * self.counters.right_misses / n if n else 0.0

    @property
    def total_cycles(self) -> float:
        """Total front-end cycles = (useful + lost slots) / issue width."""
        slots = self.counters.instructions + self.penalties.total_slots
        return slots / self.config.issue_width

    def branch_ispi(self, cause: str) -> float:
        """Branch-penalty ISPI attributed to one cause (Table 3 columns).

        *cause* is one of ``btb_misfetch``, ``pht_mispredict``,
        ``btb_mispredict``.
        """
        n = self.counters.instructions
        if n == 0:
            raise SimulationError("no instructions were simulated")
        try:
            slots = self.branch_stats.penalty_slots_by_cause[cause]
        except KeyError:
            raise SimulationError(f"unknown branch penalty cause {cause!r}") from None
        return slots / n

    def summary(self) -> str:
        """One-line human-readable result."""
        return (
            f"{self.program:>8} {self.config.policy.label:<6} "
            f"ISPI={self.total_ispi:.3f} "
            f"miss={self.miss_rate_percent:.2f}% "
            f"mem={self.counters.memory_accesses}"
        )


# -- graceful degradation -----------------------------------------------------

_NAN = float("nan")


class _MissingStats:
    """Attribute sink standing in for counters/stats of a failed cell.

    Every attribute reads as NaN, so any metric derived from a missing
    result is NaN too — which the report layer renders as an empty table
    cell, an empty CSV field, and JSON ``null``.
    """

    __slots__ = ()

    def __getattr__(self, name: str) -> float:
        if name.startswith("__"):  # keep pickling/copy protocols sane
            raise AttributeError(name)
        return _NAN

    def __getitem__(self, key: str) -> float:
        return _NAN

    def as_dict(self) -> dict[str, float]:
        return {name: _NAN for name in COMPONENTS}


@dataclass(frozen=True)
class MissingResult:
    """Placeholder for a sweep cell that failed under ``on_error="skip"``.

    Duck-types the metric surface of :class:`SimulationResult` (every
    number is NaN) so experiments render failed cells as *missing*
    entries instead of aborting the whole sweep.  The structured story of
    what went wrong lives in the runner's ``failures`` list as
    :class:`SweepFailure` records, not here.
    """

    program: str
    config: SimConfig
    #: Discriminator for callers that want to test explicitly.
    missing: bool = True

    @property
    def penalties(self) -> _MissingStats:
        return _MissingStats()

    @property
    def counters(self) -> _MissingStats:
        return _MissingStats()

    @property
    def branch_stats(self) -> _MissingStats:
        return _MissingStats()

    @property
    def cache_stats(self) -> _MissingStats:
        return _MissingStats()

    @property
    def classification(self) -> _MissingStats:
        return _MissingStats()

    @property
    def metadata(self) -> dict[str, object]:
        return {"missing": True}

    @property
    def intervals(self) -> tuple[()]:
        return ()

    def ispi(self, component: str) -> float:
        return _NAN

    @property
    def total_ispi(self) -> float:
        return _NAN

    def ispi_breakdown(self) -> dict[str, float]:
        return {name: _NAN for name in COMPONENTS}

    @property
    def miss_rate_percent(self) -> float:
        return _NAN

    @property
    def total_cycles(self) -> float:
        return _NAN

    def branch_ispi(self, cause: str) -> float:
        return _NAN

    def summary(self) -> str:
        return (
            f"{self.program:>8} {self.config.policy.label:<6} "
            f"(missing: cell failed and was skipped)"
        )


@dataclass(frozen=True, slots=True)
class SweepFailure:
    """One failed sweep cell/batch: the structured failure-report entry."""

    benchmark: str
    error_type: str
    message: str
    attempts: int
    transient: bool
    #: How many (benchmark, config) cells this failure covers.
    cells: int = 1

    @classmethod
    def from_exception(
        cls, benchmark: str, exc: BaseException, attempts: int, cells: int = 1
    ) -> SweepFailure:
        """The failure record of *exc*, classified by the taxonomy."""
        return cls(
            benchmark=benchmark,
            error_type=type(exc).__name__,
            message=str(exc),
            attempts=attempts,
            transient=is_transient(exc),
            cells=cells,
        )

    def as_dict(self) -> dict[str, object]:
        """JSON-ready form for the CLI failure report."""
        return {
            "benchmark": self.benchmark,
            "error_type": self.error_type,
            "message": self.message,
            "attempts": self.attempts,
            "transient": self.transient,
            "cells": self.cells,
        }

    def describe(self) -> str:
        """One human-readable report line."""
        kind = "transient" if self.transient else "deterministic"
        return (
            f"{self.benchmark}: {self.error_type} ({kind}, "
            f"{self.attempts} attempt(s), {self.cells} cell(s) skipped): "
            f"{self.message}"
        )

"""Host speed sampling, to take the shared host's speed out of timings.

On a shared host the same code runs at very different speeds from one
second to the next: a fixed pure-Python loop takes 4 ms or 7 ms depending
on what the neighbours are doing, and a whole ``paper`` pass takes 6.6 s
in one minute and 10.4 s a few minutes later.  Minimums and medians over
a run's passes do not remove this, because the slow spells last as long
as a run.

:class:`SpeedSampler` measures the host's speed *while* the workload
runs.  A signal timer interrupts the workload every
:data:`INTERVAL_S` seconds and times :func:`kernel`, a fixed loop that
belongs to the benchmark and never changes with the program measured.
The speed factor of a stretch of time is the mean kernel time over the
samples taken in it, divided by :data:`REFERENCE_KERNEL_S`.  A time
divided by the factor of the stretch it was measured in is a *host-speed
adjusted* time: seconds on a host where the kernel takes exactly
:data:`REFERENCE_KERNEL_S`.  A change of the program moves the adjusted
time as it moves the wall time; a change of the host's speed cancels
out.  The raw times and factors are kept in each run's record.
"""

from __future__ import annotations

import signal
import time

#: Iterations of :func:`kernel`; about 0.4-0.7 ms on a 2020s x86 core.
KERNEL_ITERATIONS = 2_000
#: Kernel time that defines a speed factor of 1: the kernel's fast-mode
#: time on the 2-vCPU Xeon host the bounds were set on.  Any constant
#: would do; this one makes adjusted seconds read like seconds on that
#: host when it is not contended.
REFERENCE_KERNEL_S = 4.0e-4
#: Seconds between samples: the host changes speed several times a
#: second, and 2-3% of its time goes to the kernel.
INTERVAL_S = 0.02
#: Samples on either side of a short operation that count toward its
#: speed factor (:meth:`SpeedSampler.around`).
WINDOW = 2


def kernel(iterations: int = KERNEL_ITERATIONS) -> int:
    """A fixed mix of interpreter work: dict updates, integer
    arithmetic, list appends.  Only its duration matters."""
    table: dict[int, int] = {}
    acc = 0
    out = []
    for i in range(iterations):
        key = i & 255
        table[key] = table.get(key, 0) + i
        acc ^= (i * 2654435761) >> 7
        if i & 3 == 0:
            out.append(acc & 1023)
    return acc + len(out)


class SpeedSampler:
    """Times :func:`kernel` on a signal timer while the workload runs.

    *timer* is ``"cpu"`` for a process whose main thread does the work
    (``ITIMER_PROF``: a sample per :data:`INTERVAL_S` of CPU time, so the
    samples follow the work) or ``"real"`` for a process that mostly
    waits on others (``ITIMER_REAL``).  *clock* times each kernel call:
    ``time.perf_counter`` where the kernel shares the workload's thread,
    ``time.thread_time`` where the kernel competes with the workload for
    cores and waiting for one must not count as slowness.  Thread time
    leaves out the time the hypervisor takes the CPU away; combine such
    a factor with :func:`steal_share` through :func:`with_steal`.
    """

    def __init__(self, timer: str = "cpu", clock=time.perf_counter) -> None:
        if timer not in ("cpu", "real"):
            raise ValueError(f"unknown timer {timer!r}")
        self.timer = timer
        self.clock = clock
        #: Kernel seconds, one per sample, in the order taken.
        self.samples: list[float] = []
        self._previous = None

    @property
    def _which(self) -> tuple[int, int]:
        if self.timer == "cpu":
            return signal.ITIMER_PROF, signal.SIGPROF
        return signal.ITIMER_REAL, signal.SIGALRM

    def _sample(self, signum, frame) -> None:
        start = self.clock()
        kernel()
        self.samples.append(self.clock() - start)

    def start(self) -> "SpeedSampler":
        which, signum = self._which
        self._previous = signal.signal(signum, self._sample)
        signal.setitimer(which, INTERVAL_S, INTERVAL_S)
        return self

    def stop(self) -> None:
        which, signum = self._which
        signal.setitimer(which, 0)
        if self._previous is not None:
            signal.signal(signum, self._previous)
            self._previous = None

    def __enter__(self) -> "SpeedSampler":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    def mark(self) -> int:
        """Index of the next sample: pass two marks to :meth:`factor`."""
        return len(self.samples)

    def factor(self, since: int = 0, until: int | None = None) -> float:
        """Speed factor over ``samples[since:until]``; see
        :func:`speed_factor`."""
        return speed_factor(self.samples[since:until])

    def around(self, first: int, last: int) -> float:
        """Speed factor around an operation that ran between marks
        *first* and *last*: the samples taken during it and :data:`WINDOW`
        on either side, since an operation may be shorter than the
        interval."""
        return self.factor(max(first - WINDOW, 0), last + WINDOW)


def speed_factor(samples) -> float:
    """Mean kernel time over *samples* as a multiple of
    :data:`REFERENCE_KERNEL_S` (above 1: slower than the reference).

    The mean, not the median: the host switches between a fast and a
    slow mode many times a second, and the mean weighs each mode by the
    share of time it held, as the workload's own time does.
    """
    samples = list(samples)
    if not samples:
        raise ValueError("no speed samples")
    return sum(samples) / len(samples) / REFERENCE_KERNEL_S


def cpu_ticks() -> tuple[int, int]:
    """``(steal, total)`` clock ticks of all CPUs since boot, from
    ``/proc/stat``; ``(0, 0)`` where the kernel does not report them.

    Steal is time a virtual CPU wanted to run and the hypervisor ran
    something else.
    """
    try:
        with open("/proc/stat") as stat:
            fields = [int(x) for x in stat.readline().split()[1:]]
    except (OSError, ValueError):
        return 0, 0
    # user nice system idle iowait irq softirq steal; guest time is
    # already inside user and nice.
    return (fields[7] if len(fields) > 7 else 0), sum(fields[:8])


def steal_share(before: tuple[int, int], after: tuple[int, int]) -> float:
    """Share of the CPUs' time stolen between two :func:`cpu_ticks`."""
    total = after[1] - before[1]
    return (after[0] - before[0]) / total if total > 0 else 0.0


def with_steal(factor: float, share: float) -> float:
    """A speed factor measured in CPU time, slowed further by *share* of
    the CPUs' time going to other guests."""
    return factor / max(1.0 - share, 0.05)


def adjusted(seconds: float, factor: float) -> float:
    """*seconds* measured at speed *factor*, on the reference host."""
    return seconds / factor

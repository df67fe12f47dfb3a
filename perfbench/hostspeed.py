"""Host-speed correction for the wall-clock metrics.

The benchmark runs on a few cores of a shared host whose speed drifts
by a fifth or more within seconds, with the load of other tenants: a
fixed pure-Python loop timed in 2-second chunks on a 2-vCPU VM moved
between 33 and 47 ms.  A run's raw wall figures move with that drift
as much as with the program: the middle half of ten runs of the same
code spread by up to half their median.

:class:`HostSpeed` times a fixed *reference loop* (pure Python, nothing
from ``repro``) every ``EVERY_S`` seconds, between operations, and
rescales each measured interval by ``REF_S`` over the mean of the two
reference samples taken just before and just after it.  A wall time is
thus reported in *reference seconds*: what it would have taken had the
host run the reference loop in ``REF_S``.  The loop does not depend on
the program, so a change to the program moves the corrected figures
exactly as it moves the raw ones; only the host's drift cancels.  The
raw figures stay in the report line.
"""

from __future__ import annotations

import contextlib
import gc
import signal
import time

import numpy as np

#: The reference loop's time on the host the bounds were set on (a
#: 2-vCPU Xeon VM, Python 3.11).  Only a unit: any fixed value would do.
REF_S = 0.008
#: Seconds between reference samples in a measured phase.
EVERY_S = 0.2


class _Point:
    __slots__ = ("x", "y")

    def __init__(self, x: int, y: int) -> None:
        self.x = x
        self.y = y

    def mix(self, k: int) -> int:
        return self.x * k + self.y


#: A few MB of objects the memory half of the loop walks in a
#: scattered order, beyond the core's private caches.
_TABLE_SIZE = 20_000
_TABLE = {i: (i, str(i), _Point(i, 3 * i)) for i in range(_TABLE_SIZE)}
_WALK = [(i * 7919) % _TABLE_SIZE for i in range(_TABLE_SIZE)]
_WALK_STEP = 6000
_walk_at = 0


def reference_loop() -> int:
    """Fixed work of the program's two kinds, one after the other.

    The interpreter half (small objects, method calls, tuple-keyed dict
    updates, short sorts) tracks the transactions' speed; the memory
    half (scattered reads of a table larger than the private caches)
    tracks the column scans'.  Either alone left one of them drifting
    with the host.
    """
    global _walk_at
    table: dict = {}
    acc = 0
    for i in range(4000):
        p = _Point(i, i & 7)
        key = (i % 97, str(i % 13))
        table[key] = table.get(key, 0) + p.mix(3)
        acc += len(sorted([i % 5, i % 3, i % 7, 1]))
    at = _walk_at
    for n in range(_WALK_STEP):
        row = _TABLE[_WALK[(at + n) % _TABLE_SIZE]]
        acc += row[2].mix(3) + len(row[1])
    _walk_at = (at + _WALK_STEP) % _TABLE_SIZE
    return acc + len(table)


def time_reference() -> float:
    """One reference sample, with the cyclic collector held off so that
    a collection of the program's garbage does not land in it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        reference_loop()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class HostSpeed:
    """Reference samples over one measured phase, and the rescaling of
    the intervals between them."""

    def __init__(self, every_s: float = EVERY_S) -> None:
        self.every_s = every_s
        self.starts: list[float] = []
        self.durations: list[float] = []
        self._next_at = 0.0

    def sample(self) -> None:
        start = time.perf_counter()
        duration = time_reference()
        self.starts.append(start)
        self.durations.append(duration)
        self._next_at = start + duration + self.every_s

    def maybe_sample(self) -> None:
        """A sample, if ``EVERY_S`` passed since the last one ended."""
        if time.perf_counter() >= self._next_at:
            self.sample()

    @contextlib.contextmanager
    def sampling_timer(self):
        """Samples every ``every_s`` from a wall-clock interval timer
        while the body runs, for work that has no operation boundaries
        to sample between (a set-up is one call into the program).  The
        handler runs between bytecodes of the main thread and touches
        nothing of the program's."""

        def on_timer(_signum, _frame) -> None:
            self.sample()

        previous = signal.signal(signal.SIGALRM, on_timer)
        signal.setitimer(signal.ITIMER_REAL, self.every_s, self.every_s)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def scale_at(self, at) -> np.ndarray:
        """Reference seconds per wall second at each wall time in ``at``:
        ``REF_S`` over the mean of the samples on either side."""
        starts = np.asarray(self.starts)
        durations = np.asarray(self.durations)
        after = np.clip(np.searchsorted(starts, np.asarray(at, dtype=float)), 0, len(starts) - 1)
        before = np.clip(after - 1, 0, len(starts) - 1)
        return REF_S / ((durations[before] + durations[after]) / 2.0)

    def reference_seconds(self, starts, elapsed) -> float:
        """The summed reference time of intervals given by wall start
        times and wall durations."""
        elapsed = np.asarray(elapsed, dtype=float)
        if elapsed.size == 0:
            return 0.0
        return float(np.sum(elapsed * self.scale_at(starts)))

    def between_samples(self) -> tuple[float, float]:
        """Wall and reference time of the phase between its first and
        last sample, the samples themselves left out."""
        starts = np.asarray(self.starts)
        durations = np.asarray(self.durations)
        gaps = starts[1:] - (starts[:-1] + durations[:-1])
        scale = REF_S / ((durations[:-1] + durations[1:]) / 2.0)
        return float(gaps.sum()), float(np.sum(gaps * scale))

"""Host-speed calibration for the end-to-end timings.

The benchmark runs on a few cores of a shared host whose speed switches
between a fast and a slow state, about 2x apart, on scales from
milliseconds to minutes.  The slowdown is contention inside the CPU, not
descheduling, so every timing in a slow stretch is slow, and no choice
among an item's passes removes a stretch that covers the whole run.

So a fixed reference routine (colour refinement on a fixed cubic graph, the
same kind of work as the program's: tuples, sorts, dicts and lists) runs
every ``INTERVAL`` seconds from a SIGALRM handler while passes and set-ups
run, and just before each item the benchmark times itself (``mark``).  An
item's time is scaled by how fast the host ran the routine around it:

    calibrated = (raw - sample time inside the item) * REF_SECONDS / ref

where ``ref`` is the mean time of the samples taken during the item and of
the last one before and the first one after it.  ``REF_SECONDS`` is the
routine's time in the fast state of a 2.0 GHz Xeon core, so calibrated
times read as seconds in that state; their unit is ``ref_s`` (or
``ref_ms``), except for ``setup_s``, which keeps the unit ``s``.  The
routine lives here and never changes with the program, so the scaling is
the same before and after a change to the program.
"""
from __future__ import annotations

import bisect
import random
import signal
import time

INTERVAL = 0.025          # seconds between reference samples
REF_SECONDS = 0.00025     # the reference routine, fast state of a 2.0 GHz Xeon core
_REF_N = 100
_REF_ROUNDS = 3


def _ref_graph() -> list[list[int]]:
    """A fixed random cubic multigraph (a pairing of 3 * _REF_N points)."""
    rng = random.Random(20140101)
    points = [v for v in range(_REF_N) for _ in range(3)]
    rng.shuffle(points)
    adj = [[] for _ in range(_REF_N)]
    for u, v in zip(points[::2], points[1::2]):
        adj[u].append(v)
        adj[v].append(u)
    return adj


_ADJ = _ref_graph()


def reference() -> int:
    """The reference routine: rounds of colour refinement; returns a checksum."""
    col = [0] * _REF_N
    for _ in range(_REF_ROUNDS):
        sig: dict = {}
        new = []
        for u in range(_REF_N):
            key = (col[u], tuple(sorted(col[v] for v in _ADJ[u])))
            new.append(sig.setdefault(key, len(sig)))
        col = new
        col[len(sig) % _REF_N] = len(sig)
    return sum(col)


def reference_seconds(reps: int = 5) -> float:
    """Mean time of `reps` back-to-back runs of the reference routine."""
    t0 = time.perf_counter()
    for _ in range(reps):
        reference()
    return (time.perf_counter() - t0) / reps


class Calibrator:
    """Samples the reference routine on a timer and scales timings by it."""

    def __init__(self):
        self.starts: list[float] = []   # perf_counter at each sample's start
        self.durations: list[float] = []
        self._old = None

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        reference()
        self.starts.append(t0)
        self.durations.append(time.perf_counter() - t0)

    def start(self) -> None:
        self._old = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old or signal.SIG_DFL)

    def mark(self) -> None:
        """Take a sample now, just before a timing starts.

        The host can switch speed within a few milliseconds, so a timer
        sample up to INTERVAL away says little about a call of 40 us; a
        sample taken right before it does.
        """
        self._sample(None, None)

    def ref_at(self, t0: float, t1: float) -> float:
        """Mean reference time of the samples inside [t0, t1] and the two around it."""
        lo = max(bisect.bisect_left(self.starts, t0) - 1, 0)
        hi = bisect.bisect_right(self.starts, t1) + 1
        window = self.durations[lo:hi]
        return sum(window) / len(window) if window else REF_SECONDS

    def handler_time(self, t0: float, t1: float) -> float:
        """Time the handler spent inside [t0, t1]."""
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_left(self.starts, t1)
        return sum(self.durations[lo:hi])

    def span(self, t0: float, t1: float) -> float:
        """Calibrated seconds of the work timed from t0 to t1."""
        work = (t1 - t0) - self.handler_time(t0, t1)
        return max(work, 0.0) * REF_SECONDS / self.ref_at(t0, t1)

    def reported(self, secs: float, t0: float, t1: float) -> float:
        """Calibrate a duration the program reported for work done about [t0, t1].

        The interval is only an estimate, so no sample time is taken off: a
        reported duration with a sample inside it reads high, and the
        item's median over the passes passes it over.
        """
        return secs * REF_SECONDS / self.ref_at(t0, t1)


class RawClock:
    """Stand-in for a Calibrator in the traced run: plain seconds."""

    def mark(self) -> None:
        pass

    def span(self, t0: float, t1: float) -> float:
        return t1 - t0

    def reported(self, secs: float, t0: float, t1: float) -> float:
        return secs

"""Samples how fast the machine is while the benchmark's ops run.

The 2-CPU machine the benchmark was tuned on flips between a fast and a
slow state every 0.1-3 s, and the share of time it spends slow drifts over
minutes; an op's raw latency moves by up to 1.6x with it (see README.md).
``SpeedSampler`` fires a real-time timer every few milliseconds and, in the
signal handler, times ``probe``: a fraction of a millisecond of work of the
same kind as the package's (tuple slicing and comparison, dict and set
lookups on tuple keys, small-integer bit arithmetic).  The probe imports
nothing, its inputs are fixed, and so its time changes only with the
machine, never with the code under test.

Because the timer fires at a steady rate, the probes sample the machine's
state uniformly in time, also in the middle of a long op.  An op of latency
``L`` whose surrounding probes took ``t_i`` seconds is reported as
``L * mean(REFERENCE_PROBE_S / t_i)``: seconds at the reference speed.  The
handler's own time is taken out of ``L`` first.
"""

from __future__ import annotations

import signal
from bisect import bisect_left, bisect_right
from time import perf_counter

# median time of one probe fired during the ops, on the 2-CPU Xeon
# (2.1 GHz, Python 3.11.7) the benchmark was tuned on
REFERENCE_PROBE_S = 0.0003


def _words() -> list[tuple[int, ...]]:
    """Three fixed words of 14 labels in 1..6 (a linear congruential walk)."""
    state, words = 1707, []
    for _ in range(3):
        word = []
        for _ in range(14):
            state = (state * 1103515245 + 12345) % 2**31
            word.append(1 + state % 6)
        words.append(tuple(word))
    return words


_WORDS = _words()


def _relabel(seq: tuple[int, ...]) -> tuple[int, ...]:
    """Labels renamed in order of first occurrence."""
    names: dict[int, int] = {}
    return tuple(names.setdefault(label, len(names) + 1) for label in seq)


def _walk(seq: tuple[int, ...]) -> int:
    """Vertices a direction word visits on the cube, as a bit set."""
    vertex, seen = 0, 1
    for label in seq:
        vertex ^= 1 << (label - 1)
        seen |= 1 << vertex
    return seen


def probe() -> int:
    """One unit of reference work; returns a checksum so nothing is skipped."""
    classes: dict[tuple[int, ...], int] = {}
    visited = set()
    for word in _WORDS:
        best = None
        for seq in (word, word[::-1]):
            for r in range(len(seq)):
                candidate = _relabel(seq[r:] + seq[:r])
                if best is None or candidate < best:
                    best = candidate
        classes[best] = classes.get(best, 0) + 1
        visited.add(_walk(best))
    return hash((tuple(sorted(classes.items())), tuple(sorted(visited))))


_CHECKSUM = probe()


class SpeedSampler:
    """Times ``probe`` from a ``SIGALRM`` handler every ``interval`` seconds.

    ``starts`` and ``durations`` hold the probes in order; ``stolen`` is the
    total time spent in the handler, to be taken out of the ops' latencies.
    """

    def __init__(self, interval: float) -> None:
        self.interval = interval
        self.starts: list[float] = []
        self.durations: list[float] = []
        self.stolen = 0.0

    def _fire(self, signum, frame) -> None:
        start = perf_counter()
        if probe() != _CHECKSUM:
            raise AssertionError("reference probe changed its result")
        end = perf_counter()
        self.starts.append(start)
        self.durations.append(end - start)
        self.stolen += end - start

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._fire)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def factor(self, start: float, end: float, margin: float) -> float:
        """Mean of ``REFERENCE_PROBE_S / t`` over the probes in
        [start - margin, end + margin], widening the margin until it holds one."""
        while True:
            lo = bisect_left(self.starts, start - margin)
            hi = bisect_right(self.starts, end + margin)
            if lo < hi:
                return sum(REFERENCE_PROBE_S / t for t in self.durations[lo:hi]) / (hi - lo)
            if not self.starts:
                raise ValueError("no probe was timed")
            margin = 2 * margin + self.interval

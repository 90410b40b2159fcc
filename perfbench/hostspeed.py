"""How fast the host runs Python right now, to take its drift out of timings.

On a shared machine the speed of a core drifts, by up to 2x for minutes at
a time and by tens of percent from one second to the next.  Timing CPU
time instead of wall time does not help: the two agree to within 1%, so
the core itself runs slower, and it slows a fixed piece of pure-Python
work by the same factor as it slows hopfarb.  The benchmark therefore
times ``kernel`` (fixed pure-Python work written here, so that no change
to hopfarb can change it) every ``EVERY_S`` of a pass, from a timer
signal that interrupts whatever runs, and scales the pass's timings by
``REFERENCE_S / mean kernel time`` over the pass.  A CLI verb runs for
seconds, so samples taken only between operations would miss the speed
changes inside it.  A scaled time is the time the operation would take on
a host where one kernel call takes ``REFERENCE_S``, which is about what
one call takes in the fast phases of the 2-core machine the bounds were
set on.

Set-up time is mostly starting a process and an interpreter, which the
kernel does not track, so a set-up sample is scaled instead by a bare
interpreter start taken next to it: ``REFERENCE_START_S / its time``.
"""

from __future__ import annotations

import gc
import signal
import statistics
from contextlib import contextmanager
from fractions import Fraction
from time import perf_counter

REFERENCE_S = 0.010  # nominal kernel time that scaled timings refer to
EVERY_S = 0.2  # one kernel call per this much wall time: about 5% of a pass
REFERENCE_START_S = 0.060  # nominal wall time of ``python3 -c "import sys"``


def kernel() -> int:
    """A fixed amount of pure-Python work of the kinds hopfarb does.

    Tree recursion over child lists with a memo, exact Gaussian
    elimination over ``Fraction``, and a bottom-up table of booleans over
    pairs of vertices of two small trees.  The three parts take about
    equal time.  Allocation-heavy work (building and sorting many small
    objects) was left out: in slow phases it slowed by more than hopfarb.
    """

    def walk(children, v, memo):
        if v in memo:
            return memo[v]
        size, depth = 1, 0
        for c in children[v]:
            s, d = walk(children, c, memo)
            size += s
            depth = max(depth, d + 1)
        memo[v] = (size, depth)
        return size, depth

    total = 0
    for shape in range(200):
        n = 24 + shape % 8
        children = [[] for _ in range(n)]
        for v in range(1, n):
            children[(v * 7 + shape) % v].append(v)
        memo: dict = {}
        for v in range(n):
            size, depth = walk(children, v, memo)
            total += size * depth

    for shift in range(6):
        n = 7
        m = [[Fraction((i * 5 + j * 3 + shift) % 7 - 3 + 4 * (i == j)) for j in range(n)] for i in range(n)]
        det = Fraction(1)
        for c in range(n):
            p = next((r for r in range(c, n) if m[r][c]), None)
            if p is None:
                det = Fraction(0)
                break
            if p != c:
                m[c], m[p] = m[p], m[c]
                det = -det
            det *= m[c][c]
            for r in range(c + 1, n):
                f = m[r][c] / m[c][c]
                if f:
                    m[r] = [a - f * b for a, b in zip(m[r], m[c])]
        total += det.numerator

    for shift in range(100):
        n1, n2 = 5 + shift % 3, 14 + shift % 5
        ch1 = [[] for _ in range(n1)]
        ch2 = [[] for _ in range(n2)]
        for v in range(1, n1):
            ch1[(v * 3 + shift) % v].append(v)
        for v in range(1, n2):
            ch2[(v * 5 + shift) % v].append(v)
        sign1 = [(v * 7 + shift) & 1 for v in range(n1)]
        sign2 = [(v * 11 + shift) & 1 for v in range(n2)]
        # below[u][v]: u's subtree maps into v's subtree, children in order
        below = [[False] * n2 for _ in range(n1)]
        for v in reversed(range(n2)):
            cv = ch2[v]
            for u in reversed(range(n1)):
                fits = sign1[u] == sign2[v]
                if fits:
                    i = 0
                    for c in ch1[u]:
                        while i < len(cv) and not below[c][cv[i]]:
                            i += 1
                        if i == len(cv):
                            fits = False
                            break
                        i += 1
                below[u][v] = fits or any(below[u][d] for d in cv)
        total += sum(below[0])
    return total


class HostSpeed:
    """Times ``kernel`` every ``EVERY_S`` while ``sampling``, into ``samples``.

    The samples interrupt the operations being timed; time operations with
    ``clock``, which leaves out the time spent in samples.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent = 0.0

    def clock(self) -> float:
        """``perf_counter`` minus the time spent taking samples."""
        return perf_counter() - self.spent

    def measure(self) -> float:
        """Wall time of one kernel call.

        The cyclic garbage collector is off during the call, so that it
        does not charge the kernel for collecting hopfarb's objects.
        """
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = perf_counter()
            kernel()
            return perf_counter() - t0
        finally:
            if enabled:
                gc.enable()

    def _on_timer(self, signum, frame) -> None:
        t0 = perf_counter()
        self.samples.append(self.measure())
        self.spent += perf_counter() - t0

    @contextmanager
    def sampling(self, samples: list[float]):
        """Sample into ``samples`` while the block runs, at least once."""
        self.samples = samples
        previous = signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        if not samples:
            samples.append(self.measure())


def scale(samples: list[float]) -> float:
    """Factor that turns a raw time into a time on the reference host.

    The mean, not the median, of the kernel times: an operation's time
    adds up every stretch it ran through, slow moments included.
    """
    return REFERENCE_S / statistics.fmean(samples)

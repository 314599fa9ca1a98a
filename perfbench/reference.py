"""Timing in reference seconds, steady on a host whose speed drifts.

The benchmark's host is shared: its speed drifts between 1.0x and 1.8x,
from one second to the next and in phases of up to two minutes
(``NOTES.md``), far more than the bounds on the time metrics.  So while an
interval is timed, a timer signal every ``PERIOD_S`` runs a small fixed
piece of pure-Python work, the probe, and records how long it took.  The
interval is reported in *reference seconds*: its wall time, less the
probes' own time, scaled by ``PROBE_S`` over the probes' mean time.  A slow
phase stretches the interval and the probes alike and cancels; a change to
ksetlab moves only the interval.

The probe does the kind of work ksetlab does, exact ``Fraction``
orientation tests on points with non-dyadic coordinates, but does not use
ksetlab, so no change to the program under test can change it.
"""

from __future__ import annotations

import random
import signal
import statistics
import time
from fractions import Fraction

#: Nominal time of one probe; about what it takes on a 2.0 GHz Xeon core
#: at the machine's fastest, so that reference seconds read close to
#: seconds on an idle machine.
PROBE_S = 0.002
#: Time between probes while an interval is timed.
PERIOD_S = 0.05

_rng = random.Random(20071224)
_POINTS = [
    (Fraction(_rng.randint(-3000, 3000), _rng.choice((3, 5, 7, 9, 11, 13))),
     Fraction(_rng.randint(-3000, 3000), _rng.choice((3, 5, 7, 11))))
    for _ in range(10)
]


def probe_work() -> int:
    """Count the left turns among fixed triples of points."""
    left = 0
    for i, p in enumerate(_POINTS):
        for q in _POINTS[i + 1:]:
            ux, uy = q[0] - p[0], q[1] - p[1]
            for r in _POINTS[:3]:
                left += ux * (r[1] - p[1]) - uy * (r[0] - p[0]) > 0
    return left


def probe_seconds() -> float:
    """Wall time of one ``probe_work()`` call."""
    t0 = time.perf_counter()
    probe_work()
    return time.perf_counter() - t0


class Timed:
    """Times the block it wraps, probing the machine's speed meanwhile.

    One probe runs just before the block and one just after it, outside
    the timed wall time, so that even a block shorter than ``PERIOD_S``
    has two.  Uses SIGALRM and ``ITIMER_REAL``; the previous handler is
    restored on exit.
    """

    def __enter__(self) -> Timed:
        self.probes = [probe_seconds()]
        self._in_block: list[tuple[float, float]] = []
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        self._t0 = time.perf_counter()
        return self

    def _probe(self, signum, frame) -> None:
        start = time.perf_counter()
        self._in_block.append((start, probe_seconds()))

    def __exit__(self, *exc) -> None:
        t1 = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        inside = [dur for start, dur in self._in_block if start < t1]
        #: Wall time of the block, less the probes that ran inside it.
        self.seconds = t1 - self._t0 - sum(inside)
        self.probes += inside
        self.probes.append(probe_seconds())

    @property
    def reference_seconds(self) -> float:
        return self.seconds * PROBE_S / statistics.fmean(self.probes)

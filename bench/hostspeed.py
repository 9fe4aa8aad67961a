"""Host speed probe: how fast this host runs a fixed piece of Python now.

A shared host's speed drifts by tens of percent over seconds and minutes,
while the program's work per item repeats exactly from run to run.  The
probe is a fixed slice of the kind of work the program does (sparse
polynomial products over tuple-keyed dicts, ints and Fractions), written
here so that no change to the program changes it.

``Sampler.start()`` runs the probe on a SIGALRM interval timer while items
run, so the samples cover the same seconds as the work.  ``speed()`` is the
mean of ``REFERENCE_S / probe time`` over the samples: 1.0 on a host that
runs the probe in REFERENCE_S, 0.5 on one that takes twice as long.  Wall
time multiplied by the speed is time at the reference speed.  The time
spent inside the probes is kept in ``probe_s``, so that callers can take it
out of the wall time they measure.
"""

import signal
import time
from fractions import Fraction

REFERENCE_S = 0.0015       # a typical probe time on a 2-core x86-64 host;
                           # it only fixes the scale of the speed
INTERVAL_S = 0.05          # one probe every 50 ms of wall time
_A = {(i, j, (i * j) % 3): (i + 2 * j + 1) for i in range(5) for j in range(4)}
_B = {(j, 1, i): Fraction(j + 1, i + 2) for i in range(2) for j in range(2)}


def _mul(a, b):
    out = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            m = (ma[0] + mb[0], ma[1] + mb[1], ma[2] + mb[2])
            c = out.get(m, 0) + ca * cb
            if c:
                out[m] = c
            else:
                out.pop(m, None)
    return out


def probe() -> float:
    """Run the fixed slice of work once; returns its wall time."""
    start = time.perf_counter()
    _mul(_mul(_A, _A), _A)
    sum(_mul(_B, _B).values(), Fraction(0))
    return time.perf_counter() - start


class Sampler:
    """Probe times taken on a timer while work runs."""

    def __init__(self):
        self.samples = []
        self.probe_s = 0.0          # wall time spent inside the handler

    def _on_alarm(self, _signum, _frame):
        start = time.perf_counter()
        self.samples.append(probe())
        self.probe_s += time.perf_counter() - start

    def sample(self, n: int) -> None:
        """Take n probes now, outside any timer."""
        for _ in range(n):
            self._on_alarm(None, None)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def speed(self) -> float:
        return (sum(REFERENCE_S / s for s in self.samples)
                / len(self.samples)) if self.samples else 1.0

"""Machine-speed probe, so that timings taken at different moments compare.

The CPUs this benchmark runs on are shared: the speed of the same code moves
by up to 2x within seconds, with the load of other machines on the host.  A
fixed probe kernel, built like the package's hot code (small pure-Python
functions on complex numbers, frozen dataclasses, a sort, one np.roots) but
independent of the package, runs briefly every PERIOD_S seconds from a timer
signal while a workload runs, and back to back right after start-up.  Its
mean speed over the run, against the fixed REFERENCE_S, rescales the
measured seconds to seconds at the reference speed.  The probe's own time is
taken out first; it costs about 1 % of the run.
"""

from __future__ import annotations

import signal
import time
from dataclasses import dataclass

import numpy as np

# Duration of one probe kernel at the reference speed (Xeon, 2 vCPUs, quiet).
REFERENCE_S = 220e-6
PERIOD_S = 0.05

_CS = (1.0, 0.3, -0.2, 0.1, -0.05)
_DCS = (4.0, 0.9, -0.4, 0.1)


@dataclass(frozen=True)
class _Point:
    x: float
    y: float

    def __post_init__(self):
        object.__setattr__(self, "x", float(self.x) % 6.283185307179586)


def _horner(cs, z: complex) -> complex:
    acc = 0j
    for c in cs:
        acc = acc * z + c
    return acc


def _kernel() -> list:
    keep = []
    for k in range(12):
        z = complex(0.5, 0.1 * k)
        for _ in range(6):
            d = _horner(_DCS, z)
            if d != 0:
                z = z - _horner(_CS, z) / d
        keep.append(_Point(k * 0.7, abs(z)))
    keep.sort(key=lambda p: (p.y, p.x))
    np.roots(_CS)
    return keep


class Probe:
    """Times the kernel from a SIGALRM timer between start() and stop().

    Each tick runs the kernel twice and times the second, warm run: a cold
    run's time depends on how much of the cache the workload had taken.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        _kernel()
        t1 = time.perf_counter()
        _kernel()
        t2 = time.perf_counter()
        self.samples.append(t2 - t1)
        self.spent += t2 - t0

    def burst(self, n: int) -> None:
        for _ in range(n):
            self._tick(None, None)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    @property
    def scale(self) -> float:
        """Reference seconds per measured second: mean speed over the samples."""
        return REFERENCE_S * float(np.mean(1.0 / np.array(self.samples)))

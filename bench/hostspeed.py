"""A clock that counts seconds at the host's reference speed.

The benchmark's host is a shared virtual machine whose speed drifts
between spells up to about 1.7x apart, each lasting seconds to minutes,
with no steal time the guest could subtract.  A whole run can fall in a
slow spell, so no statistic over the rounds of one run removes it.

``SpeedClock`` measures that speed from inside the process.  A timer
signal interrupts the benchmark every ``interval`` seconds of wall time,
and the handler runs a fixed probe: a pure-Python loop, a loop of small
numpy operations and a few small sparse LU factorizations, the three
kinds of work the solvers do.  The probe uses none of ``mfg_inverse``,
so a change to the program cannot change it.  Its speed is the geometric
mean, over the three parts, of the part's reference time divided by its
measured time.  The clock advances by each stretch of wall time between
two probes times the speed measured at the end of that stretch; the
time spent in the probe itself is left out.  So ``now()`` differences
are in reference seconds: the wall time the same work takes when the
host runs at its reference speed.  That is, roughly, the wall time of a
fast spell on the host the references were measured on (a 2-vCPU KVM
guest, Intel Xeon at 2.1 GHz).

The handler runs in the main thread between bytecodes, so a long call
into compiled code delays a probe rather than being interrupted by it.
"""

from __future__ import annotations

import math
import signal
import statistics
import time

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

# Time of each probe part on the reference host in its fast spells (the
# 20th percentile of 1500 probes spread over half a minute).
REFERENCE_S = {"python": 1.9e-4, "numpy": 2.4e-4, "sparse": 5.9e-4}

_N = 50
_ONES = np.ones(_N)
_WAVE = np.sin(np.arange(64.0))
_MATRIX = sp.diags(
    [np.full(_N - 1, -1.0), np.full(_N, 3.0), np.full(_N - 1, -1.0)], [-1, 0, 1], format="csc"
)
_IDENTITY = sp.identity(_N, format="csc")


def _python() -> None:
    s = 0
    for i in range(3000):
        s += i * i


def _numpy() -> None:
    x = _WAVE
    for _ in range(100):
        x = np.sin(x) + 0.5 * _WAVE


def _sparse() -> None:
    for k in range(2):
        spla.splu((_MATRIX + (0.1 + k) * _IDENTITY).tocsc()).solve(_ONES)


PROBES = {"python": _python, "numpy": _numpy, "sparse": _sparse}


def probe_speed() -> float:
    """The host's speed now, relative to the reference: 1 is the reference
    speed, 0.6 a host running the probe 1/0.6 times slower."""
    logs = []
    for name, part in PROBES.items():
        start = time.perf_counter()
        part()
        logs.append(math.log(REFERENCE_S[name] / (time.perf_counter() - start)))
    return math.exp(sum(logs) / len(logs))


class SpeedClock:
    """Reference seconds, advanced by probes of the host's speed.

    Use as a context manager around the timed work; ``now()`` is valid
    inside it.
    """

    def __init__(self, interval: float = 0.05):
        self.interval = interval
        self.speeds: list[float] = []  # every probe's result, for the record
        self.probe_s = 0.0  # wall time spent probing
        self._elapsed = 0.0  # reference seconds up to the end of the last probe
        self._last = 0.0  # wall clock at the end of the last probe
        self._speed = 1.0
        self._previous_handler = None

    def _on_timer(self, signum, frame) -> None:
        start = time.perf_counter()
        self._speed = probe_speed()
        self._elapsed += (start - self._last) * self._speed
        self._last = time.perf_counter()
        self.speeds.append(self._speed)
        self.probe_s += self._last - start

    def now(self) -> float:
        # a probe between reading _elapsed and _last would drop a stretch
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        try:
            return self._elapsed + (time.perf_counter() - self._last) * self._speed
        finally:
            signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})

    def __enter__(self) -> "SpeedClock":
        # a first speed, measured before the timer starts, so the first stretch
        # has one; the first probe of a process pays one-time costs, so it is left out
        probe_speed()
        self._speed = statistics.median(probe_speed() for _ in range(9))
        self._last = time.perf_counter()
        self._previous_handler = signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous_handler)

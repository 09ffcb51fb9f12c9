"""The reference clock: it advances with the work, leaves out its probes
and puts the timer signal back as it found it."""

import signal
import time

import hostspeed


def busy(seconds):
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def test_clock_counts_work_at_the_probed_speed_and_restores_the_timer():
    handler = signal.getsignal(signal.SIGALRM)
    clock = hostspeed.SpeedClock(interval=0.02)
    with clock:
        start_wall, start = time.perf_counter(), clock.now()
        busy(0.5)
        wall, elapsed = time.perf_counter() - start_wall, clock.now() - start
    assert len(clock.speeds) >= 5 and clock.probe_s > 0
    assert all(speed > 0 for speed in clock.speeds)
    # the probes' own time is not counted as work
    lo, hi = min(clock.speeds), max(clock.speeds)
    assert lo * (wall - clock.probe_s) * 0.9 <= elapsed <= hi * wall * 1.1
    assert signal.getsignal(signal.SIGALRM) is handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


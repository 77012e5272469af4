"""Timing that corrects for the host's changing CPU speed.

The benchmark host's CPU speed flips between states about 1.5x apart, on a
scale of seconds, as other tenants come and go, and the share of time in
each state drifts from run to run by 15-20%.  Repeating work inside one run
does not average that drift out.

``HostSpeedClock`` therefore samples the speed while it times: an interval
timer raises SIGALRM every 20 ms, and the handler times a fixed probe loop
of about 0.2 ms.  The handler runs in the main thread between bytecodes, so
the samples fall inside the call being timed.  A call's rescaled time is its
time minus the probes' time, multiplied by REFERENCE_PROBE_S over the median
probe time during the call.  It reads as seconds on a host where the probe
takes REFERENCE_PROBE_S.
"""

from __future__ import annotations

import signal
import time

import numpy as np

PROBE_INTERVAL_S = 0.02
# Median probe time on the 2-CPU host the first numbers were taken on.
REFERENCE_PROBE_S = 170e-6
# A call with fewer probes inside it uses the most recent probes instead.
MIN_PROBES = 3
# Probe slots, allocated once: over 20 minutes of sampling.
CAPACITY = 65536


def _probe() -> float:
    start = time.perf_counter()
    total = 0
    for i in range(2000):
        total += i * i
    return time.perf_counter() - start


class HostSpeedClock:
    """Context manager that samples the host speed and times calls with it."""

    def __init__(self) -> None:
        # Preallocated slots, not a list of floats: memory the handler
        # allocates during a call and keeps would pin the allocator arenas
        # the call frees, and inflate the peak RSS the benchmark reports.
        self._probes = np.zeros(CAPACITY)
        self._count = np.zeros(1, dtype=np.int64)
        self._probe_s = np.zeros(1)
        self._previous_handler = None

    def _on_alarm(self, signum, frame) -> None:
        start = time.perf_counter()
        n = self._count[0]
        if n < CAPACITY:
            self._probes[n] = _probe()
            self._count[0] = n + 1
        self._probe_s[0] += time.perf_counter() - start

    def __enter__(self) -> "HostSpeedClock":
        for _ in range(MIN_PROBES):
            self._on_alarm(None, None)
        self._previous_handler = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous_handler)

    def time(self, fn, *args) -> tuple[object, float, float]:
        """Return fn(*args), its raw time and its time at the reference speed.

        The raw time includes the probes that ran during the call.
        """
        first, probe_s = int(self._count[0]), float(self._probe_s[0])
        start = time.perf_counter()
        result = fn(*args)
        raw = time.perf_counter() - start
        probe_s = float(self._probe_s[0]) - probe_s
        last = int(self._count[0])
        during = self._probes[min(first, last - MIN_PROBES) : last]
        return result, raw, (raw - probe_s) * REFERENCE_PROBE_S / float(np.median(during))

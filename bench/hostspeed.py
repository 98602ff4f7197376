"""Host speed probe: scales timed spans to a fixed reference speed.

On a shared host each vCPU runs about 1.7x slower while its hyperthread
sibling is busy. The state flips within a second or two and stays slow for
tens of seconds at a time, so runs of any affordable length see different
mixes of it. While a span is timed, a SIGALRM timer interrupts the main
thread every INTERVAL_S seconds to time a fixed pure-Python kernel in thread
CPU time, on the vCPU the program is running on at that moment. The span's
wall time, less the time spent in the probe, is scaled by REFERENCE_S over
the mean kernel time: the seconds the span would take on a host where the
kernel takes REFERENCE_S. Thread CPU time keeps the program's own threads
and processes from slowing the kernel.
"""
from __future__ import annotations

import math
import signal
import statistics
import time

INTERVAL_S = 0.05
KERNEL_ROUNDS = 2
# The kernel's time on the reference host: an Intel Xeon vCPU whose sibling
# is idle, Python 3.11.
REFERENCE_S = 0.0012


def kernel_s() -> float:
    """Thread CPU seconds of a fixed kernel in the program's own idiom: small
    float dot products, softmax, masked tuples and a dict of results."""
    start = time.thread_time()
    weights = [[math.sin(17 * j + k) for k in range(16)] for j in range(3)]
    x = [0.25 * math.cos(k) for k in range(16)]
    seen = {}
    for r in range(KERNEL_ROUNDS):
        for mask in range(64):
            xs = tuple(v if (mask >> (k % 6)) & 1 else 0.0 for k, v in enumerate(x))
            z = [sum(w * v for w, v in zip(row, xs)) for row in weights]
            top = max(z)
            e = [math.exp(v - top) for v in z]
            total = sum(e)
            seen[mask, r] = tuple(v / total for v in e)
    return time.thread_time() - start


class SpeedProbe:
    """Samples the kernel between start() and stop() of one timed span."""

    def __init__(self) -> None:
        self._active = False
        self._samples: list[float] = []
        self._spent = 0.0
        # Installed for the life of the process: a SIGALRM already pending
        # when the timer is cancelled must not reach the default handler,
        # which would end the process.
        signal.signal(signal.SIGALRM, self._sample)

    def _sample(self, _signum, _frame) -> None:
        if not self._active:
            return
        start = time.perf_counter()
        self._samples.append(kernel_s())
        self._spent += time.perf_counter() - start

    def start(self) -> None:
        """Take one sample before the span's clock starts, so that a span
        shorter than the interval has one too, then start the timer."""
        self._samples, self._spent = [kernel_s()], 0.0
        self._active = True
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self, wall_s: float) -> tuple[float, float, float]:
        """Stop the timer. Returns the span's wall time less the probe's own
        time, the same scaled to the reference host, and the mean kernel time."""
        self._active = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        own = wall_s - self._spent
        kernel = statistics.fmean(self._samples)
        return own, own * REFERENCE_S / kernel, kernel

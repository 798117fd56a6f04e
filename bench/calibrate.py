"""Host-speed calibration: a fixed kernel sampled while the program runs.

On a shared host the same code runs at several speeds (up to about 2x apart),
switching within a fraction of a second and drifting over minutes.  While a
timed loop runs, a wall-clock timer interrupts it every INTERVAL_S and runs
ITERATIONS iterations of this kernel, which never changes with the program.
Each block of calls is then scaled to a host running the kernel at its
nominal speed:

    scaled time = (measured time - kernel runs inside it) * NOMINAL_S / k

where k is the mean kernel time per iteration over the runs during the
block and the one interval on either side of it.  The kernel mixes what the
program spends its time on: Python calls, small numpy arrays and small
LAPACK solves.  A kernel run that interrupts a call is timed and taken out
of that call's time.
"""

import signal
import statistics
import time
from bisect import bisect_left, bisect_right

import numpy as np

# seconds per kernel iteration on the development host (Intel Xeon, 2 vCPUs,
# numpy 2.4, scipy-openblas); fixed, so scaled times stay comparable
NOMINAL_S = 100e-6
# a 20-iteration run (2-3 ms) every 100 ms: about 3% of the loop's time
INTERVAL_S = 0.1
ITERATIONS = 20

_RNG = np.random.default_rng(0)
_A = _RNG.normal(size=(32, 32)) + 1j * _RNG.normal(size=(32, 32))
_B = _RNG.normal(size=32) + 0j
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_I2 = np.eye(2)


def kernel_seconds(iterations):
    """Wall time of `iterations` kernel iterations, per iteration."""
    acc = 0.0
    t0 = time.perf_counter_ns()
    for i in range(iterations):
        m = np.kron(_X, _I2) @ np.kron(_I2, _X)
        acc += float(np.linalg.eigvalsh(m + m.conj().T)[0])
        acc += abs(np.linalg.solve(_A, _B)[0]) + sum(j * 0.5 for j in range(20))
        acc += len(str({"k": i, "v": [complex(i, 1)] * 4}))
    elapsed = time.perf_counter_ns() - t0
    if not acc == acc:  # keep the result live
        raise ArithmeticError("calibration kernel produced NaN")
    return elapsed / 1e9 / iterations


class HostSpeed:
    """Samples the kernel on a SIGALRM timer while installed (main thread only)."""

    def __init__(self):
        self.starts = []        # perf_counter_ns at the start of each kernel run
        self.durations = []     # ns each kernel run took, timer overhead included
        self.per_iteration = []  # s per kernel iteration of each run
        self._previous = None

    def _sample(self, signum, frame):
        t0 = time.perf_counter_ns()
        per_iteration = kernel_seconds(ITERATIONS)
        self.starts.append(t0)
        self.per_iteration.append(per_iteration)
        self.durations.append(time.perf_counter_ns() - t0)

    def __enter__(self):
        kernel_seconds(ITERATIONS)  # first run outside the record
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def scaled(self, blocks):
        """[(latency_ns, scaled_ns)] per call, from blocks of (start_ns, end_ns) spans."""
        margin = int(INTERVAL_S * 1e9)
        out = []
        for spans in blocks:
            lo = bisect_left(self.starts, spans[0][0] - margin)
            hi = bisect_right(self.starts, spans[-1][1] + margin)
            if lo == hi:
                raise RuntimeError("no calibration kernel run near a timed block")
            factor = NOMINAL_S / statistics.fmean(self.per_iteration[lo:hi])
            for t0, t1 in spans:
                inside = self.durations[bisect_left(self.starts, t0):bisect_right(self.starts, t1)]
                latency = t1 - t0 - sum(inside)
                out.append((latency, latency * factor))
        return out

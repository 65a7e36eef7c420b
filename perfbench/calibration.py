"""Machine-speed calibration for the reported times.

The benchmark shares its machine, whose speed drifts by 20% and more within
seconds.  Passes of the fixed kernel below are interleaved with the timed
work, and a stretch of work t between two passes is reported at the kernel's
reference speed:

    t * REFERENCE_S / (mean time of the two passes)

The kernel is the benchmark's own code and mirrors the program's mix: small
complex SVDs and a Python loop over small-vector NumPy operations.  The raw
times are kept in results/ next to the normalised ones.
"""

from __future__ import annotations

import signal
import time

import numpy as np

# about the kernel's median pass on the 2-core x86-64 machine the benchmark
# was defined on; it only sets the scale of the reported times
REFERENCE_S = 0.0008
PASSES = 5  # a calibration is the median of this many passes, ~4 ms in all

_rng = np.random.default_rng(20240513)
_MATRIX = _rng.standard_normal((128, 32)) + 1j * _rng.standard_normal((128, 32))
_S2 = np.geomspace(1e-12, 1.0, 32) ** 2
_BETA = _rng.standard_normal(32) ** 2
_GRID = np.geomspace(1e-10, 1.0, 8)


def _pass() -> float:
    start = time.perf_counter()
    np.linalg.svd(_MATRIX, full_matrices=False)
    acc = 0.0
    for g in _GRID:
        f = _S2 / (_S2 + g * g)
        acc += float(np.sum(f * _BETA)) + float(np.sum((1.0 - f) ** 2 * _BETA))
    return time.perf_counter() - start


def calibrate() -> float:
    """Median seconds of one kernel pass, over PASSES passes."""
    return sorted(_pass() for _ in range(PASSES))[PASSES // 2]


class Timeline:
    """Calibrations every INTERVAL_S of wall time while the context is open.

    They run from SIGALRM between the program's bytecodes, so they also
    follow the machine inside one long call; normalise() leaves their own
    time out of the work it reports.  on_pass(start, end) is told of each.
    """

    INTERVAL_S = 0.1

    def __init__(self, on_pass=None):
        self.passes = []  # (start, end, calibrate()), in time order
        self._on_pass = on_pass
        self._busy = False

    def _calibrate(self, *_):
        if not self._busy:
            self._busy = True
            start = time.perf_counter()
            seconds = calibrate()
            end = time.perf_counter()
            self.passes.append((start, end, seconds))
            if self._on_pass:
                self._on_pass(start, end)
            self._busy = False

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._calibrate)
        self._calibrate()
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._calibrate()

    @property
    def spent_s(self) -> float:
        """Seconds the calibrations took, which is not the program's time."""
        return sum(end - start for start, end, _ in self.passes)

    def normalise(self, start: float, end: float) -> tuple:
        """Work seconds in [start, end] outside the calibrations, raw and at reference speed."""
        raw = norm = 0.0
        for (_, e0, c0), (s1, _, c1) in zip(self.passes, self.passes[1:]):
            lo, hi = max(start, e0), min(end, s1)
            if hi > lo:
                raw += hi - lo
                norm += (hi - lo) * REFERENCE_S / (0.5 * (c0 + c1))
        return raw, norm

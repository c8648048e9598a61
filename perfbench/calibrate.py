"""Fixed calibration kernel for host-speed-normalised timings.

The kernel mixes the two kinds of work the planner spends its time on:
scalar ``math`` calls in Python loops (rate evaluations and bisection, as
in the rate inverse and the queue recursion) and numpy calls on arrays of a
few dozen elements (as in the per-device cut tables). It runs once after
every timed instance; ``instance_cost_cal`` divides the summed instance time
by the summed kernel time, which cancels most of the host's speed drift.
The work is fixed: changing any constant here changes the metric's scale.
"""

from __future__ import annotations

import math

import numpy as np

_SCALAR_ROUNDS = 560
_ARRAY_ROUNDS = 320


def _rate(bandwidth: float, snr_hz: float) -> float:
    return bandwidth * math.log2(1.0 + snr_hz / bandwidth)


def _bandwidth_for(rate: float, snr_hz: float) -> float:
    lo, hi = 0.0, rate
    while _rate(hi, snr_hz) < rate:
        hi *= 2.0
    for _ in range(48):
        mid = 0.5 * (lo + hi)
        if _rate(mid, snr_hz) >= rate:
            hi = mid
        else:
            lo = mid
    return hi


def kernel() -> float:
    """Run the fixed work once; returns a checksum so nothing is skipped."""
    acc = 0.0
    for r in range(_SCALAR_ROUNDS):
        snr = 3.0e8 * (1.0 + 0.01 * r)
        acc += _bandwidth_for(2.0e8, snr) * 1e-9
        w = -0.2 + 0.001 * r
        for _ in range(8):
            ew = math.exp(w)
            w -= (w * ew + 0.25) / (ew * (w + 1.0) + 1e-12)
        acc += math.sqrt(abs(w)) + math.log1p(abs(w))
    base = np.linspace(1.0, 2.0, 31)
    for r in range(_ARRAY_ROUNDS):
        x = base * (1.0 + 1e-3 * r)
        y = np.where(x > 1.5, x / 3.0, 0.0) + np.log2(1.0 + 7.0 / x)
        acc += float(y.sum()) + int(np.argmin(y)) + float(np.max(x - y))
    return acc

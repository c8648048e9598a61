"""Brute-force baselines for validating the solvers.

Exhaustive cut enumeration crossed with a dense bandwidth-simplex grid, plus
a dense scan certifying the equal-delay root bracket. Guarded to toy sizes.

The grid is one ``(P, k)`` array, built once with one upload rate per point
and device. Each cut vector turns it into P arrival rows and scores them all
in one call: the parallel oracle through the stacked form of
:func:`~splitplan.parallel.equal_delay_split`, the serial one through the
queue recursion run down the columns. Both keep the first minimum in cut
order and then grid order.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .delay import NetworkInstance
from .errors import NoBracket, TooLarge, ValidationError
from .parallel import CutTable, _arrival_seconds, _upload_rates, equal_delay_split


#: Largest fleet and deepest network the exhaustive cut enumeration accepts.
_MAX_DEVICES = 3
_MAX_CUT_LAYERS = 6
#: Most bandwidth-simplex points a grid may hold (101 points at k = 3 make 4,851).
_MAX_GRID_POINTS = 10 ** 5


@dataclass(frozen=True)
class GridSpec:
    bandwidth_points: int = 101

    def __post_init__(self):
        if self.bandwidth_points < 2:
            raise ValidationError("the bandwidth grid needs at least 2 points")


@dataclass(frozen=True)
class OracleResult:
    objective: float
    cuts: tuple[int, ...]
    bandwidth_hz: tuple[float, ...]


def _guard(net: NetworkInstance, grid: GridSpec):
    k = net.num_devices
    if k > _MAX_DEVICES:
        raise TooLarge(f"{k} devices exceeds the brute-force guard ({_MAX_DEVICES})")
    layers = max(d.profile.num_cuts for d in net.devices)
    if layers > _MAX_CUT_LAYERS:
        raise TooLarge(f"{layers} layers exceeds the brute-force guard ({_MAX_CUT_LAYERS})")
    points = 1 if k == 1 else math.comb(grid.bandwidth_points - 2, k - 1)
    if points > _MAX_GRID_POINTS:
        raise TooLarge(
            f"{points} grid points exceeds the brute-force guard ({_MAX_GRID_POINTS})")


def _bandwidth_grid(total: float, k: int, points: int) -> np.ndarray:
    """Non-degenerate points of the k-way simplex grid over the spectrum, one
    row each in stars-and-bars order; a lone device gets exactly ``total``."""
    if k == 1:  # steps * (total/steps) can miss it by an ulp
        return np.array([[total]], dtype=float)
    steps = points - 1
    bars = np.array(list(itertools.combinations(range(1, steps), k - 1)), dtype=int)
    bars = bars.reshape(-1, k - 1)
    ends = np.full((len(bars), 1), steps)
    return np.diff(bars, axis=1, prepend=0, append=ends).astype(float) * (total / steps)


def _grid_min(net: NetworkInstance, grid: GridSpec | None, score) -> OracleResult:
    """Minimum of ``score(arrival_rows, residuals, server_flops)``, which scores
    every row, over every cut vector crossed with the bandwidth-simplex grid.
    Grid points where some device gets a zero rate are left out."""
    grid = grid or GridSpec()
    _guard(net, grid)
    table = CutTable(net)
    k = net.num_devices
    bw = _bandwidth_grid(net.total_bandwidth_hz, k, grid.bandwidth_points)
    rates = np.array([_upload_rates(table.snr, point) for point in bw.tolist()]).reshape(-1, k)
    finite = np.all(rates > 0, axis=1)
    bw, rates = bw[finite], rates[finite]
    if not len(bw):
        raise TooLarge("no finite grid point (all rates zero?)")
    best = None
    for cuts in itertools.product(*(range(d.profile.num_cuts + 1) for d in net.devices)):
        view = table.view(cuts)
        rows = _arrival_seconds(view.local_s, view.bits, rates)
        scores = score(rows, view.resid, net.server_flops)
        p = int(np.argmin(scores))
        if best is None or scores[p] < best[0]:
            best = (scores[p], cuts, p)
    return OracleResult(float(best[0]), best[1], tuple(bw[best[2]]))


def _queue_totals(arrivals, residuals, server_flops):
    """``delay.serial_total_delay(row, residuals, server_flops)[0]`` of every
    row of ``arrivals``: the queued devices in (arrival, id) order through
    I = max(I, C_p) + F_p/f, then the latest local-only arrival if later."""
    queued = residuals > 0
    totals = np.zeros(len(arrivals))
    if queued.any():
        c = arrivals[:, queued]
        order = np.argsort(c, axis=1, kind="stable")  # ties go by id
        c = np.take_along_axis(c, order, axis=1)
        service = residuals[queued][order] / server_flops
        totals = c[:, 0] + service[:, 0]
        for p in range(1, c.shape[1]):
            totals = np.maximum(totals, c[:, p]) + service[:, p]
    if not queued.all():
        totals = np.maximum(totals, np.max(arrivals[:, ~queued], axis=1))
    return totals


def oracle_parallel(net: NetworkInstance, grid: GridSpec | None = None) -> OracleResult:
    """Grid minimum of the parallel max-delay over cuts x bandwidth simplex.

    Every grid point gets the exact equal-delay compute split, so the result
    upper-bounds the true optimum by the grid resolution only.
    """
    return _grid_min(net, grid, lambda *rows: equal_delay_split(*rows)[1])


def oracle_serial(net: NetworkInstance, grid: GridSpec | None = None) -> OracleResult:
    """Grid minimum of the exact serial queue total over cuts x bandwidth."""
    return _grid_min(net, grid, _queue_totals)


def dense_root_scan(arrivals, residuals, budget, points: int = 10 ** 6):
    """Bracket the equal-delay budget root by a dense scan.

    Builds, from the inputs alone, the budget-consumption curve in the share
    x of the earliest busy arrival ``a``, which :func:`equal_delay_split`
    does not solve in: x costs ``x + sum(r_i*x / (r_a + x*(a_a - a_i)))``
    over the other busy devices, and ``inf`` past the first pole. Scans it
    over the share interval and returns the unique sign-change bracket
    ``(lo, hi)`` of that share; anything other than exactly one sign change
    falsifies the one-root guarantee and raises.
    """
    arrivals = np.asarray(arrivals, dtype=float)
    residuals = np.asarray(residuals, dtype=float)
    busy = residuals > 0
    if np.count_nonzero(busy) < 2:
        raise ValidationError("dense scan needs at least two participants")
    a, r = arrivals[busy], residuals[busy]
    m = int(np.argmin(a))
    fm, fk = r[m], np.delete(r, m)
    d = np.delete(a[m] - a, m)
    poles = -fm / d[d < 0.0]
    ub = poles.min() if poles.size else np.inf
    hi = min(ub * (1.0 - 1e-12), budget)
    xs = hi * np.arange(1, points + 1) / points
    den = fm + np.multiply.outer(xs, d)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.multiply.outer(xs, fk) / den
    qs = xs + np.where(den > 0.0, terms, np.inf).sum(axis=-1) - budget
    signs = np.sign(qs)
    flips = np.flatnonzero(np.diff(signs) != 0)
    if len(flips) == 0:
        if signs[0] > 0:  # root below the first sample
            return 0.0, float(xs[0])
        raise NoBracket("no sign change over the share interval")
    if len(flips) > 1:
        raise NoBracket(f"{len(flips)} sign changes; the root should be unique")
    i = int(flips[0])
    return float(xs[i]), float(xs[i + 1])

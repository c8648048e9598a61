"""Brute-force baselines for validating the solvers.

Exhaustive cut enumeration crossed with a dense bandwidth-simplex grid, plus
a dense scan certifying the equal-delay root bracket. Guarded to toy sizes.

The grid is one ``(P, k)`` array, built once with one upload rate per point
and device. The cut vectors are grouped by busy pattern (the devices left
with residual work), and each group crossed with the grid becomes one stack
of arrival rows with one residual row each, scored in one call: the parallel
oracle through the stacked form of
:func:`~splitplan.parallel.equal_delay_split`, the serial one through the
queue recursion run down the columns. A group too big for one call of at
most ``_MAX_GRID_POINTS`` rows is scored in chunks of whole cut vectors. Both
oracles keep the first minimum in cut order and then grid order.
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
    """Minimum of ``score(arrival_rows, residual_rows, server_flops)``, which
    scores every row of a stack sharing one busy pattern, over every cut
    vector crossed with the bandwidth-simplex grid. Grid points where some
    device gets a zero rate are left out."""
    grid = grid or GridSpec()
    _guard(net, grid)
    table = CutTable.of(net)
    k = net.num_devices
    bw = _bandwidth_grid(net.total_bandwidth_hz, k, grid.bandwidth_points)
    rates = np.array([_upload_rates(table.snr, point) for point in bw.tolist()]).reshape(-1, k)
    finite = np.all(rates > 0, axis=1)
    bw, rates = bw[finite], rates[finite]
    if not len(bw):
        raise TooLarge("no finite grid point (all rates zero?)")
    vectors = list(itertools.product(*(range(d.profile.num_cuts + 1) for d in net.devices)))
    at = (np.arange(k), np.array(vectors).reshape(-1, k))
    local_s, bits, resid = table.local_s[at], table.bits[at], table.resid[at]
    groups = {}  # busy pattern -> its cut vectors' indices, in cut order
    for c, busy in enumerate((resid > 0).tolist()):
        groups.setdefault(tuple(busy), []).append(c)
    points = len(bw)
    chunk = max(1, _MAX_GRID_POINTS // points)
    best = None  # (score, cut index, grid index), least first
    for members in groups.values():
        for start in range(0, len(members), chunk):
            idx = members[start:start + chunk]
            rows = _arrival_seconds(local_s[idx, None], bits[idx, None], rates)
            scores = score(rows.reshape(-1, k), np.repeat(resid[idx], points, axis=0),
                           net.server_flops)
            flat = int(np.argmin(scores))
            c, p = divmod(flat, points)
            found = (float(scores[flat]), idx[c], p)
            best = found if best is None else min(best, found)
    return OracleResult(best[0], vectors[best[1]], tuple(bw[best[2]]))


def _queue_totals(arrivals, residuals, server_flops):
    """``delay.serial_total_delay(row, residuals, server_flops)[0]`` of every
    row of ``arrivals``: the queued devices in (arrival, id) order through
    I = max(I, C_p) + F_p/f, then the latest local-only arrival if later.
    ``residuals`` is one row for all or one per row; every row must queue
    the same devices, or :class:`ValidationError` is raised."""
    queued = residuals > 0
    if queued.ndim == 2:  # one residual row per arrival row
        pattern = queued.any(axis=0)
        if (queued != pattern).any():
            raise ValidationError("every row of residuals must queue the same devices")
        queued = pattern
    totals = np.zeros(len(arrivals))
    if queued.any():
        c = arrivals[:, queued]
        order = np.argsort(c, axis=1, kind="stable")  # ties go by id
        c = np.take_along_axis(c, order, axis=1)
        work = np.broadcast_to(residuals, arrivals.shape)[:, queued]
        service = np.take_along_axis(work, order, axis=1) / server_flops
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

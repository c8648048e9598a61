"""Brute-force baselines for validating the solvers.

Deliberately simple and slow: exhaustive cut enumeration crossed with a
dense bandwidth-simplex grid, plus a dense scan certifying the equal-delay
root bracket. Guarded to toy sizes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .channel import shannon_rate
from .delay import NetworkInstance, serial_total_delay
from .errors import NoBracket, TooLarge, ValidationError
from .parallel import CutTable, equal_delay_split


#: Largest fleet and deepest network the exhaustive cut enumeration accepts.
_MAX_DEVICES = 3
_MAX_CUT_LAYERS = 6


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


def _guard(net: NetworkInstance):
    if net.num_devices > _MAX_DEVICES:
        raise TooLarge(
            f"{net.num_devices} devices exceeds the brute-force guard ({_MAX_DEVICES})")
    layers = max(d.profile.num_cuts for d in net.devices)
    if layers > _MAX_CUT_LAYERS:
        raise TooLarge(f"{layers} layers exceeds the brute-force guard ({_MAX_CUT_LAYERS})")


def _bandwidth_grid(total: float, k: int, points: int):
    """Non-degenerate points of the k-way simplex grid over the spectrum, in
    stars-and-bars order; a lone device gets exactly ``total``."""
    if k == 1:
        yield np.array([total])  # steps * (total/steps) can miss it by an ulp
        return
    steps = points - 1
    for cut in itertools.combinations(range(1, steps), k - 1):
        yield np.diff((0, *cut, steps)).astype(float) * (total / steps)


def _arrivals(table: CutTable, cuts, bw):
    out = np.empty(len(cuts))
    for i, c in enumerate(cuts):
        rate = shannon_rate(table.snr[i], bw[i])
        if rate <= 0:
            return None
        out[i] = table.local_s[i][c] + table.bits[i][c] / rate
    return out


def _grid_min(net: NetworkInstance, grid: GridSpec | None, score) -> OracleResult:
    """Minimum of ``score(arrivals, residuals, server_flops)`` over every cut
    vector crossed with the bandwidth-simplex grid."""
    grid = grid or GridSpec()
    _guard(net)
    table = CutTable(net)
    k = net.num_devices
    best = None
    cut_ranges = [range(d.profile.num_cuts + 1) for d in net.devices]
    bw_points = list(_bandwidth_grid(net.total_bandwidth_hz, k, grid.bandwidth_points))
    for cuts in itertools.product(*cut_ranges):
        resid = np.array([table.resid[i][cuts[i]] for i in range(k)])
        for bw in bw_points:
            arr = _arrivals(table, cuts, bw)
            if arr is None:
                continue
            obj = score(arr, resid, net.server_flops)
            if best is None or obj < best[0]:
                best = (obj, cuts, bw.copy())
    if best is None:
        raise TooLarge("no finite grid point (all rates zero?)")
    return OracleResult(float(best[0]), tuple(best[1]), tuple(best[2]))


def oracle_parallel(net: NetworkInstance, grid: GridSpec | None = None) -> OracleResult:
    """Grid minimum of the parallel max-delay over cuts x bandwidth simplex.

    Every grid point gets the exact equal-delay compute split, so the result
    upper-bounds the true optimum by the grid resolution only.
    """
    return _grid_min(net, grid, lambda *point: equal_delay_split(*point)[1])


def oracle_serial(net: NetworkInstance, grid: GridSpec | None = None) -> OracleResult:
    """Grid minimum of the exact serial queue total over cuts x bandwidth."""
    return _grid_min(net, grid, lambda *point: serial_total_delay(*point)[0])


def dense_root_scan(arrivals, residuals, budget, points: int = 10 ** 6):
    """Bracket the equal-delay budget root by a dense scan.

    Builds the budget-consumption curve of :func:`equal_delay_split`'s
    anchor share from the inputs alone: with the earliest busy arrival as
    anchor ``a``, share x costs ``x + sum(r_i*x / (r_a + x*(a_a - a_i)))``
    over the other busy devices, and ``inf`` past the first pole. Scans it
    over the share interval and returns the unique sign-change bracket
    ``(lo, hi)``; anything other than exactly one sign change falsifies the
    one-root guarantee and raises.
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

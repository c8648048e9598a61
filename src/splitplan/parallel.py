"""Parallel-processing allocation policies.

Covers the joint problem (cut selection + bandwidth + server-compute split,
alternating a convex resource step with per-device cut re-selection), the
fixed-bandwidth variant (optimal cuts and server shares from one
target-delay search), and the min-data / raw-input baselines. The convex
step at fixed cuts is one damped Newton solve of its KKT system
(:func:`resource_subproblem`); :func:`_least_target` is the one target-delay
search, for the fixed-bandwidth variant and the serial shaping.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .arch import _number
from .channel import LN2, shannon_rate
from .delay import AllocationPlan, NetworkInstance
from .errors import Infeasible, NonConvergence, ValidationError, ZeroRate


#: Relative width at which the target-delay search and the rate bisection stop.
_BISECT_REL_TOL = 1e-9
#: An alternation stops once its objective moves by at most this, relative.
_STALL_REL_TOL = 1e-6


@dataclass(frozen=True)
class SolverSettings:
    """Shared solver knobs.

    ``max_alternations`` caps the cut/resource alternation of ``p1`` and
    ``p3`` (``p2`` has none); ``outer_iters`` is the serial heuristic's outer
    loop count.
    Each cap is a whole number >= 1 (a whole float such as 2.0 is stored as
    the int 2); anything else raises :class:`ValidationError`.
    """

    max_alternations: int = 20
    outer_iters: int = 4

    def __post_init__(self):
        for name in ("max_alternations", "outer_iters"):
            cap = _number(getattr(self, name), name, whole=True)
            if cap < 1:
                raise ValidationError("iteration caps must be >= 1")
            object.__setattr__(self, name, cap)


# ---------------------------------------------------------------------------
# one-dimensional monotone searches

#: The ``window`` of :func:`_grow` and :func:`_bisect` that decides nothing:
#: every comparison with NaN is false, so every point is probed.
_NO_WINDOW = (math.nan, math.nan)


def _grow(ok, x, factor, max_iter, what, window=_NO_WINDOW):
    """First point of ``x, x*factor, x*factor**2, ...`` at which ``ok`` holds;
    raises :class:`NonConvergence` with message ``what`` after ``max_iter`` misses.
    With ``window = (below, above)``, a point at or above ``above`` counts as
    holding and one at or below ``below`` as failing, without a call to ``ok``."""
    below, above = window
    for _ in range(max_iter):
        if x >= above or (not x <= below and ok(x)):
            return x
        x *= factor
    raise NonConvergence(what)


def _bisect(ok, lo, hi, rel_tol, window=_NO_WINDOW):
    """Narrow ``(lo, hi]`` around the switch of ``ok`` (false below, true above;
    ``hi`` stays the smallest probed point where it holds) to relative width
    ``rel_tol`` or float resolution, and return ``(lo, hi)``. ``window``
    decides points without a call to ``ok`` as in :func:`_grow`."""
    below, above = window
    while hi - lo > rel_tol * hi:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break  # interval exhausted at float resolution
        if mid >= above or (not mid <= below and ok(mid)):
            hi = mid
        else:
            lo = mid
    return lo, hi


def _least_target(floor, budget, t_floor, t_seed=None, settled=None):
    """Least target delay t > ``t_floor`` at which ``floor(t)`` fits ``budget``.

    ``floor(t)`` is ``None`` when nothing meets t, else ``(total, allocation,
    slope)``: the least total meeting t (decreasing in t), an allocation that
    attains it, and the total's slope in t or ``None``. A total with a slope
    must be convex, so each tangent zero is a lower bound on the root.
    The search starts at a finite ``t_seed`` above ``t_floor`` (else
    ``2 * t_floor``, or 2e-9 s at a zero floor). Until a probe is feasible,
    an infeasible probe with a slope is followed by a Newton step from below
    (the next probe goes just above its tangent zero), one without a slope
    by doubling t; a seed that is a lower bound on the root therefore never
    probes far above it. Then each probe goes just above a tangent-zero
    lower bound (a safeguarded Newton step), or else bisects, until the
    bracket is ``_BISECT_REL_TOL`` wide or 100 probes pass. "Just above" is
    half that width, so a tangent zero within it of the root closes the
    bracket with one probe. For a floor without slope,
    ``settled(refused, feasible)`` may end the search sooner: it gets the
    allocations at the largest refused and the smallest feasible target,
    and returns true once the answer is the feasible one. Returns the least
    feasible t and its allocation; a non-finite ``t_floor`` raises
    :class:`Infeasible`, and 200 refused probes before a feasible one raise
    :class:`NonConvergence`.
    """
    if not math.isfinite(t_floor):
        raise Infeasible(f"no finite target delay: its floor is {t_floor} s")
    # lower bound on the root and whether it is a tangent zero; the
    # allocation of the largest refused target; smallest feasible target and
    # its allocation
    lo, newton, refused, hi, best = t_floor, False, None, math.inf, None

    def feasible(t):
        nonlocal lo, newton, refused, hi, best
        total, alloc, slope = floor(t) or (math.inf, None, None)  # None: t is infeasible
        gap = budget - total
        if gap < 0.0:
            if t > lo:
                refused = alloc
            lo, newton = max(lo, t), False
        elif t < hi:
            hi, best = t, alloc
        if slope is not None and lo < t + gap / slope < hi:
            lo, newton = t + gap / slope, True
        return gap >= 0.0

    def above_tangent_zero():
        return lo * (1.0 + 0.5 * _BISECT_REL_TOL)

    t = t_seed if t_seed is not None and t_floor < t_seed < math.inf else (
        2.0 * t_floor if t_floor > 0 else 2e-9)
    for _ in range(200):
        if feasible(t):
            break
        t = above_tangent_zero() if newton else 2.0 * t
    else:
        raise NonConvergence("no feasible target delay found")
    for _ in range(100):
        if hi - lo <= _BISECT_REL_TOL * hi:
            break
        if settled is not None and refused is not None and settled(refused, best):
            break
        feasible(above_tangent_zero() if newton else 0.5 * (lo + hi))
    return hi, best


# ---------------------------------------------------------------------------
# equal-delay server split (fixed bandwidth)

#: Relative width at which the equal-delay split's bisection stops. The
#: single-row search (:func:`_bisect`) and the stacked one
#: (:func:`_bisect_rows`) must stop at the same width, since that is what
#: keeps every row of a stack bit-identical to the single-row call on it.
_SPLIT_REL_TOL = 1e-13


def equal_delay_split(arrivals, residuals, budget):
    """Server-compute split that equalizes the delay of every busy device.

    Devices with residual work share ``budget`` so that each busy
    ``arrival + residual/share`` takes one value T; idle devices get share 0.
    Returns ``(shares, T)``, where T is also at least the latest idle arrival.
    ``arrivals`` is one row of k devices or a ``(P, k)`` stack of rows.
    ``residuals`` is one row of k, shared by every row, or, for a stack, a
    ``(P, k)`` array with one row per arrival row; every row of it must have
    work on the same devices (one busy pattern), or :class:`ValidationError`
    is raised. A stack gives ``(P, k)`` shares and P values of T, each
    bit-identical to the single-row call on its row.

    With two or more busy devices the split is parameterized by the server
    seconds y of the latest busy arrival: device i then takes
    ``r_i / (y + gap_i)`` with ``gap_i = max(a) - a_i >= 0``. Every share is
    positive and decreasing in y, so sum(shares) = budget has exactly one
    root in (0, sum(r)/budget], which a bisection finds to relative width
    ``_SPLIT_REL_TOL``; no share has a pole there, so the search needs no
    pole or sign test. A single row bisects on Python floats: the stacked
    search on one row costs 3.7-5.6 times more (k = 2-32), and ``p2`` calls
    this once, on a single row. A stack bisects all its rows in one numpy
    pass per step, as the grid oracles need. A row whose server seconds
    overflow gets shares in proportion to its work and T = inf; server
    seconds that underflow to 0 in any row raise :class:`Infeasible`.
    """
    arrivals = np.asarray(arrivals, dtype=float)
    residuals = np.asarray(residuals, dtype=float)
    if arrivals.ndim not in (1, 2):
        raise ValidationError("arrivals must be one row or a (P, k) stack of rows")
    if residuals.shape != arrivals.shape[-1:] and residuals.shape != arrivals.shape:
        raise ValidationError("arrivals and residuals must have equal length "
                              "(residuals: one row, or one row per arrival row)")
    if not (residuals >= 0).all():
        raise ValidationError("residual work must be >= 0")
    if not 0 < budget < math.inf:
        raise ValidationError("server budget must be positive and finite")
    rows = np.atleast_2d(arrivals)
    if not np.isfinite(rows).all():
        p, i = np.argwhere(~np.isfinite(rows))[0]
        where = "" if arrivals.ndim == 1 else f" in row {p}"
        raise ZeroRate(
            f"device {i} arrives at {rows[p, i]}{where}: its upload rate is zero")
    busy = residuals > 0
    if busy.ndim == 2:  # one residual row per arrival row
        pattern = busy.any(axis=0)
        if (busy != pattern).any():
            raise ValidationError("every row of residuals must have the same busy devices")
        busy = pattern
        r = np.ascontiguousarray(residuals[:, busy])  # sums in single-row order
    else:
        r = residuals[busy]
    shares = np.zeros(rows.shape)
    t = rows[:, ~busy].max(axis=1, initial=-math.inf)  # latest idle arrival
    if busy.any():
        a = rows[:, busy]
        if r.shape[-1] == 1:
            sub = np.full(a.shape, float(budget))
        else:
            sub = _busy_split(a, r, budget)
        shares[:, busy] = sub
        t = np.maximum((a + _server_seconds(r, sub)).max(axis=1), t)
    if arrivals.ndim == 1:
        return shares[0], float(t[0])
    return shares, t


def _busy_split(a, r, budget):
    """Equal-delay shares of ``(P, n)`` busy arrivals ``a`` (n >= 2) with
    residuals ``r``, one ``(n,)`` row for all or one per row, rescaled to
    spend ``budget`` exactly in every row. One row bisects on Python floats,
    a stack with :func:`_bisect_rows`."""
    # contiguous, so a stacked row sums in the order of its single-row call
    gap = np.ascontiguousarray(a.max(axis=1)[:, None] - a)
    if len(a) == 1:
        if r.ndim == 2:
            r = r[0]
        hi = float(r.sum()) / float(budget)  # the shares sum to at most the budget here
        if math.isinf(hi):  # the limit y -> inf: shares in proportion to the work
            sub = (r / r.max())[None]
        else:
            gap0 = gap[0]
            lo0, hi0 = _bisect(lambda y: float((r / (y + gap0)).sum()) <= budget,
                               0.0, hi, _SPLIT_REL_TOL)
            y = 0.5 * (lo0 + hi0)
            if not y > 0.0:
                raise Infeasible("the latest busy device's server time underflows to 0")
            sub = r / (y + gap)
    else:
        with np.errstate(over="ignore"):
            hi = np.full(len(a), r.sum(axis=-1) / budget)
        y = _bisect_rows(r, gap, budget, hi)  # a row with hi = inf stays at inf
        if not (y > 0.0).all():
            raise Infeasible("the latest busy device's server time underflows to 0")
        sub = r / (y[:, None] + gap)
        over = np.isinf(y)
        if over.any():  # the limit y -> inf, per row: shares in proportion to the work
            r_over = np.broadcast_to(r, a.shape)[over]
            sub[over] = r_over / r_over.max(axis=1, keepdims=True)
    sub *= (budget / sub.sum(axis=1))[:, None]  # land exactly on the budget
    return sub


@np.errstate(divide="ignore")  # a stopped row at y = 0 may divide by a zero gap
def _bisect_rows(r, gap, budget, hi):
    """Server seconds y of every row of a stack: ``_bisect``'s narrowing of
    ``(0, hi]`` on the budget equation, one numpy pass per step; ``r`` is
    one row for all or one per row. A row that meets ``_bisect``'s stop
    rule no longer moves, so it stays stopped and ends where the single-row
    search would; a row with ``hi`` = 0 or inf stops at once, there."""
    lo = np.zeros_like(hi)
    while True:
        mid = 0.5 * (lo + hi)
        live = (hi - lo > _SPLIT_REL_TOL * hi) & (mid > lo) & (mid < hi)
        if not live.any():
            return mid
        up = live & (np.add.reduce(r / (mid[:, None] + gap), axis=1) <= budget)
        np.copyto(hi, mid, where=up)
        np.copyto(lo, mid, where=live ^ up)


# ---------------------------------------------------------------------------
# rate inversion

#: Least in-band SNR u = snr/B at the answer above which
#: :func:`bandwidth_for_rate` decides its probes by comparison with the Newton
#: estimate. ``1.0 + snr/B`` rounds by up to eps/2, so the computed rate
#: carries a relative error near 1.1e-16/u, while a relative step of
#: ``_WINDOW_REL`` in B moves the rate by D(u)/log1p(u) times that, about
#: u/2 * 1e-10 for small u (D(u) = log1p(u) - u/(1+u) ~ u**2/2). At u = 1e-2
#: the step outweighs the rounding about 45 times, so the computed rate is
#: monotone across the window; at u = 1e-3 it no longer is.
_WINDOW_MIN_SNR = 1e-2
#: Half-width of that window, relative to the estimate: far above the
#: estimate's own error, near eps/(1 - rho) < 1e-13 above ``_WINDOW_MIN_SNR``.
_WINDOW_REL = 1e-10


def bandwidth_for_rate(snr_hz: float, required_rate: float,
                       rel_tol: float = _BISECT_REL_TOL) -> float:
    """Minimal bandwidth whose achievable rate at SNR ``snr_hz`` meets
    ``required_rate``; ``inf`` when the rate is out of reach.

    The answer is the top of a geometric bracket growth from the rate
    followed by a bisection to ``rel_tol``, each probe asking whether
    ``shannon_rate`` (on Python floats) meets the rate. The rate is strictly
    increasing in bandwidth with supremum ``snr_hz / ln 2``, and a rate
    within 1e-12 of that limit counts as unreachable, as in
    :func:`_required_bandwidth_u`.

    Most probes are decided without evaluating the rate. The Newton kernel
    :func:`_inband_snr` gives the in-band SNR u at the exact answer, so
    est = snr/u. The growth and the bisection run their usual sequence, but
    a point at or above est*(1 + ``_WINDOW_REL``) meets the rate and one at
    or below est*(1 - ``_WINDOW_REL``) misses it by comparison; only points
    inside that window probe ``shannon_rate``. The answer stays bit for bit
    the probed one because, for u above ``_WINDOW_MIN_SNR``, the computed
    rate's rounding is far below its change across the window, so each
    comparison gives the probe's own verdict. The window is taken only there,
    with a settled Newton solve and a normal window well below the float
    maximum (the growth must not double into ``inf``); elsewhere every point
    is probed.

    The answer is the top of the bracket, not the exact inverse's, on
    purpose: the gap-elimination heuristic's plans depend on its donor
    landing a hair early (see :func:`~splitplan.serial.reallocate_once`),
    and in the simultaneous-arrival search the exact inverse moves plans by
    up to 2.8e-9 relative.
    """
    if required_rate < 0:
        raise ValidationError("required rate must be >= 0")
    if required_rate == 0.0:
        return 0.0
    snr = float(snr_hz)
    rate = float(required_rate)
    if rate >= snr / LN2 * (1.0 - 1e-12):
        return math.inf

    def meets(bandwidth):
        return shannon_rate(snr, bandwidth) >= rate

    window = _NO_WINDOW
    u = _inband_snr(rate * LN2 / snr)
    if u is not None and u > _WINDOW_MIN_SNR:
        est = snr / u
        below, above = est * (1.0 - _WINDOW_REL), est * (1.0 + _WINDOW_REL)
        if below >= sys.float_info.min and above < 0.25 * sys.float_info.max:
            window = (below, above)
    # R(B) >= B exactly when in-band SNR >= 1
    hi = _grow(meets, rate, 2.0, 200, "bracket growth failed in bandwidth_for_rate", window)
    return _bisect(meets, 0.0, hi, rel_tol, window)[1]


def _inband_snr(rho):
    """The root u > 0 of log1p(u) = rho*u, for 0 < rho < 1, or ``None`` when
    the Newton steps do not settle (a NaN, underflowed or overflowing start).

    h(u) = log1p(u) - rho*u is concave, so Newton steps from a start above
    the root fall onto it monotonically. The start is 1/rho**2 - 1 for
    rho > 1/4 (above the root since log1p(u) <= u/sqrt(1+u)) and
    2*ln(1/rho)/rho below. The relative error stays near eps/(1 - rho).

    It is not a name the benchmark traces, so its solves inside
    :func:`bandwidth_for_rate` do not count as ``_required_bandwidth_u``
    calls: the zero count of those on serial-mixed-k32
    (``perfbench/test_perfbench.py``) shows that the serial policies call
    only :func:`bandwidth_for_rate`.
    """
    if rho > 0.25:
        u = 1.0 / (rho * rho) - 1.0
    else:  # a NaN (or an underflowed rho) runs into the step cap below
        u = -2.0 * math.log(rho) / rho if rho > 0.0 else math.nan
    for _ in range(60):
        step = (math.log1p(u) - rho * u) / (1.0 / (1.0 + u) - rho)
        u -= step
        if step <= 4e-16 * u:  # at the root, or rounding turned the step back
            return u
    return None


def _required_bandwidth_u(snr_hz: float, rate: float):
    """Rate inverse; returns (bandwidth, in-band SNR).

    Solves B*log2(1 + snr/B) = rate as log1p(u) = rho*u with u = snr/B and
    rho = rate*ln2/snr, by the Newton kernel :func:`_inband_snr` that
    :func:`bandwidth_for_rate` shares. Infinite bandwidth signals an
    unreachable rate (rho within 1e-12 of 1); a solve that does not settle
    raises :class:`NonConvergence`.
    """
    if rate <= 0.0:
        return 0.0, math.inf
    rho = rate * LN2 / snr_hz
    if rho >= 1.0 - 1e-12:
        return math.inf, 0.0
    u = _inband_snr(rho)
    if u is None:
        raise NonConvergence(f"rate inverse did not settle for rho = {rho!r}")
    return snr_hz / u, u


def _add_upload_slope(slope, bits, seconds, u):
    """``slope`` plus dB/ds = -LN2*bits / (seconds**2 * D), the derivative of
    the least bandwidth B that uploads ``bits`` in ``seconds``, where
    D = log1p(u) - u/(1+u) at the in-band SNR u = snr/B of that bandwidth;
    ``None`` when D rounds to zero. B is convex and increasing in the rate
    bits/seconds, which is convex and decreasing in seconds, so B is convex
    and decreasing in seconds."""
    d = math.log1p(u) - u / (1.0 + u)
    if not d > 0.0:
        return None
    return slope - LN2 * bits / (seconds * seconds * d)


# ---------------------------------------------------------------------------
# arrival times and per-cut views of a network

def _arrival_seconds(local_s, bits, rate):
    """Local seconds plus upload seconds ``bits / rate``, elementwise under
    numpy broadcasting; ``inf`` where the rate is zero or so small that the
    upload time overflows. ``delay.arrival_delay`` is the reference form."""
    with np.errstate(divide="ignore", over="ignore"):
        return local_s + bits / rate


def _upload_rates(snr, bandwidth) -> np.ndarray:
    """Each device's ``shannon_rate`` over its bandwidth, taken on Python floats."""
    return np.array([shannon_rate(s, float(b)) for s, b in zip(snr.tolist(), bandwidth)])


def _server_seconds(resid, shares):
    """Server seconds ``resid / share``, elementwise under numpy broadcasting:
    ``inf`` at a zero share, 0 without residual work (idle or padded cuts)."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return np.where(resid > 0, resid / shares, 0.0)


class CutTable:
    """Local seconds, payload bits and residual FLOPs of every device at every
    cut, as ``(k, C)`` arrays with C the largest cut count in the fleet.

    A device with fewer cuts is padded with ``inf`` local seconds and bits and
    zero residual, so a padded cut arrives at ``inf`` and never wins an
    argmin; the oracles enumerate each device's own cut range, so they never
    read the padding. Every cut uploads, so a link whose rate over the whole
    spectrum is not positive (a zero or NaN SNR, or one that rounds away
    against the bandwidth) raises :class:`ZeroRate`.

    The policies and oracles take their table from :meth:`of`, so one network
    builds one table; its arrays are read-only, so no caller can change them
    under another.
    """

    _last = None  # the table :meth:`of` built last

    @classmethod
    def of(cls, net: NetworkInstance) -> CutTable:
        """The table of ``net``: the one built by the last call when that was
        for this very network object (networks are immutable), else a new one."""
        if cls._last is None or cls._last.net is not net:
            cls._last = cls(net)
        return cls._last

    def __init__(self, net: NetworkInstance):
        self.net = net
        k = net.num_devices
        width = max(dev.profile.num_cuts for dev in net.devices) + 1
        self.local_s = np.full((k, width), math.inf)
        self.bits = np.full((k, width), math.inf)
        self.resid = np.zeros((k, width))
        flops = np.array([dev.compute_flops for dev in net.devices], dtype=float)
        # the devices of each distinct profile object: each profile converts
        # once and fills its rows in one division, so a build grows little with k
        rows = {}
        for i, dev in enumerate(net.devices):
            rows.setdefault(id(dev.profile), (dev.profile, []))[1].append(i)
        for prof, idx in rows.values():
            cum = np.asarray(prof.cum_workload, dtype=float)
            idx = np.array(idx)
            at = (idx, slice(0, cum.size))
            self.local_s[at] = cum / flops[idx, None]
            # payload_bits of every cut: integer sums first, as payload_bits adds
            self.bits[at] = np.add(prof.transmit_bits, prof.index_bits).astype(float)
            self.resid[at] = prof.total_workload - cum
        self.snr = np.array([dev.link.snr_hz() for dev in net.devices])
        for i, snr in enumerate(self.snr.tolist()):
            if not shannon_rate(snr, net.total_bandwidth_hz) > 0:  # NaN included
                raise ZeroRate(f"device {i} gets no upload rate from a link with SNR {snr}")
        self._rows = np.arange(k)
        for array in (self.local_s, self.bits, self.resid, self.snr, self._rows):
            array.flags.writeable = False

    @property
    def num_devices(self) -> int:
        return self.net.num_devices

    def view(self, cuts):
        at = (self._rows, np.asarray(cuts))
        return _CutView(local_s=self.local_s[at], bits=self.bits[at], resid=self.resid[at],
                        snr=self.snr)

    def min_data_cuts(self) -> tuple[int, ...]:
        """Per device, the first cut with the smallest transmit payload."""
        return tuple(self.bits.argmin(axis=1).tolist())

    def all_arrivals(self, bandwidth) -> np.ndarray:
        """``(k, C)`` arrival seconds of every device at every cut, device i
        uploading over ``bandwidth[i]``; ``inf`` on the padding."""
        rates = _upload_rates(self.snr, bandwidth)
        return _arrival_seconds(self.local_s, self.bits, rates[:, None])


@dataclass
class _CutView:
    local_s: np.ndarray
    bits: np.ndarray
    resid: np.ndarray
    snr: np.ndarray

    def arrivals(self, bandwidth) -> np.ndarray:
        """Local seconds plus upload seconds; ``inf`` at a zero rate."""
        return _arrival_seconds(self.local_s, self.bits, _upload_rates(self.snr, bandwidth))


# ---------------------------------------------------------------------------
# convex resource subproblem (fixed cuts): one damped Newton solve of its KKT
# system in the busy shares, the log compute price and the target delay

def _marginal(snr, bits, resid, slack, f):
    """-d(bandwidth)/d(compute share) at share ``f`` for one device. Only the
    tests call it, for the KKT certificate of :func:`resource_subproblem`."""
    s = slack - resid / f
    if s <= 0.0:
        return math.inf
    rate = bits / s
    bw, u = _required_bandwidth_u(snr, rate)
    if not math.isfinite(bw):
        return math.inf
    dissip = math.log1p(u) - u / (1.0 + u)
    return LN2 * bits * resid / ((s * f) ** 2 * dissip)


def _root_decreasing(fn, lo, hi, target):
    """Root of a decreasing ``fn`` on (lo, hi] with fn(lo+) >= target >= fn(hi):
    the midpoint of :func:`_bisect`'s bracket, narrowed to relative width
    ``_BISECT_REL_TOL``. The left endpoint value may be infinite.

    Its only caller is :func:`_share_for_price`, which only the tests use. It
    stays here because the benchmark's tracing table ``perfbench.tracing.SPANNED``
    names it, and ``Tracer.install`` fails on a name the module lacks.
    """
    lo, hi = _bisect(lambda x: fn(x) <= target, lo, hi, _BISECT_REL_TOL)
    return 0.5 * (lo + hi)


def _share_for_price(snr, bits, resid, slack, f_lo, f_hi, mu):
    """Compute share at which the bandwidth marginal equals ``mu``.

    The stationarity condition rearranges to a fixed point
    f = (resid + sqrt(LN2*bits*resid / (mu * D(u)))) / slack where only the
    spectral-efficiency factor D depends (weakly) on f, so the iteration
    contracts in a few steps. Falls back to bracketed root-finding if not.

    Only the tests call it, as a per-device reference for
    :func:`resource_subproblem`: each busy share of its plans is the share
    for their common marginal. It stays here because the benchmark's tracing
    table ``perfbench.tracing.COUNTED`` names it, and ``Tracer.install``
    fails on a name the module lacks.
    """
    amp = LN2 * bits * resid
    lo = f_lo * (1.0 + 1e-13) + 1e-300
    f = min(2.0 * lo, 0.5 * (lo + f_hi))
    for _ in range(40):
        s = slack - resid / f
        bw, u = _required_bandwidth_u(snr, bits / s)
        if not math.isfinite(bw):
            f = 0.5 * (f + f_hi)  # transiently beyond capacity: push the share up
            continue
        d = math.log1p(u) - u / (1.0 + u)
        nf = (resid + math.sqrt(amp / (mu * d))) / slack
        nf = min(max(nf, lo), f_hi)
        if abs(nf - f) <= 1e-11 * f:
            return nf
        f = nf
    return _root_decreasing(lambda x: _marginal(snr, bits, resid, slack, x), lo, f_hi, mu)


def _bandwidth_floor(view, slack, shares):
    """Per device at deadline ``slack`` and compute share: the least bandwidth
    B that uploads its payload in s = slack - r/f seconds (the whole slack
    without residual work), its price q = -dB/ds, which is minus the
    :func:`_add_upload_slope` term, and d ln q/ds = -(D'/D + 2/s) with
    D' = dD/ds = u**3 * q / ((1+u)**2 * snr) at the in-band SNR u. Three
    lists, or ``None`` outside the domain: a busy share or an upload time
    that is not positive, or a rate beyond the link (u = 0, where D = 0)."""
    bandwidth, price, curve = [], [], []
    for snr, b, r, s, f in zip(view.snr.tolist(), view.bits.tolist(),
                               view.resid.tolist(), slack, shares):
        if r > 0:
            if not f > 0.0:
                return None
            s -= r / f
        if not s > 0.0:
            return None
        need, u = _required_bandwidth_u(snr, b / s)
        slope = _add_upload_slope(0.0, b, s, u)
        if slope is None:
            return None
        w = u / (1.0 + u)
        bandwidth.append(need)
        price.append(-slope)
        curve.append(-(u * w * w * slope * slope * s * s / (snr * LN2 * b) + 2.0 / s))
    return bandwidth, price, curve


def resource_subproblem(view, bandwidth_budget, compute_budget):
    """Min-max delay over joint (bandwidth, compute) splits for fixed cuts.
    Returns ``(objective, bandwidth, shares)`` with both budgets spent exactly.

    The least target T that both budgets meet solves the KKT system (Boyd &
    Vandenberghe, Convex Optimization, 5.5.3) in the busy shares f, the log
    compute price nu and T: E_i = ln(q_i * r_i / f_i**2) - nu = 0 on every
    busy device, sum(f) = F and sum(B) = W, with B, q and g = d ln q/ds from
    :func:`_bandwidth_floor` at the deadlines T - l_i. The Jacobian is
    diagonal in f, dE_i/df_i = a_i = g_i*r_i/f_i**2 - 2/f_i < 0, bordered by
    the nu and T columns and the budget rows, so a Newton step eliminates df
    and solves a 2x2 Schur complement in (dnu, dT) (ibid., App. C.4). A step
    is halved until the point lies in the domain and the scaled residual norm
    sum(E**2) + ((sum(f) - F)/F)**2 + ((sum(B) - W)/W)**2 falls (the
    infeasible-start Newton method, ibid., 10.3); the solve stops once a step
    moves T and every share by at most 1e-13 relative.

    It starts at the equal bandwidth W/k, shares in proportion to the work,
    T = max(arrival) + sum(r)/F (so each upload may take at least its
    equal-bandwidth time, inside the domain when those arrivals are finite)
    and nu at the mean of the logs. A floor max(l_i + r_i/F) that is not
    finite raises :class:`Infeasible`; a start outside the domain or 100
    rounds without settling raise :class:`NonConvergence`.
    """
    W, F = float(bandwidth_budget), float(compute_budget)
    t_floor = float(np.max(view.local_s + _server_seconds(view.resid, F)))
    if not math.isfinite(t_floor):
        raise Infeasible(f"no finite target delay: its floor is {t_floor} s")
    local, resid = view.local_s.tolist(), view.resid.tolist()
    busy = [i for i, r in enumerate(resid) if r > 0]
    work = sum(resid)
    equal = view.arrivals(np.full(len(resid), W / len(resid)))
    # the unknowns x = f + [nu, T]; nu is set once the start's logs are known
    x = [F * r / work if r > 0 else 0.0 for r in resid] + [0.0, float(np.max(equal)) + work / F]

    def gaps(x, at):
        """``(at, E, norm)`` at ``x = f + [nu, T]``, whose floor is ``at``."""
        e = {i: math.log(at[1][i]) + math.log(resid[i]) - 2.0 * math.log(x[i]) - x[-2]
             for i in busy}
        share = (sum(x[:-2]) - F) / F if busy else 0.0
        return at, e, sum(v * v for v in e.values()) + share ** 2 + ((sum(at[0]) - W) / W) ** 2

    def evaluate(x):
        at = _bandwidth_floor(view, [x[-1] - l for l in local], x[:-2])
        return None if at is None else gaps(x, at)

    point = evaluate(x)
    if point is None:
        raise NonConvergence("convex step: the equal-bandwidth start is outside the domain")
    if busy:
        x[-2] = sum(point[1].values()) / len(busy)
        point = gaps(x, point[0])
    for _ in range(100):
        (bw, q, g), e, norm = point
        a = {i: g[i] * resid[i] / x[i] ** 2 - 2.0 / x[i] for i in busy}
        h = {i: -q[i] * resid[i] / x[i] ** 2 for i in busy}  # d sum(B) / df_i
        # df_i = (dnu - g_i*dT - E_i)/a_i into the rows sum(df) = F - sum(f)
        # and sum(h*df) - sum(q)*dT = W - sum(B): a 2x2 system in (dnu, dT)
        sa = sum(1.0 / a[i] for i in busy)
        sg = sum(g[i] / a[i] for i in busy)
        sh = sum(h[i] / a[i] for i in busy)
        c_t = -sum(q) - sum(h[i] * g[i] / a[i] for i in busy)
        share = sum(e[i] / a[i] for i in busy) - (sum(x[:-2]) - F)
        spectrum = sum(h[i] * e[i] / a[i] for i in busy) - (sum(bw) - W)
        det = sa * c_t + sg * sh
        d_nu = (share * c_t + sg * spectrum) / det if busy else 0.0
        d_t = (sa * spectrum - sh * share) / det if busy else spectrum / c_t
        d = [(d_nu - g[i] * d_t - e[i]) / a[i] if i in a else 0.0
             for i in range(len(resid))] + [d_nu, d_t]
        move = max(abs(d[i]) / x[i] for i in busy + [-1])
        if not move < math.inf:
            raise NonConvergence("convex step: a Newton step is not finite")
        step = 1.0
        while True:
            done = step * move <= 1e-13
            trial = [xi + step * di for xi, di in zip(x, d)]
            got = evaluate(trial)
            if got is not None and (done or got[2] < norm):
                x, point = trial, got
                break
            if done:  # a step at rounding level that fails: keep the point
                break
            step *= 0.5
        if done:
            break
    else:
        raise NonConvergence("convex step: Newton rounds did not settle in 100")
    bw = np.array(point[0][0])
    bw *= W / bw.sum()
    f = np.array(x[:-2])
    if busy:
        f *= F / f.sum()
    _, totals = _plan_delays(view, bw, f)
    return float(np.max(totals)), bw, f


def _plan_delays(view, bandwidth, shares):
    """(arrivals, totals) for an explicit allocation on one cut view."""
    arrivals = view.arrivals(bandwidth)
    return arrivals, arrivals + _server_seconds(view.resid, shares)


# ---------------------------------------------------------------------------
# policies

def _reselect_parallel(table: CutTable, bandwidth, shares) -> tuple[int, ...]:
    """Per-device cut minimizing its own delay at frozen resources."""
    delays = table.all_arrivals(bandwidth) + _server_seconds(
        table.resid, np.asarray(shares)[:, None])
    return tuple(delays.argmin(axis=1).tolist())


def _parallel_plan(policy, table, cuts, bandwidth, shares, history):
    view = table.view(cuts)
    arrivals, totals = _plan_delays(
        view, np.asarray(bandwidth, float), np.asarray(shares, float))
    return AllocationPlan(
        policy=policy,
        mode="parallel",
        cuts=tuple(int(c) for c in cuts),
        bandwidth_hz=tuple(float(b) for b in bandwidth),
        server_flops=tuple(float(f) for f in shares),
        arrivals=tuple(float(v) for v in arrivals),
        residuals=tuple(float(r) for r in view.resid),
        delays=tuple(float(d) for d in totals),
        objective=float(np.max(totals)),
        objective_history=tuple(history),
    )


def _alternate(cuts, evaluate, reselect, max_iter):
    """Alternate a resource step with cut re-selection, starting from ``cuts``.

    ``evaluate(cuts)`` returns ``(objective, allocation)`` and
    ``reselect(cuts, allocation)`` the next cut vector. Stops on a fixed cut
    vector, on a stall (the objective moved by at most ``_STALL_REL_TOL``
    relative) or after ``max_iter`` rounds. Returns ``(best, history)``:
    ``best`` is the ``(objective, cuts, allocation)`` of the first round with
    the lowest objective, ``history`` the best objective after each round.
    """
    best = None
    history = []
    prev = math.inf
    for _ in range(max_iter):
        obj, alloc = evaluate(cuts)
        if best is None or obj < best[0]:
            best = (obj, cuts, alloc)
        history.append(best[0])
        new_cuts = reselect(cuts, alloc)
        if new_cuts == cuts or abs(prev - obj) <= _STALL_REL_TOL * obj:
            break
        prev = obj
        cuts = new_cuts
    return best, history


def solve_p2(net: NetworkInstance, settings: SolverSettings | None = None) -> AllocationPlan:
    """Fixed equal bandwidth, optimal over cuts and server shares together.

    Compute is the only shared budget, so a target delay t is feasible when
    the devices' least shares fit it: device i at cut c meets t with
    ``r_ic / (t - a_ic)``, a cut without residual work needs 0 once it has
    arrived, and a cut that has not arrived cannot meet t. Every share
    decreases in t, so :func:`_least_target` on the sum of the per-device
    minima over the ``(k, C)`` arrival matrix gives the optimum cuts, and the
    equal-delay split at those cuts gives the shares and T exactly.

    The search stops once the cuts are settled: when each device's least-share
    cut at the largest refused t is the one at the smallest feasible t, and
    every device has a finite least share at the refused t (every probe lies
    above each device's earliest arrival, so only an overflowing share can
    fail that). Above both of their arrivals two cuts' share curves
    r/(t - a) cross at most once, so no device can change its cut inside
    that bracket. ``settings`` is accepted for a uniform policy signature;
    no cap applies.
    """
    return _solve_p2(CutTable.of(net))


def _solve_p2(table: CutTable) -> AllocationPlan:
    net = table.net
    k = table.num_devices
    bw = np.full(k, net.total_bandwidth_hz / k)
    arrivals = table.all_arrivals(bw)

    def least_shares(t):
        slack = t - arrivals  # r / slack is a share, as r / share is seconds
        need = np.where(slack >= 0.0, _server_seconds(table.resid, slack), math.inf)
        return float(need.min(axis=1).sum()), need, None

    def settled(refused, need):
        return (np.isfinite(refused.min(axis=1)).all()
                and (refused.argmin(axis=1) == need.argmin(axis=1)).all())

    _, need = _least_target(least_shares, net.server_flops,
                            float(arrivals.min(axis=1).max()), settled=settled)
    cuts = need.argmin(axis=1)
    view = table.view(cuts)
    shares, obj = equal_delay_split(view.arrivals(bw), view.resid, net.server_flops)
    return _parallel_plan("p2", table, cuts, bw, shares, [obj])


def solve_p1(net: NetworkInstance, settings: SolverSettings | None = None) -> AllocationPlan:
    """Joint cut + bandwidth + compute optimization by alternation.

    The alternation can stall in a local optimum, so the fixed-bandwidth
    solution's cuts are also priced through the convex step and the better
    plan wins. The all-raw cuts (the ``first-layer`` policy) are not priced:
    that extra convex step per call never won.
    """
    settings = settings or SolverSettings()
    table = CutTable.of(net)
    p2 = _solve_p2(table)
    memo = {}

    def price(cuts):
        """Convex resource step for one cut vector (memoized). A cut vector
        without a finite target delay prices at inf, with no allocation."""
        if cuts not in memo:
            try:
                obj, bw, f = resource_subproblem(
                    table.view(cuts), net.total_bandwidth_hz, net.server_flops)
                memo[cuts] = (obj, (bw, f))
            except Infeasible:
                memo[cuts] = (math.inf, None)
        return memo[cuts]

    best, history = _alternate(
        table.min_data_cuts(), price,
        lambda cuts, alloc: cuts if alloc is None else _reselect_parallel(table, *alloc),
        settings.max_alternations)
    obj, alloc = price(p2.cuts)
    if obj < best[0]:
        best = (obj, p2.cuts, alloc)
    obj, cuts, (bw, f) = best
    history = [min(h, obj) for h in history]
    return _parallel_plan("p1", table, cuts, bw, f, history)


def _fixed_cut_policy(name, table, cuts):
    net = table.net
    obj, bw, f = resource_subproblem(
        table.view(cuts), net.total_bandwidth_hz, net.server_flops)
    return _parallel_plan(name, table, cuts, bw, f, [obj])


def min_data_layer_policy(net: NetworkInstance,
                          settings: SolverSettings | None = None) -> AllocationPlan:
    """Cut at the first minimum-payload stage, then one convex resource step."""
    table = CutTable.of(net)
    return _fixed_cut_policy("min-data", table, table.min_data_cuts())


def first_layer_policy(net: NetworkInstance,
                       settings: SolverSettings | None = None) -> AllocationPlan:
    """Transmit raw inputs (no local processing), then one convex resource step."""
    return _fixed_cut_policy("first-layer", CutTable.of(net), tuple(0 for _ in net.devices))

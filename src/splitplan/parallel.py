"""Parallel-processing allocation policies.

Covers the joint problem (cut selection + bandwidth + server-compute split,
alternating between an epigraph-bisection convex step and per-device cut
re-selection), the fixed-bandwidth variant whose server split has a one-root
closed form, and the min-data / raw-input baselines.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .channel import LN2, LinkParams, shannon_rate
from .delay import AllocationPlan, NetworkInstance
from .errors import Infeasible, NonConvergence, Unreachable, ValidationError, ZeroRate


#: Relative width at which the target-delay and rate bisections stop.
_BISECT_REL_TOL = 1e-9
#: An alternation stops once its objective moves by at most this, relative.
_STALL_REL_TOL = 1e-6


@dataclass(frozen=True)
class SolverSettings:
    """Shared solver knobs.

    ``max_alternations`` caps the cut/resource alternation of ``p1``, ``p2``
    and ``p3``; ``outer_iters`` is the serial heuristic's outer loop count.
    ``p3_layer_rule`` picks the serial coordinate step ("full" objective or
    arrival-only "c-only"); ``strict_breaks`` switches the serial heuristic
    to keep reallocating down to a single queue gap.
    """

    max_alternations: int = 20
    outer_iters: int = 4
    p3_layer_rule: str = "full"
    strict_breaks: bool = False

    def __post_init__(self):
        for cap in (self.max_alternations, self.outer_iters):
            if isinstance(cap, bool) or not isinstance(cap, numbers.Integral):
                raise ValidationError(f"iteration caps must be integers, got {cap!r}")
            if cap < 1:
                raise ValidationError("iteration caps must be >= 1")
        if self.p3_layer_rule not in ("full", "c-only"):
            raise ValidationError("p3_layer_rule must be 'full' or 'c-only'")
        if not isinstance(self.strict_breaks, bool):
            raise ValidationError(
                f"strict_breaks must be true or false, got {self.strict_breaks!r}")


# ---------------------------------------------------------------------------
# one-dimensional monotone searches

def _grow(ok, x, factor, max_iter, what):
    """First point of ``x, x*factor, x*factor**2, ...`` at which ``ok`` holds;
    raises :class:`NonConvergence` with message ``what`` after ``max_iter`` misses."""
    for _ in range(max_iter):
        if ok(x):
            return x
        x *= factor
    raise NonConvergence(what)


def _bisect(ok, lo, hi, rel_tol):
    """Narrow ``(lo, hi]`` around the switch of ``ok`` (false below, true above;
    ``hi`` stays the smallest probed point where it holds) to relative width
    ``rel_tol`` or float resolution, and return ``(lo, hi)``."""
    while hi - lo > rel_tol * hi:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break  # interval exhausted at float resolution
        if ok(mid):
            hi = mid
        else:
            lo = mid
    return lo, hi


# ---------------------------------------------------------------------------
# equal-delay server split (fixed bandwidth)

@dataclass(frozen=True)
class EqualDelayProblem:
    """Server-compute split that equalizes total delay across busy devices.

    Only devices with residual work participate. The split is parameterized
    by the anchor's share x: every other share follows from delay equality,
    and the budget equation sum(shares) = budget has exactly one root in
    (0, upper_bound) when the anchor is the earliest arrival.
    """

    arrivals: np.ndarray
    residuals: np.ndarray
    budget: float
    anchor: int = -1  # -1: pick argmin arrival (the only safe choice)

    def __post_init__(self):
        object.__setattr__(self, "arrivals", np.asarray(self.arrivals, dtype=float))
        object.__setattr__(self, "residuals", np.asarray(self.residuals, dtype=float))
        if self.arrivals.shape != self.residuals.shape:
            raise ValidationError("arrivals and residuals must have equal length")
        if self.size and np.any(self.residuals <= 0):
            raise ValidationError("every participating device needs positive residual work")
        if self.budget <= 0:
            raise ValidationError("server budget must be positive")
        if self.anchor == -1 and self.size:
            object.__setattr__(self, "anchor", int(np.argmin(self.arrivals)))

    @property
    def size(self) -> int:
        return len(self.arrivals)

    @property
    def delta_c(self) -> np.ndarray:
        """Anchor arrival minus each arrival; <= 0 for the argmin anchor."""
        return self.arrivals[self.anchor] - self.arrivals

    def _followers(self):
        cached = getattr(self, "_follower_arrays", None)
        if cached is None:
            cached = (np.delete(self.residuals, self.anchor),
                      np.delete(self.delta_c, self.anchor))
            object.__setattr__(self, "_follower_arrays", cached)
        return cached

    @property
    def upper_bound(self) -> float:
        """Smallest share at which some follower's denominator vanishes.

        With the argmin anchor every candidate is positive; a deliberately
        wrong anchor produces a non-positive bound, i.e. an empty search
        interval.
        """
        _, d = self._followers()
        fm = self.residuals[self.anchor]
        nz = d[d != 0.0]
        if nz.size == 0:
            return math.inf
        return float(np.min(-fm / nz))

    def q_value(self, x):
        """Total budget consumed when the anchor share is ``x``.

        Vectorized over ``x``; past a follower pole the value is +inf.
        """
        fk, d = self._followers()
        fm = self.residuals[self.anchor]
        if np.ndim(x) == 0:
            xs = float(x)
            den = fm + xs * d
            if np.any(den <= 0.0):
                return math.inf
            return xs + float((xs * fk / den).sum())
        x = np.asarray(x, dtype=float)
        den = fm + np.multiply.outer(x, d)
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = np.multiply.outer(x, fk) / den
        return x + np.where(den > 0.0, terms, math.inf).sum(axis=-1)

    def shares_from_anchor(self, x: float) -> np.ndarray:
        fm = self.residuals[self.anchor]
        shares = self.residuals * x / (fm + x * self.delta_c)
        shares[self.anchor] = x
        return shares


def equal_delay_split(problem: EqualDelayProblem) -> np.ndarray:
    """Solve the equal-delay budget equation by bisection to relative width 1e-13.

    Returns the per-participant compute shares; they are strictly positive,
    sum to the budget, and equalize ``arrival + residual/share``. An empty
    problem returns an empty array (all delay is device-side).
    """
    if problem.size == 0:
        return np.zeros(0)
    if problem.size == 1:
        return np.array([problem.budget])
    ub = problem.upper_bound
    if not ub > 0:
        raise Infeasible("empty share interval: anchor is not the earliest arrival")
    lo, hi = _bisect(lambda x: problem.q_value(x) >= problem.budget,
                     0.0, min(ub, problem.budget), 1e-13)
    x0 = 0.5 * (lo + hi)
    shares = problem.shares_from_anchor(x0)
    if np.any(shares <= 0):
        raise Infeasible("negative compute share: infeasible root")
    shares *= problem.budget / shares.sum()  # land exactly on the budget
    return shares


def equal_delay_allocation(arrivals, residuals, budget):
    """Full-network wrapper around :func:`equal_delay_split`.

    Devices with zero residual get a zero share. Returns ``(shares, T)``
    where ``T`` is the resulting max delay (equalized delay of the busy
    devices, or the largest arrival when nobody needs the server).
    """
    arrivals = np.asarray(arrivals, dtype=float)
    residuals = np.asarray(residuals, dtype=float)
    if not np.isfinite(arrivals).all():
        i = int(np.argmin(np.isfinite(arrivals)))
        raise ZeroRate(f"device {i} arrives at {arrivals[i]}: its upload rate is zero")
    busy = residuals > 0
    shares = np.zeros(len(arrivals))
    t_busy = -math.inf
    if busy.any():
        prob = EqualDelayProblem(arrivals[busy], residuals[busy], budget)
        sub = equal_delay_split(prob)
        shares[busy] = sub
        t_busy = float(np.max(arrivals[busy] + residuals[busy] / sub))
    idle = ~busy
    t_idle = float(np.max(arrivals[idle])) if idle.any() else -math.inf
    return shares, max(t_busy, t_idle)


# ---------------------------------------------------------------------------
# rate inversion

def bandwidth_for_rate(link: LinkParams, required_rate: float,
                       rel_tol: float = _BISECT_REL_TOL) -> float:
    """Minimal bandwidth whose achievable rate meets ``required_rate``.

    Geometric bracket growth followed by bisection; the rate is strictly
    increasing in bandwidth with supremum ``link.rate_limit()``. The probes
    evaluate ``shannon_rate`` at the link's SNR, computed once, in Python
    floats: numpy-scalar arithmetic costs several times more per probe and
    gives the same values.
    """
    if required_rate < 0:
        raise ValidationError("required rate must be >= 0")
    if required_rate == 0.0:
        return 0.0
    snr = float(link.snr_hz())
    limit = snr / LN2
    if required_rate >= limit * (1.0 - 1e-12):
        raise Unreachable(
            f"rate {required_rate:.6g} b/s exceeds the wide-band limit {limit:.6g} b/s")
    rate = float(required_rate)

    def meets(bandwidth):
        return shannon_rate(snr, bandwidth) >= rate

    # R(B) >= B exactly when in-band SNR >= 1
    hi = _grow(meets, rate, 2.0, 200, "bracket growth failed in bandwidth_for_rate")
    return _bisect(meets, 0.0, hi, rel_tol)[1]


def _required_bandwidth_u(snr_hz: float, rate: float):
    """Rate inverse; returns (bandwidth, in-band SNR).

    Solves B*log2(1 + snr/B) = rate as log1p(u) = rho*u with u = snr/B and
    rho = rate*ln2/snr. h(u) = log1p(u) - rho*u is concave, so Newton steps
    from a start above the root fall onto it monotonically. The start is
    1/rho**2 - 1 for rho > 1/4 (above the root since log1p(u) <=
    u/sqrt(1+u)) and 2*ln(1/rho)/rho below. The relative error stays near
    eps/(1 - rho). Infinite bandwidth signals an unreachable rate.
    """
    if rate <= 0.0:
        return 0.0, math.inf
    rho = rate * LN2 / snr_hz
    if rho >= 1.0 - 1e-12:
        return math.inf, 0.0
    if rho > 0.25:
        u = 1.0 / (rho * rho) - 1.0
    else:  # a NaN (or an underflowed rho) runs into the step cap below
        u = -2.0 * math.log(rho) / rho if rho > 0.0 else math.nan
    for _ in range(60):
        step = (math.log1p(u) - rho * u) / (1.0 / (1.0 + u) - rho)
        u -= step
        if step <= 4e-16 * u:  # at the root, or rounding turned the step back
            return snr_hz / u, u
    raise NonConvergence(f"rate inverse did not settle for rho = {rho!r}")


# ---------------------------------------------------------------------------
# per-cut views of a network

class CutTable:
    """Per-device per-cut arrays: local seconds, payload bits, residual FLOPs.

    Every cut uploads, so a link without SNR raises :class:`ZeroRate`.
    """

    def __init__(self, net: NetworkInstance):
        self.net = net
        self.local_s = []
        self.bits = []
        self.resid = []
        for dev in net.devices:
            prof = dev.profile
            cum = np.asarray(prof.cum_workload, dtype=float)
            self.local_s.append(cum / dev.compute_flops)
            # payload_bits of every cut: integer sums first, as payload_bits adds
            self.bits.append(np.add(prof.transmit_bits, prof.index_bits).astype(float))
            self.resid.append(prof.total_workload - cum)
        self.snr = np.array([dev.link.snr_hz() for dev in net.devices])
        mute = np.flatnonzero(~(self.snr > 0))  # NaN included
        if mute.size:
            i = int(mute[0])
            raise ZeroRate(f"device {i} must upload over a link with SNR {float(self.snr[i])}")
        self.rate_limit = self.snr / LN2

    @property
    def num_devices(self) -> int:
        return self.net.num_devices

    def view(self, cuts):
        k = range(self.num_devices)
        return _CutView(
            local_s=np.array([self.local_s[i][cuts[i]] for i in k]),
            bits=np.array([self.bits[i][cuts[i]] for i in k]),
            resid=np.array([self.resid[i][cuts[i]] for i in k]),
            snr=self.snr,
            rate_limit=self.rate_limit,
        )

    def min_data_cuts(self) -> tuple[int, ...]:
        """Per device, the first cut with the smallest transmit payload."""
        return tuple(int(np.argmin(b)) for b in self.bits)

    def transmit_s(self, i: int, bandwidth_hz: float) -> np.ndarray:
        """Upload seconds of device ``i`` at every cut over ``bandwidth_hz``."""
        rate = shannon_rate(float(self.snr[i]), float(bandwidth_hz))
        if rate == 0.0:
            return np.full(len(self.bits[i]), math.inf)
        with np.errstate(over="ignore"):  # a subnormal rate: inf is the answer
            return self.bits[i] / rate


@dataclass
class _CutView:
    local_s: np.ndarray
    bits: np.ndarray
    resid: np.ndarray
    snr: np.ndarray
    rate_limit: np.ndarray

    def arrivals(self, bandwidth) -> np.ndarray:
        """Local seconds plus upload seconds; ``inf`` at a zero rate."""
        out = self.local_s.copy()
        for i, bits in enumerate(self.bits.tolist()):
            r = shannon_rate(float(self.snr[i]), float(bandwidth[i]))
            out[i] += bits / r if r > 0 else math.inf
        return out


# ---------------------------------------------------------------------------
# convex resource subproblem (fixed cuts): epigraph bisection over the target
# delay, with a water-filling multiplier equalizing the bandwidth/compute
# marginals

def _marginal(snr, bits, resid, slack, f):
    """-d(bandwidth)/d(compute share) at share ``f`` for one device."""
    s = slack - resid / f
    if s <= 0.0:
        return math.inf
    rate = bits / s
    bw, u = _required_bandwidth_u(snr, rate)
    if not math.isfinite(bw):
        return math.inf
    dissip = math.log1p(u) - u / (1.0 + u)
    return LN2 * bits * resid / ((s * f) ** 2 * dissip)


def _root_decreasing(fn, lo, hi, target, warm=None):
    """Root of a decreasing ``fn`` on (lo, hi] with fn(lo+) >= target >= fn(hi).

    Illinois-damped regula falsi to relative width ``_BISECT_REL_TOL``, at
    most 90 probes; the left endpoint value may be infinite (treated as a
    pure bracket until a finite value lands there). ``warm`` seeds the first
    probe.
    """
    a, b = lo, hi
    ga = math.inf
    gb = fn(b) - target
    if gb >= 0.0:
        return b
    side = 0
    x = warm if (warm is not None and a < warm < b) else 0.5 * (a + b)
    for _ in range(90):
        g = fn(x) - target
        if g >= 0.0:
            if side == 1 and math.isfinite(gb):
                gb *= 0.5
            a, ga, side = x, g, 1
        else:
            if side == -1 and math.isfinite(ga):
                ga *= 0.5
            b, gb, side = x, g, -1
        if b - a <= _BISECT_REL_TOL * max(abs(b), 1e-300):
            break
        if math.isfinite(ga) and ga != gb:
            x = b - gb * (b - a) / (gb - ga)
            span = b - a
            x = min(max(x, a + 1e-3 * span), b - 1e-3 * span)
        else:
            x = 0.5 * (a + b)
    return 0.5 * (a + b)


def _share_for_price(snr, bits, resid, slack, f_lo, f_hi, mu, warm=None):
    """Compute share at which the bandwidth marginal equals ``mu``.

    The stationarity condition rearranges to a fixed point
    f = (resid + sqrt(LN2*bits*resid / (mu * D(u)))) / slack where only the
    spectral-efficiency factor D depends (weakly) on f, so the iteration
    contracts in a few steps. Falls back to bracketed root-finding if not.
    """
    amp = LN2 * bits * resid
    lo = f_lo * (1.0 + 1e-13) + 1e-300
    f = warm if warm is not None and lo < warm < f_hi else min(2.0 * lo, 0.5 * (lo + f_hi))
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
    return _root_decreasing(
        lambda x: _marginal(snr, bits, resid, slack, x), lo, f_hi, mu, warm=f)


def _step_inside(f, df, lo):
    """Largest of 1, 1/2, 1/4, ... at which every ``f + step*df`` stays above
    its floor ``lo``."""
    step = 1.0
    while any(fi + step * dfi <= lo_i for fi, dfi, lo_i in zip(f, df, lo)):
        step *= 0.5
    return step


def _water_fill(view, game, slack, f_lo, target, warm):
    """Shares of the ``game`` devices at one common marginal price, or ``None``.

    Stationarity gives f_i = r_i/S_i + A_i*L with L = 1/sqrt(mu) and
    A_i = sqrt(LN2*b_i*r_i / D_i) / S_i, where only the spectral-efficiency
    factor D_i depends (weakly) on f_i: KKT water-filling (Boyd &
    Vandenberghe, Convex Optimization, 5.5.3). Newton steps solve
    g_i = f_i - r_i/S_i - A_i*L = 0 together with sum(f) = target; each A_i
    depends on its own share only, so the Jacobian is diagonal bordered by
    one row and one column and the step is closed form. The first L is the
    closed form at the warm shares; a warm share at which the rate inverse
    reports an infinite bandwidth gives way to the even start. A step is
    halved until every share stays above its floor, and the rounds stop once
    no share moves by more than 1e-11 relative.

    No share is clamped at its cap f_lo + (target - sum(f_lo)): a capped
    device leaves the others no more than their floors, where the bandwidth
    is infinite. Returns ``None`` when some share's bandwidth is infinite
    (the capacity edge).
    """
    snr, bits, resid = (view.snr[game].tolist(), view.bits[game].tolist(),
                        view.resid[game].tolist())
    slack = slack[game].tolist()
    lo = [v * (1.0 + 1e-13) + 1e-300 for v in f_lo[game].tolist()]
    base = [r / s for r, s in zip(resid, slack)]
    even = (target - f_lo[game].sum()) / len(lo)
    start = [lo_i + even for lo_i in lo]
    f = [w if w is not None and w > lo_i else s0
         for w, lo_i, s0 in zip(map(warm.get, game.tolist()), lo, start)]
    level = None
    for _ in range(40):
        amp, kappa = [], []
        for j, (sn, b, r, s) in enumerate(zip(snr, bits, resid, slack)):
            fi = f[j]
            t = s - r / fi
            bw, u = _required_bandwidth_u(sn, b / t)
            if not math.isfinite(bw) and level is None and fi != start[j]:
                # a warm share just above its floor can put the rate inside
                # the inverse's guard band below the link's limit: start
                # this device from the even share instead
                fi = f[j] = start[j]
                t = s - r / fi
                bw, u = _required_bandwidth_u(sn, b / t)
            if not math.isfinite(bw):
                return None
            d = math.log1p(u) - u / (1.0 + u)
            a = math.sqrt(LN2 * b * r / d) / s
            amp.append(a)
            kappa.append(0.5 * a * LN2 * b * r * u ** 3
                         / ((1.0 + u) ** 2 * d * d * (t * fi) ** 2 * sn))
        if level is None:
            level = (target - sum(base)) / sum(amp)
        g = [fi - b - a * level for fi, b, a in zip(f, base, amp)]
        c = [1.0 + level * k for k in kappa]
        d_level = ((sum(gi / ci for gi, ci in zip(g, c)) - (sum(f) - target))
                   / sum(a / ci for a, ci in zip(amp, c)))
        df = [(a * d_level - gi) / ci for a, gi, ci in zip(amp, g, c)]
        step = _step_inside(f, df, lo)
        move = max(abs(dfi) / fi for dfi, fi in zip(df, f))
        f = [fi + step * dfi for fi, dfi in zip(f, df)]
        if move <= 1e-11:
            return f
        level += step * d_level
    raise NonConvergence("water-filling Newton steps did not settle in 40 rounds")


def _bandwidth_floor(view, budget, slack, warm):
    """Minimal total bandwidth meeting per-device deadlines ``slack``.

    Splits the compute budget so that all marginal bandwidth savings agree
    (:func:`_water_fill`), then prices the resulting per-device rates.
    Returns (total, B, f) or ``None`` when no compute split fits. ``warm``
    maps each device to its share from the previous call.
    """
    k = len(slack)
    bw = np.zeros(k)
    f = np.zeros(k)
    active = view.resid > 0

    if np.any(slack <= 0):
        return None
    # transmission can never take less than bits/limit seconds (capacity
    # ceiling), so that much of the slack is off the table for the server
    room = slack - view.bits / view.rate_limit
    if np.any(room <= 0):
        return None
    f_lo = np.zeros(k)
    f_lo[active] = view.resid[active] / room[active]
    if f_lo.sum() >= budget * (1.0 - 1e-12):
        return None

    game = np.flatnonzero(active)
    if game.size == 1:
        f[game[0]] = f_lo[game[0]] + (budget - f_lo[game[0]])
    elif game.size:
        shares = _water_fill(view, game, slack, f_lo, budget, warm)
        if shares is None:
            return None
        f[game] = shares
        warm.update(zip(game.tolist(), shares))

    for i in range(k):
        s = slack[i] - (view.resid[i] / f[i] if f[i] > 0 else 0.0)
        if s <= 0:
            return None
        b, _ = _required_bandwidth_u(float(view.snr[i]), float(view.bits[i] / s))
        if not math.isfinite(b):
            return None
        bw[i] = b
    return bw.sum(), bw, f


def resource_subproblem(view, bandwidth_budget, compute_budget, t_seed=None):
    """Min-max delay over joint (bandwidth, compute) splits for fixed cuts.

    Bisects the target delay; a target is feasible when the minimal total
    bandwidth meeting it fits the spectrum budget. Returns
    ``(objective, bandwidth, shares)`` with both budgets spent exactly.
    """
    t_floor = float(np.max(view.local_s + np.where(
        view.resid > 0, view.resid / compute_budget, 0.0)))
    warm = {}
    best = {}

    def slack_of(t):
        return t - view.local_s

    def deficit(t):
        """Spectrum left over at target ``t``; feasible iff >= 0."""
        res = _bandwidth_floor(view, compute_budget, slack_of(t), warm)
        if res is None:
            return -bandwidth_budget
        total, bw, f = res
        gap = bandwidth_budget - total
        if gap >= 0 and (not best or t < best["t"]):
            best.update(t=t, bw=bw, f=f)
        return gap

    if t_seed is None or not t_seed > t_floor:
        t_seed = 2.0 * t_floor
    t_hi = _grow(lambda t: deficit(t) >= 0, t_seed, 2.0, 200,
                 "no feasible target delay found")

    _root_decreasing(lambda t: -deficit(t), t_floor, t_hi, 0.0)
    if not best:
        raise NonConvergence("epigraph bisection retained no feasible point")
    bw, f = best["bw"].copy(), best["f"].copy()
    bw *= bandwidth_budget / bw.sum()
    busy = f > 0
    if busy.any():
        f[busy] *= compute_budget / f[busy].sum()
    _, totals = _plan_delays(view, bw, f)
    return float(np.max(totals)), bw, f


def _plan_delays(view, bandwidth, shares):
    """(arrivals, totals) for an explicit allocation on one cut view."""
    arrivals = view.arrivals(bandwidth)
    totals = arrivals.copy()
    for i, resid in enumerate(view.resid):
        if resid > 0:
            totals[i] += resid / shares[i] if shares[i] > 0 else math.inf
    return arrivals, totals


# ---------------------------------------------------------------------------
# policies

def _reselect_parallel(table: CutTable, bandwidth, shares) -> tuple[int, ...]:
    """Per-device cut minimizing its own delay at frozen resources."""
    cuts = []
    for i in range(table.num_devices):
        serve = np.where(table.resid[i] > 0,
                         table.resid[i] / shares[i] if shares[i] > 0 else math.inf, 0.0)
        j = table.local_s[i] + table.transmit_s(i, bandwidth[i]) + serve
        cuts.append(int(np.argmin(j)))
    return tuple(cuts)


def _parallel_plan(policy, table, cuts, bandwidth, shares, iterations, history):
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
        iterations=iterations,
        objective_history=tuple(history),
    )


def _alternate(cuts, evaluate, reselect, max_iter):
    """Alternate a resource step with cut re-selection, starting from ``cuts``.

    ``evaluate(cuts)`` returns ``(objective, allocation)`` and
    ``reselect(cuts, allocation)`` the next cut vector. Stops on a fixed cut
    vector, on a stall (the objective moved by at most ``_STALL_REL_TOL``
    relative) or after ``max_iter`` rounds. Returns ``(best, history,
    rounds)``: ``best`` is the ``(objective, cuts, allocation)`` of the first
    round with the lowest objective, ``history`` the best objective after
    each round.
    """
    best = None
    history = []
    prev = math.inf
    for rounds in range(1, max_iter + 1):
        obj, alloc = evaluate(cuts)
        if best is None or obj < best[0]:
            best = (obj, cuts, alloc)
        history.append(best[0])
        new_cuts = reselect(cuts, alloc)
        if new_cuts == cuts or abs(prev - obj) <= _STALL_REL_TOL * obj:
            break
        prev = obj
        cuts = new_cuts
    return best, history, rounds


def solve_p2(net: NetworkInstance, settings: SolverSettings | None = None) -> AllocationPlan:
    """Fixed equal bandwidth; alternate the closed-form server split with
    per-device cut re-selection."""
    settings = settings or SolverSettings()
    table = CutTable(net)
    k = table.num_devices
    bw = np.full(k, net.total_bandwidth_hz / k)

    def evaluate(cuts):
        view = table.view(cuts)
        shares, obj = equal_delay_allocation(
            view.arrivals(bw), view.resid, net.server_flops)
        return obj, shares

    (_, cuts, shares), history, rounds = _alternate(
        table.min_data_cuts(), evaluate,
        lambda cuts, shares: _reselect_parallel(table, bw, shares),
        settings.max_alternations)
    return _parallel_plan("p2", table, cuts, bw, shares, rounds, history)


def solve_p1(net: NetworkInstance, settings: SolverSettings | None = None) -> AllocationPlan:
    """Joint cut + bandwidth + compute optimization by alternation.

    The alternation can stall in a local optimum, so the fixed-bandwidth
    solution's cuts and the all-raw cut vector are also priced through the
    convex step and the best plan wins.
    """
    settings = settings or SolverSettings()
    table = CutTable(net)
    p2 = solve_p2(net, settings)
    memo = {}

    def price(cuts):
        """Convex resource step for one cut vector (memoized); the first one
        seeds its target-delay bracket with p2's first objective."""
        if cuts not in memo:
            seed = None if memo else p2.objective_history[0]
            obj, bw, f = resource_subproblem(
                table.view(cuts), net.total_bandwidth_hz, net.server_flops, t_seed=seed)
            memo[cuts] = (obj, (bw, f))
        return memo[cuts]

    best, history, rounds = _alternate(
        table.min_data_cuts(), price,
        lambda cuts, alloc: _reselect_parallel(table, *alloc),
        settings.max_alternations)
    for cuts in (p2.cuts, tuple(0 for _ in range(table.num_devices))):
        obj, alloc = price(cuts)
        if obj < best[0]:
            best = (obj, cuts, alloc)
    obj, cuts, (bw, f) = best
    history = [min(h, obj) for h in history]
    return _parallel_plan("p1", table, cuts, bw, f, rounds, history)


def _fixed_cut_policy(name, table, cuts):
    net = table.net
    obj, bw, f = resource_subproblem(
        table.view(cuts), net.total_bandwidth_hz, net.server_flops)
    return _parallel_plan(name, table, cuts, bw, f, 1, [obj])


def min_data_layer_policy(net: NetworkInstance,
                          settings: SolverSettings | None = None) -> AllocationPlan:
    """Cut at the first minimum-payload stage, then one convex resource step."""
    table = CutTable(net)
    return _fixed_cut_policy("min-data", table, table.min_data_cuts())


def first_layer_policy(net: NetworkInstance,
                       settings: SolverSettings | None = None) -> AllocationPlan:
    """Transmit raw inputs (no local processing), then one convex resource step."""
    return _fixed_cut_policy("first-layer", CutTable(net), tuple(0 for _ in net.devices))

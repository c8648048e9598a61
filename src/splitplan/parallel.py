"""Parallel-processing allocation policies.

Covers the joint problem (cut selection + bandwidth + server-compute split,
alternating between an epigraph-bisection convex step and per-device cut
re-selection), the fixed-bandwidth variant whose server split has a one-root
closed form, and the min-data / raw-input baselines.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import LN2, LinkParams, achievable_rate, shannon_rate
from .delay import AllocationPlan, NetworkInstance
from .errors import Infeasible, NonConvergence, Unreachable, ValidationError

_INV_E = math.exp(-1.0)


@dataclass(frozen=True)
class SolverSettings:
    """Shared solver knobs.

    ``bisect_rel_tol`` drives every scalar bisection / root-find;
    ``max_alternations`` caps the cut/resource alternation; ``stall_rel_tol``
    stops it early once the objective stops moving. ``outer_iters`` is the
    serial heuristic's outer loop count. ``cut_init`` selects the starting
    slicing ("min-data" or seeded "random"). ``p3_layer_rule`` picks the
    serial coordinate step ("full" objective or arrival-only "c-only");
    ``strict_breaks`` switches the serial heuristic to keep reallocating
    down to a single queue gap.
    """

    bisect_rel_tol: float = 1e-9
    max_alternations: int = 20
    stall_rel_tol: float = 1e-6
    outer_iters: int = 4
    cut_init: str = "min-data"
    rng_seed: int = 0
    p3_layer_rule: str = "full"
    strict_breaks: bool = False

    def __post_init__(self):
        if self.bisect_rel_tol <= 0 or self.stall_rel_tol <= 0:
            raise ValidationError("tolerances must be positive")
        if self.max_alternations < 1 or self.outer_iters < 1:
            raise ValidationError("iteration caps must be >= 1")
        if self.cut_init not in ("min-data", "random"):
            raise ValidationError("cut_init must be 'min-data' or 'random'")
        if self.p3_layer_rule not in ("full", "c-only"):
            raise ValidationError("p3_layer_rule must be 'full' or 'c-only'")


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


def equal_delay_split(problem: EqualDelayProblem, rel_tol: float = 1e-13) -> np.ndarray:
    """Solve the equal-delay budget equation by bisection.

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
                     0.0, min(ub, problem.budget), rel_tol)
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
                       rel_tol: float = 1e-9) -> float:
    """Minimal bandwidth whose achievable rate meets ``required_rate``.

    Geometric bracket growth followed by bisection; the rate is strictly
    increasing in bandwidth with supremum ``link.rate_limit()``.
    """
    if required_rate < 0:
        raise ValidationError("required rate must be >= 0")
    if required_rate == 0.0:
        return 0.0
    limit = link.rate_limit()
    if required_rate >= limit * (1.0 - 1e-12):
        raise Unreachable(
            f"rate {required_rate:.6g} b/s exceeds the wide-band limit {limit:.6g} b/s")
    def meets(bandwidth):
        return achievable_rate(bandwidth, link) >= required_rate

    # R(B) >= B exactly when in-band SNR >= 1
    hi = _grow(meets, required_rate, 2.0, 200, "bracket growth failed in bandwidth_for_rate")
    return _bisect(meets, 0.0, hi, rel_tol)[1]


def _lambert_wm1(a: float) -> float:
    """Lower real branch of w*exp(w) = a for a in [-1/e, 0)."""
    if a >= 0.0 or a < -_INV_E * (1.0 + 1e-12):
        raise ValueError(f"argument {a} outside [-1/e, 0)")
    if a <= -_INV_E:
        return -1.0
    if a > -0.07:
        l1 = math.log(-a)
        l2 = math.log(-l1)
        w = l1 - l2 + l2 / l1 + l2 * (l2 - 2.0) / (2.0 * l1 * l1)
    else:
        p = -math.sqrt(2.0 * (1.0 + math.e * a))
        w = -1.0 + p - p * p / 3.0 + 11.0 * p ** 3 / 72.0
    for _ in range(8):
        ew = math.exp(w)
        f = w * ew - a
        if f == 0.0:
            break
        step = f / (ew * (w + 1.0) - (w + 2.0) * f / (2.0 * w + 2.0))
        w -= step
        if abs(step) <= 1e-16 * abs(w):
            break
    return w


def _required_bandwidth_u(snr_hz: float, rate: float):
    """Closed-form rate inverse; returns (bandwidth, in-band SNR).

    Solves B*log2(1 + snr/B) = rate through the lower Lambert-W branch.
    Infinite bandwidth signals an unreachable rate.
    """
    if rate <= 0.0:
        return 0.0, math.inf
    rho = rate * LN2 / snr_hz
    if rho >= 1.0 - 1e-12:
        return math.inf, 0.0
    u = -_lambert_wm1(-rho * math.exp(-rho)) / rho - 1.0
    if u <= 0.0:
        return math.inf, 0.0
    return snr_hz / u, u


# ---------------------------------------------------------------------------
# per-cut views of a network

class CutTable:
    """Per-device per-cut arrays: local seconds, payload bits, residual FLOPs."""

    def __init__(self, net: NetworkInstance):
        self.net = net
        self.local_s = []
        self.bits = []
        self.resid = []
        for dev in net.devices:
            prof = dev.profile
            cum = np.asarray(prof.cum_workload, dtype=float)
            self.local_s.append(cum / dev.compute_flops)
            self.bits.append(np.asarray(
                [prof.payload_bits(l) for l in range(prof.num_cuts + 1)], dtype=float))
            self.resid.append(prof.total_workload - cum)
        self.snr = np.array([dev.link.snr_hz() for dev in net.devices])
        self.rate_limit = self.snr / LN2
        self.num_cuts = [p.num_cuts for p in (d.profile for d in net.devices)]

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

    def random_cuts(self, seed: int) -> tuple[int, ...]:
        rng = np.random.default_rng(seed)
        return tuple(int(rng.integers(0, n + 1)) for n in self.num_cuts)

    def initial_cuts(self, settings: SolverSettings) -> tuple[int, ...]:
        if settings.cut_init == "random":
            return self.random_cuts(settings.rng_seed)
        return self.min_data_cuts()

    def transmit_s(self, i: int, bandwidth_hz: float) -> np.ndarray:
        """Upload seconds of device ``i`` at every cut over ``bandwidth_hz``."""
        rate = shannon_rate(float(self.snr[i]), float(bandwidth_hz))
        return np.where(self.bits[i] > 0,
                        self.bits[i] / rate if rate > 0 else math.inf, 0.0)


@dataclass
class _CutView:
    local_s: np.ndarray
    bits: np.ndarray
    resid: np.ndarray
    snr: np.ndarray
    rate_limit: np.ndarray

    def arrivals(self, bandwidth) -> np.ndarray:
        """Local seconds plus upload seconds; ``inf`` where bits meet a zero rate."""
        out = self.local_s.copy()
        for i, bits in enumerate(self.bits.tolist()):
            if bits > 0:
                r = shannon_rate(float(self.snr[i]), float(bandwidth[i]))
                out[i] += bits / r if r > 0 else math.inf
        return out


# ---------------------------------------------------------------------------
# convex resource subproblem (fixed cuts): epigraph bisection over the target
# delay, with a multiplier search equalizing the bandwidth/compute marginals

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


def _root_decreasing(fn, lo, hi, target, warm=None, rel_tol=1e-9, max_iter=90,
                     log_x=False):
    """Root of a decreasing ``fn`` on (lo, hi] with fn(lo+) >= target >= fn(hi).

    Illinois-damped regula falsi; the left endpoint value may be infinite
    (treated as a pure bracket until a finite value lands there). ``log_x``
    interpolates on log-abscissa, which suits power-law-shaped functions
    whose bracket spans decades. ``warm`` seeds the first probe.
    """
    tx = math.log if log_x else (lambda v: v)
    ix = math.exp if log_x else (lambda v: v)
    a, b = lo, hi
    ga = math.inf
    gb = fn(b) - target
    if gb >= 0.0:
        return b
    side = 0
    x = warm if (warm is not None and a < warm < b) else ix(0.5 * (tx(a) + tx(b)))
    for _ in range(max_iter):
        g = fn(x) - target
        if g >= 0.0:
            if side == 1 and math.isfinite(gb):
                gb *= 0.5
            a, ga, side = x, g, 1
        else:
            if side == -1 and math.isfinite(ga):
                ga *= 0.5
            b, gb, side = x, g, -1
        if b - a <= rel_tol * max(abs(b), 1e-300):
            break
        ta, tb = tx(a), tx(b)
        if math.isfinite(ga) and ga != gb:
            t = tb - gb * (tb - ta) / (gb - ga)
            span = tb - ta
            t = min(max(t, ta + 1e-3 * span), tb - 1e-3 * span)
            x = ix(t)
        else:
            x = ix(0.5 * (ta + tb))
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


def _bandwidth_floor(view, budget, slack, warm):
    """Minimal total bandwidth meeting per-device deadlines ``slack``.

    Splits the compute budget so that all marginal bandwidth savings agree,
    then prices the resulting per-device rates. Returns (total, B, f) or
    ``None`` when no compute split fits. ``warm`` carries the multiplier and
    shares across calls.
    """
    k = len(slack)
    bw = np.zeros(k)
    f = np.zeros(k)
    active = view.resid > 0
    talk = view.bits > 0

    if np.any(slack <= 0):
        return None
    # transmission can never take less than bits/limit seconds (capacity
    # ceiling), so that much of the slack is off the table for the server
    min_tx = np.where(talk, view.bits / view.rate_limit, 0.0)
    room = slack - min_tx
    if np.any(room[talk] <= 0):
        return None
    f_lo = np.zeros(k)
    f_lo[active] = view.resid[active] / room[active]
    if f_lo.sum() >= budget * (1.0 - 1e-12):
        return None
    # devices that transmit nothing just need their compute floor
    silent = active & ~talk
    f[silent] = f_lo[silent]
    head = budget - f[silent].sum() - f_lo[active & talk].sum()

    game = np.flatnonzero(active & talk)
    if game.size:
        f_hi = f_lo[game] + head
        m_hi = np.array([
            _marginal(view.snr[i], view.bits[i], view.resid[i], slack[i], fh)
            for i, fh in zip(game, f_hi)])
        if not np.all(np.isfinite(m_hi)):
            return None  # some device cannot reach its deadline even maxed out

        def share(i, fh, mh, mu):
            if mh >= mu:
                return fh
            return _share_for_price(view.snr[i], view.bits[i], view.resid[i],
                                    slack[i], f_lo[i], fh, mu, warm=warm["f"].get(i))

        if game.size == 1:
            f[game[0]] = f_lo[game[0]] + head
        else:
            def surplus(mu):
                tot = 0.0
                for i, fh, mh in zip(game, f_hi, m_hi):
                    fi = share(i, fh, mh, mu)
                    warm["f"][i] = fi
                    tot += fi
                return tot

            target = budget - f[silent].sum()
            mu_lo = float(np.min(m_hi)) * 0.999  # everyone clamps: surplus >= target
            mu_hi = warm["mu"] if warm["mu"] and warm["mu"] > mu_lo else float(np.max(m_hi)) * 8.0
            mu_hi = _grow(lambda mu: surplus(mu) <= target, mu_hi, 8.0, 120,
                          "multiplier bracket growth failed")
            mu = _root_decreasing(surplus, mu_lo, mu_hi, target,
                                  warm=warm["mu"], rel_tol=1e-10, log_x=True)
            warm["mu"] = mu
            for i, fh, mh in zip(game, f_hi, m_hi):
                f[i] = share(i, fh, mh, mu)

    for i in np.flatnonzero(talk):
        s = slack[i] - (view.resid[i] / f[i] if f[i] > 0 else 0.0)
        if s <= 0:
            return None
        b, _ = _required_bandwidth_u(view.snr[i], view.bits[i] / s)
        if not math.isfinite(b):
            return None
        bw[i] = b
    return bw.sum(), bw, f


def resource_subproblem(view, bandwidth_budget, compute_budget, settings,
                        t_seed=None):
    """Min-max delay over joint (bandwidth, compute) splits for fixed cuts.

    Bisects the target delay; a target is feasible when the minimal total
    bandwidth meeting it fits the spectrum budget. Returns
    ``(objective, bandwidth, shares)`` with both budgets spent exactly.
    """
    k = len(view.bits)
    t_floor = float(np.max(view.local_s + np.where(
        view.resid > 0, view.resid / compute_budget, 0.0)))
    warm = {"mu": None, "f": {}}
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

    _root_decreasing(lambda t: -deficit(t), t_floor, t_hi, 0.0,
                     rel_tol=settings.bisect_rel_tol)
    if not best:
        raise NonConvergence("epigraph bisection retained no feasible point")
    bw, f = best["bw"].copy(), best["f"].copy()
    if bw.sum() > 0:
        bw *= bandwidth_budget / bw.sum()
    else:
        bw[:] = bandwidth_budget / k
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


def solve_p2(net: NetworkInstance, settings: SolverSettings | None = None) -> AllocationPlan:
    """Fixed equal bandwidth; alternate the closed-form server split with
    per-device cut re-selection."""
    settings = settings or SolverSettings()
    table = CutTable(net)
    k = table.num_devices
    bw = np.full(k, net.total_bandwidth_hz / k)
    cuts = table.initial_cuts(settings)
    best = None
    history = []
    prev = math.inf
    iterations = 0
    for _ in range(settings.max_alternations):
        iterations += 1
        view = table.view(cuts)
        shares, obj = equal_delay_allocation(
            view.arrivals(bw), view.resid, net.server_flops)
        if best is None or obj < best[0]:
            best = (obj, cuts, shares)
        history.append(best[0])
        new_cuts = _reselect_parallel(table, bw, shares)
        if new_cuts == cuts or abs(prev - obj) <= settings.stall_rel_tol * obj:
            break
        prev = obj
        cuts = new_cuts
    _, cuts, shares = best
    return _parallel_plan("p2", table, cuts, bw, shares, iterations, history)


class _P1State:
    """Bookkeeping for the joint alternation: memoized convex steps, best plan."""

    def __init__(self, table, net, settings):
        self.table = table
        self.net = net
        self.settings = settings
        self.seen = {}
        self.best = None  # (obj, cuts, bandwidth, shares)
        self.history = []
        self.iterations = 0

    def price(self, cuts, seed=None):
        """Solve the convex resource step for one cut vector (memoized)."""
        cuts = tuple(int(c) for c in cuts)
        if cuts not in self.seen:
            view = self.table.view(cuts)
            obj, bw, f = resource_subproblem(
                view, self.net.total_bandwidth_hz, self.net.server_flops,
                self.settings, t_seed=seed)
            self.seen[cuts] = (obj, bw, f)
            if self.best is None or obj < self.best[0]:
                self.best = (obj, cuts, bw, f)
        return self.seen[cuts]

    def alternate(self, cuts, seed_obj):
        """Alternate convex steps and cut re-selection from ``cuts``; the first
        target-delay bracket is seeded with ``seed_obj``."""
        prev = math.inf
        for _ in range(self.settings.max_alternations):
            self.iterations += 1
            obj, bw, f = self.price(cuts, seed=seed_obj if self.iterations == 1 else None)
            self.history.append(self.best[0])
            new_cuts = _reselect_parallel(self.table, bw, f)
            if new_cuts == cuts or abs(prev - obj) <= self.settings.stall_rel_tol * obj:
                break
            prev = obj
            cuts = new_cuts


def solve_p1(net: NetworkInstance, settings: SolverSettings | None = None) -> AllocationPlan:
    """Joint cut + bandwidth + compute optimization by alternation.

    The alternation can stall in a local optimum, so the fixed-bandwidth
    solution's cuts and the all-raw cut vector are also priced through the
    convex step and the best plan wins.
    """
    settings = settings or SolverSettings()
    table = CutTable(net)
    state = _P1State(table, net, settings)
    # the equal-split heuristic's first objective seeds the first bracket
    p2 = solve_p2(net, settings)
    state.alternate(table.initial_cuts(settings), p2.objective_history[0])
    state.price(p2.cuts)
    state.price(tuple(0 for _ in range(table.num_devices)))
    obj, cuts, bw, f = state.best
    history = [min(h, obj) for h in state.history] or [obj]
    return _parallel_plan("p1", table, cuts, bw, f, state.iterations, history)


def _fixed_cut_policy(name, net, settings, cuts):
    settings = settings or SolverSettings()
    table = CutTable(net)
    view = table.view(cuts)
    obj, bw, f = resource_subproblem(
        view, net.total_bandwidth_hz, net.server_flops, settings)
    return _parallel_plan(name, table, cuts, bw, f, 1, [obj])


def min_data_layer_policy(net: NetworkInstance,
                          settings: SolverSettings | None = None) -> AllocationPlan:
    """Cut at the first minimum-payload stage, then one convex resource step."""
    table = CutTable(net)
    return _fixed_cut_policy("min-data", net, settings, table.min_data_cuts())


def first_layer_policy(net: NetworkInstance,
                       settings: SolverSettings | None = None) -> AllocationPlan:
    """Transmit raw inputs (no local processing), then one convex resource step."""
    return _fixed_cut_policy("first-layer", net, settings,
                             tuple(0 for _ in net.devices))

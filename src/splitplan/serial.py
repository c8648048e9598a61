"""Serial-processing allocation policies.

When the server runs one job at a time at full speed, total delay is the
completion of the last queue position. Policies here either shape bandwidth
so all payloads arrive together (queue order becomes irrelevant) or run the
gap-elimination heuristic: move spectrum from the device just before the
first arrival gap to the device at the last gap, shrinking the completion
tail without disturbing earlier sub-queues.
"""

from __future__ import annotations

import math
import weakref

import numpy as np

from .delay import AllocationPlan, NetworkInstance, QueueState, serial_total_delay
from .errors import Infeasible, NoExcess, StalledBreak, ValidationError, ZeroRate
from .parallel import (CutTable, SolverSettings, _add_upload_slope, _alternate,
                       _least_target, bandwidth_for_rate)


def _serial_eval(table: CutTable, cuts, bandwidth):
    view = table.view(cuts)
    arrivals = view.arrivals(bandwidth)
    objective, state = serial_total_delay(arrivals, view.resid,
                                          table.net.server_flops)
    return objective, state, arrivals, view


def _serial_plan(policy, table, cuts, bandwidth, history=None):
    """The plan of one allocation; ``history`` holds the best objective after
    each iteration, and a one-shot policy leaves it out for ``(objective,)``."""
    objective, state, arrivals, view = _serial_eval(table, cuts, bandwidth)
    f_max = table.net.server_flops
    if not math.isfinite(objective):
        if np.isfinite(arrivals).all():
            raise Infeasible(f"{policy}: the server budget {f_max} FLOP/s is too small")
        raise ZeroRate(f"{policy} plan has objective {objective}: some upload rate is zero")
    delays = list(arrivals)
    for pos, dev in enumerate(state.order):
        delays[dev] = state.completions[pos]
    return AllocationPlan(
        policy=policy,
        mode="serial",
        cuts=tuple(int(c) for c in cuts),
        bandwidth_hz=tuple(float(b) for b in bandwidth),
        server_flops=tuple(f_max if r > 0 else 0.0 for r in view.resid),
        arrivals=tuple(float(a) for a in arrivals),
        residuals=tuple(float(r) for r in view.resid),
        delays=tuple(float(d) for d in delays),
        objective=objective,
        objective_history=(objective,) if history is None else tuple(history),
    )


# ---------------------------------------------------------------------------
# simultaneous arrival

def _common_arrival_bandwidth(table: CutTable, cuts):
    """Smallest common arrival time T and the bandwidth split achieving it.

    A target T is feasible when every device's least bandwidth B_i(T) that
    uploads its payload by T is finite and their sum fits the budget.
    Each B_i comes from :func:`~splitplan.parallel.bandwidth_for_rate` at the
    rate b_i/(T - l_i): the top of a 1e-9 bisection bracket, whose points
    it mostly decides by comparison with a Newton estimate of the exact
    inverse, so a device costs one Newton solve and seldom a rate
    evaluation. The rate is convex and decreasing in T, and B is convex and
    increasing in the rate, so the sum is convex and decreasing: the floor
    returns its slope (:func:`~splitplan.parallel._add_upload_slope` at
    u_i = snr_i/B_i), and :func:`~splitplan.parallel._least_target` takes
    safeguarded Newton steps in T above the last local finish. The search
    starts at the latest arrival under an equal split, a feasible T but for
    the inverse's top-of-bracket rounding; where that refuses it, the next
    probe goes just above its tangent zero, a Newton step from below. The
    spare spectrum at the returned T goes out pro rata.
    """
    view = table.view(cuts)
    budget = table.net.total_bandwidth_hz
    k = table.num_devices

    def floor(t):
        need = np.zeros(k)
        slope = 0.0
        for i, (snr, b, local) in enumerate(zip(view.snr.tolist(), view.bits.tolist(),
                                                view.local_s.tolist())):
            room = t - local
            if room <= 0:
                return None
            need[i] = bw = bandwidth_for_rate(snr, b / room)
            if bw == math.inf:
                return None
            if slope is not None:
                slope = _add_upload_slope(slope, b, room, snr / bw)
        return need.sum(), need, slope

    t_seed = float(np.max(view.arrivals(np.full(k, budget / k))))
    t, need = _least_target(floor, budget, float(np.max(view.local_s)), t_seed)
    return t, need * (budget / need.sum())


@np.errstate(over="ignore")  # a vanishing server budget scores every cut inf
def _reselect_serial(table: CutTable, cuts, bandwidth):
    """Coordinate pass over devices: re-pick each cut at fixed bandwidth to
    minimize the simultaneous-arrival objective
    max(arrival) + sum(residual)/f_max exactly. Where every cut of a device
    scores inf (a server budget so small that any residual work overflows),
    the device takes its cut with the least residual work."""
    f_max = table.net.server_flops
    k = table.num_devices
    cand_arr = table.all_arrivals(bandwidth)
    at = (np.arange(k), np.asarray(cuts))
    arr = cand_arr[at]
    res = table.resid[at]
    # the largest arrival of the devices after i, before any re-pick
    after_max = np.append(np.maximum.accumulate(arr[::-1])[::-1][1:], -math.inf).tolist()
    new_cuts = list(cuts)
    before_max = -math.inf  # largest re-picked arrival of the devices before i
    for i in range(k):
        others_max = max(before_max, after_max[i])
        others_res = res.sum() - res[i]
        score = np.maximum(cand_arr[i], others_max) + (others_res + table.resid[i]) / f_max
        best = int(np.argmin(score))
        if score[best] == math.inf:  # the whole row is inf
            best = int(np.argmin(table.resid[i]))
        new_cuts[i] = best
        arr[i] = cand_arr[i, best]
        res[i] = table.resid[i, best]
        before_max = max(before_max, arr[i])
    return tuple(new_cuts)


def solve_p3(net: NetworkInstance, settings: SolverSettings | None = None) -> AllocationPlan:
    """Simultaneous-arrival policy: alternate bandwidth shaping with cut
    re-selection; the reported objective is the exact queue total of the
    returned allocation."""
    settings = settings or SolverSettings()
    table = CutTable.of(net)

    def evaluate(cuts):
        _, bw = _common_arrival_bandwidth(table, cuts)
        return _serial_eval(table, cuts, bw)[0], bw

    (_, cuts, bw), history = _alternate(
        table.min_data_cuts(), evaluate,
        lambda cuts, bw: _reselect_serial(table, cuts, bw),
        settings.max_alternations)
    return _serial_plan("p3", table, cuts, bw, history)


def queue_first_layer_policy(net: NetworkInstance,
                             settings: SolverSettings | None = None) -> AllocationPlan:
    """Raw-input cuts with simultaneous-arrival bandwidth shaping."""
    table = CutTable.of(net)
    cuts = tuple(0 for _ in range(table.num_devices))
    _, bw = _common_arrival_bandwidth(table, cuts)
    return _serial_plan("queue-first-layer", table, cuts, bw)


# ---------------------------------------------------------------------------
# gap-elimination heuristic

#: Per table, the donor bandwidths :func:`reallocate_once` has computed, by
#: (device, cut, upload seconds); :func:`queue_heuristic` drops its table's
#: entry when it returns.
_donor_bandwidth = weakref.WeakKeyDictionary()


def reallocate_once(table: CutTable, cuts, bandwidth, state: QueueState,
                    donor_break: int = 0):
    """Move spectrum from one sub-queue tail to the last-gap device.

    The donor (device just before break ``donor_break``) slows its upload so
    it finishes arriving exactly when the server frees up, which closes that
    gap; the freed bandwidth accelerates the device at the last gap, whose
    arrival sets the queue total. Requires at least two gaps so donor and
    receiver are distinct, and ``donor_break`` before the last one; otherwise
    raises :class:`ValidationError`. A donor that cannot arrive that late
    raises :class:`StalledBreak`, one that would not free any bandwidth
    :class:`NoExcess`.

    The donor's bandwidth is the rate inverse at its (device, cut, upload
    seconds), kept per table in ``_donor_bandwidth``: the heuristic retries
    donors whose gap an accepted move already closed, and such a retry reads
    the settled bandwidth back (and raises :class:`NoExcess`) without
    inverting the rate again.

    Returns ``(objective, new_bandwidth, new_state)`` of the new allocation.
    """
    breaks = state.breaks
    if len(breaks) < 2:
        raise ValidationError("needs a queue with at least two gaps")
    if not 0 <= donor_break < len(breaks) - 1:
        raise ValidationError("donor break must come before the last gap")
    f_max = table.net.server_flops
    b_pos = breaks[donor_break]
    donor_pos = b_pos - 1
    recv_pos = breaks[-1]
    donor = state.order[donor_pos]
    receiver = state.order[recv_pos]

    target = state.arrivals[b_pos] - state.residuals[donor_pos] / f_max
    cut = cuts[donor]
    budget_s = target - table.local_s[donor, cut]
    if budget_s <= 0:
        raise StalledBreak(
            f"donor {donor} cannot delay its arrival to {target:.6g}s")
    memo = _donor_bandwidth.setdefault(table, {})
    key = (donor, cut, budget_s)
    new_bw = memo.get(key)
    if new_bw is None:
        new_bw = memo[key] = bandwidth_for_rate(
            table.snr[donor], table.bits[donor, cut] / budget_s)
    moved = bandwidth[donor] - new_bw
    if moved <= 0:
        raise NoExcess(f"donor {donor} has no spare bandwidth to give")

    new_bandwidth = np.asarray(bandwidth, dtype=float).copy()
    new_bandwidth[donor] = new_bw
    new_bandwidth[receiver] += moved
    objective, new_state, _, _ = _serial_eval(table, cuts, new_bandwidth)
    return objective, new_bandwidth, new_state


def queue_heuristic(net: NetworkInstance,
                    settings: SolverSettings | None = None) -> AllocationPlan:
    """Outer loop: equal bandwidth, close queue gaps by reallocation, then
    re-pick cuts; keep the best allocation seen anywhere.

    Each pass tries the sub-queue tails as donors in queue order and takes
    the first move :func:`reallocate_once` accepts, so the donors of earlier
    moves are tried again on every pass; their bandwidths come from
    ``_donor_bandwidth``, so each (donor, cut, upload seconds) is inverted
    once per run. A pass is a function of the cuts it starts from, so a pass
    that would start from the cuts of an earlier one is not run: it only
    repeats the best objective in the history."""
    settings = settings or SolverSettings()
    table = CutTable.of(net)
    k = table.num_devices
    cuts = table.min_data_cuts()
    best = None
    history = []

    def consider(obj, cuts_now, bw_now):
        nonlocal best
        if best is None or obj < best[0]:
            best = (obj, tuple(cuts_now), np.array(bw_now))

    starts = set()  # the cuts each pass started from
    for _ in range(settings.outer_iters):
        if cuts in starts:  # this pass, and every one after it, replays one made
            history.append(best[0])
            continue
        starts.add(cuts)
        bw = np.full(k, net.total_bandwidth_hz / k)
        obj, state, _, _ = _serial_eval(table, cuts, bw)
        consider(obj, cuts, bw)
        guard = max(2 * k, 16)
        while len(state.breaks) > 2 and guard > 0:
            guard -= 1
            moved = False
            for donor_break in range(len(state.breaks) - 1):
                try:
                    obj, bw, state = reallocate_once(
                        table, cuts, bw, state, donor_break=donor_break)
                    moved = True
                    break
                except (StalledBreak, NoExcess):
                    continue  # try the next sub-queue tail as donor
            if not moved:
                break
            consider(obj, cuts, bw)
        cuts = _reselect_serial(table, cuts, bw)
        obj, state, _, _ = _serial_eval(table, cuts, bw)
        consider(obj, cuts, bw)
        history.append(best[0])

    _donor_bandwidth.pop(table, None)
    _, cuts, bw = best
    return _serial_plan("queue-heuristic", table, cuts, bw, history)

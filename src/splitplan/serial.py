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

import numpy as np

from .delay import AllocationPlan, NetworkInstance, QueueState, serial_total_delay
from .errors import NoExcess, StalledBreak, ZeroRate
from .parallel import (_BISECT_REL_TOL, CutTable, SolverSettings, _alternate, _bisect,
                       _grow, bandwidth_for_rate)


def _serial_eval(table: CutTable, cuts, bandwidth):
    view = table.view(cuts)
    arrivals = view.arrivals(bandwidth)
    objective, state = serial_total_delay(arrivals, view.resid,
                                          table.net.server_flops)
    return objective, state, arrivals, view


def _serial_plan(policy, table, cuts, bandwidth, iterations, history):
    objective, state, arrivals, view = _serial_eval(table, cuts, bandwidth)
    if not math.isfinite(objective):
        raise ZeroRate(f"{policy} plan has objective {objective}: some upload rate is zero")
    f_max = table.net.server_flops
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
        objective=float(objective),
        iterations=iterations,
        objective_history=tuple(history),
    )


# ---------------------------------------------------------------------------
# simultaneous arrival

def _common_arrival_bandwidth(table: CutTable, cuts):
    """Smallest common arrival time T and the bandwidth split achieving it.

    Bisects T above the last local finish; a target is feasible when the
    summed per-device bandwidth requirements fit the budget. The spare
    spectrum at the returned T goes out pro rata.
    """
    view = table.view(cuts)
    links = [d.link for d in table.net.devices]
    budget = table.net.total_bandwidth_hz
    k = table.num_devices
    t_floor = float(np.max(view.local_s))
    best = None  # requirement vector at the smallest feasible target probed

    def fits(t):
        nonlocal best
        need = np.zeros(k)
        for i in range(k):
            room = t - view.local_s[i]
            if room <= 0:
                return False
            rate = view.bits[i] / room
            if rate >= view.rate_limit[i] * (1.0 - 1e-12):
                return False
            need[i] = bandwidth_for_rate(links[i], rate)
        if not need.sum() <= budget:
            return False
        best = need
        return True

    t_hi = _grow(fits, 2.0 * (t_floor if t_floor > 0 else 1e-9), 2.0, 200,
                 "no common arrival target is feasible")
    _, hi = _bisect(fits, t_floor, t_hi, _BISECT_REL_TOL)
    return hi, best * (budget / best.sum())


def _reselect_serial(table: CutTable, cuts, bandwidth, settings: SolverSettings):
    """Coordinate pass over devices: re-pick each cut at fixed bandwidth.

    ``full`` minimizes the simultaneous-arrival objective
    max(arrival) + sum(residual)/f_max exactly; ``c-only`` minimizes the
    device's own arrival time.
    """
    f_max = table.net.server_flops
    k = table.num_devices
    arr = np.empty(k)
    res = np.empty(k)
    cand_arr = []
    cand_res = []
    for i in range(k):
        a = table.local_s[i] + table.transmit_s(i, bandwidth[i])
        cand_arr.append(a)
        cand_res.append(table.resid[i])
        arr[i] = a[cuts[i]]
        res[i] = table.resid[i][cuts[i]]
    # the largest arrival of the devices after i, before any re-pick
    after_max = np.append(np.maximum.accumulate(arr[::-1])[::-1][1:], -math.inf).tolist()
    new_cuts = list(cuts)
    before_max = -math.inf  # largest re-picked arrival of the devices before i
    for i in range(k):
        if settings.p3_layer_rule == "c-only":
            best = int(np.argmin(cand_arr[i]))
        else:
            others_max = max(before_max, after_max[i])
            others_res = res.sum() - res[i]
            score = np.maximum(cand_arr[i], others_max) + (others_res + cand_res[i]) / f_max
            best = int(np.argmin(score))
        new_cuts[i] = best
        arr[i] = cand_arr[i][best]
        res[i] = cand_res[i][best]
        before_max = max(before_max, arr[i])
    return tuple(new_cuts)


def solve_p3(net: NetworkInstance, settings: SolverSettings | None = None) -> AllocationPlan:
    """Simultaneous-arrival policy: alternate bandwidth shaping with cut
    re-selection; the reported objective is the exact queue total of the
    returned allocation."""
    settings = settings or SolverSettings()
    table = CutTable(net)

    def evaluate(cuts):
        _, bw = _common_arrival_bandwidth(table, cuts)
        return _serial_eval(table, cuts, bw)[0], bw

    (_, cuts, bw), history, rounds = _alternate(
        table.min_data_cuts(), evaluate,
        lambda cuts, bw: _reselect_serial(table, cuts, bw, settings),
        settings.max_alternations)
    return _serial_plan("p3", table, cuts, bw, rounds, history)


def queue_first_layer_policy(net: NetworkInstance,
                             settings: SolverSettings | None = None) -> AllocationPlan:
    """Raw-input cuts with simultaneous-arrival bandwidth shaping."""
    table = CutTable(net)
    cuts = tuple(0 for _ in range(table.num_devices))
    _, bw = _common_arrival_bandwidth(table, cuts)
    return _serial_plan("queue-first-layer", table, cuts, bw, 1, [])


# ---------------------------------------------------------------------------
# gap-elimination heuristic

def reallocate_once(table: CutTable, cuts, bandwidth, state: QueueState,
                    donor_break: int = 0):
    """Move spectrum from one sub-queue tail to the last-gap device.

    The donor (device just before break ``donor_break``) slows its upload so
    it finishes arriving exactly when the server frees up, which closes that
    gap; the freed bandwidth accelerates the device at the last gap, whose
    arrival sets the queue total. Requires at least two gaps so donor and
    receiver are distinct.

    Returns ``(objective, new_bandwidth, new_state)`` of the new allocation.
    """
    breaks = state.breaks
    if len(breaks) < 2:
        raise ValueError("needs a queue with at least two gaps")
    if not 0 <= donor_break < len(breaks) - 1:
        raise ValueError("donor break must come before the last gap")
    f_max = table.net.server_flops
    b_pos = breaks[donor_break]
    donor_pos = b_pos - 1
    recv_pos = breaks[-1]
    donor = state.order[donor_pos]
    receiver = state.order[recv_pos]

    target = state.arrivals[b_pos] - state.residuals[donor_pos] / f_max
    cut = cuts[donor]
    budget_s = target - table.local_s[donor][cut]
    if budget_s <= 0:
        raise StalledBreak(
            f"donor {donor} cannot delay its arrival to {target:.6g}s")
    new_bw = bandwidth_for_rate(table.net.devices[donor].link,
                                table.bits[donor][cut] / budget_s)
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
    re-pick cuts; keep the best allocation seen anywhere."""
    settings = settings or SolverSettings()
    table = CutTable(net)
    k = table.num_devices
    cuts = table.min_data_cuts()
    min_gaps = 1 if settings.strict_breaks else 2
    best = None
    history = []

    def consider(obj, cuts_now, bw_now):
        nonlocal best
        if best is None or obj < best[0]:
            best = (obj, tuple(cuts_now), np.array(bw_now))

    for _ in range(settings.outer_iters):
        bw = np.full(k, net.total_bandwidth_hz / k)
        obj, state, _, _ = _serial_eval(table, cuts, bw)
        consider(obj, cuts, bw)
        guard = max(2 * k, 16)
        while len(state.breaks) > min_gaps and guard > 0:
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
        cuts = _reselect_serial(table, cuts, bw, settings)
        obj, state, _, _ = _serial_eval(table, cuts, bw)
        consider(obj, cuts, bw)
        history.append(best[0])

    _, cuts, bw = best
    return _serial_plan("queue-heuristic", table, cuts, bw, settings.outer_iters, history)

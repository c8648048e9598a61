"""Plan certificate: checks a returned plan against the delay model.

A plan passes when its cuts are in range, its bandwidth spends the spectrum
budget, a parallel plan's compute shares fit the server budget, and its
objective agrees with the one recomputed from ``splitplan.delay``.
"""

from __future__ import annotations

import math

#: Relative tolerance of the budget and objective checks.
REL_TOL = 1e-9


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b))


def certify(net, plan) -> str | None:
    """Return ``None`` for a valid plan, else the reason it is not."""
    from splitplan import delay
    from splitplan.errors import SplitPlanError

    k = net.num_devices
    if not (len(plan.cuts) == len(plan.bandwidth_hz) == len(plan.server_flops) == k):
        return "plan vectors do not match the device count"
    for dev, cut in zip(net.devices, plan.cuts):
        if not 0 <= cut <= dev.profile.num_cuts:
            return f"cut {cut} out of range 0..{dev.profile.num_cuts}"
    bw = plan.bandwidth_hz
    if not all(math.isfinite(b) and b >= 0.0 for b in bw):
        return "bandwidth entry negative or not finite"
    if not _close(math.fsum(bw), net.total_bandwidth_hz):
        return f"bandwidth sums to {math.fsum(bw)!r}, budget {net.total_bandwidth_hz!r}"
    try:
        if plan.mode == "parallel":
            shares = plan.server_flops
            if not all(math.isfinite(f) and f >= 0.0 for f in shares):
                return "compute share negative or not finite"
            if math.fsum(shares) > net.server_flops * (1.0 + REL_TOL):
                return f"compute shares sum to {math.fsum(shares)!r} > {net.server_flops!r}"
            objective = max(delay.parallel_delay(d, c, b, f) for d, c, b, f
                            in zip(net.devices, plan.cuts, bw, shares))
        elif plan.mode == "serial":
            arrivals = [delay.arrival_delay(d, c, b)
                        for d, c, b in zip(net.devices, plan.cuts, bw)]
            residuals = [delay.residual_workload(d.profile, c)
                         for d, c in zip(net.devices, plan.cuts)]
            objective, _ = delay.serial_total_delay(arrivals, residuals, net.server_flops)
        else:
            return f"unknown plan mode {plan.mode!r}"
    except SplitPlanError as exc:
        return f"delay model rejects the plan: {type(exc).__name__}: {exc}"
    if not (0.0 < plan.objective < math.inf and _close(objective, plan.objective)):
        return f"objective {plan.objective!r} but the delay model gives {objective!r}"
    return None

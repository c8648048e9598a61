"""Delay algebra for split execution.

Arrival delay (local compute plus transmission), residual server workload,
parallel-processing total delay, and the serial single-server queue
recursion with its break structure and closed-form totals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .arch import CutProfile
from .channel import LinkParams, achievable_rate
from .errors import MissingServerCompute, ValidationError, ZeroRate


@dataclass(frozen=True)
class Device:
    link: LinkParams
    compute_flops: float
    profile: CutProfile

    def __post_init__(self):
        if not 0 < self.compute_flops < math.inf:
            raise ValidationError("device compute must be positive and finite")


@dataclass(frozen=True)
class NetworkInstance:
    """Devices plus the shared server-compute and spectrum budgets."""

    devices: tuple[Device, ...]
    server_flops: float
    total_bandwidth_hz: float

    def __post_init__(self):
        object.__setattr__(self, "devices", tuple(self.devices))
        if not self.devices:
            raise ValidationError("need at least one device")
        if not (0 < self.server_flops < math.inf and 0 < self.total_bandwidth_hz < math.inf):
            raise ValidationError(
                "server compute and spectrum budgets must be positive and finite")

    @property
    def num_devices(self) -> int:
        return len(self.devices)


@dataclass(frozen=True)
class AllocationPlan:
    """Result of one policy run: per-device choices and the delay breakdown.

    ``server_flops`` holds the per-device parallel share; serial-mode plans
    store the full budget for every queued device since jobs run one at a
    time at full speed. ``objective_history`` is the best objective after
    each outer solver iteration, one entry per iteration.
    """

    policy: str
    mode: str  # "parallel" | "serial"
    cuts: tuple[int, ...]
    bandwidth_hz: tuple[float, ...]
    server_flops: tuple[float, ...]
    arrivals: tuple[float, ...]
    residuals: tuple[float, ...]
    delays: tuple[float, ...]
    objective: float
    objective_history: tuple[float, ...] = ()

    @property
    def iterations(self) -> int:
        return len(self.objective_history)


def _check_cut(profile: CutProfile, cut: int) -> None:
    if not 0 <= cut <= profile.num_cuts:
        raise ValidationError(f"cut {cut} is outside 0..{profile.num_cuts}")


def arrival_delay(device: Device, cut: int, bandwidth_hz: float) -> float:
    """Local processing time plus transmission time of the cut payload; an
    out-of-range cut raises :class:`ValidationError`, a negative or
    non-finite bandwidth :class:`~splitplan.errors.DomainError`."""
    profile = device.profile
    _check_cut(profile, cut)
    bits = profile.payload_bits(cut)
    local = profile.cum_workload[cut] / device.compute_flops
    rate = achievable_rate(bandwidth_hz, device.link)
    if rate <= 0.0:
        raise ZeroRate(f"cut {cut} must transmit {bits} bits but the rate is zero")
    return local + bits / rate


def residual_workload(profile: CutProfile, cut: int) -> int:
    """FLOPs left for the server after splitting at ``cut``."""
    _check_cut(profile, cut)
    return profile.total_workload - profile.cum_workload[cut]


def parallel_delay(device: Device, cut: int, bandwidth_hz: float,
                   server_flops: float) -> float:
    """Total delay when the server processes this device's residual in parallel."""
    residual = residual_workload(device.profile, cut)
    base = arrival_delay(device, cut, bandwidth_hz)
    if residual == 0:
        return base
    if not server_flops > 0:
        raise MissingServerCompute(
            f"cut {cut} leaves {residual} FLOPs for the server but its share is {server_flops}")
    return base + residual / server_flops


@dataclass(frozen=True)
class QueueState:
    """Arrival-ordered serial queue.

    ``order`` lists device ids sorted by ascending arrival (ties by id),
    ``completions`` follows the recursion
    I[0] = C[0] + F[0]/f, I[p] = max(I[p-1], C[p]) + F[p]/f,
    and ``breaks`` holds the 0-based queue positions p >= 1 whose data
    arrived after the previous job finished (I[p-1] < C[p]).
    """

    order: tuple[int, ...]
    arrivals: tuple[float, ...]
    residuals: tuple[float, ...]
    completions: tuple[float, ...]
    breaks: tuple[int, ...]
    server_flops: float

    @property
    def total_delay(self) -> float:
        return self.completions[-1] if self.completions else 0.0

    @property
    def num_subqueues(self) -> int:
        """Number of consecutive unbroken sub-queues (breaks + 1)."""
        return len(self.breaks) + 1 if self.order else 0


def queue_completions(arrivals, residuals, server_flops, ids=None) -> QueueState:
    """Evaluate the serial queue for the given jobs.

    Jobs are sorted by (arrival, id) — a stable, deterministic order — and the
    completion recursion and break set are computed exactly.
    """
    arrivals = [float(c) for c in arrivals]
    residuals = [float(f) for f in residuals]
    if len(arrivals) != len(residuals):
        raise ValidationError("arrivals and residuals must have equal length")
    if not server_flops > 0:  # NaN included
        raise ValidationError("server compute must be positive")
    ids = list(range(len(arrivals))) if ids is None else list(ids)
    order = sorted(range(len(arrivals)), key=lambda i: (arrivals[i], ids[i]))
    c = [arrivals[i] for i in order]
    f = [residuals[i] for i in order]
    completions: list[float] = []
    breaks: list[int] = []
    for p in range(len(order)):
        if p == 0:
            start = c[0]
        else:
            prev = completions[p - 1]
            if prev < c[p]:
                breaks.append(p)
            start = max(prev, c[p])
        completions.append(start + f[p] / server_flops)
    return QueueState(
        order=tuple(ids[i] for i in order),
        arrivals=tuple(c),
        residuals=tuple(f),
        completions=tuple(completions),
        breaks=tuple(breaks),
        server_flops=server_flops,
    )


def broken_queue_total(state: QueueState) -> float:
    """Closed-form total delay of the queue.

    Unbroken: first arrival plus the summed service times. Broken: the last
    break's arrival plus the service times from that position on — earlier
    sub-queues are already drained when the last gap closes.
    """
    if not state.order:
        return 0.0
    start = state.breaks[-1] if state.breaks else 0
    tail = sum(state.residuals[start:]) / state.server_flops
    return state.arrivals[start] + tail


def serial_total_delay(arrivals, residuals, server_flops):
    """Objective of a serial allocation: queue total vs. fully-local devices.

    Devices with zero residual never enter the queue (their delay is just the
    arrival time); returns ``(objective, state)`` where ``state`` covers the
    queued devices only, under their indices in ``arrivals``.
    """
    # numpy rows become lists once: indexing Python floats is cheaper
    arrivals, residuals = (v.tolist() if hasattr(v, "tolist") else v
                           for v in (arrivals, residuals))
    queued = [k for k in range(len(arrivals)) if residuals[k] > 0]
    local_only = [k for k in range(len(arrivals)) if residuals[k] <= 0]
    state = queue_completions(
        [arrivals[k] for k in queued],
        [residuals[k] for k in queued],
        server_flops,
        ids=queued,
    )
    objective = state.total_delay
    if local_only:
        objective = max(objective, max(arrivals[k] for k in local_only))
    return float(objective), state

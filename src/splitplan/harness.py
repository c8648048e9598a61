"""Seeded Monte-Carlo engine: trials, parameter sweeps, data tables, scaling bench.

Every trial derives its per-device fading deterministically from
``(seed, trial_index)``, so identical configs reproduce bit-identical
results regardless of execution order. Output units are seconds, hertz and
FLOP/s throughout.

The default experiment ships the bundled reference network with the noise
density ``DEFAULT_NOISE_DBM_PER_HZ_EXPERIMENT``: the physical thermal floor
is -174 dBm/Hz, but the bundled scenario pins a noisier default so that
transmission and computation are comparably expensive (the regime where
splitting is an interesting trade). Override ``channel.noise_dbm_per_hz``
in the config to change it; absolute delays scale with it directly.

:class:`ExperimentConfig` checks, coerces and completes its own values, so
a JSON config, a sweep value and a ``dataclasses.replace`` pass one set of rules.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import serial
from .arch import Architecture, _known_keys, _number, propagate, resolve_architecture
from .channel import LinkParams, trial_fading
from .delay import Device, NetworkInstance
from .errors import DomainError, SplitPlanError, ValidationError
from .parallel import (SolverSettings, first_layer_policy, min_data_layer_policy,
                       solve_p1, solve_p2)

#: Noise density of the bundled experiment defaults (dBm/Hz). Deliberately
#: above the -174 thermal floor: it puts the stock scenario where upload and
#: compute delays are the same order, which is where split execution is
#: interesting. Absolute delays scale with this number.
DEFAULT_NOISE_DBM_PER_HZ_EXPERIMENT = -169.0

POLICIES = {
    "p1": solve_p1,
    "p2": solve_p2,
    "min-data": min_data_layer_policy,
    "first-layer": first_layer_policy,
    "p3": serial.solve_p3,
    "queue-heuristic": serial.queue_heuristic,
    "queue-first-layer": serial.queue_first_layer_policy,
}

ALL_POLICIES = tuple(POLICIES)

#: Top-level config numbers, each with whether it must be whole.
_NUMBER_KEYS = {"devices": True, "device_flops": False, "server_flops": False,
                "bandwidth_hz": False, "trials": True, "seed": True}

_SOLVER_KEYS = tuple(f.name for f in fields(SolverSettings))


def default_channel() -> dict:
    return {
        "power_w": 1.0,
        "gain_tx_dbi": 1.0,
        "gain_rx_dbi": 10.0,
        "wavelength_m": 0.05,
        "distance_m": 50.0,
        "pathloss_exp": 2.4,
        "noise_dbm_per_hz": DEFAULT_NOISE_DBM_PER_HZ_EXPERIMENT,
    }


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: network scale, channel defaults, trials and policies.
    A partial ``channel`` is completed from :func:`default_channel`; whole
    floats are taken as ints; a bad value raises :class:`ValidationError`."""

    arch: str = "reference"  # bundled name or a config file path
    devices: int = 10
    device_flops: float = 30e9
    server_flops: float = 300e9
    bandwidth_hz: float = 200e6
    trials: int = 100
    seed: int = 7
    policies: tuple[str, ...] = ALL_POLICIES
    channel: dict = field(default_factory=default_channel)
    solver: SolverSettings = field(default_factory=SolverSettings)

    def __post_init__(self):
        for key, whole in _NUMBER_KEYS.items():
            object.__setattr__(self, key, _number(getattr(self, key), key, whole=whole))
        if self.trials < 1 or self.devices < 1:
            raise ValidationError("trial and device counts must be >= 1")
        if not all(v > 0 for v in (self.device_flops, self.server_flops, self.bandwidth_hz)):
            raise ValidationError("physical budgets must be positive")
        channel = {**default_channel(),
                   **_known_keys(self.channel, LinkParams.CONFIG_KEYS, "channel")}
        channel = {key: _number(value, f"channel {key}") for key, value in channel.items()}
        try:
            LinkParams.from_config(channel)  # overflows in the dB conversions
        except (OverflowError, DomainError) as exc:
            raise ValidationError(f"channel value out of range: {exc}") from None
        object.__setattr__(self, "channel", channel)
        if not isinstance(self.solver, SolverSettings):
            raise ValidationError(f"solver must be SolverSettings, not {self.solver!r}")
        if not isinstance(self.policies, (list, tuple)) or not self.policies:
            raise ValidationError(f"the policy list is empty or not a list: {self.policies!r}")
        object.__setattr__(self, "policies", tuple(self.policies))
        bad = [p for p in self.policies if not isinstance(p, str) or p not in POLICIES]
        if bad:
            raise ValidationError(f"unknown policies {bad}; choose from {sorted(POLICIES)}")

    @classmethod
    def from_dict(cls, cfg: dict) -> "ExperimentConfig":
        """The config of a JSON object; its keys are checked here, its values
        by the constructor."""
        named = dict(_known_keys(cfg, tuple(f.name for f in fields(cls)), "config"))
        named["solver"] = SolverSettings(
            **_known_keys(named.get("solver", {}), _SOLVER_KEYS, "solver"))
        return cls(**named)


def load_experiment_architecture(cfg: ExperimentConfig) -> Architecture:
    return resolve_architecture(cfg.arch)


#: Sweep parameter -> config setter; the config checks each value.
_SWEEPS = {
    "devices": lambda cfg, v: replace(cfg, devices=v),
    "power": lambda cfg, v: replace(cfg, channel={**cfg.channel, "power_w": v}),
    "bandwidth": lambda cfg, v: replace(cfg, bandwidth_hz=v),
    "fdev": lambda cfg, v: replace(cfg, device_flops=v),
    "fserver": lambda cfg, v: replace(cfg, server_flops=v),
    "iters": lambda cfg, v: replace(cfg, solver=replace(
        cfg.solver, max_alternations=v, outer_iters=v)),
}

SWEEP_PARAMS = tuple(_SWEEPS)


def apply_sweep_value(cfg: ExperimentConfig, param: str, value: float) -> ExperimentConfig:
    """``cfg`` with sweep parameter ``param`` set to ``value``."""
    if param not in _SWEEPS:
        raise ValidationError(f"unknown sweep parameter {param!r}; choose from {SWEEP_PARAMS}")
    if not 0 < value < math.inf:
        raise ValidationError("sweep values must be positive and finite")
    return _SWEEPS[param](cfg, value)


def build_network(cfg: ExperimentConfig, trial_index: int,
                  profile=None) -> NetworkInstance:
    """Network of one trial; fading depends on (seed, trial) only."""
    if profile is None:
        profile = propagate(load_experiment_architecture(cfg))
    base = LinkParams.from_config(cfg.channel)
    h2 = trial_fading(cfg.seed, trial_index, cfg.devices)
    devices = tuple(
        Device(link=base.with_fading(float(h)), compute_flops=cfg.device_flops,
               profile=profile)
        for h in h2)
    return NetworkInstance(devices, server_flops=cfg.server_flops,
                           total_bandwidth_hz=cfg.bandwidth_hz)


@dataclass(frozen=True)
class PolicyRecord:
    policy: str
    objective: float
    iterations: int
    error: str | None = None


@dataclass(frozen=True)
class TrialRecord:
    trial: int
    results: tuple[PolicyRecord, ...]


def run_trial(cfg: ExperimentConfig, trial_index: int, profile=None) -> TrialRecord:
    """Run every requested policy on one seeded network realization.

    A policy failure is recorded and does not abort the other policies.
    All policies share the network's :class:`~splitplan.parallel.CutTable`
    and its memo, so work one policy repeats from another (``p2`` and the
    min-data convex step, both done inside ``p1``) is solved once per trial.
    """
    net = build_network(cfg, trial_index, profile=profile)
    records = []
    for name in cfg.policies:
        try:
            plan = POLICIES[name](net, cfg.solver)
            records.append(PolicyRecord(
                policy=name, objective=plan.objective, iterations=plan.iterations))
        except SplitPlanError as exc:
            records.append(PolicyRecord(
                policy=name, objective=math.nan, iterations=0,
                error=f"{type(exc).__name__}: {exc}"))
    return TrialRecord(trial=trial_index, results=tuple(records))


@dataclass(frozen=True)
class SweepResult:
    """Aggregated results: one row per (sweep value, policy)."""

    param: str
    values: tuple[float, ...]
    policies: tuple[str, ...]
    rows: tuple[dict, ...]  # sweep_value, policy, mean_delay_s, std_s, n_trials

    def mean(self, value, policy) -> float:
        for row in self.rows:
            if row["sweep_value"] == value and row["policy"] == policy:
                return row["mean_delay_s"]
        raise KeyError((value, policy))


def _aggregate(value, policy, objectives) -> dict:
    good = [o for o in objectives if not math.isnan(o)]
    n = len(good)
    mean = float(np.mean(good)) if good else math.nan
    std = float(np.std(good, ddof=1)) if n > 1 else 0.0
    return {
        "sweep_value": value,
        "policy": policy,
        "mean_delay_s": mean,
        "std_s": std,
        "n_trials": n,
    }


def run_sweep(cfg: ExperimentConfig, param: str | None = None,
              values=()) -> SweepResult:
    """Trials of ``cfg`` with ``param`` set to each of ``values`` in turn;
    without a sweep, a single pseudo-value row set (value 0.0, param "none").

    Every value is checked before the first trial. Fading draws depend on
    (seed, trial) only, so every sweep value sees the same channel
    realizations (paired comparisons).
    """
    values = tuple(values)
    if param is None:
        if values:
            raise ValidationError("sweep values given without a sweep param")
        param, values, subs = "none", (0.0,), (cfg,)
    elif not values:
        raise ValidationError("sweep values must be non-empty")
    else:
        subs = tuple(apply_sweep_value(cfg, param, v) for v in values)
    profile = propagate(load_experiment_architecture(cfg))  # no sweep changes arch
    rows = []
    for value, sub in zip(values, subs):
        objectives = {p: [] for p in sub.policies}
        for trial in range(sub.trials):
            for pr in run_trial(sub, trial, profile=profile).results:
                objectives[pr.policy].append(pr.objective)
        rows.extend(_aggregate(value, p, objectives[p]) for p in sub.policies)
    return SweepResult(param=param, values=values, policies=cfg.policies,
                       rows=tuple(rows))


def write_tables(result: SweepResult, out_dir) -> list[Path]:
    """One two-column .dat file per (policy, sweep) plus a combined CSV.

    Deterministic formatting, so fixed-seed reruns are byte-identical.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    csv_path = out / "summary.csv"
    lines = ["sweep_value,policy,mean_delay_s,std_s,n_trials"]
    for row in result.rows:
        lines.append("{:.12g},{},{:.12g},{:.12g},{}".format(
            row["sweep_value"], row["policy"], row["mean_delay_s"],
            row["std_s"], row["n_trials"]))
    csv_path.write_text("\n".join(lines) + "\n")
    written.append(csv_path)
    for policy in result.policies:
        rows = [r for r in result.rows if r["policy"] == policy]
        if not rows:
            continue
        path = out / f"{result.param}_{policy}.dat"
        body = "".join("{:.12g} {:.12g}\n".format(r["sweep_value"], r["mean_delay_s"])
                       for r in rows)
        path.write_text(body)
        written.append(path)
    return written


def bench_scaling(cfg: ExperimentConfig, k_list, trials: int = 5) -> dict:
    """Median policy wall times versus device count, plus growth ratios.

    Only orderings are meaningful; the returned ``ordering`` flags compare
    the joint solvers' growth against their lightweight counterparts. A
    failed solve is not a timing: its ``SplitPlanError`` propagates.
    """
    k_list = [int(k) for k in k_list]
    if k_list != sorted(k_list):
        raise ValidationError("device counts must be ascending")
    profile = propagate(load_experiment_architecture(cfg))
    table: dict[str, dict[int, float]] = {p: {} for p in cfg.policies}
    for k in k_list:
        sub = replace(cfg, devices=k)
        for policy in cfg.policies:
            walls = []
            for trial in range(trials):
                net = build_network(sub, trial, profile=profile)
                t0 = time.perf_counter()
                POLICIES[policy](net, sub.solver)
                walls.append(time.perf_counter() - t0)
            table[policy][k] = float(np.median(walls))

    def growth(policy):
        pts = table.get(policy, {})
        if len(k_list) < 2 or not pts:
            return None
        return pts[k_list[-1]] / pts[k_list[0]]

    ratios = {p: growth(p) for p in cfg.policies}
    ordering = {}
    if len(k_list) >= 2:
        if "p1" in ratios and "p2" in ratios:
            ordering["p2_grows_slower_than_p1"] = bool(ratios["p2"] < ratios["p1"])
        if "p3" in ratios and "queue-heuristic" in ratios:
            ordering["heuristic_grows_slower_than_p3"] = bool(
                ratios["queue-heuristic"] < ratios["p3"])
    return {"k_list": k_list, "median_wall_s": table,
            "growth_ratio": ratios, "ordering": ordering}

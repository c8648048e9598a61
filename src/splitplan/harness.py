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
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import serial
from .arch import (Architecture, _known_keys, _number, _parse_json, propagate,
                   resolve_architecture)
from .channel import LinkParams, trial_fading
from .delay import Device, NetworkInstance
from .errors import SplitPlanError, ValidationError
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

SWEEP_PARAMS = ("devices", "power", "bandwidth", "fdev", "fserver", "iters")


_CONFIG_KEYS = ("arch", "devices", "device_flops", "server_flops", "bandwidth_hz",
                "trials", "seed", "policies", "channel", "sweep", "solver")

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
    """One experiment: network scale, channel defaults, trials and policies."""

    arch: str = "reference"  # bundled name or a config file path
    devices: int = 10
    device_flops: float = 30e9
    server_flops: float = 300e9
    bandwidth_hz: float = 200e6
    trials: int = 100
    seed: int = 7
    policies: tuple[str, ...] = ALL_POLICIES
    channel: dict = field(default_factory=default_channel)
    sweep_param: str | None = None
    sweep_values: tuple[float, ...] = ()
    solver: SolverSettings = field(default_factory=SolverSettings)

    def __post_init__(self):
        object.__setattr__(self, "policies", tuple(self.policies))
        object.__setattr__(self, "sweep_values", tuple(self.sweep_values))
        if self.trials < 1:
            raise ValidationError("trial count must be >= 1")
        if self.devices < 1:
            raise ValidationError("device count must be >= 1")
        if not all(0 < v < math.inf
                   for v in (self.device_flops, self.server_flops, self.bandwidth_hz)):
            raise ValidationError("physical budgets must be positive and finite")
        if not self.policies:
            raise ValidationError("the policy list is empty")
        bad = [p for p in self.policies if p not in POLICIES]
        if bad:
            raise ValidationError(f"unknown policies {bad}; choose from {sorted(POLICIES)}")
        if self.sweep_param is None and self.sweep_values:
            raise ValidationError("sweep values given without a sweep param")
        if self.sweep_param is not None:
            if self.sweep_param not in SWEEP_PARAMS:
                raise ValidationError(
                    f"unknown sweep parameter {self.sweep_param!r}; choose from {SWEEP_PARAMS}")
            if not self.sweep_values:
                raise ValidationError("sweep values must be non-empty")
            if not all(0 < v < math.inf for v in self.sweep_values):
                raise ValidationError("sweep values must be positive and finite")
            if self.sweep_param in ("devices", "iters") and not all(
                    float(v).is_integer() for v in self.sweep_values):
                raise ValidationError(f"{self.sweep_param} sweep values must be integers")

    @classmethod
    def from_dict(cls, cfg: dict) -> "ExperimentConfig":
        _known_keys(cfg, _CONFIG_KEYS, "config")
        chan = default_channel()
        chan.update(_known_keys(cfg.get("channel", {}), LinkParams.CONFIG_KEYS, "channel"))
        sweep = _known_keys(cfg.get("sweep", {}), ("param", "values"), "sweep")
        solver = dict(_known_keys(cfg.get("solver", {}), _SOLVER_KEYS, "solver"))
        try:
            for cap in ("max_alternations", "outer_iters"):
                if cap in solver:
                    solver[cap] = _number(solver[cap], whole=True)
            channel = {key: _number(value) for key, value in chan.items()}
            LinkParams.from_config(channel)  # overflows in the dB conversions
            return cls(
                arch=cfg.get("arch", "reference"),
                devices=_number(cfg.get("devices", 10), whole=True),
                device_flops=_number(cfg.get("device_flops", 30e9)),
                server_flops=_number(cfg.get("server_flops", 300e9)),
                bandwidth_hz=_number(cfg.get("bandwidth_hz", 200e6)),
                trials=_number(cfg.get("trials", 100), whole=True),
                seed=_number(cfg.get("seed", 7), whole=True),
                policies=tuple(cfg.get("policies", ALL_POLICIES)),
                channel=channel,
                sweep_param=sweep.get("param"),
                sweep_values=tuple(_number(v) for v in sweep.get("values", ())),
                solver=SolverSettings(**solver),
            )
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValidationError(f"bad config value: {exc}") from None

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        return cls.from_dict(_parse_json(text))


def load_experiment_architecture(cfg: ExperimentConfig) -> Architecture:
    return resolve_architecture(cfg.arch)


def apply_sweep_value(cfg: ExperimentConfig, value: float) -> ExperimentConfig:
    param = cfg.sweep_param
    if param == "devices":
        return replace(cfg, devices=int(value))
    if param == "power":
        chan = dict(cfg.channel)
        chan["power_w"] = float(value)
        return replace(cfg, channel=chan)
    if param == "bandwidth":
        return replace(cfg, bandwidth_hz=float(value))
    if param == "fdev":
        return replace(cfg, device_flops=float(value))
    if param == "fserver":
        return replace(cfg, server_flops=float(value))
    if param == "iters":
        caps = replace(cfg.solver, max_alternations=int(value), outer_iters=int(value))
        return replace(cfg, solver=caps)
    raise ValidationError(f"unknown sweep parameter {param!r}")


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
    wall_s: float
    error: str | None = None


@dataclass(frozen=True)
class TrialRecord:
    trial: int
    results: tuple[PolicyRecord, ...]


def run_trial(cfg: ExperimentConfig, trial_index: int, profile=None) -> TrialRecord:
    """Run every requested policy on one seeded network realization.

    A policy failure is recorded and does not abort the other policies.
    """
    net = build_network(cfg, trial_index, profile=profile)
    records = []
    for name in cfg.policies:
        t0 = time.perf_counter()
        try:
            plan = POLICIES[name](net, cfg.solver)
            records.append(PolicyRecord(
                policy=name, objective=plan.objective,
                iterations=plan.iterations, wall_s=time.perf_counter() - t0))
        except SplitPlanError as exc:
            records.append(PolicyRecord(
                policy=name, objective=math.nan, iterations=0,
                wall_s=time.perf_counter() - t0,
                error=f"{type(exc).__name__}: {exc}"))
    return TrialRecord(trial=trial_index, results=tuple(records))


@dataclass(frozen=True)
class SweepResult:
    """Aggregated results: one row per (sweep value, policy)."""

    param: str
    values: tuple[float, ...]
    policies: tuple[str, ...]
    trials: int
    rows: tuple[dict, ...]  # value, policy, mean_delay_s, std_s, n_trials, ...

    def mean(self, value, policy) -> float:
        for row in self.rows:
            if row["sweep_value"] == value and row["policy"] == policy:
                return row["mean_delay_s"]
        raise KeyError((value, policy))


def _aggregate(value, policy, objectives, iters, walls) -> dict:
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
        "mean_iterations": float(np.mean(iters)) if iters else 0.0,
        "mean_wall_s": float(np.mean(walls)) if walls else 0.0,
    }


def run_sweep(cfg: ExperimentConfig) -> SweepResult:
    """Trials x sweep values; without a sweep, a single pseudo-value row set.

    Fading draws depend on (seed, trial) only, so every sweep value sees the
    same channel realizations (paired comparisons).
    """
    values = cfg.sweep_values if cfg.sweep_param else (0.0,)
    param = cfg.sweep_param or "none"
    rows = []
    for value in values:
        sub = apply_sweep_value(cfg, value) if cfg.sweep_param else cfg
        profile = propagate(load_experiment_architecture(sub))
        per_policy = {p: ([], [], []) for p in sub.policies}
        for trial in range(sub.trials):
            rec = run_trial(sub, trial, profile=profile)
            for pr in rec.results:
                objs, iters, walls = per_policy[pr.policy]
                objs.append(pr.objective)
                iters.append(pr.iterations)
                walls.append(pr.wall_s)
        for policy in sub.policies:
            objs, iters, walls = per_policy[policy]
            rows.append(_aggregate(value, policy, objs, iters, walls))
    return SweepResult(param=param, values=tuple(values), policies=cfg.policies,
                       trials=cfg.trials, rows=tuple(rows))


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
        sub = replace(cfg, devices=k, sweep_param=None, sweep_values=())
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

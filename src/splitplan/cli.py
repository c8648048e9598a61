"""Command-line front end.

Subcommands: ``simulate`` (Monte-Carlo trials at one operating point),
``sweep`` (parameter sweep with data-table output), ``profile`` (dump an
architecture's per-cut table), ``oracle`` (brute-force baseline on a toy
instance) and ``bench`` (policy wall-time scaling). Errors derived from the
package's base exception exit with code 2 and a JSON payload on stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace

from .arch import propagate, read_config, resolve_architecture
from .errors import SplitPlanError, ValidationError
from .harness import (ALL_POLICIES, SWEEP_PARAMS, ExperimentConfig, bench_scaling,
                      build_network, run_sweep, write_tables)
from .oracle import GridSpec, oracle_parallel, oracle_serial

#: Trials per device count for ``bench`` when neither flag nor config sets them.
_BENCH_TRIALS = 5


def _number_list(text: str, convert, option: str) -> list:
    try:
        return [convert(v) for v in text.split(",")]
    except ValueError:
        raise ValidationError(
            f"{option} takes comma-separated numbers, got {text!r}") from None


def _config_from_args(args, **defaults) -> ExperimentConfig:
    """The config file over ``defaults``, and the command-line flags over both."""
    raw = read_config(args.config) if getattr(args, "config", None) else {}
    if isinstance(raw, dict):  # anything else is refused by from_dict
        raw = {**defaults, **raw}
    base = ExperimentConfig.from_dict(raw)
    overrides = {}
    for name in ("seed", "trials", "devices"):
        value = getattr(args, name, None)
        if value is not None:
            overrides[name] = value
    if getattr(args, "policy", None):
        overrides["policies"] = tuple(p.strip() for p in args.policy.split(",") if p.strip())
    if overrides:
        base = replace(base, **overrides)
    return base


def _cmd_simulate(args) -> int:
    cfg = _config_from_args(args)
    result = run_sweep(cfg)
    print(f"policies over {cfg.trials} trials (seed {cfg.seed}, {cfg.devices} devices):")
    for row in sorted(result.rows, key=lambda r: r["mean_delay_s"]):
        print("  {:>18s}  mean {:.6g} s  std {:.3g} s  n={}".format(
            row["policy"], row["mean_delay_s"], row["std_s"], row["n_trials"]))
    if args.out:
        paths = write_tables(result, args.out)
        print("wrote " + ", ".join(str(p) for p in paths))
    return 0


def _cmd_sweep(args) -> int:
    cfg = _config_from_args(args)
    values = tuple(_number_list(args.values, float, "--values"))
    result = run_sweep(cfg, args.param, values)
    paths = write_tables(result, args.out)
    print(f"swept {args.param} over {values} ({cfg.trials} trials each)")
    print("wrote " + ", ".join(str(p) for p in paths))
    return 0


def _cmd_profile(args) -> int:
    profile = propagate(resolve_architecture(args.arch))
    if args.json:
        print(json.dumps({
            "cum_workload_flops": profile.cum_workload,
            "transmit_bits": profile.transmit_bits,
            "index_bits": profile.index_bits,
        }))
        return 0
    print(f"{'cut':>4s} {'cum_flops':>16s} {'transmit_bits':>14s} {'index_bits':>11s}")
    for cut in range(profile.num_cuts + 1):
        print(f"{cut:>4d} {profile.cum_workload[cut]:>16d} "
              f"{profile.transmit_bits[cut]:>14d} {profile.index_bits[cut]:>11d}")
    return 0


def _cmd_oracle(args) -> int:
    cfg = _config_from_args(args)
    cfg = replace(cfg, arch=args.arch)
    net = build_network(cfg, args.trial)
    grid = GridSpec(bandwidth_points=args.grid_points)
    solve = oracle_parallel if args.mode == "parallel" else oracle_serial
    res = solve(net, grid)
    print(json.dumps({
        "mode": args.mode,
        "objective_s": res.objective,
        "cuts": list(res.cuts),
        "bandwidth_hz": list(res.bandwidth_hz),
    }))
    return 0


def _cmd_bench(args) -> int:
    cfg = _config_from_args(args, trials=_BENCH_TRIALS)
    k_list = _number_list(args.k, int, "--k")
    out = bench_scaling(cfg, k_list, trials=cfg.trials)
    print(json.dumps(out, indent=1))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="splitplan",
        description="Split-execution delay planner for bottleneck-module CNNs")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="experiment config JSON")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--devices", type=int, default=None)

    def trial_flags(p, default_trials=ExperimentConfig.trials):
        common(p)
        p.add_argument("--trials", type=int,
                       help=f"trials per point (default: the config's, else {default_trials})")
        p.add_argument("--policy", help="comma-separated policy list "
                                        f"(default all: {','.join(ALL_POLICIES)})")

    p = sub.add_parser("simulate", help="Monte-Carlo trials at one operating point")
    trial_flags(p)
    p.add_argument("--out", help="directory for data tables")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("sweep", help="sweep one parameter and write data tables")
    trial_flags(p)
    p.add_argument("--param", required=True, choices=SWEEP_PARAMS)
    p.add_argument("--values", required=True, help="comma-separated values")
    p.add_argument("--out", default="results", help="output directory")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("profile", help="dump an architecture's per-cut table")
    p.add_argument("--arch", default="reference",
                   help="'reference', 'toy' or a config file path")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_profile)

    p = sub.add_parser("oracle", help="brute-force baseline on a toy instance")
    common(p)
    p.add_argument("--mode", choices=["parallel", "serial"], default="parallel")
    p.add_argument("--arch", default="toy",
                   help="'toy', 'reference' or a config file path; replaces any config arch")
    p.add_argument("--trial", type=int, default=0, help="trial index for fading")
    p.add_argument("--grid-points", type=int, default=101)
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("bench", help="policy wall-time scaling versus device count")
    trial_flags(p, _BENCH_TRIALS)
    p.add_argument("--k", default="4,8,16", help="comma-separated device counts")
    p.set_defaults(func=_cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (SplitPlanError, OSError) as exc:  # OSError: a missing or unreadable file
        json.dump({"error": type(exc).__name__, "message": str(exc)}, sys.stderr)
        sys.stderr.write("\n")
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()

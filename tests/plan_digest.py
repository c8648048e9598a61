"""Fixed-seed plan digest: one SHA-256 over every plan of a fixed instance set.

A refactor that must keep plans bit-identical prints the same digest before
and after. One that is not bit-identical dumps the objectives on both sides
and states the largest relative difference as its tolerance. Not collected
by pytest; run it as

    PYTHONPATH=src:tests python tests/plan_digest.py [--dump OUT.json]
    PYTHONPATH=src:tests python tests/plan_digest.py --compare BEFORE.json AFTER.json

Each plan hashes ``repr((cuts, bandwidth_hz, server_flops, delays, objective,
objective_history, iterations))``; an oracle result hashes ``(objective,
cuts, bandwidth_hz)`` and a ``SplitPlanError`` hashes ``("err", type name,
message)``. Inputs, in order: all policies on trials 0-5 of
``ExperimentConfig(devices=k)`` for k = 4, 10, 16; then, from
``default_rng(2024)``, 8 oracle-benchmark networks under all policies and
both 21-point oracles, and 20 random fleets of 5-9 devices under ``p1``,
``p3``, ``queue-heuristic`` and ``queue-first-layer``; then the same 20
fleets under the non-default settings in ``FLEET_SETTINGS``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math

import numpy as np

from conftest import oracle_benchmark_network, random_network
from splitplan.arch import propagate
from splitplan.errors import SplitPlanError
from splitplan.harness import (POLICIES, ExperimentConfig, build_network,
                               load_experiment_architecture)
from splitplan.oracle import GridSpec, oracle_parallel, oracle_serial
from splitplan.parallel import SolverSettings

FLEET_POLICIES = ("p1", "p3", "queue-heuristic", "queue-first-layer")

#: (policy, settings) pairs that run a loop away from its default: a short
#: alternation cap for the three alternating policies, and each serial rule.
FLEET_SETTINGS = (
    ("p1", SolverSettings(max_alternations=2)),
    ("p2", SolverSettings(max_alternations=2)),
    ("p3", SolverSettings(max_alternations=2)),
    ("p3", SolverSettings(p3_layer_rule="c-only")),
    ("queue-heuristic", SolverSettings(strict_breaks=True)),
)


def _key(solve, net):
    try:
        plan = solve(net)
    except SplitPlanError as exc:
        return ("err", type(exc).__name__, str(exc))
    if hasattr(plan, "delays"):
        return (plan.cuts, plan.bandwidth_hz, plan.server_flops, plan.delays,
                plan.objective, plan.objective_history, plan.iterations)
    return (plan.objective, plan.cuts, plan.bandwidth_hz)


def plan_keys():
    """Yield the hashed key of every plan, in the fixed order."""
    for k in (4, 10, 16):
        cfg = ExperimentConfig(devices=k)
        profile = propagate(load_experiment_architecture(cfg))
        for trial in range(6):
            net = build_network(cfg, trial, profile=profile)
            for solve in POLICIES.values():
                yield _key(solve, net)
    rng = np.random.default_rng(2024)
    grid = GridSpec(bandwidth_points=21)
    for _ in range(8):
        net = oracle_benchmark_network(rng)
        for solve in POLICIES.values():
            yield _key(solve, net)
        yield _key(lambda n: oracle_parallel(n, grid), net)
        yield _key(lambda n: oracle_serial(n, grid), net)
    fleets = [random_network(rng, devices=int(rng.integers(5, 10))) for _ in range(20)]
    for net in fleets:
        for name in FLEET_POLICIES:
            yield _key(POLICIES[name], net)
    for net in fleets:
        for name, settings in FLEET_SETTINGS:
            yield _key(lambda n: POLICIES[name](n, settings), net)


def _objective(key):
    """The objective of a key, or the error's name for a failed solve."""
    if key[0] == "err":
        return key[1]
    return key[4] if len(key) == 7 else key[0]


def largest_rel_diff(before, after):
    """Largest ``|a - b| / |a|`` over two objective dumps; ``inf`` when the
    dumps differ in length or a solve fails on one side only."""
    if len(before) != len(after):
        return math.inf
    worst = 0.0
    for a, b in zip(before, after):
        if isinstance(a, str) or isinstance(b, str):
            if a != b:
                return math.inf
        elif a != b:
            worst = max(worst, abs(a - b) / abs(a))
    return worst


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dump", metavar="OUT.json",
                        help="also write every objective to this JSON file")
    parser.add_argument("--compare", nargs=2, metavar=("BEFORE.json", "AFTER.json"),
                        help="print the largest relative objective difference "
                             "between two dumps and exit")
    args = parser.parse_args(argv)
    if args.compare:
        before, after = (json.load(open(path)) for path in args.compare)
        diffs = sum(a != b for a, b in zip(before, after))
        print(f"{len(before)} vs {len(after)} objectives, {diffs} differ, "
              f"largest relative difference {largest_rel_diff(before, after):.3g}")
        return
    digest = hashlib.sha256()
    objectives = []
    for key in plan_keys():
        digest.update(repr(key).encode())
        objectives.append(_objective(key))
    print(len(objectives), digest.hexdigest())
    if args.dump:
        with open(args.dump, "w") as out:
            json.dump(objectives, out)


if __name__ == "__main__":
    main()

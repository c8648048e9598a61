"""Fixed-seed plan digest: one SHA-256 over every plan of a fixed instance set.

A refactor that must keep plans bit-identical prints the same digest before
and after. One that is not bit-identical dumps each plan's label, objective
and hash on both sides and states the largest relative objective difference
as its tolerance; ``--compare`` also breaks the differences down by policy
(or oracle) label, so the plans that set the tolerance are named, and gives
each label's largest relative rise and fall, so the tolerance says whether
any plan got worse. Not collected by pytest; run it as

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
fleets under the short alternation caps in ``FLEET_SETTINGS``; then, from
``default_rng(2026)``, 30 ragged fleets of 2-8 devices with 1-6 modules each
under all policies and 6 two-device ragged fleets under both 21-point
oracles. The ragged fleets' cut tables are padded. Then all policies on
trials 0-5 of ``ExperimentConfig(devices=3)`` on the zero-workload network
of ``conftest.zero_workload_network``, whose target-delay floor is 0. Last,
all policies on trials 0-5 of ``ExperimentConfig(server_flops=1e-300,
devices=3)``, where only the all-local cuts have a finite delay.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math

import numpy as np

from conftest import (oracle_benchmark_network, ragged_network, random_network,
                      zero_workload_network)
from splitplan.arch import propagate
from splitplan.errors import SplitPlanError
from splitplan.harness import (POLICIES, ExperimentConfig, build_network,
                               load_experiment_architecture)
from splitplan.oracle import GridSpec, oracle_parallel, oracle_serial
from splitplan.parallel import SolverSettings

FLEET_POLICIES = ("p1", "p3", "queue-heuristic", "queue-first-layer")

#: (policy, settings) pairs that run a loop away from its default: a short
#: alternation cap for the two alternating policies, ``p1`` and ``p3``, and
#: for ``p2``, which has no loop, so the cap must leave its plans as they are.
FLEET_SETTINGS = (
    ("p1", SolverSettings(max_alternations=2)),
    ("p2", SolverSettings(max_alternations=2)),
    ("p3", SolverSettings(max_alternations=2)),
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
    """Yield ``(label, key)`` for every plan, in the fixed order; the label is
    the policy name or ``oracle-parallel`` / ``oracle-serial``."""
    for k in (4, 10, 16):
        cfg = ExperimentConfig(devices=k)
        profile = propagate(load_experiment_architecture(cfg))
        for trial in range(6):
            net = build_network(cfg, trial, profile=profile)
            for name, solve in POLICIES.items():
                yield name, _key(solve, net)
    rng = np.random.default_rng(2024)
    grid = GridSpec(bandwidth_points=21)
    for _ in range(8):
        net = oracle_benchmark_network(rng)
        for name, solve in POLICIES.items():
            yield name, _key(solve, net)
        yield "oracle-parallel", _key(lambda n: oracle_parallel(n, grid), net)
        yield "oracle-serial", _key(lambda n: oracle_serial(n, grid), net)
    fleets = [random_network(rng, devices=int(rng.integers(5, 10))) for _ in range(20)]
    for net in fleets:
        for name in FLEET_POLICIES:
            yield name, _key(POLICIES[name], net)
    for net in fleets:
        for name, settings in FLEET_SETTINGS:
            yield name, _key(lambda n: POLICIES[name](n, settings), net)
    rng = np.random.default_rng(2026)
    for _ in range(30):
        net = ragged_network(rng, devices=int(rng.integers(2, 9)))
        for name, solve in POLICIES.items():
            yield name, _key(solve, net)
    for _ in range(6):
        net = ragged_network(rng, devices=2)
        yield "oracle-parallel", _key(lambda n: oracle_parallel(n, grid), net)
        yield "oracle-serial", _key(lambda n: oracle_serial(n, grid), net)
    for trial in range(6):
        net = zero_workload_network(trial)
        for name, solve in POLICIES.items():
            yield name, _key(solve, net)
    cfg = ExperimentConfig(server_flops=1e-300, devices=3)
    for trial in range(6):
        net = build_network(cfg, trial)
        for name, solve in POLICIES.items():
            yield name, _key(solve, net)


def _objective(key):
    """The objective of a key, or the error's name for a failed solve."""
    if key[0] == "err":
        return key[1]
    return key[4] if len(key) == 7 else key[0]


def largest_rel_moves(before, after):
    """``(rise, fall)`` over two objective dumps: the largest relative rise
    ``(b - a) / |a|`` and the largest relative fall ``(a - b) / |a|``, each 0
    when no objective moved that way. An objective is a delay, so a rise is
    a worse plan. Both are ``inf`` when the dumps differ in length or a solve
    fails on one side only."""
    if len(before) != len(after):
        return math.inf, math.inf
    rise = fall = 0.0
    for a, b in zip(before, after):
        if isinstance(a, str) or isinstance(b, str):
            if a != b:
                return math.inf, math.inf
        elif b > a:
            rise = max(rise, (b - a) / abs(a))
        elif b < a:
            fall = max(fall, (a - b) / abs(a))
    return rise, fall


def largest_rel_diff(before, after):
    """Largest ``|a - b| / |a|`` over two objective dumps; ``inf`` when the
    dumps differ in length or a solve fails on one side only."""
    return max(largest_rel_moves(before, after))


def _report(label, before, after):
    """One line per label: how many objectives and whole plans differ between
    two dumps of ``(label, objective, plan hash)`` entries, the largest
    relative objective difference, and the largest relative rise (a worse
    plan) and fall (a better one)."""
    objs = [[e[1] for e in dump] for dump in (before, after)]
    diffs = sum(a != b for a, b in zip(*objs))
    plans = sum(a[2] != b[2] for a, b in zip(before, after))
    rise, fall = largest_rel_moves(*objs)
    print(f"{label}: {len(before)} vs {len(after)} plans, {plans} not bit-identical, "
          f"{diffs} objectives differ, largest relative difference "
          f"{max(rise, fall):.3g} (rise {rise:.3g}, fall {fall:.3g})")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dump", metavar="OUT.json",
                        help="also write every plan's label, objective and hash "
                             "to this JSON file")
    parser.add_argument("--compare", nargs=2, metavar=("BEFORE.json", "AFTER.json"),
                        help="print, overall and per label, how many plans and "
                             "objectives differ between two dumps, the largest "
                             "relative objective difference and the largest "
                             "relative rise and fall, and exit")
    args = parser.parse_args(argv)
    if args.compare:
        before, after = (json.load(open(path)) for path in args.compare)
        _report("all", before, after)
        if [e[0] for e in before] == [e[0] for e in after]:
            for label in dict.fromkeys(e[0] for e in before):
                _report(label, *([e for e in dump if e[0] == label]
                                 for dump in (before, after)))
        return
    digest = hashlib.sha256()
    entries = []
    for label, key in plan_keys():
        text = repr(key).encode()
        digest.update(text)
        entries.append((label, _objective(key), hashlib.sha256(text).hexdigest()))
    print(len(entries), digest.hexdigest())
    if args.dump:
        with open(args.dump, "w") as out:
            json.dump(entries, out)


if __name__ == "__main__":
    main()

"""Fixed-seed plan digest: one SHA-256 over every plan of a fixed instance set.

A refactor that must keep plans bit-identical prints the same digest before
and after. Not collected by pytest; run it as

    PYTHONPATH=src:tests python tests/plan_digest.py

Each plan hashes ``repr((cuts, bandwidth_hz, server_flops, delays, objective,
objective_history))``; an oracle result hashes ``(objective, cuts,
bandwidth_hz)`` and a ``SplitPlanError`` hashes ``("err", type name,
message)``. Inputs, in order: all policies on trials 0-5 of
``ExperimentConfig(devices=k)`` for k = 4, 10, 16; then, from
``default_rng(2024)``, 8 oracle-benchmark networks under all policies and
both 21-point oracles, and 20 random fleets of 5-9 devices under ``p1``,
``p3``, ``queue-heuristic`` and ``queue-first-layer``.
"""

from __future__ import annotations

import hashlib

import numpy as np

from conftest import oracle_benchmark_network, random_network
from splitplan.arch import propagate
from splitplan.errors import SplitPlanError
from splitplan.harness import (POLICIES, ExperimentConfig, build_network,
                               load_experiment_architecture)
from splitplan.oracle import GridSpec, oracle_parallel, oracle_serial

FLEET_POLICIES = ("p1", "p3", "queue-heuristic", "queue-first-layer")


def _key(solve, net):
    try:
        plan = solve(net)
    except SplitPlanError as exc:
        return ("err", type(exc).__name__, str(exc))
    if hasattr(plan, "delays"):
        return (plan.cuts, plan.bandwidth_hz, plan.server_flops, plan.delays,
                plan.objective, plan.objective_history)
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
    for _ in range(20):
        net = random_network(rng, devices=int(rng.integers(5, 10)))
        for name in FLEET_POLICIES:
            yield _key(POLICIES[name], net)


def main():
    digest = hashlib.sha256()
    count = 0
    for key in plan_keys():
        digest.update(repr(key).encode())
        count += 1
    print(count, digest.hexdigest())


if __name__ == "__main__":
    main()

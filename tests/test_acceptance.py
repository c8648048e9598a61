"""End-to-end acceptance checks.

Each criterion runs at its stated tolerance and prints one pass/fail line.
Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines live.
"""

import dataclasses
import math
import time

import numpy as np
import pytest

from conftest import oracle_benchmark_network, random_network
from splitplan.arch import propagate, reference_architecture
from splitplan.delay import queue_completions, broken_queue_total
from splitplan.errors import NoExcess, StalledBreak
from splitplan.harness import ExperimentConfig, bench_scaling, run_sweep, write_tables
from splitplan.oracle import GridSpec, dense_root_scan, oracle_parallel, oracle_serial
from splitplan.parallel import CutTable, SolverSettings, equal_delay_split, solve_p1
from splitplan.serial import queue_heuristic, reallocate_once, solve_p3, _serial_eval
from test_serial import random_broken_queue

pytestmark = pytest.mark.acceptance


def _report(num, desc, ok):
    print(f"\n[criterion {num}] {'PASS' if ok else 'FAIL'}: {desc}", flush=True)
    assert ok, f"criterion {num} failed: {desc}"


def test_criterion_1_equal_delay_split_suite():
    """10^4 random equal-delay problems: root bracket, positivity, budget, spread.

    The per-instance scan uses 2000 points so the whole suite fits the 30 s
    budget; the million-point scan runs on 50 instances in the unit suite.
    """
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    ok = True
    for _ in range(10_000):
        k = int(rng.integers(2, 33))
        arrivals = rng.uniform(0.05, 5.0, k)
        residuals = rng.uniform(5e8, 5e10, k)
        budget = rng.uniform(1e10, 5e11)
        shares, _ = equal_delay_split(arrivals, residuals, budget)
        x0 = shares[np.argmin(arrivals)]  # the anchor: the earliest arrival
        lo, hi = dense_root_scan(arrivals, residuals, budget, points=2000)
        ok &= bool(lo * (1 - 1e-9) <= x0 <= hi * (1 + 1e-9))
        ok &= bool(np.all(shares > 0))
        ok &= abs(shares.sum() - budget) <= 1e-9 * budget
        delays = arrivals + residuals / shares
        ok &= (delays.max() - delays.min()) <= 1e-6 * delays.max()
        if not ok:
            break
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 30.0
    _report(1, f"equal-delay split suite (10^4 instances, {elapsed:.1f}s < 30s)", ok)


def test_criterion_2_worked_closed_form():
    """Arrivals (1,2) s, residuals (10,10) GFLOP, budget 10 GFLOP/s."""
    shares, _ = equal_delay_split([1.0, 2.0], [10e9, 10e9], 10e9)
    root = (15.0 - math.sqrt(125.0)) * 1e9
    other = (math.sqrt(125.0) - 5.0) * 1e9
    delay = 1.0 + 10e9 / shares[0]
    want = 1.0 + 10.0 / (15.0 - math.sqrt(125.0))
    ok = (abs(shares[0] - root) <= 1e-9 * root
          and abs(shares[1] - other) <= 1e-9 * other
          and abs(delay - want) <= 1e-9 * want)
    _report(2, "worked two-device split matches the analytic quadratic", ok)


def test_criterion_3_queue_recursion_vs_closed_form():
    """10^4 random queues: recursion equals the closed form to 1e-12."""
    rng = np.random.default_rng(103)
    ok = True
    for _ in range(10_000):
        k = int(rng.integers(1, 24))
        arrivals = rng.uniform(0.0, 6.0, k)
        residuals = rng.uniform(1e-3, 3.0, k)
        state = queue_completions(arrivals, residuals, float(rng.uniform(0.5, 4.0)))
        total = broken_queue_total(state)
        ok &= abs(total - state.total_delay) <= 1e-12 * max(1.0, abs(state.total_delay))
        if not ok:
            break
    _report(3, "queue recursion equals closed-form totals (10^4 instances)", ok)


def test_criterion_4_gap_elimination_suite():
    """10^3 multi-gap queues: transformed queues strictly faster; every
    bandwidth reallocation conserves spectrum and never slows the queue."""
    rng = np.random.default_rng(104)
    ok = True
    cases = {"eliminated": 0, "moved": 0, "added": 0}
    for _ in range(1000):
        state = random_broken_queue(rng)
        c = np.array(state.arrivals)
        f = np.array(state.residuals)
        total = state.total_delay
        first, last = state.breaks[0], state.breaks[-1]
        # closed-form strict bounds behind the three transformations
        tail = f[last:].sum()
        ok &= state.completions[last - 1] + tail < total
        if last + 1 < len(c):
            ok &= c[last + 1] + f[last + 1:].sum() < total
        # donor move: closes the first gap, leaves the total untouched
        c2 = c.copy()
        c2[first - 1] = c[first] - f[first - 1]
        donor = queue_completions(c2, f, 1.0)
        ok &= abs(donor.total_delay - total) <= 1e-12 * total
        # receiver speed-up: construct whichever break structures are
        # reachable and check each strictly improves the total
        prev_done = state.completions[last - 1]
        nxt = c[last + 1] if last + 1 < len(c) else None
        drops = []
        kind = "eliminated" if (nxt is None or prev_done + f[last] >= nxt) else "moved"
        drops.append((kind, prev_done - 0.25 * f[last]))
        if nxt is not None and prev_done < c[last] - 1e-12:
            mid = 0.5 * (prev_done + c[last])
            if mid + f[last] < nxt:
                drops.append(("added", mid))
        for kind, new_c in drops:
            if new_c <= c2[last - 1]:
                continue
            c3 = c2.copy()
            c3[last] = new_c
            faster = queue_completions(c3, f, 1.0)
            ok &= faster.total_delay < total
            cases[kind] += 1
        if not ok:
            break
    ok &= min(cases.values()) > 0  # the ensemble hits all three structures

    # live reallocations over random networks
    realloc_calls = 0
    for _ in range(400):
        net = random_network(rng, devices=int(rng.integers(5, 10)))
        table = CutTable(net)
        cuts = table.min_data_cuts()
        bw = np.full(net.num_devices, net.total_bandwidth_hz / net.num_devices)
        _, state, _, _ = _serial_eval(table, cuts, bw)
        for _ in range(12):
            if len(state.breaks) < 2:
                break
            try:
                _, bw_new, state_new = reallocate_once(table, cuts, bw, state)
            except (StalledBreak, NoExcess):
                break
            ok &= abs(sum(bw_new) - net.total_bandwidth_hz) <= 1e-12 * net.total_bandwidth_hz
            ok &= state_new.total_delay <= state.total_delay * (1 + 1e-12)
            bw, state = bw_new, state_new
            realloc_calls += 1
    ok &= realloc_calls >= 200
    _report(4, f"gap-elimination suite (cases {cases}, {realloc_calls} reallocations)", ok)


def test_criterion_5_solver_vs_oracle():
    """50 random two-device toy instances: joint and simultaneous-arrival
    solvers within 1% of the grid oracles, the heuristic within 5%."""
    t0 = time.perf_counter()
    settings = SolverSettings()
    grid = GridSpec()
    worst_p1 = worst_p3 = worst_h = 0.0
    for seed in range(50):
        rng = np.random.default_rng(1000 + seed)
        net = oracle_benchmark_network(rng)
        best_p = oracle_parallel(net, grid)
        gap = abs(solve_p1(net, settings).objective - best_p.objective) / best_p.objective
        worst_p1 = max(worst_p1, gap)
        best_s = oracle_serial(net, grid)
        gap = abs(solve_p3(net, settings).objective - best_s.objective) / best_s.objective
        worst_p3 = max(worst_p3, gap)
        gap = abs(queue_heuristic(net, settings).objective - best_s.objective) / best_s.objective
        worst_h = max(worst_h, gap)
    elapsed = time.perf_counter() - t0
    ok = worst_p1 <= 0.01 and worst_p3 <= 0.01 and worst_h <= 0.05 and elapsed < 300
    _report(5, "solver vs oracle gaps (joint {:.2%}, arrival {:.2%}, heuristic "
               "{:.2%}; {:.0f}s < 300s)".format(worst_p1, worst_p3, worst_h, elapsed), ok)


def test_criterion_6_reference_profile():
    """Bundled network: exact raw payload, output head, decoder payload bump."""
    arch = reference_architecture()
    prof = propagate(arch)
    ok = prof.transmit_bits[0] == 201_326_592
    ok &= arch.num_modules == 30
    ok &= prof.transmit_bits[-1] == 20 * 1024 * 2048 * 32
    diffs = [b - a for a, b in zip(prof.transmit_bits[1:], prof.transmit_bits[2:])]
    ok &= any(d > 0 for d in diffs)  # payload grows again in the decoder
    _report(6, "reference profile (raw 201,326,592 bits; 30 modules; 20-channel "
               "output; non-monotone payload)", ok)


@pytest.fixture(scope="module")
def figure_sweeps():
    base = ExperimentConfig()
    t0 = time.perf_counter()
    fig3 = run_sweep(base, "devices", (4.0, 8.0, 12.0, 16.0))
    fig5 = run_sweep(base, "bandwidth", (150e6, 200e6, 250e6, 300e6, 350e6, 400e6))
    fig8 = run_sweep(dataclasses.replace(
        base, policies=("p1", "p2", "p3", "queue-heuristic")),
        "iters", (1.0, 2.0, 3.0, 4.0))
    return fig3, fig5, fig8, time.perf_counter() - t0


def test_criterion_7_figure_shapes(figure_sweeps):
    """Comparative curve shapes at 100 trials and stock settings.

    Ordinal claims only: the reference operating point fixes the one free
    physical constant (noise density), so absolute delays are this
    artifact's, not anyone else's.
    """
    fig3, fig5, fig8, elapsed = figure_sweeps
    ok = True
    # (a) device sweep: raw-upload policies worst everywhere; the serial
    # heuristic leads at 4 devices; joint and fixed-bandwidth agree to 2%
    for v in fig3.values:
        means = {p: fig3.mean(v, p) for p in fig3.policies}
        raw_best = min(means["first-layer"], means["queue-first-layer"])
        rest_worst = max(m for p, m in means.items()
                         if p not in ("first-layer", "queue-first-layer"))
        ok &= raw_best > rest_worst
        ok &= abs(means["p1"] - means["p2"]) <= 0.02 * means["p2"]
    means4 = {p: fig3.mean(4.0, p) for p in fig3.policies}
    ok &= min(means4, key=means4.get) == "queue-heuristic"
    # (b) bandwidth sweep: every policy non-increasing
    for p in fig5.policies:
        seq = [fig5.mean(v, p) for v in fig5.values]
        ok &= all(b <= a * (1 + 1e-9) for a, b in zip(seq, seq[1:]))
    # (c) alternation caps: third-to-fourth iteration change below 0.5%
    for p in fig8.policies:
        seq = [fig8.mean(v, p) for v in fig8.values]
        ok &= abs(seq[3] - seq[2]) <= 0.005 * seq[2]
    ok &= elapsed < 900
    _report(7, f"figure shapes at 100 trials ({elapsed:.0f}s < 900s)", ok)


def test_criterion_8_scaling_ordinals():
    """Wall-time growth from 4 to 16 devices: the closed-form split grows
    slower than the joint solver; the heuristic slower than arrival shaping."""
    out = bench_scaling(ExperimentConfig(), [4, 16], trials=7)
    g = out["growth_ratio"]
    ok = g["p2"] < g["p1"] and g["queue-heuristic"] < g["p3"]
    _report(8, "scaling ordinals (p2 {:.2f} < p1 {:.2f}; heuristic {:.2f} < p3 "
               "{:.2f})".format(g["p2"], g["p1"], g["queue-heuristic"], g["p3"]), ok)


def test_criterion_9_sweep_determinism(tmp_path):
    """Identical seeds give byte-identical output files.

    Determinism is scale-free (per-trial records are already bit-identical),
    so this runs a reduced sweep to stay inside the suite's time budget.
    """
    cfg = dataclasses.replace(ExperimentConfig(), trials=10)
    first = {p.name: p.read_bytes()
             for p in write_tables(run_sweep(cfg, "devices", (4.0, 8.0)), tmp_path / "a")}
    second = {p.name: p.read_bytes()
              for p in write_tables(run_sweep(cfg, "devices", (4.0, 8.0)), tmp_path / "b")}
    ok = first == second and len(first) == 1 + len(cfg.policies)
    _report(9, "fixed-seed sweep reruns are byte-identical", ok)

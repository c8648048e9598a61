"""Brute-force baseline behavior and guards."""

import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import ragged_network, toy_network
from splitplan import oracle, parallel
from splitplan.channel import shannon_rate
from splitplan.delay import NetworkInstance, serial_total_delay
from splitplan.errors import TooLarge, ValidationError
from splitplan.harness import ExperimentConfig, build_network
from splitplan.oracle import (GridSpec, OracleResult, dense_root_scan, oracle_parallel,
                              oracle_serial)
from splitplan.parallel import CutTable, equal_delay_split, solve_p1
from splitplan.serial import solve_p3

ANALYTIC_ROOT = (15.0 - math.sqrt(125.0)) * 1e9


def walk_reference(net, grid, score):
    """The per-point walk the batched oracles replaced: one
    ``score(arrivals, residuals, server_flops)`` per cut vector and grid point."""
    table = CutTable(net)
    k = net.num_devices
    best = None
    for cuts in itertools.product(*(range(d.profile.num_cuts + 1) for d in net.devices)):
        resid = np.array([table.resid[i][cuts[i]] for i in range(k)])
        for bw in oracle._bandwidth_grid(net.total_bandwidth_hz, k, grid.bandwidth_points):
            rates = [shannon_rate(table.snr[i], bw[i]) for i in range(k)]
            if min(rates) <= 0:
                continue
            arr = np.array([table.local_s[i][c] + table.bits[i][c] / rate
                            for i, (c, rate) in enumerate(zip(cuts, rates))])
            obj = score(arr, resid, net.server_flops)
            if best is None or obj < best[0]:
                best = (obj, cuts, bw.copy())
    return OracleResult(float(best[0]), tuple(best[1]), tuple(best[2]))


def symmetric_network(seed, devices):
    """``devices`` copies of one toy device: tied arrivals wherever their
    bandwidth shares tie."""
    net = toy_network(np.random.default_rng(seed), devices=1)
    return NetworkInstance(net.devices * devices, net.server_flops, net.total_bandwidth_hz)


class NotBuilt(Exception):
    pass


class TestGuards:
    def test_too_many_devices(self):
        net = toy_network(np.random.default_rng(0), devices=2)
        big = NetworkInstance(net.devices * 2, net.server_flops,
                              net.total_bandwidth_hz)
        with pytest.raises(TooLarge):
            oracle_parallel(big)

    def test_too_many_layers(self):
        net = build_network(ExperimentConfig(devices=2), 0)  # 30 cut layers
        with pytest.raises(TooLarge, match="layers exceeds"):
            oracle_parallel(net)

    @pytest.mark.parametrize("devices, points, refused", [
        (3, 100_000, True),      # about 5e9 points
        (2, 100_003, True),      # 100,001 points
        (2, 100_002, False),     # 100,000 points: at the cap
        (3, 101, False),         # 4,851 points, the largest default grid
    ])
    def test_grid_size(self, monkeypatch, devices, points, refused):
        # the guard must refuse before any grid point is built
        def refuse(*args):
            raise NotBuilt

        monkeypatch.setattr(oracle, "_bandwidth_grid", refuse)
        net = toy_network(np.random.default_rng(0), devices=devices)
        outcome = (pytest.raises(TooLarge, match="grid points exceeds") if refused
                   else pytest.raises(NotBuilt))
        with outcome:
            oracle_parallel(net, GridSpec(bandwidth_points=points))


class TestParallelOracle:
    def test_single_device_matches_solver(self):
        net = toy_network(np.random.default_rng(40), devices=1)
        best = oracle_parallel(net)
        plan = solve_p1(net)
        assert plan.objective == pytest.approx(best.objective, rel=1e-6)

    def test_symmetric_devices_prefer_even_split(self):
        net = toy_network(np.random.default_rng(41), devices=1)
        dev = net.devices[0]
        sym = NetworkInstance((dev, dev), net.server_flops, net.total_bandwidth_hz)
        best = oracle_parallel(sym, GridSpec(bandwidth_points=41))
        assert best.bandwidth_hz[0] == pytest.approx(best.bandwidth_hz[1], rel=1e-12)
        assert best.cuts[0] == best.cuts[1]

    def test_deterministic(self):
        net = toy_network(np.random.default_rng(42), devices=2)
        a = oracle_parallel(net, GridSpec(bandwidth_points=31))
        b = oracle_parallel(net, GridSpec(bandwidth_points=31))
        assert a == b


class TestSerialOracle:
    def test_single_device_matches_solver(self):
        net = toy_network(np.random.default_rng(43), devices=1)
        best = oracle_serial(net)
        plan = solve_p3(net)
        assert plan.objective == pytest.approx(best.objective, rel=1e-6)

    def test_symmetric_devices_prefer_even_split(self):
        net = toy_network(np.random.default_rng(44), devices=1)
        dev = net.devices[0]
        sym = NetworkInstance((dev, dev), net.server_flops, net.total_bandwidth_hz)
        best = oracle_serial(sym, GridSpec(bandwidth_points=41))
        assert best.bandwidth_hz[0] == pytest.approx(best.bandwidth_hz[1], rel=1e-12)


class TestBatchedScoring:
    @pytest.mark.parametrize("devices", [1, 2, 3])
    def test_queue_totals_match_serial_total_delay(self, devices):
        # every cut vector of the toy net, its last cut local-only, over a
        # grid whose symmetric points tie the arrivals
        net = symmetric_network(47, devices)
        table = CutTable(net)
        bw = oracle._bandwidth_grid(net.total_bandwidth_hz, devices, 13)
        ties = 0
        for cuts in itertools.product(range(5), repeat=devices):
            view = table.view(cuts)
            rows = np.array([view.arrivals(point) for point in bw])
            totals = oracle._queue_totals(rows, view.resid, net.server_flops)
            for row, total in zip(rows, totals):
                assert total == serial_total_delay(row, view.resid, net.server_flops)[0]
                ties += len(set(row.tolist())) < devices
        assert devices == 1 or ties > 0

    @pytest.mark.parametrize("seed, devices, points", [
        (48, 1, 101), (49, 2, 41), (50, 2, 21), (51, 3, 7),
    ])
    def test_oracles_equal_the_per_point_walk(self, seed, devices, points):
        grid = GridSpec(bandwidth_points=points)
        nets = [toy_network(np.random.default_rng(seed), devices=devices),
                symmetric_network(seed, devices)]
        if devices == 2:  # cut counts that differ by device
            nets.append(ragged_network(np.random.default_rng(seed), devices=2))
        for net in nets:
            assert oracle_parallel(net, grid) == walk_reference(
                net, grid, lambda *point: equal_delay_split(*point)[1])
            assert oracle_serial(net, grid) == walk_reference(
                net, grid, lambda *point: serial_total_delay(*point)[0])

    def test_queue_totals_take_one_residual_row_per_arrival_row(self):
        rng = np.random.default_rng(52)
        arrivals = rng.uniform(0.1, 5.0, (20, 3))
        arrivals[:5, 1] = arrivals[:5, 0]  # ties go by id
        residuals = rng.uniform(1e9, 5e10, (20, 3))
        residuals[:, 2] = 0.0  # device 2 finishes locally in every row
        totals = oracle._queue_totals(arrivals, residuals, 3e10)
        for row, resid, total in zip(arrivals, residuals, totals):
            assert total == serial_total_delay(row, resid, 3e10)[0]
        residuals[7, 2] = 1e9
        with pytest.raises(ValidationError, match="same devices"):
            oracle._queue_totals(arrivals, residuals, 3e10)

    @pytest.mark.parametrize("cap", [10 ** 5, 38],
                             ids=["one-call-a-pattern", "two-vectors-a-call"])
    def test_ties_go_to_the_first_cut_vector_then_grid_point(self, monkeypatch, cap):
        # a coarse score ties across busy patterns and across the calls of one
        # pattern; 38 rows hold two cut vectors of the 19-point grid
        monkeypatch.setattr(oracle, "_MAX_GRID_POINTS", cap)

        def coarse(rows, residuals, server_flops):
            return np.floor(np.atleast_2d(rows).sum(axis=-1) * 10.0) % 3.0

        net = toy_network(np.random.default_rng(54), devices=2)
        grid = GridSpec(bandwidth_points=21)
        assert oracle._grid_min(net, grid, coarse) == walk_reference(
            net, grid, lambda *point: float(coarse(*point)[0]))

    def test_ties_across_busy_patterns_go_to_the_first_cut_vector(self):
        # all-busy vectors from device 0's cut 1 on tie with every vector that
        # keeps device 1 local; the all-busy ones are scored first, but
        # (0, last) comes first in cut order
        net = toy_network(np.random.default_rng(55), devices=2)
        top = CutTable(net).resid[0, 0]

        def score(rows, residuals, server_flops):
            r = np.atleast_2d(residuals)
            busy_late = (r > 0).all(axis=1) & (r[:, 0] < top)
            return np.where(busy_late | (r[:, 1] == 0), 0.0, 1.0)

        grid = GridSpec(bandwidth_points=11)
        best = oracle._grid_min(net, grid, score)
        assert best.cuts == (0, net.devices[1].profile.num_cuts)
        assert best == walk_reference(net, grid, lambda *point: float(score(*point)[0]))

    def test_stacked_calls_stay_within_the_grid_cap(self, monkeypatch):
        rows = []

        def recording(arrivals, residuals, budget):
            rows.append(len(arrivals))
            return equal_delay_split(arrivals, residuals, budget)

        monkeypatch.setattr(oracle, "equal_delay_split", recording)
        net = toy_network(np.random.default_rng(53), devices=3)
        oracle_parallel(net, GridSpec(bandwidth_points=101))
        points = math.comb(99, 2)
        vectors = math.prod(d.profile.num_cuts + 1 for d in net.devices)
        assert sum(rows) == vectors * points  # every cut vector at every grid point, once
        assert points < max(rows) <= oracle._MAX_GRID_POINTS

    def test_oracles_import_no_masked_arrays(self):
        # ``np.unique`` pulls in ``numpy.ma``, megabytes of resident memory
        code = ("import sys\n"
                "from splitplan.harness import ExperimentConfig, build_network\n"
                "from splitplan.oracle import GridSpec, oracle_parallel, oracle_serial\n"
                "net = build_network(ExperimentConfig(arch='toy', devices=3), 0)\n"
                "oracle_parallel(net, GridSpec(21))\n"
                "oracle_serial(net, GridSpec(21))\n"
                "print('numpy.ma' in sys.modules)\n")
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"


class TestDenseRootScan:
    def test_worked_bracket(self):
        lo, hi = dense_root_scan([1.0, 2.0], [10e9, 10e9], 10e9, points=10 ** 5)
        assert lo <= ANALYTIC_ROOT <= hi

    def test_brackets_without_the_solver(self, monkeypatch):
        # the certificate computes its own curve: it must not lean on the
        # kernel or the bisection it certifies
        def refuse(*args, **kwargs):
            raise AssertionError("dense_root_scan called into parallel")

        monkeypatch.setattr(parallel, "equal_delay_split", refuse)
        monkeypatch.setattr(parallel, "_bisect", refuse)
        lo, hi = dense_root_scan([1.0, 2.0], [10e9, 10e9], 10e9, points=10 ** 5)
        assert lo <= ANALYTIC_ROOT <= hi

    def test_unique_sign_change_random(self):
        rng = np.random.default_rng(45)
        for _ in range(100):
            k = int(rng.integers(2, 9))
            lo, hi = dense_root_scan(rng.uniform(0.1, 4.0, k),
                                     rng.uniform(1e9, 4e10, k),
                                     rng.uniform(2e10, 2e11), points=4000)
            assert 0.0 <= lo < hi

    def test_needs_two_participants(self):
        from splitplan.errors import ValidationError
        with pytest.raises(ValidationError):
            dense_root_scan([1.0], [1e9], 1e9, points=100)
        with pytest.raises(ValidationError):  # an idle device does not take part
            dense_root_scan([1.0, 2.0], [1e9, 0.0], 1e9, points=100)

"""Brute-force baseline behavior and guards."""

import math

import numpy as np
import pytest

from conftest import toy_network
from splitplan.delay import NetworkInstance
from splitplan.errors import TooLarge
from splitplan.harness import ExperimentConfig, build_network
from splitplan.oracle import (GridSpec, dense_root_scan, oracle_parallel,
                              oracle_serial)
from splitplan import parallel
from splitplan.parallel import solve_p1
from splitplan.serial import solve_p3

ANALYTIC_ROOT = (15.0 - math.sqrt(125.0)) * 1e9


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

"""Arrival/residual decomposition and the serial queue algebra."""

import math

import numpy as np
import pytest

from conftest import link_with_snr, profile_from_lists
from splitplan.delay import (Device, NetworkInstance, arrival_delay,
                             broken_queue_total, parallel_delay,
                             queue_completions, residual_workload,
                             serial_total_delay)
from splitplan.errors import MissingServerCompute, ValidationError, ZeroRate


def _device_with_exact_rate(rate, profile):
    # in-band SNR of 1 makes the rate equal the bandwidth exactly
    return Device(link=link_with_snr(rate), compute_flops=30e9, profile=profile)


class TestArrivalDelay:
    def test_worked_value(self):
        # 201,326,592 bits at 100 Mbit/s plus 3 GFLOP at 30 GFLOP/s
        prof = profile_from_lists([3_000_000_000], [201_326_592],
                                  raw_bits=201_326_592)
        dev = _device_with_exact_rate(1e8, prof)
        got = arrival_delay(dev, 1, 1e8)
        assert got == pytest.approx(2.11326592, rel=1e-12)

    def test_raw_cut_has_no_local_term(self):
        prof = profile_from_lists([3e9], [1e8], raw_bits=2e8)
        dev = _device_with_exact_rate(1e8, prof)
        assert arrival_delay(dev, 0, 1e8) == pytest.approx(2.0, rel=1e-12)

    def test_final_cut_still_uploads_output(self):
        prof = profile_from_lists([3e9], [1e8], raw_bits=2e8)
        dev = _device_with_exact_rate(1e8, prof)
        assert arrival_delay(dev, 1, 1e8) == pytest.approx(0.1 + 1.0, rel=1e-12)

    def test_zero_rate_raises(self):
        prof = profile_from_lists([1e9], [1e8], raw_bits=2e8)
        dev = Device(link=link_with_snr(1e8).with_fading(0.0),
                     compute_flops=30e9, profile=prof)
        with pytest.raises(ZeroRate):
            arrival_delay(dev, 0, 1e7)


class TestResidualWorkload:
    def test_boundaries(self):
        prof = profile_from_lists([2e9, 3e9, 5e9], [1e8, 1e8, 1e8], raw_bits=2e8)
        assert residual_workload(prof, 3) == 0
        assert residual_workload(prof, 0) == prof.total_workload

    def test_toy_sum(self):
        prof = profile_from_lists([2e9, 3e9, 5e9], [1e8, 1e8, 1e8], raw_bits=2e8)
        assert residual_workload(prof, 1) == 8e9


class TestParallelDelay:
    def test_fully_local_cut(self):
        prof = profile_from_lists([3e9], [1e8], raw_bits=2e8)
        dev = _device_with_exact_rate(1e8, prof)
        assert parallel_delay(dev, 1, 1e8, 0.0) == arrival_delay(dev, 1, 1e8)

    def test_worked_equal_delay_point(self):
        # arrival 1 s, 10 GFLOP residual at 3.8197 GFLOP/s -> 3.618 s
        prof = profile_from_lists([10e9], [1e8], raw_bits=1e8)
        dev = _device_with_exact_rate(1e8, prof)
        f = (15 - math.sqrt(125)) * 1e9
        got = parallel_delay(dev, 0, 1e8, f)
        assert got == pytest.approx(1.0 + 10e9 / f, rel=1e-12)
        assert got == pytest.approx(3.6180339887, rel=1e-9)

    def test_missing_server_compute(self):
        prof = profile_from_lists([10e9], [1e8], raw_bits=1e8)
        dev = _device_with_exact_rate(1e8, prof)
        with pytest.raises(MissingServerCompute):
            parallel_delay(dev, 0, 1e8, 0.0)

    def test_convex_decreasing_in_each_resource(self):
        prof = profile_from_lists([4e9, 6e9], [1.2e8, 0.9e8], raw_bits=2e8)
        dev = _device_with_exact_rate(5e7, prof)
        bs = np.linspace(1e6, 2e8, 120)
        j_b = np.array([parallel_delay(dev, 1, b, 2e10) for b in bs])
        assert np.all(np.diff(j_b) < 0)
        assert np.all(np.diff(np.diff(j_b)) > -1e-12 * j_b.max())
        fs = np.linspace(1e9, 1e11, 120)
        j_f = np.array([parallel_delay(dev, 1, 5e7, f) for f in fs])
        assert np.all(np.diff(j_f) < 0)
        assert np.all(np.diff(np.diff(j_f)) > -1e-12 * j_f.max())


class TestQueueCompletions:
    def test_worked_example(self):
        state = queue_completions([1.0, 2.0, 5.0], [2.0, 1.0, 1.0], 1.0)
        assert state.completions == (3.0, 4.0, 6.0)
        assert state.breaks == (2,)
        assert state.num_subqueues == 2

    def test_single_device(self):
        state = queue_completions([1.5], [3.0], 2.0)
        assert state.completions == (3.0,)
        assert state.breaks == ()

    def test_simultaneous_arrivals_unbroken(self):
        state = queue_completions([0.0, 0.0, 0.0], [1.0, 2.0, 3.0], 1.0)
        assert state.breaks == ()
        assert state.total_delay == 6.0

    def test_sorts_by_arrival_then_id(self):
        state = queue_completions([2.0, 1.0, 2.0], [1.0, 1.0, 1.0], 1.0,
                                  ids=[7, 8, 9])
        assert state.order == (8, 7, 9)

    def test_closed_form_matches_recursion_worked(self):
        state = queue_completions([1.0, 2.0, 5.0], [2.0, 1.0, 1.0], 1.0)
        assert broken_queue_total(state) == state.total_delay == 6.0

    def test_closed_form_unbroken(self):
        state = queue_completions([1.0, 1.5, 2.0], [1.0, 1.0, 1.0], 1.0)
        assert state.breaks == ()
        assert broken_queue_total(state) == pytest.approx(1.0 + 3.0, rel=1e-15)

    def test_closed_form_random_agreement(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            k = int(rng.integers(1, 12))
            c = np.sort(rng.uniform(0, 5, k))
            f = rng.uniform(0.01, 3, k)
            state = queue_completions(c, f, 1.0)
            total = broken_queue_total(state)
            assert abs(total - state.total_delay) <= 1e-12 * max(1.0, state.total_delay)

    def test_monotone_in_arrivals_and_residuals(self):
        rng = np.random.default_rng(1)
        for _ in range(300):
            k = int(rng.integers(2, 10))
            c = rng.uniform(0, 5, k)
            f = rng.uniform(0.01, 3, k)
            base = queue_completions(c, f, 1.0).total_delay
            j = int(rng.integers(0, k))
            c2 = c.copy(); c2[j] += rng.uniform(0, 2)
            f2 = f.copy(); f2[j] += rng.uniform(0, 2)
            assert queue_completions(c2, f, 1.0).total_delay >= base - 1e-12
            assert queue_completions(c, f2, 1.0).total_delay >= base - 1e-12

    def test_equal_arrival_permutation_invariance(self):
        c = [1.0, 1.0, 1.0, 2.0]
        f = [0.5, 1.5, 1.0, 0.2]
        a = queue_completions(c, f, 1.0).total_delay
        b = queue_completions(c[::-1], f[::-1], 1.0).total_delay
        assert a == pytest.approx(b, rel=1e-15)


class TestSerialObjective:
    def test_zero_residual_devices_stay_out_of_queue(self):
        # the idle device's late arrival dominates, not the queue
        obj, state = serial_total_delay([1.0, 9.0], [5.0, 0.0], 1.0)
        assert state.order == (0,)
        assert obj == 9.0

    def test_queue_dominates_when_slower(self):
        obj, state = serial_total_delay([1.0, 2.0], [5.0, 0.0], 1.0)
        assert obj == 6.0


class TestNetworkValidation:
    def test_needs_devices(self):
        with pytest.raises(ValidationError):
            NetworkInstance((), server_flops=1.0, total_bandwidth_hz=1.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("budget", ["compute_flops", "server_flops", "total_bandwidth_hz"])
    def test_rejects_a_non_finite_budget(self, budget, value):
        """Every budget must be positive and finite, as in ExperimentConfig;
        a NaN or inf one would otherwise surface later as a misleading
        policy error (a ZeroRate, a RuntimeWarning, a non-positive budget)."""
        budgets = {"compute_flops": 30e9, "server_flops": 300e9,
                   "total_bandwidth_hz": 200e6, budget: value}
        with pytest.raises(ValidationError, match="finite"):
            dev = Device(link=link_with_snr(1e8), compute_flops=budgets["compute_flops"],
                         profile=profile_from_lists([1e9], [1e6]))
            NetworkInstance((dev,), budgets["server_flops"], budgets["total_bandwidth_hz"])

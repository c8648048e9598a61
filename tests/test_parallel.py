"""Equal-delay split, rate inversion and the parallel policies."""

import math

import numpy as np
import pytest

from conftest import (link_with_snr, profile_from_lists, random_network,
                      toy_network)
from splitplan.delay import Device, NetworkInstance, arrival_delay
from splitplan.errors import Infeasible, NonConvergence, Unreachable, ZeroRate
from splitplan.oracle import GridSpec, dense_root_scan, oracle_parallel
from splitplan.parallel import (CutTable, EqualDelayProblem, SolverSettings,
                                bandwidth_for_rate, equal_delay_allocation,
                                first_layer_policy, equal_delay_split,
                                min_data_layer_policy, solve_p1, solve_p2,
                                _bisect, _grow, _lambert_wm1, _required_bandwidth_u)
from splitplan.channel import achievable_rate

ANALYTIC_ROOT = (15.0 - math.sqrt(125.0)) * 1e9  # worked two-device split


def random_problem(rng, k=None):
    k = k or int(rng.integers(2, 33))
    arrivals = rng.uniform(0.1, 5.0, k)
    if rng.random() < 0.15:  # exercise tied arrivals
        arrivals[rng.integers(0, k)] = arrivals[0]
    residuals = rng.uniform(0.5e9, 5e10, k)
    budget = rng.uniform(1e10, 5e11)
    return EqualDelayProblem(arrivals, residuals, budget)


class TestEqualDelaySplit:
    def test_worked_two_device_example(self):
        prob = EqualDelayProblem([1.0, 2.0], [10e9, 10e9], 10e9)
        shares = equal_delay_split(prob)
        assert shares[0] == pytest.approx(ANALYTIC_ROOT, rel=1e-9)
        assert shares[1] == pytest.approx((math.sqrt(125.0) - 5.0) * 1e9, rel=1e-9)
        delay = 1.0 + 10e9 / shares[0]
        assert delay == pytest.approx(1.0 + (15 + math.sqrt(125)) / 10, rel=1e-9)

    def test_symmetric_split(self):
        prob = EqualDelayProblem([2.0] * 5, [8e9] * 5, 10e9)
        shares = equal_delay_split(prob)
        assert np.allclose(shares, 2e9, rtol=1e-9)

    def test_single_participant_takes_everything(self):
        prob = EqualDelayProblem([1.0], [5e9], 7e9)
        assert equal_delay_split(prob) == pytest.approx([7e9])

    def test_empty_problem(self):
        shares, t = equal_delay_allocation([1.0, 2.0], [0.0, 0.0], 7e9)
        assert np.all(shares == 0.0)
        assert t == 2.0  # everything device-side: the latest arrival rules

    def test_budget_and_positivity_random(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            prob = random_problem(rng)
            shares = equal_delay_split(prob)
            assert np.all(shares > 0)
            assert shares.sum() == pytest.approx(prob.budget, rel=1e-12)
            delays = prob.arrivals + prob.residuals / shares
            spread = (delays.max() - delays.min()) / delays.max()
            assert spread <= 1e-6

    def test_followers_keep_positive_denominators(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            prob = random_problem(rng)
            x0 = equal_delay_split(prob)[prob.anchor]
            denom = prob.residuals[prob.anchor] + x0 * prob.delta_c
            assert np.all(denom >= 0)

    def test_consumption_strictly_increasing(self):
        rng = np.random.default_rng(5)
        prob = random_problem(rng, k=6)
        hi = min(prob.upper_bound, prob.budget)
        xs = hi * np.linspace(0.01, 0.99, 500)
        qs = prob.q_value(xs)
        assert np.all(np.diff(qs) > 0)
        assert prob.q_value(1e-12 * hi) <= 1e-9 * prob.budget  # q(0) = 0

    def test_root_matches_dense_scan(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            prob = random_problem(rng, k=int(rng.integers(2, 9)))
            x0 = equal_delay_split(prob)[prob.anchor]
            lo, hi = dense_root_scan(prob, points=10 ** 6)
            assert lo * (1 - 1e-9) <= x0 <= hi * (1 + 1e-9)

    def test_wrong_anchor_has_empty_interval(self):
        # anchoring anywhere but the earliest arrival flips a delta sign and
        # the share interval collapses; the scan then certifies no bracket
        prob = EqualDelayProblem([1.0, 2.0, 3.0], [1e9, 1e9, 1e9], 3e9, anchor=2)
        assert prob.upper_bound <= 0
        from splitplan.errors import NoBracket
        with pytest.raises(NoBracket):
            dense_root_scan(prob, points=1000)
        with pytest.raises(Infeasible):
            equal_delay_split(prob)


class TestLambert:
    def test_matches_scipy_away_from_branch_point(self):
        from scipy.special import lambertw
        for a in (-0.36, -0.2, -0.05, -1e-3, -1e-8, -1e-30, -1e-200):
            assert _lambert_wm1(a) == pytest.approx(lambertw(a, -1).real, rel=1e-11)

    def test_defining_equation_near_branch_point(self):
        for a in (-0.3678794411714423, -0.36787944, -0.3678):
            w = _lambert_wm1(a)
            assert w * math.exp(w) == pytest.approx(a, abs=1e-14)


class TestBandwidthForRate:
    def test_zero_rate(self):
        assert bandwidth_for_rate(link_with_snr(1e6), 0.0) == 0.0

    def test_round_trip(self):
        link = link_with_snr(4.7e6)
        for b0 in (1e3, 5e4, 2e6, 8e7):
            rate = achievable_rate(b0, link)
            back = bandwidth_for_rate(link, rate, rel_tol=1e-12)
            assert back == pytest.approx(b0, rel=1e-9)

    def test_capacity_asymptote(self):
        link = link_with_snr(1e6)
        limit = link.rate_limit()
        big = bandwidth_for_rate(link, 0.99 * limit)
        assert big > 40 * 1e6  # far into the wide-band regime
        with pytest.raises(Unreachable):
            bandwidth_for_rate(link, 1.01 * limit)

    def test_closed_form_inverse_agrees_with_bisection(self):
        link = link_with_snr(3.3e6)
        snr = link.snr_hz()
        for rate in (1e3, 1e5, 1e6, 0.6 * link.rate_limit(), 0.995 * link.rate_limit()):
            fast = _required_bandwidth_u(snr, rate)[0]
            slow = bandwidth_for_rate(link, rate, rel_tol=1e-12)
            assert fast == pytest.approx(slow, rel=1e-8)


@pytest.mark.filterwarnings("error")
class TestArrivalKernel:
    def test_matches_reference_arrival_delay(self):
        """Kernel against ``delay.arrival_delay`` device by device. Device 0
        gets a subnormal share, a one-bit device stays finite over another,
        and a zero-SNR device arrives at inf where the reference raises."""
        rng = np.random.default_rng(17)
        whisper = Device(link=link_with_snr(6e8), compute_flops=3e10,
                         profile=profile_from_lists([1e9], [1], raw_bits=1))
        for _ in range(20):
            net = random_network(rng, devices=4)
            mute = Device(link=link_with_snr(0.0), compute_flops=3e10,
                          profile=net.devices[0].profile)
            net = NetworkInstance(net.devices + (whisper, mute), net.server_flops,
                                  net.total_bandwidth_hz)
            table = CutTable(net)
            cuts = table.random_cuts(int(rng.integers(1 << 30)))
            bw = rng.uniform(0.0, net.total_bandwidth_hz, net.num_devices)
            bw[0], bw[4] = 5e-324, 1e-308
            got = table.view(cuts).arrivals(bw)
            for i, dev in enumerate(net.devices[:-1]):
                assert got[i] == arrival_delay(dev, cuts[i], float(bw[i]))
            assert 1e300 < got[4] < math.inf
            assert got[-1] == math.inf
            with pytest.raises(ZeroRate):
                arrival_delay(mute, cuts[-1], bw[-1])


class TestMonotoneSearch:
    @staticmethod
    def step(at, probes):
        def ok(x):
            probes.append(x)
            return x >= at
        return ok

    def test_grow_returns_first_passing_point(self):
        probes = []
        assert _grow(self.step(100.0, probes), 1.0, 2.0, 10, "unused") == 128.0
        assert probes == [2.0 ** n for n in range(8)]
        assert _grow(self.step(0.5, []), 3.0, 8.0, 1, "unused") == 3.0

    def test_grow_raises_once_its_cap_is_spent(self):
        probes = []
        with pytest.raises(NonConvergence, match="no bracket here"):
            _grow(self.step(100.0, probes), 1.0, 2.0, 5, "no bracket here")
        assert len(probes) == 5

    def test_bisect_stops_at_relative_width(self):
        probes = []
        lo, hi = _bisect(self.step(0.3, probes), 0.0, 1.0, 1e-6)
        assert lo < 0.3 <= hi and hi - lo <= 1e-6 * hi
        assert 2 * (hi - lo) > 1e-6 * hi  # one probe fewer would not do
        assert hi == min(x for x in probes if x >= 0.3)

    def test_bisect_stops_at_float_resolution(self):
        for at in (0.3, 1e-200, 5e-324):
            lo, hi = _bisect(self.step(at, []), 0.0, 1.0, 0.0)
            assert hi == at and lo == np.nextafter(at, 0.0)


def _symmetric_net(k=3):
    prof = profile_from_lists([2e9, 4e9, 3e9], [1.6e8, 1.1e8, 2.2e8],
                              raw_bits=2.4e8)
    from splitplan.delay import Device, NetworkInstance
    devs = tuple(Device(link=link_with_snr(6e8), compute_flops=3e10, profile=prof)
                 for _ in range(k))
    return NetworkInstance(devs, server_flops=3e11, total_bandwidth_hz=2e8)


class TestFixedBandwidthPolicy:
    def test_single_device_picks_best_cut(self):
        net = _symmetric_net(k=1)
        plan = solve_p2(net)
        table = CutTable(net)
        rate = achievable_rate(2e8, net.devices[0].link)
        best = min(range(4), key=lambda l: table.local_s[0][l]
                   + table.bits[0][l] / rate + table.resid[0][l] / 3e11)
        assert plan.cuts == (best,)
        assert plan.bandwidth_hz == (2e8,)

    def test_identical_devices_share_equally(self):
        plan = solve_p2(_symmetric_net(k=3))
        assert len(set(plan.cuts)) == 1
        assert np.allclose(plan.server_flops, 1e11, rtol=1e-9)
        assert np.allclose(plan.bandwidth_hz, 2e8 / 3, rtol=1e-12)

    def test_equal_delay_certificate(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            net = random_network(rng, devices=4)
            plan = solve_p2(net)
            busy = [i for i, r in enumerate(plan.residuals) if r > 0]
            if len(busy) < 2:
                continue
            delays = np.array([plan.delays[i] for i in busy])
            assert (delays.max() - delays.min()) / delays.max() <= 1e-6

    def test_objective_history_non_increasing(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            net = random_network(rng, devices=5)
            plan = solve_p2(net)
            hist = plan.objective_history
            assert all(b <= a * (1 + 1e-9) for a, b in zip(hist, hist[1:]))


class TestJointPolicy:
    def test_single_device_gets_everything(self):
        net = _symmetric_net(k=1)
        plan = solve_p1(net)
        assert plan.bandwidth_hz == pytest.approx((2e8,))
        if plan.residuals[0] > 0:
            assert plan.server_flops == pytest.approx((3e11,))

    def test_symmetry_matches_fixed_bandwidth(self):
        net = _symmetric_net(k=3)
        p1 = solve_p1(net)
        p2 = solve_p2(net)
        assert p1.objective == pytest.approx(p2.objective, rel=1e-4)
        assert np.allclose(p1.bandwidth_hz, 2e8 / 3, rtol=1e-3)

    def test_budgets_spent_exactly(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            net = random_network(rng, devices=4)
            plan = solve_p1(net)
            assert sum(plan.bandwidth_hz) == pytest.approx(net.total_bandwidth_hz, rel=1e-12)
            if any(r > 0 for r in plan.residuals):
                assert sum(plan.server_flops) == pytest.approx(net.server_flops, rel=1e-9)
            for f, r in zip(plan.server_flops, plan.residuals):
                assert (f > 0) == (r > 0)

    def test_close_to_grid_oracle(self):
        rng = np.random.default_rng(14)
        for _ in range(3):
            net = toy_network(rng, devices=2)
            plan = solve_p1(net)
            best = oracle_parallel(net, GridSpec())
            assert abs(plan.objective - best.objective) <= 0.01 * best.objective

    def test_dominance_chain(self):
        rng = np.random.default_rng(15)
        for _ in range(20):
            net = random_network(rng, devices=4)
            p1 = solve_p1(net)
            md = min_data_layer_policy(net)
            fl = first_layer_policy(net)
            tol = 1e-6
            assert p1.objective <= md.objective * (1 + tol)
            assert p1.objective <= fl.objective * (1 + tol)
            assert p1.objective <= solve_p2(net).objective * (1 + tol)

    def test_objective_history_non_increasing(self):
        rng = np.random.default_rng(16)
        for _ in range(5):
            net = random_network(rng, devices=5)
            hist = solve_p1(net).objective_history
            assert all(b <= a * (1 + 1e-9) for a, b in zip(hist, hist[1:]))


class TestBaselinePolicies:
    def test_min_data_picks_first_minimum(self):
        prof = profile_from_lists([1e9, 1e9, 1e9], [4e7, 4e7, 9e7], raw_bits=1e8)
        from splitplan.delay import Device, NetworkInstance
        net = NetworkInstance(
            (Device(link=link_with_snr(6e8), compute_flops=3e10, profile=prof),),
            server_flops=3e11, total_bandwidth_hz=2e8)
        assert min_data_layer_policy(net).cuts == (1,)

    def test_min_data_strictly_decreasing_payload_cuts_last(self):
        prof = profile_from_lists([1e9, 1e9], [9e7, 4e7], raw_bits=2e8)
        from splitplan.delay import Device, NetworkInstance
        net = NetworkInstance(
            (Device(link=link_with_snr(6e8), compute_flops=3e10, profile=prof),),
            server_flops=3e11, total_bandwidth_hz=2e8)
        assert min_data_layer_policy(net).cuts == (2,)

    def test_first_layer_goes_raw(self):
        net = _symmetric_net(k=2)
        plan = first_layer_policy(net)
        assert plan.cuts == (0, 0)
        assert all(a == pytest.approx(d - r / f, rel=1e-9)
                   for a, d, r, f in zip(plan.arrivals, plan.delays,
                                         plan.residuals, plan.server_flops))

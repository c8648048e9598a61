"""Equal-delay split, rate inversion and the parallel policies."""

import decimal
import itertools
import math

import numpy as np
import pytest

from conftest import (assert_kkt, count_target_probes, link_with_snr,
                      oracle_benchmark_network, profile_from_lists, ragged_network,
                      random_network, random_profile, toy_network, zero_workload_network)
from splitplan import parallel
from splitplan.delay import Device, NetworkInstance, arrival_delay, residual_workload
from splitplan.errors import Infeasible, NonConvergence, ValidationError, ZeroRate
from splitplan.harness import POLICIES, ExperimentConfig, build_network
from splitplan.oracle import GridSpec, dense_root_scan, oracle_parallel, oracle_serial
from splitplan.parallel import (CutTable, SolverSettings, bandwidth_for_rate,
                                equal_delay_split, first_layer_policy, min_data_layer_policy,
                                solve_p1, solve_p2, _alternate, _bisect, _grow,
                                _required_bandwidth_u)
from splitplan.channel import achievable_rate, shannon_rate

ANALYTIC_ROOT = (15.0 - math.sqrt(125.0)) * 1e9  # worked two-device split


def random_problem(rng, k=None):
    """(arrivals, residuals, budget) of a random all-busy equal-delay split."""
    k = k or int(rng.integers(2, 33))
    arrivals = rng.uniform(0.1, 5.0, k)
    if rng.random() < 0.15:  # exercise tied arrivals
        arrivals[rng.integers(0, k)] = arrivals[0]
    residuals = rng.uniform(0.5e9, 5e10, k)
    budget = rng.uniform(1e10, 5e11)
    return arrivals, residuals, budget


class TestEqualDelaySplit:
    def test_worked_two_device_example(self):
        shares, t = equal_delay_split([1.0, 2.0], [10e9, 10e9], 10e9)
        assert shares[0] == pytest.approx(ANALYTIC_ROOT, rel=1e-9)
        assert shares[1] == pytest.approx((math.sqrt(125.0) - 5.0) * 1e9, rel=1e-9)
        delay = 1.0 + 10e9 / shares[0]
        assert delay == pytest.approx(1.0 + (15 + math.sqrt(125)) / 10, rel=1e-9)
        assert t == pytest.approx(delay, rel=1e-12)

    def test_symmetric_split(self):
        shares, _ = equal_delay_split([2.0] * 5, [8e9] * 5, 10e9)
        assert np.allclose(shares, 2e9, rtol=1e-9)

    def test_single_participant_takes_everything(self):
        shares, t = equal_delay_split([1.0], [5e9], 7e9)
        assert shares == pytest.approx([7e9])
        assert t == pytest.approx(1.0 + 5.0 / 7.0)

    def test_empty_problem(self):
        shares, t = equal_delay_split([1.0, 2.0], [0.0, 0.0], 7e9)
        assert np.all(shares == 0.0)
        assert t == 2.0  # everything device-side: the latest arrival rules

    def test_late_idle_arrival_sets_the_delay(self):
        # the busy pair finishes at 1 + 10/(15 - sqrt(125)) s, about 3.62 s
        shares, t = equal_delay_split([1.0, 9.0, 2.0], [10e9, 0.0, 10e9], 10e9)
        assert shares[1] == 0.0
        assert shares[0] == pytest.approx(ANALYTIC_ROOT, rel=1e-9)
        assert t == 9.0

    @pytest.mark.parametrize("busy", ["all", "some", "one", "none"])
    def test_stack_rows_match_single_rows(self, busy):
        rng = np.random.default_rng(7)
        for k in range(2, 34):  # every size criterion 1 draws
            arrivals = rng.uniform(0.1, 5.0, (12, k))
            arrivals[:4, 0] = arrivals[:4].min(axis=1)  # tied earliest arrivals
            arrivals[4:8, -1] = arrivals[4:8].max(axis=1)  # tied latest: two zero gaps
            residuals = rng.uniform(0.5e9, 5e10, k)
            keep = {"all": k, "some": (k + 1) // 2, "one": 1, "none": 0}[busy]
            residuals[rng.permutation(k)[keep:]] = 0.0
            budget = rng.uniform(1e10, 5e11)
            shares, t = equal_delay_split(arrivals, residuals, budget)
            assert shares.shape == arrivals.shape and t.shape == (12,)
            for row, row_shares, row_t in zip(arrivals, shares, t):
                one_shares, one_t = equal_delay_split(row, residuals, budget)
                assert np.array_equal(one_shares, row_shares) and one_t == row_t

    @pytest.mark.parametrize("busy", ["all", "some", "one", "none"])
    def test_stack_rows_with_own_residuals_match_single_rows(self, busy):
        rng = np.random.default_rng(9)
        for k in range(2, 34):
            arrivals = rng.uniform(0.1, 5.0, (12, k))
            arrivals[:4, 0] = arrivals[:4].min(axis=1)
            arrivals[4:8, -1] = arrivals[4:8].max(axis=1)
            residuals = rng.uniform(0.5e9, 5e10, (12, k))
            residuals *= 10.0 ** rng.integers(-3, 1, residuals.shape)  # decades of work
            keep = {"all": k, "some": (k + 1) // 2, "one": 1, "none": 0}[busy]
            residuals[:, rng.permutation(k)[keep:]] = 0.0  # one busy pattern
            budget = rng.uniform(1e10, 5e11)
            shares, t = equal_delay_split(arrivals, residuals, budget)
            assert shares.shape == arrivals.shape and t.shape == (12,)
            for row, row_resid, row_shares, row_t in zip(arrivals, residuals, shares, t):
                one_shares, one_t = equal_delay_split(row, row_resid, budget)
                assert np.array_equal(one_shares, row_shares) and one_t == row_t

    def test_stack_overflows_and_underflows_row_by_row(self):
        arrivals = [[1.0, 2.0], [2.0, 1.0], [3.0, 3.0]]
        # the middle row's server seconds overflow; the others bisect
        residuals = [[1e10, 2e10], [1e300, 2e300], [3e10, 1e10]]
        shares, t = equal_delay_split(arrivals, residuals, 1e-10)
        assert np.isinf(t).tolist() == [False, True, False]
        for row, row_resid, row_shares, row_t in zip(arrivals, residuals, shares, t):
            one_shares, one_t = equal_delay_split(row, row_resid, 1e-10)
            assert np.array_equal(one_shares, row_shares) and one_t == row_t
        # one row whose server seconds underflow sinks the stack
        with pytest.raises(Infeasible, match="underflows"):
            equal_delay_split(arrivals, [[1e10, 2e10], [1e-300, 2e-300], [3e10, 1e10]],
                              1e300)

    @pytest.mark.parametrize("arrivals, residuals, budget, named", [
        ([1.0, 2.0], [1e9], 1e9, "equal length"),
        ([[1.0, 2.0], [3.0, 4.0]], [1e9, 1e9, 1e9], 1e9, "equal length"),
        ([[[1.0, 2.0]]], [1e9, 1e9], 1e9, "stack of rows"),
        ([1.0, 2.0], [1e9, -1.0], 1e9, "residual"),
        ([1.0, 2.0], [1e9, 1e9], 0.0, "budget"),
        ([1.0, 2.0], [1e9, 1e9], math.inf, "positive and finite"),
        ([[1.0, 2.0], [3.0, 4.0]], [[1e9, 1e9]] * 3, 1e9, "equal length"),
        ([1.0, 2.0], [[1e9, 1e9]], 1e9, "equal length"),
        ([[1.0, 2.0], [3.0, 4.0]], [[1e9, 1e9], [1e9, 0.0]], 1e9, "same busy devices"),
    ], ids=["mismatched-lengths", "mismatched-stack", "3-d-arrivals",
            "negative-residual", "zero-budget", "infinite-budget", "mismatched-residual-rows",
            "residual-rows-for-one-row", "mixed-busy-patterns"])
    def test_rejects_malformed_input(self, arrivals, residuals, budget, named):
        with pytest.raises(ValidationError, match=named):
            equal_delay_split(arrivals, residuals, budget)

    def test_infinite_arrival_is_a_zero_rate(self):
        for arrivals in ([1.0, math.inf], [[1.0, 2.0], [1.0, math.inf], [3.0, 1.0]]):
            with pytest.raises(ZeroRate, match="device 1"):
                equal_delay_split(arrivals, [1e9, 1e9], 1e9)

    def test_budget_and_positivity_random(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            arrivals, residuals, budget = random_problem(rng)
            shares, t = equal_delay_split(arrivals, residuals, budget)
            assert np.all(shares > 0)
            assert shares.sum() == pytest.approx(budget, rel=1e-12)
            delays = arrivals + residuals / shares
            spread = (delays.max() - delays.min()) / delays.max()
            assert spread <= 1e-6
            assert t == delays.max()

    def test_busy_delays_equal_across_decades_of_work(self):
        # residuals spanning three decades; an earliest-arrival share
        # parametrization, near its pole, spread these delays by 2e-8
        rng = np.random.default_rng(8)
        for _ in range(2000):
            arrivals, residuals, budget = random_problem(rng)
            residuals *= 10.0 ** rng.integers(-3, 1, residuals.size)
            shares, t = equal_delay_split(arrivals, residuals, budget)
            delays = arrivals + residuals / shares
            assert np.abs(delays - t).max() <= 1e-12 * t

    @pytest.mark.parametrize("arrivals", [[1.0, 2.0], [[1.0, 2.0], [2.0, 1.0], [3.0, 3.0]]],
                             ids=["row", "stack"])
    def test_server_time_extremes(self, arrivals):
        # sum(r)/budget underflows to 0: no positive server time spends the budget
        with pytest.raises(Infeasible, match="underflows"):
            equal_delay_split(arrivals, [1e-300, 2e-300], 1e300)
        # sum(r)/budget overflows: the limit of infinite server time, no warning
        shares, t = equal_delay_split(arrivals, [1e300, 2e300], 1e-300)
        shares = np.atleast_2d(shares)
        assert np.all(np.isinf(t))
        assert np.allclose(shares * 1e300, [1 / 3, 2 / 3], rtol=1e-15, atol=0.0)
        assert np.allclose(shares.sum(axis=1) * 1e300, 1.0, rtol=1e-15, atol=0.0)

    def test_p2_at_a_vanishing_server_budget(self):
        # every device-side cut wins once the server time overflows
        net = build_network(ExperimentConfig(server_flops=1e-300, devices=3), 0)
        plan = solve_p2(net)
        assert plan.cuts == tuple(dev.profile.num_cuts for dev in net.devices)
        assert plan.objective == pytest.approx(3.6102, rel=1e-4)

    def test_followers_keep_positive_denominators(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            arrivals, residuals, budget = random_problem(rng)
            m = int(np.argmin(arrivals))
            x0 = equal_delay_split(arrivals, residuals, budget)[0][m]
            denom = residuals[m] + x0 * (arrivals[m] - arrivals)
            assert np.all(denom >= 0)

    def test_consumption_strictly_increasing(self):
        # the anchor share grows strictly with the budget it must spend
        arrivals, residuals, _ = random_problem(np.random.default_rng(5), k=6)
        m = int(np.argmin(arrivals))
        anchor = [equal_delay_split(arrivals, residuals, budget)[0][m]
                  for budget in np.geomspace(1e9, 1e12, 60)]
        assert np.all(np.diff(anchor) > 0)

    def test_root_matches_dense_scan(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            arrivals, residuals, budget = random_problem(rng, k=int(rng.integers(2, 9)))
            x0 = equal_delay_split(arrivals, residuals, budget)[0][np.argmin(arrivals)]
            lo, hi = dense_root_scan(arrivals, residuals, budget, points=10 ** 6)
            assert lo * (1 - 1e-9) <= x0 <= hi * (1 + 1e-9)


class TestRateInverse:
    """``_required_bandwidth_u`` solves log1p(u) = rho*u with u = snr/B."""

    @staticmethod
    def rate_at(rho, snr=1.0):
        """A rate whose rho, as the inverse forms it, is ``rho`` to within an ulp;
        returns (rate, the rho the inverse sees)."""
        rate = rho * snr / math.log(2.0)
        return rate, rate * math.log(2.0) / snr

    def test_matches_scipy_lambert_w_form(self):
        from scipy.special import lambertw
        for rho in np.geomspace(1e-6, 0.99, 40):
            rate, rho = self.rate_at(rho, snr=3.3e6)
            u = _required_bandwidth_u(3.3e6, rate)[1]
            ref = -lambertw(-rho * math.exp(-rho), -1).real / rho - 1.0
            assert u == pytest.approx(ref, rel=1e-13)

    @staticmethod
    def decimal_root(rho):
        """ln(1+u) = rho*u at 60 digits, by Newton steps from above the root."""
        with decimal.localcontext() as ctx:
            ctx.prec = 60
            r = decimal.Decimal(rho)
            u = 1 / (r * r) - 1
            for _ in range(200):
                step = ((1 + u).ln() - r * u) / (1 / (1 + u) - r)
                u -= step
                if step <= u * decimal.Decimal("1e-50"):  # signed, as in the code
                    return u

    def test_near_the_link_limit(self):
        for e in range(2, 12):
            rate, rho = self.rate_at(1.0 - 10.0 ** -e)
            bw, u = _required_bandwidth_u(1.0, rate)
            ref = self.decimal_root(rho)
            err = abs(decimal.Decimal(u) - ref) / ref
            assert float(err) <= 10 * 2.2e-16 / (1.0 - rho)
            assert bw == 1.0 / u

    def test_tiny_rho_is_finite_and_accurate(self):
        rate, rho = self.rate_at(1e-300)
        bw, u = _required_bandwidth_u(1.0, rate)
        assert math.isfinite(bw) and math.isfinite(u)
        assert math.log1p(u) == pytest.approx(rho * u, rel=1e-15)

    def test_overflowing_start_raises_typed_error(self):
        for rate in (1e-310, 5e-324, math.nan):  # start 2*ln(1/rho)/rho is inf or NaN
            with pytest.raises(NonConvergence):
                _required_bandwidth_u(1e6, rate)


class TestBandwidthForRate:
    def test_zero_rate(self):
        assert bandwidth_for_rate(1e6, 0.0) == 0.0

    def test_round_trip(self):
        link = link_with_snr(4.7e6)
        for b0 in (1e3, 5e4, 2e6, 8e7):
            rate = achievable_rate(b0, link)
            back = bandwidth_for_rate(link.snr_hz(), rate, rel_tol=1e-12)
            assert back == pytest.approx(b0, rel=1e-9)

    def test_capacity_asymptote(self):
        link = link_with_snr(1e6)
        limit = link.rate_limit()
        big = bandwidth_for_rate(link.snr_hz(), 0.99 * limit)
        assert big > 40 * 1e6  # far into the wide-band regime
        for rate in (1.01 * limit, limit * (1.0 - 1e-13)):  # past and inside the guard
            assert bandwidth_for_rate(link.snr_hz(), rate) == math.inf
            assert _required_bandwidth_u(link.snr_hz(), rate)[0] == math.inf

    def test_closed_form_inverse_agrees_with_bisection(self):
        link = link_with_snr(3.3e6)
        snr = link.snr_hz()
        for rate in (1e3, 1e5, 1e6, 0.6 * link.rate_limit(), 0.995 * link.rate_limit()):
            fast = _required_bandwidth_u(snr, rate)[0]
            slow = bandwidth_for_rate(snr, rate, rel_tol=1e-12)
            assert fast == pytest.approx(slow, rel=1e-8)

    @staticmethod
    def by_achievable_rate(link, rate, rel_tol=1e-9):
        """The rate inverse as it was: every probe calls ``achievable_rate``."""
        if rate == 0.0:
            return 0.0

        def meets(bandwidth):
            return achievable_rate(bandwidth, link) >= rate

        hi = _grow(meets, rate, 2.0, 200, "bracket growth failed")
        return _bisect(meets, 0.0, hi, rel_tol)[1]

    def test_matches_achievable_rate_bisection_bit_for_bit(self):
        """Probing ``shannon_rate`` at a precomputed SNR in Python floats gives
        the bandwidths of the ``achievable_rate`` probes exactly, for float and
        numpy rates (SNRs from numpy fading powers too), near the limit and
        for tiny rates down to the smallest subnormal."""
        rng = np.random.default_rng(7)
        links = [link_with_snr(snr) for snr in (1.0, 3.3e6, 2.5e9)]
        links += [link_with_snr(1e6).with_fading(h) for h in rng.exponential(size=4)]
        for link in links:
            limit = link.rate_limit()
            rates = [limit * x for x in (0.999, 0.9, 0.3, 1e-3, 1e-9)]
            rates += list(rng.uniform(0.0, 0.999, 5) * limit) + [1e-300, 5e-324]
            for rate in rates:
                for tol in (1e-9, 1e-12):
                    with np.errstate(over="ignore"):  # numpy-scalar probes at 5e-324
                        want = self.by_achievable_rate(link, rate, tol)
                    for given in (float(rate), np.float64(rate)):
                        got = bandwidth_for_rate(link.snr_hz(), given, rel_tol=tol)
                        assert type(got) is float and got == want

    @staticmethod
    def by_shannon_rate(snr, rate, rel_tol):
        """The rate inverse with every point probed: ``shannon_rate`` at the
        same Python floats, through ``_grow`` and ``_bisect`` with no window."""
        snr, rate = float(snr), float(rate)
        if rate == 0.0:
            return 0.0
        if rate >= snr / math.log(2.0) * (1.0 - 1e-12):
            return math.inf

        def meets(bandwidth):
            return shannon_rate(snr, bandwidth) >= rate

        hi = _grow(meets, rate, 2.0, 200, "bracket growth failed")
        return _bisect(meets, 0.0, hi, rel_tol)[1]

    @staticmethod
    def dense_pairs(rng):
        """24k (SNR, rate) pairs: SNR over 21 decades, in-band SNR u at the
        answer over 20 decades (rate fractions of the limit up to
        1 - 1e-12), a dense band u in [1e-3, 1e-2] just below the window's
        threshold, and subnormal and smallest-normal rates."""
        ln2 = math.log(2.0)
        snr = 10.0 ** rng.uniform(-9.0, 12.0, 24000)
        u = 10.0 ** np.concatenate([rng.uniform(-12.0, 8.0, 12000),
                                    rng.uniform(-3.0, -2.0, 8000),
                                    rng.uniform(-2.0, -1.0, 3000)])
        rate = list(snr[:u.size] / u * np.log1p(u) / ln2)
        limit = snr[u.size:u.size + 500] / ln2
        rate += list(limit * (1.0 - 10.0 ** rng.uniform(-12.5, -1.0, limit.size)))
        rate += [r for r in (5e-324, 1e-310, 2.2250738585072014e-308, 1e-300)
                 for _ in range(125)]
        return list(zip(snr.tolist(), rate))

    def test_window_gives_the_probed_answer_bit_for_bit(self):
        """The windowed inverse against the probe-everything bisection on a
        dense sweep, at three tolerances, for float and numpy inputs. The
        band below the threshold fails this when the threshold is 1e-3."""
        rng = np.random.default_rng(25)
        for snr, rate in self.dense_pairs(rng):
            for tol in (1e-9, 1e-12, 1e-14):
                want = self.by_shannon_rate(snr, rate, tol)
                for s, r in ((snr, rate), (np.float64(snr), np.float64(rate))):
                    got = bandwidth_for_rate(s, r, rel_tol=tol)
                    assert type(got) is float and got == want, (snr, rate, tol)

    def test_probes_only_inside_the_window(self, monkeypatch):
        """Above the threshold every probe lies within 1e-10 of the Newton
        estimate, and most calls at the default tolerance make none."""
        probes = []
        monkeypatch.setattr(parallel, "shannon_rate",
                            lambda snr, bw: probes.append(bw) or shannon_rate(snr, bw))
        rng = np.random.default_rng(26)
        snrs, us = 10.0 ** rng.uniform(-6, 12, 2000), 10.0 ** rng.uniform(-1.9, 6, 2000)
        total = 0
        for snr, u in zip(snrs.tolist(), us.tolist()):
            rate = snr / u * math.log1p(u) / math.log(2.0)
            est = _required_bandwidth_u(snr, rate)[0]
            probes.clear()
            bandwidth_for_rate(snr, rate)
            assert all(abs(bw - est) <= 1e-10 * est for bw in probes)
            total += len(probes)
        assert total / len(snrs) <= 1.0


@pytest.mark.filterwarnings("error")
class TestArrivalKernel:
    def test_matches_reference_arrival_delay(self):
        """Kernel against ``delay.arrival_delay`` device by device. Device 0
        gets a subnormal share, device 1 a zero share (kernel inf, reference
        ``ZeroRate``), and a one-bit device stays finite over another. A
        zero-SNR device never gets here: ``CutTable`` raises ``ZeroRate``."""
        rng = np.random.default_rng(17)
        whisper = Device(link=link_with_snr(6e8), compute_flops=3e10,
                         profile=profile_from_lists([1e9], [1], raw_bits=1))
        for _ in range(20):
            net = random_network(rng, devices=4)
            net = NetworkInstance(net.devices + (whisper,), net.server_flops,
                                  net.total_bandwidth_hz)
            table = CutTable(net)
            draw = np.random.default_rng(int(rng.integers(1 << 30)))
            cuts = tuple(int(draw.integers(0, dev.profile.num_cuts + 1))
                         for dev in net.devices)
            bw = rng.uniform(0.0, net.total_bandwidth_hz, net.num_devices)
            bw[0], bw[1], bw[4] = 5e-324, 0.0, 1e-308
            got = table.view(cuts).arrivals(bw)
            for i, dev in enumerate(net.devices):
                if bw[i] > 0:
                    assert got[i] == arrival_delay(dev, cuts[i], float(bw[i]))
            assert 1e300 < got[4] < math.inf
            assert got[1] == math.inf
            with pytest.raises(ZeroRate):
                arrival_delay(net.devices[1], cuts[1], 0.0)

    def test_all_cut_rows_match_reference_arrival_delay(self):
        """``CutTable.all_arrivals`` against ``delay.arrival_delay`` at every
        real cut of every device of a ragged fleet, ``inf`` on the padding,
        and ``inf`` at every cut over a zero or subnormal share."""
        rng = np.random.default_rng(18)
        padded = 0
        for _ in range(10):
            net = ragged_network(rng, devices=3)
            table = CutTable(net)
            bw = rng.uniform(0.0, net.total_bandwidth_hz, net.num_devices)
            got = table.all_arrivals(bw)
            assert got.shape == table.bits.shape
            for i, dev in enumerate(net.devices):
                real = dev.profile.num_cuts + 1
                for cut, value in enumerate(got[i, :real].tolist()):
                    assert value == arrival_delay(dev, cut, float(bw[i]))
                assert (got[i, real:] == math.inf).all()
                padded += got.shape[1] - real
            for tiny in (5e-324, 1e-310, 0.0):
                assert (table.all_arrivals(np.full(net.num_devices, tiny)) == math.inf).all()
        assert padded > 0


class TestCutTable:
    def test_one_table_per_network_and_read_only(self):
        """``CutTable.of`` hands out the last table while it asks for the same
        network object, and nobody can write into a shared table."""
        net = build_network(ExperimentConfig(devices=3), 0)
        table = CutTable.of(net)
        assert CutTable.of(net) is table
        assert CutTable.of(build_network(ExperimentConfig(devices=3), 0)) is not table
        for name in ("local_s", "bits", "resid", "snr"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(table, name)[0] = 0.0

    def test_bits_are_the_payload_of_each_cut(self):
        """The one-op payload vectors equal ``payload_bits`` cut by cut, also
        past 2**53 where adding the halves as floats would round differently."""
        rng = np.random.default_rng(12)
        profiles = [random_profile(rng, modules=int(rng.integers(1, 9))) for _ in range(20)]
        profiles.append(profile_from_lists([1, 2], [2**53 + 1, 3], index_bits=[0, 1, 0],
                                           raw_bits=2**62 - 1))
        for prof in profiles:
            net = NetworkInstance((Device(link=link_with_snr(1e6), compute_flops=1e9,
                                          profile=prof),),
                                  server_flops=1e10, total_bandwidth_hz=1e6)
            want = np.asarray([prof.payload_bits(l) for l in range(prof.num_cuts + 1)],
                              dtype=float)
            got = CutTable(net).bits[0]
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)


def reselect_by_device(table, bandwidth, shares):
    """The parallel cut re-selection as it was: one row per device over its
    own cuts, each with its own server term."""
    cuts = []
    for i, dev in enumerate(table.net.devices):
        real = slice(0, dev.profile.num_cuts + 1)
        resid = table.resid[i, real]
        rate = shannon_rate(float(table.snr[i]), float(bandwidth[i]))
        serve = np.where(resid > 0, resid / shares[i] if shares[i] > 0 else math.inf, 0.0)
        delays = parallel._arrival_seconds(table.local_s[i, real], table.bits[i, real], rate)
        cuts.append(int(np.argmin(delays + serve)))
    return tuple(cuts)


class TestRaggedFleet:
    """Fleets whose devices have 1 to 6 modules: padded cut tables."""

    @staticmethod
    def fleets(seed, count, sizes=(2, 9)):
        rng = np.random.default_rng(seed)
        return [ragged_network(rng, devices=int(rng.integers(*sizes))) for _ in range(count)]

    def test_plans_and_oracles_keep_every_cut_in_its_device_range(self):
        fleets = self.fleets(61, 6)
        assert sum(len({d.profile.num_cuts for d in net.devices}) > 1 for net in fleets) >= 5
        for net in fleets:
            top = [dev.profile.num_cuts for dev in net.devices]
            for name, solve in POLICIES.items():
                plan = solve(net)
                assert all(0 <= c <= n for c, n in zip(plan.cuts, top)), name
                assert math.isfinite(plan.objective), name
        for net in self.fleets(62, 3, sizes=(2, 3)):
            top = [dev.profile.num_cuts for dev in net.devices]
            for oracle in (oracle_parallel, oracle_serial):
                result = oracle(net, GridSpec(bandwidth_points=21))
                assert all(0 <= c <= n for c, n in zip(result.cuts, top))
                assert math.isfinite(result.objective)

    def test_min_data_cuts_are_each_devices_first_smallest_payload(self):
        for net in self.fleets(63, 10):
            want = tuple(int(np.argmin([d.profile.payload_bits(l)
                                        for l in range(d.profile.num_cuts + 1)]))
                         for d in net.devices)
            assert CutTable(net).min_data_cuts() == want

    def test_reselect_matches_the_per_device_form(self):
        """Exact equality with the per-device loop on uniform and ragged
        fleets, with some devices at a zero server share."""
        rng = np.random.default_rng(64)
        nets = self.fleets(65, 20) + [random_network(rng, devices=int(rng.integers(1, 9)))
                                      for _ in range(20)]
        for net in nets:
            k = net.num_devices
            table = CutTable(net)
            for _ in range(5):
                bw = rng.dirichlet(np.ones(k)) * net.total_bandwidth_hz
                shares = rng.dirichlet(np.ones(k)) * net.server_flops
                shares[rng.random(k) < 0.3] = 0.0
                assert (parallel._reselect_parallel(table, bw, shares)
                        == reselect_by_device(table, bw, shares))


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

    def test_window_decides_without_probing(self):
        """Points at or above ``above`` pass and points at or below ``below``
        fail without a call; only the points between them are probed, and
        the bracket is the one the unwindowed search finds."""
        probes = []
        window = (0.3 - 1e-3, 0.3 + 1e-3)
        assert _grow(self.step(0.3, probes), 1e-3, 2.0, 20, "unused", window) == 0.512
        assert probes == []
        plain = _bisect(self.step(0.3, []), 0.0, 1.0, 1e-9)
        assert _bisect(self.step(0.3, probes), 0.0, 1.0, 1e-9, window) == plain
        assert probes and all(window[0] < x < window[1] for x in probes)


class TestLeastTarget:
    @staticmethod
    def floor_from(at, probes):
        """Floor that nothing meets up to ``at / 2`` and whose total ``at / t``
        fits a unit budget from ``at`` on; no slope, and t as the allocation."""
        def floor(t):
            probes.append(t)
            return None if t <= 0.5 * at else (at / t, t, None)
        return floor

    def test_without_a_slope_it_matches_plain_bisection(self):
        rng = np.random.default_rng(71)
        for at in rng.uniform(1e-6, 1e3, 50):
            t_floor = at * rng.uniform(0.0, 0.9)
            t, alloc = parallel._least_target(self.floor_from(at, []), 1.0, t_floor)

            def ok(x):
                res = self.floor_from(at, [])(x)
                return res is not None and res[0] <= 1.0

            seed = 2.0 * t_floor if t_floor > 0 else 2e-9
            ref = _bisect(ok, t_floor, _grow(ok, seed, 2.0, 200, "unused"), 1e-9)[1]
            assert alloc == t and abs(t - ref) <= 1e-9 * ref

    def test_a_zero_floor_seeds_at_two_nanoseconds(self):
        probes = []
        t, _ = parallel._least_target(self.floor_from(1e-6, probes), 1.0, 0.0)
        assert probes[0] == 2e-9 and abs(t - 1e-6) <= 1e-9 * t
        probes.clear()
        parallel._least_target(self.floor_from(1e-6, probes), 1.0, 0.0, t_seed=3e-6)
        assert probes[0] == 3e-6

    def test_an_infeasible_seed_with_a_slope_comes_up_from_below(self):
        """The convex total a/(t - c), with its slope, fits a unit budget from
        its root c + a on. Seeded below the root, Newton steps come up from
        below: no probe lies above the root by more than the bracket width,
        let alone at twice the root, where doubling the seed would land."""
        rng = np.random.default_rng(72)
        for _ in range(50):
            a, c = rng.uniform(1e-6, 1e3, 2)
            probes = []

            def floor(t):
                probes.append(t)
                return None if t <= c else (a / (t - c), t, -a / (t - c) ** 2)

            root = c + a
            seed = c + a * rng.uniform(0.05, 0.99)
            t, alloc = parallel._least_target(floor, 1.0, c, seed)
            assert probes[0] == seed and alloc == t
            assert probes == sorted(probes)
            assert max(probes) <= root * (1 + parallel._BISECT_REL_TOL) < 2 * root
            assert abs(t - root) <= parallel._BISECT_REL_TOL * root

    @pytest.mark.parametrize("t_floor", [math.inf, math.nan])
    def test_a_non_finite_floor_raises_infeasible(self, t_floor):
        probes = []
        with pytest.raises(Infeasible):
            parallel._least_target(self.floor_from(1.0, probes), 1.0, t_floor)
        assert probes == []


class TestZeroWorkload:
    """Nothing to compute anywhere: the target-delay floor is 0."""

    def test_every_policy_and_oracle_gives_a_finite_plan(self):
        net = zero_workload_network(0)
        assert net.devices[0].profile.cum_workload == (0, 0, 0)
        plans = {name: solve(net) for name, solve in POLICIES.items()}
        assert all(math.isfinite(plan.objective) for plan in plans.values())
        assert plans["min-data"].objective == pytest.approx(plans["p1"].objective, rel=1e-9)
        for oracle in (oracle_parallel, oracle_serial):
            assert math.isfinite(oracle(net, GridSpec(bandwidth_points=21)).objective)


class TestAlternate:
    """The one alternation loop of p1 and p3, on synthetic steps: round
    ``n`` evaluates cut vector ``(n,)`` to ``objectives[n]``."""

    @staticmethod
    def run(objectives, max_iter, fixed_at=None):
        def evaluate(cuts):
            return objectives[cuts[0]], f"alloc{cuts[0]}"

        def reselect(cuts, alloc):
            assert alloc == f"alloc{cuts[0]}"
            return cuts if cuts[0] == fixed_at else (cuts[0] + 1,)

        return _alternate((0,), evaluate, reselect, max_iter)

    def test_stops_on_fixed_cuts(self):
        best, history = self.run([5.0, 4.0, 3.0, 2.0, 1.0], 10, fixed_at=2)
        assert len(history) == 3
        assert best == (3.0, (2,), "alloc2")
        assert history == [5.0, 4.0, 3.0]

    def test_stops_on_stall_within_relative_tolerance(self):
        best, history = self.run([5.0, 4.0, 4.0 * (1 + 0.9e-6), 1.0], 10)
        assert len(history) == 3
        assert best == (4.0, (1,), "alloc1")
        # a move just above the tolerance does not stop it
        _, history = self.run([5.0, 4.0, 4.0 * (1 + 2e-6), 1.0, 0.5], 4)
        assert len(history) == 4

    def test_stops_at_the_cap(self):
        best, history = self.run([9.0, 1.0, 7.0, 3.0, 8.0, 2.0], 4)
        assert len(history) == 4
        assert best == (1.0, (1,), "alloc1")
        assert history == [9.0, 1.0, 1.0, 1.0]

    def test_first_of_equal_objectives_wins_and_history_never_rises(self):
        objectives = [6.0, 2.0, 5.0, 2.0, 3.0, 2.0]
        best, history = self.run(objectives, len(objectives))
        assert len(history) == len(objectives)
        assert best == (2.0, (1,), "alloc1")
        assert history == [6.0, 2.0, 2.0, 2.0, 2.0, 2.0]
        assert all(b <= a for a, b in zip(history, history[1:]))


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

    @staticmethod
    def cut_rows(net):
        """Per device, the ``(arrival, residual)`` of every cut at the equal
        bandwidth, from the reference delay algebra."""
        bw = net.total_bandwidth_hz / net.num_devices
        return [[(arrival_delay(dev, c, bw), residual_workload(dev.profile, c))
                 for c in range(dev.profile.num_cuts + 1)] for dev in net.devices]

    def test_no_cut_vector_meets_a_lower_target(self):
        """Optimality over cuts and shares: each device at each cut meets a
        target t with the server share r/(t - a) (0 for an arrived cut
        without residual work, inf for one not yet arrived). At
        T * (1 - 1e-9), T being p2's objective, the least such shares of the
        devices overrun the budget, so no cut vector meets that target; at T
        the busy shares spend the budget."""
        def need(arrival, resid, t):
            if arrival > t or (resid > 0 and arrival == t):
                return math.inf
            return resid / (t - arrival) if resid > 0 else 0.0

        rng = np.random.default_rng(5)
        for _ in range(100):
            net = random_network(rng, devices=int(rng.integers(2, 10)))
            plan = solve_p2(net)
            lower = plan.objective * (1 - 1e-9)
            assert sum(min(need(a, r, lower) for a, r in row)
                       for row in self.cut_rows(net)) > net.server_flops
            if any(r > 0 for r in plan.residuals):
                assert math.fsum(plan.server_flops) == pytest.approx(net.server_flops,
                                                                      rel=1e-12)

    def test_no_cut_vector_beats_it(self):
        """Full enumeration of cut vectors, each priced by its equal-delay
        split, on uniform and ragged fleets of 2-4 devices."""
        rng = np.random.default_rng(17)
        fleets = ([random_network(rng, devices=int(rng.integers(2, 5))) for _ in range(15)]
                  + [ragged_network(rng, devices=int(rng.integers(2, 4))) for _ in range(10)])
        for net in fleets:
            best = min(equal_delay_split(*zip(*cells), net.server_flops)[1]
                       for cells in itertools.product(*self.cut_rows(net)))
            assert solve_p2(net).objective <= best * (1 + 1e-9)

    @pytest.mark.parametrize("k", [4, 10, 32])
    def test_stops_once_the_cuts_are_settled(self, k, monkeypatch):
        """A count, not a timing: on 10 default trials, ``p2``'s target search
        averages at most 12 probes per solve (a full bisection to 1e-9 takes
        about 32). ``test_no_cut_vector_meets_a_lower_target`` shows the
        stop loses nothing."""
        counts = count_target_probes(monkeypatch, parallel)
        cfg = ExperimentConfig(devices=k)
        for trial in range(10):
            solve_p2(build_network(cfg, trial))
        assert counts["searches"] == 10
        assert counts["probes"] / counts["searches"] <= 12

    def test_plans_do_not_depend_on_the_alternation_cap(self):
        rng = np.random.default_rng(18)
        for _ in range(10):
            net = random_network(rng, devices=int(rng.integers(2, 10)))
            plan = solve_p2(net, SolverSettings(max_alternations=1))
            assert plan == solve_p2(net, SolverSettings(max_alternations=20))
            assert plan.objective_history == (plan.objective,)


class TestJointPolicy:
    def test_builds_one_cut_table(self, monkeypatch):
        """One network builds one table: ``p1`` seeds from ``p2`` on its own
        table, and all seven policies, then both grid oracles, share it."""
        built = []
        init = CutTable.__init__

        def spy(table, net):
            built.append(net)
            init(table, net)

        monkeypatch.setattr(CutTable, "__init__", spy)
        net = build_network(ExperimentConfig(devices=4), 0)
        solve_p1(net)
        assert built == [net]
        for solve in POLICIES.values():
            solve(net)
        assert built == [net]
        toy = oracle_benchmark_network(np.random.default_rng(5))
        for solve in POLICIES.values():
            solve(toy)
        for oracle in (oracle_parallel, oracle_serial):
            oracle(toy, GridSpec(bandwidth_points=21))
        assert built == [net, toy]

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
        fleets = ([random_network(rng, devices=4) for _ in range(20)]
                  + [ragged_network(rng, devices=int(rng.integers(2, 9))) for _ in range(20)])
        for net in fleets:
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


def record_steps(monkeypatch):
    """Spy on ``resource_subproblem``; returns the live list of
    ``(view, compute budget, (objective, bandwidth, shares))``."""
    calls = []
    step = parallel.resource_subproblem

    def spy(view, bandwidth_budget, compute_budget):
        out = step(view, bandwidth_budget, compute_budget)
        calls.append((view, compute_budget, out))
        return out

    monkeypatch.setattr(parallel, "resource_subproblem", spy)
    return calls


class TestWaterFill:
    """The convex resource step's compute split against the KKT conditions
    and against the per-device share for a price."""

    @staticmethod
    def nets():
        rng = np.random.default_rng(31)
        for _ in range(4):
            yield random_network(rng, devices=int(rng.integers(3, 9)))
        for _ in range(4):
            yield oracle_benchmark_network(rng)

    @staticmethod
    def solve_all(net, policies=(solve_p1, min_data_layer_policy, first_layer_policy)):
        return [policy(net).objective for policy in policies]

    def test_shares_meet_kkt_and_match_share_for_price(self, monkeypatch):
        calls = record_steps(monkeypatch)
        for net in self.nets():
            self.solve_all(net)
        assert len(calls) > 30
        for view, budget, (obj, _, f) in calls:
            assert abs(f.sum() - budget) <= 1e-12 * budget
            assert_kkt(view, obj, f, budget)

    def test_steps_halve_at_the_capacity_edge(self, monkeypatch):
        """From the equal-bandwidth start, full Newton steps leave the domain
        (a share or an upload time below zero, or a rate beyond its link) on
        these nets, so the line search rejects trial points; the halved steps
        still reach plans that pass the certificate (seen: 6 of 221 trial
        points outside the domain)."""
        refused = []
        floor = parallel._bandwidth_floor

        def spy(*args):
            out = floor(*args)
            refused.append(out is None)
            return out

        monkeypatch.setattr(parallel, "_bandwidth_floor", spy)
        calls = record_steps(monkeypatch)
        for net in self.nets():
            self.solve_all(net)
        assert sum(refused) > 0
        for view, budget, (obj, _, f) in calls:
            assert_kkt(view, obj, f, budget)


class TestCapacityEdge:
    def test_two_device_fleet_at_the_edge_gets_shares(self, monkeypatch):
        """Random fleets whose shares sit near their floors (fleet 2 has two
        devices): every convex step returns a plan that passes the
        certificate."""
        calls = record_steps(monkeypatch)
        rng = np.random.default_rng(99)
        for _ in range(5):
            net = random_network(rng, devices=int(rng.integers(2, 12)))
            solve_p1(net)
            first_layer_policy(net)
        assert len(calls) > 10
        for view, budget, (obj, _, f) in calls:
            assert_kkt(view, obj, f, budget)

    def test_deep_fade_device_settles_at_the_rounding_floor(self, monkeypatch):
        """Trial 504 at seed 1 has a device with in-band SNR near 2e-3 at the
        optimum, within 0.1% of its link's limit; the rate inverse stays
        accurate there, so every convex step settles on a certified plan."""
        calls = record_steps(monkeypatch)
        solve_p1(build_network(ExperimentConfig(seed=1), 504))
        assert calls
        for view, budget, (obj, _, f) in calls:
            assert_kkt(view, obj, f, budget)


def default_views(sizes=(4, 10, 32), trials=3):
    """``(net, cuts, view)`` of default trials at each fleet size, at the
    minimum-payload cuts, the all-raw cuts and ``p2``'s cuts."""
    for k in sizes:
        cfg = ExperimentConfig(devices=k)
        for trial in range(trials):
            net = build_network(cfg, trial)
            table = CutTable(net)
            for cuts in (table.min_data_cuts(), (0,) * k, solve_p2(net).cuts):
                yield net, cuts, table.view(cuts)


class TestBandwidthFloor:
    def test_price_and_its_log_slope_match_central_differences(self):
        """``_bandwidth_floor``'s price q = -dB/ds and d ln q/ds are the
        derivatives of its B and q in the upload seconds: central
        differences with step 1e-6*t agree within 1e-7 relative (seen:
        2.4e-10 and 1.5e-10), at the optimum and above it."""
        for net, _, view in default_views():
            obj, _, f = parallel.resource_subproblem(
                view, net.total_bandwidth_hz, net.server_flops)
            f = f.tolist()
            for t in obj * np.array([1.0, 1.05, 1.3, 2.0]):
                h = 1e-6 * t
                bw, q, curve = parallel._bandwidth_floor(view, (t - view.local_s).tolist(), f)
                (b_up, q_up, _), (b_dn, q_dn, _) = (
                    parallel._bandwidth_floor(view, (t + d - view.local_s).tolist(), f)
                    for d in (h, -h))
                for i in range(len(bw)):
                    central = -(b_up[i] - b_dn[i]) / (2 * h)
                    assert q[i] > 0 and abs(q[i] - central) <= 1e-7 * central
                    central = (q_up[i] - q_dn[i]) / (2 * h * q[i])
                    assert curve[i] < 0 and abs(curve[i] - central) <= 1e-7 * abs(central)


class TestResourceSubproblem:
    def test_meets_kkt_and_spends_both_budgets(self):
        """KKT is sufficient for this convex program, so the certificate is
        the reference; every busy device's delay is the objective within
        1e-12 (seen: 3.8e-16)."""
        for net, cuts, view in default_views():
            bw_budget, compute = net.total_bandwidth_hz, net.server_flops
            obj, bw, f = parallel.resource_subproblem(view, bw_budget, compute)
            assert_kkt(view, obj, f, compute)
            assert abs(bw.sum() - bw_budget) <= 1e-12 * bw_budget
            assert abs(f.sum() - compute) <= 1e-12 * compute
            busy = [arrival_delay(dev, cut, b) + r / fi
                    for dev, cut, b, r, fi in zip(net.devices, cuts, bw, view.resid, f)
                    if r > 0]
            assert busy and max(abs(d - obj) for d in busy) <= 1e-12 * obj

    def test_probes_per_convex_step(self, monkeypatch):
        """A count, not a timing: on 10 default trials at k = 4, 10 and 32,
        ``p1``, ``min-data`` and ``first-layer`` make at most 12 rate
        inversions per device per ``resource_subproblem`` call (seen: 6.4,
        7.7 and 8.3)."""
        counts = {"steps": 0, "inversions": 0}
        for name, key in (("resource_subproblem", "steps"),
                          ("_required_bandwidth_u", "inversions")):
            def spy(*args, _fn=getattr(parallel, name), _key=key, **kwargs):
                counts[_key] += 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(parallel, name, spy)
        for k in (4, 10, 32):
            counts.update(steps=0, inversions=0)
            cfg = ExperimentConfig(devices=k)
            for trial in range(10):
                net = build_network(cfg, trial)
                for policy in (solve_p1, min_data_layer_policy, first_layer_policy):
                    policy(net)
            assert counts["steps"] > 0
            assert counts["inversions"] / (k * counts["steps"]) <= 12, k


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

"""Path loss, achievable rate and the pinned fading stream."""

import math
import warnings

import numpy as np
import pytest

from conftest import link_with_snr
from splitplan.channel import (LinkParams, achievable_rate, db_to_linear,
                               dbm_per_hz_to_watts, fading_stream, path_loss,
                               sample_fading, trial_fading)
from splitplan.errors import DomainError

# frozen from a direct evaluation of the rate formula at
# B=20 MHz, P=1 W, Gt=1, Gr=10, lambda=0.05 m, d=50 m, n=2.4,
# N0=10^-20.4 W/Hz, |h|^2=1
GOLDEN_RATE = 283087413.8856204
GOLDEN_PATH_LOSS = 1.4517650146379836e-10


class TestPathLoss:
    def test_unit_distance(self):
        lam = 0.05
        assert path_loss(lam / (4 * math.pi), lam, 2.4) == pytest.approx(1.0, rel=1e-12)

    def test_reference_distance(self):
        assert path_loss(50.0, 0.05, 2.4) == pytest.approx(GOLDEN_PATH_LOSS, rel=1e-12)

    def test_zero_exponent(self):
        assert path_loss(123.0, 0.05, 0.0) == 1.0

    def test_domain(self):
        with pytest.raises(DomainError):
            path_loss(0.0, 0.05, 2.4)


class TestAchievableRate:
    def test_zero_power(self):
        link = LinkParams(power_w=0.0)
        assert achievable_rate(1e6, link) == 0.0

    def test_zero_fading(self):
        link = LinkParams(power_w=1.0, fading_power=0.0)
        assert achievable_rate(1e6, link) == 0.0

    def test_zero_bandwidth(self):
        link = LinkParams(power_w=1.0)
        assert achievable_rate(0.0, link) == 0.0

    def test_golden_value(self):
        link = LinkParams(power_w=1.0, gain_tx=1.0, gain_rx=10.0,
                          wavelength_m=0.05, distance_m=50.0, pathloss_exp=2.4,
                          noise_w_per_hz=10 ** -20.4, fading_power=1.0)
        assert achievable_rate(20e6, link) == pytest.approx(GOLDEN_RATE, rel=1e-12)

    def test_increasing_and_concave_in_bandwidth(self):
        link = link_with_snr(5e6)
        bs = np.linspace(1e4, 5e7, 400)
        rates = np.array([achievable_rate(b, link) for b in bs])
        diffs = np.diff(rates)
        assert np.all(diffs > 0)
        assert np.all(np.diff(diffs) < 1e-9 * rates.max())

    def test_increasing_in_power_and_fading(self):
        base = dict(gain_tx=1.0, gain_rx=10.0, wavelength_m=0.05,
                    distance_m=50.0, pathloss_exp=2.4, noise_w_per_hz=1e-18)
        r = [achievable_rate(1e6, LinkParams(power_w=p, **base)) for p in (0.5, 1.0, 2.0)]
        assert r[0] < r[1] < r[2]
        r = [achievable_rate(1e6, LinkParams(power_w=1.0, fading_power=h, **base))
             for h in (0.2, 1.0, 4.0)]
        assert r[0] < r[1] < r[2]

    def test_numpy_scalars_give_the_float_result_without_warning(self):
        # a subnormal bandwidth makes snr/B overflow: silently to inf on
        # Python floats, with a RuntimeWarning on numpy scalars
        plain = link_with_snr(1e6)
        faded = LinkParams(power_w=1.0, fading_power=np.float64(0.7))
        as_float = LinkParams(power_w=1.0, fading_power=0.7)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for b in (5e-324, 1e-310, 2e6):
                assert achievable_rate(np.float64(b), plain) == achievable_rate(b, plain)
                assert achievable_rate(np.float64(b), faded) == achievable_rate(b, as_float)

    def test_wideband_limit(self):
        link = link_with_snr(1e4)
        limit = link.rate_limit()
        assert achievable_rate(1e4 * 1e4, link) == pytest.approx(limit, rel=1e-2)
        assert achievable_rate(1e4 * 1e4, link) < limit

    def test_config_reads_dbi_by_default(self):
        link = LinkParams.from_config({"power_w": 1.0, "gain_tx_dbi": 1.0,
                                       "gain_rx_dbi": 10.0})
        assert link.gain_tx == pytest.approx(db_to_linear(1.0))
        assert link.gain_rx == pytest.approx(10.0)

    def test_config_accepts_linear_gains(self):
        link = LinkParams.from_config({"power_w": 1.0, "gain_tx": 2.0, "gain_rx": 3.0})
        assert (link.gain_tx, link.gain_rx) == (2.0, 3.0)

    def test_noise_conversion(self):
        assert dbm_per_hz_to_watts(-174.0) == pytest.approx(10 ** -20.4, rel=1e-12)


class TestFading:
    def test_deterministic_under_seed(self):
        a = sample_fading(fading_stream(42, trial=3), 8)
        b = sample_fading(fading_stream(42, trial=3), 8)
        assert np.array_equal(a, b)

    def test_trials_differ(self):
        a = trial_fading(42, 0, 8)
        b = trial_fading(42, 1, 8)
        assert not np.array_equal(a, b)

    def test_non_negative(self):
        draws = trial_fading(7, 0, 10_000)
        assert np.all(draws >= 0.0)

    def test_unit_mean(self):
        draws = sample_fading(fading_stream(123), 1_000_000)
        assert abs(draws.mean() - 1.0) <= 0.01

    def test_scalar_draw(self):
        x = sample_fading(fading_stream(5))
        assert isinstance(x, float) and x >= 0.0

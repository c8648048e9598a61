"""Uplink model: distance path loss, block Rayleigh fading, bandwidth-share rate.

The fading draw is pinned bit-exactly: one 64-bit word from a Philox
counter-based generator keyed by (seed, trial) is mapped to a 53-bit uniform
``u`` and then to ``-log(1 - u)``, an Exponential(1) sample for the squared
magnitude of a unit circularly-symmetric complex Gaussian coefficient. The
mapping avoids generator-internal distribution code, so identical seeds give
identical draws on every platform.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DomainError

LN2 = math.log(2.0)

#: Thermal noise density at room temperature; used whenever a config does not
#: override it. Absolute delays scale directly with this value.
DEFAULT_NOISE_DBM_PER_HZ = -174.0


def db_to_linear(db: float) -> float:
    return 10.0 ** (db / 10.0)


def dbm_per_hz_to_watts(dbm: float) -> float:
    return 10.0 ** ((dbm - 30.0) / 10.0)


def path_loss(distance_m: float, wavelength_m: float, exponent: float) -> float:
    """(4*pi*d/lambda)**(-n); 1 at d = lambda/(4*pi), below 1 farther out."""
    if distance_m <= 0 or wavelength_m <= 0:
        raise DomainError("distance and wavelength must be positive")
    return (4.0 * math.pi * distance_m / wavelength_m) ** (-exponent)


@dataclass(frozen=True)
class LinkParams:
    """One device-to-base-station link. Gains are linear, not dB."""

    power_w: float
    gain_tx: float = 1.0
    gain_rx: float = 1.0
    wavelength_m: float = 0.05
    distance_m: float = 50.0
    pathloss_exp: float = 2.4
    noise_w_per_hz: float = dbm_per_hz_to_watts(DEFAULT_NOISE_DBM_PER_HZ)
    fading_power: float = 1.0

    def __post_init__(self):
        if self.power_w < 0:
            raise DomainError("transmit power must be >= 0")
        if self.gain_tx <= 0 or self.gain_rx <= 0:
            raise DomainError("antenna gains must be positive")
        if self.wavelength_m <= 0 or self.distance_m <= 0:
            raise DomainError("wavelength and distance must be positive")
        if self.pathloss_exp <= 0:
            raise DomainError("path loss exponent must be positive")
        if self.noise_w_per_hz <= 0:
            raise DomainError("noise density must be positive")
        if self.fading_power < 0:
            raise DomainError("fading power must be >= 0")

    #: Every key :meth:`from_config` reads. The fading power is not one: each
    #: trial draws its own (:func:`trial_fading`).
    CONFIG_KEYS = ("power_w", "gain_tx_dbi", "gain_rx_dbi", "wavelength_m",
                   "distance_m", "pathloss_exp", "noise_dbm_per_hz")

    @classmethod
    def from_config(cls, cfg: dict) -> "LinkParams":
        """Build from config keys; antenna gains are given in dBi."""
        return cls(
            power_w=cfg.get("power_w", 1.0),
            gain_tx=db_to_linear(cfg.get("gain_tx_dbi", 0.0)),
            gain_rx=db_to_linear(cfg.get("gain_rx_dbi", 0.0)),
            wavelength_m=cfg.get("wavelength_m", 0.05),
            distance_m=cfg.get("distance_m", 50.0),
            pathloss_exp=cfg.get("pathloss_exp", 2.4),
            noise_w_per_hz=dbm_per_hz_to_watts(
                cfg.get("noise_dbm_per_hz", DEFAULT_NOISE_DBM_PER_HZ)),
        )

    def with_fading(self, fading_power: float) -> "LinkParams":
        return replace(self, fading_power=fading_power)

    def snr_hz(self) -> float:
        """Received power over noise density, in hertz.

        Dividing by the bandwidth gives the in-band SNR.
        """
        return (self.power_w * self.gain_tx * self.gain_rx
                * path_loss(self.distance_m, self.wavelength_m, self.pathloss_exp)
                * self.fading_power) / self.noise_w_per_hz

    def rate_limit(self) -> float:
        """Supremum of the achievable rate as bandwidth grows (bits/s)."""
        return self.snr_hz() / LN2


def shannon_rate(snr_hz: float, bandwidth_hz: float) -> float:
    """B * log2(1 + snr_hz / B) in bits/s; zero bandwidth or power gives zero.

    Takes Python floats: on numpy scalars the subnormal-bandwidth ratio below
    overflows with a ``RuntimeWarning``.
    """
    if bandwidth_hz <= 0.0 or snr_hz <= 0.0:
        return 0.0
    x = snr_hz / bandwidth_hz
    if math.isinf(x):  # (sub)denormal bandwidth: fall back to log identities
        return bandwidth_hz * (math.log2(snr_hz) - math.log2(bandwidth_hz))
    return bandwidth_hz * math.log2(1.0 + x)


def achievable_rate(bandwidth_hz: float, link: LinkParams) -> float:
    """Shannon rate of ``link`` over ``bandwidth_hz``; negative bandwidth raises."""
    if bandwidth_hz < 0:
        raise DomainError("bandwidth must be >= 0")
    return shannon_rate(float(link.snr_hz()), float(bandwidth_hz))


def fading_stream(seed: int, trial: int = 0):
    """Philox generator for one (seed, trial) pair; draw k-th device as k-th sample.

    The seed is the 128-bit key and the trial the upper half of the 256-bit
    counter, so each must lie in [0, 2**128).
    """
    for name, value in (("seed", seed), ("trial", trial)):
        if not 0 <= value < 1 << 128:
            raise DomainError(f"{name} {value} is outside [0, 2**128)")
    return np.random.Philox(key=seed, counter=trial << 128)


def sample_fading(stream, count: int | None = None):
    """Exponential(1) squared-magnitude fading draws from a Philox stream.

    Returns a float for ``count=None``, else an ndarray of length ``count``.
    """
    n = 1 if count is None else int(count)
    raw = stream.random_raw(n)
    u = (raw >> np.uint64(11)) * 2.0 ** -53  # 53-bit uniform in [0, 1)
    h2 = -np.log1p(-u)
    return float(h2[0]) if count is None else h2


def trial_fading(seed: int, trial: int, n_devices: int) -> np.ndarray:
    """Per-device fading powers for one Monte-Carlo trial."""
    return sample_fading(fading_stream(seed, trial), n_devices)

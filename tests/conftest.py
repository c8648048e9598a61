"""Shared test fixtures and instance generators."""

from dataclasses import replace

import numpy as np
import pytest

from splitplan.arch import (Architecture, BottleneckModule, CutProfile, LayerKind, LayerSpec,
                            TensorShape, propagate, toy_architecture)
from splitplan.channel import LinkParams, trial_fading
from splitplan.delay import Device, NetworkInstance
from splitplan.harness import ExperimentConfig, build_network, load_experiment_architecture

# link whose wide-band capacity is snr_hz/ln2; unit path loss at d = lambda/(4*pi)
UNIT_DISTANCE = 0.05 / (4.0 * np.pi)


def link_with_snr(snr_hz: float) -> LinkParams:
    """Link whose received-power-to-noise-density ratio is exactly ``snr_hz``."""
    return LinkParams(power_w=float(snr_hz), gain_tx=1.0, gain_rx=1.0,
                      wavelength_m=0.05, distance_m=UNIT_DISTANCE,
                      pathloss_exp=2.4, noise_w_per_hz=1.0, fading_power=1.0)


def profile_from_lists(workloads, data_bits, index_bits=None, raw_bits=None):
    """Fabricate a per-cut profile from per-module workloads and payloads."""
    workloads = [int(w) for w in workloads]
    cum = [0]
    for w in workloads:
        cum.append(cum[-1] + w)
    raw = int(raw_bits) if raw_bits is not None else int(data_bits[0] * 3 // 2)
    transmit = [raw] + [int(d) for d in data_bits]
    index = [0] * len(transmit) if index_bits is None else [int(b) for b in index_bits]
    return CutProfile(tuple(cum), tuple(transmit), tuple(index))


def random_profile(rng, modules=4):
    """Communication-relevant random profile: payloads dip in the middle."""
    w = rng.uniform(0.3e9, 3.0e9, modules)
    raw = rng.uniform(9e7, 2.5e8)
    data = []
    for i in range(modules):
        depth = 1.0 - 0.7 * np.sin(np.pi * (i + 1) / (modules + 1))
        data.append(raw * depth * rng.uniform(0.6, 1.1))
    idx = [0] * (modules + 1)
    for i in range(1, modules):
        idx[i] = int(rng.uniform(0, 4e6))
    return profile_from_lists(w, data, index_bits=idx, raw_bits=raw)


def random_network(rng, devices=2, modules=4, bandwidth_hz=1.2e8,
                   shared_profile=None):
    """Random instance in the regime where upload and compute trade off.

    Per-device rates land near 0.4-3x of the payload-per-second scale, so
    transmission takes a comparable slice of the delay to the compute terms.
    """
    devs = []
    profile = shared_profile
    for _ in range(devices):
        prof = profile if profile is not None else random_profile(rng, modules)
        snr = rng.uniform(2.0, 16.0) * bandwidth_hz * rng.exponential()
        snr = max(snr, 0.35 * bandwidth_hz)  # keep the link usable
        devs.append(Device(link=link_with_snr(snr),
                           compute_flops=rng.uniform(1.5e10, 6e10),
                           profile=prof))
    return NetworkInstance(tuple(devs),
                           server_flops=rng.uniform(0.8e11, 4e11),
                           total_bandwidth_hz=bandwidth_hz)


def ragged_network(rng, devices=2, max_modules=6):
    """``random_network`` whose devices get 1 to ``max_modules`` modules each,
    so a fleet's cut counts differ and its cut table is padded."""
    net = random_network(rng, devices=devices)
    devs = tuple(replace(dev, profile=random_profile(rng, int(rng.integers(1, max_modules + 1))))
                 for dev in net.devices)
    return NetworkInstance(devs, net.server_flops, net.total_bandwidth_hz)


def mixed_network(trial, devices=32, seed=0):
    """Trial ``trial`` of ``ExperimentConfig(devices=devices, seed=seed)`` with
    mixed devices: compute drawn from U(5, 60) GFLOP/s and distance from
    U(20, 150) m. The default fleet is homogeneous, so its serial queue
    seldom has a gap; about four such fleets in ten have one."""
    cfg = ExperimentConfig(devices=devices, seed=seed)
    rng = np.random.default_rng([seed, trial])
    flops = rng.uniform(5e9, 60e9, devices)
    dist = rng.uniform(20.0, 150.0, devices)
    profile = propagate(load_experiment_architecture(cfg))
    devs = tuple(
        Device(link=LinkParams.from_config({**cfg.channel, "distance_m": float(d)})
               .with_fading(float(h)), compute_flops=float(f), profile=profile)
        for f, d, h in zip(flops, dist, trial_fading(seed, trial, devices)))
    return NetworkInstance(devs, server_flops=cfg.server_flops,
                           total_bandwidth_hz=cfg.bandwidth_hz)


def zero_workload_architecture():
    """A 3x8x8 input through a 1x1 stride-2 max-pool (module 1, ``down``) and
    a 2x2 stride-2 max-unpool (module 2, ``up``): neither layer costs a FLOP,
    so every cut's cumulative workload is 0 and nothing is left to compute."""
    pool = LayerSpec(LayerKind.MAX_POOL, 3, 3, 1, 1, sw=2, sh=2)
    unpool = LayerSpec(LayerKind.MAX_UNPOOL, 3, 3, 2, 2, sw=2, sh=2)
    return Architecture((BottleneckModule(1, (pool,), sampling="down"),
                         BottleneckModule(2, (unpool,), sampling="up")),
                        TensorShape(3, 8, 8))


def zero_workload_network(trial, devices=3):
    """Trial ``trial`` of ``ExperimentConfig(devices=devices)`` on
    :func:`zero_workload_architecture`."""
    return build_network(ExperimentConfig(devices=devices), trial,
                         profile=propagate(zero_workload_architecture()))


@pytest.fixture(scope="session")
def toy_profile():
    return propagate(toy_architecture())


def toy_network(rng, devices=2, bandwidth_hz=1.0e5, sigma=0.25):
    """Random channels/compute around the bundled toy architecture.

    The toy profile's workloads are ~1e6 FLOP and payloads ~1-5e5 bits;
    compute and bandwidth scales are chosen so upload time dominates and
    channel quality varies moderately across devices.
    """
    prof = propagate(toy_architecture())
    base_snr = rng.uniform(2.5, 9.0) * bandwidth_hz
    devs = []
    for _ in range(devices):
        snr = base_snr * float(np.exp(rng.normal(0.0, sigma)))
        devs.append(Device(link=link_with_snr(snr),
                           compute_flops=rng.uniform(2e6, 6e6),
                           profile=prof))
    return NetworkInstance(tuple(devs),
                           server_flops=rng.uniform(2.5e7, 8e7),
                           total_bandwidth_hz=bandwidth_hz)


def oracle_benchmark_network(rng, devices=2, bandwidth_hz=1.0e5):
    """Instance generator for the solver-versus-oracle tolerance checks.

    Upload-dominated, homogeneous compute, mild channel jitter, fast
    server. The tolerances being certified assume exactly this regime: the
    simultaneous-arrival policy and the equal-share heuristic are built for
    it, while under wide channel asymmetry or a slow server the oracle's
    staggered schedules genuinely win by more than those tolerances (the
    heuristic's gap-closing loop cannot even engage below three queue gaps,
    so with two devices it never reshapes bandwidth at all).
    """
    prof = propagate(toy_architecture())
    base_snr = rng.uniform(2.5, 9.0) * bandwidth_hz
    fdev = rng.uniform(2e6, 6e6)
    devs = [
        Device(link=link_with_snr(base_snr * float(np.exp(rng.normal(0.0, 0.04)))),
               compute_flops=fdev, profile=prof)
        for _ in range(devices)]
    return NetworkInstance(tuple(devs),
                           server_flops=rng.uniform(6e7, 1.8e8),
                           total_bandwidth_hz=bandwidth_hz)


def count_target_probes(monkeypatch, module):
    """Count the ``_least_target`` searches that ``module`` starts and the
    floor probes they make; returns the live ``{"searches", "probes"}``."""
    counts = {"searches": 0, "probes": 0}
    search = module._least_target

    def spy(floor, *args, **kwargs):
        def counted(t):
            counts["probes"] += 1
            return floor(t)
        counts["searches"] += 1
        return search(counted, *args, **kwargs)

    monkeypatch.setattr(module, "_least_target", spy)
    return counts

"""The benchmark's three seeded workloads.

Each workload turns ``(seed, index)`` into one ``NetworkInstance`` and plans
it with a fixed list of policies. The planner is imported inside
:func:`setup`, never at module import, so that ``setup_s`` can time the
package import itself. Every call into the planner goes through a module
attribute (``harness.POLICIES``, ``oracle.oracle_parallel``, ...) so that the
tracer's wrappers, installed on those attributes, see it.

Timed instances use indices ``0, 1, 2, ...``; warm-up instances use indices
from :data:`WARMUP_BASE` up, which no timed run reaches.
"""

from __future__ import annotations

import time

WARMUP_BASE = 1_000_000

#: Bandwidth grid of the oracle-k2 brute-force baselines. Coarse on purpose:
#: at 21 points (5% steps) one instance costs about as much as the other
#: workloads', so a run still times more than 100 instances.
ORACLE_GRID_POINTS = 21


class Workload:
    """A seeded instance generator plus the policies run on every instance."""

    name = ""
    policies: tuple[str, ...] = ()
    #: Instances whose plans ``plan_delay_gmean_s`` averages; the untraced
    #: run plans at least this many.
    quality_instances = 64

    def __init__(self, seed: int):
        self.seed = seed

    def instance(self, index: int):
        raise NotImplementedError

    def plan(self, net):
        """Run every policy on ``net``.

        Returns ``[(label, result_or_exception, wall_s)]``. Policy results are
        ``AllocationPlan``; the oracle entries (label ``oracle-*``) are
        ``OracleResult``.
        """
        from splitplan import harness
        return [timed(name, harness.POLICIES[name], net, self.solver)
                for name in self.policies]


def timed(label, fn, *args):
    """``(label, result, wall_s)`` of one call; a ``SplitPlanError`` is the result.

    Only ``SplitPlanError`` is caught: anything else is a defect of the
    benchmark or the program and must stop the run.
    """
    from splitplan.errors import SplitPlanError
    t0 = time.perf_counter()
    try:
        res = fn(*args)
    except SplitPlanError as exc:
        res = exc
    return label, res, time.perf_counter() - t0


class SimulateK10(Workload):
    """The stock operating point: ``ExperimentConfig()`` with all seven policies."""

    name = "simulate-k10"

    def __init__(self, seed: int):
        super().__init__(seed)
        from splitplan import harness
        self.cfg = harness.ExperimentConfig(seed=seed)
        self.solver = self.cfg.solver
        self.policies = self.cfg.policies
        self.profile = harness.propagate(harness.load_experiment_architecture(self.cfg))

    def instance(self, index: int):
        from splitplan import harness
        return harness.build_network(self.cfg, index, profile=self.profile)


class SerialMixedK32(Workload):
    """32 reference devices with mixed compute and distance, serial policies.

    At the homogeneous defaults nearly every arrival lands inside the
    previous job's service, so the queue seldom has a gap and
    ``reallocate_once`` runs in only a few trials in a hundred; per-device
    compute of 5-60 GFLOP/s and distances of 20-150 m open gaps in about
    four instances in ten.
    """

    name = "serial-mixed-k32"
    policies = ("p3", "queue-heuristic", "queue-first-layer")
    devices = 32
    quality_instances = 160

    def __init__(self, seed: int):
        super().__init__(seed)
        from splitplan import harness
        self.cfg = harness.ExperimentConfig(devices=self.devices, seed=seed)
        self.solver = self.cfg.solver
        self.profile = harness.propagate(harness.load_experiment_architecture(self.cfg))

    def instance(self, index: int):
        import numpy as np
        from splitplan import channel, delay
        rng = np.random.default_rng([self.seed, index])
        flops = rng.uniform(5e9, 60e9, self.devices)
        dist = rng.uniform(20.0, 150.0, self.devices)
        fading = channel.trial_fading(self.seed, index, self.devices)
        devs = []
        for f, d, h in zip(flops, dist, fading):
            link = channel.LinkParams.from_config(
                {**self.cfg.channel, "distance_m": float(d)}).with_fading(float(h))
            devs.append(delay.Device(link=link, compute_flops=float(f), profile=self.profile))
        return delay.NetworkInstance(tuple(devs), server_flops=self.cfg.server_flops,
                                     total_bandwidth_hz=self.cfg.bandwidth_hz)


class OracleK2(Workload):
    """Two-device toy networks scored against the brute-force grid oracles.

    The generator reproduces the regime of the solver-versus-oracle
    acceptance check: upload-dominated, homogeneous device compute, about 4%
    lognormal channel jitter and a fast server. Thousands of tiny
    equal-delay splits and queue evaluations per instance make per-call
    overhead, not vector width, the cost.
    """

    name = "oracle-k2"
    policies = ("p1", "p3", "queue-heuristic")
    bandwidth_hz = 1.0e5

    def __init__(self, seed: int):
        super().__init__(seed)
        from splitplan import arch, oracle
        from splitplan.parallel import SolverSettings
        self.solver = SolverSettings()
        self.grid = oracle.GridSpec(bandwidth_points=ORACLE_GRID_POINTS)
        self.profile = arch.propagate(arch.toy_architecture())

    def instance(self, index: int):
        import math
        import numpy as np
        from splitplan import channel, delay
        rng = np.random.default_rng([self.seed, index])
        base_snr = rng.uniform(2.5, 9.0) * self.bandwidth_hz
        fdev = rng.uniform(2e6, 6e6)
        devs = []
        for _ in range(2):
            snr = base_snr * float(np.exp(rng.normal(0.0, 0.04)))
            # unit path loss at d = lambda/(4*pi) and unit noise: snr_hz == power
            link = channel.LinkParams(power_w=snr, wavelength_m=0.05,
                                      distance_m=0.05 / (4.0 * math.pi),
                                      noise_w_per_hz=1.0)
            devs.append(delay.Device(link=link, compute_flops=fdev, profile=self.profile))
        return delay.NetworkInstance(tuple(devs), server_flops=rng.uniform(6e7, 1.8e8),
                                     total_bandwidth_hz=self.bandwidth_hz)

    def plan(self, net):
        from splitplan import oracle
        return [timed("oracle-parallel", oracle.oracle_parallel, net, self.grid),
                timed("oracle-serial", oracle.oracle_serial, net, self.grid),
                *super().plan(net)]


WORKLOADS = {w.name: w for w in (SimulateK10, SerialMixedK32, OracleK2)}


def setup(name: str, seed: int):
    """Import the planner, build the generator and the first timed instance.

    Returns ``(workload, first_instance, seconds)``; the time runs from just
    before ``import splitplan`` to the first instance being ready.
    """
    t0 = time.perf_counter()
    import splitplan  # noqa: F401  (the import is part of what is timed)
    workload = WORKLOADS[name](seed)
    first = workload.instance(0)
    return workload, first, time.perf_counter() - t0

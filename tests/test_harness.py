"""Monte-Carlo engine: determinism, sweeps, tables, scaling bench."""

import dataclasses
import json
import math
import time

import numpy as np
import pytest

from conftest import ragged_network, zero_workload_network
from splitplan import harness
from splitplan.delay import NetworkInstance, arrival_delay
from splitplan.harness import (ALL_POLICIES, POLICIES, ExperimentConfig, SweepResult,
                               apply_sweep_value, bench_scaling, build_network,
                               run_sweep, run_trial, write_tables)
from splitplan.errors import SplitPlanError, ValidationError, ZeroRate
from splitplan.oracle import oracle_parallel, oracle_serial
from splitplan.parallel import SolverSettings

FAST = ExperimentConfig(devices=3, trials=2, seed=11,
                        policies=("p2", "queue-heuristic"))


class TestConfig:
    def test_defaults_cover_reference_scenario(self):
        cfg = ExperimentConfig()
        assert cfg.devices == 10
        assert cfg.server_flops == pytest.approx(300e9)
        assert cfg.bandwidth_hz == pytest.approx(200e6)
        assert cfg.channel["power_w"] == 1.0
        assert set(cfg.policies) == set(ALL_POLICIES)

    def test_from_json(self):
        cfg = ExperimentConfig.from_dict(json.loads("""{
            "devices": 4, "trials": 3,
            "channel": {"noise_dbm_per_hz": -150.0},
            "solver": {"max_alternations": 2.0, "outer_iters": 3.0}
        }"""))
        assert cfg.devices == 4
        # whole-float caps are taken as ints, the way devices is
        assert (cfg.solver.max_alternations, cfg.solver.outer_iters) == (2, 3)
        assert isinstance(cfg.solver.max_alternations, int)
        assert cfg.channel["noise_dbm_per_hz"] == -150.0
        assert cfg.channel["power_w"] == 1.0  # untouched defaults remain

    def test_from_empty_dict_is_the_default(self):
        assert ExperimentConfig.from_dict({}) == ExperimentConfig()

    @pytest.mark.parametrize("values", [
        {"channel": {"bogus": 1.0}},
        {"channel": 1.0},
        {"channel": {"noise_dbm_per_hz": 1e308}},
        {"channel": {"power_w": -1.0}},
        {"devices": 2.5},
        {"devices": True},
        {"seed": 1.5},
        {"trials": 2.5},
        {"device_flops": "1e9"},
        {"server_flops": 10 ** 400},
        {"policies": 5},
        {"policies": [["p1"]]},
    ], ids=["unknown-channel-key", "channel-not-object", "noise-overflows",
            "negative-power", "fractional-devices", "bool-devices",
            "fractional-seed", "fractional-trials", "string-flops",
            "flops-beyond-float", "policies-number", "policies-unhashable"])
    def test_malformed_value_raises_on_both_paths(self, values):
        with pytest.raises(ValidationError):
            ExperimentConfig(**values)
        with pytest.raises(ValidationError):
            ExperimentConfig.from_dict(values)

    def test_solver_must_be_settings(self):
        with pytest.raises(ValidationError):
            ExperimentConfig(solver={"max_alternations": 3})

    def test_partial_channel_is_completed_on_both_paths(self):
        cfg = ExperimentConfig(channel={"power_w": 1.0})
        assert cfg == ExperimentConfig.from_dict({"channel": {"power_w": 1.0}})
        assert cfg.channel == ExperimentConfig().channel

    def test_replace_is_checked(self):
        with pytest.raises(ValidationError):
            dataclasses.replace(ExperimentConfig(), devices=2.5)

    def test_whole_floats_become_ints(self):
        cfg = ExperimentConfig(devices=4.0, seed=np.int64(3))
        assert (cfg.devices, cfg.seed) == (4, 3)
        assert type(cfg.devices) is int and type(cfg.seed) is int
        settings = SolverSettings(max_alternations=2.0)
        assert settings.max_alternations == 2
        assert type(settings.max_alternations) is int

    def test_rejects_unknown_policy(self):
        with pytest.raises(ValidationError):
            ExperimentConfig(policies=("p1", "magic"))

    def test_rejects_bad_sweep(self, monkeypatch):
        def no_trial(*args, **kwargs):
            raise AssertionError("a trial ran before every sweep value was checked")

        monkeypatch.setattr(harness, "run_trial", no_trial)
        for param, values in [("voltage", (1.0,)), ("devices", ()),
                              ("devices", (2.0, 2.5)), ("iters", (1.5,)),
                              ("devices", (math.inf,)), ("bandwidth", (math.nan,)),
                              ("power", (math.inf,)), ("none", (1.0,)),
                              (None, (3.0,))]:
            with pytest.raises(ValidationError):
                run_sweep(FAST, param, values)

    def test_rejects_non_finite_budgets(self):
        for budget in ("device_flops", "server_flops", "bandwidth_hz"):
            for value in (math.nan, math.inf, 0.0):
                with pytest.raises(ValidationError):
                    ExperimentConfig(**{budget: value})

    def test_sweep_application(self):
        sub = apply_sweep_value(FAST, "iters", 2.0)
        assert sub.solver.max_alternations == 2
        assert sub.solver.outer_iters == 2
        assert apply_sweep_value(FAST, "power", 0.5).channel["power_w"] == 0.5
        assert FAST.channel["power_w"] == 1.0  # the base config is left as it was


class TestTrials:
    def test_deterministic_records(self):
        a = run_trial(FAST, 0)
        b = run_trial(FAST, 0)
        for ra, rb in zip(a.results, b.results):
            assert ra.policy == rb.policy
            assert ra.objective == rb.objective  # bit-identical
            assert ra.iterations == rb.iterations

    def test_policy_list_respected(self):
        cfg = dataclasses.replace(FAST, policies=("first-layer",))
        rec = run_trial(cfg, 0)
        assert [r.policy for r in rec.results] == ["first-layer"]

    def test_fading_depends_on_trial_not_policy_order(self):
        net0 = build_network(FAST, 0)
        net0b = build_network(FAST, 0)
        net1 = build_network(FAST, 1)
        h0 = [d.link.fading_power for d in net0.devices]
        assert h0 == [d.link.fading_power for d in net0b.devices]
        assert h0 != [d.link.fading_power for d in net1.devices]

    def test_all_policies_single_trial_under_budget(self):
        cfg = ExperimentConfig(trials=1, seed=3)
        t0 = time.perf_counter()
        rec = run_trial(cfg, 0)
        elapsed = time.perf_counter() - t0
        assert elapsed < 10.0
        assert len(rec.results) == 7
        assert all(r.error is None for r in rec.results)

    def test_dominance_at_reference_defaults(self):
        cfg = ExperimentConfig(trials=3, seed=5,
                               policies=("p1", "min-data", "first-layer"))
        for trial in range(cfg.trials):
            rec = run_trial(cfg, trial)
            obj = {r.policy: r.objective for r in rec.results}
            tol = 1e-6
            assert obj["p1"] <= obj["min-data"] * (1 + tol)
            assert obj["min-data"] <= obj["first-layer"] * (1 + tol)


def _zero_power_fleet(arch, devices):
    """Trial 0 of a fleet whose links all have zero transmit power."""
    return build_network(ExperimentConfig.from_dict(
        {"arch": arch, "devices": devices, "channel": {"power_w": 0}}), 0)


def _far_link_fleet(arch, devices):
    """Trial 0 of a fleet whose links are so long that the SNR is positive
    but every upload rate rounds to zero."""
    return build_network(ExperimentConfig.from_dict(
        {"arch": arch, "devices": devices, "channel": {"distance_m": 1e130}}), 0)


def _zero_fading_fleet(arch, devices):
    """Trial 0 of a default fleet whose second device has zero fading power."""
    net = build_network(ExperimentConfig(arch=arch, devices=devices), 0)
    devs = list(net.devices)
    devs[1] = dataclasses.replace(devs[1], link=devs[1].link.with_fading(0.0))
    return NetworkInstance(tuple(devs), net.server_flops, net.total_bandwidth_hz)


@pytest.mark.filterwarnings("error")
class TestZeroSnrLink:
    """Every cut uploads, so a link without rate (a zero SNR, or one that
    rounds away against the spectrum) fails each policy and oracle with one
    ``ZeroRate``, before any solver arithmetic can warn."""

    @pytest.mark.parametrize("policy", ALL_POLICIES)
    @pytest.mark.parametrize("fleet, devices", [(_zero_power_fleet, 3),
                                                (_zero_fading_fleet, 4),
                                                (_far_link_fleet, 3)],
                             ids=["zero-power", "zero-fading", "far-link"])
    def test_every_policy_raises_zero_rate(self, policy, fleet, devices):
        with pytest.raises(ZeroRate):
            POLICIES[policy](fleet("reference", devices))

    @pytest.mark.parametrize("oracle", [oracle_parallel, oracle_serial])
    @pytest.mark.parametrize("fleet", [_zero_power_fleet, _zero_fading_fleet,
                                       _far_link_fleet],
                             ids=["zero-power", "zero-fading", "far-link"])
    def test_every_oracle_raises_zero_rate(self, oracle, fleet):
        with pytest.raises(ZeroRate):
            oracle(fleet("toy", 3))  # the oracle's size guard stops at 3 devices

    def test_reference_arrival_raises_zero_rate(self):
        dev = _zero_fading_fleet("reference", 4).devices[1]
        for cut in range(dev.profile.num_cuts + 1):
            with pytest.raises(ZeroRate):
                arrival_delay(dev, cut, 1e6)


@pytest.mark.filterwarnings("error")
class TestVanishingServer:
    """A server budget of 1e-300 FLOP/s on the default uploads: only the
    all-local cuts have a finite delay. ``p2`` keeps them, ``p1`` prices the
    server-bound cut vectors at inf and does no worse than ``p2``, and every
    other policy names the server, without a ``RuntimeWarning`` on the way."""

    NET = build_network(ExperimentConfig(server_flops=1e-300, devices=3), 0)

    def test_p2_keeps_the_all_local_plan(self):
        plan = POLICIES["p2"](self.NET)
        assert plan.objective == pytest.approx(3.6102, rel=1e-4)
        assert sum(plan.residuals) == 0

    def test_p1_is_no_worse_than_p2(self):
        plan = POLICIES["p1"](self.NET)
        assert plan.objective == pytest.approx(3.4233, rel=1e-4)
        assert plan.objective <= POLICIES["p2"](self.NET).objective
        assert sum(plan.residuals) == 0

    @pytest.mark.parametrize("policy", [p for p in ALL_POLICIES if p not in ("p1", "p2")])
    def test_other_policies_raise_a_typed_error_that_is_not_zero_rate(self, policy):
        with pytest.raises(SplitPlanError) as err:
            POLICIES[policy](self.NET)
        assert not isinstance(err.value, ZeroRate)


def test_history_has_one_entry_per_iteration():
    """Every policy reports one best objective per iteration, as a Python
    float, on a default trial, on ragged fleets and on the zero-workload
    network."""
    rng = np.random.default_rng(66)
    nets = [build_network(ExperimentConfig(), 0), zero_workload_network(0)]
    nets += [ragged_network(rng, devices=int(rng.integers(2, 9))) for _ in range(4)]
    for net in nets:
        for name, solve in POLICIES.items():
            plan = solve(net)
            assert len(plan.objective_history) == plan.iterations, name
            assert all(type(h) is float for h in plan.objective_history), name


class TestSweep:
    def test_row_cardinality(self):
        result = run_sweep(FAST, "bandwidth", (1.5e8, 2e8, 3e8))
        assert len(result.rows) == 3 * len(FAST.policies)
        assert result.param == "bandwidth"

    def test_without_sweep_single_value(self):
        result = run_sweep(FAST)
        assert result.values == (0.0,)
        assert len(result.rows) == len(FAST.policies)

    def test_mean_lookup(self):
        result = run_sweep(FAST, "devices", (2.0, 4.0))
        assert result.mean(2.0, "p2") > 0


class TestWriteTables:
    def test_empty_result_headers_only(self, tmp_path):
        empty = SweepResult(param="devices", values=(), policies=(), rows=())
        paths = write_tables(empty, tmp_path)
        assert [p.name for p in paths] == ["summary.csv"]
        assert paths[0].read_text() == "sweep_value,policy,mean_delay_s,std_s,n_trials\n"

    def test_file_count_and_rows(self, tmp_path):
        result = run_sweep(FAST, "bandwidth", (1.5e8, 2e8))
        paths = write_tables(result, tmp_path)
        assert len(paths) == 1 + len(FAST.policies)
        csv_lines = (tmp_path / "summary.csv").read_text().splitlines()
        assert len(csv_lines) == 1 + 2 * len(FAST.policies)
        dat = (tmp_path / "bandwidth_p2.dat").read_text().splitlines()
        assert len(dat) == 2 and all(len(l.split()) == 2 for l in dat)

    def test_reruns_byte_identical(self, tmp_path):
        first = {p.name: p.read_bytes()
                 for p in write_tables(run_sweep(FAST, "devices", (2.0, 3.0)), tmp_path / "a")}
        second = {p.name: p.read_bytes()
                  for p in write_tables(run_sweep(FAST, "devices", (2.0, 3.0)), tmp_path / "b")}
        assert first == second


class TestBench:
    def test_single_point_has_no_ratios(self):
        cfg = dataclasses.replace(FAST, policies=("p2",))
        out = bench_scaling(cfg, [3], trials=1)
        assert out["growth_ratio"]["p2"] is None
        assert out["ordering"] == {}

    def test_rejects_unsorted_k(self):
        with pytest.raises(ValidationError):
            bench_scaling(FAST, [8, 4], trials=1)

    def test_reports_requested_policies(self):
        cfg = dataclasses.replace(FAST, policies=("p2", "queue-heuristic"))
        out = bench_scaling(cfg, [2, 3], trials=1)
        assert set(out["median_wall_s"]) == {"p2", "queue-heuristic"}
        assert all(v > 0 for kv in out["median_wall_s"].values() for v in kv.values())

"""Monte-Carlo engine: determinism, sweeps, tables, scaling bench."""

import dataclasses
import json
import math
import time

import pytest

from splitplan.delay import NetworkInstance, arrival_delay
from splitplan.harness import (ALL_POLICIES, POLICIES, ExperimentConfig, SweepResult,
                               apply_sweep_value, bench_scaling, build_network,
                               run_sweep, run_trial, write_tables)
from splitplan.errors import ValidationError, ZeroRate
from splitplan.oracle import oracle_parallel, oracle_serial

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
        cfg = ExperimentConfig.from_json(json.dumps({
            "devices": 4, "trials": 3,
            "channel": {"noise_dbm_per_hz": -150.0},
            "sweep": {"param": "bandwidth", "values": [1e8, 2e8]},
            "solver": {"max_alternations": 2.0, "outer_iters": 3.0},
        }))
        assert cfg.devices == 4
        # whole-float caps are taken as ints, the way devices is
        assert (cfg.solver.max_alternations, cfg.solver.outer_iters) == (2, 3)
        assert isinstance(cfg.solver.max_alternations, int)
        assert cfg.channel["noise_dbm_per_hz"] == -150.0
        assert cfg.channel["power_w"] == 1.0  # untouched defaults remain
        assert cfg.sweep_param == "bandwidth"

    def test_rejects_unknown_policy(self):
        with pytest.raises(ValidationError):
            ExperimentConfig(policies=("p1", "magic"))

    def test_rejects_bad_sweep(self):
        for param, values in [("voltage", (1.0,)), ("devices", ()),
                              ("devices", (2.0, 2.5)), ("iters", (1.5,)),
                              ("devices", (math.inf,)), ("bandwidth", (math.nan,)),
                              ("power", (math.inf,))]:
            with pytest.raises(ValidationError):
                ExperimentConfig(sweep_param=param, sweep_values=values)

    def test_rejects_non_finite_budgets(self):
        for budget in ("device_flops", "server_flops", "bandwidth_hz"):
            for value in (math.nan, math.inf, 0.0):
                with pytest.raises(ValidationError):
                    ExperimentConfig(**{budget: value})

    def test_sweep_application(self):
        cfg = dataclasses.replace(FAST, sweep_param="iters", sweep_values=(2.0,))
        sub = apply_sweep_value(cfg, 2.0)
        assert sub.solver.max_alternations == 2
        assert sub.solver.outer_iters == 2
        cfg = dataclasses.replace(FAST, sweep_param="power", sweep_values=(0.5,))
        assert apply_sweep_value(cfg, 0.5).channel["power_w"] == 0.5


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


def _zero_fading_fleet(arch, devices):
    """Trial 0 of a default fleet whose second device has zero fading power."""
    net = build_network(ExperimentConfig(arch=arch, devices=devices), 0)
    devs = list(net.devices)
    devs[1] = dataclasses.replace(devs[1], link=devs[1].link.with_fading(0.0))
    return NetworkInstance(tuple(devs), net.server_flops, net.total_bandwidth_hz)


@pytest.mark.filterwarnings("error")
class TestZeroSnrLink:
    """Every cut uploads, so a zero-SNR link fails each policy and oracle
    with one ``ZeroRate``, before any solver arithmetic can warn."""

    @pytest.mark.parametrize("policy", ALL_POLICIES)
    @pytest.mark.parametrize("fleet, devices", [(_zero_power_fleet, 3),
                                                (_zero_fading_fleet, 4)],
                             ids=["zero-power", "zero-fading"])
    def test_every_policy_raises_zero_rate(self, policy, fleet, devices):
        with pytest.raises(ZeroRate):
            POLICIES[policy](fleet("reference", devices))

    @pytest.mark.parametrize("oracle", [oracle_parallel, oracle_serial])
    @pytest.mark.parametrize("fleet", [_zero_power_fleet, _zero_fading_fleet],
                             ids=["zero-power", "zero-fading"])
    def test_every_oracle_raises_zero_rate(self, oracle, fleet):
        with pytest.raises(ZeroRate):
            oracle(fleet("toy", 3))  # the oracle's size guard stops at 3 devices

    def test_reference_arrival_raises_zero_rate(self):
        dev = _zero_fading_fleet("reference", 4).devices[1]
        for cut in range(dev.profile.num_cuts + 1):
            with pytest.raises(ZeroRate):
                arrival_delay(dev, cut, 1e6)


class TestSweep:
    def test_row_cardinality(self):
        cfg = dataclasses.replace(FAST, sweep_param="bandwidth",
                                  sweep_values=(1.5e8, 2e8, 3e8))
        result = run_sweep(cfg)
        assert len(result.rows) == 3 * len(FAST.policies)
        assert result.param == "bandwidth"

    def test_without_sweep_single_value(self):
        result = run_sweep(FAST)
        assert result.values == (0.0,)
        assert len(result.rows) == len(FAST.policies)

    def test_mean_lookup(self):
        cfg = dataclasses.replace(FAST, sweep_param="devices", sweep_values=(2.0, 4.0))
        result = run_sweep(cfg)
        assert result.mean(2.0, "p2") > 0


class TestWriteTables:
    def test_empty_result_headers_only(self, tmp_path):
        empty = SweepResult(param="devices", values=(), policies=(), trials=0,
                            rows=())
        paths = write_tables(empty, tmp_path)
        assert [p.name for p in paths] == ["summary.csv"]
        assert paths[0].read_text() == "sweep_value,policy,mean_delay_s,std_s,n_trials\n"

    def test_file_count_and_rows(self, tmp_path):
        cfg = dataclasses.replace(FAST, sweep_param="bandwidth",
                                  sweep_values=(1.5e8, 2e8))
        result = run_sweep(cfg)
        paths = write_tables(result, tmp_path)
        assert len(paths) == 1 + len(FAST.policies)
        csv_lines = (tmp_path / "summary.csv").read_text().splitlines()
        assert len(csv_lines) == 1 + 2 * len(FAST.policies)
        dat = (tmp_path / "bandwidth_p2.dat").read_text().splitlines()
        assert len(dat) == 2 and all(len(l.split()) == 2 for l in dat)

    def test_reruns_byte_identical(self, tmp_path):
        cfg = dataclasses.replace(FAST, sweep_param="devices", sweep_values=(2.0, 3.0))
        first = {p.name: p.read_bytes()
                 for p in write_tables(run_sweep(cfg), tmp_path / "a")}
        second = {p.name: p.read_bytes()
                  for p in write_tables(run_sweep(cfg), tmp_path / "b")}
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

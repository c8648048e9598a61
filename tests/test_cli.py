"""Command-line behavior: outputs, files, exit codes."""

import json
import math

import pytest

from conftest import architecture_to_dict
from splitplan import cli, harness, oracle
from splitplan.arch import toy_architecture
from splitplan.cli import main
from splitplan.errors import Infeasible

_DELETE = object()


def _edited_toy(path, value):
    """The bundled toy network's config with the entry at ``path`` set to
    ``value``, or deleted when ``value`` is ``_DELETE``."""
    cfg = architecture_to_dict(toy_architecture())
    *parents, last = path
    node = cfg
    for key in parents:
        node = node[key]
    if value is _DELETE:
        del node[last]
    else:
        node[last] = value
    return cfg


class TestProfile:
    def test_toy_table(self, capsys):
        assert main(["profile", "--arch", "toy"]) == 0
        out = capsys.readouterr().out
        assert "transmit_bits" in out
        assert len(out.strip().splitlines()) == 6  # header + cuts 0..4

    def test_reference_json(self, capsys):
        assert main(["profile", "--arch", "reference", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["transmit_bits"][0] == 201326592
        assert len(data["cum_workload_flops"]) == 31

    def test_missing_file_is_reported(self, capsys):
        assert main(["profile", "--arch", "nope.json"]) == 2
        err = json.loads(capsys.readouterr().err)
        assert "error" in err

    @pytest.mark.parametrize("path, value, named", [
        (("modules", 1), 1, "module 2 must be a JSON object"),
        (("modules", 0, "main_branch", 0), "conv", "module 1 main_branch[0] must be a JSON object"),
        (("modules",), {"1": {}}, "modules must be a list"),
        (("modules", 0, "skip_branch"), {"kind": "conv"}, "module 1: skip_branch must be a list"),
        (("input",), [3, 32, 64], "input must be a JSON object"),
        (("bits_per_elemnt",), 32, "bits_per_elemnt"),
        (("input", "depth"), 1, "depth"),
        (("modules", 0, "skip_brnach"), [], "skip_brnach"),
        (("modules", 1, "main_branch", 2, "stride"), 2, "module 2 main_branch[2]: unknown keys ['stride']"),
        (("modules", 1, "main_branch", 0, "kw"), 2.9, "2.9"),
        (("bits_per_element",), True, "True"),
        (("modules", 1, "main_branch", 0, "kw"), "2", "'2'"),
        (("input", "height"), 32.5, "32.5"),
        (("modules", 2, "main_branch", 1, "kind"), "tconv", "'tconv'"),
        (("modules", 0, "sampling"), "Down", "'Down'"),
        (("modules", 1, "main_branch", 0, "kw"), _DELETE, "module 2 main_branch[0]: missing required key 'kw'"),
        (("bits_per_element",), 10 ** 400, "fit a float"),
    ], ids=["non-object-module", "non-object-layer", "object-modules", "object-branch",
            "list-input", "unknown-top-key", "unknown-input-key", "unknown-module-key",
            "unknown-layer-key", "fractional-kw", "boolean-bits", "string-kw",
            "fractional-height", "aliased-kind", "capitalized-sampling", "missing-kw",
            "payload-beyond-float"])
    def test_malformed_architecture_exits_2(self, capsys, tmp_path, path, value, named):
        arch = tmp_path / "arch.json"
        arch.write_text(json.dumps(_edited_toy(path, value)))
        cfg = tmp_path / "cfg.json"  # keep the run short should the network be accepted
        cfg.write_text(json.dumps({"arch": str(arch), "trials": 1, "devices": 2,
                                   "policies": ["p2"]}))
        for argv in (["profile", "--arch", str(arch)], ["simulate", "--config", str(cfg)]):
            assert main(argv) == 2
            err = json.loads(capsys.readouterr().err)
            assert err["error"] == "ValidationError"
            assert named in err["message"]


class TestSimulate:
    def test_small_run(self, capsys, tmp_path):
        code = main(["simulate", "--trials", "2", "--devices", "2",
                     "--policy", "p2,first-layer", "--seed", "9",
                     "--out", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "p2" in out and "first-layer" in out
        assert (tmp_path / "summary.csv").exists()

    def test_zero_snr_link_fails_every_policy_quietly(self, capsys, tmp_path):
        path = tmp_path / "mute.json"
        path.write_text(json.dumps({"channel": {"power_w": 0}}))
        assert main(["simulate", "--config", str(path), "--devices", "3",
                     "--trials", "2"]) == 0
        out, err = capsys.readouterr()
        rows = out.strip().splitlines()[1:]
        assert len(rows) == len(harness.ALL_POLICIES)
        assert all(row.endswith("n=0") for row in rows)
        assert err == ""

    @pytest.mark.filterwarnings("error")
    def test_tiny_snr_link_fails_every_policy_quietly(self, capsys, tmp_path):
        # SNR 4.4e-298 Hz: positive, but every upload rate rounds to zero
        path = tmp_path / "far.json"
        path.write_text(json.dumps({"channel": {"distance_m": 1e130}}))
        assert main(["simulate", "--config", str(path), "--devices", "3",
                     "--trials", "1"]) == 0
        out, err = capsys.readouterr()
        rows = out.strip().splitlines()[1:]
        assert len(rows) == len(harness.ALL_POLICIES)
        assert all(row.endswith("n=0") for row in rows)
        assert err == ""

    def test_bad_policy_exits_nonzero(self, capsys):
        assert main(["simulate", "--trials", "1", "--policy", "bogus"]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValidationError"

    def test_malformed_config_json_exits_2(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"trials": 1,')
        assert main(["simulate", "--config", str(path)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ParseError"

    def test_integer_past_the_digit_limit_exits_2(self, capsys, tmp_path):
        # json.loads raises a plain ValueError here, not a JSONDecodeError
        path = tmp_path / "big.json"
        path.write_text('{"device_flops": ' + "9" * 5000 + "}")
        assert main(["simulate", "--config", str(path), "--trials", "1",
                     "--policy", "p2"]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ParseError"
        assert "digits" in err["message"]

    @pytest.mark.parametrize("cfg, named", [
        ({"solver": {"bisect_tol": 1e-9}}, "bisect_tol"),
        ([1], "object"),
        ({"devices": "abc"}, "abc"),
        ({"devices": 2.5}, "2.5"),
        ({"devcies": 2}, "devcies"),
        ({"channel": {"noise_dbm_per_Hz": -150}}, "noise_dbm_per_Hz"),
        ({"channel": {"fading_power": 0.0}}, "unknown keys ['fading_power']"),
        ({"channel": {"gain_tx": 1.0, "gain_tx_dbi": 30.0}}, "unknown keys ['gain_tx']"),
        ({"channel": {"gain_rx": 2.0}}, "unknown keys ['gain_rx']"),
        ({"sweep": {"param": "devices", "values": [2]}}, "unknown keys ['sweep']"),
        ({"solver": {"cut_init": "random"}}, "cut_init"),
        ({"solver": {"max_alternations": 2.5}}, "2.5"),
        ({"solver": {"outer_iters": 0.5}}, "0.5"),
        ({"solver": {"strict_breaks": False}}, "strict_breaks"),
        ({"solver": {"p3_layer_rule": "full"}}, "p3_layer_rule"),
        ({"arch": 5}, "5"),
        ({"devices": True}, "True"),
        ({"seed": False}, "False"),
        ({"bandwidth_hz": True}, "True"),
        ({"channel": {"power_w": True}}, "True"),
        ({"solver": {"outer_iters": True}}, "True"),
        ({"bandwidth_hz": math.nan}, "nan"),
        ({"channel": {"distance_m": math.nan}}, "nan"),
        ({"channel": {"noise_dbm_per_hz": 1e308}}, "out of range"),
        ({"policies": []}, "policy list is empty"),
        (({}, ["--policy", ","]), "policy list is empty"),
    ], ids=["unknown-solver-key", "not-an-object", "non-numeric", "fractional-count",
            "unknown-key", "unknown-channel-key", "removed-fading-power",
            "removed-linear-gain-tx", "removed-linear-gain-rx", "removed-sweep-section", "removed-solver-key",
            "fractional-alternation-cap", "fractional-outer-iters", "removed-strict-breaks",
            "removed-p3-layer-rule",
            "non-string-arch", "boolean-devices", "boolean-seed", "boolean-bandwidth",
            "boolean-power", "boolean-outer-iters", "nan-bandwidth",
            "nan-distance", "overflowing-noise", "empty-policies", "empty-policy-flag"])
    def test_invalid_config_exits_2(self, capsys, tmp_path, cfg, named):
        flags = []
        if isinstance(cfg, tuple):  # a config plus command-line flags
            cfg, flags = cfg
        if isinstance(cfg, dict):  # keep the run short should the config be accepted
            cfg = {"trials": 1, "devices": 2, "policies": ["p2"], **cfg}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main(["simulate", "--config", str(path)] + flags) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValidationError"
        assert named in err["message"]

    @pytest.mark.parametrize("argv", [
        ["simulate", "--out", "{tmp}"],
        ["sweep", "--param", "bandwidth", "--values", "1e8", "--out", "{tmp}"],
        ["bench", "--k", "2"],
        ["oracle"],
    ], ids=["simulate", "sweep", "bench", "oracle"])
    def test_sweep_section_exits_2(self, capsys, tmp_path, argv):
        path = tmp_path / "cfg.json"  # keep the run short should the config be accepted
        path.write_text(json.dumps({"devices": 2, "seed": 1,
                                    "sweep": {"param": "bandwidth", "values": [1e8]}}))
        argv = [a.format(tmp=tmp_path / "out") for a in argv]
        assert main(argv + ["--config", str(path)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValidationError"
        assert "sweep" in err["message"]

    @pytest.mark.parametrize("argv, named", [
        (["simulate", "--seed", "-1"], "seed -1"),
        (["oracle", "--trial", "-1"], "trial -1"),
    ], ids=["negative-seed", "negative-trial"])
    def test_seed_and_trial_out_of_range_exit_2(self, capsys, argv, named):
        argv = argv + ["--devices", "2"]
        if argv[0] == "simulate":
            argv += ["--trials", "1", "--policy", "p2"]
        assert main(argv) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "DomainError"
        assert named in err["message"]

    @pytest.mark.parametrize("argv", [
        ["profile", "--arch", "{dir}"],
        ["simulate", "--config", "{dir}"],
        ["simulate", "--config", "{cfg}"],
    ], ids=["arch-flag", "config-flag", "config-arch"])
    def test_directory_as_a_file_exits_2(self, capsys, tmp_path, argv):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"arch": str(tmp_path), "trials": 1, "devices": 2,
                                   "policies": ["p2"]}))
        argv = [a.format(dir=tmp_path, cfg=cfg) for a in argv]
        assert main(argv) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "IsADirectoryError"

    @pytest.mark.parametrize("argv", [
        ["profile", "--arch", "{bad}"],
        ["simulate", "--config", "{bad}"],
        ["simulate", "--config", "{cfg}"],
    ], ids=["arch-flag", "config-flag", "config-arch"])
    def test_file_that_is_not_utf8_exits_2(self, capsys, tmp_path, argv):
        bad = tmp_path / "latin1.json"
        bad.write_bytes(b"\xff" + json.dumps({"trials": 1}).encode())
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"arch": str(bad), "trials": 1, "devices": 2,
                                   "policies": ["p2"]}))
        assert main([a.format(bad=bad, cfg=cfg) for a in argv]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ParseError"
        assert "not UTF-8" in err["message"]


class TestSweep:
    def test_writes_tables(self, capsys, tmp_path):
        code = main(["sweep", "--param", "devices", "--values", "2,3",
                     "--trials", "2", "--policy", "p2", "--seed", "4",
                     "--out", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "summary.csv").exists()
        assert (tmp_path / "devices_p2.dat").exists()


    @pytest.mark.parametrize("argv, named", [
        (["sweep", "--param", "devices", "--values", "abc"], "abc"),
        (["bench", "--k", "4,abc"], "4,abc"),
        (["bench", "--k", "2.5"], "2.5"),
        (["sweep", "--param", "bandwidth", "--values", "nan"], "finite"),
        (["sweep", "--param", "devices", "--values", "2.5"], "integers"),
        (["sweep", "--param", "iters", "--values", "0"], "positive"),
    ], ids=["sweep-values", "bench-k", "bench-fractional-k", "nan-sweep-value",
            "fractional-devices-value", "zero-iters-value"])
    def test_invalid_number_list_exits_2(self, capsys, tmp_path, argv, named):
        argv = argv + ["--trials", "1", "--devices", "2", "--policy", "p2"]
        if argv[0] == "sweep":
            argv += ["--out", str(tmp_path)]
        assert main(argv) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValidationError"
        assert named in err["message"]


class TestOracle:
    def test_parallel_toy(self, capsys):
        code = main(["oracle", "--mode", "parallel", "--devices", "2",
                     "--grid-points", "11", "--seed", "2"])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["mode"] == "parallel"
        assert len(data["cuts"]) == 2

    def test_zero_snr_link_exits_2(self, capsys, tmp_path):
        path = tmp_path / "mute.json"
        path.write_text(json.dumps({"channel": {"power_w": 0}}))
        assert main(["oracle", "--config", str(path), "--devices", "3"]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ZeroRate"

    @pytest.mark.parametrize("flag, value", [("--policy", "p1"), ("--trials", "3")])
    def test_trial_flags_are_refused(self, capsys, flag, value):
        with pytest.raises(SystemExit) as exc:
            main(["oracle", flag, value])
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err

    def test_grid_exceeding_guard_exits_2(self, capsys, monkeypatch):
        def refuse(*args):
            raise AssertionError("the grid guard let the grid be built")

        monkeypatch.setattr(oracle, "_bandwidth_grid", refuse)
        code = main(["oracle", "--devices", "3", "--grid-points", "100000"])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "TooLarge"
        assert "grid points" in err["message"]

    def test_grid_without_a_point_for_every_device_exits_2(self, capsys):
        code = main(["oracle", "--devices", "2", "--grid-points", "2"])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValidationError"
        assert "at least 3 points" in err["message"]

    def test_reference_arch_exceeds_guard(self, capsys):
        code = main(["oracle", "--mode", "serial", "--devices", "2",
                     "--arch", "reference"])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "TooLarge"


class TestBench:
    def test_small_bench(self, capsys):
        code = main(["bench", "--k", "2,3", "--trials", "1",
                     "--policy", "p2,queue-heuristic"])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["k_list"] == [2, 3]

    def test_failed_solve_exits_2(self, capsys, monkeypatch):
        def failing(net, settings=None):
            raise Infeasible("no split fits")

        monkeypatch.setitem(harness.POLICIES, "p2", failing)
        assert main(["bench", "--k", "2,3", "--trials", "1", "--policy", "p2"]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "Infeasible", "message": "no split fits"}

    @pytest.mark.parametrize("config, flags, want", [
        (None, [], 5),
        ({"trials": 2}, [], 2),
        ({"trials": 2}, ["--trials", "3"], 3),
        ({"devices": 3}, [], 5),
    ], ids=["default", "config", "flag-over-config", "config-without-trials"])
    def test_trial_count_precedence(self, capsys, monkeypatch, tmp_path,
                                    config, flags, want):
        seen = []

        def fake_bench(cfg, k_list, trials):
            seen.append(trials)
            return {}

        monkeypatch.setattr(cli, "bench_scaling", fake_bench)
        argv = ["bench", "--k", "2"] + flags
        if config is not None:
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps(config))
            argv += ["--config", str(path)]
        assert main(argv) == 0
        assert seen == [want]

"""Command-line behavior: outputs, files, exit codes."""

import json

import pytest

from splitplan.cli import main


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


class TestSimulate:
    def test_small_run(self, capsys, tmp_path):
        code = main(["simulate", "--trials", "2", "--devices", "2",
                     "--policy", "p2,first-layer", "--seed", "9",
                     "--out", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "p2" in out and "first-layer" in out
        assert (tmp_path / "summary.csv").exists()

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

    @pytest.mark.parametrize("cfg, named", [
        ({"solver": {"bisect_tol": 1e-9}}, "bisect_tol"),
        ([1], "object"),
        ({"devices": "abc"}, "abc"),
        ({"devices": 2.5}, "2.5"),
        ({"devcies": 2}, "devcies"),
        ({"channel": {"noise_dbm_per_Hz": -150}}, "noise_dbm_per_Hz"),
        ({"sweep": {"param": "devices", "valuez": [2]}}, "valuez"),
    ], ids=["unknown-solver-key", "not-an-object", "non-numeric", "fractional-count",
            "unknown-key", "unknown-channel-key", "unknown-sweep-key"])
    def test_invalid_config_exits_2(self, capsys, tmp_path, cfg, named):
        if isinstance(cfg, dict):  # keep the run short should the config be accepted
            cfg = {"trials": 1, "devices": 2, "policies": ["p2"], **cfg}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main(["simulate", "--config", str(path)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValidationError"
        assert named in err["message"]


class TestSweep:
    def test_writes_tables(self, capsys, tmp_path):
        code = main(["sweep", "--param", "devices", "--values", "2,3",
                     "--trials", "2", "--policy", "p2", "--seed", "4",
                     "--out", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "summary.csv").exists()
        assert (tmp_path / "devices_p2.dat").exists()


class TestOracle:
    def test_parallel_toy(self, capsys):
        code = main(["oracle", "--mode", "parallel", "--devices", "2",
                     "--grid-points", "11", "--seed", "2"])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["mode"] == "parallel"
        assert len(data["cuts"]) == 2

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

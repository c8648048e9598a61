"""The aggregation and the bytecode-cache check of ``tools/bench_pairs.py``, run on
synthetic ``run.py`` output and ``tmp_path`` checkouts without starting a process,
and ``tools/scaling_pairs.py``, which reuses its checkouts: once on synthetic
results and once for real, with one run per side."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

_TOOLS = Path(__file__).resolve().parent.parent / "tools"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, _TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # scaling_pairs imports bench_pairs by name
    spec.loader.exec_module(module)
    return module


bench_pairs = _load("bench_pairs")
scaling_pairs = _load("scaling_pairs")

BENCHMARK = {"end_to_end": [
    {"name": "instance_cost_cal", "unit": "ratio", "better": "lower", "bound": 0.12},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
]}


def run_output(cost, rss, failed=0, extra_metric=None):
    """Stdout of one ``run.py --trace 0`` with the given metric values."""
    metrics = {"instance_cost_cal": {"value": cost, "unit": "ratio"},
               "peak_rss_mb": {"value": rss, "unit": "MB"}}
    if extra_metric:
        metrics[extra_metric] = {"value": 1.0, "unit": "s"}
    return "\n".join([
        "serial-mixed-k32   instance_cost_cal    %g ratio" % cost,
        json.dumps({"report": {"environment": {"nproc": 2}}}),
        json.dumps({"correct": failed == 0, "attempted": 30, "failed": failed,
                    "metrics": metrics}),
    ]) + "\n"


def pairs(parent_costs, change_costs, rss=(50.0, 51.0)):
    return [{"parent": bench_pairs.parse_run(run_output(p, rss[0])),
             "change": bench_pairs.parse_run(run_output(c, rss[1]))}
            for p, c in zip(parent_costs, change_costs)]


def test_sides_alternate_which_runs_first():
    assert [bench_pairs.pair_order(p) for p in range(3)] == [
        ("parent", "change"), ("change", "parent"), ("parent", "change")]


def test_parse_run_reads_the_last_json_line():
    result = bench_pairs.parse_run(run_output(4.4, 50.0))
    assert result["metrics"]["instance_cost_cal"]["value"] == 4.4
    assert result["attempted"] == 30


def test_medians_quartiles_and_per_pair_values():
    parent = [11.0, 12.0, 10.0, 13.0, 11.5]
    change = [4.5, 4.0, 4.4, 4.6, 12.0]
    out = bench_pairs.aggregate(BENCHMARK, pairs(parent, change))
    cost = out["metrics"]["instance_cost_cal"]
    assert out["pairs"] == 5
    assert cost["values"] == {"parent": parent, "change": change}
    assert cost["parent"] == {"median": 11.5, "q1": 11.0, "q3": 12.0, "iqr": 1.0}
    assert cost["change"]["median"] == 4.5
    assert cost["change"]["iqr"] == pytest.approx(0.2)
    assert cost["change_wins"] == 4  # the last pair went the parent's way
    assert cost["change_over_parent"] == pytest.approx(4.5 / 11.5)
    assert cost["within_bound"]
    assert (cost["unit"], cost["better"], cost["bound"]) == ("ratio", "lower", 0.12)


def test_bound_and_direction_come_from_the_benchmark_file():
    runs = pairs([10.0, 10.0], [10.0, 10.0], rss=(100.0, 111.0))
    rss = bench_pairs.aggregate(BENCHMARK, runs)["metrics"]["peak_rss_mb"]
    assert not rss["within_bound"] and rss["change_wins"] == 0
    higher = {"end_to_end": [dict(BENCHMARK["end_to_end"][1], better="higher")]}
    rss = bench_pairs.aggregate(higher, runs)["metrics"]["peak_rss_mb"]
    assert rss["within_bound"] and rss["change_wins"] == 2


def test_only_benchmark_metrics_are_reported_and_failures_are_summed():
    runs = pairs([10.0], [9.0])
    runs[0]["change"] = bench_pairs.parse_run(run_output(9.0, 50.0, failed=2,
                                                         extra_metric="instances_per_s"))
    out = bench_pairs.aggregate(BENCHMARK, runs)
    assert sorted(out["metrics"]) == ["instance_cost_cal", "peak_rss_mb"]
    assert out["parent"] == {"correct": True, "attempted": 30, "failed": 0}
    assert out["change"] == {"correct": False, "attempted": 30, "failed": 2}
    single = out["metrics"]["instance_cost_cal"]["change"]
    assert single == {"median": 9.0, "q1": 9.0, "q3": 9.0, "iqr": 0.0}


def test_a_metric_missing_from_a_run_is_an_error():
    runs = pairs([10.0], [9.0])
    del runs[0]["change"]["metrics"]["peak_rss_mb"]
    with pytest.raises(KeyError):
        bench_pairs.aggregate(BENCHMARK, runs)


def checkout(root, *caches):
    """A checkout skeleton under ``root`` with the given cache directories."""
    for sub in ("src/splitplan", "perfbench", "tests", *caches):
        (root / sub).mkdir(parents=True, exist_ok=True)
    return root


def test_stale_caches_names_every_cache_under_src_and_perfbench(tmp_path):
    parent = checkout(tmp_path / "parent", "src/splitplan/__pycache__", "tests/__pycache__")
    change = checkout(tmp_path / "change", "perfbench/__pycache__",
                      "src/splitplan/data/__pycache__")
    assert bench_pairs.stale_caches([parent, change]) == [
        change / "perfbench/__pycache__",
        change / "src/splitplan/data/__pycache__",
        parent / "src/splitplan/__pycache__",
    ]
    assert bench_pairs.stale_caches([checkout(tmp_path / "clean")]) == []


def test_main_refuses_before_the_first_run(tmp_path, monkeypatch, capsys):
    parent = checkout(tmp_path / "parent", "src/splitplan/__pycache__")
    change = checkout(tmp_path / "change", "perfbench/__pycache__")
    (change / "BENCHMARK.json").write_text(json.dumps(
        {"workloads": [{"name": "w"}], **BENCHMARK}))
    monkeypatch.setattr(bench_pairs, "ROOT", change)

    def no_runs(*args):
        raise AssertionError("a side ran despite the caches")

    monkeypatch.setattr(bench_pairs, "describe", no_runs)
    monkeypatch.setattr(bench_pairs, "measure", no_runs)
    out = tmp_path / "out.json"
    with pytest.raises(SystemExit) as exit_info:
        bench_pairs.main(["--parent", str(parent), "--workload", "w", "--pairs", "1",
                          "--seed", "1", "--seconds", "1", "--out", str(out)])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert str(parent / "src/splitplan/__pycache__") in err
    assert str(change / "perfbench/__pycache__") in err
    assert not out.exists()


def test_main_refuses_a_parent_outside_git(tmp_path, monkeypatch, capsys):
    parent = checkout(tmp_path / "parent")
    change = checkout(tmp_path / "change")
    (change / "BENCHMARK.json").write_text(json.dumps(
        {"workloads": [{"name": "w"}], **BENCHMARK}))
    monkeypatch.setattr(bench_pairs, "ROOT", change)

    def no_runs(*args):
        raise AssertionError("a side ran with a parent outside git")

    monkeypatch.setattr(bench_pairs, "measure", no_runs)
    out = tmp_path / "out.json"
    with pytest.raises(SystemExit) as exit_info:
        bench_pairs.main(["--parent", str(parent), "--workload", "w", "--pairs", "1",
                          "--seed", "1", "--seconds", "1", "--out", str(out)])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert f"{parent} is not a git checkout" in err
    assert "pass the parent commit instead" in err
    assert not out.exists()


def scaling_result(growth, p1=2.0, heuristic=1.5):
    """A ``bench_scaling`` result whose ``p2`` grows ``growth`` and ``p3`` 2.0."""
    ratios = {"p1": p1, "p2": growth, "p3": 2.0, "queue-heuristic": heuristic}
    return {"growth_ratio": ratios, "ordering": {
        "p2_grows_slower_than_p1": growth < p1,
        "heuristic_grows_slower_than_p3": heuristic < 2.0}}


def test_scaling_failures_and_growth_per_side():
    runs = [{"parent": scaling_result(g), "change": scaling_result(1.0, heuristic=h)}
            for g, h in ((1.0, 1.5), (3.0, 2.5), (1.5, 1.5))]
    out = scaling_pairs.aggregate(runs)
    assert out["parent"]["failures"] == {"p2_grows_slower_than_p1": 1,
                                         "heuristic_grows_slower_than_p3": 0}
    assert out["change"]["failures"] == {"p2_grows_slower_than_p1": 0,
                                         "heuristic_grows_slower_than_p3": 1}
    assert out["parent"]["growth"]["p2"] == {"median": 1.5, "min": 1.0, "max": 3.0,
                                             "values": [1.0, 3.0, 1.5]}
    assert out["change"]["growth"]["queue-heuristic"]["median"] == 1.5


def test_scaling_pairs_refuses_a_parent_outside_git(tmp_path, monkeypatch, capsys):
    parent = checkout(tmp_path / "parent")
    monkeypatch.setattr(bench_pairs, "ROOT", checkout(tmp_path / "change"))

    def no_runs(*args):
        raise AssertionError("a side ran with a parent outside git")

    monkeypatch.setattr(scaling_pairs, "run_scaling", no_runs)
    out = tmp_path / "out.json"
    with pytest.raises(SystemExit) as exit_info:
        scaling_pairs.main(["--parent", str(parent), "--runs", "1", "--out", str(out)])
    assert exit_info.value.code == 2
    assert f"{parent} is not a git checkout" in capsys.readouterr().err
    assert not out.exists()


def test_scaling_pairs_one_run_per_side(tmp_path, monkeypatch):
    """Both sides are this checkout, whose commit and bytecode caches the
    test does not control, so only those two checks are stubbed; the two
    ``bench_scaling`` processes run."""
    monkeypatch.setattr(bench_pairs, "describe", lambda path: {"sha": "0" * 40,
                                                              "dirty": False})
    monkeypatch.setattr(bench_pairs, "stale_caches", lambda checkouts: [])
    order = []
    run_scaling = scaling_pairs.run_scaling

    def spy(path):
        order.append(path)
        return run_scaling(path)

    monkeypatch.setattr(scaling_pairs, "run_scaling", spy)
    out = tmp_path / "out.json"
    assert scaling_pairs.main(["--parent", str(bench_pairs.ROOT), "--runs", "1",
                               "--out", str(out)]) == 0
    assert order == [bench_pairs.ROOT.resolve(), bench_pairs.ROOT]
    record = json.loads(out.read_text())
    assert record["runs"] == 1 and record["parent"]["sha"] == "0" * 40
    for side in ("parent", "change"):
        result = record["sides"][side]
        assert set(result["failures"]) == {"p2_grows_slower_than_p1",
                                           "heuristic_grows_slower_than_p3"}
        assert set(result["failures"].values()) <= {0, 1}
        assert len(result["growth"]) == 7
        for growth in result["growth"].values():
            assert growth["min"] == growth["median"] == growth["max"] > 0

"""Self-tests of the benchmark.

    python3 -m pytest perfbench -q
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import certify  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from splitplan import harness  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def measure(name, seed, instances, tracer=None):
    wl = workloads.setup(name, seed)[0]
    if tracer is None:
        return run.measure(wl, 0.0, min_instances=instances)
    tracer.install()
    try:
        return run.measure(wl, 0.0, tracer, min_instances=instances)
    finally:
        tracer.uninstall()


@pytest.mark.parametrize("policy", ["p1", "p3"])
def test_certificate_rejects_scaled_bandwidth(policy):
    wl = workloads.setup("oracle-k2", 3)[0]
    net = wl.instance(0)
    plan = harness.POLICIES[policy](net, wl.solver)
    assert certify.certify(net, plan) is None
    bw = list(plan.bandwidth_hz)
    bw[1] *= 1.01
    assert certify.certify(net, dataclasses.replace(plan, bandwidth_hz=tuple(bw)))


def test_scaled_bandwidth_counts_as_failed_solve(monkeypatch):
    solve = harness.POLICIES["p3"]

    def scaled(net, settings):
        plan = solve(net, settings)
        bw = list(plan.bandwidth_hz)
        bw[0] *= 1.01
        return dataclasses.replace(plan, bandwidth_hz=tuple(bw))

    monkeypatch.setitem(harness.POLICIES, "p3", scaled)
    attempted, failed = run.failures(measure("oracle-k2", 3, 2))
    assert attempted == 2 * 5
    assert [(i, label) for i, label, _ in failed] == [(0, "p3"), (1, "p3")]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_runs_repeat_counts_and_plans(name):
    policies = dict(harness.POLICIES)
    untraced = measure(name, 5, 2)
    runs = []
    for _ in range(2):
        tracer = tracing.Tracer()
        rows = measure(name, 5, 2, tracer)
        metrics = tracing.per_layer(untraced, rows, tracer)
        runs.append({k: v for k, v in metrics.items()
                     if not k.endswith("ms") and k != "trace.overhead_ratio"})
        # tracing must not change a single plan
        assert run.objectives(rows) == run.objectives(untraced)
        assert run.plan_delay_gmean(rows, 2) == run.plan_delay_gmean(untraced, 2)
    assert runs[0] == runs[1]
    assert harness.POLICIES == policies  # the wrappers are gone again


def test_layer_counts_show_each_workload_stresses_its_layer():
    counts = {}
    for name in workloads.WORKLOADS:
        tracer = tracing.Tracer()
        rows = measure(name, 2, 1, tracer)
        counts[name] = tracing.per_layer(rows, rows, tracer)
    rbu = "parallel._required_bandwidth_u.calls"
    assert counts["simulate-k10"][rbu] > 0 and counts["serial-mixed-k32"][rbu] == 0
    assert counts["serial-mixed-k32"]["serial.reallocate_once.calls"] > 0
    eds = "parallel.equal_delay_split.calls"
    assert counts["oracle-k2"][eds] > counts["simulate-k10"][eds]


def run_main(capsys, *args):
    assert run.main(list(args)) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_seed_changes_instances_not_metric_names(capsys, monkeypatch):
    monkeypatch.setattr(workloads.SerialMixedK32, "quality_instances", 2)
    wanted = {0: {m["name"] for m in BENCHMARK["end_to_end"]},
              1: {m["name"] for m in BENCHMARK["per_layer"]}}
    delay = {}
    for seed in (1, 2):
        for trace in (0, 1):
            out = run_main(capsys, "--workload", "serial-mixed-k32", "--seed", str(seed),
                           "--seconds", "0", "--trace", str(trace))
            assert out["correct"] and out["failed"] == 0 and out["attempted"] > 0
            assert set(out["metrics"]) == wanted[trace]
            if trace == 0:
                delay[seed] = out["metrics"]["plan_delay_gmean_s"]["value"]
    assert delay[1] != delay[2]
    first = [workloads.setup("serial-mixed-k32", s)[1] for s in (1, 2)]
    assert first[0] != first[1]


def test_units_match_benchmark_json():
    declared = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]}
    assert declared == dict(run.END_TO_END + tracing.PER_LAYER)
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


def test_exits_without_result_when_program_is_missing(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "oracle-k2",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""

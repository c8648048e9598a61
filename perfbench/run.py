"""Planner benchmark for splitplan.

    python3 perfbench/run.py --workload simulate-k10 --seed 1 --seconds 40 --trace 0

Runs one seeded workload in this process and thread for ``--seconds``
seconds, certifies every plan it gets back, and prints the metrics by name
and unit. The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.

A ``--trace 1`` run first measures half of the time untraced (policy
timings, and the base of ``trace.overhead_ratio``), then installs the
wrappers of ``tracing.py`` and measures the other half traced. Spans are
written to ``.bench_out/`` at the end.

The planner is imported from ``src/`` of the checkout this file sits in; the
run exits with code 2 and prints no result if the sources are not there.
"""

import os

# pin native thread pools before anything can import numpy
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

#: ``setup_s`` is the median of one set-up in this process and this many in
#: fresh interpreters, each timed from just before the import. Half run
#: before the measured pass and half after it, so they see the host's state
#: at both ends of the run.
SETUP_PROBES = 8
#: Untimed instances (indices outside the timed range) run before timing.
WARMUP_INSTANCES = 2

#: End-to-end metrics of the result line. Instance times are given in units
#: of the calibration kernel's time in the same run, because the host's
#: speed drifts by tens of percent between runs while these ratios stay
#: within a few percent.
END_TO_END = (
    ("setup_s", "s"),
    ("instance_cost_cal", "ratio"),
    ("instance_p50_cal", "ratio"),
    ("instance_p90_cal", "ratio"),
    ("plan_delay_gmean_s", "s"),
    ("peak_rss_mb", "MB"),
)
#: Printed with them but left out of the result line: raw wall-clock
#: figures (they drift with the host), the failure ratio (also given by
#: ``failed`` over ``attempted``) and the kernel's own median time.
RAW = (
    ("instances_per_s", "1/s"),
    ("instance_p50_ms", "ms"),
    ("instance_p90_ms", "ms"),
    ("solve_fail_ratio", "ratio"),
    ("cal_kernel_ms", "ms"),
)

_SETUP_PROBE = ("import sys; sys.path[:0] = sys.argv[3:]; import workloads; "
                "print(repr(workloads.setup(sys.argv[1], int(sys.argv[2]))[2]))")


def probe_setup(name: str, seed: int) -> float:
    """``setup_s`` of one fresh interpreter (its start-up is not counted)."""
    proc = subprocess.run(
        [sys.executable, "-c", _SETUP_PROBE, name, str(seed), str(HERE), str(SRC)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def git_sha() -> str:
    """Commit of the checkout, read from ``.git`` without leaving it."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    from importlib import metadata

    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return "absent"

    return {
        "git_sha": git_sha(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "threads_env": {v: os.environ[v] for v in
                        ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


@dataclass
class Instance:
    """Measurements and checked results of one planned instance."""

    gen_s: float
    plan_s: float
    cal_s: float
    #: label -> (objective or nan, wall_s, failure reason or None, iterations)
    results: dict


def check(net, label, res):
    """Certify one result; returns (objective, failure reason, iterations)."""
    import certify
    from splitplan.errors import SplitPlanError
    if isinstance(res, SplitPlanError):
        return math.nan, f"{type(res).__name__}: {res}", 0
    if label.startswith("oracle-"):
        ok = math.isfinite(res.objective) and res.objective > 0
        return res.objective, None if ok else "oracle objective not positive", 0
    return res.objective, certify.certify(net, res), res.iterations


def measure(workload, seconds, tracer=None, min_instances=1):
    """Plan instances 0, 1, ... for ``seconds``, and at least ``min_instances``.

    Generation and planning are traced when a tracer is given; the
    calibration kernel and the certificate never are.
    """
    import calibrate
    clock = time.perf_counter
    rows = []
    stop = clock() + seconds
    index = 0
    while index < min_instances or clock() < stop:
        with tracer.recording() if tracer else nullcontext():
            if tracer:
                tracer.instance = index
            t0 = clock()
            net = workload.instance(index)
            t1 = clock()
            results = workload.plan(net)
            t2 = clock()
        calibrate.kernel()
        t3 = clock()
        checked = {}
        for label, res, wall in results:
            obj, reason, iters = check(net, label, res)
            checked[label] = (obj, wall, reason, iters)
        rows.append(Instance(t1 - t0, t2 - t1, t3 - t2, checked))
        index += 1
    return rows


def failures(rows):
    attempted = sum(len(r.results) for r in rows)
    failed = [(i, label, v[2]) for i, r in enumerate(rows)
              for label, v in r.results.items() if v[2] is not None]
    return attempted, failed


def objectives(rows):
    """Per instance, the objective each policy or oracle returned."""
    return [{label: v[0] for label, v in r.results.items()} for r in rows]


def plan_delay_gmean(rows, quality_instances) -> float:
    """Geometric mean objective of the certified plans of the first instances.

    Only a fixed number of instances count, so the value depends on the
    seed alone, not on how many instances the host managed to plan. The
    geometric mean, because a deep fade on a far device makes a rare plan's
    delay a hundred times the typical one: over 10 seeds, the arithmetic
    mean of 128 serial-mixed-k32 instances spread by 24% (quartile distance
    over median), the geometric mean by 3.4%.
    """
    objs = [v[0] for r in rows[:quality_instances] for label, v in r.results.items()
            if not label.startswith("oracle-") and v[2] is None]
    return math.exp(math.fsum(map(math.log, objs)) / len(objs)) if objs else math.nan


def cal_normalised(rows):
    """Each instance's planning time over the mean time of the two kernel runs
    around it, the one just before and the one just after.

    The host's speed changes within seconds; the kernel runs next to an
    instance track it more closely than any run-wide average.
    """
    cal = [r.cal_s for r in rows]
    return [r.plan_s / (0.5 * (cal[i - 1] + cal[i]) if i else cal[0])
            for i, r in enumerate(rows)]


def p90(values) -> float:
    """90th percentile, interpolated between the two nearest samples."""
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def end_to_end(rows, setup_samples, quality_instances) -> dict:
    """Metrics of :data:`END_TO_END` and :data:`RAW` for one untraced pass."""
    plan = [r.plan_s for r in rows]
    norm = cal_normalised(rows)
    attempted, failed = failures(rows)
    return {
        "setup_s": statistics.median(setup_samples),
        "instance_cost_cal": math.fsum(plan) / math.fsum(r.cal_s for r in rows),
        "instance_p50_cal": statistics.median(norm),
        "instance_p90_cal": p90(norm),
        "plan_delay_gmean_s": plan_delay_gmean(rows, quality_instances),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "instances_per_s": len(rows) / math.fsum(r.gen_s + r.plan_s for r in rows),
        "instance_p50_ms": statistics.median(plan) * 1e3,
        "instance_p90_ms": p90(plan) * 1e3,
        "solve_fail_ratio": len(failed) / attempted,
        "cal_kernel_ms": statistics.median(r.cal_s for r in rows) * 1e3,
    }


def emit(workload, metrics, units, attempted, failed, correct, report, extra=()):
    for name, unit in units + extra:
        print(f"{workload:18s} {name:44s} {metrics[name]:.6g} {unit}")
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {n: {"value": metrics[n], "unit": u} for n, u in units},
    }))


def end_to_end_run(workload, args, setup0, report):
    """The untraced run: set-up probes around one measured pass."""
    def probes(count):
        return [probe_setup(args.workload, args.seed) for _ in range(count)]

    setup_samples = [setup0] + probes(SETUP_PROBES // 2)
    rows = measure(workload, args.seconds, min_instances=workload.quality_instances)
    setup_samples += probes(SETUP_PROBES - SETUP_PROBES // 2)
    metrics = end_to_end(rows, setup_samples, workload.quality_instances)
    report.update(instances=len(rows), quality_instances=workload.quality_instances,
                  setup_samples_s=setup_samples, end_to_end=metrics)
    return rows, metrics


def traced_run(workload, args, report):
    """Half the time untraced, then the same instances traced."""
    import tracing
    import workloads
    rows = measure(workload, args.seconds / 2)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        with tracer.recording():  # spans of the set-up get instance id -1
            workload = workloads.setup(args.workload, args.seed)[0]
        tracer.counts.clear()
        traced = measure(workload, args.seconds / 2, tracer)
    finally:
        tracer.uninstall()
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
    # tracing must not change a single plan
    common = min(len(rows), len(traced))
    report.update(instances=len(rows), traced_instances=len(traced),
                  traced_plans_match_untraced=(
                      objectives(rows[:common]) == objectives(traced[:common])))
    return rows + traced, tracing.per_layer(rows, traced, tracer)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "splitplan" / "__init__.py").is_file():
        print(f"error: planner sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("error: --seed must be >= 0", file=sys.stderr)
        return 2
    sys.path[:0] = [str(HERE), str(SRC)]
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    workload, _, setup0 = workloads.setup(args.workload, args.seed)
    import calibrate
    for _ in range(3):
        calibrate.kernel()
    for w in range(WARMUP_INSTANCES):
        workload.plan(workload.instance(workloads.WARMUP_BASE + w))
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment()}
    if args.trace == 0:
        rows, metrics = end_to_end_run(workload, args, setup0, report)
        units, extra = END_TO_END, RAW
    else:
        import tracing
        rows, metrics = traced_run(workload, args, report)
        units, extra = tracing.PER_LAYER, ()
    attempted, failed = failures(rows)
    for i, label, reason in failed[:20]:
        print(f"FAILED instance {i} {label}: {reason}", file=sys.stderr)
    report.update(attempted=attempted, failed=len(failed))
    correct = not failed and report.get("traced_plans_match_untraced", True)
    emit(args.workload, metrics, units, attempted, len(failed), correct, report, extra)
    return 0


if __name__ == "__main__":
    sys.exit(main())

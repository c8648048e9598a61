"""Interleaved criterion-8 scaling runs of a parent and the change, in one JSON file.

    python3 tools/scaling_pairs.py --parent <sha|path> --runs 30 --out SCALING.json

Criterion 8 (``tests/test_acceptance.py::test_criterion_8_scaling_ordinals``)
compares wall-time growth from 4 to 16 devices, and a single run of it is
timing-flaky, so a change to a policy's speed is judged by how often each
ordering fails over many runs on both sides. Each run here is a fresh
``python3 -c`` process that calls the criterion's exact
``bench_scaling(ExperimentConfig(), [4, 16], trials=7)`` in one side's
checkout and prints the result as JSON. Runs go one process at a time; run i
measures both sides, and which side goes first alternates from run to run.
The parent checkout, its temporary worktree for a commit, and the refusals
(bytecode caches, a parent outside git, uncommitted changes to ``src/`` or
``perfbench/``) are ``bench_pairs.checkouts``'s.

Per side, the output holds how many runs failed each ordering of
``bench_scaling``'s ``ordering`` map, and each policy's median, min and max
growth ratio with its per-run values; it also records the run count, both
commits and ``nproc``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

import bench_pairs

#: Criterion 8's call, printed as one JSON line.
SCALING = ("import json\n"
           "from splitplan.harness import ExperimentConfig, bench_scaling\n"
           "print(json.dumps(bench_scaling(ExperimentConfig(), [4, 16], trials=7)))\n")


def run_scaling(checkout: Path) -> dict:
    """``bench_scaling``'s result from one fresh process in ``checkout``."""
    env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-c", SCALING], cwd=checkout, env=env,
                          capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{checkout}: bench_scaling exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    return bench_pairs.parse_run(proc.stdout)


def aggregate(runs: list) -> dict:
    """Per side, failures per ordering and growth per policy from ``runs``,
    one ``{"parent": result, "change": result}`` per run."""
    out = {}
    for side in bench_pairs.SIDES:
        results = [r[side] for r in runs]
        growth = {}
        for policy in results[0]["growth_ratio"]:
            values = [r["growth_ratio"][policy] for r in results]
            growth[policy] = {"median": statistics.median(values), "min": min(values),
                              "max": max(values), "values": values}
        out[side] = {
            "failures": {name: sum(not r["ordering"][name] for r in results)
                         for name in results[0]["ordering"]},
            "growth": growth,
        }
    return out


def measure(sides: dict, runs: int) -> list:
    out = []
    for run in range(runs):
        results = {}
        for side in bench_pairs.pair_order(run):
            results[side] = run_scaling(sides[side])
            failed = sorted(k for k, ok in results[side]["ordering"].items() if not ok)
            print(f"run {run + 1}/{runs} {side}: failed {failed or 'none'}",
                  file=sys.stderr, flush=True)
        out.append(results)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="commit of this repository or checkout path")
    ap.add_argument("--runs", type=int, required=True, help="runs per side")
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    if args.runs < 1:
        ap.error("--runs must be >= 1")

    with bench_pairs.checkouts(args.parent, ap.error) as (sides, commits):
        runs = measure(sides, args.runs)

    out = {
        "runs": args.runs,
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        **commits,
        "sides": aggregate(runs),
    }
    args.out.write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Interleaved parent/change benchmark pairs, written to one JSON file.

    python3 tools/bench_pairs.py --parent <sha|path> \\
        --workload serial-mixed-k32 simulate-k10 oracle-k2 \\
        --pairs 5 --seed 3 --seconds 40 --out BENCH_7.json

The change is the checkout this file sits in. The parent is either the path
of another git checkout or a commit of this repository; a commit is checked
out into a temporary detached ``git worktree``, which is removed afterwards.
A parent directory outside git (a ``git archive`` copy, say) is refused, since
the record could not name the commit it measured.
Each pair runs ``perfbench/run.py --trace 0`` of both sides for every
workload, one process at a time, and alternates which side runs first.
The tool refuses to start while either side has a ``__pycache__`` directory
under ``src/`` or ``perfbench/``: a cache compiled from other sources, or
present on one side only, moves ``peak_rss_mb`` and ``instance_cost_cal`` of
code that did not change. It also refuses while a tracked file under either
side's ``src/`` or ``perfbench/`` differs from its commit, since the record
names each side by its commit alone; untracked files do not count.

Nothing here defines a metric. The names, units, directions and bounds are
the ``end_to_end`` list of this checkout's ``BENCHMARK.json``, and the values
are read from the last JSON line each run prints. Per workload and metric the
output holds both sides' medians, quartiles and IQR, the pair count, the
per-pair values, how many pairs the change won, and whether the change's
median is inside the metric's bound; it also records the seed, both commits
and ``nproc``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
#: The directories whose code a benchmark run executes.
MEASURED = ("src", "perfbench")


def pair_order(pair: int) -> tuple[str, str]:
    """Which side runs first alternates from pair to pair."""
    return SIDES if pair % 2 == 0 else SIDES[::-1]


def parse_run(stdout: str) -> dict:
    """The result object of one ``run.py`` output: its last JSON line."""
    return json.loads(stdout.strip().splitlines()[-1])


def quartiles(values) -> dict:
    values = sorted(values)
    if len(values) < 2:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "iqr": q3 - q1}


def aggregate(benchmark: dict, runs: list) -> dict:
    """Summary of one workload from ``runs``, one ``{"parent": result,
    "change": result}`` per pair, each result a parsed ``run.py`` result line."""
    out = {"pairs": len(runs)}
    for side in SIDES:
        results = [r[side] for r in runs]
        out[side] = {"correct": all(r["correct"] for r in results),
                     "attempted": sum(r["attempted"] for r in results),
                     "failed": sum(r["failed"] for r in results)}
    metrics = {}
    for spec in benchmark["end_to_end"]:
        name = spec["name"]
        values = {side: [r[side]["metrics"][name]["value"] for r in runs] for side in SIDES}
        parent, change = (quartiles(values[side]) for side in SIDES)
        lower = spec["better"] == "lower"
        wins = sum((c < p) if lower else (c > p)
                   for p, c in zip(values["parent"], values["change"]))
        ratio = change["median"] / parent["median"]
        metrics[name] = {
            "unit": spec["unit"],
            "better": spec["better"],
            "bound": spec["bound"],
            "parent": parent,
            "change": change,
            "change_over_parent": ratio,
            "within_bound": (ratio <= 1 + spec["bound"]) if lower
                            else (ratio >= 1 - spec["bound"]),
            "change_wins": wins,
            "values": values,
        }
    out["metrics"] = metrics
    return out


def git(checkout: Path, *args) -> str:
    return subprocess.run(["git", "-C", str(checkout), *args], capture_output=True,
                          text=True, check=True).stdout.strip()


def describe(checkout: Path) -> dict:
    """Commit of a checkout, and whether a tracked file under its ``src/`` or
    ``perfbench/`` differs from that commit (both ``None`` outside git).
    Untracked files, such as an earlier benchmark record, do not count."""
    try:
        return {"sha": git(checkout, "rev-parse", "HEAD"),
                "dirty": bool(git(checkout, "status", "--porcelain", "--untracked-files=no",
                                  "--", *MEASURED))}
    except (subprocess.CalledProcessError, FileNotFoundError):
        return {"sha": None, "dirty": None}


def stale_caches(checkouts) -> list:
    """Every ``__pycache__`` directory under the ``src/`` or ``perfbench/`` of
    the given checkouts, sorted."""
    return sorted(cache for root in checkouts for sub in MEASURED
                  for cache in (Path(root) / sub).rglob("__pycache__") if cache.is_dir())


@contextlib.contextmanager
def checkouts(parent_arg: str, refuse):
    """Yield ``(sides, commits)``: the ``parent`` and ``change`` checkout
    paths and each one's :func:`describe`. A ``parent_arg`` that is not a
    directory names a commit, which is checked out into a temporary detached
    ``git worktree`` and removed on exit. ``refuse(message)`` must raise; it
    is called before anything runs when either side has a bytecode cache
    (:func:`stale_caches`), the parent is not a git checkout, or either
    side has uncommitted changes to its measured code (:func:`describe`)."""
    with tempfile.TemporaryDirectory(prefix="bench-parent-") as tmp:
        parent = Path(parent_arg)
        worktree = None
        if not parent.is_dir():
            sha = git(ROOT, "rev-parse", "--verify", f"{parent_arg}^{{commit}}")
            worktree = Path(tmp) / "parent"
            git(ROOT, "worktree", "add", "--detach", str(worktree), sha)
            parent = worktree
        try:
            sides = {"parent": parent.resolve(), "change": ROOT}
            stale = stale_caches(sides.values())
            if stale:
                refuse("remove these bytecode caches before benchmarking:\n"
                       + "\n".join(str(cache) for cache in stale))
            commits = {side: describe(path) for side, path in sides.items()}
            if commits["parent"]["sha"] is None:
                refuse(f"{parent} is not a git checkout, so the record could not name "
                       "its commit; pass the parent commit instead, which is checked "
                       "out as a fresh worktree")
            dirty = [str(sides[side]) for side in SIDES if commits[side]["dirty"]]
            if dirty:
                refuse("commit the changes under src/ and perfbench/ before benchmarking, "
                       "so the record names the code it measured: " + ", ".join(dirty))
            yield sides, commits
        finally:
            if worktree is not None:
                git(ROOT, "worktree", "remove", "--force", str(worktree))


def run_side(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{checkout}: run.py {workload} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    return parse_run(proc.stdout)


def measure(sides: dict, workloads, pairs: int, seed: int, seconds: float) -> dict:
    runs = {w: [] for w in workloads}
    for pair in range(pairs):
        for workload in workloads:
            results = {}
            for side in pair_order(pair):
                results[side] = run_side(sides[side], workload, seed, seconds)
                ratio = results[side]["metrics"]["instance_cost_cal"]["value"]
                print(f"pair {pair + 1}/{pairs} {workload} {side}: "
                      f"instance_cost_cal {ratio:.4g}", file=sys.stderr, flush=True)
            runs[workload].append(results)
    return runs


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="commit of this repository or checkout path")
    ap.add_argument("--workload", required=True, nargs="+")
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    known = [w["name"] for w in benchmark["workloads"]]
    unknown = sorted(set(args.workload) - set(known))
    if unknown:
        ap.error(f"unknown workload(s) {unknown}; choose from {known}")
    if args.pairs < 1:
        ap.error("--pairs must be >= 1")

    with checkouts(args.parent, ap.error) as (sides, commits):
        runs = measure(sides, args.workload, args.pairs, args.seed, args.seconds)

    out = {
        "pairs": args.pairs,
        "seed": args.seed,
        "seconds": args.seconds,
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        **commits,
        "workloads": {w: aggregate(benchmark, runs[w]) for w in args.workload},
    }
    args.out.write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Outside-in tracing: wrappers installed on the planner's module attributes.

A wrapped function is replaced in every ``splitplan`` module that binds the
same object, and in ``harness.POLICIES``, so calls made inside a module
(``solve_p1`` calling ``solve_p2``, ``serial`` calling ``bandwidth_for_rate``)
are seen too. Span functions record ``(name, start, end, parent, instance,
error)`` in memory. The three hottest leaves, tens of thousands of calls per
instance, are only counted: a span on each would cost more than the leaf.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from collections import Counter
from contextlib import contextmanager

#: Functions that get a span: ``(module, function)``.
SPANNED = (
    ("parallel", "solve_p1"),
    ("parallel", "solve_p2"),
    ("parallel", "min_data_layer_policy"),
    ("parallel", "first_layer_policy"),
    ("parallel", "resource_subproblem"),
    ("parallel", "_bandwidth_floor"),
    ("parallel", "_root_decreasing"),
    ("parallel", "bandwidth_for_rate"),
    ("parallel", "equal_delay_split"),
    ("serial", "solve_p3"),
    ("serial", "queue_heuristic"),
    ("serial", "queue_first_layer_policy"),
    ("serial", "_common_arrival_bandwidth"),
    ("serial", "reallocate_once"),
    ("delay", "queue_completions"),
    ("oracle", "oracle_parallel"),
    ("oracle", "oracle_serial"),
    ("harness", "build_network"),
    ("channel", "trial_fading"),
    ("arch", "propagate"),
)

#: Hot leaves that are only counted (tens of thousands of calls per instance).
COUNTED = (
    ("parallel", "_required_bandwidth_u"),
    ("parallel", "_share_for_price"),
    ("channel", "achievable_rate"),
)

#: Instance id recorded on spans made while building a workload.
SETUP_INSTANCE = -1


class Tracer:
    """In-memory spans and call counts, kept only inside :meth:`recording`."""

    def __init__(self):
        self.on = False
        self.instance = SETUP_INSTANCE
        self.spans: list = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self._cells: dict[str, list[int]] = {}
        self._patches: list = []

    def _span(self, fn, name):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def wrapper(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            err = None
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                err = type(exc).__name__
                raise
            finally:
                t1 = clock()
                stack.pop()
                spans[sid] = (name, t0, t1, parent, self.instance, err)
        return wrapper

    def _count(self, fn, name):
        # no ``on`` test here: these run tens of thousands of times per
        # instance, so calls are always counted and ``recording`` keeps the
        # difference made while it is active
        cell = self._cells.setdefault(name, [0])

        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)
        return wrapper

    def install(self):
        """Wrap every binding of the traced functions; undo with :meth:`uninstall`."""
        import splitplan
        from splitplan import harness
        mods = [m for n, m in list(sys.modules.items())
                if m is not None and (n == "splitplan" or n.startswith("splitplan."))]
        for make, table in ((self._span, SPANNED), (self._count, COUNTED)):
            for modname, fname in table:
                fn = getattr(getattr(splitplan, modname), fname)
                wrapped = make(fn, f"{modname}.{fname}")
                for mod in mods:
                    for attr, value in list(vars(mod).items()):
                        if value is fn:
                            self._patches.append((vars(mod), attr, fn))
                            setattr(mod, attr, wrapped)
                for key, value in list(harness.POLICIES.items()):
                    if value is fn:
                        self._patches.append((harness.POLICIES, key, fn))
                        harness.POLICIES[key] = wrapped

    def uninstall(self):
        for namespace, key, fn in reversed(self._patches):
            namespace[key] = fn
        self._patches.clear()

    @contextmanager
    def recording(self):
        before = {name: cell[0] for name, cell in self._cells.items()}
        self.on = True
        try:
            yield self
        finally:
            self.on = False
            for name, cell in self._cells.items():
                self.counts[name] += cell[0] - before[name]

    def write(self, path):
        """Write the spans as JSON lines: name, start, end, parent, instance, error."""
        with open(path, "w") as fh:
            for sp in self.spans:
                fh.write(json.dumps(sp) + "\n")


def layer_totals(spans):
    """Per span name: ``{name: {instance: [calls, inclusive_s, self_s, errors]}}``.

    Self time is a span's duration minus the time its direct children cover
    (spans nest strictly, since the planner is single-threaded).
    """
    child = [0.0] * len(spans)
    for name, t0, t1, parent, _, _ in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    out: dict = {}
    for sid, (name, t0, t1, _, inst, err) in enumerate(spans):
        row = out.setdefault(name, {}).setdefault(inst, [0, 0.0, 0.0, 0])
        row[0] += 1
        row[1] += t1 - t0
        row[2] += t1 - t0 - child[sid]
        row[3] += err is not None
    return out


#: Per-layer metrics reported by a ``--trace 1`` run, in output order. Rates
#: and times are per timed instance, except ``arch.propagate.ms`` (per
#: set-up). Policy ``p50_ms`` timings come from the untraced half; a layer a
#: workload never calls reads 0.
PER_LAYER = (
    ("parallel.solve_p1.p50_ms", "ms"),
    ("parallel.solve_p2.p50_ms", "ms"),
    ("parallel.min_data_layer_policy.p50_ms", "ms"),
    ("parallel.first_layer_policy.p50_ms", "ms"),
    ("parallel.solve_p1.iterations_mean", "count"),
    ("parallel.resource_subproblem.calls", "count"),
    ("parallel.resource_subproblem.ms", "ms"),
    ("parallel._bandwidth_floor.calls", "count"),
    ("parallel._bandwidth_floor.self_ms", "ms"),
    ("parallel._share_for_price.calls", "count"),
    ("parallel._required_bandwidth_u.calls", "count"),
    ("parallel._root_decreasing.calls", "count"),
    ("parallel._root_decreasing.self_ms", "ms"),
    ("parallel.bandwidth_for_rate.calls", "count"),
    ("parallel.bandwidth_for_rate.self_ms", "ms"),
    ("channel.achievable_rate.calls", "count"),
    ("serial.solve_p3.p50_ms", "ms"),
    ("serial.queue_heuristic.p50_ms", "ms"),
    ("serial.queue_first_layer_policy.p50_ms", "ms"),
    ("serial._common_arrival_bandwidth.calls", "count"),
    ("serial._common_arrival_bandwidth.ms", "ms"),
    ("serial.reallocate_once.calls", "count"),
    ("serial.reallocate_once.accept_ratio", "ratio"),
    ("parallel.equal_delay_split.calls", "count"),
    ("parallel.equal_delay_split.self_ms", "ms"),
    ("delay.queue_completions.calls", "count"),
    ("delay.queue_completions.self_ms", "ms"),
    ("oracle.oracle_parallel.ms", "ms"),
    ("oracle.oracle_serial.ms", "ms"),
    ("oracle.gap_p1_max", "ratio"),
    ("oracle.gap_p3_max", "ratio"),
    ("oracle.gap_queue_heuristic_max", "ratio"),
    ("harness.build_network.ms", "ms"),
    ("channel.trial_fading.ms", "ms"),
    ("arch.propagate.ms", "ms"),
    ("trace.overhead_ratio", "ratio"),
)

#: Policy name -> the function ``harness.POLICIES`` maps it to.
POLICY_LAYERS = {
    "p1": "parallel.solve_p1",
    "p2": "parallel.solve_p2",
    "min-data": "parallel.min_data_layer_policy",
    "first-layer": "parallel.first_layer_policy",
    "p3": "serial.solve_p3",
    "queue-heuristic": "serial.queue_heuristic",
    "queue-first-layer": "serial.queue_first_layer_policy",
}

#: (metric, policy, oracle it is scored against)
ORACLE_GAPS = (
    ("oracle.gap_p1_max", "p1", "oracle-parallel"),
    ("oracle.gap_p3_max", "p3", "oracle-serial"),
    ("oracle.gap_queue_heuristic_max", "queue-heuristic", "oracle-serial"),
)


def _cost_cal(rows) -> float:
    return sum(r.plan_s for r in rows) / sum(r.cal_s for r in rows)


def per_layer(untraced, traced, tracer) -> dict:
    """Per-layer metrics from an untraced and a traced pass over the same instances.

    ``untraced``/``traced`` are lists of measured instances (``plan_s``,
    ``cal_s`` and ``results``: label -> (objective, wall_s, failure, iterations)).
    """
    n = len(traced)
    totals = layer_totals(tracer.spans)
    m = {}
    for name, per_inst in totals.items():
        timed = [row for inst, row in per_inst.items() if inst >= 0]
        calls = sum(r[0] for r in timed)
        m[f"{name}.calls"] = calls / n
        m[f"{name}.ms"] = sum(r[1] for r in timed) / n * 1e3
        m[f"{name}.self_ms"] = sum(r[2] for r in timed) / n * 1e3
        if name == "serial.reallocate_once" and calls:
            # a raised NoExcess or StalledBreak is a refused reallocation
            m[f"{name}.accept_ratio"] = (calls - sum(r[3] for r in timed)) / calls
    for name, count in tracer.counts.items():
        m[f"{name}.calls"] = count / n
    setup = totals.get("arch.propagate", {}).get(SETUP_INSTANCE)
    m["arch.propagate.ms"] = setup[1] * 1e3 if setup else 0.0
    for label, layer in POLICY_LAYERS.items():
        walls = [r.results[label][1] for r in untraced if label in r.results]
        m[f"{layer}.p50_ms"] = statistics.median(walls) * 1e3 if walls else 0.0
    iters = [r.results["p1"][3] for r in traced if "p1" in r.results]
    m["parallel.solve_p1.iterations_mean"] = sum(iters) / len(iters) if iters else 0.0
    for metric, policy, oracle in ORACLE_GAPS:
        gaps = [r.results[policy][0] / r.results[oracle][0] - 1.0 for r in traced
                if oracle in r.results and r.results[policy][2] is None
                and r.results[oracle][2] is None]
        m[metric] = max(gaps) if gaps else 0.0
    m["trace.overhead_ratio"] = _cost_cal(traced) / _cost_cal(untraced)
    return {name: m.get(name, 0.0) for name, _ in PER_LAYER}

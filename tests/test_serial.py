"""Serial policies: arrival shaping, gap reallocation, queue orderings."""

import math

import numpy as np
import pytest

from conftest import (link_with_snr, oracle_benchmark_network,
                      profile_from_lists, random_network, toy_network)
from splitplan.delay import Device, NetworkInstance, queue_completions
from splitplan.oracle import GridSpec, oracle_serial
from splitplan.parallel import CutTable, SolverSettings
from splitplan.serial import (queue_first_layer_policy, queue_heuristic,
                              reallocate_once, solve_p3, _reselect_serial, _serial_eval)


def random_broken_queue(rng, min_breaks=2, lowest_break=2, max_tries=400):
    """Arrivals/residuals whose queue has at least ``min_breaks`` gaps.

    Gaps are injected explicitly: within a sub-queue the next arrival lands
    before the previous completion, at a gap strictly after it.
    """
    for _ in range(max_tries):
        k = int(rng.integers(max(6, lowest_break + 3), 14))
        n_breaks = int(rng.integers(min_breaks, max(min_breaks + 1, k // 3)))
        positions = rng.choice(np.arange(lowest_break, k), size=n_breaks,
                               replace=False)
        f = rng.uniform(0.2, 1.5, k)
        c = np.empty(k)
        c[0] = rng.uniform(0.0, 1.0)
        done = c[0] + f[0]
        for p in range(1, k):
            if p in positions:
                c[p] = done + rng.uniform(0.05, 0.8)
            else:
                c[p] = max(c[p - 1], done - rng.uniform(0.05, 0.9) * f[p - 1])
                c[p] = max(c[p], c[p - 1])
            done = max(done, c[p]) + f[p]
        state = queue_completions(c, f, 1.0)
        if len(state.breaks) >= min_breaks and min(state.breaks) >= lowest_break:
            return state
    raise AssertionError("could not build a broken queue")


class TestGapOrderings:
    """The three transformed queues of the gap-elimination argument.

    Per base queue the two closed-form bounds always hold: the total strictly
    exceeds (i) the previous completion at the last gap plus the tail, and
    (ii) the next arrival plus its tail when a successor exists. Which of the
    three break structures a receiver speed-up lands in depends on how far
    its arrival drops; each constructed variant must strictly reduce the
    total.
    """

    def test_closed_form_bounds(self):
        rng = np.random.default_rng(21)
        for _ in range(300):
            state = random_broken_queue(rng)
            total = state.total_delay
            last = state.breaks[-1]
            fsum = np.array(state.residuals)
            bound1 = state.completions[last - 1] + fsum[last:].sum()
            assert bound1 < total
            if last + 1 < len(state.order):
                bound2 = state.arrivals[last + 1] + fsum[last + 1:].sum()
                assert bound2 < total

    def test_transformed_queues_strictly_faster(self):
        rng = np.random.default_rng(22)
        seen = {"eliminated": 0, "moved": 0, "added": 0}
        for _ in range(300):
            state = random_broken_queue(rng)
            c = np.array(state.arrivals)
            f = np.array(state.residuals)
            total = state.total_delay
            first, last = state.breaks[0], state.breaks[-1]

            # the donor move closes the first gap without touching the total
            c_donor = c.copy()
            c_donor[first - 1] = c[first] - f[first - 1]
            donor_state = queue_completions(c_donor, f, 1.0)
            assert donor_state.total_delay == pytest.approx(total, rel=1e-12)
            # the donor now finishes exactly at the next arrival; rounding may
            # leave a zero-width gap, which must be degenerate if present
            assert donor_state.completions[first - 1] == pytest.approx(
                c[first], rel=1e-12)
            if first in donor_state.breaks:
                gap = c[first] - donor_state.completions[first - 1]
                assert gap <= 1e-12 * max(1.0, c[first])

            # receiver speed-ups: pick drops landing in each reachable case
            prev_done = state.completions[last - 1]
            nxt = c[last + 1] if last + 1 < len(c) else None
            targets = []
            if nxt is None or prev_done + f[last] >= nxt:
                targets.append(("eliminated", prev_done - 0.25 * f[last]))
            else:
                targets.append(("moved", prev_done - 0.25 * f[last]))
            if nxt is not None and prev_done < c[last] - 1e-12:
                mid = 0.5 * (prev_done + c[last])
                if mid + f[last] < nxt:
                    targets.append(("added", mid))
            for case, new_c in targets:
                if new_c <= c[last - 1]:
                    continue  # would reorder the queue; not this case's shape
                c2 = c_donor.copy()
                c2[last] = new_c
                s2 = queue_completions(c2, f, 1.0)
                assert s2.total_delay < total
                seen[case] += 1
                if case == "eliminated":
                    assert last not in s2.breaks
                elif case == "moved":
                    assert last not in s2.breaks and (last + 1) in s2.breaks
                else:
                    assert last in s2.breaks and (last + 1) in s2.breaks
        # the ensemble must exercise every transformation
        assert min(seen.values()) > 0, seen


def _rigged_net(arrivals, per_job, bandwidth_each=2.5e4):
    """Network whose equal-split queue at cut 1 hits the given arrivals exactly.

    Each device transmits at in-band SNR 1 (rate equals its bandwidth), with
    local time half the arrival, payload sized for the other half, and one
    residual module worth ``per_job`` seconds of server time.
    """
    k = len(arrivals)
    f_max = 1e9
    compute = 3e10
    devs = []
    for c in arrivals:
        local = 0.5 * c
        bits = 0.5 * c * bandwidth_each
        prof = profile_from_lists([local * compute, per_job * f_max],
                                  [bits, bits / 2], raw_bits=2 * bits)
        devs.append(Device(link=link_with_snr(bandwidth_each),
                           compute_flops=compute, profile=prof))
    return NetworkInstance(tuple(devs), server_flops=f_max,
                           total_bandwidth_hz=bandwidth_each * k)


class TestReallocateOnce:
    def test_worked_example(self):
        # queue arrivals (1,3,4,8), unit jobs: gaps at positions 1 and 3;
        # the donor (position 0) slows down to arrive at 3 - 1 = 2
        net = _rigged_net([1.0, 3.0, 4.0, 8.0], per_job=1.0)
        table = CutTable(net)
        cuts = (1, 1, 1, 1)
        bw = np.full(4, 2.5e4)
        obj, state, arr, _ = _serial_eval(table, cuts, bw)
        assert np.allclose(arr, [1.0, 3.0, 4.0, 8.0], rtol=1e-9)
        assert state.breaks == (1, 3)
        obj2, bw2, state2 = reallocate_once(table, cuts, bw, state)
        moved = bw[0] - bw2[0]  # the donor is queue position 0, device 0
        assert moved > 0
        assert bw2[3] - bw[3] == pytest.approx(moved, rel=1e-12)  # the receiver: position 3
        assert bw2[1] == bw[1] and bw2[2] == bw[2]
        assert obj2 == state2.total_delay
        _, _, arr2, _ = _serial_eval(table, cuts, bw2)
        assert arr2[0] == pytest.approx(2.0, rel=1e-6)  # lands on the target
        assert sum(bw2) == pytest.approx(1e5, rel=1e-12)
        assert state2.total_delay <= state.total_delay * (1 + 1e-12)

    def test_single_gap_not_applicable(self):
        net = _rigged_net([1.0, 2.0, 5.0], per_job=1.0)
        table = CutTable(net)
        bw = np.full(3, 2.5e4)
        _, state, _, _ = _serial_eval(table, (1, 1, 1), bw)
        assert len(state.breaks) == 1
        with pytest.raises(ValueError):
            reallocate_once(table, (1, 1, 1), bw, state)

    def test_conserves_bandwidth_and_never_slows_queue(self):
        rng = np.random.default_rng(23)
        checked = 0
        for _ in range(120):
            net = random_network(rng, devices=int(rng.integers(5, 9)))
            table = CutTable(net)
            cuts = table.min_data_cuts()
            bw = np.full(net.num_devices,
                         net.total_bandwidth_hz / net.num_devices)
            _, state, _, _ = _serial_eval(table, cuts, bw)
            for _ in range(12):
                if len(state.breaks) < 2:
                    break
                from splitplan.errors import NoExcess, StalledBreak
                try:
                    _, bw_new, state_new = reallocate_once(table, cuts, bw, state)
                except (StalledBreak, NoExcess):
                    break
                assert sum(bw_new) == pytest.approx(net.total_bandwidth_hz, rel=1e-12)
                assert state_new.total_delay <= state.total_delay * (1 + 1e-12)
                bw, state = bw_new, state_new
                checked += 1
        assert checked >= 50


def reselect_by_generator(table, cuts, bandwidth, settings):
    """The serial coordinate pass as it was: each device takes the largest
    other arrival from a generator over all k devices."""
    f_max = table.net.server_flops
    k = table.num_devices
    cand_arr = [table.local_s[i] + table.transmit_s(i, bandwidth[i]) for i in range(k)]
    arr = np.array([cand_arr[i][cuts[i]] for i in range(k)])
    res = np.array([table.resid[i][cuts[i]] for i in range(k)])
    new_cuts = list(cuts)
    for i in range(k):
        if settings.p3_layer_rule == "c-only":
            best = int(np.argmin(cand_arr[i]))
        else:
            others_max = max((arr[j] for j in range(k) if j != i), default=-math.inf)
            others_res = res.sum() - res[i]
            score = (np.maximum(cand_arr[i], others_max)
                     + (others_res + table.resid[i]) / f_max)
            best = int(np.argmin(score))
        new_cuts[i] = best
        arr[i] = cand_arr[i][best]
        res[i] = table.resid[i][best]
    return tuple(new_cuts)


class TestReselectSerial:
    @pytest.mark.parametrize("rule", ["full", "c-only"])
    def test_matches_the_generator_form(self, rule):
        """Running and suffix maxima pick the cuts of the all-pairs form on
        random fleets of 1 to 12 devices (one device: no other arrival)."""
        settings = SolverSettings(p3_layer_rule=rule)
        rng = np.random.default_rng(44)
        for k in range(1, 13):
            for _ in range(4):
                net = random_network(rng, devices=k)
                table = CutTable(net)
                cuts = tuple(int(rng.integers(0, len(b))) for b in table.bits)
                bw = rng.dirichlet(np.ones(k)) * net.total_bandwidth_hz
                assert (_reselect_serial(table, cuts, bw, settings)
                        == reselect_by_generator(table, cuts, bw, settings))


class TestSimultaneousArrival:
    def test_single_device_minimizes_own_total(self):
        net = toy_network(np.random.default_rng(24), devices=1)
        plan = solve_p3(net)
        table = CutTable(net)
        from splitplan.channel import achievable_rate
        rate = achievable_rate(net.total_bandwidth_hz, net.devices[0].link)
        totals = [table.local_s[0][l] + table.bits[0][l] / rate
                  + table.resid[0][l] / net.server_flops for l in range(5)]
        assert plan.objective == pytest.approx(min(totals), rel=1e-6)

    def test_identical_devices_arrive_together(self):
        prof_net = toy_network(np.random.default_rng(25), devices=1)
        dev = prof_net.devices[0]
        net = NetworkInstance((dev, dev, dev), server_flops=5e7,
                              total_bandwidth_hz=1.5e5)
        plan = solve_p3(net)
        assert len(set(plan.cuts)) == 1
        arr = np.array(plan.arrivals)
        assert (arr.max() - arr.min()) / arr.max() <= 1e-6
        assert np.allclose(plan.bandwidth_hz, 5e4, rtol=1e-6)

    def test_close_to_grid_oracle(self):
        rng = np.random.default_rng(26)
        for _ in range(3):
            net = oracle_benchmark_network(rng)
            plan = solve_p3(net)
            best = oracle_serial(net, GridSpec())
            assert abs(plan.objective - best.objective) <= 0.01 * best.objective

    def test_arrival_only_layer_rule_variant(self):
        rng = np.random.default_rng(27)
        net = toy_network(rng, devices=3)
        full = solve_p3(net, SolverSettings())
        conly = solve_p3(net, SolverSettings(p3_layer_rule="c-only"))
        # the variant picks payload-light cuts; both must stay valid plans
        assert conly.objective > 0
        assert sum(conly.bandwidth_hz) == pytest.approx(net.total_bandwidth_hz,
                                                        rel=1e-12)
        assert full.objective <= conly.objective * (1 + 0.25)


class TestQueueHeuristic:
    def test_tracks_best_and_conserves_bandwidth(self):
        rng = np.random.default_rng(28)
        for _ in range(10):
            net = random_network(rng, devices=6)
            plan = queue_heuristic(net)
            assert sum(plan.bandwidth_hz) == pytest.approx(net.total_bandwidth_hz,
                                                           rel=1e-12)
            hist = plan.objective_history
            assert all(b <= a * (1 + 1e-12) for a, b in zip(hist, hist[1:]))

    def test_unbroken_queue_skips_reallocation(self):
        # identical devices arrive together: no gaps, plan equals equal split
        dev_net = toy_network(np.random.default_rng(29), devices=1)
        dev = dev_net.devices[0]
        net = NetworkInstance((dev, dev, dev, dev), server_flops=1e8,
                              total_bandwidth_hz=2e5)
        plan = queue_heuristic(net)
        assert np.allclose(plan.bandwidth_hz, 5e4, rtol=1e-12)

    def test_close_to_grid_oracle(self):
        rng = np.random.default_rng(30)
        for _ in range(3):
            net = oracle_benchmark_network(rng)
            plan = queue_heuristic(net)
            best = oracle_serial(net, GridSpec())
            assert plan.objective <= best.objective * 1.05

    def test_strict_gap_mode_not_worse(self):
        rng = np.random.default_rng(31)
        for _ in range(8):
            net = random_network(rng, devices=8)
            loose = queue_heuristic(net, SolverSettings())
            strict = queue_heuristic(net, SolverSettings(strict_breaks=True))
            assert strict.objective <= loose.objective * (1 + 1e-9)

    def test_explicit_iteration_override(self):
        rng = np.random.default_rng(32)
        net = random_network(rng, devices=5)
        one = queue_heuristic(net, SolverSettings(outer_iters=1))
        four = queue_heuristic(net, SolverSettings(outer_iters=4))
        assert four.objective <= one.objective * (1 + 1e-12)
        assert one.iterations == 1 and four.iterations == 4


class TestQueueFirstLayer:
    def test_goes_raw_with_full_residual(self):
        rng = np.random.default_rng(33)
        net = random_network(rng, devices=3)
        plan = queue_first_layer_policy(net)
        assert plan.cuts == (0, 0, 0)
        for dev, res in zip(net.devices, plan.residuals):
            assert res == dev.profile.total_workload

    def test_single_device_total(self):
        net = toy_network(np.random.default_rng(34), devices=1)
        plan = queue_first_layer_policy(net)
        from splitplan.channel import achievable_rate
        rate = achievable_rate(net.total_bandwidth_hz, net.devices[0].link)
        raw = net.devices[0].profile.transmit_bits[0]
        expect = raw / rate + net.devices[0].profile.total_workload / net.server_flops
        assert plan.objective == pytest.approx(expect, rel=1e-6)

    def test_not_better_than_heuristic_on_average(self):
        rng = np.random.default_rng(35)
        gaps = []
        for _ in range(10):
            net = random_network(rng, devices=5)
            gaps.append(queue_first_layer_policy(net).objective
                        - queue_heuristic(net).objective)
        assert np.mean(gaps) > 0

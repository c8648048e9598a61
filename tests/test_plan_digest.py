"""The objective comparison helpers of ``tests/plan_digest.py``."""

import math

import pytest

from plan_digest import largest_rel_diff, largest_rel_moves


def test_rise_and_fall_are_signed_and_relative():
    before = [2.0, 4.0, 8.0, 1.0]
    after = [2.0 * (1 + 1e-10), 4.0 * (1 - 3e-10), 8.0, 1.0 * (1 - 1e-10)]
    rise, fall = largest_rel_moves(before, after)
    assert rise == pytest.approx(1e-10, rel=1e-6)
    assert fall == pytest.approx(3e-10, rel=1e-6)
    assert largest_rel_diff(before, after) == fall


def test_unmoved_objectives_read_zero_both_ways():
    assert largest_rel_moves([1.5, 2.5], [1.5, 2.5]) == (0.0, 0.0)
    assert largest_rel_moves([1.5, 2.5], [1.0, 2.0])[0] == 0.0
    assert largest_rel_moves([1.5, 2.5], [2.0, 3.0])[1] == 0.0


@pytest.mark.parametrize("before, after", [
    ([1.0, 2.0], [1.0]),
    ([1.0, "Infeasible"], [1.0, 2.0]),
    ([1.0, "Infeasible"], [1.0, "NonConvergence"]),
])
def test_length_or_failure_mismatch_is_infinite(before, after):
    assert largest_rel_moves(before, after) == (math.inf, math.inf)
    assert largest_rel_diff(before, after) == math.inf


def test_same_failure_on_both_sides_is_no_move():
    assert largest_rel_moves(["Infeasible", 3.0], ["Infeasible", 3.0]) == (0.0, 0.0)

"""Property tests of the convex resource step, drawn by hypothesis."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from conftest import assert_kkt, ragged_network, random_network  # noqa: E402
from splitplan import parallel  # noqa: E402

FLEETS = {"random": random_network, "ragged": ragged_network}


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(kind=st.sampled_from(sorted(FLEETS)), devices=st.integers(2, 9),
       seed=st.integers(0, 2**32 - 1))
def test_convex_step_meets_kkt_and_spends_both_budgets(kind, devices, seed):
    """On a random or ragged fleet at a random cut vector (all-local devices
    included), the step's plan passes the KKT certificate and spends the
    spectrum, and the server whenever some device has residual work, within
    1e-12 relative."""
    rng = np.random.default_rng(seed)
    net = FLEETS[kind](rng, devices=devices)
    cuts = tuple(int(rng.integers(0, dev.profile.num_cuts + 1)) for dev in net.devices)
    view = parallel.CutTable(net).view(cuts)
    bandwidth, compute = net.total_bandwidth_hz, net.server_flops
    obj, bw, f = parallel.resource_subproblem(view, bandwidth, compute)
    assert_kkt(view, obj, f, compute)
    assert abs(bw.sum() - bandwidth) <= 1e-12 * bandwidth
    if (view.resid > 0).any():
        assert abs(f.sum() - compute) <= 1e-12 * compute

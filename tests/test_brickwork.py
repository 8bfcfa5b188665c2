import numpy as np
import pytest

from cmpslab.brickwork import brickwork_scan, brickwork_trajectory
from cmpslab.kernels import Rng


def test_initial_point_is_product_state():
    rec = brickwork_trajectory(4, 2, 3, Rng(1))
    d = 16
    # |0...0>: m_n = d / d^n exactly
    assert rec.m2[0] == pytest.approx(1 / d, abs=1e-12)
    assert rec.m3[0] == pytest.approx(1 / d**2, abs=1e-12)
    assert rec.max_entropy[0] == 0.0


def test_entropy_capped_by_log_chi():
    rec = brickwork_trajectory(6, 4, 10, Rng(2))
    assert max(rec.max_entropy) <= np.log(4) + 1e-9


def test_trajectory_reproducible():
    a = brickwork_trajectory(4, 2, 5, Rng(3))
    b = brickwork_trajectory(4, 2, 5, Rng(3))
    assert a.m2 == b.m2 and a.max_entropy == b.max_entropy


def test_scan_shapes_and_worker_determinism():
    rows1, plat1 = brickwork_scan(4, [2], 4, 6, Rng(4), workers=1)
    rows2, plat2 = brickwork_scan(4, [2], 4, 6, Rng(4), workers=3)
    assert rows1 == rows2 and plat1 == plat2
    assert len(rows1) == 2 * 5  # (n=2,3) x (steps+1)
    assert {r["n"] for r in rows1} == {2, 3}
    assert plat1[0]["chi"] == 2


def test_delta_decreases_with_chi():
    _, plat = brickwork_scan(6, [2, 4], 10, 12, Rng(5))
    assert plat[1]["delta2_plateau"] < plat[0]["delta2_plateau"]


def test_one_spectrum_per_step_keeps_the_bits():
    from cmpslab.brickwork import brickwork_layer
    from cmpslab.dense import exact_sre
    from cmpslab.mps import MpsState

    rec = brickwork_trajectory(6, 4, 5, Rng(7))
    rng = Rng(7)
    state = MpsState.product_state([(1.0, 0.0)] * 6)
    m2, m3 = [], []
    for t in range(6):
        if t:
            state, _ = brickwork_layer(state, 4, (t - 1) % 2, rng)
        psi = state.to_statevector()
        m2.append(exact_sre(psi, 2)[0])
        m3.append(exact_sre(psi, 3)[0])
    assert rec.m2 == m2 and rec.m3 == m3

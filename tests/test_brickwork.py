import numpy as np
import pytest

from cmpslab.brickwork import brickwork_layer, brickwork_scan, brickwork_trajectory
from cmpslab.kernels import Rng, haar_unitary
from cmpslab.mps import MpsState, entanglement_profile
from test_mps import _apply_two_qubit_gate_ref, _assert_right_normal


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


def test_discarded_weight_per_step():
    exact = brickwork_trajectory(6, 8, 6, Rng(8))
    assert exact.discarded == [0.0] * 7
    capped = brickwork_trajectory(6, 2, 6, Rng(8))
    assert len(capped.discarded) == 7 and capped.discarded[0] == 0.0
    assert min(capped.discarded) >= 0.0 and max(capped.discarded) > 0.0


@pytest.mark.parametrize("trajectories", [0, 1])
def test_scan_rejects_fewer_than_two_trajectories(trajectories):
    with pytest.raises(ValueError, match="at least 2 trajectories"):
        brickwork_scan(4, [2], 2, trajectories, Rng(9))


def test_layers_match_per_gate_full_renormalization():
    # 8 alternating capped layers with no read in between, against the
    # reference gate that re-normalizes the whole state after every gate
    n, chi = 12, 4
    state = MpsState.product_state([(1.0, 0.0)] * n)
    ref = list(state.tensors)
    rng, ref_rng = Rng(10), Rng(10)
    got, want = [], []
    for t in range(8):
        state, disc = brickwork_layer(state, chi, t % 2, rng)
        ref_disc = 0.0
        for a in range(t % 2, n - 1, 2):
            ref, w = _apply_two_qubit_gate_ref(ref, haar_unitary(4, ref_rng), a, chi)
            ref_disc += w
        got.append((state, disc))
        want.append((MpsState(ref), ref_disc))
    assert max(disc for _, disc in want) > 0
    for (st, disc), (ref_st, ref_disc) in zip(got, want):
        assert abs(disc - ref_disc) < 1e-12
        assert np.max(np.abs(st.to_statevector() - ref_st.to_statevector())) < 1e-12
        ents = entanglement_profile(st).entropies
        assert np.max(np.abs(np.subtract(ents, entanglement_profile(ref_st).entropies))) < 1e-12
        _assert_right_normal(st)


@pytest.mark.parametrize("n", [32, 64])
def test_layer_costs_linear_factorizations(monkeypatch, n):
    # the full re-normalization makes N(N-2)/2 QRs per layer; the centre
    # route at most 4N, Haar draws included, also when the centre starts at
    # the far end of the chain
    calls = []
    qr = np.linalg.qr

    def counted(*args, **kwargs):
        calls.append(1)
        return qr(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "qr", counted)
    state = MpsState.product_state([(1.0, 0.0)] * n)
    rng = Rng(11)
    for t in range(4):
        calls.clear()
        state, _ = brickwork_layer(state, 16, t % 2, rng)
        assert len(calls) <= 4 * n

import numpy as np
import pytest

from cmpslab.kernels import Rng, haar_unitary, indexed_map, svd_truncate


def test_rng_reproducible():
    a = Rng(7).normal(size=5)
    b = Rng(7).normal(size=5)
    assert np.array_equal(a, b)


def test_rng_children_independent_and_stable():
    r = Rng(7)
    c0 = r.child(0).normal(size=4)
    c1 = r.child(1).normal(size=4)
    assert not np.array_equal(c0, c1)
    # re-derived child streams are identical
    assert np.array_equal(c0, Rng(7).child(0).normal(size=4))


def test_haar_unitary_is_unitary():
    for dim in (2, 3, 8):
        u = haar_unitary(dim, Rng(1))
        assert np.allclose(u @ u.conj().T, np.eye(dim), atol=1e-12)


def test_haar_unitary_phase_distribution():
    # first-column entries should not prefer the real axis (QR phase fix)
    rng = Rng(2)
    angles = []
    for _ in range(200):
        u = haar_unitary(2, rng)
        angles.append(np.angle(u[1, 0]))
    # crude uniformity check on the circle
    assert abs(np.mean(np.exp(1j * np.array(angles)))) < 0.2


def test_svd_truncate_exact_when_under_cap():
    rng = Rng(3)
    m = rng.normal(size=(6, 4)) + 1j * rng.normal(size=(6, 4))
    u, s, vh, disc = svd_truncate(m, 10)
    assert disc == 0.0
    assert np.allclose((u * s) @ vh, m, atol=1e-12)


def test_svd_truncate_discarded_weight():
    rng = Rng(4)
    m = rng.normal(size=(8, 8))
    u, s, vh, disc = svd_truncate(m, 3)
    full_s = np.linalg.svd(m, compute_uv=False)
    assert len(s) == 3
    assert disc == pytest.approx(np.sum(full_s[3:] ** 2), rel=1e-12)


def test_indexed_map_keeps_index_order():
    def draw(i):
        return Rng(3).child(i).normal()

    serial = indexed_map(draw, 7)
    assert serial == [draw(i) for i in range(7)]
    assert indexed_map(draw, 7, workers=3) == serial
    assert indexed_map(draw, 0, workers=2) == []

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmpslab.paulis import (
    PauliString,
    apply_to_statevector,
    hermitian_pauli_from_index,
)

_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def dense_of(p):
    """Independent oracle: kron product of i^phase X^x Z^z factors."""
    m = np.array([[1]], dtype=complex)
    for x, z in p.sites():
        f = np.eye(2, dtype=complex)
        if x:
            f = _X @ f
        if z:
            f = f @ _Z
        m = np.kron(m, f)
    return (1j) ** int(p.phase_pow) * m


bits = st.lists(st.integers(0, 1), min_size=1, max_size=4)


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_product_matches_dense(data):
    n = data.draw(st.integers(1, 3))
    draw_bits = lambda: data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    a = PauliString.hermitian(draw_bits(), draw_bits())
    b = PauliString.hermitian(draw_bits(), draw_bits())
    assert np.allclose(dense_of(a * b), dense_of(a) @ dense_of(b), atol=1e-12)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_hermitian_construction(data):
    n = data.draw(st.integers(1, 4))
    x = data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    z = data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    p = PauliString.hermitian(x, z)
    m = dense_of(p)
    assert p.is_hermitian
    assert np.allclose(m, m.conj().T, atol=1e-12)
    assert np.allclose(m @ m, np.eye(len(m)), atol=1e-12)


def test_apply_to_statevector_matches_matrix():
    rng = np.random.default_rng(0)
    for _ in range(10):
        n = 3
        psi = rng.normal(size=8) + 1j * rng.normal(size=8)
        p = hermitian_pauli_from_index(n, int(rng.integers(8)), int(rng.integers(8)))
        assert np.allclose(apply_to_statevector(p, psi), dense_of(p) @ psi, atol=1e-12)


@pytest.mark.parametrize("n,x,z", [(1, 2, 0), (2, 0, 4), (3, 8, 8), (2, -1, 0)])
def test_masks_must_fit_the_sites(n, x, z):
    with pytest.raises(ValueError):
        PauliString(n, x, z)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_bit_and_mask_constructors_agree(data):
    n = data.draw(st.integers(1, 5))
    x, z = (data.draw(st.integers(0, (1 << n) - 1)) for _ in range(2))
    bits = [[(m >> (n - 1 - j)) & 1 for j in range(n)] for m in (x, z)]  # site 0 first
    assert PauliString.hermitian(*bits) == hermitian_pauli_from_index(n, x, z)

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from cmpslab.paulis import (
    PauliString,
    all_hermitian_paulis,
    apply_to_statevector,
    hermitian_pauli_from_index,
)

_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def dense_of(p):
    """Independent oracle: kron product of i^phase X^x Z^z factors."""
    m = np.array([[1]], dtype=complex)
    for x, z in zip(p.x, p.z):
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


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_commutation_predicate(data):
    n = data.draw(st.integers(1, 3))
    draw_bits = lambda: data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    a = PauliString.hermitian(draw_bits(), draw_bits())
    b = PauliString.hermitian(draw_bits(), draw_bits())
    comm = dense_of(a) @ dense_of(b) - dense_of(b) @ dense_of(a)
    assert a.commutes_with(b) == np.allclose(comm, 0, atol=1e-12)


def test_apply_to_statevector_matches_matrix():
    rng = np.random.default_rng(0)
    for _ in range(10):
        n = 3
        psi = rng.normal(size=8) + 1j * rng.normal(size=8)
        p = hermitian_pauli_from_index(n, int(rng.integers(8)), int(rng.integers(8)))
        assert np.allclose(apply_to_statevector(p, psi), dense_of(p) @ psi, atol=1e-12)


def test_all_hermitian_paulis_count_and_identity_first():
    ps = list(all_hermitian_paulis(2))
    assert len(ps) == 16
    assert np.allclose(dense_of(ps[0]), np.eye(4))
    assert len({(tuple(p.x), tuple(p.z)) for p in ps}) == 16


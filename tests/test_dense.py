import numpy as np
import pytest

from cmpslab.dense import (
    apply_gate,
    build_q_and_psym,
    clifford_4fold_coefficients,
    clifford_channel_4fold,
    entanglement_entropy,
    exact_sre,
    haar_state,
    pauli_expectation_dense,
    pauli_spectrum,
    permutation_operator,
    purity,
    zero_state,
)
from cmpslab.kernels import Rng
from cmpslab.paulis import all_hermitian_paulis
from cmpslab.tableau import random_clifford, tableau_to_dense


def test_pauli_spectrum_matches_brute_force():
    rng = Rng(1)
    psi = haar_state(3, rng)
    spec = pauli_spectrum(psi)
    brute = np.array([pauli_expectation_dense(psi, p) for p in all_hermitian_paulis(3)])
    assert np.allclose(np.sort(spec.ravel()), np.sort(brute), atol=1e-10)


def test_t_state_magic():
    # |T> = T H |0>: M_2 = log(4/3)
    t = np.diag([1, np.exp(1j * np.pi / 4)])
    h = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    psi = t @ h @ zero_state(1)
    m2, big_m2 = exact_sre(psi, 2)
    assert big_m2 == pytest.approx(np.log(4 / 3), abs=1e-12)


def test_stabilizer_state_magic_zero():
    rng = Rng(2)
    for n in (2, 4):
        psi = tableau_to_dense(random_clifford(n, rng))[:, 0]
        assert exact_sre(psi, 2)[1] < 1e-12
        assert exact_sre(psi, 3)[1] < 1e-12


def test_haar_m2_against_closed_form():
    from cmpslab.replica import haar_magic_closed_form

    rng = Rng(3)
    d = 8
    vals = np.array([exact_sre(haar_state(3, rng.child(i)), 2)[0] for i in range(2000)])
    mean, se = np.mean(vals), np.std(vals, ddof=1) / np.sqrt(len(vals))
    assert abs(mean - haar_magic_closed_form(d, 2)) < 4 * se


def test_apply_gate_matches_kron():
    rng = Rng(4)
    psi = haar_state(3, rng)
    g = np.kron(np.diag([1, 1j]), np.eye(1))  # S on qubit 1
    got = apply_gate(psi, np.diag([1, 1j]), (1,))
    want = np.kron(np.kron(np.eye(2), np.diag([1, 1j])), np.eye(2)) @ psi
    assert np.allclose(got, want, atol=1e-12)


def test_purity_and_entropy_bell():
    bell = np.zeros(4, dtype=complex)
    bell[0] = bell[3] = 1 / np.sqrt(2)
    assert purity(bell, 1) == pytest.approx(0.5, abs=1e-12)
    assert entanglement_entropy(bell, 1) == pytest.approx(np.log(2), abs=1e-12)


def test_permutation_operator_cycle():
    d, k = 2, 3
    op = permutation_operator(d, k, (1, 2, 0))
    psi = [np.array([1.0, 0]), np.array([0, 1.0]), np.array([1, 1]) / np.sqrt(2)]
    prod = np.kron(np.kron(psi[0], psi[1]), psi[2])
    permuted = op @ prod
    # replica r of output carries input replica perm[r]
    want = np.kron(np.kron(psi[1], psi[2]), psi[0])
    assert np.allclose(permuted, want, atol=1e-12) or np.allclose(
        permuted, np.kron(np.kron(psi[2], psi[0]), psi[1]), atol=1e-12
    )


def test_clifford_channel_exact_n1():
    rng = Rng(5)
    for psi in [zero_state(1)] + [haar_state(1, rng.child(i)) for i in range(2)]:
        avg = clifford_channel_4fold(psi)
        q, psym = build_q_and_psym(1)
        alpha, beta = clifford_4fold_coefficients(2, exact_sre(psi, 2)[0])
        pred = alpha * (q @ psym) + beta * psym
        assert np.max(np.abs(avg - pred)) < 1e-12


def test_shared_tables_are_read_only():
    from cmpslab.dense import _xor_and_phase, dense_clifford_group

    for table in (*_xor_and_phase(4), dense_clifford_group(1)):
        with pytest.raises(ValueError):
            table[0, 0] = 0

"""Dense 2^N statevector oracle: exact ground truth for the whole package.

Exact stabilizer Renyi entropies are computed for *all* 4^N Hermitian Pauli
strings at once with a Walsh-Hadamard transform: for fixed X-mask x, the
Z-mask sweep of <psi| i^{x.z} X^x Z^z |psi> is a Hadamard transform of the
correlator vector psi*_s psi_{s xor x}. `pauli_spectrum` applies it for all
x at once as one dense (2^N x 2^N) @ (2^N x 2^N) Hadamard matmul, so the
full Pauli spectrum costs O(8^N), not the O(4^N N) of a butterfly transform.
"""

from __future__ import annotations

import functools

import numpy as np
import scipy.linalg

from .paulis import PauliString, apply_to_statevector
from .tableau import enumerate_clifford_group, tableau_to_dense

MAX_DENSE_QUBITS = 12
MAX_SRE_QUBITS = 10


def num_qubits(psi):
    d = len(psi)
    n = d.bit_length() - 1
    if 1 << n != d:
        raise ValueError("state length is not a power of two")
    return n


def haar_state(n, rng):
    """Haar-random pure state (normalized complex Gaussian vector)."""
    if n > MAX_DENSE_QUBITS:
        raise ValueError(f"dense simulation limited to N <= {MAX_DENSE_QUBITS}")
    g = rng.gen
    v = g.normal(size=1 << n) + 1j * g.normal(size=1 << n)
    return v / np.linalg.norm(v)


def zero_state(n):
    v = np.zeros(1 << n, dtype=complex)
    v[0] = 1.0
    return v


def apply_gate(psi, gate, sites):
    """Apply a 2^k x 2^k gate on the given sites (site 0 = most significant)."""
    n = num_qubits(psi)
    k = len(sites)
    t = psi.reshape((2,) * n)
    gt = np.asarray(gate).reshape((2,) * (2 * k))
    t = np.tensordot(gt, t, axes=(list(range(k, 2 * k)), list(sites)))
    t = np.moveaxis(t, list(range(k)), list(sites))
    return np.ascontiguousarray(t).reshape(-1)


def pauli_expectation_dense(psi, p):
    """<psi| p |psi> for a single PauliString."""
    return complex(np.vdot(psi, apply_to_statevector(p, psi)))


@functools.cache
def _xor_and_phase(d):
    """Read-only (s ^ x) index table and phase table (-i)^{|x&z|} for 2^N = d."""
    idx = np.arange(d)
    xor = idx[:, None] ^ idx[None, :]
    phase = (-1j) ** (np.bitwise_count(idx[:, None] & idx[None, :]) % 4)
    xor.flags.writeable = phase.flags.writeable = False
    return xor, phase


def pauli_spectrum(psi):
    """All 4^N Hermitian Pauli expectations as a (2^N, 2^N) real array.

    Entry [xmask, zmask] is <psi| i^{|x&z|} X^x Z^z |psi> with site 0 on the
    most significant bit of the masks.
    """
    n = num_qubits(psi)
    if n > MAX_SRE_QUBITS:
        raise ValueError(f"full Pauli enumeration limited to N <= {MAX_SRE_QUBITS}")
    d = 1 << n
    xor, phase = _xor_and_phase(d)
    v = psi.conj()[None, :] * psi[xor]          # v[x, s] = psi*_s psi_{s^x}
    h = scipy.linalg.hadamard(d).astype(float)  # h[s, z] = (-1)^{|s&z|}
    r = v @ h
    e = r * phase
    resid = float(np.max(np.abs(e.imag)))
    if resid > 1e-8:
        raise FloatingPointError(f"Pauli spectrum imaginary residue {resid:.2e}")
    return e.real


def exact_sre(psi, n_index):
    """(m_n, M_n): linearized magic and stabilizer Renyi entropy, exact.

    m_n = d^{-n} sum_sigma <sigma>^{2n} over all Hermitian Pauli strings,
    M_n = log(m_n)/(1-n) - log d.
    """
    return sre_from_spectrum(pauli_spectrum(psi), n_index)


def sre_from_spectrum(spectrum, n_index):
    """(m_n, M_n) of `exact_sre` from a ready `pauli_spectrum`, so that one
    spectrum serves several Renyi indices."""
    if n_index < 2:
        raise ValueError("Renyi index must be >= 2")
    d = len(spectrum)
    m_n = float(np.sum(spectrum ** (2 * n_index))) / d**n_index
    big_m = np.log(m_n) / (1 - n_index) - np.log(d)
    return m_n, big_m


def purity(psi, subset_size=None):
    """Tr[rho_A^2] for A = the first `subset_size` qubits (default N/2)."""
    n = num_qubits(psi)
    if subset_size is None:
        subset_size = n // 2
    m = psi.reshape(1 << subset_size, -1)
    s = np.linalg.svd(m, compute_uv=False)
    return float(np.sum(s**4))


def entanglement_entropy(psi, cut):
    """Von Neumann entropy (nats) of qubits [0, cut) vs the rest."""
    m = psi.reshape(1 << cut, -1)
    s = np.linalg.svd(m, compute_uv=False)
    p = s**2
    p = p[p > 1e-15]
    return float(-np.sum(p * np.log(p)))


@functools.cache
def dense_clifford_group(n):
    """Dense unitaries of the full 1- or 2-qubit Clifford group, as one
    read-only stacked array built once per n."""
    group = np.stack([tableau_to_dense(t) for t in enumerate_clifford_group(n)])
    group.flags.writeable = False
    return group


def permutation_operator(d, k, perm):
    """Unitary permuting the k replica factors of (C^d)^{(x)k}."""
    dk = d**k
    cols = np.arange(dk)
    digits = np.empty((k, dk), dtype=np.int64)
    rest = cols.copy()
    for a in range(k - 1, -1, -1):
        digits[a] = rest % d
        rest //= d
    # column i -> row j with j_{perm(a)} = i_a
    rows = np.zeros(dk, dtype=np.int64)
    for a in range(k):
        rows += digits[a] * d ** (k - 1 - perm[a])
    op = np.zeros((dk, dk))
    op[rows, cols] = 1.0
    return op


def build_q_and_psym(n):
    """(Q, P_symm) on 4 replicas of N <= 2 qubits.

    Q = d^{-2} sum_sigma sigma^{(x)4} over bare Hermitian Pauli strings;
    P_symm is the symmetric-subspace projector.
    """
    if n > 2:
        raise ValueError("replica operators materialized only for N <= 2")
    from itertools import permutations

    d = 1 << n
    dk = d**4
    p_symm = np.zeros((dk, dk))
    perms = list(permutations(range(4)))
    for perm in perms:
        p_symm += permutation_operator(d, 4, perm)
    p_symm /= len(perms)
    q = np.zeros((dk, dk), dtype=complex)
    for xb in range(d):
        for zb in range(d):
            x = [(xb >> (n - 1 - j)) & 1 for j in range(n)]
            z = [(zb >> (n - 1 - j)) & 1 for j in range(n)]
            sig = PauliString.hermitian(x, z).to_dense()
            s2 = np.kron(sig, sig)
            q += np.kron(s2, s2)
    q /= d**2
    return q, p_symm


def clifford_4fold_coefficients(d, pi_norm2):
    """(alpha, beta) of the 4-fold Clifford channel.

    The channel average is alpha * Q P_symm + beta * P_symm, where pi_norm2
    is the 2-norm squared of the characteristic distribution, i.e. m_2.
    """
    denom = (d**2 - 1) * (d + 2) * (d + 4)
    alpha = (6 * d * (d + 3) * pi_norm2 - 24) / denom
    beta = 24 * (1 - pi_norm2) / denom
    return alpha, beta


def clifford_channel_4fold(psi):
    """E[(U^dag |psi><psi| U)^{(x)4}] over the whole Clifford group (N <= 2)."""
    n = num_qubits(psi)
    if n > 2:
        raise ValueError("exact group average limited to N <= 2")
    us = dense_clifford_group(n)
    v = np.einsum("gji,j->gi", us.conj(), psi)  # U^dag psi
    v2 = np.einsum("ga,gb->gab", v, v).reshape(len(us), -1)
    w = np.einsum("ga,gb->gab", v2, v2).reshape(len(us), -1)
    return (w.conj().T @ w) / len(us)

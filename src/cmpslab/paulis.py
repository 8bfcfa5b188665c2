"""Pauli-string algebra with bit-pair encoding and exact phase tracking.

Convention (documented once, asserted by the dense oracle tests): a string
with bit vectors (x, z) and phase exponent p represents the operator

    i^p * (X^{x_1} Z^{z_1}) (x) ... (x) (X^{x_N} Z^{z_N})

Site j = 0 is the leftmost tensor factor (most significant qubit of the
computational-basis index). The Hermitian representative of a bare (x, z)
word carries p = (x . z) mod 4, so the single-site Hermitian operators are
I, X, Y = i XZ, Z.
"""

from __future__ import annotations

import numpy as np

_I = np.eye(2, dtype=complex)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)

PHASES = (1.0 + 0j, 1j, -1.0 + 0j, -1j)


class PauliString:
    """An N-site Pauli word i^phase_pow * prod_j X^{x_j} Z^{z_j}."""

    __slots__ = ("n", "x", "z", "phase_pow")

    def __init__(self, x, z, phase_pow=0):
        self.x = np.asarray(x, dtype=np.uint8) % 2
        self.z = np.asarray(z, dtype=np.uint8) % 2
        if self.x.shape != self.z.shape or self.x.ndim != 1:
            raise ValueError("x and z must be equal-length bit vectors")
        self.n = len(self.x)
        self.phase_pow = int(phase_pow) % 4

    @classmethod
    def identity(cls, n):
        return cls(np.zeros(n, dtype=np.uint8), np.zeros(n, dtype=np.uint8))

    @classmethod
    def hermitian(cls, x, z):
        """The Hermitian string for bit vectors (x, z): i^{x.z} X^x Z^z."""
        x = np.asarray(x, dtype=np.uint8) % 2
        z = np.asarray(z, dtype=np.uint8) % 2
        return cls(x, z, int(np.dot(x.astype(int), z.astype(int))) % 4)

    @property
    def phase(self):
        return PHASES[self.phase_pow]

    @property
    def is_hermitian(self):
        return (self.phase_pow - int(np.dot(self.x.astype(int), self.z.astype(int)))) % 4 in (0, 2)

    def __mul__(self, other):
        if self.n != other.n:
            raise ValueError("length mismatch")
        # Z^{z1} X^{x2} = (-1)^{z1.x2} X^{x2} Z^{z1}
        swap = int(np.dot(self.z.astype(int), other.x.astype(int)))
        p = (self.phase_pow + other.phase_pow + 2 * swap) % 4
        return PauliString(self.x ^ other.x, self.z ^ other.z, p)

    def __eq__(self, other):
        return (
            self.n == other.n
            and self.phase_pow == other.phase_pow
            and np.array_equal(self.x, other.x)
            and np.array_equal(self.z, other.z)
        )

    def __hash__(self):
        return hash((self.x.tobytes(), self.z.tobytes(), self.phase_pow))

    def commutes_with(self, other):
        sym = int(np.dot(self.x.astype(int), other.z.astype(int))
                  + np.dot(self.z.astype(int), other.x.astype(int)))
        return sym % 2 == 0

    def to_dense(self):
        """Dense 2^N x 2^N matrix. Keep N small."""
        if self.n > 12:
            raise ValueError("dense Pauli limited to N <= 12")
        m = np.ones((1, 1), dtype=complex)
        for xj, zj in zip(self.x, self.z):
            site = _X if xj else _I
            site = site @ _Z if zj else site
            m = np.kron(m, site)
        return self.phase * m

    def __repr__(self):
        letters = {(0, 0): "I", (1, 0): "X", (0, 1): "Z", (1, 1): "XZ"}
        body = ".".join(letters[(int(a), int(b))] for a, b in zip(self.x, self.z))
        return f"i^{self.phase_pow}*{body}"


def hermitian_pauli_from_index(n, x_bits, z_bits):
    """Hermitian Pauli from integer bit masks (bit j = site j)."""
    x = np.array([(x_bits >> j) & 1 for j in range(n)], dtype=np.uint8)
    z = np.array([(z_bits >> j) & 1 for j in range(n)], dtype=np.uint8)
    return PauliString.hermitian(x, z)


def masks(p):
    """Integer (xmask, zmask) with site 0 on the most significant bit."""
    n = p.n
    xm = zm = 0
    for j in range(n):
        if p.x[j]:
            xm |= 1 << (n - 1 - j)
        if p.z[j]:
            zm |= 1 << (n - 1 - j)
    return xm, zm


def apply_to_statevector(p, vec):
    """p |vec> on a dense 2^N vector (site 0 = most significant bit)."""
    d = len(vec)
    if d != 1 << p.n:
        raise ValueError("state length mismatch")
    xm, zm = masks(p)
    src = np.arange(d) ^ xm
    sign = np.where(np.bitwise_count(src & zm) % 2, -1.0, 1.0)
    return p.phase * vec[src] * sign


def all_hermitian_paulis(n):
    """All 4^n Hermitian Pauli strings (identity first). Keep n small."""
    for xb in range(2**n):
        for zb in range(2**n):
            yield hermitian_pauli_from_index(n, xb, zb)

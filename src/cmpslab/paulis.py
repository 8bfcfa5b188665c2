"""Pauli-string algebra on integer bit masks with exact phase tracking.

Convention (documented once, asserted by the dense oracle tests): the string
PauliString(n, x, z, p), with integer masks 0 <= x, z < 2^n, represents

    i^p * (X^{x_0} Z^{z_0}) (x) ... (x) (X^{x_{N-1}} Z^{z_{N-1}})

where x_j is bit n-1-j of x: site j = 0 is the leftmost tensor factor and the
most significant bit of both the masks and the computational-basis index.
`dense.pauli_spectrum` and `tableau.tableaux_to_dense` index strings the same
way. The Hermitian representative of a bare (x, z) word carries
p = |x & z| mod 4, so the single-site Hermitian operators are I, X, Y = i XZ, Z.
"""

from __future__ import annotations

import numpy as np

_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)
SITE_OPS = {(0, 0): np.eye(2, dtype=complex), (1, 0): _X, (0, 1): _Z, (1, 1): _X @ _Z}  # X^x Z^z

PHASES = (1.0 + 0j, 1j, -1.0 + 0j, -1j)


def site_bits(n, mask):
    """The n bits of an integer mask, site 0 (the most significant bit) first."""
    return [(mask >> (n - 1 - j)) & 1 for j in range(n)]


class PauliString:
    """An N-site Pauli word i^phase_pow * X^x Z^z on integer masks x, z."""

    __slots__ = ("n", "x", "z", "phase_pow")

    def __init__(self, n, x, z, phase_pow=0):
        self.n, self.x, self.z = int(n), int(x), int(z)
        if not (0 <= self.x < 1 << self.n and 0 <= self.z < 1 << self.n):
            raise ValueError(f"masks x={self.x}, z={self.z} do not fit in {self.n} sites")
        self.phase_pow = int(phase_pow) % 4

    @classmethod
    def hermitian(cls, x, z):
        """The Hermitian string i^{x.z} X^x Z^z for bit sequences x, z, site 0 first."""
        if len(x) != len(z):
            raise ValueError("x and z must be equal-length bit vectors")
        n = len(x)
        masks = [sum((int(b) % 2) << (n - 1 - j) for j, b in enumerate(bits)) for bits in (x, z)]
        return hermitian_pauli_from_index(n, *masks)

    @property
    def phase(self):
        return PHASES[self.phase_pow]

    @property
    def sign_pow(self):
        """The power of i that takes the Hermitian string on the same word to
        this one: 0 or 2 exactly when this string is Hermitian."""
        return (self.phase_pow - (self.x & self.z).bit_count()) % 4

    @property
    def is_hermitian(self):
        return self.sign_pow % 2 == 0

    def __mul__(self, other):
        if self.n != other.n:
            raise ValueError("length mismatch")
        # Z^{z1} X^{x2} = (-1)^{z1.x2} X^{x2} Z^{z1}
        swap = (self.z & other.x).bit_count()
        return PauliString(self.n, self.x ^ other.x, self.z ^ other.z, self.phase_pow + other.phase_pow + 2 * swap)

    def __eq__(self, other):
        return (self.n, self.x, self.z, self.phase_pow) == (other.n, other.x, other.z, other.phase_pow)

    def __hash__(self):
        return hash((self.n, self.x, self.z, self.phase_pow))

    def sites(self):
        """The (x_j, z_j) bit pair of every site, site 0 first."""
        return list(zip(site_bits(self.n, self.x), site_bits(self.n, self.z)))

    def to_dense(self):
        """Dense 2^N x 2^N matrix. Keep N small."""
        if self.n > 12:
            raise ValueError("dense Pauli limited to N <= 12")
        m = np.ones((1, 1), dtype=complex)
        for site in self.sites():
            m = np.kron(m, SITE_OPS[site])
        return self.phase * m

    def __repr__(self):
        letters = {(0, 0): "I", (1, 0): "X", (0, 1): "Z", (1, 1): "XZ"}
        return f"i^{self.phase_pow}*" + ".".join(letters[s] for s in self.sites())


def hermitian_pauli_from_index(n, x, z):
    """The Hermitian string i^{|x&z|} X^x Z^z from integer masks (site 0 = most
    significant bit), the indexing of `dense.pauli_spectrum`."""
    return PauliString(n, x, z, (int(x) & int(z)).bit_count())


def apply_to_statevector(p, vec):
    """p |vec> on a dense 2^N vector (site 0 = most significant bit)."""
    d = len(vec)
    if d != 1 << p.n:
        raise ValueError("state length mismatch")
    src = np.arange(d) ^ p.x
    sign = np.where(np.bitwise_count(src & p.z) % 2, -1.0, 1.0)
    return p.phase * vec[src] * sign

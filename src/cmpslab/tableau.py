"""Clifford tableaux over the binary symplectic group, with sign tracking.

A tableau stores the conjugation action P -> U P U^dag on the 2N Pauli
generators: row i (i < N) is the image of X_i, row N+i the image of Z_i,
each as (x|z) bit vectors plus a sign bit (images are Hermitian Paulis,
so phases are always +/-1). The binary matrix is symplectic for the form
<a,b> = a_x.b_z + a_z.b_x (mod 2), exactly.
"""

from __future__ import annotations

import functools

import numpy as np

from .paulis import PHASES, PauliString, site_bits


class CliffordTableau:
    """Symplectic binary tableau + sign bits for an N-qubit Clifford."""

    __slots__ = ("n", "mat", "signs", "word")

    def __init__(self, n, mat, signs, word=None):
        self.n = n
        self.mat = np.asarray(mat, dtype=np.uint8) % 2
        self.signs = np.asarray(signs, dtype=np.uint8) % 2
        if self.mat.shape != (2 * n, 2 * n) or self.signs.shape != (2 * n,):
            raise ValueError("tableau shape mismatch")
        self.word = word  # optional generator word [(name, qubits), ...]

    @classmethod
    def identity(cls, n):
        return cls(n, np.eye(2 * n, dtype=np.uint8), np.zeros(2 * n, dtype=np.uint8), word=[])

    def key(self):
        return self.mat.tobytes() + self.signs.tobytes()

    def __eq__(self, other):
        return self.n == other.n and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def row_pauli(self, r):
        """Generator image r as a signed Hermitian PauliString."""
        p = PauliString.hermitian(self.mat[r, : self.n], self.mat[r, self.n :])
        return PauliString(self.n, p.x, p.z, p.phase_pow + 2 * int(self.signs[r]))

    def image_of(self, p):
        """Image U p U^dag of an arbitrary PauliString: i^phase_pow times the
        generator images multiplied left to right, X_0^{x_0} Z_0^{z_0} X_1^{x_1} ..."""
        if p.n != self.n:
            raise ValueError("qubit count mismatch")
        n = self.n
        out = PauliString(n, 0, 0, p.phase_pow)
        for j, (xj, zj) in enumerate(p.sites()):
            if xj:
                out = out * self.row_pauli(j)
            if zj:
                out = out * self.row_pauli(n + j)
        return out

    def compose(self, other):
        """Tableau of U_self . U_other (conjugation self(other(P))). No program
        path calls it: it is the reference the row-update rules are tested
        against."""
        if self.n != other.n:
            raise ValueError("qubit count mismatch")
        n = self.n
        mat = np.zeros((2 * n, 2 * n), dtype=np.uint8)
        signs = np.zeros(2 * n, dtype=np.uint8)
        for r in range(2 * n):
            img = self.image_of(other.row_pauli(r))
            if not img.is_hermitian:
                raise RuntimeError("non-Hermitian generator image")
            mat[r, :n] = site_bits(n, img.x)
            mat[r, n:] = site_bits(n, img.z)
            signs[r] = img.sign_pow // 2
        word = None
        if self.word is not None and other.word is not None:
            word = self.word + other.word
        return CliffordTableau(n, mat, signs, word=word)


def _conjugate_rows(mat, signs, name, qubits, n):
    """Conjugate every row of a batch of tableaux by a generator, in place.

    mat has shape (..., 2n, 2n), signs (..., 2n). The row-update rules of
    Aaronson and Gottesman (quant-ph/0406196), sign updates included.
    """
    x, z = mat[..., :n], mat[..., n:]
    if name == "H":
        (q,) = qubits
        signs ^= x[..., q] & z[..., q]
        x[..., q], z[..., q] = z[..., q].copy(), x[..., q].copy()
    elif name == "S":
        (q,) = qubits  # X -> Y, Z -> Z
        signs ^= x[..., q] & z[..., q]
        z[..., q] ^= x[..., q]
    elif name == "CNOT":
        c, t = qubits  # X_c -> X_c X_t, Z_t -> Z_c Z_t
        signs ^= x[..., c] & z[..., t] & (x[..., t] ^ z[..., c] ^ 1)
        x[..., t] ^= x[..., c]
        z[..., c] ^= z[..., t]
    else:
        raise ValueError(f"{name!r} is not a Clifford generator")


def random_clifford(n, rng):
    """Exactly uniform Clifford sample (symplectic pair construction + signs).

    Per round: v uniform over nonzero vectors of the residual space, w uniform
    over {w: <v,w> = 1}, then recurse on the symplectic complement of (v, w),
    re-paired by symplectic Gram-Schmidt. The round counts multiply to
    |Sp(2n, 2)|, so the output is exactly uniform. Each vector is a Python
    int of 2N bits, bit k holding tableau column k (x part low, z part
    high), so the form is one popcount.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    g = rng.gen

    def sympl(a, b):
        return ((a & (b >> n)) ^ ((a >> n) & b)).bit_count() & 1

    def project(vecs, a, b):
        """The nonzero parts of vecs in the symplectic complement of (a, b)."""
        out = []
        for u in vecs:
            u ^= a if sympl(u, b) else 0
            u ^= b if sympl(u, a) else 0
            if u:
                out.append(u)
        return out

    basis = [1 << i for i in range(2 * n)]
    x_rows, z_rows = [], []
    while basis:
        m2 = len(basis)
        c = g.integers(0, 2, size=m2, dtype=np.uint8)
        while not c.any():
            c = g.integers(0, 2, size=m2, dtype=np.uint8)
        v = 0
        for u, cj in zip(basis, c.tolist()):
            if cj:
                v ^= u
        f = [sympl(v, u) for u in basis]
        p = f.index(1)
        # w uniform over {<v,w> = 1}: pivot + random kernel combination,
        # kernel basis {basis_j + f_j basis_p : j != p}
        w = basis[p]
        t = g.integers(0, 2, size=m2, dtype=np.uint8)
        for j, (u, tj) in enumerate(zip(basis, t.tolist())):
            if j != p and tj:
                w ^= u ^ (basis[p] if f[j] else 0)
        x_rows.append(v)
        z_rows.append(w)
        # re-pair the complement of (v, w) by symplectic Gram-Schmidt; the form
        # is nondegenerate there, so the first vector always pairs with a later one
        cand = project(basis, v, w)
        a_rows, b_rows = [], []
        while cand:
            j = next(k for k, u in enumerate(cand) if sympl(cand[0], u))
            a_rows.append(cand[0])
            b_rows.append(cand[j])
            cand = project(cand[1:j] + cand[j + 1:], cand[0], cand[j])
        if len(a_rows) != m2 // 2 - 1:
            raise RuntimeError("symplectic complement extraction failed")
        basis = a_rows + b_rows
    mat = np.array([[r >> k & 1 for k in range(2 * n)] for r in x_rows + z_rows], dtype=np.uint8)
    signs = g.integers(0, 2, size=2 * n, dtype=np.uint8)
    return CliffordTableau(n, mat, signs)


@functools.cache
def enumerate_clifford_group(n):
    """All 24 (n=1) or 11520 (n=2) Cliffords mod global phase.

    Breadth-first closure under the generators H_q, S_q (and CNOT both ways
    for n=2), one level at a time: each generator conjugates the rows of the
    whole frontier at once, and a candidate joins the group at its first
    occurrence in (parent, generator) order. The order is therefore fixed:
    identity first, then by generator-word length. Each returned tableau
    carries its word in (H, S, CNOT), last-applied gate first.
    """
    if n not in (1, 2):
        raise ValueError("exhaustive enumeration supported for n in {1, 2}")
    gens = [("H", [q]) for q in range(n)] + [("S", [q]) for q in range(n)]
    if n == 2:
        gens += [("CNOT", [0, 1]), ("CNOT", [1, 0])]
    ident = CliffordTableau.identity(n)
    mats, signs = [ident.mat[None]], [ident.signs[None]]
    weights = 1 << np.arange(4 * n * n + 2 * n, dtype=np.int64)

    def keys(m, s):
        return np.concatenate([m.reshape(len(m), -1), s], axis=1).astype(np.int64) @ weights

    seen = keys(mats[0], signs[0])
    parent, gen = [-1], [-1]
    start = 0  # index of the frontier's first element
    while len(mats[-1]):
        front_m, front_s = mats[-1], signs[-1]
        cand_m = np.repeat(front_m[:, None], len(gens), axis=1)
        cand_s = np.repeat(front_s[:, None], len(gens), axis=1)
        for g, (name, qubits) in enumerate(gens):
            _conjugate_rows(cand_m[:, g], cand_s[:, g], name, qubits, n)
        cand_m = cand_m.reshape(-1, 2 * n, 2 * n)
        cand_s = cand_s.reshape(-1, 2 * n)
        k = keys(cand_m, cand_s)
        _, first = np.unique(k, return_index=True)
        first = np.sort(first)
        first = first[~np.isin(k[first], seen)]
        seen = np.concatenate([seen, k[first]])
        parent += (start + first // len(gens)).tolist()
        gen += (first % len(gens)).tolist()
        start += len(front_m)
        mats.append(cand_m[first])
        signs.append(cand_s[first])
    mat = np.concatenate(mats)
    sign = np.concatenate(signs)
    expected = {1: 24, 2: 11520}[n]
    if len(mat) != expected:
        raise RuntimeError(f"group closure found {len(mat)} elements, expected {expected}")
    words = [[]]
    for i in range(1, len(mat)):
        words.append([gens[gen[i]]] + words[parent[i]])
    return [CliffordTableau(n, mat[i], sign[i], word=words[i]) for i in range(len(mat))]


def tableaux_to_dense(mat, signs, out):
    """Dense unitaries of a batch of n-qubit tableaux, written into out.

    mat has shape (B, 2n, 2n), signs (B, 2n), out (B, 2^n, 2^n). Column 0 is
    U|0...0>, the state stabilized by the signed Z images: the first basis
    vector with a nonzero projection, normalized. Column b is the X image of
    the site of b's lowest set bit applied to column b ^ low(b), built one bit
    level at a time from the most significant down, one gather per level for
    every column of that level in the whole batch. The global phase makes the
    first nonzero entry of column 0 positive real.
    """
    bsz, n = len(mat), mat.shape[1] // 2
    d = 1 << n
    weights = 1 << np.arange(n - 1, -1, -1)  # site 0 = most significant bit
    masks = mat.reshape(bsz, 2 * n, 2, n) @ weights
    xm, zm = masks[:, :, 0], masks[:, :, 1]  # (B, 2n) x and z masks of each image
    phase = np.array(PHASES)[(2 * signs + np.bitwise_count(xm & zm)) % 4][:, :, None, None]
    src = np.arange(d) ^ xm[:, :, None]  # (B, 2n, d)
    sign = np.where(np.bitwise_count(src & zm[:, :, None]) % 2, -1.0, 1.0)[..., None]
    batch = np.arange(bsz)[:, None]

    def apply(r, vec):
        """Generator image r of each tableau on its columns vec (B, d, L),
        with the operations of apply_to_statevector."""
        return phase[:, r] * vec[batch, src[:, r]] * sign[:, r]

    found = np.zeros(bsz, dtype=bool)
    start = 0
    while not found.all():  # trial basis vectors in blocks of 8, 16, 32, ...
        if start == d:
            raise RuntimeError("failed to construct stabilizer state")
        trials = np.arange(start, min(d, 2 * start + 8))
        v = np.zeros((bsz, d, len(trials)), dtype=complex)
        v[:, trials, np.arange(len(trials))] = 1.0
        for i in range(n):
            v = 0.5 * (v + apply(n + i, v))
        nrm = np.sqrt(np.sum((v.conj() * v).real, axis=1))  # exact: dyadic entries
        hit = nrm > 1e-8
        new = hit.any(axis=1) & ~found
        first = np.argmax(hit, axis=1)[new]
        out[new, :, 0] = v[new, :, first] / nrm[new, first][:, None]  # out[:, :, b] is column b
        found |= new
        start = trials[-1] + 1
    for j in range(n):
        low = 1 << (n - 1 - j)
        out[:, :, low :: 2 * low] = apply(j, out[:, :, :: 2 * low])
    nz = np.argmax(np.abs(out[:, :, 0]) > 1e-12, axis=1)
    pivot = out[batch[:, 0], nz, 0]
    np.multiply(out, (np.abs(pivot) / pivot)[:, None, None], out=out)
    return out


def tableau_to_dense(t):
    """Dense unitary realizing the tableau, global phase fixed by making the
    first nonzero entry of column 0 positive real: the one-tableau case of
    tableaux_to_dense."""
    if t.n > 12:
        raise ValueError("dense conversion limited to N <= 12")
    d = 1 << t.n
    return tableaux_to_dense(t.mat[None], t.signs[None], np.empty((1, d, d), dtype=complex))[0]


def tableau_from_circuit(gates, n):
    """Tableau of a gate list (Clifford gates only, first-applied first): each
    gate conjugates the rows of the identity tableau in turn, by the rules of
    `_conjugate_rows`. The word lists the gates last-applied first."""
    t = CliffordTableau.identity(n)
    for name, qubits in gates:
        if name == "T":
            raise ValueError("T gate is not Clifford")
        _conjugate_rows(t.mat, t.signs, name, qubits, n)
        t.word.insert(0, (name, list(qubits)))
    return t

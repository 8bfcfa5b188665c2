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

    __slots__ = ("n", "mat", "signs")

    def __init__(self, n, mat, signs):
        """mat and signs hold 0/1 entries; uint8 arrays are kept as given."""
        self.n = n
        self.mat = np.asarray(mat, dtype=np.uint8)
        self.signs = np.asarray(signs, dtype=np.uint8)
        if self.mat.shape != (2 * n, 2 * n) or self.signs.shape != (2 * n,):
            raise ValueError("tableau shape mismatch")

    @classmethod
    def _unchecked(cls, n, mat, signs):
        """Tableau from uint8 arrays of the right shapes, kept as given."""
        t = cls.__new__(cls)
        t.n, t.mat, t.signs = n, mat, signs
        return t

    @classmethod
    def identity(cls, n):
        return cls(n, np.eye(2 * n, dtype=np.uint8), np.zeros(2 * n, dtype=np.uint8))

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
        return CliffordTableau(n, mat, signs)


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


def _draw_bits(g, count):
    """The top bit of each byte of count uint32 words from g, low byte first,
    as a uint8 array."""
    words = g.integers(0, 2**32 - 1, size=count, dtype=np.uint32, endpoint=True)
    return np.asarray(words, dtype="<u4").view(np.uint8) >> 7


def random_clifford(n, rng):
    """Exactly uniform Clifford sample (symplectic pair construction + signs).

    Per round: v uniform over nonzero vectors of the residual space, w uniform
    over {w: <v,w> = 1}, then recurse on the symplectic complement of (v, w),
    re-paired by symplectic Gram-Schmidt. The round counts multiply to
    |Sp(2n, 2)|, so the output is exactly uniform (Koenig & Smolin, J. Math.
    Phys. 55, 122202 (2014), arXiv:1406.2170). Each vector is a Python int of
    2N bits, bit k holding tableau column k (x part low, z part high), so the
    form <a, b> is the parity of a & swap(b), where swap exchanges the x and
    z halves.

    The random bits of a draw come from one pooled call for uint32 words.
    A call `g.integers(0, 2, size=m, dtype=np.uint8)` returns the top bit of
    each byte of ceil(m/4) such words, low byte first, so reading each
    vector's m bits from the next ceil(m/4) words of the pool (c for v and t
    for w in each round, then the 2N signs) gives the bits and the stream
    state of one such call per vector. The pool holds the words of a draw in
    which no c is all zero; an all-zero c is drawn again from the following
    words, and each retry draws just the ceil(m/4) words it adds, so every
    later draw from the stream is unchanged too. This rests on numpy's
    bounded-integer sampling, which the tests pin against per-vector calls.
    The helpers of the construction (swap, projection, reading the pool) are
    written out in the loop: a draw is a few dozen Python-level steps, and
    each call saved is a measurable share of it.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    g = rng.gen
    low = (1 << n) - 1
    # words for c and t in rounds m = 2n, 2n - 2, ..., 2: sum of 2 ceil(m/4) = 2 floor((n+1)^2/4)
    raw = _draw_bits(g, 2 * ((n + 1) ** 2 // 4) + (2 * n + 3) // 4)
    bits = raw.tolist()
    pos = 0  # index into bits, always at a word boundary
    basis = [1 << i for i in range(2 * n)]
    x_rows, z_rows = [], []
    while basis:
        m2 = len(basis)
        step = 4 * ((m2 + 3) // 4)  # the bits of ceil(m2/4) words
        c = bits[pos : pos + m2]
        pos += step
        while 1 not in c:
            raw = np.concatenate([raw, _draw_bits(g, step // 4)])
            bits = raw.tolist()
            c = bits[pos : pos + m2]
            pos += step
        v = 0
        for u, cj in zip(basis, c):
            if cj:
                v ^= u
        sv = (v >> n) | (v & low) << n
        f = [(u & sv).bit_count() & 1 for u in basis]
        # w uniform over {<v,w> = 1}: pivot + random kernel combination, kernel
        # basis {basis_j + f_j basis_p : j != p}; j = p adds basis_p + basis_p = 0
        bp = basis[f.index(1)]
        w = bp
        for u, tj, fj in zip(basis, bits[pos : pos + m2], f):
            if tj:
                w ^= u ^ bp if fj else u
        pos += step
        x_rows.append(v)
        z_rows.append(w)
        # re-pair the complement of (v, w) by symplectic Gram-Schmidt: project
        # the rest onto the complement of the last pair (pa, pb) and drop the
        # zeros; the first vector left, a, pairs with the first later one it
        # meets, b (the form is nondegenerate there, so b exists), and the
        # others, in order, are the rest of the next pass
        pa, pb, rest = v, w, basis
        a_rows, b_rows = [], []
        while True:
            sa, sb = (pa >> n) | (pa & low) << n, (pb >> n) | (pb & low) << n
            a = b = 0
            cand = []
            for u in rest:
                if (u & sb).bit_count() & 1:
                    u ^= pa
                if (u & sa).bit_count() & 1:
                    u ^= pb
                if not u:
                    continue
                if not a:
                    a, su = u, (u >> n) | (u & low) << n
                elif not b and (u & su).bit_count() & 1:
                    b = u
                else:
                    cand.append(u)
            if not b:
                break
            a_rows.append(a)
            b_rows.append(b)
            pa, pb, rest = a, b, cand
        if len(a_rows) != m2 // 2 - 1:
            raise RuntimeError("symplectic complement extraction failed")
        basis = a_rows + b_rows
    # bit k of each row integer is tableau column k
    packed = b"".join(r.to_bytes((2 * n + 7) // 8, "little") for r in x_rows + z_rows)
    mat = np.unpackbits(np.frombuffer(packed, dtype=np.uint8).reshape(2 * n, -1), axis=1, count=2 * n, bitorder="little")
    return CliffordTableau._unchecked(n, mat, raw[pos : pos + 2 * n])


@functools.cache
def enumerate_clifford_group(n):
    """All 24 (n=1) or 11520 (n=2) Cliffords mod global phase, as the
    arrays (mat, signs, words): read-only tableau matrices of shape
    (G, 2n, 2n) and sign bits (G, 2n), and the tuple of the G generator words.

    Breadth-first closure under the generators H_q, S_q (and CNOT both ways
    for n=2), one level at a time: each generator conjugates the rows of the
    whole frontier at once, and a candidate joins the group at its first
    occurrence in (parent, generator) order. The order is therefore fixed:
    identity first, then by generator-word length. Element i's word is a
    tuple of (name, qubits) in (H, S, CNOT), last-applied gate first.
    """
    if n not in (1, 2):
        raise ValueError("exhaustive enumeration supported for n in {1, 2}")
    gens = [("H", [q]) for q in range(n)] + [("S", [q]) for q in range(n)]
    if n == 2:
        gens += [("CNOT", [0, 1]), ("CNOT", [1, 0])]
    mats, signs = [np.eye(2 * n, dtype=np.uint8)[None]], [np.zeros((1, 2 * n), dtype=np.uint8)]
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
    words = [()]
    for i in range(1, len(mat)):
        words.append((gens[gen[i]],) + words[parent[i]])
    mat.flags.writeable = sign.flags.writeable = False
    return mat, sign, tuple(words)


@functools.cache
def _dense_tables(n):
    """Read-only tables of both dense bodies for n qubits: the (2, 2n)
    weights that turn tableau rows into x and z site masks, arange(2^n), the
    phase i^(2s + k) of an image with sign bit s and k Y sites, the parity
    sign (-1)^|m| of each mask m, and the identity blocks of the trial basis
    vectors, 8, 16, 32, ... at a time."""
    d = 1 << n
    weights = np.zeros((2, 2 * n), dtype=np.int64)
    weights[0, :n] = weights[1, n:] = 1 << np.arange(n - 1, -1, -1)  # site 0 = most significant bit
    idx = np.arange(d)
    phase = np.array(PHASES)[(2 * np.arange(2)[:, None] + np.arange(n + 1)) % 4][..., None, None]
    parity = np.where(np.bitwise_count(idx) % 2, -1.0, 1.0)[:, None]
    blocks, start = [], 0
    while start < d:
        size = min(d, 2 * start + 8) - start
        block = np.zeros((d, size), dtype=complex)
        block[start + np.arange(size), np.arange(size)] = 1.0
        blocks.append(block)
        start += size
    for a in (weights, idx, phase, parity, *blocks):
        a.flags.writeable = False
    return weights, idx, phase, parity, tuple(blocks)


def tableaux_to_dense(mat, signs, out):
    """Dense unitaries of a batch of n-qubit tableaux, written into out.

    mat has shape (B, 2n, 2n), signs (B, 2n), out (B, 2^n, 2^n). Column 0 is
    U|0...0>, the state stabilized by the signed Z images: the first basis
    vector with a nonzero projection, normalized. Column b is the X image of
    the site of b's lowest set bit applied to column b ^ low(b), built one bit
    level at a time from the most significant down, one gather per level for
    every column of that level in the whole batch. The global phase makes the
    first nonzero entry of column 0 positive real.

    Everything that depends on n alone (the mask weights, arange(2^n), the
    phase and parity tables and the identity trial blocks) is built once per
    n and cached (`_dense_tables`). Each gather reads the batch as one
    (B 2^n, L) stack through flat row indices, and the rows of out and of
    the trial blocks are picked by integer index.

    This batch body serves `dense.dense_clifford_group`, which densifies the
    11520 elements of the n = 2 group 512 at a time. Per-draw callers use
    `tableau_to_dense`, the same steps without the batch bookkeeping; the two
    give equal bytes for every tableau.
    """
    bsz, n = len(mat), mat.shape[1] // 2
    d = 1 << n
    weights, idx, phase_table, parity, blocks = _dense_tables(n)
    masks = weights @ mat.transpose(0, 2, 1)
    xm, zm = masks[:, 0], masks[:, 1]  # (B, 2n) x and z masks of each image
    phase = phase_table[signs, np.bitwise_count(xm & zm)]  # (B, 2n, 1, 1)
    batch = np.arange(bsz)
    # flat row of each source entry, (B, 2n, d): i ^ x of tableau b is row b d + (i ^ x)
    src = idx ^ (xm + d * batch[:, None])[:, :, None]
    sign = parity[src & zm[:, :, None]]  # (B, 2n, d, 1); zm masks off the row offset

    def apply(r, vec):
        """Generator image r of each tableau on its columns vec (B, d, L),
        with the operations of apply_to_statevector."""
        return phase[:, r] * vec.reshape(bsz * d, -1)[src[:, r]] * sign[:, r]

    todo = batch  # tableaux whose column 0 is still missing
    for block in blocks:
        v = block[None].repeat(bsz, axis=0)
        for i in range(n):
            v = 0.5 * (v + apply(n + i, v))
        nrm = np.sqrt(np.sum((v.conj() * v).real, axis=1))  # exact: dyadic entries
        first = np.argmax(nrm > 1e-8, axis=1)
        scale = nrm[batch, first]
        hit = scale[todo] > 1e-8
        new = todo[hit]
        out[new, :, 0] = v[new, :, first[new]] / scale[new, None]  # out[:, :, b] is column b
        todo = todo[~hit]
        if not len(todo):
            break
    else:
        raise RuntimeError("failed to construct stabilizer state")
    for j in range(n):
        low = 1 << (n - 1 - j)
        out[:, :, low :: 2 * low] = apply(j, out[:, :, :: 2 * low])
    nz = np.argmax(np.abs(out[:, :, 0]) > 1e-12, axis=1)
    pivot = out[batch, nz, 0]
    np.multiply(out, (np.abs(pivot) / pivot)[:, None, None], out=out)
    return out


def tableau_to_dense(t):
    """Dense unitary realizing the tableau, global phase fixed by making the
    first nonzero entry of column 0 positive real.

    The one-tableau body of `tableaux_to_dense`, for the callers that draw
    and densify one tableau at a time (the Monte Carlo samplers): the same
    cached tables and the same elementwise steps in the same order, with no
    batch axis, so its bytes equal the batch body's for every tableau. It
    gathers, sums and finds the first hit with the array methods take, sum
    and argmax, which cost less per call than fancy indexing and the np.*
    functions.
    """
    n = t.n
    if n > 12:
        raise ValueError("dense conversion limited to N <= 12")
    d = 1 << n
    weights, idx, phase_table, parity, blocks = _dense_tables(n)
    xm, zm = weights @ t.mat.T  # (2n,) x and z masks of each image
    phase = phase_table[t.signs, np.bitwise_count(xm & zm)]  # (2n, 1, 1)
    src = idx ^ xm[:, None]  # (2n, d): image r maps entry i ^ x_r to i
    sign = parity.take(src & zm[:, None], axis=0)  # (2n, d, 1)

    def apply(r, vec):
        """Generator image r on the columns vec (d, L)."""
        return phase[r] * vec.reshape(d, -1).take(src[r], axis=0) * sign[r]

    for block in blocks:
        v = block
        for i in range(n):
            v = 0.5 * (v + apply(n + i, v))
        nrm = np.sqrt((v.conj() * v).real.sum(axis=0))  # exact: dyadic entries
        first = (nrm > 1e-8).argmax()
        if nrm[first] > 1e-8:
            break
    else:
        raise RuntimeError("failed to construct stabilizer state")
    out = np.empty((d, d), dtype=complex)
    out[:, 0] = v[:, first] / nrm[first]
    for j in range(n):
        low = 1 << (n - 1 - j)
        out[:, low :: 2 * low] = apply(j, out[:, :: 2 * low])
    pivot = out[(np.abs(out[:, 0]) > 1e-12).argmax(), 0]
    np.multiply(out, np.abs(pivot) / pivot, out=out)
    return out


def tableau_from_circuit(gates, n):
    """Tableau of a gate list (Clifford gates only, first-applied first): each
    gate conjugates the rows of the identity tableau in turn, by the rules of
    `_conjugate_rows`. Returns the tableau alone: it keeps no gate list."""
    t = CliffordTableau.identity(n)
    for name, qubits in gates:
        if name == "T":
            raise ValueError("T gate is not Clifford")
        _conjugate_rows(t.mat, t.signs, name, qubits, n)
    return t

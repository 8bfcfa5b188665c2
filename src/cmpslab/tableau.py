"""Clifford tableaux over the binary symplectic group, with sign tracking.

A tableau stores the conjugation action P -> U P U^dag on the 2N Pauli
generators: row i (i < N) is the image of X_i, row N+i the image of Z_i,
each as (x|z) bit vectors plus a sign bit (images are Hermitian Paulis,
so phases are always +/-1). The binary matrix is symplectic for the form
<a,b> = a_x.b_z + a_z.b_x (mod 2), exactly.
"""

from __future__ import annotations

import functools
import json

import numpy as np

from .paulis import PauliString, apply_to_statevector

GATE_NAMES = ("H", "S", "CNOT", "T")


def _sympl(a, b):
    n2 = len(a)
    n = n2 // 2
    return int(np.dot(a[:n].astype(int), b[n:].astype(int))
               + np.dot(a[n:].astype(int), b[:n].astype(int))) % 2


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
        x = self.mat[r, : self.n]
        z = self.mat[r, self.n :]
        p = (2 * int(self.signs[r]) + int(np.dot(x.astype(int), z.astype(int)))) % 4
        return PauliString(x, z, p)

    def is_symplectic(self):
        n = self.n
        omega = np.zeros((2 * n, 2 * n), dtype=np.uint8)
        omega[:n, n:] = np.eye(n, dtype=np.uint8)
        omega[n:, :n] = np.eye(n, dtype=np.uint8)
        return np.array_equal((self.mat @ omega @ self.mat.T) % 2, omega)

    def image_of(self, p):
        """Image U p U^dag of an arbitrary PauliString."""
        if p.n != self.n:
            raise ValueError("qubit count mismatch")
        n = self.n
        xz = np.concatenate([p.x, p.z]).astype(np.uint8)
        out_x = np.zeros(n, dtype=np.uint8)
        out_z = np.zeros(n, dtype=np.uint8)
        phase = p.phase_pow
        # multiply generator images left to right: X_0^{x_0} Z_0^{z_0} X_1^{x_1} ...
        for j in range(n):
            for r in (j, n + j):  # X_j image, then Z_j image
                if not xz[r]:
                    continue
                gx = self.mat[r, :n]
                gz = self.mat[r, n:]
                gp = (2 * int(self.signs[r]) + int(np.dot(gx.astype(int), gz.astype(int)))) % 4
                swap = int(np.dot(out_z.astype(int), gx.astype(int)))
                phase = (phase + gp + 2 * swap) % 4
                out_x ^= gx
                out_z ^= gz
        return PauliString(out_x, out_z, phase)

    def compose(self, other):
        """Tableau of U_self . U_other (conjugation self(other(P)))."""
        if self.n != other.n:
            raise ValueError("qubit count mismatch")
        n = self.n
        mat = np.zeros((2 * n, 2 * n), dtype=np.uint8)
        signs = np.zeros(2 * n, dtype=np.uint8)
        for r in range(2 * n):
            img = self.image_of(other.row_pauli(r))
            mat[r, :n] = img.x
            mat[r, n:] = img.z
            herm = int(np.dot(img.x.astype(int), img.z.astype(int))) % 4
            rel = (img.phase_pow - herm) % 4
            if rel not in (0, 2):
                raise RuntimeError("non-Hermitian generator image")
            signs[r] = rel // 2
        word = None
        if self.word is not None and other.word is not None:
            word = self.word + other.word
        return CliffordTableau(n, mat, signs, word=word)

    def inverse(self):
        """Exact group inverse (symplectic transpose trick + sign repair)."""
        n = self.n
        omega = np.zeros((2 * n, 2 * n), dtype=np.uint8)
        omega[:n, n:] = np.eye(n, dtype=np.uint8)
        omega[n:, :n] = np.eye(n, dtype=np.uint8)
        mat_inv = (omega @ self.mat.T @ omega) % 2
        inv = CliffordTableau(n, mat_inv, np.zeros(2 * n, dtype=np.uint8))
        # self(inv(g_r)) = (-1)^{e_r} g_r ; flipping inv sign r flips e_r
        signs = np.zeros(2 * n, dtype=np.uint8)
        for r in range(2 * n):
            q = self.image_of(inv.row_pauli(r))
            base = CliffordTableau.identity(n).row_pauli(r)
            if q.phase_pow == base.phase_pow:
                signs[r] = 0
            elif (q.phase_pow - base.phase_pow) % 4 == 2:
                signs[r] = 1
            else:
                raise RuntimeError("inverse sign repair failed")
        return CliffordTableau(n, mat_inv, signs)


def conjugate_pauli(t, p):
    """sigma' = U^dag sigma U for tableau t representing U (O(N^2) per call)."""
    return t.inverse().image_of(p)


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


def gate_tableau(name, qubits, n):
    """Tableau of a named Clifford generator embedded on n qubits."""
    t = CliffordTableau.identity(n)
    _conjugate_rows(t.mat, t.signs, name, qubits, n)
    return CliffordTableau(n, t.mat, t.signs, word=[(name, list(qubits))])


def _standard_pairs(cand):
    """Symplectic Gram-Schmidt: extract standard-paired (a_i, b_i) lists from
    vectors spanning a subspace on which the form is nondegenerate."""
    a_rows, b_rows = [], []
    cand = [u for u in cand if u.any()]
    while cand:
        pair = None
        for i, ui in enumerate(cand):
            for j, uj in enumerate(cand):
                if j != i and _sympl(ui, uj):
                    pair = (ui, uj)
                    break
            if pair:
                break
        if pair is None:
            # leftovers lie in the radical, which is trivial here
            break
        a, b = pair
        a_rows.append(a)
        b_rows.append(b)
        nxt = []
        for u in cand:
            if u is a or u is b:
                continue
            u = u.copy()
            if _sympl(u, b):
                u ^= a
            if _sympl(u, a):
                u ^= b
            if u.any():
                nxt.append(u)
        cand = nxt
    return a_rows, b_rows


def random_clifford(n, rng):
    """Exactly uniform Clifford sample (symplectic pair construction + signs).

    Per round: v uniform over nonzero vectors of the residual space, w uniform
    over {w: <v,w> = 1}, then recurse on the symplectic complement of (v, w).
    The round counts multiply to |Sp(2n, 2)|, so the output is exactly uniform.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    g = rng.gen
    basis = [np.eye(2 * n, dtype=np.uint8)[i] for i in range(2 * n)]
    x_rows, z_rows = [], []
    while basis:
        m2 = len(basis)
        c = g.integers(0, 2, size=m2, dtype=np.uint8)
        while not c.any():
            c = g.integers(0, 2, size=m2, dtype=np.uint8)
        v = np.zeros(2 * n, dtype=np.uint8)
        for j in range(m2):
            if c[j]:
                v ^= basis[j]
        f = [_sympl(v, basis[j]) for j in range(m2)]
        p = f.index(1)
        # w uniform over {<v,w> = 1}: pivot + random kernel combination,
        # kernel basis {basis_j + f_j basis_p : j != p}
        w = basis[p].copy()
        t = g.integers(0, 2, size=m2, dtype=np.uint8)
        for j in range(m2):
            if j == p or not t[j]:
                continue
            w ^= basis[j]
            if f[j]:
                w ^= basis[p]
        x_rows.append(v)
        z_rows.append(w)
        # project the whole residual basis onto the complement of (v, w),
        # then restore a standard-paired basis
        proj = []
        for u in basis:
            u = u.copy()
            if _sympl(u, w):
                u ^= v
            if _sympl(u, v):
                u ^= w
            proj.append(u)
        new_a, new_b = _standard_pairs(proj)
        if len(new_a) != m2 // 2 - 1:
            raise RuntimeError("symplectic complement extraction failed")
        basis = new_a + new_b
    mat = np.array(x_rows + z_rows, dtype=np.uint8)
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


def tableau_to_dense(t):
    """Dense unitary realizing the tableau, global phase fixed by making the
    first nonzero entry of column 0 positive real."""
    n = t.n
    if n > 12:
        raise ValueError("dense conversion limited to N <= 12")
    d = 1 << n
    z_imgs = [t.row_pauli(n + i) for i in range(n)]
    x_imgs = [t.row_pauli(i) for i in range(n)]
    # |phi0> = U|0...0>: the state stabilized by the signed Z images
    phi0 = None
    for trial in range(d):
        v = np.zeros(d, dtype=complex)
        v[trial] = 1.0
        for gop in z_imgs:
            v = 0.5 * (v + apply_to_statevector(gop, v))
        nrm = np.linalg.norm(v)
        if nrm > 1e-8:
            phi0 = v / nrm
            break
    if phi0 is None:
        raise RuntimeError("failed to construct stabilizer state")
    cols = np.zeros((d, d), dtype=complex)
    cols[:, 0] = phi0
    for b in range(1, d):
        low = b & -b
        j = n - low.bit_length()  # site index of the lowest set bit
        cols[:, b] = apply_to_statevector(x_imgs[j], cols[:, b ^ low])
    u = cols
    nz = np.flatnonzero(np.abs(u[:, 0]) > 1e-12)[0]
    u = u * (np.abs(u[nz, 0]) / u[nz, 0])
    return u


def circuit_to_json(gates):
    """Serialize a gate list [(name, qubits), ...]; T is allowed but flagged."""
    out = []
    for name, qubits in gates:
        if name not in GATE_NAMES:
            raise ValueError(f"unknown gate {name!r}")
        entry = {"name": name, "qubits": list(map(int, qubits))}
        if name == "T":
            entry["clifford"] = False
        out.append(entry)
    return json.dumps(out)


def circuit_from_json(text):
    gates = []
    for entry in json.loads(text):
        name = entry["name"]
        if name not in GATE_NAMES:
            raise ValueError(f"unknown gate {name!r}")
        gates.append((name, [int(q) for q in entry["qubits"]]))
    return gates


def tableau_from_circuit(gates, n):
    """Compose a gate list (Clifford gates only) into a tableau."""
    t = CliffordTableau.identity(n)
    for name, qubits in gates:
        if name == "T":
            raise ValueError("T gate is not Clifford")
        t = gate_tableau(name, qubits, n).compose(t)
    return t

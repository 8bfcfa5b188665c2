import hashlib
import json

import numpy as np
import pytest

from cmpslab.kernels import Rng
from cmpslab.paulis import PauliString, apply_to_statevector, hermitian_pauli_from_index
from cmpslab.tableau import (
    CliffordTableau,
    enumerate_clifford_group,
    random_clifford,
    tableau_from_circuit,
    tableau_to_dense,
    tableaux_to_dense,
)

_H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
_S = np.diag([1, 1j])
_CNOT = np.eye(4, dtype=complex)[[0, 1, 3, 2]]


def embed(gate, qubits, n):
    ops = [np.eye(2, dtype=complex)] * n
    if gate.shape == (2, 2):
        ops[qubits[0]] = gate
        m = np.array([[1]], dtype=complex)
        for o in ops:
            m = np.kron(m, o)
        return m
    # two-qubit gate on adjacent or general qubits via index shuffling
    d = 1 << n
    m = np.zeros((d, d), dtype=complex)
    q0, q1 = qubits
    for col in range(d):
        b0 = (col >> (n - 1 - q0)) & 1
        b1 = (col >> (n - 1 - q1)) & 1
        for new in range(4):
            amp = gate[new, 2 * b0 + b1]
            if amp == 0:
                continue
            row = col & ~(1 << (n - 1 - q0)) & ~(1 << (n - 1 - q1))
            row |= ((new >> 1) & 1) << (n - 1 - q0)
            row |= (new & 1) << (n - 1 - q1)
            m[row, col] += amp
    return m


DENSE = {"H": _H, "S": _S, "CNOT": _CNOT}


def dense_pauli(p):
    X = np.array([[0, 1], [1, 0]], dtype=complex)
    Z = np.diag([1.0, -1.0]).astype(complex)
    m = np.array([[1]], dtype=complex)
    for x, z in p.sites():
        f = np.eye(2, dtype=complex)
        if x:
            f = X @ f
        if z:
            f = f @ Z
        m = np.kron(m, f)
    return (1j) ** int(p.phase_pow) * m


@pytest.mark.parametrize("name,qubits", [("H", [0]), ("S", [1]), ("CNOT", [0, 1]), ("CNOT", [1, 0])])
def test_gate_conjugation_matches_dense(name, qubits):
    n = 2
    t = tableau_from_circuit([(name, qubits)], n)
    u = embed(DENSE[name], qubits, n)
    for idx in range(16):
        p = hermitian_pauli_from_index(n, idx & 3, idx >> 2)
        got = dense_pauli(t.image_of(p))
        want = u @ dense_pauli(p) @ u.conj().T
        assert np.allclose(got, want, atol=1e-10)


def test_compose_and_inverse():
    rng = Rng(5)
    for n in (2, 3):
        a = random_clifford(n, rng)
        b = random_clifford(n, rng)
        ab = a.compose(b)
        # composition conjugates in the right order
        p = hermitian_pauli_from_index(n, 1, 2)
        lhs = ab.image_of(p)
        rhs = a.image_of(b.image_of(p))
        assert lhs == rhs


def test_random_clifford_is_symplectic_and_deterministic():
    for n in (1, 2, 3, 4):
        t = random_clifford(n, Rng(n))
        omega = np.kron([[0, 1], [1, 0]], np.eye(n, dtype=int))
        assert np.array_equal((t.mat.astype(int) @ omega @ t.mat.T) % 2, omega)
        assert t == random_clifford(n, Rng(n))


def test_random_clifford_uniform_on_single_qubit():
    mat, signs, _ = enumerate_clifford_group(1)
    keys = {CliffordTableau(1, m, s).key(): 0 for m, s in zip(mat, signs)}
    rng = Rng(11)
    draws = 6000
    for _ in range(draws):
        keys[random_clifford(1, rng).key()] += 1
    counts = np.array(list(keys.values()))
    assert counts.min() > 0
    # 4-sigma band around the uniform expectation
    exp = draws / 24
    assert np.all(np.abs(counts - exp) < 4 * np.sqrt(exp))


def test_group_enumeration_sizes():
    assert len(enumerate_clifford_group(1)[0]) == 24
    assert len(enumerate_clifford_group(2)[0]) == 11520


@pytest.mark.parametrize("n,size", [(1, 24), (2, 11520)])
def test_group_enumeration_is_read_only_arrays(n, size):
    mat, signs, words = enumerate_clifford_group(n)
    assert mat.shape == (size, 2 * n, 2 * n) and signs.shape == (size, 2 * n)
    assert mat.dtype == signs.dtype == np.uint8
    assert not mat.flags.writeable and not signs.flags.writeable
    assert isinstance(words, tuple) and len(words) == size
    with pytest.raises(ValueError):
        mat[0, 0, 0] = 0


def test_tableau_keeps_uint8_input():
    t = random_clifford(3, Rng(4))
    mat, signs = t.mat.copy(), t.signs.copy()
    kept = CliffordTableau(3, mat, signs)
    assert kept.mat is mat and kept.signs is signs


# sha256 of the enumeration: ordered tableau keys, ordered generator words
# (JSON) and the dense unitaries. The random brickwork layers of the cooling
# benchmark states draw from this order, so it must not change.
PINNED_ENUMERATION = {
    1: ("5913ba8f431b73339abbcf9f671a226ee6a908b8ed1f647734975d09cbf31cea",
        "a76043e765a588f1ac627e574ffd73c1770fa333b5501f951b988a7f2217e99b",
        "3fe83a212786567610681b92eabe3ec2b153050bacc5f324d2e9d308f9a3db4f"),
    2: ("653154940b93a338d09275404ed4724cb12f6b22c726ed76e64cfa53c4c214d8",
        "457fb8184371b8c0dddf92e40c74c2e5861096a7a5437daebaec7040e8b5f4c8",
        "39e1a7b0defee7e2c16df2453708a57fa2172bafc51909cca023f19ae6aa2e51"),
}


@pytest.mark.parametrize("n", [1, 2])
def test_group_enumeration_pinned(n):
    from cmpslab.dense import dense_clifford_group

    mat, signs, words = enumerate_clifford_group(n)
    keys = hashlib.sha256(np.concatenate([mat.reshape(len(mat), -1), signs], axis=1).tobytes()).hexdigest()
    words = hashlib.sha256(json.dumps(words).encode()).hexdigest()
    dense = hashlib.sha256(dense_clifford_group(n).tobytes()).hexdigest()
    assert (keys, words, dense) == PINNED_ENUMERATION[n]


def test_tableau_to_dense_consistency():
    rng = Rng(9)
    for n in range(1, 7):
        t = random_clifford(n, rng)
        u = tableau_to_dense(t)
        assert np.allclose(u @ u.conj().T, np.eye(1 << n), atol=1e-10)
        # U P U^dag for every generator X_i, Z_i equals the tableau's image of it
        for r in range(2 * n):
            gen = CliffordTableau.identity(n).row_pauli(r)
            assert np.allclose(u @ dense_pauli(gen) @ u.conj().T, dense_pauli(t.image_of(gen)), atol=1e-9)
        for trial in range(5):
            p = hermitian_pauli_from_index(
                n, int(rng.gen.integers(1 << n)), int(rng.gen.integers(1 << n))
            )
            got = dense_pauli(t.image_of(p))
            want = u @ dense_pauli(p) @ u.conj().T
            assert np.allclose(got, want, atol=1e-9)


# sha256 of 200 random_clifford(n, Rng(2026).child(i)) tableau keys for each
# n, and of tableau_to_dense of the first 20 of them, recorded from the
# numpy-row sampler and the one-column-at-a-time densifier. The Monte Carlo
# ensembles draw from these streams, so the packed-integer sampler and the
# batched densifier must reproduce them bit for bit.
PINNED_RANDOM_KEYS = {
    1: "277f509baea9de9832dd3fb42924a259e2e881355d52ecb7a8c66182d0e3ea7e",
    2: "27bece6bb44aeb89311bb1c021a42c5e641f09b7eaf9f880992770530946ad14",
    3: "6986dc82c2eef36047001b4ff1b6970523bdfa72835b91d47f774ea560ce469a",
    4: "461a1a8558a711401d5e3d05ed75f7b9b8e496592ae5ac11a4f8ea64db8a2a8c",
    5: "3701abb65a2415c1143c5991d46b3ccf6123bab9d1f0f9e9065de78731d3419b",
    6: "2bd880f168fd558aa59dbbd46e67c46159c2023d8fbdfd7baf638a7508d2e2c6",
    7: "c5af3c3c8e719e2951138aae88d888f57488eeda9925667cefe37be4667f97dd",
    8: "ee945fe78d2b01c9c2a6ca7cf32afcc7c7a8a3a529ffe39ec159b5ff14c622bf",
    9: "34d5b2433ce8623c81d2ffcad68f74446ac12eb3cef999cee8dfe8c1eb8f0581",
    10: "244708fac1a5a550a0eaac676b55150aede8089126d47e855cea18e7afcd50e8",
}
PINNED_RANDOM_DENSE = {
    1: "e1ba3ee65aeb0080dfe4aaa1d4605658aceaf70de9bb88051b6f2b3b5eef6f09",
    2: "c728188a4688d6f52dd3666a344615d798c90e87cff6ad69af21bb187d90b17a",
    3: "72816e69c8fcaba0dcd2e0871bc493ce425cc729a1b02b38e88282e51acaba13",
    4: "8a091d8911a3f2a113d63b9d86d9cfc20fa1fdaad6cc32137a1f0153519f71a9",
    5: "9f5c8861a54622deb3d6ce4d9425b92cebcdc3fb841cf6d5a26b7e0a749aecec",
    6: "332bac4e77af9027508fc2d0f2864bb6b0db2a7140c5ee55bd7e06cbdf2ed447",
    7: "a295c4b1c21b81f34370b99bceed052682d3481a80adbcb7aa65581979149059",
    8: "a9c49da9c3f2cfe4b3d95fe0e661ca368bc397ce1b9ff1f1f78e92dbadc0bc40",
}


@pytest.mark.parametrize("n", range(1, 11))
def test_random_clifford_pinned(n):
    tabs = [random_clifford(n, Rng(2026).child(i)) for i in range(200)]
    assert hashlib.sha256(b"".join(t.key() for t in tabs)).hexdigest() == PINNED_RANDOM_KEYS[n]
    if n in PINNED_RANDOM_DENSE:
        dense = b"".join(tableau_to_dense(t).tobytes() for t in tabs[:20])
        assert hashlib.sha256(dense).hexdigest() == PINNED_RANDOM_DENSE[n]


def reference_random_clifford(n, rng):
    """The sampler before pooled words: one g.integers(0, 2, size=m,
    dtype=np.uint8) call per vector (each c retry, each t, then the signs),
    so 2n + 1 calls when no c is all zero."""
    g = rng.gen

    def sympl(a, b):
        return ((a & (b >> n)) ^ ((a >> n) & b)).bit_count() & 1

    def project(vecs, a, b):
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
        w = basis[p]
        t = g.integers(0, 2, size=m2, dtype=np.uint8)
        for j, (u, tj) in enumerate(zip(basis, t.tolist())):
            if j != p and tj:
                w ^= u ^ (basis[p] if f[j] else 0)
        x_rows.append(v)
        z_rows.append(w)
        cand = project(basis, v, w)
        a_rows, b_rows = [], []
        while cand:
            j = next(k for k, u in enumerate(cand) if sympl(cand[0], u))
            a_rows.append(cand[0])
            b_rows.append(cand[j])
            cand = project(cand[1:j] + cand[j + 1:], cand[0], cand[j])
        basis = a_rows + b_rows
    mat = np.array([[r >> k & 1 for k in range(2 * n)] for r in x_rows + z_rows], dtype=np.uint8)
    signs = g.integers(0, 2, size=2 * n, dtype=np.uint8)
    return CliffordTableau(n, mat, signs)


class CountingGen:
    """A Generator proxy that counts its integers calls."""

    def __init__(self, gen):
        self.gen, self.calls = gen, 0

    def integers(self, *args, **kwargs):
        self.calls += 1
        return self.gen.integers(*args, **kwargs)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 6, 8])
def test_pooled_draw_keeps_tableau_and_stream(n):
    """Pooled words give the reference's tableau and leave the stream where
    the reference leaves it: n = 1 retries c in a quarter of its draws, and
    an odd word count leaves half a PCG64 output buffered."""
    for seed in range(200):
        a, b = Rng(seed), Rng(seed)
        assert random_clifford(n, a).key() == reference_random_clifford(n, b).key()
        assert a.gen.random() == b.gen.random()
        assert a.gen.normal(size=3).tobytes() == b.gen.normal(size=3).tobytes()
        bits = [r.gen.integers(0, 2, size=5, dtype=np.uint8).tobytes() for r in (a, b)]
        assert bits[0] == bits[1]


@pytest.mark.parametrize("n", [1, 2, 3, 6])
def test_pooled_draw_makes_one_integers_call_per_draw(n):
    """One integers call per draw, and at most one more per c retry, counted
    as the reference's calls beyond its 2n + 1."""
    retried = 0
    for seed in range(100):
        new, ref = Rng(seed), Rng(seed)
        new.gen, ref.gen = CountingGen(new.gen), CountingGen(ref.gen)
        random_clifford(n, new)
        reference_random_clifford(n, ref)
        retries = ref.gen.calls - (2 * n + 1)
        retried += retries > 0
        assert new.gen.calls <= 1 + retries
        assert retries or new.gen.calls == 1
    if n == 1:  # a quarter of n = 1 draws retry c, so the retry bound is exercised
        assert retried


def dense_by_columns(t):
    """Reference densifier: U|0...0> from the first trial basis vector with a
    nonzero projection, then one apply_to_statevector per column."""
    n, d = t.n, 1 << t.n
    phi0 = None
    for trial in range(d):
        v = np.zeros(d, dtype=complex)
        v[trial] = 1.0
        for i in range(n):
            v = 0.5 * (v + apply_to_statevector(t.row_pauli(n + i), v))
        nrm = np.linalg.norm(v)
        if nrm > 1e-8:
            phi0 = v / nrm
            break
    u = np.zeros((d, d), dtype=complex)
    u[:, 0] = phi0
    for b in range(1, d):
        low = b & -b
        u[:, b] = apply_to_statevector(t.row_pauli(n - low.bit_length()), u[:, b ^ low])
    nz = np.flatnonzero(np.abs(u[:, 0]) > 1e-12)[0]
    return u * (np.abs(u[nz, 0]) / u[nz, 0])


@pytest.mark.parametrize("n", range(1, 8))
def test_tableau_to_dense_matches_column_loop(n):
    for i in range(8):
        t = random_clifford(n, Rng(77).child(i))
        assert tableau_to_dense(t).tobytes() == dense_by_columns(t).tobytes()


def basis_state_tableau(n, b):
    """The tableau of X^b, the Pauli X on every set bit of b (site 0 most
    significant): the identity matrix with the Z signs of those sites set, so
    column 0 is the basis vector b."""
    signs = np.zeros(2 * n, dtype=np.uint8)
    signs[n:] = [(b >> (n - 1 - q)) & 1 for q in range(n)]
    return CliffordTableau(n, np.eye(2 * n, dtype=np.uint8), signs)


def test_batch_matches_single_tableaux_across_trial_blocks():
    """A batch whose column-0 states sit in different trial blocks (8, 16, 32,
    ... basis vectors at a time) gives each tableau the bytes it gets alone:
    random draws, some of which the first block misses, and basis states in
    the second, third and last blocks."""
    for n in (5, 6, 7):
        d = 1 << n
        tabs = [random_clifford(n, Rng(31).child(i)) for i in range(24)]
        tabs += [basis_state_tableau(n, b) for b in (8, 24, d - 1)]
        singles = [tableau_to_dense(t) for t in tabs]
        first = [int(np.argmax(np.abs(u[:, 0]) > 1e-12)) for u in singles]
        assert any(f >= 8 for f in first[:24])  # random draws missed by the first block
        assert first[24:] == [8, 24, d - 1]
        out = np.empty((len(tabs), d, d), dtype=complex)
        tableaux_to_dense(np.stack([t.mat for t in tabs]), np.stack([t.signs for t in tabs]), out)
        assert out.tobytes() == np.stack(singles).tobytes()


@pytest.mark.parametrize("n", [1, 2])
def test_single_body_matches_batch_on_the_whole_group(n):
    mat, signs, _ = enumerate_clifford_group(n)
    out = np.empty((len(mat), 1 << n, 1 << n), dtype=complex)
    tableaux_to_dense(mat, signs, out)
    singles = [tableau_to_dense(CliffordTableau(n, m, s)) for m, s in zip(mat, signs)]
    assert out.tobytes() == np.stack(singles).tobytes()


def test_tableau_that_never_projects_raises_in_both_bodies():
    """Z_0 -> -I stabilizes nothing, so no trial vector projects."""
    t = CliffordTableau(2, np.zeros((4, 4), np.uint8), [0, 0, 1, 0])
    with pytest.raises(RuntimeError, match="failed to construct stabilizer state"):
        tableau_to_dense(t)
    with pytest.raises(RuntimeError, match="failed to construct stabilizer state"):
        tableaux_to_dense(t.mat[None], t.signs[None], np.empty((1, 4, 4), dtype=complex))


def test_dense_group_build_memory():
    """The 11520-element build densifies in bounded batches: its traced peak
    stays near the size of the result (one unchunked batch peaks at 5.7x)."""
    import tracemalloc

    from cmpslab.dense import dense_clifford_group

    enumerate_clifford_group(2)
    tracemalloc.start()
    try:
        group = dense_clifford_group.__wrapped__(2)  # uncached build
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert group.tobytes() == dense_clifford_group(2).tobytes()
    assert peak < 1.5 * group.nbytes


def test_tableau_from_circuit_matches_composition():
    gates = [("H", [0]), ("CNOT", [0, 1]), ("S", [1])]
    t = tableau_from_circuit(gates, 2)
    u = embed(_S, [1], 2) @ embed(_CNOT, [0, 1], 2) @ embed(_H, [0], 2)
    for idx in range(16):
        p = hermitian_pauli_from_index(2, idx & 3, idx >> 2)
        got = dense_pauli(t.image_of(p))
        want = u @ dense_pauli(p) @ u.conj().T
        assert np.allclose(got, want, atol=1e-10)


def one_gate_tableau(name, qubits, n):
    """Tableau of one generator, written from its Pauli images."""
    mat = np.eye(2 * n, dtype=np.uint8)
    if name == "H":
        (q,) = qubits
        mat[[q, n + q]] = mat[[n + q, q]]  # X <-> Z
    elif name == "S":
        (q,) = qubits
        mat[q, n + q] = 1  # X -> Y
    else:
        c, t = qubits
        mat[c, t] = 1  # X_c -> X_c X_t
        mat[n + t, n + c] = 1  # Z_t -> Z_c Z_t
    return CliffordTableau(n, mat, np.zeros(2 * n, dtype=np.uint8))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_tableau_from_circuit_matches_compose_chain(n):
    gen = np.random.default_rng(100 + n)
    for _ in range(40):
        gates = []
        for _ in range(int(gen.integers(0, 16))):
            name = ["H", "S", "CNOT"][int(gen.integers(3 if n > 1 else 2))]
            qubits = gen.choice(n, size=2 if name == "CNOT" else 1, replace=False).tolist()
            gates.append((name, qubits))
        chain = CliffordTableau.identity(n)
        for name, qubits in gates:
            chain = one_gate_tableau(name, qubits, n).compose(chain)
        t = tableau_from_circuit(gates, n)
        assert t.key() == chain.key()


def test_tableau_from_circuit_rejects_t():
    with pytest.raises(ValueError):
        tableau_from_circuit([("T", [0])], 1)

import hashlib
import json

import numpy as np
import pytest

from cmpslab.kernels import Rng
from cmpslab.paulis import PauliString, hermitian_pauli_from_index
from cmpslab.tableau import (
    CliffordTableau,
    circuit_from_json,
    circuit_to_json,
    conjugate_pauli,
    enumerate_clifford_group,
    gate_tableau,
    random_clifford,
    tableau_from_circuit,
    tableau_to_dense,
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
    for x, z in zip(p.x, p.z):
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
    t = gate_tableau(name, qubits, n)
    u = embed(DENSE[name], qubits, n)
    for idx in range(16):
        p = hermitian_pauli_from_index(n, idx & 3, idx >> 2)
        got = dense_pauli(conjugate_pauli(t, p))
        want = u.conj().T @ dense_pauli(p) @ u
        assert np.allclose(got, want, atol=1e-10)


def test_compose_and_inverse():
    rng = Rng(5)
    for n in (2, 3):
        a = random_clifford(n, rng)
        b = random_clifford(n, rng)
        ab = a.compose(b)
        ident = ab.compose(ab.inverse())
        assert ident == CliffordTableau.identity(n)
        # composition conjugates in the right order
        p = hermitian_pauli_from_index(n, 1, 2)
        lhs = ab.image_of(p)
        rhs = a.image_of(b.image_of(p))
        assert lhs == rhs


def test_random_clifford_is_symplectic_and_deterministic():
    for n in (1, 2, 3, 4):
        t = random_clifford(n, Rng(n))
        assert t.is_symplectic()
        assert t == random_clifford(n, Rng(n))


def test_random_clifford_uniform_on_single_qubit():
    group = enumerate_clifford_group(1)
    keys = {t.key(): 0 for t in group}
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
    assert len(enumerate_clifford_group(1)) == 24
    assert len(enumerate_clifford_group(2)) == 11520


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

    group = enumerate_clifford_group(n)
    keys = hashlib.sha256(b"".join(t.key() for t in group)).hexdigest()
    words = hashlib.sha256(json.dumps([t.word for t in group]).encode()).hexdigest()
    dense = hashlib.sha256(dense_clifford_group(n).tobytes()).hexdigest()
    assert (keys, words, dense) == PINNED_ENUMERATION[n]


def test_tableau_to_dense_consistency():
    rng = Rng(9)
    for n in (1, 2, 3):
        t = random_clifford(n, rng)
        u = tableau_to_dense(t)
        assert np.allclose(u @ u.conj().T, np.eye(1 << n), atol=1e-10)
        for trial in range(5):
            p = hermitian_pauli_from_index(
                n, int(rng.integers(1 << n)), int(rng.integers(1 << n))
            )
            got = dense_pauli(conjugate_pauli(t, p))
            want = u.conj().T @ dense_pauli(p) @ u
            assert np.allclose(got, want, atol=1e-9)


def test_circuit_json_roundtrip_and_t_flag():
    gates = [("H", [0]), ("CNOT", [0, 1]), ("T", [1]), ("S", [0])]
    blob = circuit_to_json(gates)
    parsed = json.loads(blob)
    assert parsed[2]["name"] == "T"
    assert parsed[2]["clifford"] is False
    assert "clifford" not in parsed[0]
    assert circuit_from_json(blob) == gates


def test_tableau_from_circuit_matches_composition():
    gates = [("H", [0]), ("CNOT", [0, 1]), ("S", [1])]
    t = tableau_from_circuit(gates, 2)
    u = embed(_S, [1], 2) @ embed(_CNOT, [0, 1], 2) @ embed(_H, [0], 2)
    for idx in range(16):
        p = hermitian_pauli_from_index(2, idx & 3, idx >> 2)
        got = dense_pauli(conjugate_pauli(t, p))
        want = u.conj().T @ dense_pauli(p) @ u
        assert np.allclose(got, want, atol=1e-10)


def test_tableau_from_circuit_rejects_t():
    with pytest.raises(ValueError):
        tableau_from_circuit([("T", [0])], 1)

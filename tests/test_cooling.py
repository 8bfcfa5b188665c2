import numpy as np
import pytest

from cmpslab.cooling import (
    CoolingReport,
    DopedCircuitSpec,
    build_doped_state,
    build_stabilizer_state,
    cool,
    cooling_scan,
)
from cmpslab.dense import apply_gate, entanglement_entropy, exact_sre, zero_state
from cmpslab.kernels import Rng

_H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
_S = np.diag([1, 1j])
_CNOT = np.eye(4, dtype=complex)[[0, 1, 3, 2]]
_GATES = {"H": _H, "S": _S, "CNOT": _CNOT}


def replay(psi, circuit):
    v = psi.copy()
    for name, qubits in circuit:
        v = apply_gate(v, _GATES[name], tuple(qubits))
    return v


def test_spec_validation():
    with pytest.raises(ValueError):
        DopedCircuitSpec(n=1)
    with pytest.raises(ValueError):
        DopedCircuitSpec(n=4, v=0)
    with pytest.raises(ValueError):
        DopedCircuitSpec(n=4, t_count=-1)


def test_undoped_state_is_stabilizer():
    spec = DopedCircuitSpec(n=4, t_count=0)
    psi = build_doped_state(spec, Rng(0))
    assert np.allclose(psi, zero_state(4))
    psi = build_stabilizer_state(6, 6, Rng(1))
    assert exact_sre(psi, 2)[1] < 1e-10


def test_doped_state_has_magic_and_is_reproducible():
    spec = DopedCircuitSpec(n=6, v=1, t_count=3)
    psi = build_doped_state(spec, Rng(11))
    assert exact_sre(psi, 2)[1] > 1e-3
    assert np.array_equal(psi, build_doped_state(spec, Rng(11)))


def test_zero_state_cools_trivially():
    rep = cool(zero_state(4))
    assert max(rep.entropy_trace) < 1e-12
    assert rep.circuit == []


def test_stabilizer_state_cools_to_zero():
    rng = Rng(2)
    for i in range(3):
        psi = build_stabilizer_state(5, 5, rng.child(i))
        rep = cool(psi)
        assert rep.entropy_trace[-1] < 1e-8
        assert rep.sweeps_run <= 5


def test_trace_non_increasing_and_roundtrip():
    psi = build_doped_state(DopedCircuitSpec(n=5, v=1, t_count=3), Rng(7))
    rep = cool(psi)
    for a, b in zip(rep.entropy_trace, rep.entropy_trace[1:]):
        assert b <= a + 1e-9
    final = replay(psi, rep.circuit)
    got = max(entanglement_entropy(final, c) for c in range(1, 5))
    assert got == pytest.approx(rep.entropy_trace[-1], abs=1e-9)


def test_cooling_preserves_sre():
    psi = build_doped_state(DopedCircuitSpec(n=5, v=1, t_count=2), Rng(3))
    m2_in = exact_sre(psi, 2)[1]
    rep = cool(psi)
    final = replay(psi, rep.circuit)
    assert exact_sre(final, 2)[1] == pytest.approx(m2_in, abs=1e-9)


def test_cooling_scan_rows():
    rows = cooling_scan([4], [0.0, 0.5], 3, Rng(5))
    assert len(rows) == 2
    assert rows[0]["t_count"] == 0
    assert rows[0]["input_sn"] == 0.0
    assert rows[0]["cooled_sn"] == 0.0
    assert rows[1]["t_count"] == 2
    # scan is reproducible
    again = cooling_scan([4], [0.0, 0.5], 3, Rng(5))
    assert rows == again


def test_workers_do_not_change_results():
    serial = cooling_scan([4], [0.5], 4, Rng(6), workers=1)
    threaded = cooling_scan([4], [0.5], 4, Rng(6), workers=3)
    assert serial == threaded


def test_coset_table_rebuilt_from_enumeration():
    from cmpslab.cooling import COSET_CIRCUITS, _coset_gates
    from cmpslab.dense import dense_clifford_group
    from cmpslab.tableau import enumerate_clifford_group, tableau_from_circuit

    group = dense_clifford_group(2)

    def schmidt(m):
        # operator Schmidt coefficients: singular values of the realignment;
        # a 4x4 unitary is a product a (x) b iff there is one
        r = m.reshape(-1, 2, 2, 2, 2).transpose(0, 1, 3, 2, 4).reshape(-1, 4, 4)
        return np.linalg.svd(r, compute_uv=False)

    coset = np.full(len(group), -1)
    firsts = []
    for i in range(len(group)):
        if coset[i] < 0:
            members = schmidt(group @ group[i].conj().T)[:, 1] < 1e-9  # h = l g, l local
            assert np.all(coset[members] == -1)
            coset[members] = len(firsts)
            firsts.append(i)
    assert np.all(np.bincount(coset) == 576)
    assert len(firsts) == len(COSET_CIRCUITS) == 20
    tabs = enumerate_clifford_group(2)
    for circuit, i in zip(COSET_CIRCUITS, firsts):
        assert [(name, list(q)) for name, q in circuit] == list(reversed(tabs[i].word))
        assert tableau_from_circuit(circuit, 2) == tabs[i]
    assert np.array_equal(_coset_gates(), group[firsts])
    # class split 1 + 9 + 9 + 1: operator Schmidt rank 1 (local), 2 (CNOT-like),
    # 4 (iSWAP- and SWAP-like)
    ranks = np.sum(schmidt(_coset_gates()) > 1e-9, axis=1)
    assert np.bincount(ranks).tolist() == [0, 1, 9, 0, 10]
    with pytest.raises(ValueError):
        _coset_gates()[0, 0, 0] = 0


def full_group_cool(psi, sweeps):
    """The greedy sweep of `cool` over all 11520 two-qubit Cliffords, lowest
    enumeration index within 1e-12 of the minimum."""
    from cmpslab.dense import dense_clifford_group
    from cmpslab.tableau import enumerate_clifford_group

    group = dense_clifford_group(2)
    words = [t.word for t in enumerate_clifford_group(2)]
    n = int(np.log2(len(psi)))

    def max_cut(v):
        return max(entanglement_entropy(v, c) for c in range(1, n))

    trace, circuit = [max_cut(psi)], []
    for _ in range(sweeps):
        moved = False
        for bond in range(n - 1):
            theta = psi.reshape(1 << bond, 4, -1)
            k = np.einsum("gxy,ayb->gaxb", group, theta).reshape(len(group), 2 << bond, -1)
            p = np.linalg.svd(k, compute_uv=False) ** 2
            ents = -np.sum(np.where(p > 1e-18, p * np.log(np.maximum(p, 1e-300)), 0.0), axis=1)
            idx = int(np.flatnonzero(ents <= ents.min() + 1e-12)[0])
            if idx:
                psi = apply_gate(psi, group[idx], (bond, bond + 1))
                circuit += [(name, [bond + q for q in qs]) for name, qs in reversed(words[idx])]
                moved = True
        trace.append(max_cut(psi))
        if not moved or trace[-1] < 1e-12:
            break
    return trace, circuit


# ids end in the objective, the cut entropy at the bond
@pytest.mark.parametrize(
    "n,t_count,seed,sweeps",
    [(5, 3, 21, 5), (5, 5, 26, 5), (8, 4, 23, 2)],
    ids=["5-3-21-5-cut", "5-5-26-5-cut", "8-4-23-2-cut"],
)
def test_coset_search_matches_full_group(n, t_count, seed, sweeps):
    psi = build_doped_state(DopedCircuitSpec(n=n, v=1, t_count=t_count), Rng(seed))
    rep = cool(psi, sweeps=sweeps)
    trace, circuit = full_group_cool(psi, sweeps)
    assert len(rep.entropy_trace) == len(trace)
    assert np.allclose(rep.entropy_trace, trace, rtol=0, atol=1e-12)
    assert rep.circuit == circuit
    final = replay(psi, rep.circuit)
    got = max(entanglement_entropy(final, c) for c in range(1, n))
    assert got == pytest.approx(rep.entropy_trace[-1], abs=1e-12)

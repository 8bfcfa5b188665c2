import numpy as np
import pytest

from cmpslab.dense import apply_gate, entanglement_entropy, haar_state, pauli_expectation_dense, purity
from cmpslab.kernels import Rng, haar_unitary, svd_truncate
from cmpslab import mps
from cmpslab.mps import (
    MpsState,
    apply_two_qubit_gate,
    bipartition_purity,
    bond_dims,
    entanglement_profile,
    load_mps,
    mps_from_statevector,
    pauli_expectation,
    rmps_chunks,
    sample_rmps_obc,
    sample_rmps_sites,
    save_mps,
    statevectors,
)
from cmpslab.paulis import hermitian_pauli_from_index


def test_bond_profile_shapes():
    assert bond_dims(6, 8) == [1, 8, 8, 8, 4, 2, 1]
    assert bond_dims(4, 1) == [1, 1, 1, 1, 1]
    # full cap recovers an unconstrained state
    assert bond_dims(4, 8) == [1, 8, 4, 2, 1]
    with pytest.raises(ValueError):
        bond_dims(4, 3)


def _assert_right_normal(state):
    for t in state.tensors:
        m = t.reshape(t.shape[0], -1)
        assert np.max(np.abs(m @ m.conj().T - np.eye(t.shape[0]))) < 1e-12


def test_sampler_normalized_and_right_canonical():
    st = sample_rmps_obc(6, 4, Rng(1))
    assert st.norm() == pytest.approx(1.0, abs=1e-12)
    _assert_right_normal(st)


def test_sampler_haar_at_full_cap():
    # chi = 2^(N-1): the first unitary covers the whole system, so the
    # ensemble is Haar; check the mean half-cut purity against the closed form
    rng = Rng(2)
    n, samples = 4, 800
    purs = []
    for i in range(samples):
        psi = sample_rmps_obc(n, 8, rng.child(i)).to_statevector()
        purs.append(purity(psi, 2))
    da = db = 4
    want = (da + db) / (da * db + 1)
    se = np.std(purs, ddof=1) / np.sqrt(samples)
    assert abs(np.mean(purs) - want) < 4 * se


def _haar_unitary_ref(dim, rng):
    """Reference copy of the per-stream Haar unitary: one Ginibre draw, one
    QR, the R diagonal phase divided out."""
    g = rng.gen
    z = (g.normal(size=(dim, dim)) + 1j * g.normal(size=(dim, dim))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def _rmps_statevector_ref(n, chi_max, rng):
    """Reference copy of one staircase sample contracted site by site."""
    dims = bond_dims(n, chi_max)
    v = np.ones((1, 1), dtype=complex)
    for i in range(n):
        t = _haar_unitary_ref(2 * dims[i + 1], rng)[: dims[i]].reshape(dims[i], 2, dims[i + 1])
        v = np.einsum("ka,asb->ksb", v, t).reshape(-1, dims[i + 1])
    return v[:, 0]


CASES = [(1, 1), (2, 1), (2, 2), (3, 2), (3, 4), (6, 1), (6, 4), (6, 32)]


@pytest.mark.parametrize("n,chi", CASES)
def test_one_stream_sample_matches_reference(n, chi):
    rng = Rng(11)
    for i in range(3):
        want = _rmps_statevector_ref(n, chi, rng.child(i))
        assert sample_rmps_obc(n, chi, rng.child(i)).to_statevector().tobytes() == want.tobytes()
    assert haar_unitary(8, rng.child(9)).tobytes() == _haar_unitary_ref(8, rng.child(9)).tobytes()


@pytest.mark.parametrize("stack_bytes", [1, mps.STACK_BYTES])
@pytest.mark.parametrize("n,chi", CASES)
def test_batched_statevectors_match_one_at_a_time(monkeypatch, stack_bytes, n, chi):
    # 20 streams: chunks of 1 under a 1-byte budget; at the default budget
    # one chunk, or 16 + 4 at (6, 32), where a sample stacks 64 KB
    monkeypatch.setattr(mps, "STACK_BYTES", stack_bytes)
    rng = Rng(12)
    got = [psi for chunk in rmps_chunks(n, chi, (rng.child(i) for i in range(20)))
           for psi in statevectors(sample_rmps_sites(n, chi, chunk))]
    assert len(got) == 20
    for i, psi in enumerate(got):
        assert psi.tobytes() == _rmps_statevector_ref(n, chi, rng.child(i)).tobytes()


def test_chunks_follow_the_largest_per_site_stack():
    # (6, 32): the 64x64 site-1 Ginibre block is 64 KB, 16 samples per MB;
    # (10, 256): a 512x512 block is 4 MB, so every chunk is one sample;
    # (10, 1): the 2^10 statevector stack is the largest, 16 KB a sample
    assert [len(c) for c in rmps_chunks(6, 32, range(20))] == [16, 4]
    assert [len(c) for c in rmps_chunks(10, 256, range(3))] == [1, 1, 1]
    assert [len(c) for c in rmps_chunks(10, 1, range(100))] == [64, 36]
    assert list(rmps_chunks(3, 2, [])) == []


def test_pauli_expectation_matches_dense():
    rng = Rng(3)
    psi = haar_state(5, rng)
    st = mps_from_statevector(psi)
    assert abs(np.vdot(st.to_statevector(), psi)) == pytest.approx(1.0, abs=1e-10)
    for _ in range(30):
        p = hermitian_pauli_from_index(5, int(rng.gen.integers(32)), int(rng.gen.integers(32)))
        assert pauli_expectation(st, p) == pytest.approx(
            pauli_expectation_dense(psi, p), abs=1e-10
        )


def test_gate_application_matches_dense():
    # the full cap 2^(N/2) truncates nothing, so every site must match exactly
    rng = Rng(4)
    psi = haar_state(6, rng)
    st = mps_from_statevector(psi)
    for site in range(5):
        g = haar_unitary(4, rng)
        st2, disc = apply_two_qubit_gate(st, g, site, chi_max=8)
        assert disc == 0.0
        _assert_right_normal(st2)
        want = apply_gate(psi, g, [site, site + 1])
        assert np.max(np.abs(st2.to_statevector() - want)) < 1e-12


def _apply_two_qubit_gate_ref(tensors, gate, site, chi_max):
    """Reference copy of the gate with full re-normalization: sites
    0..site-1 QR'd left, the two-site SVD, sites site..1 LQ'd right. Takes
    and returns right-normal tensors, with the discarded weight."""
    ts = list(tensors)
    for i in range(site):
        chi_r = ts[i].shape[2]
        q, r = np.linalg.qr(ts[i].reshape(-1, chi_r))
        ts[i] = q.reshape(ts[i].shape[0], 2, q.shape[1])
        ts[i + 1] = np.einsum("ab,bsc->asc", r, ts[i + 1])
    a, b = ts[site], ts[site + 1]
    chi_l, chi_r = a.shape[0], b.shape[2]
    theta = np.einsum("asb,btc->astc", a, b).reshape(chi_l, 4, chi_r)
    theta = np.einsum("uv,avb->aub", np.asarray(gate, dtype=complex), theta)
    u, s, vh, discarded = svd_truncate(theta.reshape(chi_l * 2, 2 * chi_r), chi_max)
    s = s / np.linalg.norm(s)
    ts[site] = (u * s).reshape(chi_l, 2, len(s))
    ts[site + 1] = vh.reshape(len(s), 2, chi_r)
    for i in range(site, 0, -1):
        chi_r = ts[i].shape[2]
        qh, rh = np.linalg.qr(ts[i].reshape(ts[i].shape[0], -1).conj().T)
        ts[i] = qh.conj().T.reshape(-1, 2, chi_r)
        ts[i - 1] = np.einsum("asb,cb->asc", ts[i - 1], rh.conj())
    return ts, float(discarded)


@pytest.mark.parametrize("chi_max", [1, 2, 8])
def test_single_gate_matches_full_renormalization_bytes(chi_max):
    # on a fresh (centre 0) state the centre route does the reference's
    # factorizations in the reference's order
    rng = Rng(9)
    st = sample_rmps_obc(7, 8, rng)
    for site in range(6):
        g = haar_unitary(4, rng)
        st2, disc = apply_two_qubit_gate(st, g, site, chi_max)
        want, want_disc = _apply_two_qubit_gate_ref(st.tensors, g, site, chi_max)
        assert disc == want_disc
        assert [t.tobytes() for t in st2.tensors] == [t.tobytes() for t in want]
        assert st2.bond_dims == [t.shape[0] for t in want] + [1]


def test_tensors_right_normal_after_any_gate_sequence():
    # keep every intermediate state unread, so each gate starts from the
    # centre the previous one left, then read them all
    rng = Rng(10)
    st = sample_rmps_obc(8, 8, rng)
    states = []
    for _ in range(40):
        site = int(rng.gen.integers(7))
        chi_max = int(rng.gen.choice([1, 2, 4, 16]))
        st, disc = apply_two_qubit_gate(st, haar_unitary(4, rng), site, chi_max)
        states.append(st)
    for st in states:
        _assert_right_normal(st)
        assert st.norm() == pytest.approx(1.0, abs=1e-12)


def test_concurrent_first_reads_of_tensors_agree():
    # several threads race to build and store the right-normal view of the
    # same centred states; each must see one whole view, the same bytes
    import sys
    import threading

    rng = Rng(12)
    st = sample_rmps_obc(10, 8, rng)
    states = []
    for site in (8, 3, 6, 2, 7):
        st, _ = apply_two_qubit_gate(st, haar_unitary(4, rng), site, 4)
        states.append(st)
    want = [[t.tobytes() for t in mps.MpsState._centred(*s._form).tensors] for s in states]
    seen = [[] for _ in states]

    def read():
        for i, s in enumerate(states):
            seen[i].append([t.tobytes() for t in s.tensors])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=read) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for views, w in zip(seen, want):
        assert len(views) == 6 and all(v == w for v in views)


def test_gate_truncation_renormalizes():
    # chi_max = 1 truncates at every bond of a chi = 8 state
    rng = Rng(5)
    st = sample_rmps_obc(7, 8, rng)
    for site in range(6):
        st2, disc = apply_two_qubit_gate(st, haar_unitary(4, rng), site, chi_max=1)
        assert 0 < disc < 1
        _assert_right_normal(st2)
        assert st2.norm() == pytest.approx(1.0, abs=1e-12)


def test_from_statevector_keeps_phase_and_normalizes():
    psi = 3 * np.exp(0.7j) * haar_state(5, Rng(8))
    st = mps_from_statevector(psi)
    _assert_right_normal(st)
    assert np.max(np.abs(st.to_statevector() - psi / np.linalg.norm(psi))) < 1e-12


def test_cnot_makes_bell_pair():
    st = MpsState.product_state([(1 / np.sqrt(2), 1 / np.sqrt(2)), (1, 0)])
    cnot = np.eye(4)[[0, 1, 3, 2]]
    st2, _ = apply_two_qubit_gate(st, cnot, 0, chi_max=2)
    psi = st2.to_statevector()
    want = np.zeros(4)
    want[0] = want[3] = 1 / np.sqrt(2)
    assert abs(np.vdot(psi, want)) == pytest.approx(1.0, abs=1e-12)


def test_purity_and_entropy_match_dense():
    rng = Rng(6)
    psi = haar_state(6, rng)
    st = mps_from_statevector(psi)
    for cut in (1, 2, 3, 5):
        assert bipartition_purity(st, cut) == pytest.approx(purity(psi, cut), abs=1e-10)
    prof = entanglement_profile(st)
    for cut in range(1, 6):
        assert prof.entropies[cut - 1] == pytest.approx(
            entanglement_entropy(psi, cut), abs=1e-9
        )


def test_ghz_profile():
    ghz = np.zeros(16, dtype=complex)
    ghz[0] = ghz[15] = 1 / np.sqrt(2)
    prof = entanglement_profile(mps_from_statevector(ghz))
    assert np.allclose(prof.entropies, np.log(2), atol=1e-10)
    assert prof.max_entropy == pytest.approx(np.log(2), abs=1e-10)


def test_serialization_roundtrip(tmp_path):
    rng = Rng(7)
    st = sample_rmps_obc(5, 4, rng)
    path = tmp_path / "state.mps"
    save_mps(st, path, seed=7)
    back = load_mps(path)
    assert back.bond_dims == st.bond_dims
    assert abs(np.vdot(back.to_statevector(), st.to_statevector())) == pytest.approx(
        1.0, abs=1e-12
    )
    # header is plain JSON after the 8-byte length
    import json
    import struct

    with open(path, "rb") as fh:
        (hlen,) = struct.unpack("<Q", fh.read(8))
        header = json.loads(fh.read(hlen))
    assert header["format"] == "mps-v1"
    assert header["seed"] == 7
    assert header["bond_dims"] == st.bond_dims


def test_load_rejects_unknown_format(tmp_path):
    import json
    import struct

    path = tmp_path / "bad.mps"
    blob = json.dumps({"format": "mps-v9"}).encode()
    path.write_bytes(struct.pack("<Q", len(blob)) + blob)
    with pytest.raises(ValueError):
        load_mps(path)


def test_load_reports_truncated_body(tmp_path):
    st = sample_rmps_obc(4, 2, Rng(3))
    path = tmp_path / "state.mps"
    save_mps(st, path)
    data = path.read_bytes()
    path.write_bytes(data[:-40])
    body = 16 * sum(t.size for t in st.tensors)
    with pytest.raises(ValueError, match=f"expected {body} bytes.*found {body - 40}"):
        load_mps(path)


def _write_mps(path, header, body=b""):
    import json
    import struct

    blob = json.dumps(header).encode()
    path.write_bytes(struct.pack("<Q", len(blob)) + blob + body)


@pytest.mark.parametrize(
    "header,match",
    [
        ({"format": "mps-v1", "bond_dims": [1, 1]}, "n must be an integer >= 1, found None"),
        ({"format": "mps-v1", "n": 0, "bond_dims": [1]}, "n must be an integer >= 1, found 0"),
        ({"format": "mps-v1", "n": 3, "bond_dims": [1, 2, 1]}, r"bond_dims must be 4 positive integers"),
        ({"format": "mps-v1", "n": 2}, r"bond_dims must be 3 positive integers, found None"),
        (["mps-v1", 2], "header is not a JSON object"),
    ],
    ids=["no_n", "n_zero", "short_bond_dims", "no_bond_dims", "list_header"],
)
def test_load_rejects_malformed_header(tmp_path, header, match):
    path = tmp_path / "bad.mps"
    _write_mps(path, header, b"\0" * 64)
    with pytest.raises(ValueError, match=match) as err:
        load_mps(path)
    assert str(path) in str(err.value)


def test_load_rejects_truncated_length_prefix(tmp_path):
    path = tmp_path / "bad.mps"
    path.write_bytes(b"\x10\0\0")
    with pytest.raises(ValueError, match="expected an 8-byte header length, found 3 bytes") as err:
        load_mps(path)
    assert str(path) in str(err.value)


def test_load_rejects_header_that_is_not_json(tmp_path):
    import struct

    path = tmp_path / "bad.mps"
    path.write_bytes(struct.pack("<Q", 4) + b"\xff{}x")
    with pytest.raises(ValueError, match="header is not UTF-8 JSON") as err:
        load_mps(path)
    assert str(path) in str(err.value)


def test_empty_mps_is_a_value_error():
    with pytest.raises(ValueError, match="at least one site"):
        MpsState([])

import functools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from click.testing import CliRunner

from cmpslab import dense, ensembles, mps, tableau
from cmpslab.cli import main
from cmpslab.dense import clifford_4fold_coefficients, haar_state, purity
from cmpslab.ensembles import (
    cmps_sampler,
    cmps_statevector,
    design_distance_delta4,
    frame_potential_exact_stab,
    frame_potential_mc,
    haar_frame_potential,
    haar_sampler,
    purity_fluctuation_formulas,
    purity_fluctuation_mc,
    sample_cmps,
    stab_purity_exhaustive,
    stab_sampler,
    stab_states_exhaustive,
)
from cmpslab.kernels import Rng
from cmpslab.tableau import random_clifford, tableau_to_dense


def test_stab_state_counts():
    assert stab_states_exhaustive(1).shape == (6, 2)
    assert stab_states_exhaustive(2).shape == (60, 4)


def test_stab_exhaustive_purity_moments():
    mean, var = stab_purity_exhaustive(2)
    assert mean == pytest.approx(0.8, abs=1e-9)
    assert var == pytest.approx(purity_fluctuation_formulas(4, "STAB"), abs=1e-9)
    assert var == pytest.approx(0.06, abs=1e-9)


def test_stab_frame_potentials_exact():
    assert frame_potential_exact_stab(2, 4) == pytest.approx(1 / 32, abs=1e-9)
    # STAB is a 3-design: k <= 3 matches Haar
    for k in (1, 2, 3):
        assert frame_potential_exact_stab(2, k) == pytest.approx(
            haar_frame_potential(4, k), abs=1e-9
        )


def test_stab_frame_potentials_match_haar_to_rounding():
    # the states are built once; the frame potential is a closed form, so
    # the 3-design identity holds to double precision
    assert stab_states_exhaustive(2) is stab_states_exhaustive(2)
    for k in (1, 2, 3):
        assert abs(frame_potential_exact_stab(2, k) - haar_frame_potential(4, k)) < 1e-14


def _stab_fp_reference(n, k):
    """F^(k)_STAB(N) = sum_j [N choose j]_2 2^{j(j+3)/2 - jk} / (2^N prod_i (2^i + 1)), in fractions."""
    total = Fraction(0)
    for j in range(n + 1):
        gauss = Fraction(1)
        for i in range(j):
            gauss *= Fraction(2 ** (n - i) - 1, 2 ** (i + 1) - 1)
        total += gauss * Fraction(2) ** (j * (j + 3) // 2 - j * k)
    return total / (2**n * math.prod(2**i + 1 for i in range(1, n + 1)))


@pytest.mark.parametrize("n", range(1, 13))
def test_stab_frame_potential_is_the_rounded_closed_form(n):
    for k in range(1, 5):
        assert frame_potential_exact_stab(n, k) == float(_stab_fp_reference(n, k))


def test_stab_closed_form_is_a_3_design_and_known_f4():
    for n in range(1, 9):
        d = 2**n
        for k in (1, 2, 3):
            assert _stab_fp_reference(n, k) == Fraction(1, math.comb(d + k - 1, k))
    f4 = [Fraction(5, 24), Fraction(1, 32), Fraction(1, 288), Fraction(1, 3264), Fraction(5, 215424)]
    assert [_stab_fp_reference(n, 4) for n in range(1, 6)] == f4


@pytest.mark.parametrize("n", [1, 2])
def test_stab_closed_form_matches_the_enumerated_states(n):
    states = stab_states_exhaustive(n)
    for k in range(1, 5):
        mean = float(np.mean(np.abs(states @ states.conj().T) ** (2 * k)))
        assert abs(frame_potential_exact_stab(n, k) - mean) < 1e-15


@pytest.mark.parametrize("n,k", [(0, 1), (-1, 2), (2, 0), (3, -1)])
def test_stab_frame_potential_rejects_bad_arguments(n, k):
    with pytest.raises(ValueError):
        frame_potential_exact_stab(n, k)


def test_stab_frame_potential_and_design_audit_skip_the_clifford_group(monkeypatch):
    def boom(*args, **kwargs):
        raise AssertionError("enumerated the Clifford group")

    monkeypatch.setattr(ensembles, "stab_states_exhaustive", boom)
    monkeypatch.setattr(dense, "dense_clifford_group", boom)
    monkeypatch.setattr(tableau, "enumerate_clifford_group", boom)
    for k in range(1, 5):
        assert frame_potential_exact_stab(2, k) == float(_stab_fp_reference(2, k))
    result = CliRunner().invoke(main, ["design-audit", "--n", "2", "--pairs", "2", "--out", "-"])
    assert result.exit_code == 0, result.output
    assert "stab_exact,4,0.03125," in result.output


def _stab_states_by_closure(n):
    """All N-qubit stabilizer states, |0...0> closed under H, S and CNOT on
    statevectors and deduplicated up to global phase."""
    h = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    s = np.diag([1, 1j])

    def on(q, g):
        return functools.reduce(np.kron, [g if i == q else np.eye(2) for i in range(n)])

    gates = [on(q, g) for q in range(n) for g in (h, s)]
    for c in range(n):
        for t in range(n):
            if c != t:
                gates.append(on(c, np.diag([0, 1])) @ on(t, np.array([[0, 1], [1, 0]])) + on(c, np.diag([1, 0])))

    def key(v):
        # -0.0 and +0.0 must give the same bytes, or the closure never closes
        return (np.round(v, 9) + 0.0).tobytes()

    start = np.zeros(2**n, dtype=complex)
    start[0] = 1
    seen = {key(start): start}
    frontier = [start]
    while frontier:
        new = []
        for v in frontier:
            for g in gates:
                w = g @ v
                first = w[np.argmax(np.abs(w) > 1e-9)]
                w = w * (abs(first) / first)
                if key(w) not in seen:
                    seen[key(w)] = w
                    new.append(w)
        frontier = new
    return np.array(list(seen.values()))


def test_stab_closed_form_matches_an_independent_n3_closure():
    states = _stab_states_by_closure(3)
    assert len(states) == 1080
    overlaps = np.abs(states @ states.conj().T) ** 2
    for k in range(1, 5):
        assert abs(float(np.mean(overlaps**k)) - frame_potential_exact_stab(3, k)) < 1e-12


def test_clifford_twirl_at_stabilizer_m2_gives_the_closed_form():
    # every stabilizer state has m_2 = 1/d, so its 4-fold Clifford twirl is
    # the whole 4th moment of the stabilizer ensemble
    for n in range(1, 6):
        d = 2**n
        alpha, beta = clifford_4fold_coefficients(d, Fraction(1, d))
        tr_qp, tr_p = Fraction((d + 1) * (d + 2), 6), math.comb(d + 3, 4)
        assert (alpha + beta) ** 2 * tr_qp + beta**2 * (tr_p - tr_qp) == _stab_fp_reference(n, 4)


def test_haar_frame_potential_mc():
    est = frame_potential_mc(haar_sampler(2), 4, 2500, Rng(1))
    assert abs(est.mean - 1 / 35) < 4 * est.std_error


def test_stab_sampler_matches_exhaustive():
    est = frame_potential_mc(stab_sampler(2), 4, 2500, Rng(2))
    assert abs(est.mean - 1 / 32) < 4 * est.std_error


def test_design_distance_examples():
    # STAB at d=4 has delta = 12/7, giving (Delta^4)^2 = 3/32
    assert design_distance_delta4(12 / 7, 4) ** 2 == pytest.approx(3 / 32, abs=1e-12)
    assert design_distance_delta4(0.0, 8) == 0.0
    with pytest.raises(ValueError):
        design_distance_delta4(-1.0, 4)


def test_purity_formulas_consistency():
    d = 16
    haar = purity_fluctuation_formulas(d, "Haar")
    assert purity_fluctuation_formulas(d, "CMPS", 0.0) == pytest.approx(haar)
    assert purity_fluctuation_formulas(d, "CMPS", 1.0) > haar
    with pytest.raises(ValueError):
        purity_fluctuation_formulas(d, "CMPS")


def test_haar_purity_fluctuation_mc():
    est = purity_fluctuation_mc(haar_sampler(2), 3000, Rng(4))
    want = purity_fluctuation_formulas(4, "Haar")
    assert abs(est.mean - want) < 4 * est.std_error


def test_cmps_full_cap_matches_haar_fluctuations():
    # chi = 2^(N-1) makes the MPS factor Haar, so CMPS is Haar
    est = purity_fluctuation_mc(cmps_sampler(2, 2), 3000, Rng(5))
    want = purity_fluctuation_formulas(4, "Haar")
    assert abs(est.mean - want) < 4 * est.std_error


def test_haar_frame_potential_closed_form():
    for d, k in ((4, 1), (4, 4), (8, 3)):
        assert haar_frame_potential(d, k) == 1 / math.comb(d + k - 1, k)


def _streams(rng, count):
    return [rng.child(i) for i in range(count)]


@pytest.mark.parametrize("stack_bytes", [1, mps.STACK_BYTES])
@pytest.mark.parametrize("n,chi", [(1, 1), (2, 1), (2, 2), (3, 2), (3, 4), (6, 1), (6, 4), (6, 32)])
def test_cmps_batch_matches_one_at_a_time(monkeypatch, stack_bytes, n, chi):
    # 20 streams: chunks of 1 under a 1-byte budget; at the default budget
    # one chunk, or 16 + 4 at (6, 32)
    monkeypatch.setattr(mps, "STACK_BYTES", stack_bytes)
    rng = Rng(21)
    got = list(cmps_sampler(n, chi)(rng.child(i) for i in range(20)))
    assert len(got) == 20
    for i, psi in enumerate(got):
        assert psi.tobytes() == cmps_statevector(sample_cmps(n, chi, rng.child(i))).tobytes()


def test_haar_and_stab_batches_match_one_at_a_time():
    rng = Rng(22)
    for psi, r in zip(haar_sampler(3)(_streams(rng, 7)), _streams(rng, 7)):
        assert psi.tobytes() == haar_state(3, r).tobytes()
    for psi, r in zip(stab_sampler(3)(_streams(rng, 7)), _streams(rng, 7)):
        want = tableau_to_dense(random_clifford(3, r))[:, 0]
        # the same strided column: np.vdot rounds a contiguous copy differently
        assert psi.strides == want.strides
        assert psi.tobytes() == want.tobytes()


def test_estimators_densify_each_drawn_clifford_and_take_each_purity(monkeypatch):
    drawn, densified, purities = [], [], []

    def draw(n, rng):
        drawn.append(random_clifford(n, rng))
        return drawn[-1]

    def densify(t):
        densified.append(t)
        return tableau_to_dense(t)

    def pur(psi):
        purities.append(purity(psi))
        return purities[-1]

    monkeypatch.setattr(ensembles, "random_clifford", draw)
    monkeypatch.setattr(ensembles, "tableau_to_dense", densify)
    monkeypatch.setattr(ensembles, "purity", pur)
    for k in (1, 4):
        drawn.clear()
        densified.clear()
        frame_potential_mc(cmps_sampler(3, 2), k, 7, Rng(23))
        assert len(densified) == 14
        assert all(t is d for t, d in zip(densified, drawn)) and len(drawn) == 14
    est = purity_fluctuation_mc(cmps_sampler(4, 2), 9, Rng(24))
    assert len(purities) == 9
    assert est.mean == float(np.var(purities, ddof=1))


def _traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_cmps_batch_memory_stays_near_one_sample():
    # at N = 10, chi = 256 one sample stacks two 4 MB Ginibre blocks, so an
    # unchunked batch of 20 peaks at several hundred MB
    one = _traced_peak(lambda: cmps_statevector(sample_cmps(10, 256, Rng(25))))
    batch = _traced_peak(lambda: list(cmps_sampler(10, 256)(Rng(25).child(i) for i in range(20))))
    assert batch <= 2 * one

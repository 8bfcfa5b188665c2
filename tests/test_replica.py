from fractions import Fraction

import numpy as np
import pytest

from cmpslab.kernels import Rng
from cmpslab.mps import BondProfile
from cmpslab.replica import (
    delta_chi,
    fit_power_law,
    haar_magic_closed_form,
    haar_magic_scaled,
    leading_eigenvalue,
    obc_chain_value,
    pauli_weight_g,
    pbc_delta,
    pbc_trace,
    sk_tables,
    symmetric_projector_pauli_trace,
    transfer_matrix_site,
    transfer_sector,
    transfer_spectrum,
    weingarten_matrix,
)


def test_weingarten_k2_closed_form():
    _, index, _, _ = sk_tables(2)
    for q in (2, 4, 7, 16):
        w = weingarten_matrix(2, q)
        assert w[0, index[(0, 1)]] == pytest.approx(1 / (q**2 - 1), abs=1e-14)
        assert w[0, index[(1, 0)]] == pytest.approx(-1 / (q * (q**2 - 1)), abs=1e-14)


def test_gram_weingarten_identity():
    for k, q in ((4, 8), (4, 32), (6, 8), (6, 32)):
        _, _, ccount, _ = sk_tables(k)
        gram = float(q) ** ccount.astype(float)
        w = weingarten_matrix(k, q)
        assert np.max(np.abs(gram @ w - np.eye(len(gram)))) < 1e-10


def test_pseudo_inverse_satisfies_gwg():
    # q < k: the Gram is singular; GWG = G must still hold
    _, _, ccount, _ = sk_tables(6)
    gram = 2.0**ccount.astype(float)
    w = weingarten_matrix(6, 2)
    assert np.max(np.abs(gram @ w @ gram - gram)) < 1e-8


def test_pauli_weight_examples():
    # S_4 permutations at Renyi index n=2: g = 2^(c-n) (4 if all even else 1)
    assert pauli_weight_g((0, 1, 2, 3), 2) == pytest.approx(4.0)  # identity
    assert pauli_weight_g((1, 0, 3, 2), 2) == pytest.approx(4.0)  # (01)(23)
    assert pauli_weight_g((1, 2, 3, 0), 2) == pytest.approx(2.0)  # 4-cycle


def test_symmetric_projector_traces():
    # single qubit, k=4: Tr[P sigma^x4] = 5 for identity, 1 for traceless
    assert symmetric_projector_pauli_trace(2, True) == pytest.approx(5.0)
    assert symmetric_projector_pauli_trace(2, False) == pytest.approx(1.0)


@pytest.mark.parametrize("n_sites", [1, 4, 16, 64])
def test_chi1_product_law(n_sites):
    assert obc_chain_value(4, 1, n_sites, 2) == pytest.approx((8 / 5) ** n_sites, rel=1e-10)
    assert obc_chain_value(6, 1, n_sites, 3) == pytest.approx((10 / 7) ** n_sites, rel=1e-10)


def test_identity_weight_chain_is_one():
    for n_sites, chi in ((4, 2), (16, 8), (64, 32)):
        assert obc_chain_value(4, chi, n_sites, 2, weight="identity") == pytest.approx(
            1.0, abs=1e-10
        )
    assert obc_chain_value(6, 4, 8, 3, weight="identity") == pytest.approx(1.0, abs=1e-10)


def test_full_cap_chain_recovers_haar():
    for n_sites in (2, 3, 4):
        chi = 2 ** (n_sites - 1)
        got = obc_chain_value(4, chi, n_sites, 2)
        assert got == pytest.approx(haar_magic_scaled(1 << n_sites, 2), rel=1e-8)


def test_k4_spectrum_series():
    for chi in (16, 64):
        lam1 = leading_eigenvalue(4, chi, 2)
        series = 1 + 9 / (4 * chi**2) - 171 / (16 * chi**4) + 5265 / (64 * chi**6)
        assert lam1 == pytest.approx(series, abs=1e-5)
    lam = np.sort(transfer_spectrum(4, 64, 2).real)[::-1]
    cluster = 1 - 3 / (4 * 64**2) - 3 / (16 * 64**4)
    assert np.allclose(lam[1:4], cluster, atol=1e-6)
    rest = lam[4:]
    assert np.all(
        (np.abs(rest - 0.5) < 0.05) | (np.abs(rest - 0.25) < 0.05) | (np.abs(rest) < 0.3)
    )


def test_transfer_spectrum_cached_and_read_only():
    lam = transfer_spectrum(4, 8, 2)
    assert transfer_spectrum(4, 8, 2) is lam
    with pytest.raises(ValueError):
        lam[0] = 0.0
    assert np.all(np.diff(lam.real) <= 0)


def test_pbc_trace_consistent_with_delta():
    d4 = pbc_trace(4, 4, 3, 2) - haar_magic_scaled(8, 2)
    assert pbc_delta(3, 4, 2) == pytest.approx(d4, rel=1e-9)


def test_haar_closed_forms():
    assert haar_magic_closed_form(4, 2) == pytest.approx(1 / 7)
    assert haar_magic_closed_form(4, 3) == pytest.approx(0.0267857142857, abs=1e-10)
    # scaled variant agrees where both are finite
    assert haar_magic_scaled(16, 2) == pytest.approx(16**2 * haar_magic_closed_form(16, 2))


def test_delta_chi_product_example():
    # chi=1, N=4: (8/5)^4 - d^2 E_H[m_2]
    dev = delta_chi(4, 1, 2)
    assert dev.delta == pytest.approx((8 / 5) ** 4 - haar_magic_scaled(16, 2), rel=1e-10)
    assert dev.delta == pytest.approx(3.1851789, abs=1e-6)


def test_delta_chi_mc_agrees_with_analytic():
    analytic = delta_chi(4, 2, 2).delta
    mc = delta_chi(4, 2, 2, method="mc", rng=Rng(13), samples=2500)
    assert abs(mc.delta - analytic) < 4 * mc.se


def test_fit_power_law_exact_and_pinned():
    pts = [(c, 7.5 * c**-3.0) for c in (4, 8, 16, 32)]
    fit = fit_power_law(pts)
    assert fit.exponent == pytest.approx(-3.0, abs=1e-12)
    assert fit.coefficient == pytest.approx(7.5, rel=1e-12)
    pinned = fit_power_law(pts, exponent=-3.0)
    assert pinned.coefficient == pytest.approx(7.5, rel=1e-12)


def test_fit_power_law_excludes_nonpositive():
    with pytest.warns(UserWarning):
        fit = fit_power_law([(2, 16.0), (4, 4.0), (8, 1.0), (16, -0.001)])
    assert fit.exponent == pytest.approx(-2.0, abs=1e-12)
    # leading_eigenvalue(...) - 1 is a Fraction; excluding one must still warn
    with pytest.warns(UserWarning):
        fit = fit_power_law([(2, Fraction(16)), (4, Fraction(4)), (8, Fraction(1)), (16, Fraction(0))])
    assert fit.exponent == pytest.approx(-2.0, abs=1e-12)


def test_k6_leading_eigenvalue_precise_path():
    loose = leading_eigenvalue(6, 8, 3)
    tight = leading_eigenvalue(6, 8, 3, precise=True)
    assert tight - 1 > 0
    assert loose == pytest.approx(tight, rel=1e-6)


@pytest.mark.parametrize("k", [4, 6])
@pytest.mark.parametrize("chi,n_sites", [(1, 8), (2, 10), (8, 64)])
def test_class_sector_chain_matches_full_product(k, chi, n_sites):
    prof = BondProfile(n_sites, chi)
    v = np.zeros(len(sk_tables(k)[0]))
    v[0] = 1.0
    for i in range(1, n_sites + 1):
        v = transfer_matrix_site(k, prof[i - 1], prof[i], k // 2).matrix @ v
    assert obc_chain_value(k, chi, n_sites) == pytest.approx(np.sum(v), rel=1e-12)


@pytest.mark.parametrize("k,q", [(6, 2), (6, 4), (4, 2)])
def test_pseudo_inverse_is_reflexive(k, q):
    # Moore-Penrose: W G W = W as well as G W G = G
    _, _, ccount, _ = sk_tables(k)
    gram = float(q) ** ccount.astype(float)
    w = weingarten_matrix(k, q)
    assert np.max(np.abs(w @ gram @ w - w)) < 1e-12 * np.max(np.abs(w))
    assert np.max(np.abs(gram @ w @ gram - gram)) < 1e-12 * np.max(np.abs(gram))
    assert np.array_equal(w, w.T)


def _fraction_det(rows):
    rows = [list(r) for r in rows]
    det = Fraction(1)
    for c in range(len(rows)):
        p = next(i for i in range(c, len(rows)) if rows[i][c] != 0)
        if p != c:
            rows[c], rows[p] = rows[p], rows[c]
            det = -det
        det *= rows[c][c]
        for i in range(c + 1, len(rows)):
            f = rows[i][c] / rows[c][c]
            rows[i] = [a - f * b for a, b in zip(rows[i], rows[c])]
    return det


@pytest.mark.parametrize("chi", [64, 256])
def test_k6_leading_eigenvalue_exact_bracket(chi):
    t = transfer_sector(6, chi, chi, 3)
    x = leading_eigenvalue(6, chi, 3) - 1
    assert 0 < x < 1e-9

    def char(lam):
        return _fraction_det([[v - lam * (a == b) for b, v in enumerate(row)] for a, row in enumerate(t)])

    lo = char(1 + x * (1 - Fraction(1, 10**9)))
    hi = char(1 + x * (1 + Fraction(1, 10**9)))
    assert lo * hi < 0

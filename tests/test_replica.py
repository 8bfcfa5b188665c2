import hashlib
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from cmpslab import replica
from cmpslab.ensembles import cmps_sampler, magic_deviation_mc, rmps_sampler
from cmpslab.kernels import Rng
from cmpslab.mps import bond_dims
from cmpslab.replica import (
    delta_chi,
    fit_power_law,
    haar_magic_closed_form,
    haar_magic_scaled,
    leading_eigenvalue,
    obc_chain_value,
    pbc_delta,
    pbc_trace,
    sk_classes,
    sk_tables,
    transfer_matrix_site,
    transfer_sector,
    transfer_spectrum,
    weingarten_matrix,
    weingarten_sector,
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
    # S_4 classes: the site weight is 2^n g = 2^c (4 if all cycles even else 1)
    _, index, _, label = sk_tables(4)
    weight = replica._weights(4, "pauli")
    assert weight[label[0, index[(0, 1, 2, 3)]]] == 16  # identity
    assert weight[label[0, index[(1, 0, 3, 2)]]] == 16  # (01)(23)
    assert weight[label[0, index[(1, 2, 3, 0)]]] == 8  # 4-cycle


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


@pytest.mark.parametrize("n_sites", range(1, 7))
def test_delta_chi_is_zero_at_the_full_profile(n_sites):
    for n in (2, 3):
        assert delta_chi(n_sites, 2 ** (n_sites - 1), n).delta == 0.0


def test_delta_chi_mc_agrees_with_analytic():
    # SREs are Clifford invariant, so RMPS and CMPS share delta_chi
    analytic = delta_chi(4, 2, 2).delta
    for sampler in (rmps_sampler(4, 2), cmps_sampler(4, 2)):
        mc = magic_deviation_mc(sampler, 2, 2500, Rng(13))
        assert abs(mc.mean - analytic) < 4 * mc.std_error


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
    # `precise` and `n` are ignored: every call shares one exact solve per (k, chi)
    replica._leading_eigenvalue.cache_clear()
    loose = leading_eigenvalue(6, 8, 3)
    assert leading_eigenvalue(6, 8, 3, precise=True) is loose
    assert leading_eigenvalue(6, 8, 7) is loose
    assert replica._leading_eigenvalue.cache_info().misses == 1
    assert loose - 1 > 0


@pytest.mark.parametrize("k", [4, 6])
@pytest.mark.parametrize("chi,n_sites", [(1, 8), (2, 10), (8, 64)])
def test_class_sector_chain_matches_full_product(k, chi, n_sites):
    dims = bond_dims(n_sites, chi)
    v = np.zeros(len(sk_tables(k)[0]))
    v[0] = 1.0
    for i in range(1, n_sites + 1):
        v = transfer_matrix_site(k, dims[i - 1], dims[i], k // 2).matrix @ v
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


def reference_solve(a, b):
    """A solution of the consistent system a x = b by Gauss-Jordan
    elimination in Fractions, with every free variable set to 0."""
    n = len(a)
    rows = [[Fraction(v) for v in row] for row in np.hstack([a, b])]
    pivots = []
    for c in range(n):
        r = len(pivots)
        p = next((i for i in range(r, n) if rows[i][c]), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        rows[r] = [v / rows[r][c] for v in rows[r]]
        for i in range(n):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [v - f * w for v, w in zip(rows[i], rows[r])]
        pivots.append(c)
    if any(any(row[n:]) for row in rows[len(pivots):]):
        raise ValueError("inconsistent linear system")
    x = np.zeros((n, b.shape[1]), dtype=object)
    for r, c in enumerate(pivots):
        x[c] = rows[r][n:]
    return x


def cycle_lengths(perm):
    k = len(perm)
    seen = [False] * k
    out = []
    for s in range(k):
        if seen[s]:
            continue
        ln = 0
        j = s
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            ln += 1
        out.append(ln)
    return tuple(sorted(out))


def inverse_times(a, b):
    """a^-1 b as a tuple: x -> a^-1(b(x))."""
    inv = [0] * len(a)
    for i, v in enumerate(a):
        inv[v] = i
    return tuple(inv[v] for v in b)


def reference_classes(k):
    """(perms, types, of): S_k in itertools order, the cycle types in sorted
    order, and the class of each permutation, all from pure-Python loops."""
    perms = list(itertools.permutations(range(k)))
    types = sorted({cycle_lengths(p) for p in perms})
    return perms, types, [types.index(cycle_lengths(p)) for p in perms]


def reference_class_matrix(k, base):
    """Class matrix of base^{c(sigma^-1 beta)}, composed on tuples."""
    perms, types, of = reference_classes(k)
    out = np.zeros((len(types), len(types)), dtype=object)
    for a in range(len(types)):
        rep = perms[of.index(a)]
        for b, beta in zip(of, perms):
            out[a, b] += base ** len(cycle_lengths(inverse_times(rep, beta)))
    return out


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
def test_class_data_matches_the_full_tables(k):
    # the class data and the `sk_tables` rows against the pure-Python tables:
    # every row for k <= 5, the class representatives and a sample at k = 6
    perms, types, of = reference_classes(k)
    reps, sizes = sk_classes(k)
    assert reps == [perms[of.index(a)] for a in range(len(types))]
    assert sizes.tolist() == [of.count(a) for a in range(len(types))]
    assert replica._class_data(k).ncycles.tolist() == [len(t) for t in types]
    assert replica._weights(k, "identity").tolist() == [2 ** len(t) for t in types]
    pauli = [2 ** len(t) * (4 if all(ln % 2 == 0 for ln in t) else 1) for t in types]
    assert replica._weights(k, "pauli").tolist() == pauli
    for q in (1, 2, 5, 16):
        assert np.array_equal(replica._class_matrix(k, q), reference_class_matrix(k, q))
    table_perms, index, ccount, label = sk_tables(k)
    assert table_perms == perms and index == {p: i for i, p in enumerate(perms)}
    rows = range(len(perms))
    if k == 6:
        sample = np.random.default_rng(25).choice(len(perms), 40, replace=False).tolist()
        rows = sorted({*(index[rep] for rep in reps), *sample})
    for i in rows:
        want = [of[index[inverse_times(perms[i], beta)]] for beta in perms]
        assert label[i].tolist() == want
        assert ccount[i].tolist() == [len(types[a]) for a in want]


@pytest.mark.parametrize("k", range(2, 7))
def test_class_sums_match_closed_forms(k):
    # sum over S_k of x^{c(sigma)} is the rising factorial x (x+1) ... (x+k-1)
    _, sizes = sk_classes(k)
    ncycles = replica._class_data(k).ncycles
    for x in (1, 2, 3, 7):
        assert sum(int(s) * x ** int(c) for s, c in zip(sizes, ncycles)) == math.prod(range(x, x + k))
    if k in (4, 6):
        # the one-site chain: (k+1)! d^n E_Haar[m_n] at d = 2, which is 192 and 7200
        total = int(sizes @ replica._weights(k, "pauli"))
        assert total == {4: 192, 6: 7200}[k]
        assert total == pytest.approx(math.factorial(k + 1) * haar_magic_scaled(2, k // 2), rel=1e-15)


@pytest.mark.parametrize("k", [2, 4, 6])
@pytest.mark.parametrize("q", [1, 2, 3, 4, 5, 6, 7, 8, 16, 512])
def test_weingarten_sector_matches_the_fraction_reference(k, q):
    # q < k makes the Gram singular: the pseudo-inverse branch of the formula
    gram = reference_class_matrix(k, q)
    expected = gram @ reference_solve(gram @ gram @ gram, gram)
    got = weingarten_sector(k, q)
    assert all(isinstance(v, Fraction) for v in got.flat)
    assert np.array_equal(got, expected)


def _digest(values):
    return hashlib.sha256(";".join(str(Fraction(v)) for v in values).encode()).hexdigest()


# sha256 of the exact entries, recorded from the Fraction-arithmetic kernel
PINNED_SECTORS = {
    2: ("7852f25ac218c1a5e3f4aebdba0c7c7743b0a4a5387b8a7777c89fc65e104f9c",
        "31f4ed8e15b38195bafcb7a29be23905b976091b9a5f36029efb8181db6be26b"),
    8: ("5af475aa673755facd0db09f38551323687b40eb2297df33def283dc5166b077",
        "636fb6f0a124b803a677924bd97b93ce6b9b05552735807aeffa9b565628b9fe"),
    64: ("84744e401b2d719dd659fd1c7a7beb0fbbbfe83b4fc2c790a6961d99955b02e3",
         "c2b4603e039a45ba3f41dd876f9625a88410b713d99e55e24d245e812cc9b383"),
    256: ("c1b4d7ddbba0ab9949fbfeb27ccf96fd702ef893ff75f49fdf39921e643bef9b",
          "eacb234e936532324eb2e5e85d446f59e6ed9eba5fd70b6ab60ca5b9767eb82d"),
}


@pytest.mark.parametrize("chi", sorted(PINNED_SECTORS))
def test_k6_sectors_and_lambda1_are_pinned(chi):
    sectors = [v for chi_in in (chi // 2, chi, 2 * chi) for v in transfer_sector(6, chi_in, chi, 3).flat]
    assert (_digest(sectors), _digest([leading_eigenvalue(6, chi, 3)])) == PINNED_SECTORS[chi]


# sha256 of the float bytes below, recorded from the kernel that applied the
# weight inside each integer sector and divided it back out of the site matrix
PINNED_FLOATS = "0a8a9065244d717bdef37d50b3a9afd600cb6b516ae69148c108daa699e5b63a"


def test_chain_and_site_floats_are_pinned():
    h = hashlib.sha256()
    for k in (4, 6):
        for weight in ("pauli", "identity"):
            for chi in (1, 2, 8, 64, 256):
                for n_sites in (1, 8, 64, 512):
                    h.update(np.float64(obc_chain_value(k, chi, n_sites, k // 2, weight)).tobytes())
        for chi in (2, 16):
            h.update(transfer_matrix_site(k, chi, chi, k // 2).matrix.tobytes())
    assert h.hexdigest() == PINNED_FLOATS


def test_renyi_index_is_accepted_and_ignored():
    for k, n in ((4, 2), (6, 3)):
        assert obc_chain_value(k, 8, 16, n) == obc_chain_value(k, 8, 16, 7)
        assert np.array_equal(transfer_sector(k, 4, 8, n), transfer_sector(k, 4, 8, 7))
        assert np.array_equal(transfer_spectrum(k, 4, n), transfer_spectrum(k, 4, 7))
        assert leading_eigenvalue(k, 8, n) == leading_eigenvalue(k, 8, 7)


@pytest.mark.parametrize("call", [
    lambda w: obc_chain_value(4, 2, 4, 2, weight=w),
    lambda w: transfer_sector(4, 2, 2, 2, weight=w),
    lambda w: transfer_matrix_site(4, 2, 2, 2, weight=w),
    lambda w: transfer_spectrum(4, 2, 2, weight=w),
    lambda w: pbc_trace(4, 2, 3, 2, weight=w),
])
def test_unknown_weight_raises(call):
    with pytest.raises(ValueError, match="unknown weight 'haar'"):
        call("haar")


def test_open_chain_never_builds_the_full_tables(monkeypatch):
    def refuse(k):
        raise AssertionError(f"sk_tables({k}) called")

    monkeypatch.setattr(replica, "sk_tables", refuse)
    for fn in vars(replica).values():
        if hasattr(fn, "cache_clear"):
            fn.cache_clear()
    # values of the Fraction-arithmetic kernel, which built the class data from sk_tables
    assert delta_chi(64, 8, 3).delta == 0.021804332160178852
    assert obc_chain_value(4, 4, 16, 2) == 12.813811396280816


def test_solve_rejects_an_inconsistent_system():
    a = np.array([[1, 1], [2, 2]], dtype=object)
    with pytest.raises(ValueError, match="inconsistent"):
        replica._solve(a, np.array([[1], [3]], dtype=object))
    x, d = replica._solve(a, np.array([[1], [2]], dtype=object))
    assert (x.tolist(), d) == ([[1], [0]], 1)

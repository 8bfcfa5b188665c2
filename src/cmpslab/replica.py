"""Permutation replica calculus on the conjugacy classes of S_k (k <= 6):
Weingarten functions, the Pauli weight g(sigma), site and bulk transfer
matrices, chain and trace evaluation, and the closed-form Haar magic averages.

The Gram function q^{c(sigma)}, the Weingarten function, the bond factor
chi^{c(sigma)} and g(sigma) are class functions, and the OBC boundary vectors
(e_id and all-ones) are conjugation invariant. An operator f(sigma^-1 beta)
with f a class function acts on class functions as the class matrix
M[A, B] = sum_{beta in B} f(rho_A^-1 beta), rho_A a representative of class
A, and products of operators are products of class matrices. So the OBC
chain and the leading bulk eigenvalue live on the p(k) classes (5 for k=4,
11 for k=6) instead of the k! permutations.

Class matrices are exact integer and rational object arrays. The Weingarten
operator is W = G (G^3)^- G for the Gram class matrix G: any solution y of
G^3 y = G b gives G y = G^+ b, which is G^-1 b when q >= k and the
Moore-Penrose pseudo-inverse (the Weingarten function at small dimension)
when q < k. Full k! x k! matrices, needed for periodic spectra, gather exact
class values over the class-label table.
"""

from __future__ import annotations

import functools
import itertools
import math
import warnings
from dataclasses import dataclass
from fractions import Fraction

import numpy as np


# ---------------------------------------------------------------- S_k tables

def _cycle_lengths(perm):
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


@functools.cache
def sk_tables(k):
    """(perms, index, cycle_count_matrix, class_label_matrix) for S_k.

    perms is in itertools order (identity first). class_label_matrix[i, j] is
    the conjugacy class of perms[i]^-1 perms[j], numbered in sorted order of
    cycle types (class 0 is the identity), and cycle_count_matrix[i, j] is its
    number of cycles.
    """
    if k > 6:
        raise ValueError("replica calculus supports k <= 6")
    perms = list(itertools.permutations(range(k)))
    index = {p: i for i, p in enumerate(perms)}
    types = [_cycle_lengths(p) for p in perms]
    classes = sorted(set(types))
    arr = np.array(perms)
    code = k ** np.arange(k)  # perm -> integer, for a lookup of its class
    lut = np.empty(k**k, dtype=np.int8)
    lut[arr @ code] = [classes.index(t) for t in types]
    # row i composes perms[i]^-1 (one argsort row) and then every perms[j]
    label = np.stack([lut[arr[:, row] @ code] for row in np.argsort(arr, axis=1)])
    ncycles = np.array([len(t) for t in classes], dtype=np.int8)
    return perms, index, ncycles[label], label


@functools.cache
def sk_classes(k):
    """(representatives, sizes) of the conjugacy classes of S_k, in label order."""
    perms, _, _, label = sk_tables(k)
    of = label[0].tolist()  # class of each permutation
    sizes = np.bincount(label[0])
    return [perms[of.index(a)] for a in range(len(sizes))], sizes


def _class_matrix(k, base):
    """Exact class matrix of base^{c(sigma^-1 beta)}."""
    _, index, ccount, label = sk_tables(k)
    reps, _ = sk_classes(k)
    out = np.zeros((len(reps), len(reps)), dtype=object)
    for a, rep in enumerate(reps):
        for b, c in zip(label[0].tolist(), ccount[index[rep]].tolist()):
            out[a, b] += base**c
    return out


def _solve(a, b):
    """A solution x of the consistent system a x = b in exact arithmetic,
    with every free variable set to 0."""
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


# ------------------------------------------------------------- Weingarten

@functools.cache
def weingarten_sector(k, q):
    """Exact class matrix of the Weingarten operator W = G (G^3)^- G.

    Column 0 holds the Weingarten function itself, Wg(rho_A, q) per class A.
    """
    gram = _class_matrix(k, q)
    w = gram @ _solve(gram @ gram @ gram, gram)
    w.flags.writeable = False
    return w


@functools.cache
def weingarten_matrix(k, q):
    """Read-only full matrix W[sigma, pi] = Wg(sigma^-1 pi, q) over S_k in
    `sk_tables` order: the inverse of the Gram matrix, or its Moore-Penrose
    pseudo-inverse when q < k. Wg(pi, q) itself is W[0, index[pi]]."""
    _, _, _, label = sk_tables(k)
    w = weingarten_sector(k, q)[:, 0].astype(float)[label]
    w.flags.writeable = False
    return w


# ------------------------------------------------------- transfer matrices

def pauli_weight_g(perm, n):
    """Physical-leg weight g(sigma) = 2^-n (2^c + 3 * 2^c [all cycles even])."""
    lengths = _cycle_lengths(tuple(perm))
    c = len(lengths)
    even = all(ln % 2 == 0 for ln in lengths)
    return 2.0 ** (c - n) * (4.0 if even else 1.0)


def _weight_vector(k, n, weight):
    """Per-class physical-leg weight used inside the transfer matrix.

    The chain produces d^n E[m_n], so each site carries the bare Pauli
    cycle-trace sum sum_alpha prod_c tr(sigma_alpha^{|c|}) = 2^n g(sigma);
    the 2^-n of g's standalone definition is exactly the per-site share of
    the d^-n in m_n. The identity weight 2^{c(sigma)} keeps only the
    identity Pauli and turns the chain into the norm average. Both weights
    are integers.
    """
    reps, _ = sk_classes(k)
    if weight == "pauli":
        return np.array([int(2**n * pauli_weight_g(rep, n)) for rep in reps], dtype=object)
    if weight == "identity":
        return np.array([2 ** len(_cycle_lengths(rep)) for rep in reps], dtype=object)
    raise ValueError(f"unknown weight {weight!r}")


@functools.cache
def transfer_sector(k, chi_in, chi_out, n, weight="pauli"):
    """Exact class matrix diag(g) W(2 chi_out) M(chi_in) of a site transfer matrix."""
    t = _weight_vector(k, n, weight)[:, None] * (weingarten_sector(k, 2 * chi_out) @ _class_matrix(k, chi_in))
    t.flags.writeable = False
    return t


@functools.cache
def _sector_float(k, chi_in, chi_out, n, weight):
    return transfer_sector(k, chi_in, chi_out, n, weight).astype(float)


@dataclass
class TransferMatrix:
    k: int
    n: int
    chi_in: int
    chi_out: int
    matrix: np.ndarray  # full k! x k!


def transfer_matrix_site(k, chi_in, chi_out, n, weight="pauli"):
    """T[sigma, beta] = g(sigma) sum_pi Wg(sigma^-1 pi, 2 chi_out) chi_in^{c(pi^-1 beta)}.

    chi_in = chi_out gives the site-independent bulk matrix. The sum over pi
    is a class function h(sigma^-1 beta), whose class values are column 0 of
    the class sector with g divided out.
    """
    _, _, _, label = sk_tables(k)
    g = _weight_vector(k, n, weight).astype(float)
    h = _sector_float(k, chi_in, chi_out, n, weight)[:, 0] / g
    return TransferMatrix(k, n, chi_in, chi_out, g[label[0]][:, None] * h[label])


@functools.cache
def transfer_spectrum(k, chi, n, weight="pauli"):
    """Bulk transfer-matrix eigenvalues, sorted by descending real part.

    Cached per argument tuple; the array is read-only because every caller
    shares it.
    """
    lam = np.linalg.eigvals(transfer_matrix_site(k, chi, chi, n, weight).matrix)
    lam = lam[np.lexsort((np.abs(lam.imag), -lam.real))]
    lam.flags.writeable = False
    return lam


def pbc_trace(k, chi, n_sites, n=None, weight="pauli"):
    """d^n E[m_n] for the periodic chain: sum of lambda^N over the spectrum."""
    if n is None:
        n = k // 2
    return float(np.sum(transfer_spectrum(k, chi, n, weight) ** n_sites).real)


@functools.cache
def leading_eigenvalue(k, chi, n, precise=False):
    """Largest bulk transfer-matrix eigenvalue, from the exact class sector.

    Returned as the Fraction 1 + x, where the double x = lambda_1 - 1 keeps
    the digits that double-precision eigensolvers lose once it drops below
    ~1e-12 (k=6 at chi >= 64). Newton's method on det(T - (1 + x) I), with
    the step 1 / tr((T - (1 + x) I)^-1) evaluated exactly, starts from the
    double-precision sector spectrum and stops once the step is within two
    units in the last place of x. `precise` is accepted and ignored.
    """
    t = transfer_sector(k, chi, chi, n)
    eye = np.eye(len(t), dtype=int).astype(object)
    x = float(np.max(np.linalg.eigvals(t.astype(float)).real)) - 1.0
    for _ in range(50):
        step = float(1 / np.trace(_solve(t - (1 + Fraction(x)) * eye, eye)))
        x += step
        if abs(step) <= 2 * math.ulp(x):
            return 1 + Fraction(x)
    raise RuntimeError(f"lambda_1 for k={k}, chi={chi}: Newton did not converge, last step {step:.3e}")


def pbc_delta(n_sites, chi, n):
    """delta^(n) for the periodic chain: Tr[T^N] - d^n E_Haar[m_n].

    lambda_1^N - 1 comes from the exact leading eigenvalue, the rest of the
    spectrum in double precision.
    """
    k = 2 * n
    lam = transfer_spectrum(k, chi, n)
    x = leading_eigenvalue(k, chi, n) - 1
    if abs(lam[0] - (1 + float(x))) > 1e-9:
        raise RuntimeError(f"double-precision lambda_1 {lam[0]} differs from the exact 1 + {float(x)}")
    top = math.expm1(n_sites * math.log1p(x))  # lambda_1^N - 1
    rest = complex(np.sum(lam[1:] ** n_sites)).real
    return float(top + rest - (haar_magic_scaled(2**n_sites, n) - 1))


def obc_chain_value(k, chi_max, n_sites, n=None, weight="pauli"):
    """d^n E[m_n] for the open staircase chain.

    Evaluated as u^T T^(N) ... T^(1) e_id with site i using
    (q_i = 2 chi_i, chi_in = chi_{i-1}) on the staircase bond profile;
    u is all-ones, e_id the unit vector on the identity permutation. Both
    are class functions, so the chain runs on the class sector, where u
    becomes the vector of class sizes.
    """
    from .mps import BondProfile

    if n is None:
        n = k // 2
    prof = BondProfile(n_sites, chi_max)
    _, sizes = sk_classes(k)
    v = np.zeros(len(sizes))
    v[0] = 1.0  # identity class
    for i in range(1, n_sites + 1):
        v = _sector_float(k, prof[i - 1], prof[i], n, weight) @ v
    return float(sizes @ v)


# ------------------------------------------------------------ closed forms

def haar_magic_scaled(d, n):
    """d^n E_Haar[m_n], in a form stable for astronomically large d."""
    d = float(d) if d < 2.0**1000 else math.inf
    if n == 2:
        return 4.0 - 12.0 / (d + 3) if math.isfinite(d) else 4.0
    if n == 3:
        if not math.isfinite(d):
            return 1.0
        return 1 + 15 * (d - 1) / ((3 + d) * (5 + d))
    raise ValueError(f"closed form available for n in {{2, 3}}, got {n}")


def haar_magic_closed_form(d, n):
    """E_Haar[m_n] for n in {2, 3}."""
    return haar_magic_scaled(d, n) / d**n


@dataclass
class MagicDeviation:
    n_sites: int
    chi: int
    n: int
    delta: float
    method: str
    se: float | None = None


def delta_chi(n_sites, chi, n, method="analytic", rng=None, samples=10000):
    """delta_chi^(n) = d^n (E_RMPS[m_n] - E_Haar[m_n]).

    Analytic method uses the OBC permutation chain; MC samples the staircase
    ensemble and evaluates exact SREs densely (N <= 10).
    """
    haar = haar_magic_scaled(1 << n_sites, n)
    if method == "analytic":
        val = obc_chain_value(2 * n, chi, n_sites, n)
        return MagicDeviation(n_sites, chi, n, val - haar, "analytic")
    if method != "mc":
        raise ValueError(f"unknown method {method!r}")
    if rng is None:
        raise ValueError("MC method needs an rng")
    from .dense import exact_sre
    from .mps import sample_rmps_obc

    d = 1 << n_sites
    vals = np.empty(samples)
    for i in range(samples):
        st = sample_rmps_obc(n_sites, chi, rng.child(i))
        vals[i] = exact_sre(st.to_statevector(), n)[0]
    scaled = vals * float(d) ** n
    se = float(np.std(scaled, ddof=1) / np.sqrt(samples))
    return MagicDeviation(n_sites, chi, n, float(np.mean(scaled)) - haar, "mc", se)


@dataclass
class FitResult:
    exponent: float
    coefficient: float
    residual: float


def fit_power_law(points, exponent=None):
    """OLS fit of delta = coeff * chi^exponent on log-log axes.

    Nonpositive deltas are excluded with a warning. Passing `exponent` pins
    the slope and fits the amplitude alone, the usual move when the theory
    fixes the power.
    """
    xs, ys = [], []
    for chi, delta in points:
        if delta <= 0:
            warnings.warn(f"excluding point (chi={chi}, delta={float(delta):g}) from power-law fit")
            continue
        xs.append(math.log(chi))
        ys.append(math.log(delta))
    if len(xs) < 3:
        raise ValueError("need at least 3 usable points")
    xs = np.asarray(xs)
    ys = np.asarray(ys)
    if exponent is not None:
        logc = float(np.mean(ys - exponent * xs))
        residual = float(np.sum((ys - exponent * xs - logc) ** 2))
        return FitResult(float(exponent), math.exp(logc), residual)
    coef, res = np.polyfit(xs, ys, 1, full=True)[:2]
    residual = float(res[0]) if len(res) else 0.0
    return FitResult(float(coef[0]), float(math.exp(coef[1])), residual)


def symmetric_projector_pauli_trace(d, sigma_is_identity, k=4):
    """Tr[sigma^{(x)k} P_symm^(k)] for a single-site Pauli sigma.

    Uses the cycle expansion (1/k!) sum_pi prod_cycles Tr[sigma^{|c|}], with
    Tr[sigma^m] = d for the identity and d * [m even] for traceless sigma.
    """
    reps, sizes = sk_classes(k)
    total = 0.0
    for rep, size in zip(reps, sizes):
        lengths = _cycle_lengths(rep)
        if sigma_is_identity or all(ln % 2 == 0 for ln in lengths):
            total += size * float(d) ** len(lengths)
    return total / math.factorial(k)

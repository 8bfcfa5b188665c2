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

A class matrix of x^{c(sigma^-1 beta)} needs only the p(k) rows rho_A^-1 beta:
their cycle counts per class make it an integer polynomial in x. The
Weingarten operator is W = G (G^3)^- G for the Gram class matrix G: any
solution y of G^3 y = G b gives G y = G^+ b, which is G^-1 b when q >= k and
the Moore-Penrose pseudo-inverse (the Weingarten function at small
dimension) when q < k. The solve, W and the transfer sectors run on integer
numerators over one denominator, in object arrays, and become Fractions or
doubles once, at the end; the per-class weight g enters last, on the one
unweighted site sector. `_class_data` alone reads cycle types, and its class
numbering is the one `sk_tables`, the weights and the sectors use. Full
k! x k! matrices, needed for periodic spectra, gather exact class values over
the class-label table of `sk_tables`; the open chain never builds it.
"""

from __future__ import annotations

import functools
import itertools
import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .mps import bond_dims


# ---------------------------------------------------------------- S_k tables

class _Classes(NamedTuple):
    perms: np.ndarray  # (k!, k), itertools order (identity first)
    lut: np.ndarray  # class label of a permutation p, at index p @ k**arange(k)
    reps: list  # first member of each class in itertools order, as tuples
    sizes: np.ndarray
    ncycles: np.ndarray  # cycles per class
    even: np.ndarray  # every cycle of the class has even length
    counts: np.ndarray  # counts[A, B, c]: beta in class B with c(rho_A^-1 beta) = c


@functools.cache
def _class_data(k):
    """The conjugacy classes of S_k, from the one pass that reads cycle types.

    This numbering is the source of every class label in the module: classes
    come in sorted order of cycle types, so class 0 is the identity, and
    `sk_tables` reads its labels from here. counts is read from the p(k)
    rows rho_A^-1 beta alone, so a class matrix is the integer polynomial
    sum_c counts[..., c] x^c.
    """
    if k > 6:
        raise ValueError("replica calculus supports k <= 6")
    perms = np.array(list(itertools.permutations(range(k))))
    # the sorted lengths of the cycles through the k points fix the cycle type
    length, power = np.zeros_like(perms), perms
    for m in range(1, k + 1):
        length[(power == np.arange(k)) & (length == 0)] = m
        power = np.take_along_axis(perms, power, axis=1)
    types, first, of, sizes = np.unique(
        np.sort(length, axis=1), axis=0, return_index=True, return_inverse=True, return_counts=True)
    of = of.reshape(-1)  # some numpy 2.x releases return it 2-D when axis is given
    lut = np.empty(k**k, dtype=np.int8)
    lut[perms @ k ** np.arange(k)] = of
    ncycles = np.rint(np.sum(1 / types, axis=1)).astype(int)  # each cycle has 1/length per point
    p = len(types)
    cell = (np.arange(p)[:, None] * p + of) * (k + 1) + ncycles[_compose(perms, lut, perms[first])]
    counts = np.bincount(cell.ravel(), minlength=p * p * (k + 1)).reshape(p, p, k + 1)
    reps = [tuple(rep) for rep in perms[first].tolist()]
    return _Classes(perms, lut, reps, sizes, ncycles, np.all(types % 2 == 0, axis=1), counts)


def _compose(perms, lut, left):
    """labels[i, j]: the class of left[i]^-1 perms[j], one row at a time.

    perms[j] composed with left[i]^-1 (one argsort row) is conjugate to
    left[i]^-1 perms[j], so it has the same class.
    """
    code = len(perms[0]) ** np.arange(len(perms[0]))
    return np.stack([lut[perms[:, inv] @ code] for inv in np.argsort(left, axis=1)])


@functools.cache
def sk_tables(k):
    """(perms, index, cycle_count_matrix, class_label_matrix) for S_k.

    perms is in itertools order (identity first). class_label_matrix[i, j] is
    the class of perms[i]^-1 perms[j], numbered as in `_class_data` (class 0
    is the identity), and cycle_count_matrix[i, j] is its number of cycles.
    """
    if k > 6:
        raise ValueError("replica calculus supports k <= 6")
    data = _class_data(k)
    perms = [tuple(p) for p in data.perms.tolist()]
    label = _compose(data.perms, data.lut, data.perms)
    return perms, {p: i for i, p in enumerate(perms)}, data.ncycles.astype(np.int8)[label], label


def sk_classes(k):
    """(representatives, sizes) of the conjugacy classes of S_k, in label order.

    Read from the class data, which never builds the `sk_tables` tables."""
    data = _class_data(k)
    return data.reps, data.sizes


def _weights(k, weight):
    """Per-class physical-leg weight, as exact integers.

    The chain produces d^n E[m_n], so each site carries the bare Pauli
    cycle-trace sum sum_alpha prod_c tr(sigma_alpha^{|c|}), which is 2^c(sigma)
    times 4 when every cycle of sigma is even; the standalone g(sigma) is
    this times 2^-n, the per-site share of the d^-n in m_n. The identity
    weight 2^c(sigma) keeps only the identity Pauli and turns the chain into
    the norm average. Both are powers of two.
    """
    data = _class_data(k)
    g = np.array([2**c for c in data.ncycles.tolist()], dtype=object)
    if weight == "pauli":
        return np.where(data.even, 4 * g, g)
    if weight == "identity":
        return g
    raise ValueError(f"unknown weight {weight!r}")


def _class_matrix(k, base):
    """Exact integer class matrix of base^{c(sigma^-1 beta)}."""
    counts = _class_data(k).counts.astype(object)
    return counts @ np.array([base**c for c in range(k + 1)], dtype=object)


def _solve(a, b):
    """A solution x of the consistent integer system a x = b, with every free
    variable set to 0, as integer numerators over one denominator: (x, d).

    Fraction-free Gauss-Jordan (Bareiss, Math. Comp. 22, 565 (1968)): each
    row step cross-multiplies by the pivot and divides exactly by the
    previous pivot, so every entry stays an integer minor of [a | b] and the
    pivot rows end as d times the reduced row echelon form.
    """
    n = len(a)
    rows = np.hstack([a, b]).tolist()
    pivots = []
    d = 1
    for c in range(n):
        r = len(pivots)
        p = next((i for i in range(r, n) if rows[i][c]), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        top, prev, d = rows[r], d, rows[r][c]
        for i in range(n):
            if i != r:
                f = rows[i][c]
                rows[i] = [(d * v - f * w) // prev for v, w in zip(rows[i], top)]
        pivots.append(c)
    if any(any(row[n:]) for row in rows[len(pivots):]):
        raise ValueError("inconsistent linear system")
    x = np.zeros((n, b.shape[1]), dtype=object)
    for r, c in enumerate(pivots):
        x[c] = rows[r][n:]
    return _lowest(x, d)


def _lowest(num, den):
    """num / den over the least common denominator, which is positive."""
    g = math.gcd(den, *num.flat) * (1 if den > 0 else -1)
    return num // g, den // g


def _fractions(num, den):
    """Read-only object array of the Fractions num / den."""
    out = np.array([Fraction(v, den) for v in num.flat], dtype=object).reshape(num.shape)
    out.flags.writeable = False
    return out


# ------------------------------------------------------------- Weingarten

@functools.cache
def _weingarten_integer(k, q):
    """(w, d): the Weingarten class matrix W = G (G^3)^- G is w / d."""
    gram = _class_matrix(k, q)
    x, d = _solve(gram @ gram @ gram, gram)
    return _lowest(gram @ x, d)


@functools.cache
def weingarten_sector(k, q):
    """Exact class matrix of the Weingarten operator W = G (G^3)^- G, as
    read-only Fractions.

    Column 0 holds the Weingarten function itself, Wg(rho_A, q) per class A.
    The solve and the product run on integers over one denominator.
    """
    return _fractions(*_weingarten_integer(k, q))


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

@functools.cache
def _site_integer(k, chi_in, chi_out):
    """(h, d): the unweighted site class matrix W(2 chi_out) M(chi_in) is h / d."""
    w, d = _weingarten_integer(k, 2 * chi_out)
    return _lowest(w @ _class_matrix(k, chi_in), d)


@functools.cache
def transfer_sector(k, chi_in, chi_out, n, weight="pauli"):
    """Exact class matrix diag(g) W(2 chi_out) M(chi_in) of a site transfer
    matrix, as read-only Fractions. `n` is accepted and ignored."""
    h, d = _site_integer(k, chi_in, chi_out)
    return _fractions(_weights(k, weight)[:, None] * h, d)


@functools.cache
def _sector_float(k, chi_in, chi_out, weight):
    h, d = _site_integer(k, chi_in, chi_out)
    # int / int rounds correctly, as float(Fraction) does, and g is a power of
    # two, so g * float(h / d) is the correctly rounded g h / d
    return _weights(k, weight).astype(float)[:, None] * (h / d).astype(float)


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
    the unweighted class sector. `n` is accepted, stored and otherwise ignored.
    """
    _, _, _, label = sk_tables(k)
    g = _weights(k, weight).astype(float)
    h, d = _site_integer(k, chi_in, chi_out)
    h = (h[:, 0] / d).astype(float)
    return TransferMatrix(k, n, chi_in, chi_out, g[label[0]][:, None] * h[label])


@functools.cache
def transfer_spectrum(k, chi, n, weight="pauli"):
    """Bulk transfer-matrix eigenvalues, sorted by descending real part.

    Cached per argument tuple; the array is read-only because every caller
    shares it. `n` is accepted and ignored.
    """
    lam = np.linalg.eigvals(transfer_matrix_site(k, chi, chi, n, weight).matrix)
    lam = lam[np.lexsort((np.abs(lam.imag), -lam.real))]
    lam.flags.writeable = False
    return lam


def pbc_trace(k, chi, n_sites, n=None, weight="pauli"):
    """d^n E[m_n] for the periodic chain: sum of lambda^N over the spectrum; `n` is ignored."""
    return float(np.sum(transfer_spectrum(k, chi, k // 2, weight) ** n_sites).real)


def leading_eigenvalue(k, chi, n, precise=False):
    """Largest bulk transfer-matrix eigenvalue, from the exact class sector.

    Returned as the Fraction 1 + x, where the double x = lambda_1 - 1 keeps
    the digits that double-precision eigensolvers lose once it drops below
    ~1e-12 (k=6 at chi >= 64). Newton's method on det(T - (1 + x) I), with
    the step 1 / tr((T - (1 + x) I)^-1) evaluated exactly, starts from the
    double-precision sector spectrum and stops once the step is within two
    units in the last place of x. With T = t / d and x = num / den, the
    step solves the integer system (den t - (den + num) d I) y = I and is
    rounded to a double once. `n` and `precise` are accepted and ignored,
    and the solve is cached per (k, chi).
    """
    return _leading_eigenvalue(k, chi)


@functools.cache
def _leading_eigenvalue(k, chi):
    h, d = _site_integer(k, chi, chi)
    t = _weights(k, "pauli")[:, None] * h
    eye = np.eye(len(t), dtype=int).astype(object)
    x = float(np.max(np.linalg.eigvals(_sector_float(k, chi, chi, "pauli")).real)) - 1.0
    for _ in range(50):
        num, den = x.as_integer_ratio()
        inv, det = _solve(den * t - (den + num) * d * eye, eye)
        step = det / (den * d * np.trace(inv))  # int / int rounds once
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
    becomes the vector of class sizes. `n` is accepted and ignored.
    """
    dims = bond_dims(n_sites, chi_max)
    _, sizes = sk_classes(k)
    v = np.zeros(len(sizes))
    v[0] = 1.0  # identity class
    for i in range(1, n_sites + 1):
        v = _sector_float(k, dims[i - 1], dims[i], weight) @ v
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


def delta_chi(n_sites, chi, n):
    """delta_chi^(n) = d^n (E_RMPS[m_n] - E_Haar[m_n]) from the OBC permutation
    chain, except that it is exactly 0.0 at the full profile chi >= 2^(N-1),
    where the staircase is the Haar ensemble. `ensembles.magic_deviation_mc`
    estimates the same quantity by sampling the staircase ensemble.
    """
    haar = haar_magic_scaled(1 << n_sites, n)
    val = obc_chain_value(2 * n, chi, n_sites, n)
    delta = 0.0 if chi >= 1 << (n_sites - 1) else val - haar
    return MagicDeviation(n_sites, chi, n, delta)


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


"""Ensemble statistics: the random and Clifford-enhanced MPS samplers, frame
potentials, design distance, Monte Carlo magic, and purity fluctuations for
stabilizer, Haar and Clifford-enhanced ensembles.

Dense statevectors (N <= 10) carry all Monte Carlo estimates. The exact
stabilizer frame potentials are a closed form at every N; only the N <= 2
stabilizer states and their purity moments are enumerated. A sampler
maps an iterable of random streams to an iterator of states, one per stream,
so that the CMPS sampler can build the MPS of a chunk of streams together.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .dense import dense_clifford_group, exact_sre, haar_state, purity
from .mps import MpsState, rmps_chunks, sample_rmps_obc, sample_rmps_sites, statevectors
from .replica import haar_magic_scaled
from .tableau import CliffordTableau, random_clifford, tableau_to_dense


@dataclass
class CmpsSample:
    tableau: CliffordTableau
    mps: MpsState

    @property
    def n(self):
        return self.mps.n


@dataclass
class EnsembleEstimate:
    mean: float
    std_error: float
    sample_count: int
    label: str


def sample_cmps(n, chi_max, rng):
    """|psi> = U_c |phi>_chi: independent uniform Clifford and staircase MPS."""
    tab = random_clifford(n, rng)
    mps = sample_rmps_obc(n, chi_max, rng)
    return CmpsSample(tab, mps)


def cmps_statevector(sample):
    """Dense 2^N vector of the composite state (N <= 12)."""
    return tableau_to_dense(sample.tableau) @ sample.mps.to_statevector()


# ------------------------------------------------------------- samplers

def haar_sampler(n):
    return lambda rngs: (haar_state(n, rng) for rng in rngs)


def stab_sampler(n):
    return lambda rngs: (tableau_to_dense(random_clifford(n, rng))[:, 0] for rng in rngs)


def rmps_sampler(n, chi_max):
    """Staircase random MPS (sample_rmps_obc) as statevectors, the MPS of a
    chunk of streams built and contracted together."""
    return lambda rngs: (psi for chunk in rmps_chunks(n, chi_max, rngs)
                         for psi in statevectors(sample_rmps_sites(n, chi_max, chunk)))


def cmps_sampler(n, chi_max):
    """The states of sample_cmps, drawn in chunks of streams: each stream
    draws its Clifford and then its MPS blocks, as sample_cmps does; the MPS
    of a chunk are built and contracted together, and the Cliffords are
    densified and applied one at a time."""

    def draw(rngs):
        for chunk in rmps_chunks(n, chi_max, rngs):
            tabs = [random_clifford(n, rng) for rng in chunk]
            for tab, phi in zip(tabs, statevectors(sample_rmps_sites(n, chi_max, chunk))):
                yield tableau_to_dense(tab) @ phi

    return draw


@functools.cache
def stab_states_exhaustive(n):
    """All distinct N <= 2 stabilizer states (up to phase) as a read-only (m, 2^n) array.

    Columns U|0...0> of `dense_clifford_group`, whose global phase
    `tableaux_to_dense` already fixes (first nonzero amplitude real and
    positive), deduplicated on their amplitudes rounded to 9 decimals: 6
    states at N=1, 60 at N=2. The returned vectors are the unrounded ones.
    Built once per n.
    """
    cols = dense_clifford_group(n)[:, :, 0]
    keys = np.ascontiguousarray(np.round(cols, 9)).view(np.dtype((np.void, cols.itemsize * cols.shape[1]))).ravel()
    _, first = np.unique(keys, return_index=True)
    out = cols[np.sort(first)]
    expected = {1: 6, 2: 60}[n]
    if len(out) != expected:
        raise RuntimeError(f"found {len(out)} stabilizer states, expected {expected}")
    out.flags.writeable = False
    return out


# ------------------------------------------------------- frame potentials

def haar_frame_potential(d, k):
    """F^(k)_H = 1/binom(d+k-1, k)."""
    return 1.0 / math.comb(d + k - 1, k)


def frame_potential_mc(sampler, k, pairs, rng):
    """F^(k) = E |<psi'|psi>|^{2k} over independent pairs, with jackknife SE."""
    if k < 1 or k > 4:
        raise ValueError("k in {1..4}")
    if pairs < 2:
        raise ValueError("need at least 2 pairs")
    states = sampler(rng.child(j) for j in range(2 * pairs))
    vals = np.array([np.abs(np.vdot(a, b)) ** (2 * k) for a, b in zip(states, states)])
    return EnsembleEstimate(
        float(np.mean(vals)),
        float(np.std(vals, ddof=1) / np.sqrt(pairs)),
        pairs,
        f"frame_potential_k{k}",
    )


def frame_potential_exact_stab(n, k):
    """Exact stabilizer frame potential F^(k)_STAB for any N >= 1, k >= 1.

    By Clifford invariance F^(k) = E_phi |<0|phi>|^{2k} over the stabilizer
    states phi. Those with <0|phi> != 0 are supported on a linear subspace of
    GF(2)^N of some dimension j, with 2^{j(j+3)/2} states per subspace and
    |<0|phi>|^2 = 2^-j each (Dehaene & De Moor, PRA 68, 042318 (2003),
    quant-ph/0304125). Dividing by the 2^N prod_{i=1}^N (2^i + 1) states:

        F^(k) = sum_{j=0}^N [N choose j]_2 2^{j(j+3)/2 - jk} / (2^N prod_{i=1}^N (2^i + 1)),

    with [N choose j]_2 the Gaussian binomial. The sum is formed as one
    integer fraction, so the returned float is the exact value correctly
    rounded.
    """
    if n < 1 or k < 1:
        raise ValueError("need n >= 1 and k >= 1")
    # scaled by 2^{Nk}, every term is an integer
    num, gauss = 0, 1
    for j in range(n + 1):
        num += gauss << (j * (j + 3) // 2 + (n - j) * k)
        gauss = gauss * ((1 << (n - j)) - 1) // ((1 << (j + 1)) - 1)
    den = math.prod((1 << i) + 1 for i in range(1, n + 1)) << (n * (k + 1))
    return num / den


def design_distance_delta4(delta2_chi, d):
    """Delta^(4) = ((d+3)/d) delta_chi^(2) / sqrt(4(d-1)(4+d)).

    Exact for ensembles whose Pauli 2-norm deviates from Haar by delta in
    both frame-potential factors (the Haar part of each factor cancels to 4).
    """
    if delta2_chi < 0:
        raise ValueError("delta must be nonnegative")
    return (d + 3) / d * delta2_chi / math.sqrt(4 * (d - 1) * (4 + d))


# ------------------------------------------------------------------ magic

def magic_deviation_mc(sampler, n, samples, rng):
    """delta^(n) = d^n (E[m_n] - E_Haar[m_n]) over the ensemble, from exact
    dense SREs (N <= 10), with the standard error of the mean; d is the
    length of the sampled states."""
    if samples < 2:
        raise ValueError("need at least 2 samples")
    m_n = []
    for psi in sampler(rng.child(i) for i in range(samples)):
        m_n.append(exact_sre(psi, n)[0])
    d = len(psi)
    scaled = np.array(m_n) * float(d) ** n
    return EnsembleEstimate(
        float(np.mean(scaled)) - haar_magic_scaled(d, n),
        float(np.std(scaled, ddof=1) / np.sqrt(samples)),
        samples,
        f"magic_deviation_n{n}",
    )


# ------------------------------------------------------- purity statistics

def purity_fluctuation_formulas(d, ensemble, delta2_chi=None):
    """Closed-form Delta^2 Pur_A at d_A = d_B = sqrt(d)."""
    if ensemble == "STAB":
        return (d - 1) ** 2 / ((d + 1) ** 2 * (d + 2))
    if ensemble == "Haar":
        return 2 * (d - 1) ** 2 / ((d + 1) ** 2 * (d + 2) * (d + 3))
    if ensemble == "CMPS":
        if delta2_chi is None:
            raise ValueError("CMPS fluctuations need delta2_chi")
        haar = 2 * (d - 1) ** 2 / ((d + 1) ** 2 * (d + 2) * (d + 3))
        return haar + (d - 1) / (d * (d + 1) * (d + 2)) * delta2_chi
    raise ValueError(f"unknown ensemble {ensemble!r}")


def _jackknife_variance_se(vals):
    """Standard error of the unbiased sample variance by leave-one-out."""
    m = len(vals)
    s = np.sum(vals)
    s2 = np.sum(vals**2)
    # leave-one-out unbiased variances without O(m^2) work
    mu_i = (s - vals) / (m - 1)
    var_i = (s2 - vals**2 - (m - 1) * mu_i**2) / (m - 2)
    return float(np.sqrt((m - 1) / m * np.sum((var_i - np.mean(var_i)) ** 2)))


def purity_fluctuation_mc(sampler, samples, rng):
    """Unbiased variance of Pur_A over the ensemble, A = first N/2 qubits."""
    if samples < 3:
        raise ValueError("need at least 3 samples")
    purs = np.array([purity(psi) for psi in sampler(rng.child(i) for i in range(samples))])
    return EnsembleEstimate(
        float(np.var(purs, ddof=1)),
        _jackknife_variance_se(purs),
        samples,
        "purity_variance",
    )


def stab_purity_exhaustive(n):
    """(mean, population variance) of Pur_A over all N <= 2 stabilizer states."""
    states = stab_states_exhaustive(n)
    purs = np.array([purity(v, n // 2) for v in states])
    return float(np.mean(purs)), float(np.var(purs))

"""Ensemble statistics: the Clifford-enhanced MPS sampler, frame potentials,
design distance, and purity fluctuations for stabilizer, Haar and
Clifford-enhanced ensembles.

Dense statevectors (N <= 10) carry all Monte Carlo estimates; the
tableau-plus-MPS contraction path is exposed separately for purities
(`cmps_purity_via_pauli`) and cross-checked against the dense route.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .dense import dense_clifford_group, haar_state, purity
from .mps import MpsState, pauli_expectation, sample_rmps_obc
from .paulis import PauliString
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


def cmps_purity_via_pauli(sample, cut):
    """Tr[rho_A^2] for A = sites [0, cut) without densifying the Clifford:
    2^-|A| sum over Pauli strings on A of <psi|sigma_A x 1|psi>^2, each
    expectation evaluated by pulling sigma through the tableau and
    contracting the MPS."""
    n = sample.n
    tinv = sample.tableau.inverse()
    total = 0.0
    for xb in range(1 << cut):
        for zb in range(1 << cut):
            x = [(xb >> (cut - 1 - j)) & 1 for j in range(cut)] + [0] * (n - cut)
            z = [(zb >> (cut - 1 - j)) & 1 for j in range(cut)] + [0] * (n - cut)
            sig = PauliString.hermitian(x, z)
            val = pauli_expectation(sample.mps, tinv.image_of(sig))
            total += val * val
    return total / (1 << cut)


# ------------------------------------------------------------- samplers

def haar_sampler(n):
    return lambda rng: haar_state(n, rng)


def stab_sampler(n):
    def draw(rng):
        return tableau_to_dense(random_clifford(n, rng))[:, 0]

    return draw


def cmps_sampler(n, chi_max):
    return lambda rng: cmps_statevector(sample_cmps(n, chi_max, rng))


@functools.cache
def stab_states_exhaustive(n):
    """All distinct N <= 2 stabilizer states (up to phase) as a read-only (m, 2^n) array.

    Columns U|0...0> over the full Clifford group, phase-fixed so that the
    first nonzero amplitude is real and positive, and deduplicated on their
    amplitudes rounded to 9 decimals: 6 states at N=1, 60 at N=2. The
    returned vectors are the unrounded ones. Built once per n.
    """
    uniq = {}
    for v in dense_clifford_group(n)[:, :, 0]:
        nz = np.flatnonzero(np.abs(v) > 1e-9)[0]
        v = v * (np.abs(v[nz]) / v[nz])
        uniq.setdefault(np.round(v, 9).tobytes(), v)
    out = np.stack(list(uniq.values()))
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
    vals = np.empty(pairs)
    for i in range(pairs):
        a = sampler(rng.child(2 * i))
        b = sampler(rng.child(2 * i + 1))
        vals[i] = np.abs(np.vdot(a, b)) ** (2 * k)
    return EnsembleEstimate(
        float(np.mean(vals)),
        float(np.std(vals, ddof=1) / np.sqrt(pairs)),
        pairs,
        f"frame_potential_k{k}",
    )


def frame_potential_exact_stab(n, k):
    """Exact stabilizer frame potential at N <= 2 over all ordered state pairs."""
    states = stab_states_exhaustive(n)
    ov = np.abs(states @ states.conj().T) ** (2 * k)
    return float(np.mean(ov))


def design_distance_delta4(delta2_chi, d):
    """Delta^(4) = ((d+3)/d) delta_chi^(2) / sqrt(4(d-1)(4+d)).

    Exact for ensembles whose Pauli 2-norm deviates from Haar by delta in
    both frame-potential factors (the Haar part of each factor cancels to 4).
    """
    if delta2_chi < 0:
        raise ValueError("delta must be nonnegative")
    return (d + 3) / d * delta2_chi / math.sqrt(4 * (d - 1) * (4 + d))


# ------------------------------------------------------- purity statistics

def stabilizer_purity_mean(d):
    """E_STAB[Pur_A] = 2 sqrt(d)/(d+1) at d_A = d_B = sqrt(d)."""
    return 2 * math.sqrt(d) / (d + 1)


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


def purity_fluctuation_mc(sampler, samples, rng, subset_size=None):
    """Unbiased variance of Pur_A over the ensemble, A = first N/2 qubits."""
    if samples < 3:
        raise ValueError("need at least 3 samples")
    purs = np.empty(samples)
    for i in range(samples):
        psi = sampler(rng.child(i))
        purs[i] = purity(psi, subset_size)
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

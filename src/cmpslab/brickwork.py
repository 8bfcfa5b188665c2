"""Brickwork circuit of two-qubit Haar gates on an MPS with a hard bond cap:
tracks the deviation of the linearized 2- and 3-SRE from the Haar value over
circuit time, plus the entanglement profile.

The evolved ensemble is not literally the staircase random MPS, but its
late-time magic deviation shows the same chi^(-2) / chi^(-3) power laws; the
scan below measures the plateau values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dense import MAX_SRE_QUBITS, pauli_spectrum, sre_from_spectrum
from .kernels import haar_unitary, indexed_map
from .mps import MpsState, apply_two_qubit_gate, entanglement_profile
from .replica import haar_magic_scaled


def brickwork_layer(state, chi_max, parity, rng):
    """One even (parity 0) or odd (parity 1) layer of Haar two-qubit gates."""
    discarded = 0.0
    for a in range(parity, state.n - 1, 2):
        g = haar_unitary(4, rng)
        state, w = apply_two_qubit_gate(state, g, a, chi_max)
        discarded += w
    return state, discarded


@dataclass
class TrajectoryRecord:
    n: int
    chi_max: int
    m2: list  # exact m_n per time step, [0] = initial product state
    m3: list
    max_entropy: list  # max bond entropy per step (nats)
    discarded: list  # truncated weight summed over each step's gates, [0] = 0.0


def brickwork_trajectory(n, chi_max, steps, rng):
    """Evolve |0...0> for `steps` alternating layers, recording exact SRE
    (dense contraction, so N <= 10), the max bond entropy and the weight the
    bond cap truncated after each. One Pauli spectrum per step serves both
    m_2 and m_3."""
    if n > MAX_SRE_QUBITS:
        raise ValueError(f"exact SRE tracking limited to N <= {MAX_SRE_QUBITS}")
    state = MpsState.product_state([(1.0, 0.0)] * n)
    rec = TrajectoryRecord(n, chi_max, [], [], [], [])

    def record(state, max_entropy, discarded):
        spec = pauli_spectrum(state.to_statevector())
        rec.m2.append(sre_from_spectrum(spec, 2)[0])
        rec.m3.append(sre_from_spectrum(spec, 3)[0])
        rec.max_entropy.append(max_entropy)
        rec.discarded.append(discarded)

    record(state, 0.0, 0.0)
    for t in range(steps):
        state, discarded = brickwork_layer(state, chi_max, t % 2, rng)
        record(state, entanglement_profile(state).max_entropy, discarded)
    return rec


def brickwork_scan(n, chi_list, steps, trajectories, rng, workers=1):
    """Trajectory-averaged delta^(n)(t) and entropy curves per chi.

    Returns a list of row dicts (t, chi, n, delta, se, max_entropy) plus a
    plateau summary per chi: delta averaged over the last quarter of the
    evolution (at least one step). Trajectories run on `workers` threads
    with per-trajectory child rngs, collected in index order, so results are
    independent of the thread count. The standard errors need at least two
    trajectories, so fewer raise ValueError.
    """
    if trajectories < 2:
        raise ValueError(f"need at least 2 trajectories for a standard error, got {trajectories}")
    window = max(1, steps // 4)
    d = 1 << n
    haar2 = haar_magic_scaled(d, 2)
    haar3 = haar_magic_scaled(d, 3)
    rows, plateaus = [], []
    for ci, chi in enumerate(chi_list):
        base = rng.child(ci)
        recs = indexed_map(lambda traj: brickwork_trajectory(n, chi, steps, base.child(traj)), trajectories, workers)
        m2 = np.array([rec.m2 for rec in recs])
        m3 = np.array([rec.m3 for rec in recs])
        ent = np.array([rec.max_entropy for rec in recs])
        d2 = d**2 * m2 - haar2
        d3 = d**3 * m3 - haar3
        for t in range(steps + 1):
            for nn, dn in ((2, d2), (3, d3)):
                rows.append(
                    {
                        "t": t,
                        "chi": chi,
                        "n": nn,
                        "delta": float(dn[:, t].mean()),
                        "se": float(dn[:, t].std(ddof=1) / np.sqrt(trajectories)),
                        "max_entropy": float(ent[:, t].mean()),
                    }
                )
        win2 = d2[:, -window:].mean(axis=1)
        win3 = d3[:, -window:].mean(axis=1)
        plateaus.append(
            {
                "chi": chi,
                "delta2_plateau": float(win2.mean()),
                "delta2_se": float(win2.std(ddof=1) / np.sqrt(trajectories)),
                "delta3_plateau": float(win3.mean()),
                "delta3_se": float(win3.std(ddof=1) / np.sqrt(trajectories)),
                "entropy_plateau": float(ent[:, -window:].mean()),
            }
        )
    return rows, plateaus

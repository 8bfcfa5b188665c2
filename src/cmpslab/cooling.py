"""Entanglement cooling: T-doped random Clifford benchmark states and the
greedy disentangler that sweeps bonds with two-qubit Clifford gates.

No cut's entropy changes under single-qubit gates applied after the
two-qubit gate, so the search at a bond only needs one gate per coset
(C1 x C1) g of the 576 local Cliffords in the 11520-element two-qubit group:
20 candidates in all (1 + 9 + 9 + 1 in the local, CNOT-, iSWAP- and
SWAP-like classes). Each candidate is an element of the enumerated group,
`COSETS` holds its index, and the circuit emitted for it is its generator
word. Dense statevectors throughout (N <= 12); the 20 cut matrices at a
bond come from one einsum, and a stacked eigvalsh on the small side of the
cut (dimension <= 2^(N/2)) yields all entropies at once.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .dense import (
    MAX_DENSE_QUBITS,
    apply_gate,
    dense_clifford_group,
    entanglement_entropy,
    num_qubits,
    zero_state,
)
from .kernels import indexed_map
from .tableau import enumerate_clifford_group

_T_GATE = np.diag([1.0, np.exp(1j * np.pi / 4)])


@dataclass
class DopedCircuitSpec:
    """Brickwork Clifford circuit doped with one T gate per time step.

    v is the number of brickwork layers between consecutive T insertions
    (the circuit's light velocity); t_count is the discrete circuit time.
    """

    n: int
    v: int = 1
    t_count: int = 0

    def __post_init__(self):
        if self.n < 2 or self.n > MAX_DENSE_QUBITS:
            raise ValueError(f"need 2 <= N <= {MAX_DENSE_QUBITS}, got {self.n}")
        if self.v < 1:
            raise ValueError("v >= 1")
        if self.t_count < 0:
            raise ValueError("t_count >= 0")


def _brickwork_clifford_layer(psi, parity, rng):
    n = num_qubits(psi)
    group = dense_clifford_group(2)
    for a in range(parity, n - 1, 2):
        g = group[int(rng.gen.integers(len(group)))]
        psi = apply_gate(psi, g, (a, a + 1))
    return psi


def build_doped_state(spec, rng):
    """Dense state after t_count rounds of (v brickwork Clifford layers +
    one T at a uniformly random qubit). t_count = 0 returns |0...0>."""
    psi = zero_state(spec.n)
    layer = 0
    for _ in range(spec.t_count):
        for _ in range(spec.v):
            psi = _brickwork_clifford_layer(psi, layer % 2, rng)
            layer += 1
        q = int(rng.gen.integers(spec.n))
        psi = apply_gate(psi, _T_GATE, (q,))
    return psi


def build_stabilizer_state(n, layers, rng):
    """Undoped benchmark: `layers` brickwork layers of random two-qubit
    Cliffords on |0...0>. Entangled but exactly stabilizer."""
    psi = zero_state(n)
    for layer in range(layers):
        psi = _brickwork_clifford_layer(psi, layer % 2, rng)
    return psi


@dataclass
class CoolingReport:
    n: int
    entropy_trace: list  # max-over-cuts entropy after each sweep, [0] = input
    circuit: list = field(default_factory=list)  # [(name, [qubits]), ...]
    input_sn: float = 0.0
    final_sn: float = 0.0
    sweeps_run: int = 0


def _max_cut_entropy(psi):
    n = num_qubits(psi)
    return max(entanglement_entropy(psi, c) for c in range(1, n))


# Index into enumerate_clifford_group(2) of the first member of each coset
# (C1 x C1) g, in the enumeration's order: identity first.
COSETS = (0, 5, 6, 10, 11, 20, 23, 28, 32, 44, 49, 53, 58, 83, 102, 116, 177, 219, 252, 784)


@functools.cache
def _coset_gates():
    """Dense unitaries of the COSETS group elements, one read-only array."""
    gates = dense_clifford_group(2)[list(COSETS)]
    gates.flags.writeable = False
    return gates


def _candidate_entropies(psi, bond):
    """Entropy across cut bond+1 for each COSETS gate on (bond, bond+1).

    Returns a float array in table order. Works on the smaller side of the
    cut so the stacked eigenproblem stays <= 2^(N/2).
    """
    n = num_qubits(psi)
    a_dim = 1 << bond
    b_dim = 1 << (n - bond - 2)
    theta = psi.reshape(a_dim, 4, b_dim)
    # all candidates at once: K[g, (a u), (v b)]
    k = np.einsum("gxy,ayb->gaxb", _coset_gates(), theta).reshape(-1, 2 * a_dim, 2 * b_dim)
    if 2 * a_dim <= 2 * b_dim:
        m = k @ k.conj().transpose(0, 2, 1)
    else:
        m = k.conj().transpose(0, 2, 1) @ k
    lam = np.linalg.eigvalsh(m)
    lam = np.clip(lam, 1e-18, None)
    return -np.sum(lam * np.log(lam), axis=-1)


def cool(state, sweeps=None):
    """Greedy entanglement cooling by two-qubit Clifford search.

    Sweeps bonds left to right; at bond i it tries one gate per coset
    (C1 x C1) g of the two-qubit Clifford group (COSETS, 20 gates),
    which reaches every entropy the whole group reaches, and keeps the gate
    minimizing the entropy of the [0..i] | [i+1..N-1] cut. The gate kept is
    the lowest table entry within 1e-12 of the minimum, so float noise does
    not pick among ties, and the identity stays when nothing improves. Stops
    early once the state is a product state or a sweep changes nothing.
    """
    psi = np.array(state, dtype=complex)
    n = num_qubits(psi)
    if n > MAX_DENSE_QUBITS:
        raise ValueError(f"cooling limited to N <= {MAX_DENSE_QUBITS}")
    if sweeps is None:
        sweeps = n
    gates = _coset_gates()
    _, _, words = enumerate_clifford_group(2)  # words[COSETS[i]]: gate i's circuit, last-applied first
    input_max = _max_cut_entropy(psi)
    trace = [input_max]
    circuit = []
    sweeps_run = 0
    for _ in range(sweeps):
        moved = False
        for bond in range(n - 1):
            ents = _candidate_entropies(psi, bond)
            idx = int(np.flatnonzero(ents <= ents.min() + 1e-12)[0])
            if idx == 0:
                continue  # no real improvement: leave the bond untouched
            current = entanglement_entropy(psi, bond + 1)
            assert ents[idx] <= current + 1e-9, "accepted move increased the cut entropy"
            psi = apply_gate(psi, gates[idx], (bond, bond + 1))
            circuit.extend((name, [bond + q for q in qubits]) for name, qubits in reversed(words[COSETS[idx]]))
            moved = True
        sweeps_run += 1
        trace.append(_max_cut_entropy(psi))
        if not moved or trace[-1] < 1e-12:
            break
    return CoolingReport(
        n=n,
        entropy_trace=trace,
        circuit=circuit,
        input_sn=input_max / n,
        final_sn=trace[-1] / n,
        sweeps_run=sweeps_run,
    )


def cooling_scan(n_list, vt_over_n_grid, trajectories, rng, v=1, sweeps=None, workers=1):
    """Mean input and cooled S/N (max-cut entropy over N) per (N, vt/N) point.

    Returns a list of row dicts ready for CSV emission. t_count is the
    nearest integer to vt/N * N / v. Trajectories run on `workers` threads
    with per-trajectory child rngs, so results do not depend on the count.
    """
    if trajectories < 2:
        raise ValueError("need at least 2 trajectories")
    rows = []
    for n in n_list:
        for g, vt in enumerate(vt_over_n_grid):
            t_count = int(round(vt * n / v))
            base = rng.child(1000 * n + g)
            spec = DopedCircuitSpec(n=n, v=v, t_count=t_count)
            reps = indexed_map(
                lambda traj: cool(build_doped_state(spec, base.child(traj)), sweeps=sweeps),
                trajectories,
                workers,
            )
            ins = np.array([rep.input_sn for rep in reps])
            outs = np.array([rep.final_sn for rep in reps])
            rows.append(
                {
                    "n": n,
                    "v": v,
                    "t_count": t_count,
                    "vt_over_n": t_count * v / n,
                    "input_sn": float(ins.mean()),
                    "input_sn_se": float(ins.std(ddof=1) / np.sqrt(trajectories)),
                    "cooled_sn": float(outs.mean()),
                    "cooled_sn_se": float(outs.std(ddof=1) / np.sqrt(trajectories)),
                    "trajectories": trajectories,
                }
            )
    return rows

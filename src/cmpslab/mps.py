"""Right-canonical MPS engine: staircase random-MPS sampling with open
boundaries, two-qubit gate application with hard-cap truncation, the
O(N chi^3) Pauli-expectation contraction, and Schmidt-spectrum entanglement
diagnostics.

Serialization format (``save_mps`` / ``load_mps``), version ``mps-v1``:

* 8-byte little-endian unsigned header length ``L``;
* ``L`` bytes of UTF-8 JSON: ``{"format": "mps-v1", "n": N,
  "bond_dims": [1, ...], "seed": <int or null>}``;
* the N site tensors concatenated in site order, each in C order with shape
  ``(bond_dims[i], 2, bond_dims[i+1])``, as little-endian complex doubles.
"""

from __future__ import annotations

import json
import struct

import numpy as np

from .kernels import haar_unitary, svd_truncate
from .paulis import PauliString

_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)
_SITE_OPS = {(0, 0): np.eye(2, dtype=complex), (1, 0): _X, (0, 1): _Z, (1, 1): _X @ _Z}


class BondProfile:
    """Staircase bond dimensions chi_i = min(chi_max, 2^(N-i)), chi_0 = 1.

    Only the right tail is forced to shrink (right-normalization needs
    chi_{i-1} <= 2 chi_i); the first gate therefore spans log2(2 chi_1)
    qubits, and chi_max = 2^(N-1) makes it cover the whole system, which is
    what recovers the Haar ensemble at maximal bond dimension.
    """

    def __init__(self, n, chi_max):
        if chi_max < 1 or (chi_max & (chi_max - 1)):
            raise ValueError(f"chi_max must be a positive power of two, got {chi_max}")
        self.n = n
        self.chi_max = chi_max
        self.dims = [1] + [min(chi_max, 2 ** (n - i)) for i in range(1, n + 1)]

    def __iter__(self):
        return iter(self.dims)

    def __getitem__(self, i):
        return self.dims[i]


class MpsState:
    """Right-normalized MPS: tensors[i] has shape (chi_{i-1}, 2, chi_i).

    Operations return new states; tensors are never mutated in place.
    """

    def __init__(self, tensors, check=True):
        self.tensors = list(tensors)
        self.n = len(self.tensors)
        self.bond_dims = [t.shape[0] for t in self.tensors] + [self.tensors[-1].shape[2]]
        if check:
            if self.bond_dims[0] != 1 or self.bond_dims[-1] != 1:
                raise ValueError("edge bonds must have dimension 1")
            for i, t in enumerate(self.tensors):
                if t.ndim != 3 or t.shape[1] != 2 or t.shape[2] != self.bond_dims[i + 1]:
                    raise ValueError(f"bad tensor shape {t.shape} at site {i}")

    @classmethod
    def product_state(cls, amplitudes):
        """Product state from per-site (a0, a1) amplitude pairs."""
        ts = []
        for a in amplitudes:
            v = np.asarray(a, dtype=complex)
            v = v / np.linalg.norm(v)
            ts.append(v.reshape(1, 2, 1))
        return cls(ts)

    def norm(self):
        e = np.ones((1, 1), dtype=complex)
        for t in self.tensors:
            e = np.einsum("ab,asc,bsd->cd", e, t, t.conj())
        return float(np.sqrt(abs(e[0, 0])))

    def to_statevector(self):
        if self.n > 20:
            raise ValueError("statevector conversion limited to N <= 20")
        v = np.ones((1, 1), dtype=complex)  # (basis, bond)
        for t in self.tensors:
            v = np.einsum("ka,asb->ksb", v, t).reshape(-1, t.shape[2])
        return v[:, 0]


def sample_rmps_obc(n, chi_max, rng):
    """Random MPS with open boundaries: per site a Haar unitary of dimension
    2*chi_i, restricted to the chi_{i-1} rows addressed by the zero ancillas
    and reshaped to (chi_{i-1}, 2, chi_i). States come out exactly normalized
    and right-normalized; chi_max = 2^(N-1) reproduces the Haar ensemble
    (see BondProfile).
    """
    prof = BondProfile(n, chi_max)
    ts = []
    for i in range(n):
        chi_l, chi_r = prof[i], prof[i + 1]
        u = haar_unitary(2 * chi_r, rng)
        block = u[:chi_l, :]
        ts.append(block.reshape(chi_l, 2, chi_r))
    return MpsState(ts)


def _right_canonicalize(tensors):
    """Sweep right to left, leaving every tensor right-normalized. Returns the
    new tensor list and the collected scalar (norm * phase) from bond 0."""
    ts = [t.copy() for t in tensors]
    carry = None
    for i in range(len(ts) - 1, -1, -1):
        t = ts[i]
        if carry is not None:
            t = np.einsum("asb,bc->asc", t, carry)
        chi_l = t.shape[0]
        m = t.reshape(chi_l, -1)
        # LQ via QR of the conjugate transpose: m = L q with q rows orthonormal
        qh, rh = np.linalg.qr(m.conj().T)
        q = qh.conj().T
        ts[i] = q.reshape(chi_l, 2, t.shape[2])
        carry = rh.conj().T
    return ts, complex(carry[0, 0])


def apply_two_qubit_gate(state, gate, site, chi_max, cutoff=0.0):
    """Apply a 4x4 gate on (site, site+1), truncating the middle bond.

    Returns (new_state, discarded_weight). The state is renormalized after
    truncation and returned in right-canonical form.
    """
    if site < 0 or site + 1 >= state.n:
        raise ValueError(f"bad site {site} for N={state.n}")
    gate = np.asarray(gate, dtype=complex)
    if gate.shape != (4, 4):
        raise ValueError("expected a 4x4 gate")
    ts = [t.copy() for t in state.tensors]
    # left-normalize up to `site` so the two-site SVD sees true Schmidt values
    for i in range(site):
        chi_r = ts[i].shape[2]
        q, r = np.linalg.qr(ts[i].reshape(-1, chi_r))
        ts[i] = q.reshape(ts[i].shape[0], 2, q.shape[1])
        ts[i + 1] = np.einsum("ab,bsc->asc", r, ts[i + 1])
    a, b = ts[site], ts[site + 1]
    chi_l, chi_r = a.shape[0], b.shape[2]
    theta = np.einsum("asb,btc->astc", a, b).reshape(chi_l, 4, chi_r)
    theta = np.einsum("uv,avb->aub", gate, theta)
    u, s, vh, discarded = svd_truncate(theta.reshape(chi_l * 2, 2 * chi_r), chi_max, cutoff)
    nrm = np.linalg.norm(s)
    s = s / nrm
    keep = len(s)
    ts[site] = (u * s).reshape(chi_l, 2, keep)
    ts[site + 1] = vh.reshape(keep, 2, chi_r)
    new_ts, scalar = _right_canonicalize(ts)
    # keep the phase, drop the modulus (already renormalized above)
    new_ts[0] = new_ts[0] * (scalar / abs(scalar))
    return MpsState(new_ts), float(discarded)


def pauli_expectation(state, p):
    """<phi| p |phi> by a single left-to-right O(N chi^3) contraction.

    Returns a float for Hermitian strings (checking the imaginary residue),
    a complex number otherwise.
    """
    if p.n != state.n:
        raise ValueError("qubit count mismatch")
    e = np.ones((1, 1), dtype=complex)
    for i, t in enumerate(state.tensors):
        op = _SITE_OPS[(int(p.x[i]), int(p.z[i]))]
        e = np.einsum("ab,asc,ts,btd->cd", e, t, op, t.conj())
    val = p.phase * e[0, 0]
    if p.is_hermitian:
        if abs(val.imag) > 1e-9:
            raise FloatingPointError(f"imaginary residue {val.imag:.2e} on a Hermitian string")
        return float(val.real)
    return complex(val)


def _left_environment_spectra(state):
    """Schmidt spectra (eigenvalues of the left reduced density matrix) at
    every internal bond, using right-normalization of the tail."""
    spectra = []
    env = np.ones((1, 1), dtype=complex)
    for i in range(state.n - 1):
        t = state.tensors[i]
        env = np.einsum("ab,asc,bsd->cd", env, t, t.conj())
        lam = np.linalg.eigvalsh(env)
        lam = np.clip(lam.real, 0.0, None)
        spectra.append(lam)
    return spectra


def bipartition_purity(state, cut):
    """Tr[rho_A^2] for A = sites [0, cut)."""
    if cut < 1 or cut >= state.n:
        raise ValueError(f"bad cut {cut} for N={state.n}")
    lam = _left_environment_spectra(state)[cut - 1]
    return float(np.sum(lam**2))


class EntanglementProfile:
    """Per-internal-bond von Neumann entropies (nats) and their maximum."""

    def __init__(self, entropies):
        self.entropies = list(entropies)
        self.max_entropy = max(self.entropies) if self.entropies else 0.0


def entanglement_profile(state):
    ents = []
    for lam in _left_environment_spectra(state):
        lam = lam[lam > 1e-15]
        ents.append(float(-np.sum(lam * np.log(lam))))
    return EntanglementProfile(ents)


def mps_from_statevector(psi, chi_max=None, cutoff=1e-14):
    """Exact (or truncated) right-canonical MPS from a dense 2^N vector."""
    d = len(psi)
    n = d.bit_length() - 1
    if 1 << n != d:
        raise ValueError("state length is not a power of two")
    cap = chi_max if chi_max is not None else 1 << (n // 2)
    ts = []
    rest = psi.reshape(1, -1)
    chi_l = 1
    for i in range(n - 1):
        m = rest.reshape(chi_l * 2, -1)
        u, s, vh, _ = svd_truncate(m, cap, cutoff)
        keep = len(s)
        ts.append(u.reshape(chi_l, 2, keep))
        rest = (s[:, None] * vh)
        chi_l = keep
    ts.append(rest.reshape(chi_l, 2, 1))
    new_ts, scalar = _right_canonicalize(ts)
    new_ts[0] = new_ts[0] * (scalar / abs(scalar))
    return MpsState(new_ts)


def save_mps(state, path, seed=None):
    header = {
        "format": "mps-v1",
        "n": state.n,
        "bond_dims": [int(c) for c in state.bond_dims],
        "seed": seed,
    }
    blob = json.dumps(header).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(struct.pack("<Q", len(blob)))
        fh.write(blob)
        for t in state.tensors:
            fh.write(np.ascontiguousarray(t, dtype="<c16").tobytes())


def load_mps(path):
    """Read an ``mps-v1`` file; raises ValueError on an unknown format or a
    body whose byte count does not match the header's bond dimensions."""
    with open(path, "rb") as fh:
        (hlen,) = struct.unpack("<Q", fh.read(8))
        header = json.loads(fh.read(hlen).decode("utf-8"))
        if header.get("format") != "mps-v1":
            raise ValueError(f"unknown format {header.get('format')!r}")
        body = fh.read()
    dims = header["bond_dims"]
    sizes = [dims[i] * 2 * dims[i + 1] for i in range(header["n"])]
    if len(body) != 16 * sum(sizes):
        raise ValueError(f"{path}: expected {16 * sum(sizes)} bytes of site tensors, found {len(body)}")
    flat = np.frombuffer(body, dtype="<c16").astype(complex)
    parts = np.split(flat, np.cumsum(sizes)[:-1])
    return MpsState([t.reshape(dims[i], 2, dims[i + 1]) for i, t in enumerate(parts)])

"""MPS engine: staircase random-MPS sampling with open boundaries, two-qubit
gate application with hard-cap truncation, the O(N chi^3) Pauli-expectation
contraction, and Schmidt-spectrum entanglement diagnostics.

An ``MpsState`` is held in mixed-canonical form about an orthogonality
centre, which each gate moves onto itself; every other reader sees the
right-normal ``tensors``, built lazily. Site tensors are never mutated in
place.

Serialization format (``save_mps`` / ``load_mps``), version ``mps-v1``:

* 8-byte little-endian unsigned header length ``L``;
* ``L`` bytes of UTF-8 JSON: ``{"format": "mps-v1", "n": N,
  "bond_dims": [1, ...], "seed": <int or null>}``;
* the N site tensors concatenated in site order, each in C order with shape
  ``(bond_dims[i], 2, bond_dims[i+1])``, as little-endian complex doubles.
"""

from __future__ import annotations

import itertools
import json
import struct

import numpy as np

from .kernels import haar_unitaries, svd_truncate
from .paulis import SITE_OPS

# Byte budget of the largest per-site stack of one batch of sampled MPS: the
# Ginibre blocks of a site or the partial contraction to statevectors. It
# bounds the batch, not the samples, so a large block makes a batch of one.
STACK_BYTES = 1 << 20


def bond_dims(n, chi_max):
    """Staircase bond dimensions [chi_0, ..., chi_N] with chi_0 = 1 and
    chi_i = min(chi_max, 2^(N-i)).

    Only the right tail is forced to shrink (right-normalization needs
    chi_{i-1} <= 2 chi_i); the first gate therefore spans log2(2 chi_1)
    qubits, and chi_max = 2^(N-1) makes it cover the whole system, which is
    what recovers the Haar ensemble at maximal bond dimension.
    """
    if chi_max < 1 or (chi_max & (chi_max - 1)):
        raise ValueError(f"chi_max must be a positive power of two, got {chi_max}")
    return [1] + [min(chi_max, 2 ** (n - i)) for i in range(1, n + 1)]


class MpsState:
    """Pure state of N qubits as an MPS in mixed-canonical form: sites left
    of the orthogonality centre are left-normal, sites right of it are
    right-normal, and the centre site carries the norm.

    ``MpsState(tensors)`` takes right-normal site tensors, tensors[i] of
    shape (chi_{i-1}, 2, chi_i), as centre 0. ``tensors`` is that
    right-normal view: for a state centred elsewhere (the result of a gate)
    it is computed on first read by an LQ sweep from the centre to site 0,
    and stored back as centre 0. The sites and the centre are one attribute,
    so a kept state holds one copy and a reader on another thread never sees
    half an update. Operations return new states; site tensors are never
    mutated in place.
    """

    def __init__(self, tensors):
        sites = tuple(tensors)
        if not sites:
            raise ValueError("an MPS needs at least one site")
        self.n = len(sites)
        dims = [t.shape[0] for t in sites] + [sites[-1].shape[2]]
        if dims[0] != 1 or dims[-1] != 1:
            raise ValueError("edge bonds must have dimension 1")
        for i, t in enumerate(sites):
            if t.ndim != 3 or t.shape[1] != 2 or t.shape[2] != dims[i + 1]:
                raise ValueError(f"bad tensor shape {t.shape} at site {i}")
        self._form = (sites, 0)

    @classmethod
    def _centred(cls, sites, centre):
        """State from mixed-canonical sites about `centre`, unchecked."""
        state = cls.__new__(cls)
        state.n = len(sites)
        state._form = (tuple(sites), centre)
        return state

    @property
    def tensors(self):
        """The right-normal site tensors, as a new list."""
        sites, centre = self._form
        if centre:
            ts = list(sites)
            _move_centre(ts, centre, 0)
            sites = tuple(ts)
            self._form = (sites, 0)
        return list(sites)

    @property
    def bond_dims(self):
        ts = self.tensors
        return [t.shape[0] for t in ts] + [ts[-1].shape[2]]

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
        return statevectors([t[None] for t in self.tensors])[0]


def statevectors(sites):
    """(B, 2^N) statevectors of B MPS from their stacked site tensors, each
    of shape (B, chi_{i-1}, 2, chi_i): one batched contraction per site."""
    bsz = len(sites[0])
    v = np.ones((bsz, 1, 1), dtype=complex)  # (batch, basis, bond)
    for t in sites:
        v = np.einsum("zka,zasb->zksb", v, t).reshape(bsz, -1, t.shape[3])
    return v[:, :, 0]


def sample_rmps_sites(n, chi_max, rngs):
    """Stacked site tensors of one staircase random MPS per stream, open
    boundaries: per site a Haar unitary of dimension 2*chi_i, restricted to
    the chi_{i-1} rows addressed by the zero ancillas and reshaped to
    (chi_{i-1}, 2, chi_i). Each stream draws its Ginibre blocks site by site;
    each site is one stacked QR over the streams. Returns one
    (B, chi_{i-1}, 2, chi_i) array per site. States come out exactly
    normalized and right-normalized; chi_max = 2^(N-1) reproduces the Haar
    ensemble (see bond_dims).
    """
    dims = bond_dims(n, chi_max)
    return [haar_unitaries(2 * dims[i + 1], rngs)[:, : dims[i]].reshape(len(rngs), dims[i], 2, dims[i + 1])
            for i in range(n)]


def sample_rmps_obc(n, chi_max, rng):
    """Random MPS with open boundaries: the one-stream case of sample_rmps_sites."""
    return MpsState([t[0] for t in sample_rmps_sites(n, chi_max, [rng])])


def rmps_chunks(n, chi_max, rngs):
    """The streams `rngs` in consecutive lists, each small enough that the
    largest per-site stack of sample_rmps_sites and statevectors stays within
    STACK_BYTES, and never empty."""
    dims = bond_dims(n, chi_max)
    per_sample = 16 * max(max(4 * c * c, c << (i + 1)) for i, c in enumerate(dims[1:]))
    size = max(1, STACK_BYTES // per_sample)
    it = iter(rngs)
    while chunk := list(itertools.islice(it, size)):
        yield chunk


def _move_centre(ts, frm, to):
    """Move the orthogonality centre of the site list `ts` from site `frm`
    to site `to`, replacing list entries: QRs to the right, each R moved into
    the right neighbour; LQs to the left, each L moved into the left
    neighbour. One factorization per site passed."""
    for i in range(frm, to):
        chi_r = ts[i].shape[2]
        q, r = np.linalg.qr(ts[i].reshape(-1, chi_r))
        ts[i] = q.reshape(ts[i].shape[0], 2, q.shape[1])
        ts[i + 1] = np.einsum("ab,bsc->asc", r, ts[i + 1])
    for i in range(frm, to, -1):
        # LQ via QR of the conjugate transpose: ts[i] = L q, q right-normal
        chi_r = ts[i].shape[2]
        qh, rh = np.linalg.qr(ts[i].reshape(ts[i].shape[0], -1).conj().T)
        ts[i] = qh.conj().T.reshape(-1, 2, chi_r)
        ts[i - 1] = np.einsum("asb,cb->asc", ts[i - 1], rh.conj())


def apply_two_qubit_gate(state, gate, site, chi_max):
    """Apply a 4x4 gate on (site, site+1), truncating the middle bond.

    Returns (new_state, discarded_weight). The orthogonality centre moves
    from where it is onto the gate (QRs to the right, LQs to the left), so
    the two-site SVD sees true Schmidt values, which are renormalized after
    truncation. The result is centred on `site`, which carries the singular
    values, with no sweep back. A gate costs |centre - site| factorizations
    besides its SVD (one fewer from the right), so a brickwork layer costs
    O(N) of them, not O(N^2). From centre 0 the result's `tensors` are
    byte-identical to a full re-normalization after the gate.
    """
    if site < 0 or site + 1 >= state.n:
        raise ValueError(f"bad site {site} for N={state.n}")
    gate = np.asarray(gate, dtype=complex)
    if gate.shape != (4, 4):
        raise ValueError("expected a 4x4 gate")
    sites, centre = state._form
    ts = list(sites)
    _move_centre(ts, centre, min(max(centre, site), site + 1))
    a, b = ts[site], ts[site + 1]
    chi_l, chi_r = a.shape[0], b.shape[2]
    theta = np.einsum("asb,btc->astc", a, b).reshape(chi_l, 4, chi_r)
    theta = np.einsum("uv,avb->aub", gate, theta)
    u, s, vh, discarded = svd_truncate(theta.reshape(chi_l * 2, 2 * chi_r), chi_max)
    s = s / np.linalg.norm(s)
    ts[site] = (u * s).reshape(chi_l, 2, len(s))
    ts[site + 1] = vh.reshape(len(s), 2, chi_r)
    return MpsState._centred(ts, site), float(discarded)


def pauli_expectation(state, p):
    """<phi| p |phi> by a single left-to-right O(N chi^3) contraction.

    Returns a float for Hermitian strings (checking the imaginary residue),
    a complex number otherwise.
    """
    if p.n != state.n:
        raise ValueError("qubit count mismatch")
    e = np.ones((1, 1), dtype=complex)
    for t, site in zip(state.tensors, p.sites()):
        e = np.einsum("ab,asc,ts,btd->cd", e, t, SITE_OPS[site], t.conj())
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
    for t in state.tensors[:-1]:
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


def mps_from_statevector(psi):
    """Exact right-canonical MPS of psi / |psi|, global phase included:
    successive SVDs from the right, each right factor a site tensor, that
    drop only singular values at or below 1e-14."""
    d = len(psi)
    n = d.bit_length() - 1
    if 1 << n != d:
        raise ValueError("state length is not a power of two")
    ts = []
    rest = psi.reshape(-1, 1)
    for _ in range(n - 1):
        chi_r = rest.shape[1]
        u, s, vh, _ = svd_truncate(rest.reshape(-1, 2 * chi_r), 1 << (n // 2), 1e-14)
        ts.append(vh.reshape(len(s), 2, chi_r))
        rest = u * s
    ts.append((rest / np.linalg.norm(rest)).reshape(1, 2, -1))
    return MpsState(ts[::-1])


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
    """Read an ``mps-v1`` file. Raises ValueError naming the file when the
    length prefix is cut short, the header is not a JSON object of format
    ``mps-v1`` with an integer n >= 1 and n + 1 positive integer bond_dims,
    or the body's byte count does not match those bond dimensions."""

    def bad(message):
        return ValueError(f"{path}: {message}")

    with open(path, "rb") as fh:
        prefix = fh.read(8)
        if len(prefix) != 8:
            raise bad(f"expected an 8-byte header length, found {len(prefix)} bytes")
        (hlen,) = struct.unpack("<Q", prefix)
        try:
            header = json.loads(fh.read(hlen).decode("utf-8"))
        except ValueError as exc:  # bad UTF-8 or bad JSON
            raise bad(f"header is not UTF-8 JSON ({exc})") from None
        if not isinstance(header, dict):
            raise bad("header is not a JSON object")
        if header.get("format") != "mps-v1":
            raise bad(f"unknown format {header.get('format')!r}")
        body = fh.read()
    n, dims = header.get("n"), header.get("bond_dims")
    if type(n) is not int or n < 1:
        raise bad(f"n must be an integer >= 1, found {n!r}")
    if not isinstance(dims, list) or len(dims) != n + 1 or any(type(c) is not int or c < 1 for c in dims):
        raise bad(f"bond_dims must be {n + 1} positive integers, found {dims!r}")
    sizes = [dims[i] * 2 * dims[i + 1] for i in range(n)]
    if len(body) != 16 * sum(sizes):
        raise bad(f"expected {16 * sum(sizes)} bytes of site tensors, found {len(body)}")
    flat = np.frombuffer(body, dtype="<c16").astype(complex)
    parts = np.split(flat, np.cumsum(sizes)[:-1])
    return MpsState([t.reshape(dims[i], 2, dims[i + 1]) for i, t in enumerate(parts)])

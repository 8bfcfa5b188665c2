"""Experiment driver CLI.

Every subcommand reads an optional JSON config (flags override fields) and
emits CSV with '#' header comments carrying the artifact version, the sha256
of the resolved config, and the seed, so identical config + seed reruns are
byte-identical. Errors exit nonzero with a one-line JSON diagnostic on
stderr. `brickwork` and `cooling` run their trajectories on --workers >= 1
threads (default $CMPSLAB_WORKERS, else 1); results do not depend on the count.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
import sys

import click
import numpy as np

from . import __version__
from .kernels import Rng


def _load_config(path):
    if path is None:
        return {}
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except json.JSONDecodeError as exc:
        raise click.ClickException(
            json.dumps({"error": "config_parse", "file": path, "line": exc.lineno, "message": exc.msg})
        )
    if not isinstance(cfg, dict):
        raise click.ClickException(json.dumps({"error": "config_parse", "file": path, "message": "top level must be an object"}))
    return cfg


def _as_int(x):
    """int(x), except that a bool or a float with a fractional part is an
    error rather than a truncated integer."""
    if isinstance(x, bool) or (isinstance(x, float) and not x.is_integer()):
        raise ValueError(f"{x!r} is not an integer")
    return int(x)


def _resolve(cfg, field, override, default, kind, bounds=None):
    """Merge precedence: CLI flag > config field > default. kind validates:
    "int", "int_list", "float_list", or a tuple of the allowed strings;
    bounds = (lo, hi) also rejects any number outside [lo, hi]."""
    val = override if override is not None else cfg.get(field, default)
    try:
        if kind == "int_list":
            if isinstance(val, str):
                val = [int(x) for x in val.split(",") if x.strip()]
            val = [_as_int(x) for x in val]
            if not val:
                raise ValueError("empty list")
        elif kind == "float_list":
            if isinstance(val, str):
                val = [float(x) for x in val.split(",") if x.strip()]
            val = [float(x) for x in val]
            if not val:
                raise ValueError("empty list")
        elif kind == "int":
            val = _as_int(val)
        elif val not in kind:
            raise ValueError(f"{val!r} is not one of {', '.join(kind)}")
        if bounds is not None:
            for x in val if isinstance(val, list) else [val]:
                if not bounds[0] <= x <= bounds[1]:
                    raise ValueError(f"{x} is not in [{bounds[0]}, {bounds[1]}]")
    except (TypeError, ValueError) as exc:
        raise click.ClickException(json.dumps({"error": "config_field", "field": field, "message": str(exc)}))
    return val


def _reject_unread(cfg, resolved, flags=()):
    """Fail on the first config field or given flag, in sorted order, that
    the run does not read; `experiment` is the run's name, not a field."""
    unread = sorted((set(cfg) | set(flags)) - (set(resolved) - {"experiment"}))
    if unread:
        raise click.ClickException(json.dumps(
            {"error": "config_field", "field": unread[0], "message": f"not read by {resolved['experiment']} with this config"}))


def _check_chis(chis):
    for c in chis:
        if c < 1 or (c & (c - 1)):
            raise click.ClickException(
                json.dumps({"error": "config_field", "field": "chi_list", "message": f"{c} is not a power of two"})
            )


def _output_error(path, message):
    return click.ClickException(json.dumps({"error": "output", "path": path, "message": message}))


def _check_out(path):
    """Fail before any work unless --out is stdout or a file path whose
    directory exists."""
    if path == "-":
        return
    if os.path.isdir(path):
        raise _output_error(path, "is a directory")
    if not os.path.isdir(os.path.dirname(os.path.abspath(path))):
        raise _output_error(path, "parent directory does not exist")


def _write_csv(out_path, fieldnames, rows, resolved, seed, extra_comments=()):
    digest = hashlib.sha256(json.dumps(resolved, sort_keys=True).encode()).hexdigest()
    buf = io.StringIO()
    buf.write(f"# cmpslab {__version__}\n")
    buf.write(f"# config_sha256 {digest}\n")
    buf.write(f"# seed {seed}\n")
    for line in extra_comments:
        buf.write(f"# {line}\n")
    writer = csv.DictWriter(buf, fieldnames=fieldnames, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
    data = buf.getvalue()
    if out_path == "-":
        sys.stdout.write(data)
    else:
        try:
            with open(out_path, "w") as fh:
                fh.write(data)
        except OSError as exc:
            raise _output_error(out_path, exc.strerror or str(exc))


def _workers(flag):
    return _resolve({}, "workers", flag, os.environ.get("CMPSLAB_WORKERS", 1), "int", (1, math.inf))


@click.group()
@click.version_option(__version__)
def main():
    """Random-MPS magic, design and entanglement-cooling experiments."""


_common = [
    click.option("--config", "config_path", type=click.Path(exists=True), default=None, help="JSON config file."),
    click.option("--out", default="-", show_default=True, help="Output CSV path ('-' for stdout)."),
    click.option("--seed", type=int, default=None, help="Root seed."),
]
_workers_option = click.option(
    "--workers", type=int, default=None, help="Trajectory thread count, at least 1 (default $CMPSLAB_WORKERS or 1)."
)


def common_options(fn):
    for opt in reversed(_common):
        fn = opt(fn)
    return fn


@main.command("magic-scan")
@common_options
@click.option("--n-list", default=None, help="Comma-separated system sizes.")
@click.option("--chi-list", default=None, help="Comma-separated bond dimensions (powers of two).")
@click.option("--sre-list", default=None, help="Renyi indices, subset of 2,3.")
@click.option("--boundary", default=None, help="obc or pbc.")
@click.option("--method", default=None, help="analytic or mc.")
@click.option("--samples", type=int, default=None, help="MC sample count (method=mc).")
def magic_scan(config_path, out, seed, n_list, chi_list, sre_list, boundary, method, samples):
    """Magic deviation from Haar per (N, chi, n), with power-law fits per N."""
    from .dense import MAX_SRE_QUBITS
    from .ensembles import magic_deviation_mc, rmps_sampler
    from .replica import delta_chi, fit_power_law, pbc_delta

    cfg = _load_config(config_path)
    ns = _resolve(cfg, "n_list", n_list, [8, 16], "int_list", (1, math.inf))
    chis = _resolve(cfg, "chi_list", chi_list, [2, 4, 8, 16], "int_list")
    sres = _resolve(cfg, "sre_list", sre_list, [2, 3], "int_list", (2, 3))
    boundary = _resolve(cfg, "boundary", boundary, "obc", ("obc", "pbc"))
    method = _resolve(cfg, "method", method, "analytic", ("analytic", "mc"))
    seed = _resolve(cfg, "seed", seed, 0, "int", (0, math.inf))
    resolved = {"experiment": "magic-scan", "n_list": ns, "chi_list": chis, "sre_list": sres,
                "boundary": boundary, "method": method, "seed": seed}
    if method == "mc":
        # mc's standard error needs two samples; analytic and pbc read none
        resolved["samples"] = samples = _resolve(cfg, "samples", samples, 2000, "int", (2, math.inf))
    _reject_unread(cfg, resolved, ["samples"] if samples is not None else [])
    _check_out(out)
    _check_chis(chis)
    if boundary == "pbc" and method == "mc":
        raise click.ClickException(json.dumps({"error": "config_field", "field": "method", "message": "mc supports obc only"}))
    if method == "mc" and max(ns) > MAX_SRE_QUBITS:
        raise click.ClickException(json.dumps(
            {"error": "config_field", "field": "n_list", "message": f"mc evaluates SREs densely, so N <= {MAX_SRE_QUBITS}"}))
    rng = Rng(seed)
    rows, fits = [], []
    for big_n in ns:
        for nn in sres:
            pts = []
            for chi in chis:
                if boundary == "pbc":
                    delta, se = pbc_delta(big_n, chi, nn), 0.0
                elif method == "analytic":
                    delta, se = delta_chi(big_n, chi, nn).delta, ""
                else:
                    # one child stream per CSV row, keyed by the row index
                    est = magic_deviation_mc(rmps_sampler(big_n, chi), nn, samples, rng.child(len(rows)))
                    delta, se = est.mean, est.std_error
                pts.append((chi, delta))
                rows.append({"n_sites": big_n, "chi": chi, "n": nn, "boundary": boundary,
                             "method": method, "delta": delta, "se": se})
            try:
                fit = fit_power_law(pts)
                fits.append(f"fit n_sites={big_n} n={nn} exponent={fit.exponent!r} coefficient={fit.coefficient!r}")
            except ValueError as exc:
                fits.append(f"fit n_sites={big_n} n={nn} skipped: {exc}")
    _write_csv(out, ["n_sites", "chi", "n", "boundary", "method", "delta", "se"],
               rows, resolved, seed, extra_comments=fits)


@main.command("brickwork")
@common_options
@_workers_option
@click.option("--n", "n_qubits", type=int, default=None)
@click.option("--chi-list", default=None)
@click.option("--steps", type=int, default=None)
@click.option("--trajectories", type=int, default=None)
def brickwork_cmd(config_path, out, seed, workers, n_qubits, chi_list, steps, trajectories):
    """Brickwork Haar circuit on a capped MPS: delta^(n)(t) and entropy curves."""
    from .brickwork import brickwork_scan
    from .dense import MAX_SRE_QUBITS

    cfg = _load_config(config_path)
    workers = _workers(workers)
    n_qubits = _resolve(cfg, "n", n_qubits, 8, "int", (1, MAX_SRE_QUBITS))
    chis = _resolve(cfg, "chi_list", chi_list, [2, 4, 8, 16], "int_list")
    steps = _resolve(cfg, "steps", steps, 24, "int", (0, math.inf))
    trajectories = _resolve(cfg, "trajectories", trajectories, 100, "int", (50, math.inf))
    seed = _resolve(cfg, "seed", seed, 0, "int", (0, math.inf))
    resolved = {"experiment": "brickwork", "n": n_qubits, "chi_list": chis, "steps": steps,
                "trajectories": trajectories, "seed": seed}
    _reject_unread(cfg, resolved)
    _check_out(out)
    _check_chis(chis)
    rows, plateaus = brickwork_scan(n_qubits, chis, steps, trajectories, Rng(seed), workers=workers)
    comments = [
        "plateau chi={chi} delta2={delta2_plateau!r} se={delta2_se!r} "
        "delta3={delta3_plateau!r} entropy={entropy_plateau!r}".format(**p)
        for p in plateaus
    ]
    _write_csv(out, ["t", "chi", "n", "delta", "se", "max_entropy"], rows, resolved, seed, comments)


@main.command("design-audit")
@common_options
@click.option("--n", "n_qubits", type=int, default=None)
@click.option("--chi-list", default=None)
@click.option("--pairs", type=int, default=None, help="MC overlap pairs per frame potential.")
def design_audit(config_path, out, seed, n_qubits, chi_list, pairs):
    """Frame potentials for STAB/Haar/CMPS ensembles plus Delta^(4) plug-ins."""
    from .ensembles import (
        cmps_sampler,
        design_distance_delta4,
        frame_potential_exact_stab,
        frame_potential_mc,
        haar_frame_potential,
        haar_sampler,
        stab_sampler,
    )
    from .dense import MAX_DENSE_QUBITS
    from .replica import delta_chi

    cfg = _load_config(config_path)
    n_qubits = _resolve(cfg, "n", n_qubits, 2, "int", (1, MAX_DENSE_QUBITS))
    chis = _resolve(cfg, "chi_list", chi_list, [1, 2], "int_list")
    pairs = _resolve(cfg, "pairs", pairs, 2000, "int", (2, math.inf))
    seed = _resolve(cfg, "seed", seed, 0, "int", (0, math.inf))
    resolved = {"experiment": "design-audit", "n": n_qubits, "chi_list": chis, "pairs": pairs, "seed": seed}
    _reject_unread(cfg, resolved)
    _check_out(out)
    _check_chis(chis)
    rng = Rng(seed)
    d = 1 << n_qubits
    rows = []
    for k in range(1, 5):
        rows.append({"ensemble": "haar_exact", "k": k, "estimate": haar_frame_potential(d, k), "se": 0.0})
    for k in range(1, 5):
        est = frame_potential_mc(haar_sampler(n_qubits), k, pairs, rng.child(k))
        rows.append({"ensemble": "haar_mc", "k": k, "estimate": est.mean, "se": est.std_error})
    for k in range(1, 5):
        rows.append({"ensemble": "stab_exact", "k": k, "estimate": frame_potential_exact_stab(n_qubits, k), "se": 0.0})
    if n_qubits > 2:
        for k in range(1, 5):
            est = frame_potential_mc(stab_sampler(n_qubits), k, pairs, rng.child(10 + k))
            rows.append({"ensemble": "stab_mc", "k": k, "estimate": est.mean, "se": est.std_error})
    comments = []
    for ci, chi in enumerate(chis):
        for k in range(1, 5):
            est = frame_potential_mc(cmps_sampler(n_qubits, chi), k, pairs, rng.child(100 * (ci + 1) + k))
            rows.append({"ensemble": f"cmps_chi{chi}", "k": k, "estimate": est.mean, "se": est.std_error})
        dchi = delta_chi(n_qubits, chi, 2).delta
        comments.append(f"delta4 chi={chi} value={design_distance_delta4(dchi, d)!r} from delta2={dchi!r}")
    _write_csv(out, ["ensemble", "k", "estimate", "se"], rows, resolved, seed, comments)


@main.command("cooling")
@common_options
@_workers_option
@click.option("--n-list", default=None)
@click.option("--vt-grid", default=None, help="Comma-separated vt/N values.")
@click.option("--trajectories", type=int, default=None)
@click.option("--v", "velocity", type=int, default=None, help="Layers per T insertion.")
def cooling_cmd(config_path, out, seed, workers, n_list, vt_grid, trajectories, velocity):
    """T-doped circuit states cooled by greedy two-qubit Clifford search."""
    from .cooling import cooling_scan
    from .dense import MAX_DENSE_QUBITS

    cfg = _load_config(config_path)
    workers = _workers(workers)
    ns = _resolve(cfg, "n_list", n_list, [8], "int_list", (2, MAX_DENSE_QUBITS))
    grid = _resolve(cfg, "vt_grid", vt_grid, [0.0, 0.5, 1.0, 2.0], "float_list", (0.0, math.inf))
    trajectories = _resolve(cfg, "trajectories", trajectories, 20, "int", (2, math.inf))
    velocity = _resolve(cfg, "v", velocity, 1, "int", (1, math.inf))
    seed = _resolve(cfg, "seed", seed, 0, "int", (0, math.inf))
    resolved = {"experiment": "cooling", "n_list": ns, "vt_grid": grid,
                "trajectories": trajectories, "v": velocity, "seed": seed}
    _reject_unread(cfg, resolved)
    _check_out(out)
    rows = cooling_scan(ns, grid, trajectories, Rng(seed), v=velocity, workers=workers)
    _write_csv(out, ["n", "v", "t_count", "vt_over_n", "input_sn", "input_sn_se",
                     "cooled_sn", "cooled_sn_se", "trajectories"], rows, resolved, seed)


@main.command("oracle-suite")
@click.option("--seed", type=int, default=0, show_default=True)
def oracle_suite(seed):
    """Fast self-checks of every analytic pipeline against an independent oracle."""
    rng = Rng(_resolve({}, "seed", seed, 0, "int", (0, math.inf)))
    checks = []

    def check(name, fn):
        checks.append((name, fn))

    def weingarten_k2():
        from .replica import sk_tables, weingarten_matrix
        _, index, _, _ = sk_tables(2)
        for q in (2, 4, 7, 16):
            w = weingarten_matrix(2, q)
            assert abs(w[0, index[(0, 1)]] - 1.0 / (q * q - 1)) < 1e-12
            assert abs(w[0, index[(1, 0)]] + 1.0 / (q * (q * q - 1))) < 1e-12

    def gram_times_wg():
        from .replica import sk_tables, weingarten_matrix
        for k, q in ((4, 8), (6, 32)):
            _, _, ccount, _ = sk_tables(k)
            g = float(q) ** ccount.astype(float)
            w = weingarten_matrix(k, q)
            assert np.max(np.abs(g @ w - np.eye(len(g)))) < 1e-10

    def exact_pseudo_inverse():
        from .replica import _class_matrix, weingarten_sector
        for k, q in ((6, 2), (6, 4), (6, 16), (4, 2)):
            g = _class_matrix(k, q)
            w = weingarten_sector(k, q)
            assert np.array_equal(g @ w @ g, g) and np.array_equal(w @ g @ w, w)

    def product_law():
        from .replica import obc_chain_value
        for big_n in (4, 16, 64):
            assert abs(obc_chain_value(4, 1, big_n, 2) / (8 / 5) ** big_n - 1) < 1e-10
            assert abs(obc_chain_value(6, 1, big_n, 3) / (10 / 7) ** big_n - 1) < 1e-10

    def class_sector_vs_full():
        from .mps import bond_dims
        from .replica import obc_chain_value, transfer_matrix_site
        dims = bond_dims(8, 4)
        v = np.zeros(720)
        v[0] = 1.0
        for i in range(1, 9):
            v = transfer_matrix_site(6, dims[i - 1], dims[i], 3).matrix @ v
        assert abs(obc_chain_value(6, 4, 8, 3) / np.sum(v) - 1) < 1e-12

    def chain_norm():
        from .replica import obc_chain_value
        assert abs(obc_chain_value(4, 8, 12, 2, weight="identity") - 1) < 1e-10

    def fourfold_channel():
        from .dense import (
            build_q_and_psym,
            clifford_4fold_coefficients,
            clifford_channel_4fold,
            exact_sre,
            haar_state,
        )
        psi = haar_state(1, rng.child(1))
        avg = clifford_channel_4fold(psi)
        q, psym = build_q_and_psym(1)
        alpha, beta = clifford_4fold_coefficients(2, exact_sre(psi, 2)[0])
        pred = alpha * (q @ psym) + beta * psym
        assert np.max(np.abs(avg - pred)) < 1e-10

    def stab_closed_form():
        from fractions import Fraction
        from .dense import clifford_4fold_coefficients
        from .ensembles import frame_potential_exact_stab
        # every stabilizer state has m_2 = 1/d, so its Clifford twirl is the
        # whole 4th moment of the stabilizer ensemble
        for n in range(1, 6):
            d = 1 << n
            alpha, beta = clifford_4fold_coefficients(d, Fraction(1, d))
            tr_qp, tr_p = Fraction((d + 1) * (d + 2), 6), math.comb(d + 3, 4)
            f4 = (alpha + beta) ** 2 * tr_qp + beta**2 * (tr_p - tr_qp)
            assert float(f4) == frame_potential_exact_stab(n, 4), (n, f4)

    def mps_vs_dense():
        from .dense import pauli_expectation_dense
        from .mps import mps_from_statevector, pauli_expectation
        from .paulis import hermitian_pauli_from_index
        from .dense import haar_state
        psi = haar_state(5, rng.child(2))
        state = mps_from_statevector(psi)
        for _ in range(20):
            xb, zb = int(rng.gen.integers(32)), int(rng.gen.integers(32))
            p = hermitian_pauli_from_index(5, xb, zb)
            assert abs(pauli_expectation(state, p) - pauli_expectation_dense(psi, p)) < 1e-10

    def mps_brickwork_vs_dense():
        from .brickwork import brickwork_layer
        from .dense import apply_gate, haar_state
        from .kernels import haar_unitary
        from .mps import mps_from_statevector
        # chi = 2^(N/2) truncates nothing; no read between the layers, so the
        # gates run on the mixed-canonical form the previous gate left
        psi = haar_state(6, rng.child(5))
        state = mps_from_statevector(psi)
        for t in range(6):
            state, _ = brickwork_layer(state, 8, t % 2, rng.child(10 + t))
            gates = rng.child(10 + t)
            for a in range(t % 2, 5, 2):
                psi = apply_gate(psi, haar_unitary(4, gates), [a, a + 1])
        assert np.max(np.abs(state.to_statevector() - psi)) < 1e-12
        for t in state.tensors:
            m = t.reshape(t.shape[0], -1)
            assert np.max(np.abs(m @ m.conj().T - np.eye(len(m)))) < 1e-12

    def sre_clifford_invariance():
        from .dense import exact_sre
        from .tableau import random_clifford, tableau_to_dense
        from .dense import haar_state
        psi = haar_state(4, rng.child(3))
        u = tableau_to_dense(random_clifford(4, rng.child(4)))
        assert abs(exact_sre(u @ psi, 2)[1] - exact_sre(psi, 2)[1]) < 1e-9

    def tableau_dense_conjugates():
        from .tableau import CliffordTableau, random_clifford, tableau_to_dense
        # U X_i U^dag and U Z_i U^dag, with the Paulis built by Kronecker
        # products, are the tableau's rows: its images of X_i and Z_i
        for n in (3, 6):
            t = random_clifford(n, rng.child(20 + n))
            u, ident = tableau_to_dense(t), CliffordTableau.identity(n)
            for r in range(2 * n):
                gen = ident.row_pauli(r).to_dense()
                err = np.max(np.abs(u @ gen @ u.conj().T - t.row_pauli(r).to_dense()))
                assert err < 1e-10, (n, r, err)

    check("weingarten_k2_closed_form", weingarten_k2)
    check("gram_times_weingarten_identity", gram_times_wg)
    check("weingarten_sector_exact_pseudo_inverse", exact_pseudo_inverse)
    check("chi1_product_law", product_law)
    check("obc_identity_chain_norm", chain_norm)
    check("replica_class_sector_vs_full", class_sector_vs_full)
    check("clifford_4fold_channel_n1", fourfold_channel)
    check("stab_frame_potential_closed_form", stab_closed_form)
    check("mps_vs_dense_pauli", mps_vs_dense)
    check("mps_brickwork_layers_vs_dense", mps_brickwork_vs_dense)
    check("sre_clifford_invariance", sre_clifford_invariance)
    check("tableau_dense_conjugates_generators", tableau_dense_conjugates)

    failed = 0
    for name, fn in checks:
        try:
            fn()
            click.echo(f"PASS {name}")
        except Exception as exc:  # report and keep going
            failed += 1
            click.echo(f"FAIL {name}: {exc!r}")
    if failed:
        click.echo(json.dumps({"error": "oracle_suite", "failed": failed, "total": len(checks)}), err=True)
        sys.exit(1)
    click.echo(f"all {len(checks)} oracle checks passed")


if __name__ == "__main__":
    main()

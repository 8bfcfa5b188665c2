"""Experiment driver CLI.

Every subcommand reads an optional JSON config (flags override fields) and
emits CSV with '#' header comments carrying the artifact version, the sha256
of the resolved config, and the seed, so identical config + seed reruns are
byte-identical. Errors exit nonzero with a one-line JSON diagnostic on
stderr. `brickwork` and `cooling` run their trajectories on --workers >= 1
threads (default $CMPSLAB_WORKERS, else 1); results do not depend on the count.

An experiment is a run function under `@experiment(name, fields, columns)`.
Each `Field` is one flag, one config field and one key of the resolved config.
The factory resolves and checks the fields, passes the resolved config, an
`Rng` and (for `workers=True`) the thread count to the run function, and
writes the (rows, comments) it returns as the CSV.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
import sys
from typing import Callable, NamedTuple

import click
import numpy as np

from . import __version__
from .dense import MAX_DENSE_QUBITS, MAX_SRE_QUBITS
from .kernels import Rng


def _load_config(path):
    if path is None:
        return {}
    try:
        with open(path, encoding="utf-8") as fh:
            cfg = json.load(fh)
        if isinstance(cfg, dict):
            return cfg
        detail = {"message": "top level must be an object"}
    except json.JSONDecodeError as exc:
        detail = {"line": exc.lineno, "message": exc.msg}
    except (OSError, UnicodeDecodeError) as exc:
        detail = {"message": str(exc)}
    raise click.ClickException(json.dumps({"error": "config_parse", "file": path, **detail}))


class Field(NamedTuple):
    """One experiment parameter: the flag --<name, '-' for '_'>, else the
    config field `name`, else `default`, checked by `_resolve` against `kind`
    and `bounds`. A field with `when` is read, after the seed, only if
    when(resolved) holds."""

    name: str
    kind: str | tuple
    default: object
    bounds: tuple | None = None
    help: str | None = None
    when: Callable | None = None


_SEED = Field("seed", "int", 0, (0, math.inf), "Root seed.")
_WORKERS = Field("workers", "int", 1, (1, math.inf), "Trajectory thread count, at least 1 (default $CMPSLAB_WORKERS or 1).")


def _field_error(field, message):
    return click.ClickException(json.dumps({"error": "config_field", "field": field, "message": message}))


def _as_int(x):
    """int(x), except that a bool or a float with a fractional part is an
    error rather than a truncated integer."""
    if isinstance(x, bool) or (isinstance(x, float) and not x.is_integer()):
        raise ValueError(f"{x!r} is not an integer")
    return int(x)


def _resolve(cfg, f, override):
    """Merge precedence: CLI flag > config field > default. f.kind validates:
    "int", "int_list", "float_list", or a tuple of the allowed strings;
    f.bounds = (lo, hi) also rejects any number outside [lo, hi]. A flag
    arrives as text and is parsed here."""
    val = override if override is not None else cfg.get(f.name, f.default)
    try:
        if f.kind in ("int_list", "float_list"):
            item = _as_int if f.kind == "int_list" else float
            if isinstance(val, str):
                val = [x for x in val.split(",") if x.strip()]
            val = [item(x) for x in val]
            if not val:
                raise ValueError("empty list")
        elif f.kind == "int":
            val = _as_int(val)
        elif val not in f.kind:
            raise ValueError(f"{val!r} is not one of {', '.join(f.kind)}")
        if f.bounds is not None:
            for x in val if isinstance(val, list) else [val]:
                if not f.bounds[0] <= x <= f.bounds[1]:
                    raise ValueError(f"{x} is not in [{f.bounds[0]}, {f.bounds[1]}]")
        if f.kind == "float_list":  # after the bounds, which already reject NaN
            for x in val:
                if not math.isfinite(x):
                    raise ValueError(f"{x} is not finite")
    except (TypeError, ValueError) as exc:
        raise _field_error(f.name, str(exc))
    return val


def _reject_unread(cfg, resolved, flags):
    """Fail on the first config field or given flag, in sorted order, that
    the run does not read; `experiment` is the run's name, not a field."""
    unread = sorted((set(cfg) | set(flags)) - (set(resolved) - {"experiment"}))
    if unread:
        raise _field_error(unread[0], f"not read by {resolved['experiment']} with this config")


def _check_chis(chis):
    for c in chis:
        if c < 1 or (c & (c - 1)):
            raise _field_error("chi_list", f"{c} is not a power of two")


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


def _write_csv(out_path, fieldnames, rows, resolved, extra_comments):
    digest = hashlib.sha256(json.dumps(resolved, sort_keys=True).encode()).hexdigest()
    buf = io.StringIO()
    buf.write(f"# cmpslab {__version__}\n")
    buf.write(f"# config_sha256 {digest}\n")
    buf.write(f"# seed {resolved['seed']}\n")
    for line in extra_comments:
        buf.write(f"# {line}\n")
    writer = csv.DictWriter(buf, fieldnames=fieldnames, lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    data = buf.getvalue()
    if out_path == "-":
        sys.stdout.write(data)
    else:
        try:
            with open(out_path, "w") as fh:
                fh.write(data)
        except OSError as exc:
            raise _output_error(out_path, exc.strerror or str(exc))


@click.group()
@click.version_option(__version__)
def main():
    """Random-MPS magic, design and entanglement-cooling experiments."""


_common = [
    click.option("--config", "config_path", type=click.Path(exists=True), default=None, help="JSON config file."),
    click.option("--out", default="-", show_default=True, help="Output CSV path ('-' for stdout)."),
]


def _option(f):
    # read as text, so that _resolve gives a bad integer the JSON diagnostic;
    # the metavar keeps --help as it was
    return click.option("--" + f.name.replace("_", "-"), f.name, default=None, help=f.help,
                        metavar="INTEGER" if f.kind == "int" else None)


def experiment(name, fields, columns, workers=False):
    """Register `run(cfg, rng[, workers]) -> (rows, comments)`, cfg being the
    resolved config, as the subcommand `name`. Its options are --config,
    --out, --seed, --workers (if `workers`) and one flag per field."""
    order = [f for f in fields if f.when is None] + [_SEED] + [f for f in fields if f.when is not None]

    def register(run):
        def command(config_path, out, **flags):
            cfg = _load_config(config_path)
            threads = []
            if workers:
                env_default = _WORKERS._replace(default=os.environ.get("CMPSLAB_WORKERS", _WORKERS.default))
                threads.append(_resolve({}, env_default, flags["workers"]))
            resolved = {"experiment": name}
            for f in order:
                if f.when is None or f.when(resolved):
                    resolved[f.name] = _resolve(cfg, f, flags[f.name])
            _reject_unread(cfg, resolved, [f.name for f in fields if flags[f.name] is not None])
            _check_out(out)
            if "chi_list" in resolved:
                _check_chis(resolved["chi_list"])
            rows, comments = run(resolved, Rng(resolved["seed"]), *threads)
            _write_csv(out, columns, rows, resolved, comments)

        options = _common + [_option(f) for f in [_SEED] + ([_WORKERS] if workers else []) + fields]
        for opt in reversed(options):
            command = opt(command)
        return main.command(name, help=run.__doc__)(command)

    return register


@experiment("magic-scan", [
    Field("n_list", "int_list", [8, 16], (1, math.inf), "Comma-separated system sizes."),
    Field("chi_list", "int_list", [2, 4, 8, 16], None, "Comma-separated bond dimensions (powers of two)."),
    Field("sre_list", "int_list", [2, 3], (2, 3), "Renyi indices, subset of 2,3."),
    Field("boundary", ("obc", "pbc"), "obc", None, "obc or pbc."),
    Field("method", ("analytic", "mc"), "analytic", None, "analytic or mc."),
    # mc's standard error needs two samples; analytic and pbc read none
    Field("samples", "int", 2000, (2, math.inf), "MC sample count (method=mc).", when=lambda r: r["method"] == "mc"),
], ["n_sites", "chi", "n", "boundary", "method", "delta", "se"])
def magic_scan(cfg, rng):
    """Magic deviation from Haar per (N, chi, n), with power-law fits per N."""
    from .ensembles import magic_deviation_mc, rmps_sampler
    from .replica import delta_chi, fit_power_law, pbc_delta

    boundary, method = cfg["boundary"], cfg["method"]
    if boundary == "pbc" and method == "mc":
        raise _field_error("method", "mc supports obc only")
    if method == "mc" and max(cfg["n_list"]) > MAX_SRE_QUBITS:
        raise _field_error("n_list", f"mc evaluates SREs densely, so N <= {MAX_SRE_QUBITS}")
    rows, fits = [], []
    for big_n in cfg["n_list"]:
        for nn in cfg["sre_list"]:
            pts = []
            for chi in cfg["chi_list"]:
                if boundary == "pbc":
                    delta, se = pbc_delta(big_n, chi, nn), 0.0
                elif method == "analytic":
                    delta, se = delta_chi(big_n, chi, nn).delta, ""
                else:
                    # one child stream per CSV row, keyed by the row index
                    est = magic_deviation_mc(rmps_sampler(big_n, chi), nn, cfg["samples"], rng.child(len(rows)))
                    delta, se = est.mean, est.std_error
                pts.append((chi, delta))
                rows.append({"n_sites": big_n, "chi": chi, "n": nn, "boundary": boundary,
                             "method": method, "delta": delta, "se": se})
            try:
                fit = fit_power_law(pts)
                fits.append(f"fit n_sites={big_n} n={nn} exponent={fit.exponent!r} coefficient={fit.coefficient!r}")
            except ValueError as exc:
                fits.append(f"fit n_sites={big_n} n={nn} skipped: {exc}")
    return rows, fits


@experiment("brickwork", [
    Field("n", "int", 8, (1, MAX_SRE_QUBITS)),
    Field("chi_list", "int_list", [2, 4, 8, 16]),
    Field("steps", "int", 24, (0, math.inf)),
    Field("trajectories", "int", 100, (50, math.inf)),
], ["t", "chi", "n", "delta", "se", "max_entropy"], workers=True)
def brickwork_cmd(cfg, rng, workers):
    """Brickwork Haar circuit on a capped MPS: delta^(n)(t) and entropy curves."""
    from .brickwork import brickwork_scan

    rows, plateaus = brickwork_scan(cfg["n"], cfg["chi_list"], cfg["steps"], cfg["trajectories"], rng, workers=workers)
    comments = [
        "plateau chi={chi} delta2={delta2_plateau!r} se={delta2_se!r} "
        "delta3={delta3_plateau!r} entropy={entropy_plateau!r}".format(**p)
        for p in plateaus
    ]
    return rows, comments


@experiment("design-audit", [
    Field("n", "int", 2, (1, MAX_DENSE_QUBITS)),
    Field("chi_list", "int_list", [1, 2]),
    Field("pairs", "int", 2000, (2, math.inf), "MC overlap pairs per frame potential."),
], ["ensemble", "k", "estimate", "se"])
def design_audit(cfg, rng):
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
    from .replica import delta_chi

    n_qubits, pairs = cfg["n"], cfg["pairs"]
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
    for ci, chi in enumerate(cfg["chi_list"]):
        for k in range(1, 5):
            est = frame_potential_mc(cmps_sampler(n_qubits, chi), k, pairs, rng.child(100 * (ci + 1) + k))
            rows.append({"ensemble": f"cmps_chi{chi}", "k": k, "estimate": est.mean, "se": est.std_error})
        dchi = delta_chi(n_qubits, chi, 2).delta
        comments.append(f"delta4 chi={chi} value={design_distance_delta4(dchi, d)!r} from delta2={dchi!r}")
    return rows, comments


@experiment("cooling", [
    Field("n_list", "int_list", [8], (2, MAX_DENSE_QUBITS)),
    Field("vt_grid", "float_list", [0.0, 0.5, 1.0, 2.0], (0.0, math.inf), "Comma-separated vt/N values."),
    Field("trajectories", "int", 20, (2, math.inf)),
    Field("v", "int", 1, (1, math.inf), "Layers per T insertion."),
], ["n", "v", "t_count", "vt_over_n", "input_sn", "input_sn_se", "cooled_sn", "cooled_sn_se", "trajectories"],
    workers=True)
def cooling_cmd(cfg, rng, workers):
    """T-doped circuit states cooled by greedy two-qubit Clifford search."""
    from .cooling import cooling_scan

    return cooling_scan(cfg["n_list"], cfg["vt_grid"], cfg["trajectories"], rng, v=cfg["v"], workers=workers), []


@main.command("oracle-suite")
@click.option("--seed", default="0", show_default=True, metavar="INTEGER")
def oracle_suite(seed):
    """Fast self-checks of every analytic pipeline against an independent oracle."""
    rng = Rng(_resolve({}, _SEED, seed))
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

"""Acceptance gate: one test per criterion, each printing a single
PASS/FAIL line with the measured numbers. Criteria that are out of reach at
this scale are still measured faithfully and allowed to fail."""

import os

import numpy as np
import pytest

from cmpslab.kernels import Rng

WORKERS = max(1, min(8, os.cpu_count() or 1))


def report(num, ok, detail):
    print(f"CRITERION {num:02d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


# ---------------------------------------------------------------- 1


def test_criterion_01_weingarten_oracle():
    from cmpslab.replica import sk_tables, weingarten_matrix

    worst = 0.0
    _, index, _, _ = sk_tables(2)
    for q in (2, 4, 7, 16):
        w = weingarten_matrix(2, q)
        worst = max(worst, abs(w[0, index[(0, 1)]] - 1 / (q**2 - 1)))
        worst = max(worst, abs(w[0, index[(1, 0)]] + 1 / (q * (q**2 - 1))))
    ok = worst < 1e-12
    gw_worst = 0.0
    for k in (4, 6):
        for q in (8, 32):
            _, _, ccount, _ = sk_tables(k)
            gram = float(q) ** ccount.astype(float)
            w = weingarten_matrix(k, q)
            gw_worst = max(gw_worst, np.max(np.abs(gram @ w - np.eye(len(gram)))))
    ok = ok and gw_worst < 1e-10
    report(1, ok, f"k=2 closed-form err {worst:.2e}; GW-1 err {gw_worst:.2e}")


# ---------------------------------------------------------------- 2


def test_criterion_02_clifford_4fold_channel_exact():
    from cmpslab.dense import (
        build_q_and_psym,
        clifford_4fold_coefficients,
        clifford_channel_4fold,
        exact_sre,
        haar_state,
        zero_state,
    )

    rng = Rng(101)
    worst = 0.0
    for n in (1, 2):
        d = 1 << n
        q, psym = build_q_and_psym(n)
        states = [zero_state(n)] + [haar_state(n, rng.child(10 * n + i)) for i in range(3)]
        for psi in states:
            avg = clifford_channel_4fold(psi)
            alpha, beta = clifford_4fold_coefficients(d, exact_sre(psi, 2)[0])
            pred = alpha * (q @ psym) + beta * psym
            worst = max(worst, float(np.linalg.norm(avg - pred)))
    report(2, worst < 1e-10, f"worst Frobenius error {worst:.2e} over N=1,2 x 4 states")


# ---------------------------------------------------------------- 3


def test_criterion_03_haar_magic_closed_forms():
    from cmpslab.dense import exact_sre, haar_state
    from cmpslab.replica import haar_magic_closed_form

    rng = Rng(103)
    parts = []
    ok = True
    for n in (2, 3):
        d = 1 << n
        m2 = np.empty(5000)
        m3 = np.empty(5000)
        for i in range(5000):
            psi = haar_state(n, rng.child(1000 * n + i))
            m2[i] = exact_sre(psi, 2)[0]
            m3[i] = exact_sre(psi, 3)[0]
        for nn, vals in ((2, m2), (3, m3)):
            want = haar_magic_closed_form(d, nn)
            se = vals.std(ddof=1) / np.sqrt(len(vals))
            z = (vals.mean() - want) / se
            ok = ok and abs(z) < 3
            parts.append(f"N={n} m{nn} z={z:+.2f}")
    report(3, ok, "; ".join(parts))


# ---------------------------------------------------------------- 4


def test_criterion_04_product_state_law():
    from cmpslab.dense import exact_sre
    from cmpslab.mps import sample_rmps_obc
    from cmpslab.replica import obc_chain_value

    worst = 0.0
    for big_n in range(1, 65):
        worst = max(worst, abs(obc_chain_value(4, 1, big_n, 2) / (8 / 5) ** big_n - 1))
        worst = max(worst, abs(obc_chain_value(6, 1, big_n, 3) / (10 / 7) ** big_n - 1))
    ok = worst < 1e-10
    rng = Rng(104)
    m2 = np.empty(10000)
    m3 = np.empty(10000)
    for i in range(10000):
        psi = sample_rmps_obc(4, 1, rng.child(i)).to_statevector()
        m2[i] = exact_sre(psi, 2)[0]
        m3[i] = exact_sre(psi, 3)[0]
    zs = []
    for vals, scale, want in ((m2, 16.0**2, (8 / 5) ** 4), (m3, 16.0**3, (10 / 7) ** 4)):
        v = vals * scale
        zs.append((v.mean() - want) / (v.std(ddof=1) / 100))
    ok = ok and all(abs(z) < 3 for z in zs)
    report(4, ok, f"closed-form rel err {worst:.1e}; MC z2={zs[0]:+.2f} z3={zs[1]:+.2f}")


# ---------------------------------------------------------------- 5


def test_criterion_05_k4_spectrum():
    from cmpslab.replica import leading_eigenvalue, transfer_spectrum

    errs = []
    for chi in (16, 64):
        series = 1 + 9 / (4 * chi**2) - 171 / (16 * chi**4) + 5265 / (64 * chi**6)
        errs.append(abs(leading_eigenvalue(4, chi, 2) - series))
    ok = max(errs) < 1e-5
    lam = np.sort(transfer_spectrum(4, 64, 2).real)[::-1]
    cluster = 1 - 3 / (4 * 64**2) - 3 / (16 * 64**4)
    cluster_err = np.max(np.abs(lam[1:4] - cluster))
    ok = ok and cluster_err < 1e-6
    rest_ok = all(min(abs(x - 0.5), abs(x - 0.25)) < 0.05 for x in lam[4:])
    ok = ok and rest_ok
    report(
        5,
        ok,
        f"lambda1 err {max(errs):.1e}; cluster err {cluster_err:.1e}; tail near 1/2,1/4: {rest_ok}",
    )


# ---------------------------------------------------------------- 6


def test_criterion_06_k6_leading_eigenvalue_fit():
    from cmpslab.replica import fit_power_law, leading_eigenvalue

    pts = [(chi, leading_eigenvalue(6, chi, 3, precise=True) - 1) for chi in (4, 8, 16, 32, 64)]
    free = fit_power_law(pts)
    pinned = fit_power_law(pts, exponent=-6.0)
    ok = abs(free.exponent + 6) < 0.2 and abs(pinned.coefficient - 9.70) < 0.5
    report(
        6,
        ok,
        f"free exponent {free.exponent:.3f} (want -6 +/- 0.2); "
        f"chi^-6 amplitude {pinned.coefficient:.3f} (want 9.70 +/- 0.5)",
    )


# ---------------------------------------------------------------- 7


def test_criterion_07_normalization_invariant():
    from cmpslab.replica import obc_chain_value, pbc_trace

    worst = 0.0
    for big_n in (4, 8, 16, 32, 64, 128, 256):
        for chi in (2, 4, 8, 16, 32, 64):
            worst = max(worst, abs(obc_chain_value(4, chi, big_n, 2, weight="identity") - 1))
    for big_n in (4, 64):
        for chi in (2, 8, 32):
            worst = max(worst, abs(obc_chain_value(6, chi, big_n, 3, weight="identity") - 1))
    pbc_dev = abs(pbc_trace(4, 2, 4, 2, weight="identity") - 1)
    ok = worst < 1e-10 and pbc_dev > 1e-3
    report(7, ok, f"OBC worst |norm-1| {worst:.1e}; PBC deviation at (4,2) {pbc_dev:.3e}")


# ---------------------------------------------------------------- 8


def test_criterion_08_scaling_exponents():
    from cmpslab.replica import delta_chi, fit_power_law, pbc_delta

    chis = [8, 16, 32, 64, 128, 256]
    obc = {n: {c: delta_chi(64, c, n).delta for c in chis} for n in (2, 3)}
    pbc = {n: {c: pbc_delta(64, c, n) for c in chis} for n in (2, 3)}
    parts = []
    oks = []

    def slope(tab, want, tol, label):
        f = fit_power_law(list(tab.items()))
        ok = abs(f.exponent - want) < tol
        oks.append(ok)
        parts.append(f"{label} slope {f.exponent:.3f} (want {want} +/- {tol})")

    slope(obc[2], -2, 0.1, "OBC n=2")
    slope(pbc[2], -4, 0.1, "PBC n=2")
    slope(obc[3], -3, 0.1, "OBC n=3")
    slope(pbc[3], -6, 0.15, "PBC n=3")

    # coefficient-vs-N: amplitudes from pinned-slope fits on the large-chi
    # window (chi in {64,128,256}), where N (lambda_1 - 1) stays < 1/2 for
    # every N in the grid and the leading power law is actually in force
    coef_chis = [64, 128, 256]
    big_ns = [64, 128, 256, 512]
    for n, kind, fn, exp0, want in (
        (2, "OBC", lambda N, c: delta_chi(N, c, 2).delta, -2, 1.0),
        (3, "OBC", lambda N, c: delta_chi(N, c, 3).delta, -3, 1.0),
        (2, "PBC", lambda N, c: pbc_delta(N, c, 2), -4, 2.0),
        (3, "PBC", lambda N, c: pbc_delta(N, c, 3), -6, 1.0),
    ):
        coefs = []
        for big_n in big_ns:
            pts = [(c, fn(big_n, c)) for c in coef_chis]
            coefs.append((big_n, fit_power_law(pts, exponent=exp0).coefficient))
        f = fit_power_law(coefs)
        ok = abs(f.exponent - want) < 0.1
        oks.append(ok)
        parts.append(f"{kind} n={n} coeff-vs-N {f.exponent:.3f} (want {want} +/- 0.1)")

    report(8, all(oks), "; ".join(parts))


# ---------------------------------------------------------------- 9


def test_criterion_09_analytic_vs_mc_gate():
    from cmpslab.replica import delta_chi, haar_magic_scaled

    rng = Rng(109)
    parts = []
    ok = True
    for big_n, chi in ((4, 2), (6, 4)):
        analytic = delta_chi(big_n, chi, 2).delta
        mc = delta_chi(big_n, chi, 2, method="mc", rng=rng.child(big_n), samples=10000)
        z = (mc.delta - analytic) / mc.se
        ok = ok and abs(z) < 3
        parts.append(f"(N={big_n},chi={chi}) z={z:+.2f}")
    report(9, ok, "; ".join(parts))


# ---------------------------------------------------------------- 10


def test_criterion_10_purity_statistics():
    from cmpslab.ensembles import (
        cmps_sampler,
        haar_sampler,
        purity_fluctuation_formulas,
        purity_fluctuation_mc,
        stab_purity_exhaustive,
    )
    from cmpslab.replica import delta_chi

    mean, var = stab_purity_exhaustive(2)
    ok = abs(mean - 0.8) < 1e-9 and abs(var - 0.06) < 1e-9
    parts = [f"STAB mean {mean:.10f} var {var:.10f}"]

    est = purity_fluctuation_mc(haar_sampler(2), 4000, Rng(110))
    z = (est.mean - 0.0171429) / est.std_error
    ok = ok and abs(z) < 3
    parts.append(f"Haar N=2 z={z:+.2f}")

    d = 64
    for chi in (1, 2, 4):
        pred = purity_fluctuation_formulas(d, "CMPS", delta_chi(6, chi, 2).delta)
        est = purity_fluctuation_mc(cmps_sampler(6, chi), 3000, Rng(1100 + chi))
        z = (est.mean - pred) / est.std_error
        ok = ok and abs(z) < 3
        parts.append(f"CMPS chi={chi} z={z:+.2f}")
    report(10, ok, "; ".join(parts))


# ---------------------------------------------------------------- 11


def test_criterion_11_frame_potentials():
    from cmpslab.ensembles import (
        cmps_sampler,
        frame_potential_exact_stab,
        frame_potential_mc,
        haar_frame_potential,
        haar_sampler,
    )

    parts = []
    ok = abs(frame_potential_exact_stab(2, 4) - 1 / 32) < 1e-9
    parts.append(f"STAB F4 {frame_potential_exact_stab(2, 4):.8f}")

    est = frame_potential_mc(haar_sampler(2), 4, 4000, Rng(111))
    z = (est.mean - 1 / 35) / est.std_error
    ok = ok and abs(z) < 3
    parts.append(f"Haar F4 z={z:+.2f}")

    worst_z = 0.0
    for n in (2, 3):
        d = 1 << n
        for chi in (1, 2):
            for k in (1, 2, 3):
                est = frame_potential_mc(
                    cmps_sampler(n, chi), k, 2000, Rng(5000 + 100 * n + 10 * chi + k)
                )
                z = (est.mean - haar_frame_potential(d, k)) / est.std_error
                worst_z = max(worst_z, abs(z))
    ok = ok and worst_z < 3
    parts.append(f"CMPS k<=3 worst |z| {worst_z:.2f}")

    prev = None
    mono = True
    for chi in (1, 2, 4):
        est = frame_potential_mc(cmps_sampler(3, chi), 4, 4000, Rng(6000 + chi))
        if prev is not None:
            mono = mono and est.mean <= prev.mean + 3 * np.hypot(est.std_error, prev.std_error)
        prev = est
    ok = ok and mono
    parts.append(f"CMPS F4 monotone in chi (within errors): {mono}")
    report(11, ok, "; ".join(parts))


# ---------------------------------------------------------------- 12


def test_criterion_12_brickwork_experiment():
    from cmpslab.brickwork import brickwork_scan
    from cmpslab.replica import fit_power_law

    _, plateaus = brickwork_scan(8, [2, 4, 8, 16], 24, 100, Rng(112), workers=WORKERS)
    parts = []
    ent_ok = True
    for p in plateaus:
        rel = abs(p["entropy_plateau"] - np.log(p["chi"])) / np.log(p["chi"])
        ent_ok = ent_ok and rel < 0.02
        parts.append(f"chi={p['chi']} S rel dev {rel:.3f}")
    pts = [
        (p["chi"], p["delta2_plateau"])
        for p in plateaus
        if p["delta2_plateau"] > 3 * p["delta2_se"]
    ]
    fit = fit_power_law(pts) if len(pts) >= 2 else None
    slope_ok = fit is not None and abs(fit.exponent + 2) < 0.3
    parts.append(
        f"delta2 slope {fit.exponent:.3f} (want -2 +/- 0.3)" if fit else "slope fit unavailable"
    )
    report(12, ent_ok and slope_ok, "; ".join(parts))


# ---------------------------------------------------------------- 13


def test_criterion_13_entanglement_cooling():
    from concurrent.futures import ThreadPoolExecutor

    from cmpslab.cooling import build_stabilizer_state, cool, cooling_scan

    rng = Rng(113)

    def run_stab(i):
        psi = build_stabilizer_state(8, 8, rng.child(i))
        rep = cool(psi)
        return rep.entropy_trace[-1] < 1e-8 and rep.sweeps_run <= 8

    with ThreadPoolExecutor(max_workers=WORKERS) as pool:
        cooled = list(pool.map(run_stab, range(50)))
    frac = sum(cooled) / 50
    ok = frac >= 0.95
    parts = [f"stabilizer cooled {frac:.0%} (want >= 95%)"]

    rows = cooling_scan([8], [0.5, 2.0], 20, Rng(1130), workers=WORKERS)
    half, two = rows[0], rows[1]
    ratio = half["cooled_sn"] / half["input_sn"]
    ok = ok and ratio <= 0.5
    parts.append(f"vt/N=0.5 cooled/input {ratio:.3f} (want <= 0.5)")
    ok = ok and two["cooled_sn"] > half["cooled_sn"]
    parts.append(
        f"cooled S/N {two['cooled_sn']:.4f} at vt/N=2 vs {half['cooled_sn']:.4f} at 0.5"
    )
    report(13, ok, "; ".join(parts))


# ---------------------------------------------------------------- 14


def test_criterion_14_cross_cutting_invariants():
    from cmpslab.dense import exact_sre, haar_state, pauli_expectation_dense
    from cmpslab.mps import mps_from_statevector, pauli_expectation
    from cmpslab.paulis import hermitian_pauli_from_index
    from cmpslab.tableau import random_clifford, tableau_to_dense

    rng = Rng(114)
    worst_inv = 0.0
    for i in range(100):
        n = 2 + i % 5  # N in 2..6
        psi = haar_state(n, rng.child(2 * i))
        u = tableau_to_dense(random_clifford(n, rng.child(2 * i + 1)))
        worst_inv = max(worst_inv, abs(exact_sre(u @ psi, 2)[1] - exact_sre(psi, 2)[1]))
    ok = worst_inv < 1e-9

    worst_stab = 0.0
    for i in range(100):
        n = (4, 6, 8, 10)[i % 4]
        psi = tableau_to_dense(random_clifford(n, rng.child(1000 + i)))[:, 0]
        worst_stab = max(worst_stab, exact_sre(psi, 2)[1])
    ok = ok and worst_stab < 1e-10

    worst_mps = 0.0
    for i in range(500):
        n = 2 + i % 7  # N in 2..8
        r = rng.child(3000 + i)
        psi = haar_state(n, r)
        st = mps_from_statevector(psi)
        p = hermitian_pauli_from_index(n, int(r.integers(1 << n)), int(r.integers(1 << n)))
        worst_mps = max(worst_mps, abs(pauli_expectation(st, p) - pauli_expectation_dense(psi, p)))
    ok = ok and worst_mps < 1e-10
    report(
        14,
        ok,
        f"SRE invariance {worst_inv:.1e}; stabilizer M2 {worst_stab:.1e}; "
        f"MPS-vs-dense {worst_mps:.1e}",
    )

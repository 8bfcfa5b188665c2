"""The benchmark's four workloads, their inputs and their output checks.

Each workload is a fixed job built from the public functions that one
``cmpslab`` subcommand calls. A job is a list of units; a unit is one call
whose result the checks can examine. ``units(r)`` builds round r of the job
from ``Rng(seed).child(r)``, so the same seed gives the same inputs and every
round does the same amount of work. ``first_unit()`` is the unit whose cold
run pays the process's one-time set-up. The checks compare outputs with
computations made here, apart from the program, or with properties the
method must have; none compares with a stored copy of earlier output.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from cmpslab import brickwork, cooling, dense, ensembles, mps, paulis, replica
from cmpslab.kernels import Rng

FIRST_CHILD = 10**6  # Rng child index for the first unit, apart from rounds
CHECK_CHILD = 2 * 10**6  # Rng child index for inputs made by the checks

# Layers timed from outside in a traced run, as module.function.
TRACED = (
    "replica.sk_tables", "replica.transfer_matrix_site", "replica.transfer_spectrum",
    "replica.leading_eigenvalue", "replica.obc_chain_value", "replica.pbc_delta",
    "replica.delta_chi",
    "dense.pauli_spectrum", "dense.exact_sre", "dense.apply_gate", "dense.entanglement_entropy",
    "dense.dense_clifford_group", "dense.purity", "dense.haar_state",
    "mps.apply_two_qubit_gate", "mps.entanglement_profile", "mps.MpsState.to_statevector",
    "mps.sample_rmps_obc",
    "kernels.haar_unitary", "kernels.svd_truncate",
    "paulis.apply_to_statevector",
    "tableau.enumerate_clifford_group", "tableau.CliffordTableau.compose",
    "tableau.random_clifford", "tableau.tableau_to_dense",
    "brickwork.brickwork_scan", "brickwork.brickwork_trajectory", "brickwork.brickwork_layer",
    "cooling.cooling_scan", "cooling.cool", "cooling.build_doped_state",
    "cooling.build_stabilizer_state",
    "ensembles.frame_potential_mc", "ensembles.purity_fluctuation_mc", "ensembles.sample_cmps",
    "ensembles.cmps_statevector", "ensembles.frame_potential_exact_stab", "ensembles.stab_states_exhaustive",
)
DISTINCT = ("replica.transfer_matrix_site",)
# Work counts of wasted work, in addition to calls and self time per layer.
WORK_COUNTS = ("replica.transfer_matrix_site.distinct", "brickwork.spectra_per_state",
               "cooling.bond_searches", "cooling.sweeps")


# ------------------------------------------------------ independent maths

def haar_scaled(d, n):
    """d^n E_Haar[m_n] from the Haar moments E<P>^{2n} = (2n-1)!! / prod_j (d+2j+1)
    over the d^2 - 1 non-identity Pauli strings; exact rational arithmetic."""
    moment = Fraction(math.prod(range(1, 2 * n, 2)), math.prod(d + 2 * j + 1 for j in range(n)))
    return float(1 + (d * d - 1) * moment)


def haar_frame(d, k):
    """Haar frame potential 1/binom(d+k-1, k) and the variance of one overlap
    |<a|b>|^{2k}, F^(2k) - F^(k)^2."""
    f = 1.0 / math.comb(d + k - 1, k)
    return f, 1.0 / math.comb(d + 2 * k - 1, 2 * k) - f * f


def cut_entropies(psi, n):
    """Von Neumann entropy (nats) of every contiguous cut [0, c) | [c, n)."""
    out = []
    for c in range(1, n):
        s = np.linalg.svd(psi.reshape(1 << c, -1), compute_uv=False) ** 2
        s = s[s > 1e-15]
        out.append(float(-np.sum(s * np.log(s))))
    return out


_H = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
_S = np.diag([1, 1j])
_CNOT = np.eye(4, dtype=complex)[[0, 1, 3, 2]]  # basis |control target>


def replay(psi, circuit, n):
    """Apply a first-applied-first gate list with locally built H, S, CNOT."""
    t = np.array(psi, dtype=complex).reshape((2,) * n)
    for name, qubits in circuit:
        gate = {"H": _H, "S": _S, "CNOT": _CNOT}[name]
        k = len(qubits)
        g = gate.reshape((2,) * (2 * k))
        t = np.tensordot(g, t, axes=(list(range(k, 2 * k)), list(qubits)))
        t = np.moveaxis(t, list(range(k)), list(qubits))
    return t.reshape(-1)


def z_score(mean, se, samples, exact, floor_var):
    """(mean - exact) / se, with se no smaller than sqrt(floor_var / samples).

    floor_var is the Haar variance of one sample. Haar minimises the
    frame potentials, so no design has less; the floor keeps a sample that
    missed the rare large values from reporting a tiny standard error.
    """
    return (mean - exact) / max(se, math.sqrt(floor_var / samples))


class Workload:
    """One fixed job; subclasses define the units and the checks."""

    name = ""
    full = {}
    small = {}

    def __init__(self, seed, small=False):
        self.seed = int(seed)
        self.p = dict(self.small if small else self.full)
        self.root = Rng(self.seed)
        self.counts = {}
        self.notes = []  # findings written to the result file, not gated
        self.unit = None  # (round, label) of the unit that is running

    def call(self, r, label, fn):
        """Run one unit, so that observers can tell which unit they saw."""
        self.unit = (r, label)
        try:
            return fn()
        finally:
            self.unit = None

    def observe(self, observer):
        """Install the observers whose records the checks or counts need."""

    def first_unit(self):
        raise NotImplementedError

    def units(self, r):
        raise NotImplementedError

    def check(self, outputs):
        """outputs: [(round, label, value)] of units that returned. Returns
        [(round, label, message)] for each failed check; a label that is no
        unit's marks a check of the round as a whole."""
        raise NotImplementedError

    def work_counts(self, tracer):
        states = self.counts.get("states", 0)
        return {
            "replica.transfer_matrix_site.distinct": len(tracer.distinct.get("replica.transfer_matrix_site", ())),
            "brickwork.spectra_per_state": tracer.calls["dense.pauli_spectrum"] / states if states else 0.0,
            "cooling.bond_searches": self.counts.get("bond_searches", 0),
            "cooling.sweeps": self.counts.get("sweeps", 0),
        }


# --------------------------------------------------------------- replica

class ReplicaScan(Workload):
    """OBC delta_chi and PBC pbc_delta for n in {2, 3} over the chi grid at one N
    per round, plus the extended-precision k=6 leading eigenvalue."""

    name = "replica-scan"
    full = {"ns": (64, 128, 256, 512), "chis": (8, 16, 32, 64, 128, 256), "precise_chis": (8, 16, 32, 64)}
    small = {"ns": (8, 12), "chis": (2, 4, 8), "precise_chis": (4, 8)}

    def __init__(self, seed, small=False):
        super().__init__(seed, small)
        # each round takes the next precise chi, so rounds of one run do not
        # share the extended-precision LU that replica caches per chi
        self.precise_order = [int(c) for c in self.root.child(FIRST_CHILD + 1).gen.permutation(self.p["precise_chis"])]

    def first_unit(self):
        rng = self.root.child(FIRST_CHILD)
        big_n = int(rng.gen.choice(self.p["ns"]))
        replica.delta_chi(big_n, self.p["chis"][0], 3)

    def units(self, r):
        rng = self.root.child(r)
        big_n = int(rng.gen.choice(self.p["ns"]))
        chi_p = self.precise_order[r % len(self.precise_order)]
        out = []
        for n in (2, 3):
            for chi in self.p["chis"]:
                out.append((f"obc N={big_n} chi={chi} n={n}",
                            lambda N=big_n, c=chi, n=n: ("obc", N, c, n, replica.delta_chi(N, c, n).delta)))
        for chi in self.p["chis"]:
            out.append((f"pbc N={big_n} chi={chi} n=2",
                        lambda N=big_n, c=chi: ("pbc", N, c, 2, replica.pbc_delta(N, c, 2))))
        out.append((f"pbc N={big_n} chi={chi_p} n=3",
                    lambda N=big_n, c=chi_p: ("pbc", N, c, 3, replica.pbc_delta(N, c, 3))))
        out.append((f"lambda1 k=6 chi={chi_p}",
                    lambda c=chi_p: ("lambda1", 6, c, 3, float(replica.leading_eigenvalue(6, c, 3, precise=True)))))
        return out

    def check(self, outputs):
        bad = []
        sweeps = {}
        for r, label, (kind, a, chi, n, val) in outputs:
            if kind == "obc" and r == 0:  # round 0 only: each k=6 chain costs ~0.5 s
                big_n = a
                norm = replica.obc_chain_value(2 * n, chi, big_n, n, weight="identity")
                if abs(norm - 1) > 1e-10:
                    bad.append((r, label, f"identity-weight chain {norm!r} != 1"))
            if kind in ("obc", "pbc"):
                if not val > 0:
                    bad.append((r, label, f"delta {val!r} not positive"))
                sweeps.setdefault((r, kind, a, n), []).append((chi, val, label))
            if kind == "lambda1" and chi <= 16 and r == 0:
                dbl = np.linalg.eigvals(replica.transfer_matrix_site(6, chi, chi, 3).matrix)
                top = float(np.max(dbl.real))
                if abs(val - top) > 1e-12:
                    bad.append((r, label, f"precise lambda1 {val!r} vs double eigvals {top!r}"))
        for (r, kind, _, n), pts in sweeps.items():
            pts.sort()
            for (c0, v0, _), (c1, v1, label) in zip(pts, pts[1:]):
                if not v1 < v0:
                    bad.append((r, label, f"{kind} n={n} delta not decreasing: chi {c0}->{c1}: {v0!r} -> {v1!r}"))
        for r, big_n in sorted({(r, a) for r, _, (kind, a, *_rest) in outputs if kind == "obc" and r == 0}):
            for n, base in ((2, 8 / 5), (3, 10 / 7)):
                val = replica.delta_chi(big_n, 1, n).delta + haar_scaled(2**big_n, n)
                if abs(val / base**big_n - 1) > 1e-10:
                    bad.append((r, f"chi=1 N={big_n} n={n}", f"chi=1 chain {val!r} != {base}^{big_n}"))
        for big_n in (4, 6):
            for n in (2, 3):
                delta = replica.delta_chi(big_n, 2 ** (big_n - 1), n).delta
                if abs(delta) > 1e-10:
                    bad.append((0, f"haar N={big_n} n={n}", f"delta at chi=2^(N-1) is {delta!r}"))
        for chi in (16, 64):
            lam = replica.leading_eigenvalue(4, chi, 2)
            series = 1 + 9 / (4 * chi**2) - 171 / (16 * chi**4) + 5265 / (64 * chi**6)
            if abs(lam - series) > 1e-5:
                bad.append((0, f"lambda1 k=4 chi={chi}", f"{lam!r} vs series {series!r}"))
        return bad


# ------------------------------------------------------------- brickwork

class Brickwork(Workload):
    """The `cmpslab brickwork` scan at N=8 plus an entanglement-only N=64 leg
    of the same brickwork_layer evolution."""

    name = "brickwork"
    full = {"n": 8, "chis": (2, 4, 8, 16), "steps": 24, "traj": 2, "leg_n": 64, "leg_chi": 16, "leg_steps": 14}
    small = {"n": 4, "chis": (2, 4), "steps": 4, "traj": 2, "leg_n": 8, "leg_chi": 4, "leg_steps": 3}

    def observe(self, observer):
        def states(args, kwargs, rec):
            self.counts["states"] = self.counts.get("states", 0) + len(rec.m2)

        observer.watch("brickwork.brickwork_trajectory", states)

    def first_unit(self):
        brickwork.brickwork_trajectory(self.p["n"], self.p["chis"][0], 2, self.root.child(FIRST_CHILD))

    def units(self, r):
        p = self.p
        rng = self.root.child(r)
        out = [("scan", lambda: ("scan", brickwork.brickwork_scan(p["n"], list(p["chis"]), p["steps"],
                                                                   p["traj"], rng.child(0))))]
        leg = {"state": mps.MpsState.product_state([(1.0, 0.0)] * p["leg_n"]), "rng": rng.child(1)}

        def step(s):
            leg["state"], w = brickwork.brickwork_layer(leg["state"], p["leg_chi"], s % 2, leg["rng"])
            return ("leg", leg["state"], w, mps.entanglement_profile(leg["state"]))

        out += [(f"leg step {s}", lambda s=s: step(s)) for s in range(p["leg_steps"])]
        return out

    def check(self, outputs):
        p = self.p
        n, d = p["n"], 1 << p["n"]
        bad = []
        for r, label, val in outputs:
            if val[0] == "scan":
                rows, _ = val[1]
                for row in rows:
                    if row["max_entropy"] > math.log(row["chi"]) + 1e-9:
                        bad.append((r, label, f"max_entropy {row['max_entropy']!r} > log chi at {row}"))
                    if row["t"] == 0:
                        want = d - haar_scaled(d, row["n"])
                        if abs(row["delta"] - want) > 1e-9 or row["se"] != 0.0:
                            bad.append((r, label, f"t=0 row {row} != product-state delta {want!r}"))
            else:
                _, state, w, prof = val
                cut = p["leg_n"] // 2
                renyi2 = -math.log(mps.bipartition_purity(state, cut))
                if abs(state.norm() - 1) > 1e-10 or not w >= 0 or renyi2 > prof.entropies[cut - 1] + 1e-10:
                    bad.append((r, label, f"norm {state.norm()!r}, discarded {w!r}, "
                                          f"-log purity {renyi2!r} vs S {prof.entropies[cut - 1]!r}"))
        rng = self.root.child(CHECK_CHILD)
        for i, chi in enumerate((p["chis"][1], p["chis"][-1])):
            state = mps.MpsState.product_state([(1.0, 0.0)] * n)
            for s in range(6):
                state, _ = brickwork.brickwork_layer(state, chi, s % 2, rng.child(i))
            spec = dense.pauli_spectrum(state.to_statevector())
            if abs(float(np.sum(spec**2)) - d) > 1e-9 * d:
                bad.append((0, f"sample chi={chi}", f"Parseval sum {float(np.sum(spec**2))!r} != {d}"))
            for _ in range(16):
                xm, zm = (int(v) for v in rng.gen.integers(d, size=2))
                bits = [[(m >> (n - 1 - j)) & 1 for j in range(n)] for m in (xm, zm)]
                val = mps.pauli_expectation(state, paulis.PauliString.hermitian(*bits))
                if abs(val - spec[xm, zm]) > 1e-10:
                    bad.append((0, f"sample chi={chi}", f"<P> ({xm},{zm}) MPS {val!r} vs spectrum {spec[xm, zm]!r}"))
        return bad


# --------------------------------------------------------------- cooling

class Cooling(Workload):
    """`cmpslab cooling` on T-doped states plus cooling of undoped stabilizer
    states, one greedy sweep per input so every input costs the same."""

    name = "cooling"
    full = {"n": 8, "vt": (0.5, 2.0), "traj": 2, "stab": 2, "layers": 8, "sweeps": 1}
    small = {"n": 4, "vt": (0.5, 2.0), "traj": 2, "stab": 2, "layers": 4, "sweeps": 1}

    def __init__(self, seed, small=False):
        super().__init__(seed, small)
        self.reports = []

    def observe(self, observer):
        def keep(args, kwargs, rep):
            self.reports.append((args[0], rep))
            self.counts["sweeps"] = self.counts.get("sweeps", 0) + rep.sweeps_run
            self.counts["bond_searches"] = self.counts.get("bond_searches", 0) + rep.sweeps_run * (rep.n - 1)

        observer.watch("cooling.cool", keep)

    def first_unit(self):
        cooling.build_stabilizer_state(self.p["n"], self.p["layers"], self.root.child(FIRST_CHILD))

    def units(self, r):
        p = self.p
        rng = self.root.child(r)

        def scan():
            i0 = len(self.reports)
            rows = cooling.cooling_scan([p["n"]], list(p["vt"]), p["traj"], rng.child(0), sweeps=p["sweeps"])
            return ("scan", rows, self.reports[i0:])

        out = [("cooling_scan", scan)]
        built = {}
        for i in range(p["stab"]):
            def build(i=i):
                built[i] = cooling.build_stabilizer_state(p["n"], p["layers"], rng.child(1 + i))
                return ("build", built[i])

            def cool(i=i):
                return ("stab", built[i], cooling.cool(built[i], sweeps=p["sweeps"]))

            out += [(f"stabilizer build {i}", build), (f"stabilizer cool {i}", cool)]
        return out

    def _check_report(self, psi, rep):
        n = self.p["n"]
        msgs = []
        trace = rep.entropy_trace
        if any(b > a + 1e-10 for a, b in zip(trace, trace[1:])):
            msgs.append(f"entropy trace increases: {trace}")
        if abs(max(cut_entropies(psi, n)) - trace[0]) > 1e-9:
            msgs.append(f"input entropy {trace[0]!r} vs {max(cut_entropies(psi, n))!r}")
        out = replay(psi, rep.circuit, n)
        s_out = max(cut_entropies(out, n))
        if abs(s_out - trace[-1]) > 1e-9:
            msgs.append(f"replayed circuit gives entropy {s_out!r}, report says {trace[-1]!r}")
        m_in, m_out = dense.exact_sre(psi, 2)[0], dense.exact_sre(out, 2)[0]
        if abs(m_in - m_out) > 1e-9:
            msgs.append(f"replayed circuit changes m_2: {m_in!r} -> {m_out!r}")
        return msgs, out

    def check(self, outputs):
        p = self.p
        bad = []
        cooled, stab_total = 0, 0
        for r, label, val in outputs:
            if val[0] == "scan":
                _, rows, reps = val
                if len(reps) != len(p["vt"]) * p["traj"] or len(rows) != len(p["vt"]):
                    bad.append((r, label, f"{len(reps)} cooled inputs for {len(rows)} rows"))
                    continue
                for g, row in enumerate(rows):
                    mine = reps[g * p["traj"]:(g + 1) * p["traj"]]
                    ins = float(np.mean([rep.input_sn for _, rep in mine]))
                    outs = float(np.mean([rep.final_sn for _, rep in mine]))
                    if abs(row["input_sn"] - ins) > 1e-12 or abs(row["cooled_sn"] - outs) > 1e-12:
                        bad.append((r, label, f"row {row} disagrees with its reports ({ins!r}, {outs!r})"))
                for psi, rep in reps:
                    bad += [(r, label, m) for m in self._check_report(psi, rep)[0]]
            elif val[0] == "stab":
                _, psi, rep = val
                msgs, out = self._check_report(psi, rep)
                bad += [(r, label, m) for m in msgs]
                if abs(dense.exact_sre(psi, 2)[1]) > 1e-10:
                    bad.append((r, label, "undoped input is not a stabilizer state"))
                if r == 0:  # finish cooling from where the timed sweep left the state
                    stab_total += 1
                    cooled += cooling.cool(out).entropy_trace[-1] < 1e-8
        if stab_total and cooled < 0.95 * stab_total:
            bad.append((0, "stabilizer inputs", f"only {cooled}/{stab_total} cooled below 1e-8"))
        return bad


# ------------------------------------------------------------- ensembles

class Ensembles(Workload):
    """`cmpslab design-audit` frame potentials at N=2 and N=3 plus CMPS purity
    fluctuations at N=6."""

    name = "ensembles"
    full = {"ns": (2, 3), "chis": (1, 2, 4), "pairs": 50, "pur_n": 6, "pur_samples": 150}
    small = {"ns": (2,), "chis": (1, 2), "pairs": 30, "pur_n": 4, "pur_samples": 40}
    KEEP = 6  # tableaux drawn by the units and kept per qubit count for the checks

    def __init__(self, seed, small=False):
        super().__init__(seed, small)
        self.drawn = {}  # n -> the first KEEP tableaux that random_clifford returned to a unit
        self.tableaux = []  # (unit, tableau, dense form) for each kept draw
        self.purities = []

    def observe(self, observer):
        def draw(args, kwargs, t):
            kept = self.drawn.setdefault(t.n, [])
            if self.unit is not None and len(kept) < self.KEEP:
                kept.append(t)

        def dense_form(args, kwargs, u):
            if any(args[0] is t for t in self.drawn.get(args[0].n, ())):
                self.tableaux.append((self.unit, args[0], u))

        observer.watch("tableau.random_clifford", draw)
        observer.watch("tableau.tableau_to_dense", dense_form)
        observer.watch("dense.purity", lambda args, kwargs, value: self.purities.append(value))

    def first_unit(self):
        ensembles.frame_potential_exact_stab(2, 1)

    def units(self, r):
        p = self.p
        rng = self.root.child(r)
        out = []

        def fp(kind, big_n, k, sampler, child):
            return (f"{kind} N={big_n} k={k}",
                    lambda: (kind, big_n, k, ensembles.frame_potential_mc(sampler, k, p["pairs"], rng.child(child))))

        for big_n in p["ns"]:
            base = 1000 * big_n
            out += [fp("haar", big_n, k, ensembles.haar_sampler(big_n), base + k) for k in range(1, 5)]
            if big_n <= 2:
                out += [(f"stab_exact N={big_n} k={k}",
                         lambda N=big_n, k=k: ("stab_exact", N, k, ensembles.frame_potential_exact_stab(N, k)))
                        for k in range(1, 5)]
            else:
                out += [fp("stab", big_n, k, ensembles.stab_sampler(big_n), base + 10 + k) for k in range(1, 5)]
            for ci, chi in enumerate(p["chis"]):
                out += [fp(f"cmps_chi{chi}", big_n, k, ensembles.cmps_sampler(big_n, chi), base + 100 * (ci + 1) + k)
                        for k in range(1, 5)]
                out.append((f"delta2 N={big_n} chi={chi}",
                            lambda N=big_n, c=chi: ("delta", N, c, replica.delta_chi(N, c, 2).delta)))
        for chi in p["chis"]:
            def pur(c=chi):
                i0 = len(self.purities)
                est = ensembles.purity_fluctuation_mc(ensembles.cmps_sampler(p["pur_n"], c), p["pur_samples"],
                                                      rng.child(50000 + c))
                return ("purity", p["pur_n"], c, est, self.purities[i0:])

            out.append((f"purity N={p['pur_n']} chi={chi}", pur))
        return out

    def check(self, outputs):
        bad = []
        if len(ensembles.stab_states_exhaustive(2)) != 60:
            bad.append((0, "stab_states_exhaustive(2)", "N=2 stabilizer set does not have 60 states"))
        for r, label, val in outputs:
            kind = val[0]
            if kind == "purity":
                _, big_n, chi, est, purs = val
                d, d_a = 1 << big_n, 1 << (big_n // 2)
                purs = np.asarray(purs)
                if len(purs) != est.sample_count or purs.min() < 1 / d_a - 1e-12 or purs.max() > 1 + 1e-12:
                    bad.append((r, label, f"{len(purs)} purities in [{purs.min()!r}, {purs.max()!r}]"))
                    continue
                # Clifford is a 2-design, so the mean purity is the Haar one
                mean_exact = (2 * d_a) / (d + 1)
                haar_var = 2 * (d - 1) ** 2 / ((d + 1) ** 2 * (d + 2) * (d + 3))
                z = z_score(float(np.mean(purs)), float(np.std(purs, ddof=1)) / math.sqrt(len(purs)),
                            len(purs), mean_exact, haar_var)
                if not abs(z) < 4:
                    bad.append((r, label, f"mean purity {np.mean(purs)!r} vs 2-design {mean_exact!r}: z={z:+.2f}"))
                pred = ensembles.purity_fluctuation_formulas(d, "CMPS", replica.delta_chi(big_n, chi, 2).delta)
                self.notes.append(f"{label}: purity variance {est.mean!r} vs formula {pred!r}, "
                                  f"z={(est.mean - pred) / est.std_error:+.2f} (not gated)")
            elif kind != "delta" and val[2] <= 3:
                _, big_n, k, est = val
                exact, var = haar_frame(1 << big_n, k)
                if kind == "stab_exact":
                    # the enumerated states are rounded to 9 decimals
                    if abs(est - exact) > 1e-8:
                        bad.append((r, label, f"exact stabilizer F{k} {est!r} != Haar {exact!r}"))
                    continue
                z = z_score(est.mean, est.std_error, est.sample_count, exact, var)
                if not abs(z) < 4:
                    bad.append((r, label, f"F{k} {est.mean!r} vs Haar {exact!r}: z={z:+.2f}"))
        for (r, label), t, u in self.tableaux:
            n = t.n
            omega = np.zeros((2 * n, 2 * n), dtype=np.int64)
            omega[:n, n:] = np.eye(n, dtype=np.int64)
            omega[n:, :n] = np.eye(n, dtype=np.int64)
            m = t.mat.astype(np.int64)
            if not np.array_equal((m @ omega @ m.T) % 2, omega):
                bad.append((r, label, f"sampled n={n} tableau is not symplectic"))
            if np.max(np.abs(u.conj().T @ u - np.eye(1 << n))) > 1e-10:
                bad.append((r, label, f"dense form of a sampled n={n} Clifford is not unitary"))
            if abs(dense.exact_sre(np.ascontiguousarray(u[:, 0]), 2)[1]) > 1e-10:
                bad.append((r, label, f"sampled n={n} stabilizer state has M_2 != 0"))
        seen = {t.n for _, t, _ in self.tableaux}
        for n in sorted(set(self.p["ns"]) | {self.p["pur_n"]}):
            if n not in seen:
                bad.append((0, "tableaux", f"no n={n} draw of random_clifford was checked"))
        return bad


WORKLOADS = {w.name: w for w in (ReplicaScan, Brickwork, Cooling, Ensembles)}

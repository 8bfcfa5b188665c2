#!/usr/bin/env python3
"""Two sets of runs of the same code: do they agree within the bounds?

    python3 perfbench/steady.py --runs 10 --workloads replica-scan,cooling --traced 6

Each set runs every workload once per seed for ``run_seconds`` from
``BENCHMARK.json`` (set 1 uses seeds 1..runs, set 2 seeds runs+1..2*runs).
Per workload and end-to-end metric it reports the median and the spread
(quartile distance over median, as ``statistics.quantiles(values, n=4)``
gives the quartiles) of each set. A metric agrees when both spreads, that of
``setup_s`` included, stay within the metric's bound and the two medians
differ by no more than the bound, in either direction. The share of failed
units must be equal in both sets.

With ``--traced N`` (N >= 2), set 1 also makes a traced run on each of its
first N seeds, before the untraced run on odd seeds and after it on even
ones. Both runs of a seed time the same round 0, so the tracing overhead is
their difference. It is reported as the median over the seeds with its
quartiles, and called unresolved where the quartile distance exceeds it.
The report, with the host record, is written to ``.perfbench/steady-*.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402


def one(workload, seed, seconds, trace):
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=600, cwd=ROOT)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited with {proc.returncode}")
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    print(f"  {workload} seed {seed} trace {trace}: {wall:.1f} s wall, correct {res['correct']}, "
          + " ".join(f"{k}={m['value']:.4g}" for k, m in res["metrics"].items() if not k.endswith(("calls", "self_s"))),
          flush=True)
    return res, wall


def round0_s(workload, seed):
    """Round 0 time of the last untraced run of this workload and seed."""
    record = json.loads((run.OUT_DIR / f"{workload}-seed{seed}-trace0.json").read_text())
    return record["round_s"][0]


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    os.environ.update(run.PIN)  # so the report's host record shows the runs' BLAS threads
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--traced", type=int, default=0, help="seeds of set 1 with a traced run too")
    args = ap.parse_args()
    if args.traced == 1 or args.traced > args.runs:
        ap.error("--traced takes 0, or 2 up to --runs")
    names = args.workloads.split(",")
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]

    sets, walls = [], []
    overheads = {w: [] for w in names}  # traced round 0 over untraced round 0, minus 1
    for s in range(2):
        results = {w: [] for w in names}
        for i in range(args.runs):
            seed = s * args.runs + i + 1
            for w in names:
                traced = s == 0 and i < args.traced
                if traced and seed % 2:
                    t_job = one(w, seed, seconds, 1)[0]["metrics"]["trace.job_s"]["value"]
                res, wall = one(w, seed, seconds, 0)
                if traced and not seed % 2:
                    t_job = one(w, seed, seconds, 1)[0]["metrics"]["trace.job_s"]["value"]
                if traced:
                    overheads[w].append(t_job / round0_s(w, seed) - 1)
                results[w].append(res)
                walls.append(wall)
        sets.append(results)

    report = {"host": run.host_record(), "runs": args.runs, "seconds": seconds, "workloads": {}}
    ok = True
    for w in names:
        rows = {}
        shares = [sum(r["failed"] for r in res[w]) / sum(r["attempted"] for r in res[w]) for res in sets]
        same_share = shares[0] == shares[1]
        correct = all(r["correct"] for res in sets for r in res[w])
        ok = ok and same_share and correct
        for name, m in bounds.items():
            vals = [[r["metrics"][name]["value"] for r in res[w]] for res in sets]
            meds = [statistics.median(v) for v in vals]
            spreads = [spread(v) for v in vals]
            drift = (meds[1] - meds[0]) / meds[0]
            agree = all(sp <= m["bound"] for sp in spreads) and abs(drift) <= m["bound"]
            ok = ok and agree
            rows[name] = {"medians": meds, "spreads": spreads, "bound": m["bound"], "drift": drift, "agree": agree}
            print(f"{w:13s} {name:12s} medians {' '.join(f'{x:.4g}' for x in meds):22s} "
                  f"spreads {' '.join(f'{x:.3f}' for x in spreads):12s} bound {m['bound']:.2f} "
                  f"drift {drift:+.3f} {'agree' if agree else 'DISAGREE'}")
        print(f"{w:13s} failed share {shares} correct {correct}")
        report["workloads"][w] = {"metrics": rows, "failed_share": shares, "correct": correct}
        if args.traced:
            q1, med, q3 = statistics.quantiles(overheads[w], n=4)
            resolved = q3 - q1 <= abs(med)
            report["workloads"][w]["trace_overhead"] = {"per_seed": overheads[w], "median": med,
                                                        "quartiles": [q1, q3], "resolved": resolved}
            print(f"{w:13s} tracing overhead on round 0: median {med:+.1%}, quartiles {q1:+.1%} .. {q3:+.1%}"
                  f" over {len(overheads[w])} seeds{'' if resolved else ', unresolved'}")
    report["mean_run_wall_s"] = statistics.mean(walls)
    print(f"mean wall per untraced run {report['mean_run_wall_s']:.1f} s; {'AGREE' if ok else 'DISAGREE'}")
    run.OUT_DIR.mkdir(exist_ok=True)
    out = run.OUT_DIR / f"steady-{time.strftime('%Y%m%dT%H%M%S')}.json"
    out.write_text(json.dumps(report, indent=1) + "\n")
    print(f"report: {out}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()

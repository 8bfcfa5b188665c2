#!/usr/bin/env python3
"""Run one cmpslab benchmark workload and print its metrics.

    python3 perfbench/run.py --workload brickwork --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1      # every workload, one table

Run from anywhere inside a checkout: the package is imported from the
checkout's ``src/``, never from an installed copy, and the run fails (exit
code 2, no result) when that source is missing. BLAS and OpenMP are pinned
to one thread before numpy loads, and the program runs with one worker.

``--trace 0`` reports the end-to-end metrics:

* ``setup_s``: ``import cmpslab`` plus the workload's first unit run cold,
  minus the same unit run warm; the median of this process's sample and
  ``PROBES[workload]`` samples from fresh processes. The first probe sets up
  side by side with this process, the rest in pairs (one per core);
* ``job_s``: the median wall time of one round of the fixed job, after
  set-up, checks excluded; rounds repeat until ``--seconds`` have passed;
* ``peak_rss_mb``: this process's peak resident memory after the job.

``--trace 1`` runs the first unit and one round with every layer in
``workloads.TRACED`` timed from outside, and reports calls and self time per
layer plus the work counts. Spans are kept in memory and written to
``.perfbench/`` when the run ends, next to a result file with the host record.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT_DIR = ROOT / ".perfbench"
PIN = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "CMPSLAB_WORKERS": "1",
}
# Set-up samples taken in fresh processes, besides this process's own. A
# cooling or ensembles sample costs a 15 s Clifford-group build; the others
# cost 1 to 4 s, so they take more samples for a steadier median.
PROBES = {"replica-scan": 5, "brickwork": 9, "cooling": 1, "ensembles": 1}
NAMES = ("replica-scan", "brickwork", "cooling", "ensembles")
clock = time.perf_counter


def import_program():
    """Import cmpslab and the workloads from this checkout; returns seconds."""
    src = ROOT / "src"
    if not (src / "cmpslab" / "__init__.py").is_file():
        print(f"perfbench: no cmpslab source at {src}", file=sys.stderr)
        sys.exit(2)
    sys.path[:0] = [str(src), str(BENCH)]
    t0 = clock()
    import workloads  # noqa: F401  imports cmpslab and every submodule

    took = clock() - t0
    import cmpslab

    if Path(cmpslab.__file__).resolve().parent != (src / "cmpslab").resolve():
        print(f"perfbench: imported cmpslab from {cmpslab.__file__}, not {src}", file=sys.stderr)
        sys.exit(2)
    return took


def blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, if any."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and ".so" in line}
    except OSError:
        return None
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def host_record():
    import numpy as np
    import scipy

    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), None)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas_name = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads": blas_threads(),
        "pinned_env": {k: os.environ.get(k) for k in PIN},
    }


def probe(args):
    """One set-up sample in this fresh process."""
    import_s = import_program()
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload](args.seed, small=args.small)
    t0 = clock()
    wl.first_unit()
    cold = clock() - t0
    t0 = clock()
    wl.first_unit()
    warm = clock() - t0
    print(json.dumps({"setup_s": import_s + cold - warm}))


def start_probes(args, count):
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe", "--workload", args.workload,
           "--seed", str(args.seed)] + (["--small"] if args.small else [])
    return [subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) for _ in range(count)]


def finish_probes(procs):
    samples = []
    for proc in procs:
        try:
            out, _ = proc.communicate(timeout=170)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe exited with {proc.returncode}")
        samples.append(json.loads(out.strip().splitlines()[-1])["setup_s"])
    return samples


def failed_units(outputs, raised, bad):
    """The (round, label) of every failed unit. A unit fails if it raised or
    if a check of its output failed. A failed check that tests the round as a
    whole, under a label that is no unit's, fails every unit of its round."""
    units = {(r, label) for r, label, _ in outputs} | {(r, label) for r, label, _ in raised}
    failed = {(r, label) for r, label, _ in raised}
    for r, label, _ in bad:
        failed |= {(r, label)} if (r, label) in units else {u for u in units if u[0] == r}
    return failed


def measure(args):
    procs = [] if args.trace else start_probes(args, 1)
    setup = []
    try:
        import_s = import_program()
        import tracing
        from workloads import DISTINCT, TRACED, WORK_COUNTS, WORKLOADS

        wl = WORKLOADS[args.workload](args.seed, small=args.small)
        observer = tracing.Observer()
        wl.observe(observer)
        tracer = None
        if args.trace:
            tracer = tracing.Tracer()
            tracer.install(TRACED, distinct=DISTINCT)

        t0 = clock()
        wl.first_unit()
        cold = clock() - t0
        probe_samples = finish_probes(procs)
        if not args.trace:
            t0 = clock()
            wl.first_unit()
            setup = [import_s + cold - (clock() - t0)] + probe_samples
            left = PROBES[args.workload] - len(procs)
            while left > 0:  # the other probes in pairs, while this process waits
                batch = start_probes(args, min(2, left))
                procs += batch
                setup += finish_probes(batch)
                left -= len(batch)
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait()

    outputs, raised, round_times = [], [], []
    attempted = 0
    job_start = clock()
    while True:
        units = wl.units(len(round_times))
        t0 = clock()
        for label, fn in units:
            try:
                outputs.append((len(round_times), label, wl.call(len(round_times), label, fn)))
            except Exception as exc:  # a unit that raises counts as failed
                raised.append((len(round_times), label, repr(exc)))
        round_times.append(clock() - t0)
        attempted += len(units)
        if args.trace or clock() - job_start >= args.seconds:
            break
    job_end = clock()
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    observer.active = False
    if tracer is not None:
        tracer.active = False

    t0 = clock()
    try:
        bad = wl.check(outputs)
    except Exception as exc:  # a check that raises is a failed check
        bad = [(0, "checks", f"check raised {exc!r}")]
    check_s = clock() - t0
    job_s = statistics.median(round_times)
    if args.trace:
        top = tracer.top_level_seconds(job_start, job_end)
        share = top / sum(round_times)
        if share < 0.9:
            bad.append((0, "trace", f"top-level spans cover {share:.3f} of job_s"))
        metrics = {}
        for target in TRACED:
            metrics[f"{target}.calls"] = {"value": tracer.calls[target], "unit": "count"}
            metrics[f"{target}.self_s"] = {"value": tracer.self_s[target], "unit": "s"}
        counts = wl.work_counts(tracer)
        for name in WORK_COUNTS:
            unit = "ratio" if name == "brickwork.spectra_per_state" else "count"
            metrics[name] = {"value": counts[name], "unit": unit}
        metrics["trace.job_s"] = {"value": job_s, "unit": "s"}
        metrics["trace.top_level_share"] = {"value": share, "unit": "ratio"}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "job_s": {"value": job_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
        }

    failed = len(failed_units(outputs, raised, bad))
    result = {"correct": not bad, "attempted": attempted, "failed": failed, "metrics": metrics}

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{int(args.trace)}{'-small' if args.small else ''}"
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": bool(args.trace),
        "small": args.small, "params": wl.p, "host": host_record(), "result": result,
        "round_s": round_times, "setup_samples_s": setup, "first_unit_cold_s": cold, "check_s": check_s,
        "failures": [list(b) for b in raised + bad], "notes": wl.notes,
    }
    if tracer is not None:
        tracer.write(OUT_DIR / f"{stem}.spans.jsonl.gz")
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1, default=str) + "\n")

    for r, label, msg in raised + bad:
        print(f"FAIL round {r} {label}: {msg}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"{args.workload} {name} {m['value']:.6g} {m['unit']}")
    print(f"{args.workload} units attempted {attempted} failed {failed} correct {not bad}")
    print(json.dumps(result))


def run_all(args):
    """Each workload in its own process; one table at the end."""
    rows = {}
    for name in NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(int(args.trace))] + (["--small"] if args.small else [])
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=600)
        if proc.returncode != 0:
            print(f"perfbench: {name} exited with {proc.returncode}", file=sys.stderr)
            sys.exit(proc.returncode)
        rows[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    for name, res in rows.items():
        shown = " ".join(f"{k}={m['value']:.4g} {m['unit']}" for k, m in res["metrics"].items()
                         if not args.trace or not k.endswith((".calls", ".self_s")))
        print(f"{name:13s} {shown}  attempted={res['attempted']} failed={res['failed']} correct={res['correct']}")
    print(json.dumps(rows))


def main(argv=None):
    os.environ.update(PIN)  # before numpy is imported, here and in children
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--small", action="store_true", help="small inputs, for the benchmark's own tests")
    ap.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.workload == "all":
        run_all(args)
    elif args.probe:
        probe(args)
    else:
        measure(args)


if __name__ == "__main__":
    main()

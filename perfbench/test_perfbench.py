"""The benchmark's own tests: every workload at a small size with every check
active, checks that catch a broken output, the tracer, and the runner's
contract. Run with

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SEED = 3


def run_round(name):
    wl = workloads.WORKLOADS[name](SEED, small=True)
    wl.observe(tracing.Observer())
    wl.first_unit()
    outputs = [(0, label, wl.call(0, label, fn)) for label, fn in wl.units(0)]
    return wl, outputs


@pytest.fixture(scope="module")
def rounds():
    return {name: run_round(name) for name in workloads.WORKLOADS}


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_small_round_passes_every_check(rounds, name):
    wl, outputs = rounds[name]
    assert outputs
    assert wl.check(outputs) == []


def test_same_seed_same_inputs():
    a = workloads.WORKLOADS["replica-scan"](SEED, small=True).units(0)
    b = workloads.WORKLOADS["replica-scan"](SEED, small=True).units(0)
    assert [label for label, _ in a] == [label for label, _ in b]


def _tamper(outputs, match, fn):
    out = []
    for r, label, val in outputs:
        out.append((r, label, fn(copy.deepcopy(val)) if match(label) else val))
    return out


def test_replica_check_catches_non_decreasing_delta(rounds):
    wl, outputs = rounds["replica-scan"]
    bad = _tamper(outputs, lambda l: l.startswith("obc") and "chi=8" in l and "n=2" in l,
                  lambda v: v[:4] + (1e3,))
    assert any("not decreasing" in msg for _, _, msg in wl.check(bad))


def test_brickwork_check_catches_wrong_initial_row(rounds):
    wl, outputs = rounds["brickwork"]

    def shift(val):
        val[1][0][0]["delta"] += 1e-6
        return val

    bad = _tamper(outputs, lambda l: l == "scan", shift)
    assert any("t=0 row" in msg for _, _, msg in wl.check(bad))


def test_cooling_check_catches_a_lost_circuit(rounds):
    wl, outputs = rounds["cooling"]
    val = next(v for _, _, v in outputs if v[0] == "stab")
    if not val[2].entropy_trace[-1] < val[2].entropy_trace[0] - 1e-6:
        pytest.skip("the timed sweep did not lower the entropy of this input")
    rep = copy.deepcopy(val[2])
    rep.circuit = []
    msgs, _ = wl._check_report(val[1], rep)
    assert any("replayed circuit" in m for m in msgs)


def test_ensembles_check_catches_a_biased_frame_potential(rounds):
    wl, outputs = rounds["ensembles"]

    def bias(val):
        val[3].mean += 1.0
        return val

    bad = _tamper(outputs, lambda l: l == "haar N=2 k=2", bias)
    assert any("z=" in msg for _, label, msg in wl.check(bad) if label == "haar N=2 k=2")


def test_ensembles_checks_tableaux_that_units_drew(rounds):
    wl, outputs = rounds["ensembles"]
    labels = {label for _, label, _ in outputs}
    assert {t.n for _, t, _ in wl.tableaux} == set(wl.p["ns"]) | {wl.p["pur_n"]}
    assert all(unit[1] in labels for unit, _, _ in wl.tableaux)
    assert len(wl.tableaux) < 11520  # not the enumerated group of the first unit


def test_a_failed_check_of_the_round_fails_its_units():
    outputs = [(0, "a", 1), (0, "b", 2), (1, "a", 3)]
    assert run.failed_units(outputs, [], []) == set()
    assert run.failed_units(outputs, [(1, "c", "boom")], [(0, "b", "wrong")]) == {(1, "c"), (0, "b")}
    assert run.failed_units(outputs, [], [(0, "series", "wrong")]) == {(0, "a"), (0, "b")}


def test_tracer_self_times_add_up_and_reach_from_import_bindings():
    from cmpslab import brickwork, mps
    from cmpslab.kernels import Rng

    tracer = tracing.Tracer()
    tracer.install(["mps.apply_two_qubit_gate", "brickwork.brickwork_layer", "kernels.haar_unitary"])
    try:
        assert brickwork.apply_two_qubit_gate is mps.apply_two_qubit_gate
        state = mps.MpsState.product_state([(1.0, 0.0)] * 4)
        t0 = tracer.clock()
        brickwork.brickwork_layer(state, 2, 0, Rng(0))
        t1 = tracer.clock()
    finally:
        tracer.active = False
    assert tracer.calls == {"mps.apply_two_qubit_gate": 2, "brickwork.brickwork_layer": 1,
                            "kernels.haar_unitary": 2}
    top = tracer.top_level_seconds(t0, t1)
    assert abs(sum(tracer.self_s.values()) - top) < 1e-9
    assert 0 < top <= t1 - t0


def _run(args, cwd):
    return subprocess.run([sys.executable, "perfbench/run.py"] + args, cwd=cwd,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
def test_runner_prints_the_declared_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = _run(["--workload", "brickwork", "--seed", str(SEED), "--seconds", "0.1", "--trace", str(trace),
                 "--small"], ROOT)
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {k: m["unit"] for k, m in res["metrics"].items()}


def test_runner_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(["--workload", "brickwork", "--seed", "1", "--seconds", "1", "--trace", "0"], tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

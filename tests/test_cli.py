import hashlib
import json

import pytest
from click.testing import CliRunner

from cmpslab.cli import main


@pytest.fixture
def runner():
    return CliRunner()


def test_oracle_suite_passes(runner):
    result = runner.invoke(main, ["oracle-suite"])
    assert result.exit_code == 0, result.output
    assert "all 12 oracle checks passed" in result.output


def test_magic_scan_csv(runner, tmp_path):
    out = tmp_path / "scan.csv"
    result = runner.invoke(
        main,
        ["magic-scan", "--n-list", "6", "--chi-list", "2,4", "--sre-list", "2",
         "--out", str(out), "--seed", "3"],
    )
    assert result.exit_code == 0, result.output
    lines = out.read_text().splitlines()
    comments = [ln for ln in lines if ln.startswith("#")]
    assert any("config_sha256" in ln for ln in comments)
    assert any("seed 3" in ln for ln in comments)
    assert any(ln.startswith("# fit ") for ln in comments)
    data = [ln for ln in lines if not ln.startswith("#")]
    assert data[0] == "n_sites,chi,n,boundary,method,delta,se"
    assert len(data) == 3


def test_byte_identical_reruns(runner, tmp_path):
    args = ["magic-scan", "--n-list", "4", "--chi-list", "2", "--boundary", "pbc",
            "--seed", "9", "--out"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert runner.invoke(main, args + [str(a)]).exit_code == 0
    assert runner.invoke(main, args + [str(b)]).exit_code == 0
    assert a.read_bytes() == b.read_bytes()


def test_config_file_with_flag_override(runner, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n_list": [4], "chi_list": [2, 4], "sre_list": [2], "seed": 1}))
    out = tmp_path / "o.csv"
    result = runner.invoke(
        main, ["magic-scan", "--config", str(cfg), "--chi-list", "2", "--out", str(out)]
    )
    assert result.exit_code == 0, result.output
    data = [ln for ln in out.read_text().splitlines() if not ln.startswith("#")]
    assert len(data) == 2  # header + single chi row: the flag overrode the config


def test_invalid_chi_is_machine_readable(runner):
    result = runner.invoke(main, ["magic-scan", "--chi-list", "3", "--out", "-"])
    assert result.exit_code != 0
    payload = json.loads(result.output.split("Error: ", 1)[1])
    assert payload["error"] == "config_field"
    assert payload["field"] == "chi_list"


def test_malformed_config_json(runner, tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text("{not json")
    result = runner.invoke(main, ["magic-scan", "--config", str(cfg), "--out", "-"])
    assert result.exit_code != 0
    payload = json.loads(result.output.split("Error: ", 1)[1])
    assert payload["error"] == "config_parse"
    assert "line" in payload


def test_cooling_subcommand(runner, tmp_path):
    out = tmp_path / "cool.csv"
    result = runner.invoke(
        main,
        ["cooling", "--n-list", "4", "--vt-grid", "0,0.5", "--trajectories", "2",
         "--out", str(out)],
    )
    assert result.exit_code == 0, result.output
    data = [ln for ln in out.read_text().splitlines() if not ln.startswith("#")]
    assert len(data) == 3


def test_design_audit_subcommand(runner, tmp_path):
    out = tmp_path / "audit.csv"
    result = runner.invoke(
        main, ["design-audit", "--n", "2", "--chi-list", "1", "--pairs", "100",
               "--out", str(out)],
    )
    assert result.exit_code == 0, result.output
    text = out.read_text()
    assert "stab_exact,4,0.031" in text
    assert "# delta4 chi=1" in text


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_design_audit_up_to_the_full_profile(runner, n):
    chis = ",".join(str(2**k) for k in range(n + 1))
    result = runner.invoke(main, ["design-audit", "--n", str(n), "--chi-list", chis, "--pairs", "2", "--out", "-"])
    assert result.exit_code == 0, result.output
    assert "Traceback" not in result.output


def test_brickwork_trajectory_floor(runner):
    result = runner.invoke(main, ["brickwork", "--trajectories", "5", "--out", "-"])
    assert result.exit_code != 0
    payload = json.loads(result.output.split("Error: ", 1)[1])
    assert payload["field"] == "trajectories"


def test_bad_workers_env_is_machine_readable(runner):
    for value in ("two", "0"):
        result = runner.invoke(
            main, ["cooling", "--n-list", "4", "--vt-grid", "0", "--trajectories", "1", "--out", "-"],
            env={"CMPSLAB_WORKERS": value},
        )
        assert result.exit_code != 0
        assert "Traceback" not in result.output
        line = result.output.split("Error: ", 1)[1]
        assert line.count("\n") == 1
        payload = json.loads(line)
        assert payload["error"] == "config_field"
        assert payload["field"] == "workers"


def _error_payload(result):
    """The one-line JSON diagnostic of a failed command."""
    assert result.exit_code != 0
    assert "Traceback" not in result.output
    line = result.output.split("Error: ", 1)[1]
    assert line.count("\n") == 1
    return json.loads(line)


def _config_error(runner, tmp_path, cfg, command="magic-scan"):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return _error_payload(runner.invoke(main, [command, "--config", str(path), "--out", "-"]))


def test_unknown_boundary_in_config_is_machine_readable(runner, tmp_path):
    payload = _config_error(runner, tmp_path, {"n_list": [4], "chi_list": [2], "boundary": "periodic"})
    assert payload["error"] == "config_field"
    assert payload["field"] == "boundary"


def test_unknown_method_in_config_is_machine_readable(runner, tmp_path):
    payload = _config_error(runner, tmp_path, {"n_list": [4], "chi_list": [2], "method": "montecarlo"})
    assert payload["error"] == "config_field"
    assert payload["field"] == "method"


@pytest.mark.parametrize(
    "command,cfg,field",
    [
        ("magic-scan", {"n_list": [4.9], "chi_list": [2]}, "n_list"),
        ("magic-scan", {"n_list": [True], "chi_list": [2]}, "n_list"),
        ("magic-scan", {"n_list": [4], "chi_list": [2.5, 4]}, "chi_list"),
        ("magic-scan", {"n_list": [4], "chi_list": [2], "seed": 1.5}, "seed"),
        ("magic-scan", {"n_list": [4], "chi_list": [2], "method": "mc", "samples": 2.5}, "samples"),
        ("design-audit", {"n": 2.7, "chi_list": [1], "pairs": 2}, "n"),
        ("design-audit", {"n": True, "chi_list": [1], "pairs": 2}, "n"),
        ("cooling", {"n_list": [4], "vt_grid": [0], "trajectories": 2.5}, "trajectories"),
        ("cooling", {"n_list": [4], "vt_grid": [0], "trajectories": 2, "v": True}, "v"),
    ],
    ids=lambda v: json.dumps(v) if isinstance(v, dict) else v,
)
def test_non_integer_config_value_is_machine_readable(runner, tmp_path, command, cfg, field):
    payload = _config_error(runner, tmp_path, cfg, command)
    assert payload["error"] == "config_field"
    assert payload["field"] == field


def test_integral_float_config_keeps_its_csv(runner, tmp_path):
    outs = []
    for i, n_list in enumerate(([4], [4.0])):
        cfg, out = tmp_path / f"cfg{i}.json", tmp_path / f"out{i}.csv"
        cfg.write_text(json.dumps({"n_list": n_list, "chi_list": [2, 4], "sre_list": [2]}))
        assert runner.invoke(main, ["magic-scan", "--config", str(cfg), "--out", str(out)]).exit_code == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


# sha256 of `magic-scan --method mc --n-list 4 --chi-list 2,4 --samples 200`,
# recorded when the Monte Carlo branch still lived inside delta_chi.
PINNED_MC_SCAN = "1b21e702ec1054e90da8340c8e6ad9c877fbe8d67f068d41ac76f34ac3e84628"


def test_mc_magic_scan_pinned(runner, tmp_path):
    out = tmp_path / "mc.csv"
    args = ["magic-scan", "--method", "mc", "--n-list", "4", "--chi-list", "2,4", "--samples", "200"]
    assert runner.invoke(main, args + ["--out", str(out)]).exit_code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == PINNED_MC_SCAN


def test_mc_beyond_dense_limit_is_machine_readable(runner, tmp_path):
    payload = _config_error(runner, tmp_path, {"n_list": [8, 16], "chi_list": [2], "method": "mc"})
    assert payload["error"] == "config_field"
    assert payload["field"] == "n_list"


@pytest.mark.parametrize(
    "args,field",
    [
        (["design-audit", "--n", "13"], "n"),
        (["design-audit", "--n", "0"], "n"),
        (["design-audit", "--pairs", "1"], "pairs"),
        (["brickwork", "--n", "11"], "n"),
        (["cooling", "--n-list", "13"], "n_list"),
        (["cooling", "--n-list", "1"], "n_list"),
        (["cooling", "--trajectories", "1"], "trajectories"),
        (["cooling", "--v", "0"], "v"),
        (["magic-scan", "--n-list", "-3"], "n_list"),
        (["magic-scan", "--method", "mc", "--samples", "1"], "samples"),
        (["magic-scan", "--boundary", "periodic"], "boundary"),
        (["brickwork", "--workers", "0"], "workers"),
        (["brickwork", "--workers", "-5"], "workers"),
        (["cooling", "--workers", "0"], "workers"),
        (["magic-scan", "--seed", "-1"], "seed"),
        (["brickwork", "--seed", "-1"], "seed"),
        (["design-audit", "--pairs", "2", "--seed", "-1"], "seed"),
        (["cooling", "--seed", "-1"], "seed"),
    ],
    ids=lambda v: " ".join(v) if isinstance(v, list) else v,
)
def test_out_of_range_flag_is_machine_readable(runner, args, field):
    payload = _error_payload(runner.invoke(main, args + ["--out", "-"]))
    assert payload["error"] == "config_field"
    assert payload["field"] == field


def test_negative_oracle_suite_seed_is_machine_readable(runner):
    payload = _error_payload(runner.invoke(main, ["oracle-suite", "--seed", "-1"]))
    assert payload["error"] == "config_field"
    assert payload["field"] == "seed"


def test_negative_seed_in_config_is_machine_readable(runner, tmp_path):
    payload = _config_error(runner, tmp_path, {"n": 2, "chi_list": [1], "pairs": 2, "seed": -1}, "design-audit")
    assert payload["error"] == "config_field"
    assert payload["field"] == "seed"


@pytest.mark.parametrize(
    "command,cfg,field",
    [
        ("magic-scan", {"n_list": [8], "chis": [2]}, "chis"),
        ("brickwork", {"n": 4, "chi_list": [2], "steps": 1, "trajectories": 50, "workers": 2}, "workers"),
        ("design-audit", {"experiment": "design-audit", "n": 2, "chi_list": [1], "pairs": 2}, "experiment"),
        ("cooling", {"n_list": [4], "vt_grid": [0], "trajectories": 2, "velocity": 2, "t_count": 1}, "t_count"),
    ],
    ids=lambda v: json.dumps(v) if isinstance(v, dict) else v,
)
def test_unread_config_field_is_machine_readable(runner, tmp_path, command, cfg, field):
    payload = _config_error(runner, tmp_path, cfg, command)
    assert payload["error"] == "config_field"
    assert payload["field"] == field


@pytest.mark.parametrize("boundary", ["obc", "pbc"])
def test_samples_outside_mc_is_machine_readable(runner, tmp_path, boundary):
    flag = _error_payload(runner.invoke(
        main, ["magic-scan", "--n-list", "8", "--chi-list", "2,4", "--boundary", boundary, "--samples", "5", "--out", "-"]))
    cfg = _config_error(runner, tmp_path, {"n_list": [8], "chi_list": [2, 4], "boundary": boundary, "samples": 5})
    for payload in (flag, cfg):
        assert payload["error"] == "config_field"
        assert payload["field"] == "samples"


_SMALL_RUNS = {
    "magic-scan": ["magic-scan", "--n-list", "4", "--chi-list", "2"],
    "brickwork": ["brickwork", "--n", "2", "--chi-list", "2", "--steps", "1", "--trajectories", "50"],
    "design-audit": ["design-audit", "--n", "1", "--pairs", "2"],
    "cooling": ["cooling", "--n-list", "2", "--vt-grid", "0", "--trajectories", "2"],
}


@pytest.mark.parametrize("command", sorted(_SMALL_RUNS))
@pytest.mark.parametrize("where", ["missing_parent", "directory"])
def test_bad_out_fails_before_any_work(runner, tmp_path, monkeypatch, command, where):
    """An --out whose directory does not exist, or that is a directory, is
    reported before the run draws its first random number."""
    import cmpslab.cli

    def no_work(seed):
        raise AssertionError("the run started")

    monkeypatch.setattr(cmpslab.cli, "Rng", no_work)
    out = tmp_path / "missing" / "x.csv" if where == "missing_parent" else tmp_path
    payload = _error_payload(runner.invoke(main, _SMALL_RUNS[command] + ["--out", str(out)]))
    assert payload["error"] == "output"
    assert payload["path"] == str(out)
    assert payload["message"] == {"missing_parent": "parent directory does not exist", "directory": "is a directory"}[where]


def test_failed_open_of_out_is_machine_readable(runner, tmp_path, monkeypatch):
    """A path that passes the up-front check but cannot be opened when the
    CSV is written gets the same diagnostic."""
    import cmpslab.cli

    monkeypatch.setattr(cmpslab.cli, "_check_out", lambda path: None)
    out = tmp_path / "missing" / "x.csv"
    payload = _error_payload(runner.invoke(main, _SMALL_RUNS["design-audit"] + ["--out", str(out)]))
    assert payload == {"error": "output", "path": str(out), "message": "No such file or directory"}

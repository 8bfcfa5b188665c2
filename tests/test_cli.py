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
    assert "all 8 oracle checks passed" in result.output


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


def test_brickwork_trajectory_floor(runner):
    result = runner.invoke(main, ["brickwork", "--trajectories", "5", "--out", "-"])
    assert result.exit_code != 0
    payload = json.loads(result.output.split("Error: ", 1)[1])
    assert payload["field"] == "trajectories"


def test_bad_workers_env_is_machine_readable(runner):
    result = runner.invoke(
        main, ["cooling", "--n-list", "4", "--vt-grid", "0", "--trajectories", "1", "--out", "-"],
        env={"CMPSLAB_WORKERS": "two"},
    )
    assert result.exit_code != 0
    assert "Traceback" not in result.output
    line = result.output.split("Error: ", 1)[1]
    assert line.count("\n") == 1
    payload = json.loads(line)
    assert payload["error"] == "config_field"
    assert payload["field"] == "workers"


def _config_error(runner, tmp_path, cfg):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    result = runner.invoke(main, ["magic-scan", "--config", str(path), "--out", "-"])
    assert result.exit_code != 0
    assert "Traceback" not in result.output
    line = result.output.split("Error: ", 1)[1]
    assert line.count("\n") == 1
    return json.loads(line)


def test_unknown_boundary_in_config_is_machine_readable(runner, tmp_path):
    payload = _config_error(runner, tmp_path, {"n_list": [4], "chi_list": [2], "boundary": "periodic"})
    assert payload["error"] == "config_field"
    assert payload["field"] == "boundary"


def test_unknown_method_in_config_is_machine_readable(runner, tmp_path):
    payload = _config_error(runner, tmp_path, {"n_list": [4], "chi_list": [2], "method": "montecarlo"})
    assert payload["error"] == "config_field"
    assert payload["field"] == "method"


def test_mc_beyond_dense_limit_is_machine_readable(runner, tmp_path):
    payload = _config_error(runner, tmp_path, {"n_list": [8, 16], "chi_list": [2], "method": "mc"})
    assert payload["error"] == "config_field"
    assert payload["field"] == "n_list"

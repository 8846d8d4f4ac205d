"""Command-line interface: subcommands, exit codes, env overrides."""

import json

import pytest

from pfol.cli import cli_main

CONFIG = {
    "learner": "sampled_fpl",
    "set": {"kind": "ball", "dim": 3, "radius": 1.0},
    "adversary": {"kind": "quadratic_adaptive", "center_scale": 1.0},
    "T": 32,
    "m": 2,
    "delta": "auto",
    "seeds": [0, 1],
    "fw_budget": 128,
}


@pytest.fixture
def config_file(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(CONFIG))
    return path


def test_run_writes_trace(config_file, tmp_path, capsys):
    out = tmp_path / "trace.csv"
    code = cli_main(["run", "--config", str(config_file), "--seed", "7", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "run_id,algorithm,seed,t,loss,cum_loss,cum_regret,oracle_calls,grad_evals"
    assert len(lines) == 33
    assert lines[1].split(",")[2] == "7"
    assert "final_regret" in capsys.readouterr().out


def test_env_seed_overrides_flags(config_file, tmp_path, monkeypatch):
    monkeypatch.setenv("PFOL_SEED", "99")
    out = tmp_path / "trace.csv"
    assert cli_main(["run", "--config", str(config_file), "--seed", "7", "--out", str(out)]) == 0
    assert out.read_text().splitlines()[1].split(",")[2] == "99"


def test_bad_env_seed_is_config_error(config_file, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("PFOL_SEED", "seven")
    code = cli_main(["run", "--config", str(config_file), "--out", str(tmp_path / "t.csv")])
    assert code == 2
    assert "PFOL_SEED" in capsys.readouterr().err


def test_malformed_json_reports_location(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"learner": "sampled_fpl",\n  "T": }')
    code = cli_main(["run", "--config", str(bad)])
    assert code == 2
    err = capsys.readouterr().err
    assert "line 2" in err and "column" in err


def test_unknown_learner_is_config_error(tmp_path, capsys):
    spec = dict(CONFIG, learner="adam")
    path = tmp_path / "c.json"
    path.write_text(json.dumps(spec))
    assert cli_main(["run", "--config", str(path)]) == 2
    assert "unknown learner" in capsys.readouterr().err


def test_missing_subcommand_is_usage_error():
    assert cli_main([]) == 2
    assert cli_main(["frobnicate"]) == 2


def test_sweep_writes_summaries(config_file, tmp_path, capsys):
    spec = dict(CONFIG, T=16)
    spec["vary"] = {"T": [8, 16]}
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(spec))
    out = tmp_path / "summaries.json"
    csv_out = tmp_path / "regrets.csv"
    code = cli_main(["sweep", "--config", str(path), "--out", str(out),
                     "--csv", str(csv_out), "--jobs", "1"])
    assert code == 0
    summaries = json.loads(out.read_text())
    assert len(summaries) == 2
    assert summaries[0]["overrides"] == {"T": 8}
    rows = csv_out.read_text().strip().splitlines()
    assert rows[0] == "T,seed,regret"
    assert len(rows) == 5


def test_fit_needs_four_points(tmp_path, capsys):
    path = tmp_path / "points.csv"
    path.write_text("T,regret\n10,1.0\n100,2.0\n1000,3.0\n")
    assert cli_main(["fit", "--csv", str(path)]) == 2
    assert ">= 4" in capsys.readouterr().err


def test_fit_recovers_exact_exponent(tmp_path, capsys):
    rows = ["T,regret"] + [f"{t},{2.0 * t ** 0.5}" for t in (10, 100, 1000, 10_000)]
    path = tmp_path / "points.csv"
    path.write_text("\n".join(rows) + "\n")
    assert cli_main(["fit", "--csv", str(path)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["slope"] == pytest.approx(0.5, abs=1e-12)
    assert payload["points_used"] == 4


def test_fit_missing_column_is_config_error(tmp_path, capsys):
    path = tmp_path / "points.csv"
    path.write_text("T,loss\n10,1\n20,2\n40,3\n80,4\n")
    assert cli_main(["fit", "--csv", str(path)]) == 2


def test_audit_passes_and_writes_report(tmp_path, capsys):
    out = tmp_path / "audit.json"
    code = cli_main(["audit", "--samples", "3000", "--out", str(out)])
    assert code == 0
    reports = json.loads(out.read_text())
    assert all(r["pass"] for r in reports)
    assert "[PASS]" in capsys.readouterr().out


def test_bound_check_passes(config_file, capsys):
    code = cli_main(["bound-check", "--config", str(config_file), "--jobs", "1"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["pass"] is True
    assert payload["mean_regret"] <= payload["bound"]

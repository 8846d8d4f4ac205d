"""Command-line interface: subcommands, exit codes, seed and output overrides."""

import json
import re
from dataclasses import replace
from pathlib import Path

import pytest

import pfol.cli
from pfol import harness
from pfol.cli import cli_main
from pfol.errors import ConfigError

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


INF, NAN = float("inf"), float("nan")


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


def test_run_seed_comes_from_the_flag_else_the_config(config_file, tmp_path, monkeypatch):
    monkeypatch.setenv("PFOL_SEED", "99")
    out = tmp_path / "trace.csv"
    assert cli_main(["run", "--config", str(config_file), "--seed", "7", "--out", str(out)]) == 0
    assert out.read_text().splitlines()[1].split(",")[2] == "7"
    assert cli_main(["run", "--config", str(config_file), "--out", str(out)]) == 0
    assert out.read_text().splitlines()[1].split(",")[2] == "0"  # the config's first seed


def test_readme_config_loads_and_resolves(tmp_path):
    # README's config is what pfol sweep reads: a removed learner or field in it fails here
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    [block] = re.findall(r"```json\n(.*?)```", readme, re.S)
    path = tmp_path / "c.json"
    path.write_text(block)
    config, vary = pfol.cli._load_config(str(path), sweep=True)
    harness._resolve(config)
    for field, values in vary.items():
        for value in values:
            harness._resolve(replace(config, **{field: value}))


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


@pytest.mark.parametrize("count", [3, 16, 33])
def test_sweep_csv_is_the_same_for_any_jobs(tmp_path, capsys, count):
    # seed counts below, at and above the cap on a lockstep batch
    spec = dict(CONFIG, T=16, seeds=list(range(count)), vary={"T": [8, 16]})
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(spec))
    written = set()
    for jobs in (1, 2, 3):
        csv_out = tmp_path / f"regrets-{jobs}.csv"
        assert cli_main(["sweep", "--config", str(path), "--out", str(tmp_path / "s.json"),
                         "--csv", str(csv_out), "--jobs", str(jobs)]) == 0
        written.add(csv_out.read_bytes())
    (rows,) = written
    assert len(rows.splitlines()) == 1 + 2 * count


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


UNREAD_KNOBS = [  # (field, value, the rest of the config, where "m": 1 undoes CONFIG's m): a knob the learner does not read
    *((knob, value, {"learner": learner, "m": 1, "delta": "auto"}) for learner in ("ogd", "ofw")
      for knob, value in (("m", 64), ("k", 9), ("delta", 0.3))),
    ("k", 3, {}), ("k", "auto", {}), ("m", 4, {"learner": "ospf", "k": 2}),
    ("learner", "ogd", {"m": 64, "k": 9, "delta": 0.3}),
]
UNBOUNDED = [  # a perturbed leader whose regret bound is not finite
    ("delta", INF, {}), ("delta", 1e308, {}), ("delta", 1e-320, {}), ("delta", 1e308, {"learner": "ospf", "m": 1}),
    ("set", {"kind": "ball", "dim": 3, "radius": 1e300}, {}),
    ("set", {"kind": "ball", "dim": 2, "radius": 1e-320},
     {"delta": "auto", "adversary": {"kind": "quadratic_stochastic", "center_scale": 0.0}}),
]


@pytest.mark.parametrize("field,value,rest", [(field, value, {}) for field, value in [
    ("T", "abc"), ("T", None), ("T", 2.5), ("m", "4"), ("k", None), ("eval_samples", True),
    ("fw_budget", "many"), ("seeds", 5), ("seeds", ["a"]), ("delta", None),
    ("adversary", {"kind": "quadratic_stochastic", "horizon": 31}),
    ("adversary", {"kind": "linear_adaptive", "horizon": 8}),
    ("adversary", {"kind": "linear_stochastic", "horizon": 40.5}),
    ("adversary", {"kind": "quadratic_adaptive", "seed": "x"}),
    ("set", {"kind": "polytope", "dim": 2.5, "vertices": [[1.0, 0.0], [0.0, 1.0]]}),
    ("adversary", {"kind": "linear_stochastic", "dim": 5}),
    ("adversary", {"kind": "linear_stochastic", "dim": 3.0}),
    ("adversary", {"kind": "linear_stochastic", "direction": [1, "x"]}),
    ("output_path", 1), ("output_path", ["t.csv"]), ("output_path", ""), ("output_path", "out.csv"),
    ("set", {"kind": "simplex", "dim": 2, "scale": INF}),
    ("set", {"kind": "ball", "dim": 3, "radius": INF}),
    ("set", {"kind": "l1_ball", "dim": 3, "radius": INF}),
    ("adversary", {"kind": "linear_stochastic", "direction": [NAN, 1.0, 0.0]}),
    ("adversary", {"kind": "linear_stochastic", "direction": [INF, 1.0, 0.0]}),
    ("adversary", {"kind": "linear_stochastic", "direction_norm": INF}),
    ("adversary", {"kind": "quadratic_adaptive", "center_scale": INF}),
    ("adversary", {"kind": "quadratic_stochastic", "center_scale": NAN}),
    ("adversary", {"kind": "linear_adaptive", "direction_norm": INF}),
    ("learner", "expected_fpl_mc"),
    ("adversary", {"kind": "quadratic_stochastic", "horizon": 131072}),
    ("adversary", {"kind": "linear_stochastic", "direction": [1.0, 0.0, 0.0], "direction_norm": 5.0}),
    ("adversary", {"kind": "linear_stochastic", "direction": [1.0, 0.0, 0.0], "direction_norm": 1.0}),
    ("set", {"kind": "box", "lower": [-1e308, -1e308], "upper": [1e308, 1e308]}),
    ("set", {"kind": "polytope", "vertices": [[1e200, 0.0], [0.0, 1e200]]}),
    ("adversary", {"kind": "linear_stochastic", "direction": [1.0, 0.0, 0.0], "seed": 123}),
    ("adversary", {"kind": "quadratic_adaptive", "seed": 5}),
    ("adversary", {"kind": "linear_stochastic", "dim": 3}),
    ("set", {"kind": "ball", "dim": 3, "radius": 1.0, "raduis": 9}),
    ("set", {"kind": "box", "dim": 2, "lower": [0.0, 0.0], "upper": [1.0, 1.0]}),
    ("set", {"kind": "polytope", "dim": 2, "vertices": [[1.0, 0.0], [0.0, 1.0]]}),
]] + UNREAD_KNOBS + UNBOUNDED)
def test_bad_field_types_are_config_errors(tmp_path, capsys, field, value, rest):
    # a fixed delta, since an "auto" delta worked out from a non-finite G would fail first, unless ``rest`` sets one
    path = tmp_path / "c.json"
    path.write_text(json.dumps({**CONFIG, "delta": 0.5, **rest, field: value}))
    assert cli_main(["run", "--config", str(path), "--out", str(tmp_path / "t.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and field in err and "Traceback" not in err


@pytest.mark.parametrize("field,spec", [
    ("radius", {"set": {"kind": "ball", "dim": 2, "radius": "1.5"}}),
    ("radius", {"set": {"kind": "ball", "dim": 2, "radius": True}}),
    ("center_scale", {"adversary": {"kind": "quadratic_stochastic", "center_scale": True}}),
    ("direction", {"adversary": {"kind": "linear_stochastic", "direction": ["1", "0"]}}),
    ("lower", {"set": {"kind": "box", "lower": ["-1", "-1"], "upper": [1.0, 1.0]}}),
    ("vertices", {"set": {"kind": "polytope", "vertices": [[True, False], [False, True]]}}),
    ("direction_norm", {"adversary": {"kind": "linear_stochastic", "direction_norm": "2"}}),
])
def test_a_set_or_adversary_number_given_as_a_string_or_boolean_is_a_config_error(tmp_path, capsys, field, spec):
    config = {**CONFIG, "learner": "ogd", "m": 1, "T": 16, "set": {"kind": "ball", "dim": 2, "radius": 1.0}, **spec}
    path = write_config(tmp_path, config)
    assert cli_main(["run", "--config", path, "--out", str(tmp_path / "t.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and f"{field} must be a real number" in err and "Traceback" not in err


@pytest.mark.parametrize("command", ["run", "bound-check"])
def test_seeds_equal_modulo_2_64_are_config_errors(tmp_path, capsys, command):
    path = write_config(tmp_path, dict(CONFIG, seeds=[0, 1, 2**64 + 1]))
    out = ["--out", str(tmp_path / "t.csv")] if command == "run" else ["--jobs", "1"]
    assert cli_main([command, "--config", path, *out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "seeds 1 and 18446744073709551617 are equal modulo 2^64" in err


def write_config(tmp_path, spec):
    path = tmp_path / "c.json"
    path.write_text(json.dumps(spec))
    return str(path)


OSPF_BALL2 = dict({key: value for key, value in CONFIG.items() if key != "m"},
                  learner="ospf", set={"kind": "ball", "dim": 2, "radius": 1.0}, T=8)


@pytest.mark.parametrize("values", [5, "abc"])
def test_sweep_vary_value_not_a_list_is_config_error(tmp_path, capsys, values):
    path = write_config(tmp_path, dict(OSPF_BALL2, vary={"T": values}))
    assert cli_main(["sweep", "--config", path, "--out", str(tmp_path / "s.json"), "--jobs", "1"]) == 2
    assert "must be a list" in capsys.readouterr().err


def test_sweep_vary_key_not_a_config_field_is_config_error(tmp_path, capsys):
    path = write_config(tmp_path, dict(OSPF_BALL2, vary={"TT": [8, 16]}))
    assert cli_main(["sweep", "--config", path, "--out", str(tmp_path / "s.json"), "--jobs", "1"]) == 2
    assert "unknown config field 'TT'" in capsys.readouterr().err


@pytest.mark.parametrize("bad", ["x", None])
def test_sweep_records_a_bad_T_and_plays_the_rest(tmp_path, capsys, bad):
    path = write_config(tmp_path, dict(OSPF_BALL2, vary={"T": [4, bad]}))
    out = tmp_path / "s.json"
    assert cli_main(["sweep", "--config", path, "--out", str(out), "--jobs", "1"]) == 0
    first, second = json.loads(out.read_text())
    assert first["T"] == 4 and first["final_regrets"] and not first["errors"]
    assert second["T"] == bad and not second["final_regrets"] and second["errors"]
    assert "(1 with errors)" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["sweep", "bound-check"])
@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_jobs_below_one_is_config_error(config_file, tmp_path, capsys, command, jobs):
    out = ["--out", str(tmp_path / "s.json")] if command == "sweep" else []
    assert cli_main([command, "--config", str(config_file), "--jobs", jobs, *out]) == 2
    assert "jobs must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("samples", ["1", "-5"])
def test_audit_needs_two_samples(capsys, samples):
    assert cli_main(["audit", "--samples", samples]) == 2
    assert capsys.readouterr().err.startswith("config error: samples must be >= 2")


def test_audit_rejects_a_negative_seed(capsys):
    assert cli_main(["audit", "--seed", "-1", "--samples", "2"]) == 2
    assert capsys.readouterr().err == "config error: seed must be a non-negative integer, got -1\n"


@pytest.mark.parametrize("text,message", [
    (None, "cannot read config"),
    ("[1, 2]", "must be a JSON object"),
    (json.dumps(dict(CONFIG, vary=[8, 16])), "'vary' must map"),
])
def test_config_file_errors(tmp_path, capsys, text, message):
    path = tmp_path / "c.json"
    if text is not None:
        path.write_text(text)
    assert cli_main(["run", "--config", str(path), "--out", str(tmp_path / "t.csv")]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("text,message", [
    (None, "cannot read CSV"),
    ("", "is empty"),
    ("seed,regret\n0,1.0\n", "missing the columns ['T']"),
    ("T,regret\n10,1.0\n20,abc\n", "bad numeric row"),
])
def test_fit_csv_errors(tmp_path, capsys, text, message):
    path = tmp_path / "points.csv"
    if text is not None:
        path.write_text(text)
    assert cli_main(["fit", "--csv", str(path)]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("T,regret,message", [
    ("0", "2.0", "positive and finite"),
    ("-20", "2.0", "positive and finite"),
    ("inf", "2.0", "positive and finite"),
    ("nan", "2.0", "positive and finite"),
    ("20", "inf", "must be finite"),
    ("20", "nan", "must be finite"),
    ("20", "-inf", "must be finite"),
])
def test_fit_rejects_a_nonpositive_or_nonfinite_T_and_a_nonfinite_regret(tmp_path, capsys, T, regret, message):
    path = tmp_path / "points.csv"
    path.write_text(f"T,regret\n10,1.0\n{T},{regret}\n40,3.0\n80,4.0\n160,5.0\n")
    assert cli_main(["fit", "--csv", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error:") and message in captured.err
    assert "Traceback" not in captured.err and "SVD" not in captured.err


def test_fit_reads_only_T_and_regret(tmp_path):
    path = tmp_path / "points.csv"
    path.write_text("T,final_regret\n10,1\n20,2\n40,3\n80,4\n")
    assert cli_main(["fit", "--csv", str(path)]) == 2
    assert cli_main(["fit", "--csv", str(path), "--regret-col", "final_regret"]) == 2


def test_failure_inside_a_run_aborts_with_exit_one(config_file, tmp_path, capsys, monkeypatch):
    def stalled(config, seed):
        raise FloatingPointError("solver stalled")

    monkeypatch.setattr(pfol.cli, "run_game", stalled)
    assert cli_main(["run", "--config", str(config_file), "--out", str(tmp_path / "t.csv")]) == 1
    assert capsys.readouterr().err == "run aborted: solver stalled\n"


@pytest.mark.parametrize("command", [
    ["run", "--out", "{missing}"],
    ["sweep", "--jobs", "1", "--out", "{missing}"],
    ["sweep", "--jobs", "1", "--out", "{ok}", "--csv", "{missing}"],
    ["audit", "--out", "{missing}"],
], ids=["run", "sweep-out", "sweep-csv", "audit-out"])
def test_unwritable_output_is_config_error_naming_the_path(config_file, tmp_path, capsys, monkeypatch, command):
    monkeypatch.setattr(pfol.cli, "run_audit_suite", lambda seed, samples: [])
    missing = str(tmp_path / "no-such-dir" / "out")
    argv = [arg.format(missing=missing, ok=tmp_path / "ok.json") for arg in command]
    if argv[0] != "audit":
        argv += ["--config", str(config_file)]
    assert cli_main(argv) == 2
    assert capsys.readouterr().err == f"config error: cannot write {missing!r}: No such file or directory\n"


@pytest.mark.parametrize("vary", [{"T": [16, 64]}, {}])
@pytest.mark.parametrize("command", ["run", "bound-check"])
def test_vary_outside_sweep_is_config_error(tmp_path, capsys, command, vary):
    path = write_config(tmp_path, dict(CONFIG, vary=vary))
    out = tmp_path / "t.csv"
    extra = ["--out", str(out)] if command == "run" else ["--jobs", "1"]
    assert cli_main([command, "--config", path, *extra]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("config error: 'vary' is read only by pfol sweep") and not captured.out
    assert not out.exists()


def test_a_horizon_past_the_round_range_is_a_config_error(tmp_path, capsys):
    path = write_config(tmp_path, dict(CONFIG, T=2**48))
    assert cli_main(["run", "--config", path, "--out", str(tmp_path / "t.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: T must be below 2^48") and "Traceback" not in err


def test_a_game_too_large_for_memory_aborts_without_a_traceback(tmp_path, capsys):
    # the (2^47, 2) float64 adversary table is 2 PiB, beyond a 47-bit address space, so its allocation fails at once
    config = dict(CONFIG, T=2**47, m=1, set={"kind": "ball", "dim": 2, "radius": 1.0},
                  adversary={"kind": "quadratic_stochastic", "center_scale": 1.0})
    path = write_config(tmp_path, config)
    assert cli_main(["run", "--config", path, "--out", str(tmp_path / "t.csv")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("run aborted: Unable to allocate") and "Traceback" not in err



def refused(tmp_path, capsys, config, command):
    """The stderr of ``command`` on ``config``, after checking that it exits 2 without a traceback."""
    path = write_config(tmp_path, config)
    out = {"run": ["--out", str(tmp_path / "t.csv")], "bound-check": ["--jobs", "1"],
           "sweep": ["--out", str(tmp_path / "s.json"), "--jobs", "1"]}[command]
    assert cli_main([command, "--config", path, *out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "Traceback" not in err
    return err


@pytest.mark.parametrize("command", ["run", "bound-check"])
@pytest.mark.parametrize("spec,message", [
    ({"set": {"kind": ["ball"]}}, "unknown set kind ['ball']"),
    ({"adversary": {"kind": {"kind": "linear_adaptive"}}}, "unknown adversary kind {'kind': 'linear_adaptive'}"),
    ({"learner": ["ogd"], "m": 1}, "unknown learner ['ogd']"),
], ids=["set", "adversary", "learner"])
def test_a_name_that_is_not_a_string_is_a_config_error(tmp_path, capsys, spec, message, command):
    assert message in refused(tmp_path, capsys, {**CONFIG, **spec}, command)


def test_sweep_refuses_a_learner_name_that_is_not_a_string(tmp_path, capsys):
    config = dict(CONFIG, learner=["ogd"], m=1, vary={"T": [8]})
    assert "unknown learner ['ogd']" in refused(tmp_path, capsys, config, "sweep")


# G*sqrt(d*T) overflows, so the auto delta, 2 over it, is 0
UNDERFLOWING_DELTA = {
    "center_scale": {"adversary": {"kind": "quadratic_adaptive", "center_scale": 1e308}},
    "direction_norm": {"adversary": {"kind": "linear_stochastic", "direction_norm": 1e308}},
    "ospf-linear_adaptive": {"learner": "ospf", "k": "auto", "m": 1,
                             "adversary": {"kind": "linear_adaptive", "direction_norm": 1e308}},
    "radius": {"set": {"kind": "ball", "dim": 2, "radius": 1e308},
               "adversary": {"kind": "quadratic_stochastic", "center_scale": 1.0}},
}


@pytest.mark.parametrize("command", ["run", "bound-check"])
@pytest.mark.parametrize("spec", list(UNDERFLOWING_DELTA.values()), ids=list(UNDERFLOWING_DELTA))
def test_an_auto_delta_that_underflows_to_0_is_a_config_error(tmp_path, capsys, spec, command):
    config = {**CONFIG, **spec}
    assert "the auto delta is 0.0 at G=" in refused(tmp_path, capsys, config, command)
    with pytest.raises(ConfigError, match="auto delta"):
        harness.theoretical_bound(harness.ExperimentConfig.from_json({**config, "seeds": [0]}))
    # a sweep records the cell and goes on
    path = write_config(tmp_path, dict(config, vary={"T": [8]}))
    assert cli_main(["sweep", "--config", path, "--out", str(tmp_path / "s.json"), "--jobs", "1"]) == 0
    [cell] = json.loads((tmp_path / "s.json").read_text())
    assert cell["errors"] and "auto delta" in cell["errors"][0]


ORIGIN_ONLY = {
    "ofw-box": ("ofw", {"kind": "box", "lower": [0.0, 0.0], "upper": [0.0, 0.0]}, "box norm bound is 0"),
    "ofw-polytope": ("ofw", {"kind": "polytope", "vertices": [[0.0, 0.0], [0.0, 0.0]]}, "polytope norm bound is 0"),
    "ogd-empty-box": ("ogd", {"kind": "box", "lower": [], "upper": []}, "box norm bound is 0"),
}


@pytest.mark.parametrize("command", ["run", "bound-check"])
@pytest.mark.parametrize("learner,spec,message", list(ORIGIN_ONLY.values()), ids=list(ORIGIN_ONLY))
def test_a_set_of_the_origin_alone_is_a_config_error(tmp_path, capsys, learner, spec, message, command):
    config = dict(CONFIG, learner=learner, m=1, set=spec)
    assert message in refused(tmp_path, capsys, config, command)

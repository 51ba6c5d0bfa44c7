import json
from types import SimpleNamespace

import pytest

from ballsgd.cli import _frequency_payload, main


@pytest.fixture
def practical_config(tmp_path):
    raw = {
        "objective": {"kind": "quartic", "dim": 2, "sigma": 1.0},
        "noise": {"kind": "uniform-ball", "sigma": 1.0},
        "schedule": {"mode": "manual", "eta": 0.01, "ball_radius": 0.5,
                     "k0": 3000, "ko": 800, "epsilon": 6e-5, "p": 0.1},
        "algorithm": "ball-sgd",
        "n_seeds": 2,
        "base_seed": 0,
        "budget_mode": "unlimited-episodes",
        "output_dir": str(tmp_path / "out"),
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    return str(path)


def _reject_constant(name):
    raise ValueError(f"stdout is not strict JSON: {name}")


def last_json(capsys):
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1],
                      parse_constant=_reject_constant)


def test_params_prints_schedule_table(practical_config, capsys):
    assert main(["params", "--config", practical_config]) == 0
    out = capsys.readouterr().out
    assert "eta" in out and "k0" in out and "ball_radius" in out


def test_run_writes_artifacts_and_reports(practical_config, capsys,
                                          tmp_path):
    assert main(["run", "--config", practical_config]) == 0
    payload = last_json(capsys)
    assert payload["convergence_fraction"] == 1.0
    assert (tmp_path / "out" / "summary.json").exists()


def test_certify_at_minimizer(practical_config, capsys):
    assert main(["certify", "--config", practical_config,
                 "--at", "1,0"]) == 0
    payload = last_json(capsys)
    assert payload["pass"] is True
    assert payload["lambda_min"] == pytest.approx(1.0)


def test_certify_at_saddle_fails(practical_config, capsys, tmp_path):
    # epsilon small enough that -17 delta is above the true lambda_min
    with open(practical_config) as fh:
        raw = json.load(fh)
    raw["schedule"]["epsilon"] = 4e-5
    strict = tmp_path / "strict.json"
    strict.write_text(json.dumps(raw))
    assert main(["certify", "--config", str(strict), "--at", "0,0"]) == 1
    assert last_json(capsys)["pass"] is False


def test_certify_at_negative_point_with_equals_form(practical_config,
                                                   capsys):
    assert main(["certify", "--config", practical_config,
                 "--at=-1,0"]) == 0
    assert last_json(capsys)["lambda_min"] == pytest.approx(1.0)


def test_certify_at_non_finite_point_is_a_numerical_failure(tmp_path,
                                                            capsys):
    # d=2 certifies on the dense Hessian, d=60 by block Lanczos
    for dim in (2, 60):
        raw = {"objective": {"kind": "quartic", "dim": dim, "sigma": 1.0},
               "noise": {"kind": "uniform-ball", "sigma": 1.0},
               "schedule": {"mode": "manual", "eta": 0.01,
                            "ball_radius": 0.5, "k0": 3000, "ko": 800,
                            "epsilon": 6e-5, "p": 0.1}}
        path = tmp_path / f"d{dim}.json"
        path.write_text(json.dumps(raw))
        for first in ("nan", "1e400"):
            point = ",".join([first] + ["0"] * (dim - 1))
            assert main(["certify", "--config", str(path),
                         f"--at={point}"]) == 1
            payload = last_json(capsys)
            assert payload["eig_converged"] is False
            assert payload["eig_pass"] is False
            assert payload["lambda_min"] is None


@pytest.mark.parametrize("point", ["1,2,3", "a,b"])
def test_certify_at_malformed_point_is_a_config_error(practical_config,
                                                      capsys, point):
    assert main(["certify", "--config", practical_config,
                 f"--at={point}"]) == 2
    err = capsys.readouterr().err
    assert "--at" in err
    assert "expected 2 comma-separated numbers" in err


@pytest.mark.parametrize("algorithm", ["ball-sgd", "noise-scheduled"])
def test_certify_without_point_matches_run(practical_config, capsys,
                                           tmp_path, algorithm):
    with open(practical_config) as fh:
        raw = json.load(fh)
    raw["algorithm"] = algorithm
    path = tmp_path / f"{algorithm}.json"
    path.write_text(json.dumps(raw))
    assert main(["run", "--config", str(path), "--seed", "1"]) == 0
    capsys.readouterr()
    with open(tmp_path / "out" / "summary.json") as fh:
        expected = json.load(fh)["certificates"][0]
    assert expected.pop("seed") == 1
    code = main(["certify", "--config", str(path), "--seed", "1"])
    payload = last_json(capsys)
    assert payload.pop("pass") == (code == 0)
    assert payload == expected


@pytest.mark.parametrize("command", ["escape-freq", "coupled-escape",
                                     "zbound"])
def test_zero_seeds_is_a_config_error(practical_config, capsys, command):
    assert main([command, "--config", practical_config,
                 "--n-seeds", "0"]) == 2
    assert "--n-seeds" in capsys.readouterr().err


@pytest.mark.parametrize("at_least, bound, frequency, held", [
    (True, 0.9, 0.95, True), (True, 0.9, 0.5, False),
    (False, 0.1, 0.05, True), (False, 0.1, 0.5, False)])
def test_frequency_verdict_direction(at_least, bound, frequency, held):
    # escape-freq and zbound bound the frequency from below (>= bound - ci),
    # coupled-escape from above (<= bound + ci); ci is 0.163 at n = 100
    for theoretical in (True, False):
        payload = _frequency_payload(
            100, frequency, bound, SimpleNamespace(theoretical=theoretical),
            at_least)
        assert payload["pass"] is (held or not theoretical)
        assert payload["ci"] == pytest.approx(0.163, abs=1e-3)


def test_noise_check(practical_config, capsys):
    assert main(["noise-check", "--config", practical_config,
                 "--samples", "20000"]) == 0
    payload = last_json(capsys)
    assert payload["estimate"] <= 0.25 + payload["ci"]


def test_coupled_escape_reports_without_asserting(practical_config, capsys):
    assert main(["coupled-escape", "--config", practical_config,
                 "--n-seeds", "20"]) == 0
    payload = last_json(capsys)
    assert payload["n"] == 20
    assert 0.0 <= payload["frequency"] <= 1.0


def test_escape_freq(practical_config, capsys):
    assert main(["escape-freq", "--config", practical_config,
                 "--n-seeds", "10"]) == 0
    assert last_json(capsys)["frequency"] >= 0.9


def test_zbound_reports_frequency(practical_config, capsys):
    assert main(["zbound", "--config", practical_config,
                 "--n-seeds", "5"]) == 0
    payload = last_json(capsys)
    assert payload["n"] == 5
    assert 0.0 <= payload["frequency"] <= 1.0


def test_sweep(practical_config, capsys, tmp_path):
    # cap the theoretical-schedule runs so the sweep finishes quickly
    with open(practical_config) as fh:
        raw = json.load(fh)
    raw["budget_mode"] = "theorem"
    raw["max_steps"] = 2000
    capped = tmp_path / "capped.json"
    capped.write_text(json.dumps(raw))
    assert main(["sweep", "--config", str(capped),
                 "--epsilons", "0.01,100", "--n-seeds", "1",
                 "--out", str(tmp_path / "sweep")]) == 0
    rows = last_json(capsys)["rows"]
    assert len(rows) == 2
    assert any(row["skipped"] for row in rows)


@pytest.mark.parametrize("argv, flag", [
    (["sweep", "--epsilons", "0.01,x", "--n-seeds", "1"], "--epsilons"),
    (["concentration", "--experiment", "pinelis", "--lambdas", "3,y"],
     "--lambdas"),
    (["sweep", "--epsilons", "0.01,nan", "--n-seeds", "1"], "--epsilons"),
    (["sweep", "--epsilons", "inf", "--n-seeds", "1"], "--epsilons"),
    (["sweep", "--epsilons=-1", "--n-seeds", "1"], "--epsilons"),
    (["sweep", "--epsilons", "0", "--n-seeds", "1"], "--epsilons")])
def test_malformed_number_list_is_a_config_error(practical_config, capsys,
                                                 argv, flag):
    assert main(argv + ["--config", practical_config]) == 2
    assert flag in capsys.readouterr().err


def test_concentration_pinelis(capsys):
    assert main(["concentration", "--experiment", "pinelis",
                 "--dim", "5", "--steps", "64", "--lambdas", "32",
                 "--trials", "20000"]) == 0
    assert last_json(capsys)["pass"] is True


def test_concentration_bernstein(capsys):
    assert main(["concentration", "--experiment", "bernstein",
                 "--steps", "100", "--variance", "0.09",
                 "--delta", "0.01", "--trials", "20000"]) == 0
    assert last_json(capsys)["pass"] is True


def test_missing_config_is_a_config_error(capsys):
    assert main(["run"]) == 2
    assert "error: --config:" in capsys.readouterr().err
    assert main(["run", "--config", "/nonexistent/config.json"]) == 2


def test_bad_config_field_is_a_config_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"objective": {"kind": "cubic"}}))
    assert main(["params", "--config", str(path)]) == 2
    assert "error:" in capsys.readouterr().err


def test_empty_out_is_a_config_error(practical_config, capsys):
    assert main(["run", "--config", practical_config, "--out", ""]) == 2
    assert "error: --out:" in capsys.readouterr().err


@pytest.mark.parametrize("section, key, value", [
    ("objective", "dim", 3), ("noise", "sigma", -1.0),
    ("noise", "truncate", True), ("schedule", "eta", -0.01)])
@pytest.mark.parametrize("argv", [
    ["params"], ["run"], ["sweep", "--epsilons", "0.01"], ["certify"],
    ["noise-check"], ["coupled-escape"], ["escape-freq"], ["zbound"]],
    ids=lambda argv: argv[0])
def test_section_that_cannot_be_built_is_a_config_error(
        practical_config, capsys, tmp_path, argv, section, key, value):
    with open(practical_config) as fh:
        raw = json.load(fh)
    raw[section][key] = value
    raw["max_steps"] = 2000  # bounds a run that wrongly starts
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(raw))
    assert main(argv + ["--config", str(path)]) == 2
    assert f"error: {section}:" in capsys.readouterr().err
    # every section is built before anything runs or is written
    assert not (tmp_path / "out").exists()


def test_threads_flag_is_gone(practical_config, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--config", practical_config, "--threads", "2"])
    assert exc.value.code == 2
    assert "--threads" in capsys.readouterr().err


@pytest.mark.parametrize("key, value, message", [
    ("p", 1.5, "p must lie in (0, 1)"),
    ("epsilon", -1.0, "epsilon must be positive")], ids=["p", "epsilon"])
def test_bad_manual_schedule_target_is_a_config_error(practical_config,
                                                      capsys, tmp_path, key,
                                                      value, message):
    with open(practical_config) as fh:
        raw = json.load(fh)
    raw["schedule"][key] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(raw))
    assert main(["escape-freq", "--config", str(path),
                 "--n-seeds", "10"]) == 2
    assert message in capsys.readouterr().err


def test_seed_override(practical_config, capsys, tmp_path):
    assert main(["run", "--config", practical_config, "--seed", "42",
                 "--out", str(tmp_path / "alt")]) == 0
    with open(tmp_path / "alt" / "run_000.json") as fh:
        assert json.load(fh)["seed"] == 42

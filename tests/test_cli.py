import json
import warnings

import numpy as np
import pytest

from ballsgd import claims, concentration, optimizer
from ballsgd.cli import build_parser, main
from ballsgd.diagnostics import coupled_escape_trial, quadratic_model_run
from ballsgd.harness import ExperimentConfig, build_experiment
from ballsgd.noise import Frequency, NoiseSampler, hoeffding_half_width
from ballsgd.optimizer import run_ball_sgd

HW_100 = hoeffding_half_width(100)


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


@pytest.mark.parametrize("point", ["-0.1,0.2", "-1,0", "-.1e1,-0"])
def test_certify_at_negative_point_with_either_spelling(practical_config,
                                                       capsys, point):
    assert main(["certify", "--config", practical_config,
                 f"--at={point}"]) == 0
    attached = capsys.readouterr().out
    assert main(["certify", "--config", practical_config,
                 "--at", point]) == 0
    assert capsys.readouterr().out == attached


def test_certify_at_negative_point_of_wrong_size(practical_config, capsys):
    assert main(["certify", "--config", practical_config,
                 "--at", "-1"]) == 2
    assert "error: --at: expected 2 comma-separated numbers" in \
        capsys.readouterr().err


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
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                assert main(["certify", "--config", str(path),
                             f"--at={point}"]) == 1
            assert [str(w.message) for w in caught] == []
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


def test_too_few_trials_is_a_config_error(practical_config, capsys):
    # both minimums are the 10^4 trials every Monte-Carlo estimate needs
    for argv, flag in [
            (["noise-check", "--config", practical_config, "--samples",
              "9999"], "--samples"),
            (["concentration", "--experiment", "bernstein", "--trials",
              "9999"], "--trials")]:
        assert main(argv) == 2
        assert f"error: {flag}: must be at least 10000" in \
            capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["params", "--seed", "1"], ["params", "--out", "o"],
    ["certify", "--out", "o"], ["noise-check", "--out", "o"],
    ["coupled-escape", "--out", "o"], ["escape-freq", "--out", "o"],
    ["zbound", "--out", "o"], ["concentration", "--experiment", "bernstein"]],
    ids=lambda argv: f"{argv[0]}{argv[1]}")
def test_flag_a_command_does_not_read_is_rejected(practical_config, capsys,
                                                  tmp_path, argv):
    # every argv gets --config, which concentration does not read either
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--config", practical_config])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("argv", [
    ["run", "--config", "c", "--seed", "1", "--out", "o"],
    ["sweep", "--config", "c", "--seed", "1", "--out", "o",
     "--epsilons", "0.01"],
    ["certify", "--config", "c", "--seed", "1"],
    ["concentration", "--experiment", "pinelis", "--seed", "1"]],
    ids=lambda argv: argv[0])
def test_command_accepts_the_flags_it_reads(argv):
    args = build_parser().parse_args(argv)
    assert args.seed == 1


def test_diverging_run_is_a_numerical_failure(practical_config, capsys,
                                              tmp_path):
    with open(practical_config) as fh:
        raw = json.load(fh)
    raw["schedule"].update(eta=1.0, ball_radius=1000.0)
    path = tmp_path / "diverging.json"
    path.write_text(json.dumps(raw))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["run", "--config", str(path)]) == 1
    assert capsys.readouterr().err == \
        "error: iterate became non-finite at episode step 1\n"
    assert [str(w.message) for w in caught] == []


def test_certify_of_a_run_that_did_not_converge_fails(practical_config,
                                                      capsys, tmp_path):
    with open(practical_config) as fh:
        raw = json.load(fh)
    raw["max_steps"] = 10
    path = tmp_path / "short.json"
    path.write_text(json.dumps(raw))
    assert main(["certify", "--config", str(path)]) == 1
    assert last_json(capsys) == {"error": "run did not converge",
                                 "pass": False}


@pytest.mark.parametrize("at_least, bound, frequency, held", [
    (True, 0.9, 0.95, True), (True, 0.9, 0.5, False),
    (False, 0.1, 0.05, True), (False, 0.1, 0.5, False),
    # a frequency exactly on bound -/+ ci holds (0.8 +- ci -+ ci == 0.8
    # in floating point)
    (True, 0.8 + HW_100, 0.8, True), (False, 0.8 - HW_100, 0.8, True)])
def test_frequency_verdict_direction(at_least, bound, frequency, held):
    # escape-freq and zbound bound the frequency from below (>= bound - ci),
    # coupled-escape from above (<= bound + ci); ci is 0.163 at n = 100
    freq = Frequency(round(frequency * 100), 100)
    assert freq.frequency == frequency
    for asserted in (True, False):
        verdict = claims.Verdict(freq, bound, at_least, asserted)
        assert verdict.holds is held
        assert verdict.passed is (held or not asserted)
        assert verdict.to_dict() == {
            "n": 100, "frequency": frequency,
            "ci": pytest.approx(0.163, abs=1e-3), "bound": bound,
            "pass": held or not asserted}


@pytest.mark.parametrize("command, flag, n, claim", [
    ("escape-freq", "--n-seeds", 20, "escape"),
    ("coupled-escape", "--n-seeds", 20, "paired_escape"),
    ("zbound", "--n-seeds", 10, "difference_iterate"),
    ("noise-check", "--samples", 10_000, "dispersive")])
def test_check_command_prints_its_claims_verdict(
        practical_config, capsys, monkeypatch, command, flag, n, claim):
    # each check command prints the verdict of its claim in ballsgd.claims,
    # noise-check under its own keys; a command that judged its trials
    # itself would print without calling the claim
    verdicts = []
    real = getattr(claims, claim)

    def recorded(experiment, trials):
        verdicts.append(real(experiment, trials))
        return verdicts[-1]

    monkeypatch.setattr(claims, claim, recorded)
    assert main([command, "--config", practical_config, flag, str(n)]) == 0
    (verdict,) = verdicts
    expected = verdict.to_dict()
    if command == "noise-check":
        expected = {"estimate": expected["frequency"], "ci": expected["ci"],
                    "bound": expected["bound"], "pass": expected["pass"]}
    assert last_json(capsys) == expected
    assert expected["pass"] is True


@pytest.mark.parametrize("max_steps, runs", [
    (500, ()), (1000, ("coupled-escape",)), (3000, ("escape-freq",
                                                    "coupled-escape",
                                                    "zbound"))])
def test_escape_checks_reject_a_max_steps_below_their_steps(
        practical_config, capsys, tmp_path, max_steps, runs):
    # escape-freq and zbound run k0 = 3000 steps, coupled-escape ko = 800
    with open(practical_config) as fh:
        raw = json.load(fh)
    raw["max_steps"] = max_steps
    path = tmp_path / "capped.json"
    path.write_text(json.dumps(raw))
    for command in ("escape-freq", "coupled-escape", "zbound"):
        code = main([command, "--config", str(path), "--n-seeds", "5"])
        out = capsys.readouterr()
        if command in runs:
            assert code == 0
            assert json.loads(out.out)["n"] == 5
        else:
            assert code == 2
            assert out.out == ""
            assert out.err.startswith(f"error: max_steps: {max_steps} is "
                                      "below k")


def test_noise_check(practical_config, capsys):
    assert main(["noise-check", "--config", practical_config,
                 "--samples", "20000"]) == 0
    assert last_json(capsys)["pass"] is True


def test_noise_check_is_judged_under_a_manual_schedule(practical_config,
                                                       capsys, tmp_path):
    # sigma 0 puts every row in the width-0 slab through the origin
    with open(practical_config) as fh:
        raw = json.load(fh)
    assert raw["schedule"]["mode"] == "manual"
    raw["noise"]["sigma"] = 0
    silent = tmp_path / "silent.json"
    silent.write_text(json.dumps(raw))
    assert main(["noise-check", "--config", str(silent),
                 "--samples", "10000"]) == 1
    payload = last_json(capsys)
    assert payload["pass"] is False
    assert payload["estimate"] == 1.0


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


def test_zbound_reports_the_first_episodes_of_theorem_budget_runs(
        practical_config, capsys):
    # zbound steps the configured run, here with unlimited episodes; its
    # first episode is the same under the theorem budget (t0 >= k0)
    n = 10
    assert main(["zbound", "--config", practical_config, "--seed", "3",
                 "--n-seeds", str(n)]) == 0
    with open(practical_config) as fh:
        config = ExperimentConfig.from_json(fh.read())
    assert config.budget_mode == "unlimited-episodes"
    _, objective, noise, schedule = build_experiment(config)
    batch = run_ball_sgd(objective, noise, schedule, np.zeros(2),
                         range(3, 3 + n), budget_mode="theorem",
                         max_episodes=1, store_iterates=True)
    held = sum(trace.z_bound_ok for trace in
               quadratic_model_run(objective, np.zeros(2), batch.results))
    assert last_json(capsys)["frequency"] == held / n


def test_escape_checks_step_noise_scheduled_sgd(practical_config, capsys,
                                                tmp_path):
    # with zero base noise only the injection every Ko = 800 steps moves a
    # trajectory off the saddle: plain ball-SGD steps would never escape
    with open(practical_config) as fh:
        raw = json.load(fh)
    raw["algorithm"] = "noise-scheduled"
    raw["noise"]["sigma"] = 0.0
    path = tmp_path / "scheduled.json"
    path.write_text(json.dumps(raw))
    experiment = build_experiment(ExperimentConfig.from_dict(raw))
    for command, claim in (("escape-freq", claims.escape),
                           ("coupled-escape", claims.paired_escape)):
        assert main([command, "--config", str(path),
                     "--n-seeds", "200"]) == 0
        verdict = claim(experiment, 200)
        assert last_json(capsys) == verdict.to_dict()
        assert verdict.holds
    # the pair starts q0 = sigma eta / (4 sqrt d) apart with the sigma of
    # the injection, not of the zero base noise (which would make q0 = 0
    # and the two rows one trajectory)
    _, objective, noise, schedule = experiment
    q0 = objective.constants.sigma * schedule.eta / (4.0 * np.sqrt(2.0))
    stuck = sum(outcome.both_stuck for outcome in coupled_escape_trial(
        objective, noise, schedule, np.zeros(2), q0, np.array([1.0, 0.0]),
        range(200), algorithm="noise-scheduled"))
    assert verdict.measured.frequency == stuck / 200


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
    (["sweep", "--epsilons", "0", "--n-seeds", "1"], "--epsilons"),
    (["concentration", "--experiment", "pinelis", "--lambdas=nan"],
     "--lambdas"),
    (["concentration", "--experiment", "pinelis", "--lambdas=inf"],
     "--lambdas"),
    (["concentration", "--experiment", "pinelis", "--lambdas=-5"],
     "--lambdas")])
def test_malformed_number_list_is_a_config_error(practical_config, capsys,
                                                 argv, flag):
    if argv[0] == "sweep":  # concentration reads no config
        argv = argv + ["--config", practical_config]
    assert main(argv) == 2
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


@pytest.mark.parametrize("argv", [
    ["--experiment", "bernstein", "--variance", "nan"],
    ["--experiment", "bernstein", "--step-bound", "inf"],
    ["--experiment", "pinelis", "--step-bound", "nan"],
    ["--experiment", "bernstein", "--step-bound", "1e200"],
    ["--experiment", "pinelis", "--step-bound", "1e200"]],
    ids=["bernstein-variance-nan", "bernstein-step-bound-inf",
         "pinelis-step-bound-nan", "bernstein-step-sums-overflow",
         "pinelis-step-sums-overflow"])
def test_non_finite_tail_input_is_rejected(capsys, argv):
    assert main(["concentration", *argv, "--trials", "10000"]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert "step_bound" in out.err


@pytest.mark.parametrize("argv", [
    ["--experiment", "pinelis", "--dim", "50", "--steps", "10000000"],
    ["--experiment", "bernstein", "--steps", "1000000000"]],
    ids=["pinelis", "bernstein"])
def test_tail_trial_past_2_24_words_is_rejected(monkeypatch, capsys, argv):
    def no_draw(*args, **kwargs):
        raise AssertionError("drew stream words")

    monkeypatch.setattr(concentration, "random_words", no_draw)
    monkeypatch.setattr(NoiseSampler, "rows", no_draw)
    assert main(["concentration", *argv, "--trials", "10000"]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert "2^24" in out.err


def test_pinelis_lambda_past_every_sum_has_bound_zero(capsys):
    # 1e308 squared overflows; no 64-step sum reaches it, so no trial
    # draws a row, and its bound is 0.0
    assert main(["concentration", "--experiment", "pinelis",
                 "--lambdas", "1e308"]) == 0
    payload = last_json(capsys)
    assert payload["bound"] == [0.0]
    assert payload["empirical_tail"] == [0.0]
    assert payload["pass"] is True


def test_missing_config_is_a_config_error(capsys):
    assert main(["run"]) == 2
    assert "error: --config:" in capsys.readouterr().err
    assert main(["run", "--config", "/nonexistent/config.json"]) == 2


def test_bad_config_field_is_a_config_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"objective": {"kind": "cubic"}}))
    assert main(["params", "--config", str(path)]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("text", ["", "[]"], ids=["empty", "array"])
def test_config_that_is_not_an_object_names_the_root(tmp_path, capsys,
                                                     text):
    path = tmp_path / "config.json"
    path.write_text(text)
    assert main(["params", "--config", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: config: ")


def test_empty_out_is_a_config_error(practical_config, capsys):
    assert main(["run", "--config", practical_config, "--out", ""]) == 2
    assert "error: --out:" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["config-is-a-directory",
                                     "out-is-a-file"])
def test_unusable_config_or_out_path_is_a_config_error(practical_config,
                                                       capsys, tmp_path,
                                                       command):
    existing = tmp_path / "existing.txt"
    existing.write_text("")
    argv = (["params", "--config", str(tmp_path)]
            if command == "config-is-a-directory"
            else ["run", "--config", practical_config, "--out",
                  str(existing)])
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


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


@pytest.mark.parametrize("command", ["escape-freq", "coupled-escape",
                                     "zbound"])
def test_check_above_the_dense_hessian_limit_is_a_config_error(
        practical_config, capsys, tmp_path, monkeypatch, command):
    # these checks take the dense Hessian at the saddle, limited to d = 200
    def step(self):
        raise AssertionError("a step ran")

    monkeypatch.setattr(optimizer._Batch, "run", step)
    with open(practical_config) as fh:
        raw = json.load(fh)
    raw["objective"]["dim"] = 202
    path = tmp_path / "d202.json"
    path.write_text(json.dumps(raw))
    assert main([command, "--config", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: objective: ")


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


@pytest.mark.parametrize("value, message", [
    (None, "error: schedule.epsilon: required field missing"),
    ("null", "error: schedule.epsilon: must be a finite number")],
    ids=["omitted", "null"])
@pytest.mark.parametrize("command", ["run", "params"])
def test_manual_schedule_requires_epsilon(practical_config, capsys, tmp_path,
                                          command, value, message):
    # epsilon sets the certificate's thresholds, so a manual schedule
    # states it; none is derived from the ball radius
    with open(practical_config) as fh:
        raw = json.load(fh)
    if value is None:
        del raw["schedule"]["epsilon"]
    else:
        raw["schedule"]["epsilon"] = None
    path = tmp_path / "no-epsilon.json"
    path.write_text(json.dumps(raw))
    assert main([command, "--config", str(path)]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.strip() == message
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("flag, value, experiment", [
    ("--dim", "7", "pinelis"), ("--lambdas", "3", "pinelis"),
    ("--variance", "0.5", "bernstein"), ("--delta", "0.2", "bernstein")])
def test_concentration_flag_of_the_other_experiment_is_rejected(
        capsys, flag, value, experiment):
    other = "bernstein" if experiment == "pinelis" else "pinelis"
    assert main(["concentration", "--experiment", other, flag, value,
                 "--trials", "10000"]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.strip() == \
        f"error: {flag}: applies to --experiment {experiment} only"


def test_noise_section_that_is_not_an_object_is_a_config_error(
        practical_config, capsys, tmp_path):
    with open(practical_config) as fh:
        raw = json.load(fh)
    raw["noise"] = 3
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(raw))
    assert main(["run", "--config", str(path)]) == 2
    assert capsys.readouterr().err.strip() == \
        "error: noise: must be an object"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", [
    ["concentration", "--experiment", "pinelis", "--lambdas", "6,8,10",
     "--trials", "10000"],
    ["concentration", "--experiment", "bernstein", "--trials", "10000"],
    ["noise-check", "--samples", "10000"]],
    ids=["pinelis", "bernstein", "noise-check"])
def test_a_negative_seed_reads_the_stream_of_the_seed_mod_2_64(
        practical_config, capsys, argv):
    # a Monte-Carlo check takes its seed mod 2^64, once, before it draws
    if argv[0] == "noise-check":
        argv = argv + ["--config", practical_config]
    reports = []
    for seed in ("-5", str(2 ** 64 - 5)):
        assert main(argv + ["--seed", seed]) == 0
        payload = last_json(capsys)
        payload.pop("seed", None)
        reports.append(payload)
    assert reports[0] == reports[1]

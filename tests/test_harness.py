import csv
import json
import math
import os
from dataclasses import replace

import numpy as np
import pytest

from ballsgd.errors import ConfigError
from ballsgd.harness import ExperimentConfig, _write_json, run_config
from ballsgd.hyperparams import Schedule
from ballsgd.optimizer import CONVERGED, descent_pass_fraction


def practical_raw(**overrides):
    raw = {
        "objective": {"kind": "quartic", "dim": 2, "sigma": 1.0},
        "noise": {"kind": "uniform-ball", "sigma": 1.0},
        "schedule": {"mode": "manual", "eta": 0.01, "ball_radius": 0.5,
                     "k0": 3000, "ko": 400, "epsilon": 6e-5, "p": 0.1},
        "algorithm": "ball-sgd",
        "n_seeds": 2,
        "base_seed": 0,
        "budget_mode": "unlimited-episodes",
    }
    raw.update(overrides)
    return raw


def test_config_rejects_unknown_top_level_key():
    with pytest.raises(ConfigError) as exc:
        ExperimentConfig.from_dict(practical_raw(bogus=1))
    assert exc.value.field == "bogus"


def test_config_rejects_unknown_nested_key_with_dotted_path():
    raw = practical_raw()
    raw["objective"]["extra"] = 1
    with pytest.raises(ConfigError) as exc:
        ExperimentConfig.from_dict(raw)
    assert exc.value.field == "objective.extra"


def test_config_requires_objective_fields():
    raw = practical_raw()
    del raw["objective"]["dim"]
    with pytest.raises(ConfigError) as exc:
        ExperimentConfig.from_dict(raw)
    assert exc.value.field == "objective.dim"


def test_config_rejects_injected_noise_kind():
    with pytest.raises(ConfigError) as exc:
        ExperimentConfig.from_dict(practical_raw(
            noise={"kind": "injected", "sigma": 1.0}))
    assert exc.value.field == "noise.kind"


def test_config_rejects_bad_scalars():
    for field, value in [("n_seeds", 0), ("threads", 0), ("max_steps", 0),
                         ("algorithm", "adam"), ("budget_mode", "forever"),
                         ("base_seed", 1.5),
                         ("noise.truncate", "false"),
                         ("n_seeds", True), ("base_seed", True),
                         ("max_steps", True), ("threads", True),
                         ("objective.dim", 2.5),
                         ("schedule.eta", math.nan),
                         ("schedule.eta", "0.01"),
                         ("output_dir", 5), ("output_dir", ""),
                         ("threads", 2), ("threads", 1.0),
                         ("store_iterates", False)]:
        raw = practical_raw()
        *parents, key = field.split(".")
        target = raw
        for parent in parents:
            target = target[parent]
        target[key] = value
        with pytest.raises(ConfigError) as exc:
            ExperimentConfig.from_dict(raw)
        assert exc.value.field == field

    # numeric arrays: every entry must be a finite number
    quadratic = {"kind": "quadratic", "H": [[1.0, 0.0], [0.0, 1.0]],
                 "b": [0.0, 0.0]}
    factorization = {"kind": "matrix-factorization",
                     "M": [[1.0, 0.0], [0.0, 1.0]], "rank": 1}
    for objective in (quadratic, factorization):
        ExperimentConfig.from_dict(practical_raw(objective=objective))
    for objective, key, value in [
            (quadratic, "H", [[1.0, 0.0], [0.0, math.nan]]),
            (quadratic, "H", [[1.0, "0"], [0.0, 1.0]]),
            (quadratic, "b", [0.0, -math.inf]),
            (quadratic, "b", [0.0, None]),
            (factorization, "M", [[math.inf, 0.0], [0.0, 1.0]]),
            (factorization, "M", [[1.0, 0.0], [True, 1.0]]),
            # ragged arrays, at the top level and below it
            (quadratic, "H", [[1.0, 2.0], [3.0]]),
            (quadratic, "b", [0.0, [0.0]]),
            (factorization, "M", [[[1.0], [0.0]], [[0.0, 1.0], [1.0]]])]:
        raw = practical_raw(objective={**objective, key: value})
        with pytest.raises(ConfigError) as exc:
            ExperimentConfig.from_dict(raw)
        assert exc.value.field == f"objective.{key}"


def test_config_json_round_trip():
    config = ExperimentConfig.from_json(json.dumps(practical_raw()))
    again = ExperimentConfig.from_dict(config.to_dict())
    assert again == config


def test_config_rejects_invalid_json_text():
    with pytest.raises(ConfigError):
        ExperimentConfig.from_json("{not json")


def test_convex_quadratic_single_seed_converges(tmp_path):
    raw = {
        "objective": {"kind": "quadratic", "H": [[1.0, 0.0], [0.0, 1.0]],
                      "b": [0.0, 0.0], "sigma": 0.0},
        "noise": {"kind": "uniform-ball", "sigma": 0.0},
        "schedule": {"mode": "manual", "eta": 0.05, "ball_radius": 5.0,
                     "k0": 200, "ko": 100, "epsilon": 0.01},
        "n_seeds": 1,
        "budget_mode": "unlimited-episodes",
        "output_dir": str(tmp_path / "out"),
    }
    config = ExperimentConfig.from_dict(raw)
    artifacts = run_config(config)
    assert artifacts.summary["convergence_fraction"] == 1.0
    assert artifacts.results[0].terminated == CONVERGED


def test_artifact_files_and_seed_fanout(tmp_path):
    config = ExperimentConfig.from_dict(practical_raw(
        base_seed=17, output_dir=str(tmp_path / "out")))
    artifacts = run_config(config)
    names = sorted(os.listdir(tmp_path / "out"))
    assert names == ["episodes.csv", "run_000.json", "run_001.json",
                     "schedule.json", "summary.json"]
    assert [r.seed for r in artifacts.results] == [17, 18]
    with open(tmp_path / "out" / "run_001.json") as fh:
        assert json.load(fh)["seed"] == 18


def test_rerun_is_byte_identical(tmp_path):
    config = ExperimentConfig.from_dict(practical_raw())
    for name in ("a", "b"):
        run_config(replace(config, output_dir=str(tmp_path / name)))
    for filename in os.listdir(tmp_path / "a"):
        with open(tmp_path / "a" / filename, "rb") as fa, \
                open(tmp_path / "b" / filename, "rb") as fb:
            assert fa.read() == fb.read(), filename


def test_csv_matches_summary_numbers(tmp_path):
    config = ExperimentConfig.from_dict(practical_raw(
        output_dir=str(tmp_path / "out")))
    artifacts = run_config(config)
    with open(tmp_path / "out" / "episodes.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == len(artifacts.summary["episodes"])
    for parsed, ref in zip(rows, artifacts.summary["episodes"]):
        assert int(parsed["seed"]) == ref["seed"]
        assert float(parsed["f_drop"]) == ref["f_drop"]
        assert parsed["pass"] == ("1" if ref["pass"] else "0")


def test_csv_dialect(tmp_path):
    config = ExperimentConfig.from_dict(practical_raw(
        n_seeds=1, output_dir=str(tmp_path / "out")))
    run_config(config)
    with open(tmp_path / "out" / "episodes.csv", "rb") as fh:
        data = fh.read()
    assert b"\r" not in data
    header = data.split(b"\n", 1)[0].decode()
    assert header == ("seed,episode,start_step,length,f_anchor,f_exit,"
                      "f_drop,threshold,pass")


def test_threads_is_accepted_only_as_one(tmp_path):
    # kept for old configs only: a config's seeds run as one batch
    run_config(ExperimentConfig.from_dict(practical_raw(
        threads=1, output_dir=str(tmp_path / "out"))))
    with open(tmp_path / "out" / "summary.json") as fh:
        embedded = json.load(fh)["config"]
    assert "threads" not in embedded and "store_iterates" not in embedded
    with pytest.raises(ConfigError, match="in-process batch"):
        ExperimentConfig.from_dict(practical_raw(threads=2))


def test_summary_embeds_config_without_output_dir(tmp_path):
    config = ExperimentConfig.from_dict(practical_raw(
        output_dir=str(tmp_path / "somewhere")))
    artifacts = run_config(config)
    assert artifacts.summary["config"]["output_dir"] is None
    assert artifacts.summary["config"]["n_seeds"] == 2


def test_run_config_requires_some_output_dir():
    config = ExperimentConfig.from_dict(practical_raw())
    with pytest.raises(ConfigError) as exc:
        run_config(config)
    assert exc.value.field == "output_dir"


def _reject_constant(name):
    raise ValueError(f"not strict JSON: {name}")


def _strict_json(path):
    with open(path) as fh:
        return json.load(fh, parse_constant=_reject_constant)


def test_written_json_is_strict(tmp_path):
    # rho = 0 on a quadratic leaves the schedule's c1 undefined (NaN)
    raw = {
        "objective": {"kind": "quadratic", "H": [[1.0, 0.0], [0.0, 1.0]],
                      "b": [0.0, 0.0], "sigma": 0.0},
        "noise": {"kind": "uniform-ball", "sigma": 0.0},
        "schedule": {"mode": "manual", "eta": 0.05, "ball_radius": 5.0,
                     "k0": 200, "ko": 100, "epsilon": 0.01},
        "n_seeds": 1,
        "budget_mode": "unlimited-episodes",
        "output_dir": str(tmp_path / "out"),
    }
    artifacts = run_config(ExperimentConfig.from_dict(raw))
    for name in os.listdir(tmp_path / "out"):
        if name.endswith(".json"):
            _strict_json(tmp_path / "out" / name)
            # one line, in the form of stdout: sorted keys, no indent
            text = (tmp_path / "out" / name).read_text()
            assert text.endswith("\n") and text.count("\n") == 1, name
            assert text == json.dumps(json.loads(text), sort_keys=True,
                                      allow_nan=False) + "\n", name
    assert _strict_json(tmp_path / "out" / "schedule.json")["c1"] is None
    with open(tmp_path / "out" / "schedule.json") as fh:
        schedule = Schedule.from_json(fh.read())
    assert math.isnan(schedule.c1)
    # every other field reads back as the run's own
    assert replace(schedule, c1=0.0) == replace(artifacts.schedule, c1=0.0)


@pytest.mark.parametrize("payload", [
    {"x": np.array([1.0])}, {"x": [np.int64(3)]}, {"x": np.float32(1.0)},
    [object()]])
def test_json_writer_rejects_a_type_it_cannot_write(tmp_path, payload):
    with pytest.raises(TypeError):
        _write_json(tmp_path / "bad.json", payload)
    assert not (tmp_path / "bad.json").exists()


def test_run_files_hold_no_anchor_points(tmp_path):
    # an episode is written as its scalars; the d-vector anchor is not
    out = tmp_path / "out"
    run_config(ExperimentConfig.from_dict(practical_raw(
        output_dir=str(out))))
    keys = {"exited", "f_anchor", "f_end", "index", "length", "start_step"}
    for i in range(2):
        run = _strict_json(out / f"run_{i:03d}.json")
        episodes = run["trace"]["episodes"]
        assert episodes and all(set(e) == keys for e in episodes)


def test_descent_pass_fraction_agrees_across_artifacts(tmp_path):
    # at noise sigma 4 some exits rise instead of descending
    out = tmp_path / "out"
    artifacts = run_config(ExperimentConfig.from_dict(practical_raw(
        n_seeds=3, noise={"kind": "uniform-ball", "sigma": 4.0},
        output_dir=str(out))))
    summary = _strict_json(out / "summary.json")
    threshold = summary["descent_threshold"]
    with open(out / "episodes.csv", newline="") as fh:
        passes = {(int(row["seed"]), int(row["episode"])): row["pass"]
                  for row in csv.DictReader(fh)}
    outcomes = set()
    for i, result in enumerate(artifacts.results):
        run = _strict_json(out / f"run_{i:03d}.json")
        exits = [e for e in run["trace"]["episodes"] if e["exited"]]
        descended = [e["f_anchor"] - e["f_end"] >= threshold for e in exits]
        outcomes.update(descended)
        share = sum(descended) / len(descended) if descended else 1.0
        assert summary["descent_pass_fraction"][i] == \
            descent_pass_fraction(result) == share
        for e, ok in zip(exits, descended):
            assert passes[run["seed"], e["index"]] == ("1" if ok else "0")
    assert outcomes == {True, False}

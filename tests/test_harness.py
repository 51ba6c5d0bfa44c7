import csv
import json
import math
import os
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ballsgd.errors import ConfigError
from ballsgd.harness import (ExperimentConfig, _write_json, run_config,
                             sweep_epsilon)
from ballsgd.hyperparams import Schedule, _json_safe
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
            (factorization, "M", [[1.0, 0.0], [True, 1.0]])]:
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


def sweep_config(**overrides):
    return ExperimentConfig.from_dict(practical_raw(
        schedule={"mode": "theoretical", "epsilon": 1e-3, "p": 0.1},
        budget_mode="theorem",
        max_steps=2000,
        **overrides,
    ))


def test_sweep_rows_sorted_and_k0_monotone(tmp_path):
    rows = sweep_epsilon(sweep_config(output_dir=str(tmp_path / "sweep")),
                         [1e-2, 1e-3, 5e-3], n_seeds=1)
    eps = [row["epsilon"] for row in rows]
    assert eps == sorted(eps, reverse=True)
    k0s = [row["k0"] for row in rows]
    assert all(b > a for a, b in zip(k0s, k0s[1:]))
    assert all(row["log10_inv_epsilon"] ==
               pytest.approx(math.log10(1.0 / row["epsilon"]))
               for row in rows)
    assert os.path.exists(tmp_path / "sweep" / "sweep.csv")
    assert os.path.exists(tmp_path / "sweep" / "sweep.json")


def test_sweep_marks_infeasible_epsilon_skipped():
    # delta = sqrt(rho * epsilon) > 1 makes the target infeasible
    rows = sweep_epsilon(sweep_config(), [1e-2, 100.0], n_seeds=1)
    by_eps = {row["epsilon"]: row for row in rows}
    assert by_eps[100.0]["skipped"] is True
    assert math.isnan(by_eps[100.0]["k0"])
    assert by_eps[1e-2]["skipped"] is False
    assert by_eps[1e-2]["k0"] > 0


def test_sweep_requires_max_steps(tmp_path):
    # every derived schedule needs astronomically many steps
    config = ExperimentConfig.from_dict(practical_raw(
        schedule={"mode": "theoretical", "epsilon": 1e-3, "p": 0.1},
        budget_mode="theorem", output_dir=str(tmp_path / "sweep")))
    with pytest.raises(ConfigError) as exc:
        sweep_epsilon(config, [1e-2], n_seeds=1)
    assert exc.value.field == "max_steps"
    assert not (tmp_path / "sweep").exists()


def test_sweep_deduplicates_epsilons():
    assert len(sweep_epsilon(sweep_config(), [1e-2, 1e-2], n_seeds=1)) == 1


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
    assert _strict_json(tmp_path / "out" / "schedule.json")["c1"] is None
    with open(tmp_path / "out" / "schedule.json") as fh:
        schedule = Schedule.from_json(fh.read())
    assert math.isnan(schedule.c1)
    assert schedule.to_json() == artifacts.schedule.to_json()


_FLOATS = st.floats(allow_nan=True, allow_infinity=True)
_PAYLOADS = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), _FLOATS,
              _FLOATS.map(np.float64), st.text(), st.lists(_FLOATS)),
    lambda children: st.one_of(
        st.lists(children), st.lists(children).map(tuple),
        st.dictionaries(st.text(), children)),
    max_leaves=40)


@settings(max_examples=300, deadline=None)
@given(payload=_PAYLOADS)
def test_json_writer_writes_the_stdlib_bytes(tmp_path_factory, payload):
    path = tmp_path_factory.getbasetemp() / "payload.json"
    _write_json(path, payload)
    expected = json.dumps(_json_safe(payload), sort_keys=True, indent=2,
                          allow_nan=False) + "\n"
    assert path.read_bytes() == expected.encode()


@pytest.mark.parametrize("payload", [
    {"x": np.array([1.0])}, {"x": [np.int64(3)]}, {"x": np.float32(1.0)},
    [object()], {1: 2.0}])
def test_json_writer_rejects_a_type_it_cannot_write(tmp_path, payload):
    # as the stdlib encoder does; a key must also be a str, as every
    # artifact's is
    with pytest.raises(TypeError):
        _write_json(tmp_path / "bad.json", payload)
    assert not (tmp_path / "bad.json").exists()


def test_sweep_json_is_strict_with_a_skipped_epsilon(tmp_path):
    sweep_epsilon(sweep_config(output_dir=str(tmp_path / "sweep")),
                  [1e-2, 100.0], n_seeds=1)
    rows = _strict_json(tmp_path / "sweep" / "sweep.json")["rows"]
    skipped = [row for row in rows if row["skipped"]]
    assert len(skipped) == 1 and skipped[0]["k0"] is None


def test_sweep_without_output_dir_writes_nothing(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    sweep_epsilon(sweep_config(), [1e-2, 100.0], n_seeds=1)
    assert os.listdir(tmp_path) == []


def _written(text: str, value) -> bool:
    """text is value as a CSV artifact writes it."""
    if isinstance(value, bool):
        return text == ("1" if value else "0")
    if isinstance(value, float) and math.isnan(value):
        return text == "nan"
    return type(value)(text) == value


def test_sweep_files_hold_the_rows_it_returns(tmp_path):
    out = tmp_path / "sweep"
    rows = sweep_epsilon(sweep_config(output_dir=str(out)), [1e-2, 100.0],
                         n_seeds=1)
    assert sorted(os.listdir(out)) == ["sweep.csv", "sweep.json"]
    with open(out / "sweep.csv", newline="") as fh:
        csv_rows = list(csv.DictReader(fh))
    json_rows = _strict_json(out / "sweep.json")["rows"]
    assert len(csv_rows) == len(json_rows) == len(rows) == 2
    for row, csv_row, json_row in zip(rows, csv_rows, json_rows):
        assert list(csv_row) == list(row)
        assert sorted(json_row) == sorted(row)
        for key, value in row.items():
            assert _written(csv_row[key], value), key
            if isinstance(value, float) and math.isnan(value):
                assert json_row[key] is None, key
            else:
                assert json_row[key] == value, key


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

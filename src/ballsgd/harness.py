"""Experiment orchestration: strict JSON configs, multi-seed runs with
deterministic artifacts, and accuracy sweeps.

Artifact layout for one run_config call (all files deterministic given the
config, no timestamps):

    schedule.json   the resolved Schedule
    run_000.json    per-seed RunResult (seed = base_seed + i)
    episodes.csv    one row per episode across all seeds
    summary.json    aggregate statistics; superset of the CSV content

CSV dialect: comma separator, '.' decimal, header row, LF line endings,
floats with 17 significant digits.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

import numpy as np

from .certify import certify
from .errors import ConfigError, InfeasibleSchedule
from .hyperparams import (Schedule, _json_safe, derive_schedule,
                          manual_schedule)
from .noise import KINDS, NoiseSampler
from .optimizer import (CONVERGED, descent_threshold,
                        episode_descent_report, run_ball_sgd,
                        run_noise_scheduled_sgd)
from .problems import (Objective, make_matrix_factorization, make_quadratic,
                       make_quartic_saddle)

ALGORITHMS = ("ball-sgd", "noise-scheduled")
BUDGET_MODES = ("theorem", "unlimited-episodes")

_EPISODE_COLUMNS = ("seed", "episode", "start_step", "length", "f_anchor",
                    "f_exit", "f_drop", "threshold", "pass")


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _require(mapping: dict, key: str, path: str):
    if key not in mapping:
        raise ConfigError(f"{path}.{key}" if path else key,
                          "required field missing")
    return mapping[key]


def _integer(value, field: str, minimum: int | None = None) -> int:
    # bool is an int subclass, but true is not a count
    if isinstance(value, bool) or not isinstance(value, int) or \
            (minimum is not None and value < minimum):
        bound = "" if minimum is None else f" >= {minimum}"
        raise ConfigError(field, f"must be an integer{bound}")
    return value


def _number(value, field: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)) or \
            not math.isfinite(value):
        raise ConfigError(field, "must be a finite number")
    return value


def _numbers(value, field: str) -> None:
    """Every entry of a (nested) JSON array must be a finite number."""
    if isinstance(value, list):
        for item in value:
            _numbers(item, field)
    else:
        _number(value, field)


def _flag(value, field: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(field, "must be true or false")
    return value


def _check_fields(mapping: dict, path: str, check, keys) -> None:
    """Apply check to each of keys present in mapping."""
    for key in keys:
        if key in mapping:
            check(mapping[key], f"{path}.{key}")


def _reject_unknown(mapping: dict, allowed, path: str):
    for key in mapping:
        if key not in allowed:
            dotted = f"{path}.{key}" if path else key
            raise ConfigError(dotted, "unknown field")


@dataclass
class ExperimentConfig:
    """Validated experiment description.

    Built from a nested dict (see from_dict); unknown keys anywhere are
    rejected with the dotted path of the offender.
    """

    objective: dict
    noise: dict
    schedule: dict
    algorithm: str
    n_seeds: int
    base_seed: int
    budget_mode: str
    output_dir: str | None
    max_steps: int | None

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        if not isinstance(raw, dict):
            raise ConfigError("", "config must be a JSON object")
        _reject_unknown(raw, {"objective", "noise", "schedule", "algorithm",
                              "n_seeds", "base_seed", "budget_mode",
                              "output_dir", "max_steps", "threads"}, "")
        # "threads" survives only so that old configs still load
        if "threads" in raw and (type(raw["threads"]) is not int
                                 or raw["threads"] != 1):
            raise ConfigError("threads", "a config's seeds run as one "
                              "in-process batch; only 1 is accepted")

        objective = _require(raw, "objective", "")
        if not isinstance(objective, dict):
            raise ConfigError("objective", "must be an object")
        kind = _require(objective, "kind", "objective")
        if kind == "quartic":
            _reject_unknown(objective, {"kind", "dim", "sigma"}, "objective")
            _require(objective, "dim", "objective")
        elif kind == "quadratic":
            _reject_unknown(objective, {"kind", "H", "b", "sigma"},
                            "objective")
            _require(objective, "H", "objective")
            _require(objective, "b", "objective")
        elif kind == "matrix-factorization":
            _reject_unknown(objective, {"kind", "M", "rank", "sigma"},
                            "objective")
            _require(objective, "M", "objective")
            _require(objective, "rank", "objective")
        else:
            raise ConfigError("objective.kind", f"unknown kind {kind!r}")
        _check_fields(objective, "objective", _integer, ("dim", "rank"))
        _check_fields(objective, "objective", _number, ("sigma",))
        _check_fields(objective, "objective", _numbers, ("H", "b", "M"))

        noise = _require(raw, "noise", "")
        if not isinstance(noise, dict):
            raise ConfigError("noise", "must be an object")
        _reject_unknown(noise, {"kind", "sigma", "truncate"}, "noise")
        nkind = _require(noise, "kind", "noise")
        if nkind not in KINDS:
            raise ConfigError("noise.kind", f"unsupported kind {nkind!r}")
        _check_fields(noise, "noise", _number, ("sigma",))
        _check_fields(noise, "noise", _flag, ("truncate",))

        schedule = _require(raw, "schedule", "")
        if not isinstance(schedule, dict):
            raise ConfigError("schedule", "must be an object")
        mode = _require(schedule, "mode", "schedule")
        if mode == "theoretical":
            _reject_unknown(schedule, {"mode", "epsilon", "p"}, "schedule")
            _require(schedule, "epsilon", "schedule")
            _require(schedule, "p", "schedule")
        elif mode == "manual":
            _reject_unknown(schedule, {"mode", "eta", "ball_radius", "k0",
                                       "ko", "epsilon", "p"}, "schedule")
            for key in ("eta", "ball_radius", "k0", "ko"):
                _require(schedule, key, "schedule")
        else:
            raise ConfigError("schedule.mode", f"unknown mode {mode!r}")
        _check_fields(schedule, "schedule", _number,
                      ("p", "eta", "ball_radius"))
        _check_fields(schedule, "schedule", _integer, ("k0", "ko"))
        # a manual schedule may leave epsilon null: it is then derived
        if mode == "theoretical" or schedule.get("epsilon") is not None:
            _check_fields(schedule, "schedule", _number, ("epsilon",))

        algorithm = raw.get("algorithm", "ball-sgd")
        if algorithm not in ALGORITHMS:
            raise ConfigError("algorithm", f"must be one of {ALGORITHMS}")
        budget_mode = raw.get("budget_mode", "theorem")
        if budget_mode not in BUDGET_MODES:
            raise ConfigError("budget_mode", f"must be one of {BUDGET_MODES}")
        max_steps = raw.get("max_steps")
        if max_steps is not None:
            _integer(max_steps, "max_steps", 1)
        output_dir = raw.get("output_dir")
        if output_dir is not None and \
                (not isinstance(output_dir, str) or not output_dir):
            raise ConfigError("output_dir",
                              "must be a non-empty string or null")

        return cls(objective=objective, noise=noise, schedule=schedule,
                   algorithm=algorithm,
                   n_seeds=_integer(raw.get("n_seeds", 1), "n_seeds", 1),
                   base_seed=_integer(raw.get("base_seed", 0), "base_seed"),
                   budget_mode=budget_mode,
                   output_dir=output_dir, max_steps=max_steps)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError("", f"invalid JSON: {exc}") from exc
        return cls.from_dict(raw)

    def to_dict(self) -> dict:
        return {"objective": self.objective, "noise": self.noise,
                "schedule": self.schedule, "algorithm": self.algorithm,
                "n_seeds": self.n_seeds, "base_seed": self.base_seed,
                "budget_mode": self.budget_mode,
                "output_dir": self.output_dir, "max_steps": self.max_steps}


def build_objective(spec: dict) -> Objective:
    kind = spec["kind"]
    sigma = float(spec.get("sigma", 1.0))
    if kind == "quartic":
        return make_quartic_saddle(int(spec["dim"]), sigma)
    if kind == "quadratic":
        return make_quadratic(np.asarray(spec["H"], dtype=float),
                              np.asarray(spec["b"], dtype=float), sigma)
    return make_matrix_factorization(np.asarray(spec["M"], dtype=float),
                                     int(spec["rank"]), sigma)


def build_noise(spec: dict, dim: int) -> NoiseSampler:
    return NoiseSampler(spec["kind"], float(spec.get("sigma", 1.0)), dim,
                        truncate=spec.get("truncate", False))


def resolve_schedule(config: ExperimentConfig,
                     objective: Objective) -> Schedule:
    spec = config.schedule
    if spec["mode"] == "theoretical":
        return derive_schedule(objective.constants, float(spec["epsilon"]),
                               float(spec["p"]))
    return manual_schedule(objective.constants, float(spec["eta"]),
                           float(spec["ball_radius"]), int(spec["k0"]),
                           int(spec["ko"]), spec.get("epsilon"),
                           float(spec.get("p", 0.1)))


def _run_seeds(config: ExperimentConfig, objective: Objective,
               schedule: Schedule, seed):
    """The configured run of an int seed (a RunResult), or of a sequence of
    seeds in one batch (a RunBatch)."""
    noise = build_noise(config.noise, objective.dim)
    runner = (run_ball_sgd if config.algorithm == "ball-sgd"
              else run_noise_scheduled_sgd)
    return runner(objective, noise, schedule, np.zeros(objective.dim), seed,
                  budget_mode=config.budget_mode,
                  max_steps=config.max_steps)


def _episode_rows(results, threshold: float) -> list:
    rows = []
    for result in results:
        for e in result.trace.episodes:
            drop = e.f_anchor - e.f_end
            rows.append({"seed": result.seed, "episode": e.index,
                         "start_step": e.start_step, "length": e.length,
                         "f_anchor": e.f_anchor, "f_exit": e.f_end,
                         "f_drop": drop, "threshold": threshold,
                         "pass": (not e.exited) or drop >= threshold})
    return rows


def _write_json(path: str, payload) -> None:
    """Strict JSON: non-finite numbers are written as null."""
    with open(path, "w", newline="\n") as fh:
        json.dump(_json_safe(payload), fh, sort_keys=True, indent=2,
                  allow_nan=False)
        fh.write("\n")


def _write_csv(path: str, columns, rows) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(row[c]) for c in columns) + "\n")


@dataclass
class RunArtifacts:
    directory: str
    schedule: Schedule
    results: list
    summary: dict


def summarize(config: ExperimentConfig, schedule: Schedule,
              objective: Objective, results) -> dict:
    converged = [r for r in results if r.terminated == CONVERGED]
    threshold = descent_threshold(schedule)
    rows = _episode_rows(results, threshold)
    descent_fractions = [episode_descent_report(r).pass_fraction
                         for r in results]

    certificates = []
    for r in converged:
        cert = certify(objective, r.trace.output, schedule, seed=r.seed)
        certificates.append({"seed": r.seed, **cert.to_dict()})

    # the output location is not part of the experiment content, so it is
    # excluded from the summary to keep reruns byte-comparable across dirs
    embedded = {**config.to_dict(), "output_dir": None}
    return {
        "config": embedded,
        "n_seeds": config.n_seeds,
        "convergence_fraction": len(converged) / len(results),
        "total_steps": [r.trace.total_steps for r in results],
        "sg_cost": [r.trace.sg_cost for r in results],
        "exits": [r.trace.exits for r in results],
        "descent_threshold": threshold,
        "descent_pass_fraction": descent_fractions,
        "episodes": rows,
        "certificates": certificates,
    }


def run_config(config: ExperimentConfig,
               out_dir: str | None = None) -> RunArtifacts:
    """Execute the configured experiment across seeds and write artifacts.

    Reruns with identical config and seeds produce byte-identical files.
    """
    directory = out_dir or config.output_dir
    if directory is None:
        raise ConfigError("output_dir", "no output directory given")
    os.makedirs(directory, exist_ok=True)

    objective = build_objective(config.objective)
    schedule = resolve_schedule(config, objective)
    seeds = [config.base_seed + i for i in range(config.n_seeds)]
    results = _run_seeds(config, objective, schedule, seeds).results
    summary = summarize(config, schedule, objective, results)

    with open(os.path.join(directory, "schedule.json"), "w",
              newline="\n") as fh:
        fh.write(schedule.to_json() + "\n")
    for i, result in enumerate(results):
        _write_json(os.path.join(directory, f"run_{i:03d}.json"),
                    result.to_dict())
    _write_csv(os.path.join(directory, "episodes.csv"), _EPISODE_COLUMNS,
               summary["episodes"])
    _write_json(os.path.join(directory, "summary.json"), summary)
    return RunArtifacts(directory=directory, schedule=schedule,
                        results=results, summary=summary)


_SWEEP_COLUMNS = ("epsilon", "skipped", "eta", "ball_radius", "k0", "ko",
                  "t0", "convergence_fraction", "mean_sg_cost",
                  "mean_grad_norm", "mean_lambda_min", "log10_inv_epsilon",
                  "log10_mean_sg_cost")


@dataclass
class SweepResult:
    rows: list

    def to_dict(self) -> dict:
        return {"rows": self.rows}


def sweep_epsilon(config: ExperimentConfig, epsilon_list, n_seeds: int,
                  out_dir: str | None = None) -> SweepResult:
    """Derive, run, and certify one experiment per accuracy target.

    Rows come out sorted by epsilon descending; infeasible targets are
    marked skipped and do not disturb the rest.  Writes sweep.csv and
    sweep.json when a directory is given.
    """
    objective = build_objective(config.objective)
    rows = []
    for epsilon in sorted(set(float(e) for e in epsilon_list), reverse=True):
        row = {c: math.nan for c in _SWEEP_COLUMNS}
        row["epsilon"] = epsilon
        row["skipped"] = False
        spec = {"mode": "theoretical", "epsilon": epsilon,
                "p": config.schedule.get("p", 0.1)}
        sub = ExperimentConfig.from_dict(
            {**config.to_dict(), "schedule": spec, "n_seeds": n_seeds})
        try:
            schedule = resolve_schedule(sub, objective)
        except InfeasibleSchedule:
            row["skipped"] = True
            rows.append(row)
            continue

        seeds = [sub.base_seed + i for i in range(n_seeds)]
        results = _run_seeds(sub, objective, schedule, seeds).results
        summary = summarize(sub, schedule, objective, results)
        converged = [r for r in results if r.terminated == CONVERGED]
        costs = [r.trace.sg_cost for r in converged]
        certs = summary["certificates"]
        row.update({
            "eta": schedule.eta, "ball_radius": schedule.ball_radius,
            "k0": schedule.k0, "ko": schedule.ko, "t0": schedule.t0,
            "convergence_fraction": summary["convergence_fraction"],
            "mean_sg_cost": float(np.mean(costs)) if costs else math.nan,
            "mean_grad_norm": (float(np.mean([c["grad_norm"] for c in certs]))
                               if certs else math.nan),
            "mean_lambda_min": (float(np.mean([c["lambda_min"]
                                               for c in certs]))
                                if certs else math.nan),
            "log10_inv_epsilon": math.log10(1.0 / epsilon),
        })
        if costs and np.mean(costs) > 0:
            row["log10_mean_sg_cost"] = math.log10(float(np.mean(costs)))
        rows.append(row)

    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        _write_csv(os.path.join(out_dir, "sweep.csv"), _SWEEP_COLUMNS, rows)
        _write_json(os.path.join(out_dir, "sweep.json"), {"rows": rows})
    return SweepResult(rows=rows)

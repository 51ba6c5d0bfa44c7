"""Experiment orchestration: strict JSON configs and multi-seed runs with
deterministic artifacts.

Artifact layout for one run_config call, in the config's output_dir (all
files deterministic given the config, no timestamps):

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
from collections import namedtuple
from dataclasses import asdict, dataclass
from json.encoder import encode_basestring_ascii
from typing import NamedTuple

import numpy as np

from .certify import certify
from .errors import ConfigError, InvalidArgument, NonSymmetric
from .hyperparams import Schedule, derive_schedule, manual_schedule
from .noise import KINDS, NoiseSampler
from .optimizer import (ALGORITHMS, BUDGET_MODES, CONVERGED,
                        descent_pass_fraction, descent_threshold,
                        run_ball_sgd)
from .problems import MatrixFactorization, Objective, Quadratic, QuarticSaddle

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


def _numbers(value, field: str) -> tuple:
    """The shape of a (nested) JSON array, whose every entry must be a
    finite number and whose every level must have one length."""
    if not isinstance(value, list):
        _number(value, field)
        return ()
    shapes = {_numbers(item, field) for item in value}
    if len(shapes) > 1:
        raise ConfigError(field, "must be a rectangular array, not ragged")
    return (len(value), *shapes.pop()) if shapes else (0,)


def _flag(value, field: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(field, "must be true or false")
    return value


def _reject_unknown(mapping: dict, allowed, path: str):
    for key in mapping:
        if key not in allowed:
            raise ConfigError(f"{path}.{key}" if path else key,
                              "unknown field")


def _sigma(spec: dict) -> float:
    return float(spec.get("sigma", 1.0))


# One objective kind, noise kind or schedule mode: the check of each field
# it accepts, the fields it requires and its builder.
_Variant = namedtuple("_Variant", "fields required build")

# section -> (the field that selects its variant, the variants by name)
_SECTIONS = {
    "objective": ("kind", {
        "quartic": _Variant(
            {"dim": _integer, "sigma": _number}, ("dim",),
            lambda spec: QuarticSaddle(spec["dim"], _sigma(spec))),
        "quadratic": _Variant(
            {"H": _numbers, "b": _numbers, "sigma": _number}, ("H", "b"),
            lambda spec: Quadratic(spec["H"], spec["b"], _sigma(spec))),
        "matrix-factorization": _Variant(
            {"M": _numbers, "rank": _integer, "sigma": _number},
            ("M", "rank"), lambda spec: MatrixFactorization(
                spec["M"], spec["rank"], _sigma(spec))),
    }),
    "noise": ("kind", dict.fromkeys(KINDS, _Variant(
        {"sigma": _number, "truncate": _flag}, (),
        lambda spec, dim: NoiseSampler(spec["kind"], _sigma(spec), dim,
                                       truncate=spec.get("truncate", False))))),
    "schedule": ("mode", {
        "theoretical": _Variant(
            {"epsilon": _number, "p": _number}, ("epsilon", "p"),
            lambda spec, constants: derive_schedule(
                constants, float(spec["epsilon"]), float(spec["p"]))),
        "manual": _Variant(
            {"eta": _number, "ball_radius": _number, "k0": _integer,
             "ko": _integer, "p": _number, "epsilon": _number},
            ("eta", "ball_radius", "k0", "ko", "epsilon"),
            lambda spec, constants: manual_schedule(
                constants, float(spec["eta"]), float(spec["ball_radius"]),
                spec["k0"], spec["ko"], spec["epsilon"],
                float(spec.get("p", 0.1)))),
    }),
}


def _checked_section(raw: dict, section: str) -> dict:
    """The section of raw, with every field its variant accepts checked."""
    spec = _require(raw, section, "")
    if not isinstance(spec, dict):
        raise ConfigError(section, "must be an object")
    selector, variants = _SECTIONS[section]
    name = _require(spec, selector, section)
    variant = variants.get(name) if isinstance(name, str) else None
    if variant is None:
        raise ConfigError(f"{section}.{selector}",
                          f"unknown {selector} {name!r}")
    _reject_unknown(spec, {selector, *variant.fields}, section)
    for key in variant.required:
        _require(spec, key, section)
    for key, check in variant.fields.items():
        if key in spec:
            check(spec[key], f"{section}.{key}")
    return spec


def _build(section: str, spec: dict, *context):
    """Build a checked section; a precondition the build violates is a
    ConfigError naming the section."""
    selector, variants = _SECTIONS[section]
    try:
        return variants[spec[selector]].build(spec, *context)
    except (InvalidArgument, NonSymmetric) as exc:
        raise ConfigError(section, str(exc)) from exc


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
            raise ConfigError("config", "must be a JSON object")
        _reject_unknown(raw, {*_SECTIONS, "algorithm", "n_seeds",
                              "base_seed", "budget_mode", "output_dir",
                              "max_steps", "threads"}, "")
        # "threads" survives only so that old configs still load
        if "threads" in raw and (type(raw["threads"]) is not int
                                 or raw["threads"] != 1):
            raise ConfigError("threads", "a config's seeds run as one "
                              "in-process batch; only 1 is accepted")
        sections = {name: _checked_section(raw, name) for name in _SECTIONS}

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

        return cls(**sections, algorithm=algorithm,
                   n_seeds=_integer(raw.get("n_seeds", 1), "n_seeds", 1),
                   base_seed=_integer(raw.get("base_seed", 0), "base_seed"),
                   budget_mode=budget_mode,
                   output_dir=output_dir, max_steps=max_steps)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError("config", f"invalid JSON: {exc}") from exc
        return cls.from_dict(raw)

    def to_dict(self) -> dict:
        return asdict(self)


def build_objective(spec: dict) -> Objective:
    return _build("objective", spec)


def build_noise(spec: dict, dim: int) -> NoiseSampler:
    return _build("noise", spec, dim)


def resolve_schedule(config: ExperimentConfig,
                     objective: Objective) -> Schedule:
    return _build("schedule", config.schedule, objective.constants)


class Experiment(NamedTuple):
    """A config with its objective, noise and schedule built."""

    config: ExperimentConfig
    objective: Objective
    noise: NoiseSampler
    schedule: Schedule


def build_experiment(config: ExperimentConfig) -> Experiment:
    """Build every section of config; a section that cannot be built is a
    ConfigError naming it (an infeasible theoretical schedule stays an
    InfeasibleSchedule)."""
    objective = build_objective(config.objective)
    return Experiment(config, objective,
                      build_noise(config.noise, objective.dim),
                      resolve_schedule(config, objective))


def _built(config: ExperimentConfig | Experiment) -> Experiment:
    return config if isinstance(config, Experiment) \
        else build_experiment(config)


def _run_seeds(experiment: Experiment, seed, max_episodes=None,
               store_iterates: bool = False):
    """The configured run of an int seed (a RunResult), or of a sequence of
    seeds in one batch (a RunBatch), from the origin."""
    config, objective, noise, schedule = experiment
    return run_ball_sgd(objective, noise, schedule, np.zeros(objective.dim),
                        seed, algorithm=config.algorithm,
                        budget_mode=config.budget_mode,
                        max_episodes=max_episodes, max_steps=config.max_steps,
                        store_iterates=store_iterates)


def _episode_rows(results, threshold: float) -> list:
    rows = []
    for result in results:
        for e in result.trace.episodes:
            drop = e.f_anchor - e.f_end
            rows.append({"seed": result.seed, "episode": e.index,
                         "start_step": e.start_step, "length": e.length,
                         "f_anchor": e.f_anchor, "f_exit": e.f_end,
                         "f_drop": drop, "threshold": threshold,
                         "pass": (not e.exited) or e.descended(threshold)})
    return rows


_NON_FINITE = frozenset(("nan", "inf", "-inf"))


def _json_text(value, indent: str = "\n") -> str:
    """The JSON text of value, as _write_json states it; ``indent`` is the
    line break before a line at value's depth.  A list of floats takes one
    map of float.__repr__, where the stdlib encoder, which indent=2 always
    makes the pure-Python one, takes a generator step per float."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        return float.__repr__(value) if math.isfinite(value) else "null"
    inner = indent + "  "
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        if set(map(type, value)) == {float}:
            items = list(map(float.__repr__, value))
            if not _NON_FINITE.isdisjoint(items):
                items = ["null" if item in _NON_FINITE else item
                         for item in items]
        else:
            items = [_json_text(item, inner) for item in value]
        return "[" + inner + ("," + inner).join(items) + indent + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = []
        for key, item in sorted(value.items()):
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not "
                                f"{type(key).__name__}")
            items.append(encode_basestring_ascii(key) + ": "
                         + _json_text(item, inner))
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON "
                    f"serializable")


def _write_json(path: str, payload) -> None:
    """Write payload as strict JSON, non-finite numbers as null: exactly
    the bytes of ``json.dump(_json_safe(payload), sort_keys=True,
    indent=2, allow_nan=False)`` and a final newline.  Keys must be str;
    a value of any type the stdlib encoder cannot write (a numpy array, a
    numpy integer) raises TypeError before the file is opened."""
    text = _json_text(payload)
    with open(path, "w", newline="\n") as fh:
        fh.write(text + "\n")


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


def summarize(experiment: Experiment, results) -> dict:
    config, objective, _, schedule = experiment
    converged = [r for r in results if r.terminated == CONVERGED]
    threshold = descent_threshold(schedule)
    rows = _episode_rows(results, threshold)
    descent_fractions = [descent_pass_fraction(r) for r in results]

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


def run_config(config: ExperimentConfig | Experiment) -> RunArtifacts:
    """Execute the configured experiment across seeds and write artifacts
    to its output_dir.

    A config is built first; every section is built before any step runs.
    Reruns with identical config and seeds produce byte-identical files.
    """
    experiment = _built(config)
    config, schedule = experiment.config, experiment.schedule
    directory = config.output_dir
    if directory is None:
        raise ConfigError("output_dir", "no output directory given")
    os.makedirs(directory, exist_ok=True)

    seeds = range(config.base_seed, config.base_seed + config.n_seeds)
    results = _run_seeds(experiment, seeds).results
    summary = summarize(experiment, results)

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

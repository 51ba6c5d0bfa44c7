"""Command-line front-end.

Exit codes: 0 when every asserted check passes, 1 when a check fails or a
numerical failure occurs, 2 on configuration errors.  Statistical bounds
are asserted only under theoretical schedules; with a manual schedule the
commands report the frequencies and still exit 0 (the bounds are not
claimed there).
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import __version__
from .certify import certify, dense_hessian
from .diagnostics import (coupled_escape_trial, escape_frequency,
                          quadratic_model_run)
from .errors import ConfigError
from .concentration import bernstein_tail_experiment, pinelis_tail_experiment
from .hyperparams import _json_safe
from .harness import (ExperimentConfig, _run_seeds, build_noise,
                      build_objective, resolve_schedule, run_config,
                      sweep_epsilon)
from .noise import (NarrowSet, dispersive_width, estimate_set_probability,
                    hoeffding_half_width)
from .optimizer import CONVERGED, run_ball_sgd

_EXIT_OK = 0
_EXIT_CHECK_FAILED = 1
_EXIT_CONFIG_ERROR = 2


def _load_config(args) -> ExperimentConfig:
    if not args.config:
        raise ConfigError("", "--config is required for this command")
    with open(args.config) as fh:
        config = ExperimentConfig.from_json(fh.read())
    if args.seed is not None:
        config.base_seed = args.seed
    if args.out is not None:
        config.output_dir = args.out
    return config


def _emit(payload: dict) -> None:
    print(json.dumps(_json_safe(payload), sort_keys=True, allow_nan=False))


def _frequency_payload(n, frequency, ci, bound, asserted) -> dict:
    ok = (not asserted) or frequency <= bound + ci
    return {"n": n, "frequency": frequency, "ci": ci, "bound": bound,
            "pass": ok}


def _parse_numbers(text: str, flag: str, expected: str) -> np.ndarray:
    """The comma-separated numbers of a flag's value; a bad entry is a
    ConfigError naming the flag."""
    try:
        return np.array([float(v) for v in text.split(",")])
    except ValueError:
        raise ConfigError(flag, f"{expected}, got {text!r}") from None


def _parse_point(text: str, dim: int) -> np.ndarray:
    expected = f"expected {dim} comma-separated numbers"
    x = _parse_numbers(text, "--at", expected)
    if x.shape != (dim,):
        raise ConfigError("--at", f"{expected}, got {x.size}")
    return x


def _cmd_params(args) -> int:
    config = _load_config(args)
    objective = build_objective(config.objective)
    schedule = resolve_schedule(config, objective)
    print(schedule.as_table())
    return _EXIT_OK


def _cmd_run(args) -> int:
    config = _load_config(args)
    artifacts = run_config(config)
    _emit({"directory": artifacts.directory,
           "convergence_fraction": artifacts.summary["convergence_fraction"]})
    return _EXIT_OK


def _cmd_sweep(args) -> int:
    config = _load_config(args)
    epsilons = _parse_numbers(args.epsilons, "--epsilons",
                              "expected comma-separated numbers")
    result = sweep_epsilon(config, epsilons, args.n_seeds,
                           out_dir=config.output_dir)
    _emit(result.to_dict())
    return _EXIT_OK


def _cmd_certify(args) -> int:
    config = _load_config(args)
    objective = build_objective(config.objective)
    schedule = resolve_schedule(config, objective)
    if args.at is not None:
        x = _parse_point(args.at, objective.dim)
    else:
        # the same run, and so the same point, as seed base_seed of `run`
        result = _run_seeds(config, objective, schedule, config.base_seed)
        if result.terminated != CONVERGED:
            _emit({"error": "run did not converge", "pass": False})
            return _EXIT_CHECK_FAILED
        x = result.trace.output
    cert = certify(objective, x, schedule, seed=config.base_seed)
    _emit({**cert.to_dict(), "pass": cert.passed})
    return _EXIT_OK if cert.passed else _EXIT_CHECK_FAILED


def _cmd_noise_check(args) -> int:
    config = _load_config(args)
    objective = build_objective(config.objective)
    sampler = build_noise(config.noise, objective.dim)
    direction = np.zeros(objective.dim)
    direction[0] = 1.0
    slab = NarrowSet.centered(direction,
                              dispersive_width(sampler.sigma, sampler.dim))
    estimate = estimate_set_probability(sampler, slab, args.samples,
                                        config.base_seed)
    ok = estimate.estimate <= 0.25 + estimate.half_width
    _emit({"estimate": estimate.estimate, "ci": estimate.half_width,
           "bound": 0.25, "pass": ok})
    return _EXIT_OK if ok else _EXIT_CHECK_FAILED


def _cmd_coupled_escape(args) -> int:
    config = _load_config(args)
    objective = build_objective(config.objective)
    noise = build_noise(config.noise, objective.dim)
    schedule = resolve_schedule(config, objective)
    x0 = np.zeros(objective.dim)
    direction = np.linalg.eigh(dense_hessian(objective, x0))[1][:, 0]
    q0 = noise.sigma * schedule.eta / (4.0 * math.sqrt(objective.dim))
    seeds = [config.base_seed + i for i in range(args.n_seeds)]
    stuck = sum(outcome.both_stuck for outcome in coupled_escape_trial(
        objective, noise, schedule, x0, q0, direction, seeds))
    ci = hoeffding_half_width(args.n_seeds)
    payload = _frequency_payload(args.n_seeds, stuck / args.n_seeds, ci, 0.1,
                                 schedule.theoretical)
    _emit(payload)
    return _EXIT_OK if payload["pass"] else _EXIT_CHECK_FAILED


def _cmd_escape_freq(args) -> int:
    config = _load_config(args)
    objective = build_objective(config.objective)
    noise = build_noise(config.noise, objective.dim)
    schedule = resolve_schedule(config, objective)
    report = escape_frequency(objective, noise, schedule,
                              np.zeros(objective.dim), args.n_seeds,
                              base_seed=config.base_seed)
    bound = 1.0 - schedule.p / 3.0
    ok = (not schedule.theoretical) or \
        report.frequency >= bound - report.half_width
    _emit({"n": report.n, "frequency": report.frequency,
           "ci": report.half_width, "bound": bound, "pass": ok})
    return _EXIT_OK if ok else _EXIT_CHECK_FAILED


def _cmd_zbound(args) -> int:
    config = _load_config(args)
    objective = build_objective(config.objective)
    noise = build_noise(config.noise, objective.dim)
    schedule = resolve_schedule(config, objective)
    x0 = np.zeros(objective.dim)
    batch = run_ball_sgd(objective, noise, schedule, x0,
                         [config.base_seed + i for i in range(args.n_seeds)],
                         budget_mode="theorem", max_episodes=1,
                         max_steps=config.max_steps, store_iterates=True)
    held = sum(quadratic_model_run(objective, x0, result).z_bound_ok
               for result in batch.results)
    ci = hoeffding_half_width(args.n_seeds)
    bound = 1.0 - schedule.p / 6.0
    frequency = held / args.n_seeds
    ok = (not schedule.theoretical) or frequency >= bound - ci
    _emit({"n": args.n_seeds, "frequency": frequency, "ci": ci,
           "bound": bound, "pass": ok})
    return _EXIT_OK if ok else _EXIT_CHECK_FAILED


def _cmd_concentration(args) -> int:
    if args.experiment == "pinelis":
        lambdas = _parse_numbers(args.lambdas, "--lambdas",
                                 "expected comma-separated numbers")
        report = pinelis_tail_experiment(args.dim, args.steps,
                                         args.step_bound, lambdas,
                                         args.trials, args.seed or 0)
    else:
        report = bernstein_tail_experiment(args.steps, args.step_bound,
                                           args.variance, args.delta,
                                           args.trials, args.seed or 0)
    _emit(report.to_dict())
    return _EXIT_OK if report.passed else _EXIT_CHECK_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ballsgd",
        description="Saddle-escaping SGD experiments and checks")
    parser.add_argument("--version", action="version", version=__version__)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="path to a JSON experiment config")
    common.add_argument("--seed", type=int, help="override base_seed")
    common.add_argument("--out", help="override the output directory")

    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("params", parents=[common],
                   help="print the resolved schedule").set_defaults(
        func=_cmd_params)
    sub.add_parser("run", parents=[common],
                   help="execute the configured experiment").set_defaults(
        func=_cmd_run)

    p = sub.add_parser("sweep", parents=[common],
                       help="run an accuracy sweep")
    p.add_argument("--epsilons", required=True,
                   help="comma-separated accuracy targets")
    p.add_argument("--n-seeds", type=int, default=1)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("certify", parents=[common],
                       help="certify approximate second-order stationarity")
    p.add_argument("--at", help="comma-separated point; default: run "
                   "output.  Write a point with a leading minus sign as "
                   "--at=-0.1,0.2")
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("noise-check", parents=[common],
                       help="estimate critical-slab mass of the noise")
    p.add_argument("--samples", type=int, default=100_000)
    p.set_defaults(func=_cmd_noise_check)

    p = sub.add_parser("coupled-escape", parents=[common],
                       help="both-stuck frequency of coupled trajectories")
    p.add_argument("--n-seeds", type=int, default=200)
    p.set_defaults(func=_cmd_coupled_escape)

    p = sub.add_parser("escape-freq", parents=[common],
                       help="first-episode escape frequency from a saddle")
    p.add_argument("--n-seeds", type=int, default=200)
    p.set_defaults(func=_cmd_escape_freq)

    p = sub.add_parser("zbound", parents=[common],
                       help="difference-iterate bound frequency")
    p.add_argument("--n-seeds", type=int, default=100)
    p.set_defaults(func=_cmd_zbound)

    p = sub.add_parser("concentration", parents=[common],
                       help="martingale tail experiments")
    p.add_argument("--experiment", choices=("pinelis", "bernstein"),
                   required=True)
    p.add_argument("--dim", type=int, default=5)
    p.add_argument("--steps", type=int, default=64)
    p.add_argument("--step-bound", type=float, default=1.0)
    p.add_argument("--lambdas", default="32")
    p.add_argument("--variance", type=float, default=0.09)
    p.add_argument("--delta", type=float, default=0.01)
    p.add_argument("--trials", type=int, default=100_000)
    p.set_defaults(func=_cmd_concentration)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "n_seeds", 1) < 1:
            raise ConfigError("--n-seeds", "must be at least 1")
        return args.func(args)
    except np.linalg.LinAlgError as exc:
        # a ValueError subclass, but a numerical failure, not a bad config
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_CHECK_FAILED
    except (ValueError, FileNotFoundError) as exc:
        # ConfigError, InfeasibleSchedule, InvalidArgument and friends all
        # indicate a bad experiment description, not a failed check
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_CONFIG_ERROR
    except (RuntimeError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())

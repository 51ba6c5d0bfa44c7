"""Command-line front-end.  Each command accepts only the flags it reads.

Exit codes: 0 when every asserted check passes, 1 when a check fails or a
numerical failure occurs, 2 on configuration errors.  ``escape-freq``,
``coupled-escape``, ``zbound`` and ``noise-check`` each print the verdict
of one claim of ``ballsgd.claims``, which holds its bound, direction and
assertion rule.  ``concentration`` and ``certify`` are judged whatever the
schedule.
"""

from __future__ import annotations

import argparse
import re
import sys

import numpy as np

from . import __version__, claims
from .certify import certify
from .errors import ConfigError
from .concentration import bernstein_tail_experiment, pinelis_tail_experiment
from .hyperparams import _json_line
from .harness import (Experiment, ExperimentConfig, _run_seeds,
                      build_experiment, run_config)
from .noise import MIN_TRIALS
from .optimizer import CONVERGED

_EXIT_OK = 0
_EXIT_CHECK_FAILED = 1
_EXIT_CONFIG_ERROR = 2

# the least value of each count flag, by dest and flag
_COUNT_FLAGS = (("n_seeds", "--n-seeds", 1),
                ("samples", "--samples", MIN_TRIALS),
                ("trials", "--trials", MIN_TRIALS))
# concentration flags read by one experiment, dest -> (experiment, default);
# the parser leaves them out when not given, to catch the other's flags
_EXPERIMENT_FLAGS = {"dim": ("pinelis", 5), "lambdas": ("pinelis", "32"),
                     "variance": ("bernstein", 0.09),
                     "delta": ("bernstein", 0.01)}


def _experiment(args) -> Experiment:
    """Load the config, apply --seed and --out, and build the experiment."""
    if not args.config:
        raise ConfigError("--config", "required for this command")
    if args.out == "":
        raise ConfigError("--out", "must be a non-empty directory name")
    with open(args.config) as fh:
        config = ExperimentConfig.from_json(fh.read())
    if args.seed is not None:
        config.base_seed = args.seed
    if args.out is not None:
        config.output_dir = args.out
    return build_experiment(config)


def _verdict(payload: dict) -> int:
    """Print payload as one line of strict JSON; the exit code is 1 when it
    reports a failed check."""
    print(_json_line(payload))
    return _EXIT_OK if payload.get("pass", True) else _EXIT_CHECK_FAILED


def _parse_numbers(text: str, flag: str, expected: str,
                   valid=None) -> np.ndarray:
    """The comma-separated numbers of a flag's value; an entry that is not a
    number, or that fails valid, is a ConfigError naming the flag."""
    try:
        x = np.array([float(v) for v in text.split(",")])
    except ValueError:
        x = None
    if x is None or (valid is not None and not valid(x).all()):
        raise ConfigError(flag, f"{expected}, got {text!r}")
    return x


def _parse_point(text: str, dim: int) -> np.ndarray:
    expected = f"expected {dim} comma-separated numbers"
    x = _parse_numbers(text, "--at", expected)
    if x.shape != (dim,):
        raise ConfigError("--at", f"{expected}, got {x.size}")
    return x


def _cmd_params(args) -> int:
    print(_experiment(args).schedule.as_table())
    return _EXIT_OK


def _cmd_run(args) -> int:
    artifacts = run_config(_experiment(args))
    return _verdict({
        "directory": artifacts.directory,
        "convergence_fraction": artifacts.summary["convergence_fraction"]})


def _cmd_certify(args) -> int:
    experiment = _experiment(args)
    config, objective, _, schedule = experiment
    if args.at is not None:
        x = _parse_point(args.at, objective.dim)
    else:
        # the same run, and so the same point, as seed base_seed of `run`
        result = _run_seeds(experiment, config.base_seed)
        if result.terminated != CONVERGED:
            return _verdict({"error": "run did not converge", "pass": False})
        x = result.trace.output
    cert = certify(objective, x, schedule, seed=config.base_seed)
    return _verdict({**cert.to_dict(), "pass": cert.passed})


def _cmd_noise_check(args) -> int:
    verdict = claims.dispersive(_experiment(args), args.samples)
    return _verdict({"estimate": verdict.measured.frequency,
                     "ci": verdict.measured.half_width,
                     "bound": verdict.bound, "asserted": verdict.asserted,
                     "pass": verdict.passed})


def _cmd_claim(args) -> int:
    return _verdict(args.claim(_experiment(args), args.n_seeds).to_dict())


def _cmd_concentration(args) -> int:
    for dest, (experiment, default) in _EXPERIMENT_FLAGS.items():
        if dest not in args:
            setattr(args, dest, default)
        elif experiment != args.experiment:
            raise ConfigError(f"--{dest}",
                              f"applies to --experiment {experiment} only")
    if args.experiment == "pinelis":
        lambdas = _parse_numbers(
            args.lambdas, "--lambdas",
            "expected comma-separated finite numbers >= 0",
            lambda x: np.isfinite(x) & (x >= 0))
        report = pinelis_tail_experiment(args.dim, args.steps,
                                         args.step_bound, lambdas,
                                         args.trials, args.seed or 0)
    else:
        report = bernstein_tail_experiment(args.steps, args.step_bound,
                                           args.variance, args.delta,
                                           args.trials, args.seed or 0)
    return _verdict(report.to_dict())


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ballsgd",
        description="Saddle-escaping SGD experiments and checks")
    parser.add_argument("--version", action="version", version=__version__)
    config = argparse.ArgumentParser(add_help=False)
    config.add_argument("--config", help="path to a JSON experiment config")
    seed = argparse.ArgumentParser(add_help=False)
    seed.add_argument("--seed", type=int, help="override base_seed")
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", help="override the output directory")

    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help_text, parents=(config, seed)):
        # a flag the command does not accept reads as not given
        p = sub.add_parser(name, parents=parents, help=help_text)
        p.set_defaults(func=func, seed=None, out=None)
        return p

    command("params", _cmd_params, "print the resolved schedule", [config])
    command("run", _cmd_run, "execute the configured experiment",
            [config, seed, out])

    p = command("certify", _cmd_certify,
                "certify approximate second-order stationarity")
    p.add_argument("--at", help="comma-separated point; default: run "
                   "output")

    p = command("noise-check", _cmd_noise_check,
                "estimate critical-slab mass of the noise")
    p.add_argument("--samples", type=int, default=100_000)

    # the escape-claim commands: name, claim, default --n-seeds and help
    # text; the claims are looked up here, when the parser is built
    for name, claim, n_seeds, help_text in (
            ("coupled-escape", claims.paired_escape, 200,
             "both-stuck frequency of coupled trajectories"),
            ("escape-freq", claims.escape, 200,
             "first-episode escape frequency from a saddle"),
            ("zbound", claims.difference_iterate, 100,
             "difference-iterate bound frequency")):
        p = command(name, _cmd_claim, help_text)
        p.set_defaults(claim=claim)
        p.add_argument("--n-seeds", type=int, default=n_seeds)

    p = command("concentration", _cmd_concentration,
                "martingale tail experiments", [seed])
    p.add_argument("--experiment", choices=("pinelis", "bernstein"),
                   required=True)
    p.add_argument("--steps", type=int, default=64)
    p.add_argument("--step-bound", type=float, default=1.0)
    p.add_argument("--trials", type=int, default=100_000)
    for dest, (_, v) in _EXPERIMENT_FLAGS.items():
        p.add_argument(f"--{dest}", type=type(v), default=argparse.SUPPRESS)
    return parser


def main(argv=None) -> int:
    # argparse takes the value of --at -0.1,0.2 for an option: attach it
    argv = list(sys.argv[1:] if argv is None else argv)
    for i in range(len(argv) - 1, 0, -1):
        if argv[i - 1] == "--at" and re.match(r"-[\d.]", argv[i]):
            argv[i - 1:i + 1] = [f"--at={argv[i]}"]
    args = build_parser().parse_args(argv)
    try:
        for dest, flag, least in _COUNT_FLAGS:
            if getattr(args, dest, least) < least:
                raise ConfigError(flag, f"must be at least {least}")
        return args.func(args)
    except np.linalg.LinAlgError as exc:
        # a ValueError subclass, but a numerical failure, not a bad config
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_CHECK_FAILED
    except (ValueError, OSError) as exc:
        # ConfigError, InfeasibleSchedule and InvalidArgument, and a config
        # or output path that cannot be read or written, all indicate a
        # bad experiment description, not a failed check
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_CONFIG_ERROR
    except (RuntimeError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())

"""One set-up measurement: a fresh interpreter up to the first command of a
workload being ready to run.

Usage: python3 setup_probe.py <src-dir> <ballsgd command line...>

Imports ballsgd from <src-dir>, parses the command line, loads and
validates its config, and builds the objective, the noise and the schedule.
Then it prints "ready" and exits; the parent times the interval from
starting this process to reading that line.
"""

import sys

sys.path.insert(0, sys.argv[1])

from ballsgd.cli import build_parser  # noqa: E402
from ballsgd.harness import (ExperimentConfig, build_noise,  # noqa: E402
                             build_objective, resolve_schedule)

args = build_parser().parse_args(sys.argv[2:])
with open(args.config) as fh:
    config = ExperimentConfig.from_json(fh.read())
objective = build_objective(config.objective)
noise = build_noise(config.noise, objective.dim)
schedule = resolve_schedule(config, objective)
print("ready", flush=True)

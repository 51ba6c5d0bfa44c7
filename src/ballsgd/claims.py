"""The paper's claims that the program checks, one function each: it takes
an ``Experiment`` and a trial count n and returns a ``Verdict``.

The three escape claims run the seeds base_seed, ..., base_seed + n - 1 of
the configured ``algorithm`` from the origin.  Their bounds are asserted
only under theoretical schedules: under a manual one they report the
frequency and pass.  Before any step runs, an objective above the dense
Hessian limit is a ConfigError naming ``objective``, and a ``max_steps``
below the steps the claim runs (k0, or ko for the paired escape) one naming
``max_steps``.  ``dispersive`` is asserted whatever the schedule.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .certify import _DENSE_DIM_LIMIT, dense_hessian
from .diagnostics import (coupled_escape_trial, escape_frequency,
                          quadratic_model_run)
from .errors import ConfigError
from .harness import Experiment, _run_seeds
from .hyperparams import coupling_offset
from .noise import (Frequency, NarrowSet, dispersive_width,
                    estimate_set_probability)


@dataclass(frozen=True)
class Verdict:
    """``measured`` against ``bound``, from below when ``at_least``."""

    measured: Frequency
    bound: float
    at_least: bool
    asserted: bool

    @property
    def holds(self) -> bool:
        return self.measured.holds(self.bound, self.at_least)

    @property
    def passed(self) -> bool:
        return self.holds or not self.asserted

    def to_dict(self) -> dict:
        return {"n": self.measured.n, "frequency": self.measured.frequency,
                "ci": self.measured.half_width, "bound": self.bound,
                "pass": self.passed}


def _saddle_start(experiment: Experiment, n: int, name: str):
    """The seeds and origin of an escape claim of schedule.<name> steps."""
    config, objective, _, schedule = experiment
    steps = getattr(schedule, name)
    if objective.dim > _DENSE_DIM_LIMIT:
        raise ConfigError("objective", f"dim {objective.dim} is above the "
                          f"dense Hessian limit {_DENSE_DIM_LIMIT}")
    if config.max_steps is not None and config.max_steps < steps:
        raise ConfigError("max_steps", f"{config.max_steps} is below "
                          f"{name} = {steps:g}, the steps this check runs")
    return (range(config.base_seed, config.base_seed + n),
            np.zeros(objective.dim))


def escape(experiment: Experiment, n: int) -> Verdict:
    """A first episode leaves the B-ball within k0 steps w.p. >= 1 - p/3."""
    config, objective, noise, schedule = experiment
    seeds, x0 = _saddle_start(experiment, n, "k0")
    return Verdict(escape_frequency(objective, noise, schedule, x0, seeds,
                                    algorithm=config.algorithm),
                   1.0 - schedule.p / 3.0, True, schedule.theoretical)


def paired_escape(experiment: Experiment, n: int) -> Verdict:
    """Two trajectories on one noise stream, q0 apart along the most
    negative curvature direction, both stay in the B-ball for ko steps
    with probability at most 0.1.  q0 scales with the noise that drives
    the algorithm; noise-scheduled draws its injection at the problem's
    declared sigma."""
    config, objective, noise, schedule = experiment
    seeds, x0 = _saddle_start(experiment, n, "ko")
    direction = np.linalg.eigh(dense_hessian(objective, x0))[1][:, 0]
    sigma = (noise.sigma if config.algorithm == "ball-sgd"
             else objective.constants.sigma)
    q0 = coupling_offset(sigma, schedule.eta, objective.dim)
    stuck = sum(outcome.both_stuck for outcome in coupled_escape_trial(
        objective, noise, schedule, x0, q0, direction, seeds,
        algorithm=config.algorithm))
    return Verdict(Frequency(stuck, n), 0.1, False, schedule.theoretical)


def difference_iterate(experiment: Experiment, n: int) -> Verdict:
    """In the first episode of a seed's configured run, the difference
    iterate stays within 3B/32 with probability at least 1 - p/6."""
    seeds, x0 = _saddle_start(experiment, n, "k0")
    batch = _run_seeds(experiment, seeds, max_episodes=1,
                       store_iterates=True)
    held = sum(trace.z_bound_ok for trace in
               quadratic_model_run(experiment.objective, x0, batch.results))
    return Verdict(Frequency(held, n), 1.0 - experiment.schedule.p / 6.0,
                   True, experiment.schedule.theoretical)


def dispersive(experiment: Experiment, n: int) -> Verdict:
    """A noise row falls in the slab of width dispersive_width centred
    across the first axis with probability at most 1/4 (n rows)."""
    config, _, sampler, _ = experiment
    direction = np.zeros(sampler.dim)
    direction[0] = 1.0
    slab = NarrowSet.centered(direction,
                              dispersive_width(sampler.sigma, sampler.dim))
    return Verdict(estimate_set_probability(sampler, slab, n,
                                            config.base_seed),
                   0.25, False, True)

"""Ball-controlled SGD and its noise-scheduled variant.

A run is a sequence of episodes.  Each episode starts from an anchor and
takes plain SGD steps; the episode ends either when the iterate leaves the
radius-B ball around the anchor (an exit: re-anchor and start over) or when
k0 in-ball steps complete (converged: output the average of those k0
iterates).  The noise-scheduled variant additionally injects a scaled
Gaussian into the stochastic gradient whenever the in-episode step index is
a multiple of ko, which removes the need for the base noise itself to be
dispersive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, asdict

import numpy as np

from .errors import InvalidArgument, NonFinite
from .hyperparams import Schedule
from .noise import NoiseSampler
from .problems import Objective
from .rng import Rng

_NOISE_BLOCK = 512
_DEFAULT_MAX_EPISODES = 100_000

CONVERGED = "converged"
BUDGET_EXHAUSTED = "budget_exhausted"


@dataclass
class EpisodeRecord:
    index: int
    start_step: int
    anchor: np.ndarray
    length: int
    f_anchor: float
    f_end: float
    exited: bool
    iterates: list | None = None
    noises: list | None = None

    def summary(self) -> dict:
        return {"index": self.index, "start_step": self.start_step,
                "anchor": [float(v) for v in self.anchor],
                "length": self.length,
                "f_anchor": self.f_anchor, "f_end": self.f_end,
                "exited": self.exited}


@dataclass
class RunTrace:
    episodes: list = field(default_factory=list)
    exits: int = 0
    total_steps: int = 0
    injections: int = 0
    k0_reached: bool = False
    output: np.ndarray | None = None

    @property
    def sg_cost(self) -> int:
        # one stochastic gradient per step, injected steps included
        return self.total_steps


@dataclass
class RunResult:
    trace: RunTrace
    terminated: str
    schedule: Schedule
    seed: int

    def to_dict(self) -> dict:
        t = self.trace
        return {
            "seed": self.seed,
            "terminated": self.terminated,
            "schedule": asdict(self.schedule),
            "trace": {
                "exits": t.exits,
                "total_steps": t.total_steps,
                "sg_cost": t.sg_cost,
                "injections": t.injections,
                "k0_reached": t.k0_reached,
                "output": None if t.output is None
                else [float(v) for v in t.output],
                "episodes": [e.summary() for e in t.episodes],
            },
        }


class _NoiseFeed:
    """Buffered draws from a sampler; zero-cost when sigma == 0."""

    def __init__(self, sampler: NoiseSampler):
        self.sampler = sampler
        self.zero = sampler.sigma == 0.0
        self._zeros = np.zeros(sampler.dim)
        self._buffer = None
        self._pos = 0

    def next(self) -> np.ndarray:
        if self.zero:
            return self._zeros
        if self._buffer is None or self._pos >= len(self._buffer):
            self._buffer = self.sampler.sample_block(_NOISE_BLOCK)
            self._pos = 0
        row = self._buffer[self._pos]
        self._pos += 1
        return row


@dataclass
class _Injection:
    """Scaled-Gaussian injection on every in-episode step index divisible
    by ``every``, drawn from its own stream."""
    every: int
    scale: float
    rng: Rng
    count: int = 0


@dataclass
class _Episode:
    x: np.ndarray       # last iterate
    steps: int
    exited: bool
    total: np.ndarray   # sum of the iterates before the last step
    iterates: list | None
    noises: list | None


def _episode(obj: Objective, feed: _NoiseFeed, eta: float, ball: float,
             anchor: np.ndarray, x: np.ndarray, limit: int,
             injection: _Injection | None = None,
             store: bool = False) -> _Episode:
    """The control loop: SGD steps from x until the iterate leaves the
    radius-``ball`` ball around ``anchor`` or ``limit`` steps complete."""
    total = x.copy()
    iterates = [x.copy()] if store else None
    noises = [] if store else None
    for k in range(limit):
        xi = feed.next()
        if injection is not None and k % injection.every == 0:
            xi = xi + injection.scale * injection.rng.normals(obj.dim)
            injection.count += 1
        x = x - eta * (obj.gradient(x) + xi)
        if not np.all(np.isfinite(x)):
            raise NonFinite(f"iterate became non-finite at episode step "
                            f"{k + 1}")
        if store:
            noises.append(xi.copy())
            iterates.append(x.copy())
        if np.linalg.norm(x - anchor) > ball:
            return _Episode(x, k + 1, True, total, iterates, noises)
        if k + 1 < limit:
            total += x
    return _Episode(x, limit, False, total, iterates, noises)


def _run(obj: Objective, noise: NoiseSampler, schedule: Schedule,
         x_init, seed: int, budget_mode: str, max_episodes, max_steps,
         store_iterates: bool, inject_every: int | None) -> RunResult:
    if budget_mode not in ("theorem", "unlimited-episodes"):
        raise InvalidArgument("budget_mode must be 'theorem' or "
                              "'unlimited-episodes'")
    if noise.dim != obj.dim:
        raise InvalidArgument("noise dimension must match the objective")
    k0 = schedule.k0
    step_cap = schedule.t0 if budget_mode == "theorem" else None
    if max_steps is not None:
        step_cap = max_steps if step_cap is None else min(step_cap, max_steps)
    episode_cap = max_episodes
    if budget_mode == "unlimited-episodes" and episode_cap is None:
        episode_cap = _DEFAULT_MAX_EPISODES

    feed = _NoiseFeed(noise.reseeded(seed))
    # the injected Gaussian is scaled by the declared sigma of the problem,
    # not the base sampler's: injection must work with zero base noise
    injection = (_Injection(inject_every,
                            obj.constants.sigma / math.sqrt(obj.dim),
                            Rng(seed ^ 0x6A09E667F3BCC908))
                 if inject_every else None)

    trace = RunTrace()
    x = np.array(x_init, dtype=float)
    t = 0
    while True:
        anchor = x.copy()
        f_anchor = obj.value(anchor)
        limit = k0 if step_cap is None else min(k0, step_cap - t)
        ep = _episode(obj, feed, schedule.eta, schedule.ball_radius, anchor,
                      x, limit, injection, store_iterates)
        x = ep.x
        trace.episodes.append(EpisodeRecord(
            index=len(trace.episodes), start_step=t, anchor=anchor,
            length=ep.steps, f_anchor=f_anchor, f_end=obj.value(x),
            exited=ep.exited, iterates=ep.iterates, noises=ep.noises))
        t += ep.steps
        if not ep.exited:
            break
        trace.exits += 1
        if episode_cap is not None and trace.exits >= episode_cap:
            break

    if not ep.exited and ep.steps == k0:
        trace.k0_reached = True
        trace.output = ep.total / k0
        terminated = CONVERGED
    else:
        terminated = BUDGET_EXHAUSTED
    trace.total_steps = t
    trace.injections = injection.count if injection else 0
    return RunResult(trace=trace, terminated=terminated,
                     schedule=schedule, seed=seed)


def run_ball_sgd(obj: Objective, noise: NoiseSampler, schedule: Schedule,
                 x_init, seed: int, budget_mode: str = "theorem",
                 max_episodes=None, max_steps=None,
                 store_iterates: bool = False) -> RunResult:
    """Ball-controlled SGD (plain steps, dispersive base noise)."""
    return _run(obj, noise, schedule, x_init, seed, budget_mode,
                max_episodes, max_steps, store_iterates, inject_every=None)


def run_noise_scheduled_sgd(obj: Objective, noise: NoiseSampler,
                            schedule: Schedule, x_init, seed: int,
                            budget_mode: str = "theorem",
                            max_episodes=None, max_steps=None,
                            store_iterates: bool = False) -> RunResult:
    """Ball-controlled SGD with scaled-Gaussian injection on every
    in-episode step index divisible by ko."""
    if schedule.ko < 1:
        raise InvalidArgument("schedule.ko must be a positive integer")
    return _run(obj, noise, schedule, x_init, seed, budget_mode,
                max_episodes, max_steps, store_iterates,
                inject_every=schedule.ko)


@dataclass(frozen=True)
class EpisodeDescent:
    index: int
    f_drop: float
    threshold: float
    passed: bool


@dataclass(frozen=True)
class EpisodeDescentReport:
    entries: tuple
    threshold: float
    pass_fraction: float


def descent_threshold(schedule: Schedule) -> float:
    """Required per-exit function drop B^2 / (7 eta k0)."""
    return schedule.ball_radius ** 2 / (7.0 * schedule.eta * schedule.k0)


def episode_descent_report(result: RunResult) -> EpisodeDescentReport:
    """Per-exit-episode check that f dropped by at least the threshold.

    A run with no exits passes vacuously with fraction 1.0.
    """
    threshold = descent_threshold(result.schedule)
    entries = []
    for e in result.trace.episodes:
        if not e.exited:
            continue
        drop = e.f_anchor - e.f_end
        entries.append(EpisodeDescent(index=e.index, f_drop=drop,
                                      threshold=threshold,
                                      passed=drop >= threshold))
    fraction = (sum(1 for e in entries if e.passed) / len(entries)
                if entries else 1.0)
    return EpisodeDescentReport(entries=tuple(entries), threshold=threshold,
                                pass_fraction=fraction)

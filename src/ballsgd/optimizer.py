"""Ball-controlled SGD and its noise-scheduled variant.

A run is a sequence of episodes.  Each episode starts from an anchor and
takes plain SGD steps; the episode ends either when the iterate leaves the
radius-B ball around the anchor (an exit: re-anchor and start over) or when
k0 in-ball steps complete (converged: output the average of those k0
iterates).  The noise-scheduled variant additionally injects a scaled
Gaussian into the stochastic gradient whenever the in-episode step index is
a multiple of ko, which removes the need for the base noise itself to be
dispersive.  ``run_ball_sgd`` runs either, named by its ``algorithm``.

One control loop, ``_Batch``, reads the schedule, checks every run
precondition and steps every trajectory: the runs of many seeds advance in
lockstep as the rows of one (m, d) block, and the escape diagnostics use
the same loop.  No row depends on another, so a seed's result is the same
alone and inside any batch.

A run's per-exit descent check is one number, ``descent_pass_fraction``.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field, asdict

import numpy as np

from .errors import InvalidArgument, NonFinite
from .hyperparams import Schedule
from . import noise as _noise
from .noise import NoiseSampler
from .problems import Objective

# One noise refill holds at most _NOISE_ROWS steps, and reads at most
# noise._CHUNK_WORDS stream words across the batch (at least one step).
_NOISE_ROWS = 512
# Step counts kept in int64 are capped here: a theoretical schedule's k0 or
# ko can exceed int64, and no run reaches 2^62 steps.
_FAR = 2 ** 62
_DEFAULT_MAX_EPISODES = 100_000
# a run of seed s reads injection n from row n of stream s ^ _INJECTION_KEY
_INJECTION_KEY = 0x6A09E667F3BCC908

CONVERGED = "converged"
BUDGET_EXHAUSTED = "budget_exhausted"

ALGORITHMS = ("ball-sgd", "noise-scheduled")
BUDGET_MODES = ("theorem", "unlimited-episodes")


@dataclass
class EpisodeRecord:
    """One episode of a run.  With iterate storage on, ``iterates`` is the
    (length + 1, d) array of the start point and every step's iterate."""
    index: int
    start_step: int
    anchor: np.ndarray
    length: int
    f_anchor: float
    f_end: float
    exited: bool
    iterates: np.ndarray | None = None

    def descended(self, threshold: float) -> bool:
        """The per-exit descent rule f_anchor - f_end >= threshold."""
        return self.f_anchor - self.f_end >= threshold

    def summary(self) -> dict:
        return {"index": self.index, "start_step": self.start_step,
                "anchor": self.anchor.tolist(),
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
    schedule: Schedule
    seed: int

    @property
    def terminated(self) -> str:
        return CONVERGED if self.trace.k0_reached else BUDGET_EXHAUSTED

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
                "output": None if t.output is None else t.output.tolist(),
                "episodes": [e.summary() for e in t.episodes],
            },
        }


@dataclass
class RunBatch:
    """The runs of a seed sequence: ``results`` in seed order, and
    ``trace`` with the batch totals (steps, exits, injections, and every
    episode in seed order; ``k0_reached`` when every run converged)."""
    results: list
    trace: RunTrace


class _Batch:
    """The control loop: trajectories of ``algorithm`` under ``schedule``,
    with episodes of at most k0 steps, stepped in lockstep, one per row.

    Row i runs from ``starts[i]`` on the noise of ``seeds[i]``, which is
    addressed by seed and step (see ``ballsgd.rng``), so no generator is
    kept: one ``NoiseSampler.rows`` call draws every row's next steps at
    its own address, into buffers reused from refill to refill, and one
    more draws the injections due at a step.  Each row keeps its anchor and
    f there, the first and the limit step of its episode, the running sum
    of the episode's iterates, its injection count and next injection step.
    Live row i writes ``traces[slot[i]]``.  A row that exits re-anchors in
    place; a row that finishes is written out and compacted away.
    ``anchor`` is the one point every row's first episode is anchored at.
    """

    def __init__(self, obj: Objective, noise: NoiseSampler,
                 schedule: Schedule, algorithm: str, seeds, starts, k0: int,
                 anchor, step_cap=None, episode_cap=None, store=False):
        if algorithm not in ALGORITHMS:
            raise InvalidArgument(f"algorithm must be one of {ALGORITHMS}")
        if noise.dim != obj.dim:
            raise InvalidArgument("noise dimension must match the objective")
        self.x = np.array(starts, dtype=float)
        if self.x.shape != (len(seeds), obj.dim):
            raise InvalidArgument("start point dimension must match the "
                                  "objective")
        self.inject_every = None
        if algorithm == "noise-scheduled":
            if schedule.ko < 1:
                raise InvalidArgument("schedule.ko must be a positive integer")
            self.inject_every = min(schedule.ko, _FAR)
        self.obj = obj
        self.eta = schedule.eta
        self.ball = schedule.ball_radius
        self.k0 = k0
        self.step_cap = step_cap
        self.episode_cap = episode_cap
        self.store = store
        m, self.dim = self.x.shape
        # one point: a start point the caller gave as (1, d) anchors as (d,)
        self.anchor_point = np.asarray(anchor, dtype=float).reshape(self.dim)
        self.anchor = np.tile(self.anchor_point, (m, 1))
        self.total = self.x.copy()
        self.start = np.zeros(m, dtype=np.int64)
        self.end = np.zeros(m, dtype=np.int64)
        self.inject_at = np.zeros(m, dtype=np.int64)
        self.slot = np.arange(m)
        self.traces = [RunTrace() for _ in range(m)]
        self.seeds = np.array([s % 2 ** 64 for s in seeds], dtype=np.uint64)
        self.injected = np.zeros(m, dtype=np.int64)
        self.sampler = noise
        # the injected Gaussian is scaled by the declared sigma of the
        # problem, not the base sampler's: injection must work with zero
        # base noise
        self.injection = NoiseSampler("scaled-gaussian",
                                      obj.constants.sigma, self.dim)
        if store:
            self.iterates = np.empty((m, min(k0, 1023) + 1, self.dim))
        self.work = {}     # the buffers of every refill
        self.noise = None  # (r, m, d): the noise of the next r steps
        self.pos = 0       # the next step's row of self.noise
        self.t = 0

    def run(self) -> list:
        """Step every row to its end; one RunTrace per row, in row order.
        An overflow shows as a non-finite iterate, which raises NonFinite,
        so numpy's floating-point warnings are off: all of them, because
        numpy then skips its status check after every operation, which a
        partial errstate makes each step pay."""
        with np.errstate(all="ignore"):
            self.f_anchor = np.full(len(self.slot),
                                    self.obj.value(self.anchor_point))
            self._retire([i for i in range(len(self.slot))
                          if not self._begin(i)])
            ball2 = self.ball ** 2
            while len(self.slot):
                if self.noise is None or self.pos == len(self.noise):
                    self.noise = self._draw_noise()
                    self.pos = 0
                xi = self.noise[self.pos]
                self.pos += 1
                if self.t == self.next_inject:
                    self._inject(xi)
                # x - eta (grad + xi), in place: the same operations in the
                # same order; every other holder of self.x takes a copy
                x = self.x
                g = self.obj.gradient(x)
                g += xi
                g *= self.eta
                x -= g
                self.t += 1
                if self.store:
                    self._keep(x)
                d = x - self.anchor
                dist2 = np.add.reduce(d * d, axis=1)
                inside = dist2.max() <= ball2
                if not inside and not np.all(np.isfinite(x)):
                    row = np.flatnonzero(~np.isfinite(x).all(axis=1))[0]
                    raise NonFinite(f"iterate became non-finite at episode "
                                    f"step {self.t - self.start[row]}")
                if inside and self.t != self.next_end:
                    self.total += x
                    continue
                exited = dist2 > ball2
                ended = exited | (self.end == self.t)
                stays = ~ended
                self.total[stays] += x[stays]
                self._retire([i for i in np.flatnonzero(ended).tolist()
                              if not self._end(i, bool(exited[i]))])
        return self.traces

    def _draw_noise(self) -> np.ndarray:
        m = len(self.slot)
        w = self.sampler.words_per_row
        r = min(_NOISE_ROWS, max(1, _noise._CHUNK_WORDS // (m * w)))
        if self.sampler.sigma == 0.0:
            return np.zeros((r, m, self.dim))
        return self.sampler.rows(self.seeds, self.t * w, r,
                                 self.work).swapaxes(0, 1)

    def _inject(self, xi: np.ndarray) -> None:
        due = np.flatnonzero(self.inject_at == self.t)
        # drawn without self.work, whose buffers hold xi
        xi[due] += self.injection.rows(
            self.seeds[due] ^ _INJECTION_KEY,
            self.injected[due] * self.injection.words_per_row, 1)[:, 0]
        self.injected[due] += 1
        self.inject_at[due] += self.inject_every
        self.next_inject = int(self.inject_at.min())

    def _keep(self, x: np.ndarray) -> None:
        k = self.t - self.start
        old = self.iterates
        if k.max() >= old.shape[1]:
            width = min(2 * old.shape[1], self.k0 + 1)
            self.iterates = np.empty((old.shape[0], width, self.dim))
            self.iterates[:, :old.shape[1]] = old
        self.iterates[self.slot, k] = x

    def _begin(self, i: int) -> bool:
        """Start row i's next episode at step t from its anchor; False when
        the step budget leaves it no step (a length-0 final episode)."""
        t = self.t
        self.total[i] = self.x[i]
        limit = (self.k0 if self.step_cap is None
                 else min(self.k0, self.step_cap - t))
        self.start[i] = t
        self.end[i] = t + min(limit, _FAR)
        self.inject_at[i] = t
        if self.store:
            self.iterates[self.slot[i], 0] = self.x[i]
        return limit > 0 or self._end(i, False)

    def _end(self, i: int, exited: bool) -> bool:
        """Write out row i's episode ending at step t; True when the row
        re-anchors and goes on."""
        trace = self.traces[self.slot[i]]
        start = int(self.start[i])
        length = self.t - start
        f_end = self.obj.value(self.x[i])
        trace.episodes.append(EpisodeRecord(
            index=len(trace.episodes), start_step=start,
            anchor=self.anchor[i].copy(), length=length,
            f_anchor=float(self.f_anchor[i]), f_end=f_end, exited=exited,
            iterates=(self.iterates[self.slot[i], :length + 1].copy()
                      if self.store else None)))
        if exited:
            trace.exits += 1
            if self.episode_cap is None or trace.exits < self.episode_cap:
                self.anchor[i] = self.x[i]
                self.f_anchor[i] = f_end
                return self._begin(i)
        elif length == self.k0:
            trace.k0_reached = True
            trace.output = self.total[i] / self.k0
        trace.total_steps = self.t
        trace.injections = int(self.injected[i])
        return False

    def _retire(self, done: list) -> None:
        """Compact finished rows away and refresh the next event steps."""
        if done:
            keep = np.ones(len(self.slot), dtype=bool)
            keep[done] = False
            for name in ("x", "anchor", "f_anchor", "total", "start", "end",
                         "inject_at", "injected", "seeds", "slot"):
                setattr(self, name, getattr(self, name)[keep])
            if self.noise is not None:
                self.noise = self.noise[self.pos:, keep]
                self.pos = 0
        if len(self.slot):
            self.next_end = int(self.end.min())
            self.next_inject = (int(self.inject_at.min()) if self.inject_every
                                else -1)


def _seed_list(seed) -> tuple:
    """(seeds, single): an int seed as a list of one, or a sequence's
    seeds; an empty sequence is an InvalidArgument."""
    if isinstance(seed, numbers.Integral):
        return [int(seed)], True
    seeds = [int(s) for s in seed]
    if not seeds:
        raise InvalidArgument("seed sequence must not be empty")
    return seeds, False


def run_ball_sgd(obj: Objective, noise: NoiseSampler, schedule: Schedule,
                 x_init, seed, algorithm: str = "ball-sgd",
                 budget_mode: str = "theorem", max_episodes=None,
                 max_steps=None, store_iterates: bool = False):
    """Ball-controlled SGD: plain steps under dispersive base noise for
    ``algorithm="ball-sgd"``; ``"noise-scheduled"`` also injects a scaled
    Gaussian on every in-episode step index divisible by ko.

    An int ``seed`` returns its RunResult; a sequence of seeds runs them
    all from ``x_init`` in one batch and returns a RunBatch.  The caps
    ``max_episodes`` and ``max_steps``, when given, are ints >= 1.

    ``budget_mode="theorem"`` stops a run after T0 = t1 * k0 steps
    (``schedule.t0``), or earlier at ``max_steps``.
    ``"unlimited-episodes"`` sets no step cap of its own (``max_steps``
    still applies), but stops a run at its 100,000th exit
    (``_DEFAULT_MAX_EPISODES``) unless ``max_episodes`` is given.  A run
    stopped by a cap ends ``budget_exhausted``.
    """
    if budget_mode not in BUDGET_MODES:
        raise InvalidArgument(f"budget_mode must be one of {BUDGET_MODES}")
    for name, cap in (("max_episodes", max_episodes),
                      ("max_steps", max_steps)):
        # bool is an int subclass, but true is not a count
        if cap is not None and (isinstance(cap, bool) or
                                not isinstance(cap, int) or cap < 1):
            raise InvalidArgument(f"{name} must be an integer >= 1")
    step_cap = schedule.t0 if budget_mode == "theorem" else None
    if max_steps is not None:
        step_cap = max_steps if step_cap is None else min(step_cap, max_steps)
    episode_cap = max_episodes
    if budget_mode == "unlimited-episodes" and episode_cap is None:
        episode_cap = _DEFAULT_MAX_EPISODES

    seeds, single = _seed_list(seed)
    x_init = np.array(x_init, dtype=float)
    starts = np.tile(x_init, (len(seeds), 1))
    traces = _Batch(obj, noise, schedule, algorithm, seeds, starts,
                    schedule.k0, x_init, step_cap, episode_cap,
                    store_iterates).run()
    results = [RunResult(trace=trace, schedule=schedule, seed=s)
               for s, trace in zip(seeds, traces)]
    if single:
        return results[0]
    return RunBatch(results=results, trace=RunTrace(
        episodes=[e for t in traces for e in t.episodes],
        exits=sum(t.exits for t in traces),
        total_steps=sum(t.total_steps for t in traces),
        injections=sum(t.injections for t in traces),
        k0_reached=all(t.k0_reached for t in traces)))


def descent_threshold(schedule: Schedule) -> float:
    """Required per-exit function drop B^2 / (7 eta k0)."""
    return schedule.ball_radius ** 2 / (7.0 * schedule.eta * schedule.k0)


def descent_pass_fraction(result: RunResult) -> float:
    """The share of the run's exit episodes whose f dropped by at least
    descent_threshold; a run with no exits passes vacuously with 1.0."""
    threshold = descent_threshold(result.schedule)
    passed = [e.descended(threshold) for e in result.trace.episodes
              if e.exited]
    return sum(passed) / len(passed) if passed else 1.0

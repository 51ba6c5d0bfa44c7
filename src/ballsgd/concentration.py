"""Monte-Carlo tail experiments for two martingale concentration bounds.

Both experiments simulate representative hard-case martingales and judge
each empirical tail ``Frequency`` against its theoretical bound.  These
are falsification tests for the probabilistic machinery, not proofs: the
bounds quantify over all generators, so we test extremal-ish families
(uniform-sphere increments for the vector bound, symmetric two-point
scalars for the scalar Bernstein bound).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgument
from .noise import MIN_TRIALS, Frequency, NoiseSampler, _trial_counts
from .rng import _buffer, _uniforms, random_words


@dataclass(frozen=True)
class TailReport:
    """Per-threshold empirical tail frequencies against theoretical bounds:
    one ``Frequency`` of the trials past each threshold."""

    lambda_grid: tuple
    tails: tuple
    bound: tuple
    seed: int

    @property
    def empirical_tail(self) -> tuple:
        return tuple(t.frequency for t in self.tails)

    @property
    def n_trials(self) -> int:
        return self.tails[0].n

    @property
    def half_width(self) -> float:
        return self.tails[0].half_width

    @property
    def passed(self) -> bool:
        return all(t.holds(b) for t, b in zip(self.tails, self.bound))

    def to_dict(self) -> dict:
        return {"lambda_grid": list(self.lambda_grid),
                "empirical_tail": list(self.empirical_tail),
                "bound": list(self.bound),
                "n_trials": self.n_trials,
                "seed": self.seed,
                "half_width": self.half_width,
                "pass": self.passed}


def pinelis_tail_experiment(dim: int, K: int, step_bound: float,
                            lambda_grid, n_trials: int,
                            seed: int = 0) -> TailReport:
    """Tail of the norm of a sum of K independent uniform-sphere vectors of
    norm step_bound in R^dim, against the dimension-free bound
    4 exp(-lambda^2 / (4 K step_bound^2))."""
    if n_trials < MIN_TRIALS:
        raise InvalidArgument("n_trials must be at least 10^4")
    if dim < 1 or K < 1 or not 0.0 < step_bound < math.inf:
        raise InvalidArgument("need dim >= 1, K >= 1 and a finite "
                              "step_bound > 0")
    grid = tuple(sorted(float(v) for v in lambda_grid))
    if not grid or not all(math.isfinite(lam) and lam >= 0 for lam in grid):
        raise InvalidArgument("need one or more finite lambdas >= 0")
    sampler = NoiseSampler("uniform-sphere", step_bound, dim)
    variance_sum = 4.0 * K * step_bound ** 2

    def count(seed, start, n, work):
        # n is sized so that the chunk's steps, one double per stream word
        # at most, fit in noise._CHUNK_WORDS; the norms are np.linalg.norm's
        # operations on the trial sums, done in place
        steps = sampler.rows(seed, start, n * K, work).reshape(n, K, dim)
        sums = steps.sum(axis=1)
        norms = np.add.reduce(np.multiply(sums, sums, out=sums), axis=1)
        np.sqrt(norms, out=norms)
        return np.array([np.count_nonzero(norms >= lam) for lam in grid])

    counts = _trial_counts(n_trials, K * sampler.words_per_row, seed, count)
    bound = tuple(4.0 * math.exp(-lam ** 2 / variance_sum) for lam in grid)
    return TailReport(lambda_grid=grid,
                      tails=tuple(Frequency(int(c), n_trials) for c in counts),
                      bound=bound, seed=seed)


def bernstein_threshold(K: int, step_bound: float, variance: float,
                        delta: float) -> float:
    """Deviation threshold 2 max(2 sqrt(K variance),
    step_bound sqrt(log(1/delta))) sqrt(log(1/delta))."""
    root = math.sqrt(math.log(1.0 / delta))
    return 2.0 * max(2.0 * math.sqrt(K * variance), step_bound * root) * root


def bernstein_tail_experiment(K: int, step_bound: float, variance: float,
                              delta: float, n_trials: int,
                              seed: int = 0) -> TailReport:
    """Tail of a scalar bounded martingale sum past the Bernstein-type
    threshold, against the bound log(K) * delta.

    Increments are symmetric two-point: +-step_bound each with probability
    variance / (2 step_bound^2), zero otherwise, matching the declared
    (step_bound, variance) pair exactly.
    """
    if K < 4:
        raise InvalidArgument("K must be at least 4")
    if not 0.0 < delta < 1.0 / math.e:
        raise InvalidArgument("delta must lie in (0, 1/e)")
    if n_trials < MIN_TRIALS:
        raise InvalidArgument("n_trials must be at least 10^4")
    if not 0.0 < step_bound < math.inf or \
            not 0.0 <= variance <= step_bound ** 2:
        raise InvalidArgument("need 0 <= variance <= step_bound^2 and a "
                              "finite step_bound > 0")
    q = variance / step_bound ** 2
    threshold = bernstein_threshold(K, step_bound, variance, delta)

    def count(seed, start, n, work):
        u = _uniforms(random_words(seed, start, n * K, work)).reshape(n, K)
        # step_bound where u <= q / 2, -step_bound where q / 2 < u <= q,
        # else 0, written into a reused buffer
        steps = _buffer(work, "steps", (n, K))
        steps.fill(0.0)
        np.copyto(steps, -step_bound, where=u <= q)
        np.copyto(steps, step_bound, where=u <= q / 2.0)
        return int(np.count_nonzero(steps.sum(axis=1) > threshold))

    exceed = _trial_counts(n_trials, K, seed, count)
    return TailReport(lambda_grid=(threshold,),
                      tails=(Frequency(exceed, n_trials),),
                      bound=(math.log(K) * delta,), seed=seed)

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

from . import noise as _noise
from .errors import InvalidArgument
from .noise import (MIN_TRIALS, Frequency, NoiseSampler, _norms,
                    _trial_counts)
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


# Largest K * step_bound accepted.  A K-step sum's squared norm then stays
# near 2^1000 at most, far below the largest double (about 2^1024), and a
# lambda at or past 2^511, whose square nears the largest double, has
# lambda^2 / (4 K step_bound^2) >= 2^20 K, where the Pinelis bound
# underflows to 0.0.
_MAX_SUM_NORM = 2.0 ** 500

# Most stream words one trial may read, 128 MiB as uint64 or float64: a
# chunk holds one trial at least, and its words are drawn as one block.
_MAX_TRIAL_WORDS = 2 ** 24


def _check_step_bound(K: int, step_bound: float):
    if not 0.0 < step_bound < math.inf or K * step_bound > _MAX_SUM_NORM:
        raise InvalidArgument("need a finite step_bound > 0 with "
                              "K * step_bound <= 2^500, so that the norm of "
                              "a K-step sum stays finite")


def _check_trial_words(words: int):
    if words > _MAX_TRIAL_WORDS:
        raise InvalidArgument(f"a trial would read {words} stream words; "
                              f"need at most 2^24")


def _head_length(dim: int, K: int, step_bound: float,
                 lam_min: float) -> int:
    """The smallest j in 0..K with (K - j) step_bound + c step_bound
    sqrt(j) < lam_min, c = 1 + 1/sqrt(dim), or K when no j qualifies.
    The scan's J + 1 tests are few beside the 10^4 J rows drawn after."""
    c = 1.0 + 1.0 / math.sqrt(dim)
    return next((j for j in range(K + 1) if (K - j) * step_bound
                 + c * step_bound * math.sqrt(j) < lam_min), K)


def pinelis_tail_experiment(dim: int, K: int, step_bound: float,
                            lambda_grid, n_trials: int,
                            seed: int = 0) -> TailReport:
    """Tail of the norm of a sum of K independent uniform-sphere vectors of
    norm step_bound = b in R^dim, against the dimension-free bound
    4 exp(-lambda^2 / (4 K b^2)).  The counts are those of drawing every
    row of every trial and summing it.

    A trial that cannot reach the smallest lambda is decided early.  Let J
    be the smallest j with (K - j) b + (1 + 1/sqrt(dim)) b sqrt(j) <
    lambda_min, or K when no j qualifies: ||S_j|| has mean about b sqrt(j)
    and spread about b sqrt(j / (2 dim)), so few trials pass that.  As
    ||S_K|| <= ||S_J|| + (K - J) b, a trial with ||S_J|| < cut =
    lambda_min (1 - margin) - (K - J) b is below every lambda.  For
    0 < J < K, a screen bounds ||S_J|| without the float64 cos and sin of
    the exact rows, which cost about 10 times numpy's float32 ones (18 and
    1.7 ns a pair on a 2-core x86-64 VM): ``NoiseSampler._screen``
    makes each trial's first J rows from their stream words with float32
    trig, and a bound on each row's distance to the exact row.  A trial is
    closed when its screened ||S_J||, plus its rows' bounds, plus
    J (dim + J + K) 2^-50 b, is below cut.  Each other trial draws its K
    exact rows at the same words, and its K-row sum is taken as one
    (n, K, dim) block.  At J = K no row is screened: every trial draws its
    K exact rows, whose norms decide.  Once lambda_min (1 - margin) > K b,
    J = 0 and no trial draws a word.  Trial i reads K rows from stream
    word i K w, w being the rows' ``words_per_row``; a chunk holds the
    trials whose first J rows fit in ``noise._CHUNK_WORDS`` words (K rows
    when J = 0), and the open trials draw in groups whose K rows fit in
    it; K w may not pass 2^24.

    margin = (dim + K^2) 2^-48 is more than 4 times what rounding can move
    the computed norms: a relative (3 dim + 9) 2^-53 from the row norms
    and the two norm computations, and an absolute 2 K^2 2^-53 b from the
    two K-row sums, which is below 2 K^1.5 2^-53 lambda_min because
    lambda_min > sqrt(K) b whenever J < K: then lambda_min > (K - J) b +
    sqrt(J) b, the factor 1 + 1/sqrt(dim) being at least 1, and (K - j) +
    sqrt(j) >= sqrt(K) for every j in 0..K.

    The screen's bound.  A row's exact normals z and screened normals z'
    share the radii r_i and the angle uniforms v_i.  The exact cosine
    normal is fl(r_i c), c being ``rng._cos_sin_2pi``'s cosine, within
    2^-52 of cos(2 pi v_i) (a test pins this; 1.26 x 2^-53 is measured);
    the screened one is fl(r_i c'), c' being numpy's float32 cos of
    theta_i = fl(2 pi v_i) rounded to float32.  theta_i is within 2^-50 of
    2 pi v_i, the rounding to float32 moves it by at most 2^-22 on
    [0, 2 pi], float32 cos is within ``noise._TRIG32_ERROR`` = 2^-16 of
    cos at the rounded angle (a test pins this), and each product rounds
    by at most 2^-53 r_i; the same holds for the sines.  So each component
    of z' - z is at most e r_i, e = 2^-22 + 2^-16 + 2^-50 + 2^-52 +
    2^-52 < 2^-22 + 2^-16 + 2^-49 < 1.6e-5, and
    ||z' - z|| <= e rho, rho^2 being the sum of r_i^2 over the components
    that r_i feeds.  The rows are b z/||z|| and b z'/||z'||, and
    ||x/||x|| - y/||y|||| <= min(2, 2 ||x - y|| / ||y||), so they are
    within b min(2, 2 e rho / ||z'||).  The bound uses
    ``noise._SCREEN_ERROR`` = 2^-15 for e, whose room covers the rounding
    of rho, ||z'|| and the quotient.  Normalizing moves each computed row
    by at most a relative (dim / 2 + 4) 2^-53, which the row bound's
    (dim + 7) 2^-52 b covers for both rows.  At odd dim the last pair's
    sine is dropped, so ||z'|| may be far below rho, and the bound is
    per row: at dim = 1 a row is +-b, and it flips sign where c and c'
    differ in sign near theta = pi/2 or 3 pi/2.  There |c'| <= e, so
    ||z'|| <= e r_1 = e rho and the bound is 2 b.  Last, each J-row sum
    and its norm round by at most (J^2 + (dim / 2 + 2) J) 2^-53 b, the sum
    of the row bounds by J^2 2^-52 b, and the comparison by K 2^-52 b, as
    cut <= lambda_min <= K b whenever J >= 1.  J (dim + J + K) 2^-50 b
    covers these.  So each trial that the screen closes has an exact
    ||S_J|| below cut, and its hits are 0 for every lambda.
    """
    if n_trials < MIN_TRIALS:
        raise InvalidArgument("n_trials must be at least 10^4")
    if dim < 1 or K < 1:
        raise InvalidArgument("need dim >= 1 and K >= 1")
    _check_step_bound(K, step_bound)
    grid = tuple(sorted(float(v) for v in lambda_grid))
    if not grid or not all(math.isfinite(lam) and lam >= 0 for lam in grid):
        raise InvalidArgument("need one or more finite lambdas >= 0")
    sampler = NoiseSampler("uniform-sphere", step_bound, dim)
    w = sampler.words_per_row
    _check_trial_words(K * w)
    variance_sum = 4.0 * K * step_bound ** 2
    lam_min = grid[0]
    J = _head_length(dim, K, step_bound, lam_min)
    # past this, a trial's first J rows leave it below every lambda
    cut = lam_min * (1.0 - (dim + K * K) * 2.0 ** -48) - (K - J) * step_bound
    # the rounding of the screened sums, their norms and the test
    rounding = J * (dim + J + K) * 2.0 ** -50 * step_bound

    def count(seed, first, n, work):
        starts = K * w * np.arange(first, first + n, dtype=np.uint64)
        if J == 0:  # S_0 = 0: every trial is open, or none
            starts = starts[:0] if cut > 0.0 else starts
        elif J < K:
            u = _uniforms(random_words(seed, starts, J * w, work))
            head, bounds = sampler._screen(u.reshape(n, J, w), work)
            above = _norms(head.sum(axis=1), work)
            above += bounds.sum(axis=1)
            above += rounding
            starts = starts[above >= cut]
        counts = np.zeros(len(grid), dtype=np.int64)
        # open trials draw their K rows in groups within the chunk budget
        group = max(1, _noise._CHUNK_WORDS // (K * w))
        for lo in range(0, starts.size, group):
            block = sampler.rows(seed, starts[lo:lo + group], K, work)
            norms = _norms(block.sum(axis=1), work)
            counts += [np.count_nonzero(norms >= lam) for lam in grid]
        return counts

    counts = _trial_counts(n_trials, (J or K) * w, seed, count)
    # min(): past 2^511 the bound is 0.0 (see _MAX_SUM_NORM)
    bound = tuple(4.0 * math.exp(-min(lam, 2.0 ** 511) ** 2 / variance_sum)
                  for lam in grid)
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
    _check_step_bound(K, step_bound)
    _check_trial_words(K)
    if not 0.0 <= variance <= step_bound ** 2:
        raise InvalidArgument("need 0 <= variance <= step_bound^2")
    q = variance / step_bound ** 2
    threshold = bernstein_threshold(K, step_bound, variance, delta)

    def count(seed, first, n, work):
        u = _uniforms(random_words(seed, first * K, n * K,
                                   work)).reshape(n, K)
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

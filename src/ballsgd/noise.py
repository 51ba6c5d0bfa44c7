"""Dispersive noise samplers, slab-shaped narrow sets, Monte-Carlo
estimation of the mass a sampler puts on a narrow set, and ``Frequency``,
the hit count that every Monte-Carlo check of the package reports.

A slab {x : a <= <v, x> <= a + w} is the extremal narrow set: moving any of
its points by more than the width w along v leaves it.  The dispersive
property says a sampler puts mass at most 1/4 on every slab of width
sigma/(4*sqrt(d)), for every direction.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgument
from .rng import Rng, _box_muller, _buffer, _uniforms, random_words

KINDS = ("scaled-gaussian", "uniform-ball", "uniform-sphere")

# 99% two-sided Hoeffding: P(|est - p| >= t) <= 2 exp(-2 n t^2) = 0.01
_HOEFFDING_LOG = math.log(200.0)

GAUSSIAN_TRUNCATION = 5.0  # resample threshold, in units of sigma
# A truncated row past the threshold is redrawn from a stream of its own,
# seeded from this key's stream (see NoiseSampler.rows).
_REDRAW_KEY = 0xBB67AE8584CAA73B

# A Monte-Carlo chunk reads at most this many stream words (512 KiB as
# uint64 or float64), so each step of the noise kernel works on arrays that
# fit in a core's L2 cache; a thread reuses its buffers from chunk to chunk.
_CHUNK_WORDS = 2 ** 16

MIN_TRIALS = 10_000  # fewest trials a Monte-Carlo estimate accepts


def hoeffding_half_width(n_samples: int) -> float:
    return math.sqrt(_HOEFFDING_LOG / (2.0 * n_samples))


@dataclass(frozen=True)
class Frequency:
    """``hits`` in ``n`` seeded trials, judged against a bound with the
    99% Hoeffding half-width of n."""

    hits: int
    n: int

    @property
    def frequency(self) -> float:
        return self.hits / self.n

    @property
    def half_width(self) -> float:
        return hoeffding_half_width(self.n)

    def holds(self, bound: float, at_least: bool = False) -> bool:
        """frequency >= bound - half_width when at_least, else
        frequency <= bound + half_width."""
        if at_least:
            return self.frequency >= bound - self.half_width
        return self.frequency <= bound + self.half_width


def _workers() -> int:
    """Threads for the Monte-Carlo trial chunks: the cores this process may
    run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        return os.cpu_count() or 1


def _trial_counts(total: int, words_per_trial: int, seed: int, count):
    """Sum of count(rng, n, work) over successive chunks of trials that add
    up to total, in chunk order.  A chunk holds max(1, _CHUNK_WORDS //
    words_per_trial) trials, and work is a dict of buffers
    (``rng._buffer``) that every chunk of one thread reuses.

    Every trial reads words_per_trial words of the stream with the given
    seed, so chunk c reads a fixed word range: it gets its own ``Rng``
    started at its first word, and the chunks are split across threads.
    The sum is bit-identical for any number of them.  An exception in any
    chunk is raised here, on the calling thread.
    """
    size = max(1, _CHUNK_WORDS // words_per_trial)
    starts = range(0, total, size)
    workers = min(_workers(), len(starts))
    parts = [None] * len(starts)
    errors = [None] * workers

    def run(w):
        work = {}
        try:
            for c in range(w, len(starts), workers):
                if any(errors):
                    return
                rng = Rng(seed, start=starts[c] * words_per_trial)
                parts[c] = count(rng, min(size, total - starts[c]), work)
        except BaseException as exc:  # re-raised on the calling thread
            errors[w] = exc

    threads = [threading.Thread(target=run, args=(w,))
               for w in range(1, workers)]
    for thread in threads:
        thread.start()
    run(0)
    for thread in threads:
        thread.join()
    for exc in errors:
        if exc is not None:
            raise exc
    return sum(parts)


def dispersive_width(sigma: float, dim: int) -> float:
    """Critical slab width sigma/(4*sqrt(d)) below which mass is <= 1/4."""
    return sigma / (4.0 * math.sqrt(dim))


@dataclass(frozen=True)
class NoiseSampler:
    """The law of one of the three supported noise kinds.

    A sampler holds no state: every draw reads the stream addresses the
    caller passes (``rows``; ``sample_block`` reads an ``Rng``'s), so any
    thread may use one sampler.  Each row reads ``words_per_row`` words of
    the stream (Box-Muller, see ``ballsgd.rng``).  ``truncate``, for
    scaled-gaussian only, enforces ||xi|| <= 5 sigma by resampling (use it
    whenever the sampler feeds the optimizer; leave it off for
    dispersive-geometry estimates, which study the untruncated law).
    """

    kind: str
    sigma: float
    dim: int
    truncate: bool = False

    @property
    def words_per_row(self) -> int:
        """Stream words each row reads: ceil(d/2) radius and ceil(d/2)
        angle words, and a radius word for a uniform-ball row."""
        return 2 * ((self.dim + 1) // 2) + int(self.kind == "uniform-ball")

    def __post_init__(self):
        if self.kind not in KINDS:
            raise InvalidArgument(f"unknown sampler kind {self.kind!r}")
        if not 0.0 <= self.sigma < math.inf:
            raise InvalidArgument("sigma must be finite and nonnegative")
        if self.dim < 1:
            raise InvalidArgument("dim must be >= 1")
        if self.truncate and self.kind != "scaled-gaussian":
            raise InvalidArgument("truncate applies to scaled-gaussian only")

    def sample_block(self, rng: Rng, count: int, work=None) -> np.ndarray:
        """The next count rows of rng's stream, a (count, dim) block:
        ``rows`` at rng's address, past which rng then moves."""
        block = self.rows(rng.seed, rng._counter, count, work)
        rng._counter += count * self.words_per_row
        return block

    def rows(self, seeds, starts, count: int, work=None) -> np.ndarray:
        """count successive rows of each stream address (seed, start), in
        an array of shape broadcast(seeds, starts) + (count, dim); seeds and
        starts broadcast as in ``rng.random_words``.  Row n reads words
        start + n w to start + (n + 1) w - 1, w being ``words_per_row``.
        With work (``rng._buffer``) the block may live in work's buffers,
        until the next draw with the same work.

        Truncation replaces a row whose norm exceeds the bound by the first
        row within it of the row's own stream, seeded with word o of the
        stream seed ^ _REDRAW_KEY, where o is the row's first word; the law
        of every row is the truncated one.
        """
        w = self.words_per_row
        u = _uniforms(random_words(seeds, starts, count * w, work))
        block = self._law(u.reshape(u.shape[:-1] + (count, w)), work)
        if not self.truncate:
            return block
        limit = GAUSSIAN_TRUNCATION * self.sigma
        seeds, starts = np.broadcast_arrays(np.asarray(seeds, np.uint64),
                                            np.asarray(starts, np.uint64))
        past = np.argwhere(np.linalg.norm(block, axis=-1) > limit).tolist()
        for *b, n in past:
            b = tuple(b)
            stream = Rng(random_words(seeds[b] ^ _REDRAW_KEY,
                                      starts[b] + n * w, 1)[0])
            # drawn without work, whose buffers may hold the block
            row = self._law(stream.uniforms(w))
            while np.linalg.norm(row) > limit:
                row = self._law(stream.uniforms(w))
            block[b + (n,)] = row
        return block

    def _law(self, u: np.ndarray, work=None) -> np.ndarray:
        """Rows of the law from uniforms with each row's on the last axis."""
        dim = self.dim
        z = _box_muller(u[..., :2 * ((dim + 1) // 2)], dim, work)
        if self.kind == "scaled-gaussian":
            return np.multiply(self.sigma / math.sqrt(dim), z, out=z)
        # np.linalg.norm's own ops for a row norm
        squares = np.multiply(z, z, out=_buffer(work, "squares", z.shape))
        norms = np.sqrt(np.add.reduce(squares, axis=-1))
        zero = norms == 0.0
        if np.any(zero):
            z[zero, 0] = 1.0
            norms[zero] = 1.0
        if self.kind == "uniform-sphere":
            scale = np.divide(self.sigma, norms, out=norms)
        else:
            scale = u[..., -1] ** (1.0 / dim)
            np.multiply(self.sigma, scale, out=scale)
            np.divide(scale, norms, out=scale)
        return np.multiply(scale[..., None], z, out=z)


@dataclass(frozen=True)
class NarrowSet:
    """The slab {x : offset <= <direction, x> <= offset + width}."""

    direction: np.ndarray
    offset: float
    width: float

    def __post_init__(self):
        d = np.asarray(self.direction, dtype=float)
        if abs(np.linalg.norm(d) - 1.0) > 1e-12:
            raise InvalidArgument("direction must be a unit vector")
        if self.width < 0:
            raise InvalidArgument("width must be nonnegative")
        object.__setattr__(self, "direction", d)

    def contains(self, x: np.ndarray) -> np.ndarray:
        """Exact membership; x may be a vector or an (n, d) batch."""
        proj = np.asarray(x, dtype=float) @ self.direction
        return (proj >= self.offset) & (proj <= self.offset + self.width)

    @classmethod
    def centered(cls, direction, width: float) -> "NarrowSet":
        """Slab of the given width through the origin, worst case for
        symmetric samplers."""
        return cls(np.asarray(direction, dtype=float), -width / 2.0, width)


def estimate_set_probability(sampler: NoiseSampler, narrow_set: NarrowSet,
                             n_samples: int, seed: int) -> Frequency:
    """Monte-Carlo count of the samples that fall in the set, an unbiased
    estimate of P(xi in set).  Deterministic given the seed."""
    if n_samples < MIN_TRIALS:
        raise InvalidArgument("n_samples must be at least 10^4")

    def count(rng, n, work):
        return int(np.count_nonzero(
            narrow_set.contains(sampler.sample_block(rng, n, work))))

    hits = _trial_counts(n_samples, sampler.words_per_row, seed, count)
    return Frequency(hits, n_samples)

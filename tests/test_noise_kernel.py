"""The in-place noise kernel against its specification.

The ``spec_*`` functions below are the kernel's defining expressions,
written with a fresh array per operation.  The package computes the same
operations in the same order, in place in buffers it allocates itself or
reuses from a work dict, so every word, uniform, normal and noise row must
be bit-identical to them.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ballsgd import noise
from ballsgd.concentration import (bernstein_tail_experiment,
                                   bernstein_threshold,
                                   pinelis_tail_experiment)
from ballsgd.noise import KINDS, NoiseSampler
from ballsgd.rng import Rng, _box_muller, random_words

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)

SEEDS = st.integers(min_value=0, max_value=2**64 - 1)


def spec_mix64(z):
    z = (z ^ (z >> np.uint64(30))) * _M1
    z = (z ^ (z >> np.uint64(27))) * _M2
    return z ^ (z >> np.uint64(31))


def spec_random_words(seed, start, count):
    s = np.uint64(seed & 0xFFFFFFFFFFFFFFFF)
    n = np.arange(start + 1, start + count + 1, dtype=np.uint64)
    with np.errstate(over="ignore"):
        return spec_mix64(s + n * _GAMMA)


def spec_words_to_uniform(words):
    return ((words >> np.uint64(11)).astype(np.float64) + 1.0) * 2.0 ** -53


def spec_box_muller(u):
    pairs = u.shape[-1] // 2
    r = np.sqrt(-2.0 * np.log(u[..., :pairs]))
    theta = 2.0 * np.pi * u[..., pairs:]
    return np.concatenate([r * np.cos(theta), r * np.sin(theta)], axis=-1)


def spec_rows(sampler, rng, count):
    dim = sampler.dim
    pairs = (dim + 1) // 2
    width = 2 * pairs + int(sampler.kind == "uniform-ball")
    u = spec_words_to_uniform(
        spec_random_words(rng.seed, rng._counter, count * width)
    ).reshape(count, width)
    z = spec_box_muller(u[:, :2 * pairs])[:, :dim]
    if sampler.kind == "scaled-gaussian":
        return (sampler.sigma / math.sqrt(dim)) * z
    norms = np.linalg.norm(z, axis=1)
    zero = norms == 0.0
    if np.any(zero):
        z[zero, 0] = 1.0
        norms[zero] = 1.0
    if sampler.kind == "uniform-sphere":
        return (sampler.sigma / norms)[:, None] * z
    radius = u[:, -1] ** (1.0 / dim)
    return (sampler.sigma * radius / norms)[:, None] * z


def spec_truncated_rows(sampler, rng, count):
    # row n past the bound is replaced by the first row within it of the
    # stream seeded with word o of the stream rng.seed ^ 0xBB67AE8584CAA73B,
    # where o is row n's first word
    rows = spec_rows(sampler, rng, count)
    limit = noise.GAUSSIAN_TRUNCATION * sampler.sigma
    width = sampler.words_per_row
    for n in np.flatnonzero(np.linalg.norm(rows, axis=1) > limit):
        o = rng._counter + int(n) * width
        stream = Rng(int(spec_random_words(rng.seed ^ 0xBB67AE8584CAA73B,
                                           o, 1)[0]))
        row = spec_rows(sampler, stream, 1)[0]
        while np.linalg.norm(row) > limit:
            stream = Rng(stream.seed, stream._counter + width)
            row = spec_rows(sampler, stream, 1)[0]
        rows[n] = row
    return rows


def _uniforms(seed, count):
    return spec_words_to_uniform(spec_random_words(seed, 0, count))


@given(SEEDS, st.integers(0, 10**12), st.integers(1, 3000))
@settings(max_examples=60, deadline=None)
def test_random_words_match_the_spec(seed, start, count):
    assert np.array_equal(random_words(seed, start, count),
                          spec_random_words(seed, start, count))


@given(SEEDS, st.integers(0, 10**12), st.integers(1, 3000))
@settings(max_examples=60, deadline=None)
def test_uniforms_match_the_spec(seed, start, count):
    u = Rng(seed, start).uniforms(count)
    assert u.dtype == np.float64
    assert np.array_equal(
        u, spec_words_to_uniform(spec_random_words(seed, start, count)))


@given(SEEDS, st.integers(1, 60), st.integers(1, 40), st.booleans())
@settings(max_examples=60, deadline=None)
def test_box_muller_matches_the_spec_and_leaves_its_input_unchanged(
        seed, pairs, rows, extra_column):
    # a sampler's uniforms are a column slice of a wider block when a
    # uniform-ball row reads its radius word after the Box-Muller words
    width = 2 * pairs + int(extra_column)
    block = _uniforms(seed, rows * width).reshape(rows, width)
    kept = block.copy()
    u = block[:, :2 * pairs]
    expected = spec_box_muller(u)
    assert np.array_equal(_box_muller(u), expected)
    for count in (2 * pairs - 1, pairs):
        assert np.array_equal(_box_muller(u, count), expected[:, :count])
    assert np.array_equal(block, kept)


@given(SEEDS, st.integers(1, 200))
@settings(max_examples=60, deadline=None)
def test_normals_match_the_spec_for_odd_and_even_counts(seed, count):
    u = _uniforms(seed, 2 * ((count + 1) // 2))
    assert np.array_equal(Rng(seed).normals(count),
                          spec_box_muller(u)[:count])


@given(st.sampled_from(KINDS), st.integers(1, 12), SEEDS,
       st.integers(0, 10**9), st.integers(1, 300),
       st.floats(0.01, 100.0))
@settings(max_examples=120, deadline=None)
def test_rows_match_the_spec_for_every_kind(kind, dim, seed, start, count,
                                            sigma):
    sampler = NoiseSampler(kind, sigma, dim)
    rows = sampler.rows(seed, start, count)
    expected = spec_rows(sampler, Rng(seed, start), count)
    assert rows.shape == (count, dim) and rows.flags.c_contiguous
    assert np.array_equal(rows, expected)


def test_rows_match_the_spec_at_the_bench_dims():
    # odd and even dims wide enough for numpy's vector loops, and the
    # pinelis and highdim-certify shapes
    for kind in KINDS:
        for dim in (49, 50, 51, 200):
            sampler = NoiseSampler(kind, 1.0, dim)
            assert np.array_equal(sampler.sample_block(Rng(7, 3), 70),
                                  spec_rows(sampler, Rng(7, 3), 70))


# seeds of every size Rng accepts: negative, >= 2^63 and >= 2^64
ANY_SEEDS = st.integers(-2**65, 2**66)
LAWS = st.sampled_from([(kind, False) for kind in KINDS]
                       + [("scaled-gaussian", True)])


@given(LAWS, st.integers(1, 6), st.integers(1, 12), st.booleans(),
       st.booleans(), st.data())
@settings(max_examples=80, deadline=None)
def test_rows_read_every_address_as_a_sequential_block(law, dim, count,
                                                       column, use_work,
                                                       data):
    # starts of shape (k,) pair with the k seeds; starts of shape (r, 1)
    # give an (r, k) grid of addresses.  At a bound of 1 sigma about half
    # of the truncated rows are redrawn.
    kind, truncate = law
    seeds = data.draw(st.lists(ANY_SEEDS, min_size=1, max_size=4))
    size = data.draw(st.integers(1, 3)) if column else len(seeds)
    starts = np.array(data.draw(st.lists(st.integers(0, 10**12),
                                         min_size=size, max_size=size)))
    if column:
        starts = starts[:, None]
    sampler = NoiseSampler(kind, 1.3, dim, truncate)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(noise, "GAUSSIAN_TRUNCATION", 1.0)
        block = sampler.rows(np.array([s % 2**64 for s in seeds], np.uint64),
                             starts, count, {} if use_work else None)
        shape = np.broadcast_shapes(starts.shape, (len(seeds),))
        assert block.shape == shape + (count, dim)
        starts = np.broadcast_to(starts, shape)
        for index in np.ndindex(shape):
            rng = Rng(seeds[index[-1]], int(starts[index]))
            assert np.array_equal(block[index],
                                  sampler.sample_block(rng, count)), index


DRAWS = st.lists(st.tuples(st.integers(0, 10**9), st.integers(1, 2000)),
                 min_size=1, max_size=5)


@given(SEEDS, DRAWS)
@settings(max_examples=40, deadline=None)
def test_reused_buffers_give_the_spec_words_and_uniforms(seed, draws):
    # one work dict across draws of growing and shrinking size, as a
    # Monte-Carlo thread passes it from chunk to chunk
    work = {}
    for start, count in draws:
        expected = spec_random_words(seed, start, count)
        assert np.array_equal(random_words(seed, start, count, work),
                              expected)
        assert np.array_equal(Rng(seed, start).uniforms(count, work),
                              spec_words_to_uniform(expected))


@given(st.sampled_from(KINDS), st.integers(1, 12), SEEDS,
       st.lists(st.integers(1, 300), min_size=1, max_size=4), st.booleans())
@settings(max_examples=80, deadline=None)
def test_reused_buffers_give_the_spec_rows(kind, dim, seed, counts, truncate):
    # a truncation at 1.5 sigma redraws rows of most blocks, in buffers
    # apart from the block's own
    truncate = truncate and kind == "scaled-gaussian"
    sampler = NoiseSampler(kind, 1.3, dim, truncate)
    spec = spec_truncated_rows if truncate else spec_rows
    work = {}
    rng, fresh = Rng(seed, 11), Rng(seed, 11)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(noise, "GAUSSIAN_TRUNCATION", 1.5)
        for count in counts:
            expected = spec(sampler, fresh, count)
            fresh = Rng(seed, fresh._counter + count * sampler.words_per_row)
            block = sampler.sample_block(rng, count, work)
            assert np.array_equal(block, expected)
            assert rng._counter == fresh._counter


def test_box_muller_with_reused_buffers_leaves_its_input_unchanged():
    block = _uniforms(5, 40 * 7).reshape(40, 7)
    kept = block.copy()
    work = {}
    for count in (6, 5, 3):
        u = block[:, :6]
        assert np.array_equal(_box_muller(u, count, work),
                              spec_box_muller(u)[:, :count])
    assert np.array_equal(block, kept)


def test_tail_counts_match_the_spec():
    # the chunked, threaded, buffer-reusing experiments count the same
    # trials as one spec pass over the whole stream; 10^4 pinelis trials of
    # 8 rows of 4 words are five chunks
    n, seed = 10_000, 3
    K, dim, grid = 8, 3, (2.0, 4.0, 6.0)
    sampler = NoiseSampler("uniform-sphere", 1.0, dim)
    steps = spec_rows(sampler, Rng(seed), n * K).reshape(n, K, dim)
    norms = np.linalg.norm(steps.sum(axis=1), axis=1)
    report = pinelis_tail_experiment(dim, K, 1.0, grid, n, seed)
    assert [t.hits for t in report.tails] == \
        [int(np.count_nonzero(norms >= lam)) for lam in grid]

    # 40,000 trials of 4 words are three chunks of the default budget
    n, K, variance, delta = 40_000, 4, 0.1, 0.3
    q = variance
    u = _uniforms(seed, n * K).reshape(n, K)
    spec = np.where(u <= q / 2.0, 1.0, np.where(u <= q, -1.0, 0.0))
    threshold = bernstein_threshold(K, 1.0, variance, delta)
    report = bernstein_tail_experiment(K, 1.0, variance, delta, n, seed)
    assert report.tails[0].hits == \
        int(np.count_nonzero(spec.sum(axis=1) > threshold))
    assert 0 < report.tails[0].hits < n

"""The in-place noise kernel against its specification.

The ``spec_*`` functions below are the kernel's defining expressions,
written with a fresh array per operation.  The package computes the same
operations in the same order, in place in buffers it allocates itself or
reuses from a work dict, so every word, uniform, normal and noise row must
be bit-identical to them.  The one exception is the Pinelis screen's
float32-trig rows, which are only bounded: the last tests check the bounds.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ballsgd import concentration, noise
from ballsgd.concentration import (bernstein_tail_experiment,
                                   bernstein_threshold,
                                   pinelis_tail_experiment)
from ballsgd.noise import KINDS, NoiseSampler
from ballsgd.rng import _box_muller, _cos_sin_2pi, random_words
from ballsgd.rng import _uniforms as words_to_uniforms
from helpers import Rng

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


# fdlibm's __kernel_cos and __kernel_sin coefficients, C1..C6 and S1..S6
SPEC_C = (4.16666666666666019037e-02, -1.38888888888741095749e-03,
          2.48015872894767294178e-05, -2.75573143513906633035e-07,
          2.08757232129817482790e-09, -1.13596475577881948265e-11)
SPEC_S = (-1.66666666666666324348e-01, 8.33333333332248946124e-03,
          -1.98412698298579493134e-04, 2.75573137070700676789e-06,
          -2.50507602534068634195e-08, 1.58969099521155010221e-10)
SPEC_A = np.array([1.0, 0.0, -1.0, 0.0])
SPEC_B = np.array([0.0, -1.0, 0.0, 1.0])


def spec_horner(z, coefficients):
    # c_1 + z (c_2 + ... + z c_n), innermost product first
    p = z * coefficients[-1]
    for c in coefficients[-2:0:-1]:
        p = (p + c) * z
    return p + coefficients[0]


def spec_cos_sin_2pi(v):
    k = np.rint(4.0 * v)
    x = (v - 0.25 * k) * (2.0 * np.pi)
    z = x * x
    s = x + (z * x) * spec_horner(z, SPEC_S)
    hz = 0.5 * z
    w = 1.0 - hz
    c = w + (((1.0 - w) - hz) + z * (z * spec_horner(z, SPEC_C)))
    q = k.astype(np.int64) % 4
    a, b = SPEC_A[q], SPEC_B[q]
    return c * a + s * b, s * a - c * b


def spec_box_muller(u):
    pairs = u.shape[-1] // 2
    r = np.sqrt(-2.0 * np.log(u[..., :pairs]))
    cos, sin = spec_cos_sin_2pi(u[..., pairs:])
    return np.concatenate([r * cos, r * sin], axis=-1)


def same_bits(a, b):
    """a and b are equal floats with equal signs, so -0.0 is not 0.0."""
    return np.array_equal(a, b) and np.array_equal(np.signbit(a),
                                                   np.signbit(b))


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
    assert same_bits(_box_muller(u, 2 * pairs), expected)
    for count in (2 * pairs - 1, pairs):
        assert same_bits(_box_muller(u, count), expected[:, :count])
    assert np.array_equal(block, kept)


@given(SEEDS, st.integers(1, 200))
@settings(max_examples=60, deadline=None)
def test_normals_match_the_spec_for_odd_and_even_counts(seed, count):
    u = _uniforms(seed, 2 * ((count + 1) // 2))
    assert same_bits(Rng(seed).normals(count), spec_box_muller(u)[:count])


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
    assert same_bits(rows, expected)


def test_rows_match_the_spec_at_the_bench_dims():
    # odd and even dims wide enough for numpy's vector loops, and the
    # pinelis and highdim-certify shapes
    for kind in KINDS:
        for dim in (49, 50, 51, 200):
            sampler = NoiseSampler(kind, 1.0, dim)
            assert same_bits(sampler.rows(7, 3, 70),
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
            one = sampler.rows(seeds[index[-1]] % 2**64, int(starts[index]),
                               count)
            assert np.array_equal(block[index], one), index


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
        assert np.array_equal(
            words_to_uniforms(random_words(seed, start, count, work)),
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
    start, fresh = 11, Rng(seed, 11)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(noise, "GAUSSIAN_TRUNCATION", 1.5)
        for count in counts:
            expected = spec(sampler, fresh, count)
            fresh = Rng(seed, fresh._counter + count * sampler.words_per_row)
            block = sampler.rows(seed, start, count, work)
            assert same_bits(block, expected)
            start += count * sampler.words_per_row


def test_box_muller_with_reused_buffers_leaves_its_input_unchanged():
    block = _uniforms(5, 40 * 7).reshape(40, 7)
    kept = block.copy()
    work = {}
    for count in (6, 5, 3):
        u = block[:, :6]
        assert same_bits(_box_muller(u, count, work),
                         spec_box_muller(u)[:, :count])
    assert np.array_equal(block, kept)


def _angle_uniforms():
    """Uniforms v where the trig's quadrant and reduction are at their
    edges: k/8 (k/4 and the ties of rint(4 v)) and 6 doubles on either
    side, within (0, 1], and the smallest uniform 2^-53."""
    v = [x for k in range(9) for x in _near(k / 8.0, 6) if 0.0 < x <= 1.0]
    return np.array(v + [2.0 ** -53])


def test_box_muller_matches_the_spec_at_the_quadrant_edges():
    # at v = k/4 a normal is a signed zero, and a radius uniform of 1 gives
    # r = -0.0 (the sqrt of -2 log 1 = -0.0): every sign is the spec's
    angles = _angle_uniforms()
    radii = np.array([2.0 ** -53, 0.5, 1.0 - 2.0 ** -53, 1.0])
    u = np.concatenate([np.repeat(radii, angles.size)[:, None],
                        np.tile(angles, radii.size)[:, None]], axis=1)
    expected = spec_box_muller(u)
    assert same_bits(_box_muller(u, 2), expected)
    zeros = expected[expected == 0.0]
    assert np.any(np.signbit(zeros)) and not np.all(np.signbit(zeros))


def test_float64_normals_call_no_libm_trig():
    # cos and sin are taken from +, -, *, rint and table lookups only; the
    # float32 screen still calls numpy's float32 trig
    def libm(*args, **kwargs):
        raise AssertionError("libm trig called")

    u = _uniforms(9, 8 * 12).reshape(8, 12)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(np, "cos", libm)
        patch.setattr(np, "sin", libm)
        _box_muller(u, 12)
        Rng(9).normals(101)
        for kind in KINDS:
            NoiseSampler(kind, 1.0, 5).rows(9, 0, 30, {})
        with pytest.raises(AssertionError, match="libm"):
            _box_muller(u, 12, None, np.float32)


def test_trig_is_within_two_units_of_2_to_the_minus_53():
    # against a long-double cos and sin of 2 pi v: the stream's uniforms
    # ((w >> 11) + 1) 2^-53, a regular grid, and the quadrant edges.  The
    # error is measured at 1.26 and 1.22 x 2^-53 (libm at the rounded
    # angle fl(2 pi v) is off by up to 5.8 and 6.2 x 2^-53)
    if np.finfo(np.longdouble).nmant < 63:
        pytest.skip("needs an 80-bit or wider long double")
    v = np.concatenate([_uniforms(17, 2 ** 18),
                        np.arange(1, 2 ** 14 + 1) * 2.0 ** -14,
                        _angle_uniforms()])
    angle = 8 * np.arctan(np.longdouble(1)) * v.astype(np.longdouble)
    cos, sin = _cos_sin_2pi(v)
    unit = np.longdouble(2.0 ** -53)
    assert np.max(np.abs(cos - np.cos(angle))) <= 2 * unit
    assert np.max(np.abs(sin - np.sin(angle))) <= 2 * unit
    assert cos[-2] == 1.0 and sin[-2] == 0.0  # v = 1, the last k/8


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

    # at lambda_min = 12 the screen reads 11 of each trial's 16 rows, and
    # those decide most trials below every lambda; the trials it leaves
    # open, each that |S_11| >= 7 leaves within reach and a few more, draw
    # their 16 exact rows.  The counts are still the full sums' (407 and
    # 46 hits)
    n, seed, K, grid = 100_000, 5, 16, (12.0, 14.0)
    sampler = NoiseSampler("uniform-sphere", 1.0, 1)
    steps = spec_rows(sampler, Rng(seed), n * K).reshape(n, K, 1)
    norms = np.linalg.norm(steps.sum(axis=1), axis=1)
    reachable = np.count_nonzero(np.abs(steps[:, :11].sum(axis=1)) >= 7.0)
    screened, drawn = [], []
    rows = NoiseSampler.rows
    words = concentration.random_words

    def counted_words(seeds, starts, count, work=None):
        screened.append(np.size(starts) * count)
        return words(seeds, starts, count, work)

    def counted_rows(self, seeds, starts, count, work=None):
        block = rows(self, seeds, starts, count, work)
        drawn.append((count, block.shape[0]))
        return block

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(concentration, "random_words", counted_words)
        patch.setattr(NoiseSampler, "rows", counted_rows)
        report = pinelis_tail_experiment(1, K, 1.0, grid, n, seed)
    assert [t.hits for t in report.tails] == \
        [int(np.count_nonzero(norms >= lam)) for lam in grid] == [407, 46]
    assert sum(screened) == n * 11 * sampler.words_per_row
    assert {count for count, _ in drawn} == {K}
    assert reachable <= sum(trials for _, trials in drawn) \
        < 1.01 * reachable

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


def _near(centre, ulps):
    """centre and the ulps doubles on either side of it."""
    below, above = [centre], [centre]
    for _ in range(ulps):
        below.append(math.nextafter(below[-1], -math.inf))
        above.append(math.nextafter(above[-1], math.inf))
    return below[::-1] + above[1:]


def test_float32_trig_stays_within_the_screens_assumed_error():
    # the Pinelis screen's bound assumes that numpy's float32 cos and sin,
    # at an angle rounded to float32, are within noise._TRIG32_ERROR of
    # float64 cos and sin at the angle; a numpy that breaks this fails
    # here, and no count changes unnoticed.  A dense grid over [0, 2 pi],
    # and the neighbourhoods of k pi / 2 at float32 and float64 spacing
    centres = [k * math.pi / 2.0 for k in range(5)]
    theta = np.concatenate(
        [np.linspace(0.0, 2.0 * np.pi, 2 ** 22)]
        + [c + np.arange(-4096, 4097) * 2.0 ** -24 for c in centres]
        + [np.array(_near(c, 64)) for c in centres])
    theta = theta[(theta >= 0.0) & (theta <= 2.0 * np.pi)]
    rounded = theta.astype(np.float32)
    for trig in (np.cos, np.sin):
        # as the screen takes them: float32 trig written into float64
        screened = trig(rounded, out=np.empty(theta.shape))
        assert np.max(np.abs(screened - trig(theta))) <= \
            noise._TRIG32_ERROR, trig
    # the screen's error per unit radius covers the float32 angle's
    # rounding, the float32 trig error, and the float64 angle's error
    # (2^-50), the exact trig's (2^-52) and the two products' (2^-52)
    assert noise._SCREEN_ERROR >= 2.0 ** -22 + noise._TRIG32_ERROR \
        + 2.0 ** -49


@pytest.mark.parametrize("dim", [1, 3])
def test_screen_bounds_cover_each_rows_error_where_cos_changes_sign(dim):
    # angle uniforms at and a few ULPs around 1/4 and 3/4, where cos(2 pi v)
    # changes sign, so float32 and float64 cos can differ in sign: at
    # d = 1 a row is then +b in one and -b in the other.  Radius uniforms
    # from 2^-53 (the largest radius) to 1 (radius 0); at d = 3 the second
    # pair's sine is dropped, so a tiny first radius leaves the row norm
    # far below the radii.  Every bound covers its row's error, and each
    # screened normal is within r (2^-22 + 2^-16 + 2^-49) of the exact one
    angles = _near(0.25, 4) + _near(0.75, 4) + [2.0 ** -53, 0.5, 1.0]
    radii = [2.0 ** -53, 0.5, 1.0 - 2.0 ** -53, 1.0]
    pairs = (dim + 1) // 2
    u = np.array([r + v for r in itertools.product(radii, repeat=pairs)
                  for v in itertools.product(angles, repeat=pairs)])
    sampler = NoiseSampler("uniform-sphere", 1.3, dim)
    exact = sampler._law(u)
    screened, bounds = sampler._screen(u, {})
    errors = np.linalg.norm(screened - exact, axis=1)
    assert np.all(errors <= bounds)
    assert np.max(errors) > sampler.sigma  # some rows flip
    r = np.sqrt(-2.0 * np.log(u[:, :pairs]))
    r = np.concatenate([r, r], axis=1)[:, :dim]
    diff = np.abs(_box_muller(u, dim, None, np.float32) - _box_muller(u, dim))
    assert np.all(diff <= r * (2.0 ** -22 + noise._TRIG32_ERROR + 2.0 ** -49))


@given(st.integers(1, 12), SEEDS, st.floats(0.01, 100.0))
@settings(max_examples=40, deadline=None)
def test_screen_bounds_cover_each_rows_error(dim, seed, sigma):
    # stream uniforms at odd and even dims: every bound covers its row's
    # error, and a typical bound is far below sigma
    sampler = NoiseSampler("uniform-sphere", sigma, dim)
    w = sampler.words_per_row
    u = _uniforms(seed, 500 * w).reshape(500, w)
    screened, bounds = sampler._screen(u, {})
    errors = np.linalg.norm(screened - sampler._law(u), axis=1)
    assert np.all(errors <= bounds)
    assert np.median(bounds) < 1e-3 * sigma

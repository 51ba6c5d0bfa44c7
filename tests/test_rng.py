import numpy as np
from hypothesis import given, settings, strategies as st

from ballsgd.rng import random_words
from helpers import Rng

GAMMA = 0x9E3779B97F4A7C15
MASK = (1 << 64) - 1


def reference_mix64(z):
    z &= MASK
    z ^= z >> 30
    z = (z * 0xBF58476D1CE4E5B9) & MASK
    z ^= z >> 27
    z = (z * 0x94D049BB133111EB) & MASK
    z ^= z >> 31
    return z


def test_first_word_matches_reference_finalizer():
    # seed 0, counter 0 is the well-known finalizer output of the golden
    # ratio increment
    assert random_words(0, 0, 1)[0] == reference_mix64(GAMMA)
    assert random_words(0, 0, 1)[0] == 0xE220A8397B1DCDAF


def test_words_match_pure_python_reference():
    seed = 123456789
    words = random_words(seed, 5, 8)
    expected = [reference_mix64((seed + (n + 1) * GAMMA) & MASK)
                for n in range(5, 13)]
    assert list(words) == expected


@given(st.integers(min_value=0, max_value=2**63), st.integers(0, 1000),
       st.integers(1, 50), st.integers(1, 50))
@settings(max_examples=50, deadline=None)
def test_counter_stream_is_sliceable(seed, start, n1, n2):
    whole = random_words(seed, start, n1 + n2)
    parts = np.concatenate([random_words(seed, start, n1),
                            random_words(seed, start + n1, n2)])
    assert np.array_equal(whole, parts)


@given(st.integers(min_value=0, max_value=2**64 - 1), st.integers(0, 10**12),
       st.integers(1, 50))
@settings(max_examples=50, deadline=None)
def test_offset_stream_starts_at_its_word(seed, start, count):
    assert np.array_equal(Rng(seed, start=start).words(count),
                          random_words(seed, start, count))


def test_uniforms_live_in_half_open_unit_interval():
    u = Rng(7).uniforms(100_000)
    assert np.all(u > 0.0)
    assert np.all(u <= 1.0)
    assert abs(u.mean() - 0.5) < 0.005


def _seed_whose_first_word_is(word):
    # inverts reference_mix64(seed + GAMMA): x ^= x >> s is undone by
    # x ^= x >> s ^ x >> 2s (3s >= 64 here), a product by the multiplier's
    # inverse mod 2^64
    z = word
    for shift, mult in ((31, None), (27, 0x94D049BB133111EB),
                        (30, 0xBF58476D1CE4E5B9)):
        if mult is not None:
            z = z * pow(mult, -1, 1 << 64) & MASK
        z ^= (z >> shift) ^ (z >> 2 * shift)
    return (z - GAMMA) & MASK


def test_words_to_uniform_formula():
    assert random_words(_seed_whose_first_word_is(12345), 0, 1)[0] == 12345
    assert Rng(_seed_whose_first_word_is(0)).uniforms(1)[0] == 2.0 ** -53
    assert Rng(_seed_whose_first_word_is(MASK)).uniforms(1)[0] == 1.0
    w = random_words(7, 40, 1000)
    u = Rng(7, 40).uniforms(1000)
    assert np.array_equal(
        u, ((w >> np.uint64(11)).astype(np.float64) + 1.0) * 2.0 ** -53)


def test_normals_have_unit_variance():
    z = Rng(11).normals(200_000)
    assert abs(z.mean()) < 0.01
    assert abs(z.var() - 1.0) < 0.01


def test_determinism_and_seed_separation():
    a = Rng(3).normals(64)
    b = Rng(3).normals(64)
    c = Rng(4).normals(64)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_sequential_draws_match_bulk_draw():
    bulk = Rng(9).uniforms(6)
    rng = Rng(9)
    seq = np.array([float(rng.uniforms(1)[0]) for _ in range(6)])
    assert np.array_equal(bulk, seq)


def test_normal_rows_shape_and_determinism():
    rows = Rng(5).normal_rows(4, 3)
    assert rows.shape == (4, 3)
    assert np.array_equal(rows, Rng(5).normal_rows(4, 3))

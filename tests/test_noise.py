import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ballsgd import noise, optimizer
from ballsgd.errors import InvalidArgument
from ballsgd.hyperparams import manual_schedule
from ballsgd.noise import (GAUSSIAN_TRUNCATION, NarrowSet, NoiseSampler,
                           dispersive_width, estimate_set_probability,
                           hoeffding_half_width)
from ballsgd.optimizer import run_noise_scheduled_sgd
from ballsgd.problems import make_quadratic, make_quartic_saddle
from ballsgd.rng import Rng


def test_hoeffding_half_width_formula():
    assert hoeffding_half_width(10_000) == pytest.approx(
        math.sqrt(math.log(200.0) / 20_000.0))


def test_dispersive_width_formula():
    assert dispersive_width(2.0, 16) == pytest.approx(2.0 / 16.0)


def test_scaled_gaussian_zero_sigma():
    sampler = NoiseSampler("scaled-gaussian", 0.0, 5)
    assert np.all(sampler.sample_block(Rng(0), 1) == 0.0)


def test_scaled_gaussian_variance_d1():
    sampler = NoiseSampler("scaled-gaussian", 1.0, 1)
    draws = sampler.sample_block(Rng(1), 100_000)[:, 0]
    assert abs(draws.var() - 1.0) < 0.01


def test_scaled_gaussian_mean_clt_bound():
    n = 100_000
    d = 4
    sampler = NoiseSampler("scaled-gaussian", 1.0, d)
    mean = sampler.sample_block(Rng(3), n).mean(axis=0)
    # each coordinate is N(0, 1/(d n)) under the mean; 99% bound per coord
    assert np.linalg.norm(mean) <= 5.0 / math.sqrt(n) * math.sqrt(d)


def test_uniform_ball_norm_bound():
    sampler = NoiseSampler("uniform-ball", 0.7, 3)
    block = sampler.sample_block(Rng(2), 1000)
    assert np.all(np.linalg.norm(block, axis=1) <= 0.7)


def test_uniform_ball_radial_law_d2():
    sampler = NoiseSampler("uniform-ball", 1.0, 2)
    norms = np.linalg.norm(sampler.sample_block(Rng(4), 100_000), axis=1)
    ci = hoeffding_half_width(100_000)
    assert abs(np.mean(norms <= 0.5) - 0.25) <= ci


def test_uniform_ball_d1_symmetry():
    sampler = NoiseSampler("uniform-ball", 1.0, 1)
    draws = sampler.sample_block(Rng(5), 100_000)[:, 0]
    assert np.all(np.abs(draws) <= 1.0)
    assert abs(draws.mean()) < 0.01


def test_uniform_sphere_exact_norm():
    sampler = NoiseSampler("uniform-sphere", 1.5, 4)
    norms = np.linalg.norm(sampler.sample_block(Rng(6), 1000), axis=1)
    assert np.all(np.abs(norms - 1.5) <= 1e-12 * 1.5)


def test_uniform_sphere_symmetry():
    sampler = NoiseSampler("uniform-sphere", 1.0, 2)
    draws = sampler.sample_block(Rng(7), 100_000)
    ci = hoeffding_half_width(100_000)
    assert abs(np.mean(draws[:, 0] > 0) - 0.5) <= ci
    sampler3 = NoiseSampler("uniform-sphere", 1.0, 3)
    assert abs(sampler3.sample_block(Rng(8), 100_000)[:, 0].mean()) < 0.01


def assert_steps_use(obj, eta, iterates, noises):
    """Each stored step is bitwise x - eta (grad(x) + xi) on a one-row
    block, with xi the step's row of noises."""
    assert len(iterates) == len(noises) + 1
    for k, xi in enumerate(noises):
        x = iterates[k:k + 1]
        assert np.array_equal(iterates[k + 1],
                              (x - eta * (obj.gradient(x) + xi))[0]), k


def test_injected_sampler_is_dispersive():
    # zero base noise and ko = 1: the noise of step n is injection n, row n
    # of the seed's injection stream
    dim, seed = 4, 1
    obj = make_quadratic(np.eye(dim), np.zeros(dim), sigma=1.0)
    n = 12_000
    sched = manual_schedule(obj.constants, eta=0.01, ball_radius=100.0,
                            k0=n, ko=1, epsilon=0.01)
    result = run_noise_scheduled_sgd(
        obj, NoiseSampler("uniform-ball", 0.0, dim), sched, np.zeros(dim),
        seed=seed, budget_mode="unlimited-episodes", store_iterates=True)
    assert n == result.trace.injections
    noises = NoiseSampler("scaled-gaussian", 1.0, dim).sample_block(
        Rng(seed ^ optimizer._INJECTION_KEY), n)
    assert_steps_use(obj, sched.eta, result.trace.episodes[0].iterates,
                     noises)
    slab = NarrowSet.centered(np.array([1.0, 0, 0, 0]),
                              dispersive_width(obj.constants.sigma, dim))
    mass = np.mean(slab.contains(noises))
    assert mass <= 0.25 + hoeffding_half_width(n)


@pytest.mark.parametrize("sampler", [
    NoiseSampler("scaled-gaussian", 1.0, 4, truncate=True),
    NoiseSampler("uniform-ball", 1.0, 4),
    NoiseSampler("uniform-sphere", 1.0, 4)], ids=lambda n: n.kind)
def test_run_reads_the_base_and_the_injection_stream(sampler):
    # a run of seed s draws its base noise from Rng(s) and each injection,
    # at every in-episode step k with k % ko == 0, from its own stream
    obj = make_quartic_saddle(4, sigma=1.0)
    seed, ko = 5, 7
    sched = manual_schedule(obj.constants, eta=0.01, ball_radius=0.5,
                            k0=3000, ko=ko, epsilon=6e-5)
    result = run_noise_scheduled_sgd(obj, sampler, sched, np.zeros(4),
                                     seed=seed, store_iterates=True,
                                     budget_mode="unlimited-episodes")
    iterates = result.trace.episodes[0].iterates
    noises = sampler.sample_block(Rng(seed), len(iterates) - 1)
    injection = NoiseSampler("scaled-gaussian", obj.constants.sigma, 4)
    stream = Rng(seed ^ optimizer._INJECTION_KEY)
    for k in range(0, len(noises), ko):
        noises[k] += injection.sample_block(stream, 1)[0]
    assert len(noises) > 3 * ko
    assert_steps_use(obj, sched.eta, iterates, noises)


def test_truncated_gaussian_norm_bound():
    sampler = NoiseSampler("scaled-gaussian", 1.0, 2, truncate=True)
    rng = Rng(10)
    for _ in range(2000):
        row = sampler.sample_block(rng, 1)[0]
        assert np.linalg.norm(row) <= GAUSSIAN_TRUNCATION


def test_truncated_gaussian_law_at_one_sigma(monkeypatch):
    # a row of N(0, sigma^2 I / 2) in R^2 conditioned on ||xi|| <= sigma,
    # with over a third of the rows redrawn, lies within sigma / sqrt(2)
    # with probability (1 - e^-1/2) / (1 - e^-1) = 0.6225
    monkeypatch.setattr(noise, "GAUSSIAN_TRUNCATION", 1.0)
    n, sigma = 10_000, 2.0
    sampler = NoiseSampler("scaled-gaussian", sigma, 2, truncate=True)
    norms = np.linalg.norm(sampler.sample_block(Rng(12), n), axis=1)
    assert np.all(norms <= sigma)
    inner = np.count_nonzero(norms <= sigma / math.sqrt(2.0)) / n
    law = (1.0 - math.exp(-0.5)) / (1.0 - math.exp(-1.0))
    assert abs(inner - law) <= hoeffding_half_width(n)


def test_sampler_is_a_value():
    a = NoiseSampler("uniform-ball", 1.0, 3)
    assert a == NoiseSampler("uniform-ball", 1.0, 3)
    with pytest.raises(AttributeError):
        a.sigma = 2.0
    assert np.array_equal(a.sample_block(Rng(42), 16),
                          a.sample_block(Rng(42), 16))


def test_sampler_argument_validation():
    with pytest.raises(InvalidArgument):
        NoiseSampler("bogus", 1.0, 2)
    with pytest.raises(InvalidArgument):
        NoiseSampler("uniform-ball", -1.0, 2)
    for sigma in (math.nan, math.inf):
        for truncate in (False, True):
            # neither bounds a truncated row by 5 sigma
            with pytest.raises(InvalidArgument, match="finite"):
                NoiseSampler("scaled-gaussian", sigma, 2, truncate=truncate)
    with pytest.raises(InvalidArgument):
        NoiseSampler("uniform-ball", 1.0, 0)
    with pytest.raises(InvalidArgument):
        NoiseSampler("injected", 1.0, 2)
    with pytest.raises(InvalidArgument):
        NoiseSampler("uniform-ball", 1.0, 2, truncate=True)


@pytest.mark.parametrize("kind", ["scaled-gaussian", "uniform-ball",
                                  "uniform-sphere"])
@pytest.mark.parametrize("dim", [1, 2, 5])
def test_block_matches_sequential_samples(kind, dim, monkeypatch):
    variants = [False]
    if kind == "scaled-gaussian":
        variants += [GAUSSIAN_TRUNCATION, 1.0]  # 1.0 forces rejections
    for truncation in variants:
        if truncation:
            monkeypatch.setattr(noise, "GAUSSIAN_TRUNCATION", truncation)
        sampler = NoiseSampler(kind, 1.0, dim, truncate=bool(truncation))
        a, b = Rng(11), Rng(11)
        block = sampler.sample_block(a, 8)
        seq = np.concatenate([sampler.sample_block(b, 1) for _ in range(8)])
        assert np.array_equal(block, seq)
        assert a._counter == b._counter == 8 * sampler.words_per_row


@given(st.sampled_from(noise.KINDS), st.integers(1, 9),
       st.integers(min_value=0, max_value=2**64 - 1), st.integers(1, 20),
       st.booleans(), st.data())
@settings(max_examples=50, deadline=None)
def test_block_from_a_row_offset_equals_the_block_tail(kind, dim, seed, count,
                                                       truncate, data):
    # row i starts at word i * words_per_row, truncated rows included, so a
    # chunk of rows can be drawn without drawing the rows before it; a
    # truncation at 1 sigma rejects a large share of the rows
    truncate = truncate and kind == "scaled-gaussian"
    sampler = NoiseSampler(kind, 1.0, dim, truncate)
    i = data.draw(st.integers(0, count - 1))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(noise, "GAUSSIAN_TRUNCATION", 1.0)
        block = sampler.sample_block(Rng(seed), count)
        tail = sampler.sample_block(
            Rng(seed, start=i * sampler.words_per_row), count - i)
    assert np.array_equal(tail, block[i:])
    if truncate:
        assert np.all(np.linalg.norm(block, axis=1) <= 1.0)


@pytest.mark.parametrize("raising", ["calling", "worker"])
def test_chunk_error_is_raised_on_the_calling_thread(monkeypatch, capfd,
                                                     raising):
    # chunks alternate between the calling thread and one worker thread;
    # one of the two raises in its first chunk
    monkeypatch.setattr(noise, "_workers", lambda: 2)
    caller = threading.current_thread()
    threads = threading.active_count()

    def count(rng, n, work):
        on_caller = threading.current_thread() is caller
        if on_caller == (raising == "calling"):
            raise InvalidArgument(f"chunk on the {raising} thread")
        return n

    monkeypatch.setattr(noise, "_CHUNK_WORDS", 30)  # 10 trials of 3 words
    with pytest.raises(InvalidArgument, match=raising):
        noise._trial_counts(100, 3, 0, count)
    assert threading.active_count() == threads
    assert capfd.readouterr().err == ""


def test_chunks_count_every_trial_once(monkeypatch):
    def count(rng, n, work):
        return np.array([n, 1])

    monkeypatch.setattr(noise, "_CHUNK_WORDS", 21)  # 10 trials of 2 words
    for workers in (1, 2, 3):
        monkeypatch.setattr(noise, "_workers", lambda: workers)
        assert list(noise._trial_counts(105, 2, 0, count)) == [105, 11]


def test_truncated_estimate_does_not_depend_on_threads_or_chunks(
        monkeypatch):
    # at a bound of 2 sigma about one row in 55 is redrawn; the estimate
    # equals the one-thread, one-chunk estimate for chunks of a count that
    # does not divide the trials and of every trial on 1, 2 or 3 threads,
    # and for chunks of one trial (10^4 chunks) on 3 threads
    monkeypatch.setattr(noise, "GAUSSIAN_TRUNCATION", 2.0)
    sampler = NoiseSampler("scaled-gaussian", 1.0, 2, truncate=True)
    slab = NarrowSet.centered(np.array([0.6, 0.8]), 0.5)
    n, words = 10_000, sampler.words_per_row
    monkeypatch.setattr(noise, "_workers", lambda: 1)
    monkeypatch.setattr(noise, "_CHUNK_WORDS", n * words)
    reference = estimate_set_probability(sampler, slab, n, seed=4)
    assert 0 < reference.hits < n
    cases = [(workers, budget) for workers in (1, 2, 3)
             for budget in (999 * words + words - 1, n * words)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for workers, budget in cases + [(3, 1)]:
            monkeypatch.setattr(noise, "_workers", lambda: workers)
            monkeypatch.setattr(noise, "_CHUNK_WORDS", budget)
            assert estimate_set_probability(sampler, slab, n, seed=4) == \
                reference, (workers, budget)
    finally:
        sys.setswitchinterval(interval)


def test_narrow_set_validation_and_membership():
    with pytest.raises(InvalidArgument):
        NarrowSet(np.array([1.0, 1.0]), 0.0, 0.1)
    with pytest.raises(InvalidArgument):
        NarrowSet(np.array([1.0, 0.0]), 0.0, -0.1)
    slab = NarrowSet(np.array([1.0, 0.0]), -0.05, 0.1)
    assert slab.contains(np.array([0.0, 3.0]))
    assert not slab.contains(np.array([0.2, 0.0]))
    batch = slab.contains(np.array([[0.0, 0.0], [1.0, 0.0]]))
    assert list(batch) == [True, False]


@given(st.integers(min_value=0, max_value=2**32))
@settings(max_examples=20, deadline=None)
def test_narrow_property_random_probes(seed):
    # u inside the slab, q > width => u + q v outside
    rng = Rng(seed)
    v = rng.normals(4)
    v /= np.linalg.norm(v)
    width = 0.3
    slab = NarrowSet.centered(v, width)
    for _ in range(500):
        x = rng.normals(4)
        offset = (float(rng.uniforms(1)[0]) - 0.5) * width
        u = x + (-(x @ v) + offset) * v
        assert slab.contains(u)
        q = width * (1.0 + 1e-9 + float(rng.uniforms(1)[0]))
        assert not slab.contains(u + q * v)


def test_estimate_requires_enough_samples():
    sampler = NoiseSampler("uniform-ball", 1.0, 2)
    slab = NarrowSet.centered(np.array([1.0, 0.0]), 0.1)
    with pytest.raises(InvalidArgument):
        estimate_set_probability(sampler, slab, 100, seed=0)


def test_estimate_zero_width_slab():
    sampler = NoiseSampler("uniform-ball", 1.0, 2)
    slab = NarrowSet(np.array([1.0, 0.0]), 0.3, 0.0)
    est = estimate_set_probability(sampler, slab, 10_000, seed=0)
    assert est.frequency == 0.0


def test_estimate_deterministic_given_seed():
    sampler = NoiseSampler("uniform-sphere", 1.0, 3)
    slab = NarrowSet.centered(np.array([0.0, 1.0, 0.0]), 0.2)
    a = estimate_set_probability(sampler, slab, 10_000, seed=5)
    b = estimate_set_probability(sampler, slab, 10_000, seed=5)
    assert a == b


@pytest.mark.parametrize("kind,dim", [("scaled-gaussian", 4),
                                      ("uniform-ball", 3),
                                      ("uniform-sphere", 5)])
def test_dispersive_property_at_critical_width(kind, dim):
    sampler = NoiseSampler(kind, 1.0, dim)
    direction = np.zeros(dim)
    direction[0] = 1.0
    slab = NarrowSet.centered(direction, dispersive_width(1.0, dim))
    est = estimate_set_probability(sampler, slab, 50_000, seed=2)
    assert est.frequency - est.half_width <= 0.25

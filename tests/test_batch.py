"""The batched control loop: a seed's run, trial or stored episode is
bitwise the same alone and inside any batch, every stored step replays
from the noise addressed by its seed and step, and a batch's trace holds
the totals of its runs."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ballsgd import noise as noise_module, optimizer
from ballsgd.diagnostics import coupled_escape_trial, escape_frequency
from ballsgd.errors import InvalidArgument, NonFinite
from ballsgd.hyperparams import manual_schedule
from ballsgd.noise import NoiseSampler
from ballsgd.optimizer import (ALGORITHMS, BUDGET_EXHAUSTED, RunBatch,
                               RunResult, run_ball_sgd)
from ballsgd.problems import MatrixFactorization, Quadratic, QuarticSaddle
from helpers import Rng

QUARTIC = QuarticSaddle(2)
E1 = np.array([1.0, 0.0])
OBJECTIVES = pytest.mark.parametrize("obj", [
    QUARTIC,
    Quadratic(np.array([[-0.5, 0.2], [0.2, 1.0]]), np.zeros(2)),
    MatrixFactorization(np.diag([0.5, 1.5, 3.0]), 2)],
    ids=["quartic", "quadratic", "matrix-factorization"])


def schedule(obj, eta=0.01, k0=3000, ko=400):
    return manual_schedule(obj.constants, eta=eta, ball_radius=0.5, k0=k0,
                           ko=ko, epsilon=6e-5, p=0.1)


def ball_noise(sigma, dim=2):
    return NoiseSampler("uniform-ball", sigma, dim)


def arrays(result):
    """The result's arrays as bytes: output, anchors, stored iterates."""
    out = [None if result.trace.output is None
           else result.trace.output.tobytes()]
    for e in result.trace.episodes:
        out.append(e.anchor.tobytes())
        if e.iterates is not None:
            out.append(e.iterates.tobytes())
    return out


def assert_replays(obj, noise, sched, result, inject):
    """Every stored step of result is bitwise x - eta (grad(x) + xi) on a
    one-row block, where xi is row t of stream seed at the run's global
    step t plus, when inject and the in-episode step is a multiple of ko,
    the run's next row of stream seed ^ _INJECTION_KEY."""
    injection = NoiseSampler("scaled-gaussian", obj.constants.sigma,
                             obj.dim)
    seed, injections = result.seed, 0
    previous = None
    for e in result.trace.episodes:
        xs = e.iterates
        assert len(xs) == e.length + 1
        if previous is not None:
            assert np.array_equal(xs[0], previous)
        for k in range(e.length):
            t = e.start_step + k
            xi = noise.rows(seed, t * noise.words_per_row, 1)
            if inject and k % sched.ko == 0:
                xi[0] += injection.rows(
                    seed ^ optimizer._INJECTION_KEY,
                    injections * injection.words_per_row, 1)[0]
                injections += 1
            step = xs[k:k + 1] - sched.eta * (obj.gradient(xs[k:k + 1]) + xi)
            assert np.array_equal(xs[k + 1], step[0]), (e.index, k)
        previous = xs[-1]
    assert injections == result.trace.injections


def assert_matches_alone(obj, noise, sched, seeds, **options):
    x0 = np.zeros(obj.dim)
    batch = run_ball_sgd(obj, noise, sched, x0, seeds, **options)
    assert isinstance(batch, RunBatch)
    assert [r.seed for r in batch.results] == list(seeds)
    for seed, result in zip(seeds, batch.results):
        alone = run_ball_sgd(obj, noise, sched, x0, seed, **options)
        assert isinstance(alone, RunResult)
        assert result.to_dict() == alone.to_dict()
        assert arrays(result) == arrays(alone)
    return batch


@settings(max_examples=20, deadline=None)
@given(seeds=st.lists(st.integers(0, 2 ** 32), min_size=1, max_size=64,
                      unique=True),
       dim=st.sampled_from([2, 4]), algorithm=st.sampled_from(ALGORITHMS),
       k0=st.integers(5, 120), ko=st.integers(1, 40))
def test_batch_results_equal_each_seed_alone(seeds, dim, algorithm, k0, ko):
    obj = QuarticSaddle(dim)
    assert_matches_alone(obj, ball_noise(1.0, dim),
                         schedule(obj, eta=0.05, k0=k0, ko=ko), seeds,
                         algorithm=algorithm,
                         budget_mode="unlimited-episodes", max_steps=1500)


@pytest.mark.parametrize("m", [1, 7, 64, 1000])
def test_block_gradients_equal_each_point_alone(m):
    # the quadratic and matrix-factorization gradients of a block are
    # stacked products, which numpy computes item by item with the kernel
    # of the 2-D product; a product over the whole block (x @ H.T) can
    # differ from the per-row one in the last bit
    rng = Rng(m)
    for d in (1, 2, 3, 8, 32, 128, 200):
        A = rng.normal_rows(d, d)
        H, b = A + A.T, rng.normals(d)
        obj = Quadratic(H, b)
        x = rng.normal_rows(m, d)
        expected = np.array([H @ v + b for v in x])
        assert np.array_equal(obj.gradient(x), expected), d
        assert np.array_equal(obj.gradient(x[0]), expected[0]), d
    for n, r in ((3, 2), (8, 3), (45, 2)):
        A = rng.normal_rows(n, n)
        M = A @ A.T
        obj = MatrixFactorization(M, r)
        x = rng.normal_rows(m, n * r)
        expected = np.array([((U @ U.T - M) @ U).ravel()
                             for U in x.reshape(m, n, r)])
        assert np.array_equal(obj.gradient(x), expected), (n, r)
        assert np.array_equal(obj.gradient(x[0]), expected[0]), (n, r)


def test_a_refill_is_one_draw_for_any_number_of_seeds(monkeypatch):
    # every refill reads the noise of all the batch's rows in one
    # NoiseSampler.rows call, however many seeds (and repeated seeds) run
    draws, refills = [], []
    rows, draw_noise = NoiseSampler.rows, optimizer._Batch._draw_noise

    def counted_rows(sampler, seeds, starts, count, work=None):
        draws.append(np.shape(seeds))
        return rows(sampler, seeds, starts, count, work)

    def counted_refill(batch):
        refills.append(len(batch.slot))
        return draw_noise(batch)

    monkeypatch.setattr(NoiseSampler, "rows", counted_rows)
    monkeypatch.setattr(optimizer._Batch, "_draw_noise", counted_refill)
    monkeypatch.setattr(noise_module, "_CHUNK_WORDS", 2000)
    for seeds in ([5], list(range(50)), [3, 1] * 25):
        draws.clear()
        refills.clear()
        run_ball_sgd(QUARTIC, ball_noise(1.0), schedule(QUARTIC, k0=300),
                     np.zeros(2), seeds, budget_mode="unlimited-episodes",
                     max_steps=1200)
        assert len(refills) > 1
        assert draws == [(m,) for m in refills]


@pytest.mark.parametrize("call", [
    lambda noise, sched: run_ball_sgd(QUARTIC, noise, sched, np.zeros(2),
                                      seed=[]),
    lambda noise, sched: run_ball_sgd(QUARTIC, noise, sched, np.zeros(2),
                                      seed=[], algorithm="noise-scheduled"),
    lambda noise, sched: coupled_escape_trial(
        QUARTIC, noise, sched, np.zeros(2), 0.01, E1, seeds=[]),
    # the seed ranges a zero and a negative --n-seeds count would build
    lambda noise, sched: escape_frequency(QUARTIC, noise, sched,
                                          np.zeros(2), range(7, 7 + 0)),
    lambda noise, sched: escape_frequency(QUARTIC, noise, sched,
                                          np.zeros(2), range(7, 7 - 3)),
    lambda noise, sched: escape_frequency(QUARTIC, noise, sched,
                                          np.zeros(2), range(5),
                                          algorithm="sgd"),
], ids=["run_ball_sgd-empty", "run_ball_sgd-noise-scheduled-empty",
        "coupled-empty", "escape-zero", "escape-negative",
        "escape-unknown-algorithm"])
def test_no_seed_or_unknown_algorithm_is_invalid(call):
    # an empty batch would report k0_reached vacuously, and a frequency
    # over no trials has no value
    with pytest.raises(InvalidArgument):
        call(ball_noise(1.0), schedule(QUARTIC))


def test_batch_trace_holds_the_totals():
    batch = run_ball_sgd(QUARTIC, ball_noise(1.0), schedule(QUARTIC),
                         np.zeros(2), [3, 1, 2], algorithm="noise-scheduled",
                         budget_mode="unlimited-episodes")
    results = batch.results
    assert batch.trace.total_steps == sum(r.trace.total_steps
                                          for r in results)
    assert batch.trace.exits == sum(r.trace.exits for r in results)
    assert batch.trace.injections == sum(r.trace.injections
                                         for r in results)
    assert batch.trace.episodes == [e for r in results
                                    for e in r.trace.episodes]
    assert batch.trace.k0_reached


@pytest.mark.parametrize("call", [
    lambda noise, sched, algorithm: run_ball_sgd(
        QUARTIC, noise, sched, np.zeros(2), 0, algorithm=algorithm),
    lambda noise, sched, algorithm: escape_frequency(
        QUARTIC, noise, sched, np.zeros(2), range(20), algorithm=algorithm),
    lambda noise, sched, algorithm: coupled_escape_trial(
        QUARTIC, noise, sched, np.zeros(2), 0.01, E1, range(20),
        algorithm=algorithm),
], ids=["run_ball_sgd", "escape_frequency", "coupled_escape_trial"])
@pytest.mark.parametrize("noise, algorithm", [
    (ball_noise(1.0, dim=1), "ball-sgd"),
    (ball_noise(1.0, dim=1), "noise-scheduled"),
    (ball_noise(1.0), "bogus")],
    ids=["1d-noise-ball-sgd", "1d-noise-noise-scheduled", "bogus-algorithm"])
def test_every_entry_point_checks_the_run_preconditions(call, noise,
                                                         algorithm):
    # a 1-D noise row would broadcast across the d=2 coordinates
    with pytest.raises(InvalidArgument):
        call(noise, schedule(QUARTIC), algorithm)


@pytest.mark.parametrize("q", [0.01 / 8, 1.0])
def test_coupled_seed_list_equals_single_trials(q):
    sched = schedule(QUARTIC, ko=800)
    seeds = [4, 0, 9, 2, 7, 4]
    together = coupled_escape_trial(QUARTIC, ball_noise(1.0), sched,
                                    np.zeros(2), q, E1, seeds)
    assert together == [outcome for s in seeds
                        for outcome in coupled_escape_trial(
                            QUARTIC, ball_noise(1.0), sched, np.zeros(2), q,
                            E1, [s])]


@OBJECTIVES
def test_stored_episodes_equal_each_seed_alone(obj):
    for algorithm in ALGORITHMS:
        assert_matches_alone(obj, ball_noise(1.0, obj.dim),
                             schedule(obj, k0=300, ko=50), [6, 1, 3],
                             algorithm=algorithm,
                             budget_mode="unlimited-episodes",
                             max_steps=900, store_iterates=True)


@OBJECTIVES
def test_every_stored_step_replays_from_the_addressed_noise(obj):
    # the runs of a batch, repeated seed included, each with exits, so the
    # episodes after the first start at a global step t > 0 and their
    # injections continue the run's count
    noise = ball_noise(1.0, obj.dim)
    sched = schedule(obj, eta=0.03, k0=300, ko=50)
    for algorithm in ALGORITHMS:
        batch = run_ball_sgd(obj, noise, sched, np.zeros(obj.dim),
                             [6, 1, 3, 6], algorithm=algorithm,
                             budget_mode="unlimited-episodes", max_steps=900,
                             store_iterates=True)
        for result in batch.results:
            assert result.trace.exits >= 1
            assert_replays(obj, noise, sched, result,
                           inject=algorithm == "noise-scheduled")


@pytest.mark.parametrize("obj", [QUARTIC, MatrixFactorization(
    np.diag([0.5, 1.5, 3.0]), 2)], ids=["quartic", "matrix-factorization"])
def test_no_recorded_array_shares_memory_with_the_live_iterate(
        obj, monkeypatch):
    # a step updates the live (m, d) iterate in place, so the anchors,
    # outputs and stored iterates a run hands out must be copies
    live = []
    end = optimizer._Batch._end

    def recording_end(self, i, exited):
        live.append(self.x)
        return end(self, i, exited)

    monkeypatch.setattr(optimizer._Batch, "_end", recording_end)
    for store in (False, True):
        batch = run_ball_sgd(obj, ball_noise(1.0, obj.dim),
                             schedule(obj, eta=0.03, k0=300, ko=50),
                             np.zeros(obj.dim), [6, 1, 3],
                             budget_mode="unlimited-episodes", max_steps=2000,
                             store_iterates=store)
        assert batch.trace.exits >= 1 and batch.trace.k0_reached
        held = [r.trace.output for r in batch.results]
        for e in batch.trace.episodes:
            held += [e.anchor] + ([e.iterates] if store else [])
        assert not any(np.shares_memory(x, a) for x in live for a in held)


@OBJECTIVES
def test_a_run_evaluates_f_once_per_episode_boundary(obj, monkeypatch):
    # f once at the first anchor, which every run of a batch shares, then
    # f at each episode's end, which an exit episode hands on as the next
    # episode's f at its anchor
    calls = []
    value = type(obj).value

    def counted_value(self, x):
        calls.append(1)
        return value(self, x)

    monkeypatch.setattr(type(obj), "value", counted_value)
    sched = schedule(obj, eta=0.03, k0=300, ko=50)
    for algorithm in ALGORITHMS:
        for seed in (6, [6, 1, 3]):
            calls.clear()
            result = run_ball_sgd(obj, ball_noise(1.0, obj.dim), sched,
                                  np.zeros(obj.dim), seed,
                                  algorithm=algorithm,
                                  budget_mode="unlimited-episodes",
                                  max_steps=900)
            assert result.trace.exits >= 1
            assert len(calls) == len(result.trace.episodes) + 1
            for run in getattr(result, "results", [result]):
                episodes = run.trace.episodes
                for before, after in zip(episodes, episodes[1:]):
                    assert after.f_anchor == before.f_end


@pytest.mark.parametrize("rows,words", [(1, None), (7, None), (None, 24),
                                        (7, 24)])
def test_results_do_not_depend_on_the_refill_size(monkeypatch, rows, words):
    # at a bound of 1 sigma over a third of the truncated rows are redrawn;
    # a budget of 24 words gives refills of 3 to 12 rows of 2 words as the
    # batch's runs finish
    monkeypatch.setattr(noise_module, "GAUSSIAN_TRUNCATION", 1.0)
    noise = NoiseSampler("scaled-gaussian", 1.0, 2, truncate=True)
    sched = schedule(QUARTIC, k0=300, ko=7)
    seeds = [4, 2, 4, 9]

    def runs():
        return [run_ball_sgd(QUARTIC, noise, sched, np.zeros(2), seeds,
                             algorithm=algorithm,
                             budget_mode="unlimited-episodes", max_steps=3000,
                             store_iterates=True).results
                for algorithm in ALGORITHMS]

    reference = runs()
    if rows is not None:
        monkeypatch.setattr(optimizer, "_NOISE_ROWS", rows)
    if words is not None:
        monkeypatch.setattr(noise_module, "_CHUNK_WORDS", words)
    for results, expected in zip(runs(), reference):
        assert len({r.trace.total_steps for r in expected}) > 1
        for result, alone in zip(results, expected):
            assert result.to_dict() == alone.to_dict()
            assert arrays(result) == arrays(alone)


@pytest.mark.parametrize("cache", [1, 3, 8])
def test_injections_come_from_a_per_run_cache_of_any_size(monkeypatch,
                                                          cache):
    # the seeds finish at different steps, so rows whose caches are partly
    # used are compacted away; an injection on every step empties a run's
    # cache every `cache` steps, and each empty cache of a step is refilled
    # in one draw with every other run's
    sched = schedule(QUARTIC, k0=300, ko=1)
    seeds = [4, 2, 4, 9]

    def run():
        return run_ball_sgd(QUARTIC, ball_noise(1.0), sched, np.zeros(2),
                            seeds, algorithm="noise-scheduled",
                            budget_mode="unlimited-episodes", max_steps=3000,
                            store_iterates=True)

    reference = run()
    draws = []
    rows = NoiseSampler.rows

    def counted_rows(sampler, seeds, starts, count, work=None):
        if sampler.kind == "scaled-gaussian":
            draws.append((np.size(seeds), count))
        return rows(sampler, seeds, starts, count, work)

    monkeypatch.setattr(optimizer, "_INJECTION_ROWS", cache)
    monkeypatch.setattr(NoiseSampler, "rows", counted_rows)
    batch = run()
    assert len({r.trace.total_steps for r in reference.results}) > 1
    for result, expected in zip(batch.results, reference.results):
        assert result.to_dict() == expected.to_dict()
        assert arrays(result) == arrays(expected)
    assert {count for _, count in draws} == {cache}
    assert sum(n for n, _ in draws) == sum(
        -(-r.trace.injections // cache) for r in batch.results)


def test_budget_ends_mid_episode_and_at_an_episode_boundary():
    sched = schedule(QUARTIC)
    first = run_ball_sgd(QUARTIC, ball_noise(1.0), sched, np.zeros(2), 5,
                         budget_mode="unlimited-episodes")
    exit_step = first.trace.episodes[0].length
    assert first.trace.episodes[0].exited
    for budget, lengths in ((exit_step - 1, [exit_step - 1]),
                            (exit_step, [exit_step, 0])):
        batch = assert_matches_alone(QUARTIC, ball_noise(1.0), sched,
                                     [5, 0, 8], budget_mode="theorem",
                                     max_steps=budget, store_iterates=True)
        result = batch.results[0]
        assert [e.length for e in result.trace.episodes] == lengths
        assert result.terminated == BUDGET_EXHAUSTED
        assert result.trace.total_steps == budget


@pytest.mark.parametrize("cap", [1, 2])
def test_episode_cap(cap):
    batch = assert_matches_alone(QUARTIC, ball_noise(1.0),
                                 schedule(QUARTIC), [0, 1, 2, 3],
                                 budget_mode="unlimited-episodes",
                                 max_episodes=cap)
    assert all(r.trace.exits == cap for r in batch.results)


def test_zero_noise_and_injection_on_every_step():
    sched = schedule(QUARTIC, ko=1)
    for algorithm in ALGORITHMS:
        assert_matches_alone(QUARTIC, ball_noise(0.0), sched, [2, 0, 1],
                             algorithm=algorithm,
                             budget_mode="unlimited-episodes",
                             max_steps=2000, store_iterates=True)
    batch = run_ball_sgd(QUARTIC, ball_noise(0.0), sched, np.zeros(2),
                         [2, 0, 1], algorithm="noise-scheduled",
                         budget_mode="unlimited-episodes", max_steps=2000)
    assert batch.trace.injections == batch.trace.total_steps


def test_non_finite_iterate_inside_a_batch():
    obj = Quadratic(np.eye(2), np.zeros(2))
    sched = manual_schedule(obj.constants, eta=1e300, ball_radius=1e10,
                            k0=10, ko=10, epsilon=0.01)
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(NonFinite):
        run_ball_sgd(obj, ball_noise(1.0), sched, np.array([1e300, 0.0]),
                     [0, 1, 2], budget_mode="unlimited-episodes")


def test_episode_length_and_period_beyond_int64():
    # a theoretical schedule's k0 and ko can exceed 2^63; exits still end
    # the episodes of a saddle quadratic
    obj = Quadratic(np.diag([-1.0, 1.0]), np.zeros(2))
    sched = manual_schedule(obj.constants, eta=0.1, ball_radius=0.5,
                            k0=10 ** 24, ko=10 ** 23, epsilon=0.01)
    for algorithm in ALGORITHMS:
        batch = assert_matches_alone(obj, ball_noise(1.0), sched, [0, 1],
                                     algorithm=algorithm,
                                     budget_mode="unlimited-episodes",
                                     max_episodes=3)
        assert all(r.trace.exits == 3 for r in batch.results)

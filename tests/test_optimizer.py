import dataclasses

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ballsgd.errors import InvalidArgument, NonFinite
from ballsgd.hyperparams import manual_schedule
from ballsgd.noise import NoiseSampler
from ballsgd.optimizer import (BUDGET_EXHAUSTED, CONVERGED, EpisodeRecord,
                               RunResult, RunTrace, descent_pass_fraction,
                               descent_threshold, run_ball_sgd)
from ballsgd.problems import Quadratic, QuarticSaddle

QUARTIC = QuarticSaddle(2)
PRACTICAL = manual_schedule(QUARTIC.constants, eta=0.01, ball_radius=0.5,
                            k0=3000, ko=400, epsilon=6e-5, p=0.1)


def ball_noise(sigma, dim=2):
    return NoiseSampler("uniform-ball", sigma, dim)


def first_step(obj, sched, x, sigma=0.0):
    """The first SGD step of a run from x (with its one noise draw)."""
    result = run_ball_sgd(obj, ball_noise(sigma, obj.dim), sched, x, seed=0,
                          budget_mode="unlimited-episodes", max_steps=1,
                          store_iterates=True)
    assert result.trace.total_steps == 1
    return result.trace.episodes[0].iterates[1]


def test_sgd_step_fixed_point():
    obj = Quadratic(np.zeros((2, 2)), np.zeros(2))
    x = np.array([1.0, 2.0])
    assert np.array_equal(first_step(obj, PRACTICAL, x), x)


def test_sgd_step_linear_contraction():
    obj = Quadratic(np.eye(2), np.zeros(2))
    sched = manual_schedule(obj.constants, eta=0.1, ball_radius=5.0,
                            k0=10, ko=10, epsilon=0.01)
    assert np.allclose(first_step(obj, sched, np.array([1.0, 0.0])),
                       [0.9, 0.0])


def test_sgd_step_zero_eta_is_identity():
    x = np.array([0.3, -0.1])
    frozen = dataclasses.replace(PRACTICAL, eta=0.0)
    assert np.array_equal(first_step(QUARTIC, frozen, x, sigma=1.0), x)
    with pytest.raises(InvalidArgument):
        manual_schedule(QUARTIC.constants, eta=-0.1, ball_radius=0.5,
                        k0=3000, ko=400, epsilon=6e-5)


def test_sgd_step_counts_one_gradient():
    calls = []

    class Counted(type(QUARTIC)):
        def gradient(self, x):
            calls.append(1)
            return super().gradient(x)

    result = run_ball_sgd(Counted(2), ball_noise(1.0), PRACTICAL,
                          np.zeros(2), seed=0,
                          budget_mode="unlimited-episodes", max_steps=1)
    assert len(calls) == 1
    assert result.trace.sg_cost == 1


def test_sgd_step_detects_divergence():
    obj = Quadratic(np.eye(2), np.zeros(2))
    sched = manual_schedule(obj.constants, eta=1e300, ball_radius=1e10,
                            k0=10, ko=10, epsilon=0.01)
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(NonFinite):
        run_ball_sgd(obj, ball_noise(0.0), sched, np.array([1e300, 0.0]),
                     seed=0, budget_mode="unlimited-episodes")


def test_local_minimum_with_zero_noise_converges_to_itself():
    x_init = QUARTIC.minimizer()
    result = run_ball_sgd(QUARTIC, ball_noise(0.0), PRACTICAL, x_init,
                          seed=0, budget_mode="unlimited-episodes")
    assert result.terminated == CONVERGED
    assert result.trace.total_steps == PRACTICAL.k0
    assert result.trace.exits == 0
    assert np.allclose(result.trace.output, x_init, atol=1e-12)


def test_convex_quadratic_monotone_descent():
    obj = Quadratic(np.eye(2), np.zeros(2), sigma=0.0)
    sched = manual_schedule(obj.constants, eta=0.1, ball_radius=5.0,
                            k0=200, ko=100, epsilon=0.01)
    result = run_ball_sgd(obj, ball_noise(0.0), sched,
                          np.array([3.0, -4.0]), seed=0,
                          budget_mode="unlimited-episodes",
                          store_iterates=True)
    assert result.terminated == CONVERGED
    values = [obj.value(np.asarray(x))
              for x in result.trace.episodes[-1].iterates]
    assert all(b < a for a, b in zip(values, values[1:]))


def test_episode_ball_invariants():
    result = run_ball_sgd(QUARTIC, ball_noise(1.0), PRACTICAL, np.zeros(2),
                          seed=3, budget_mode="unlimited-episodes",
                          store_iterates=True)
    assert result.trace.exits >= 1
    for episode in result.trace.episodes:
        xs = np.asarray(episode.iterates)
        dists = np.linalg.norm(xs - episode.anchor, axis=1)
        if episode.exited:
            assert dists[-1] > PRACTICAL.ball_radius
            assert np.all(dists[:-1] <= PRACTICAL.ball_radius)
        else:
            assert np.all(dists[:-1] <= PRACTICAL.ball_radius)


def test_converged_output_is_mean_of_final_episode():
    result = run_ball_sgd(QUARTIC, ball_noise(1.0), PRACTICAL, np.zeros(2),
                          seed=4, budget_mode="unlimited-episodes",
                          store_iterates=True)
    assert result.terminated == CONVERGED
    final = result.trace.episodes[-1]
    xs = np.asarray(final.iterates)[:PRACTICAL.k0]
    assert np.max(np.abs(xs.mean(axis=0) - result.trace.output)) <= 1e-12


def test_run_determinism():
    a = run_ball_sgd(QUARTIC, ball_noise(1.0), PRACTICAL, np.zeros(2),
                     seed=5, budget_mode="unlimited-episodes")
    b = run_ball_sgd(QUARTIC, ball_noise(1.0), PRACTICAL, np.zeros(2),
                     seed=5, budget_mode="unlimited-episodes")
    assert a.to_dict() == b.to_dict()
    assert np.array_equal(a.trace.output, b.trace.output)
    # to_dict writes no anchor points; compare them here
    assert all(np.array_equal(e.anchor, f.anchor)
               for e, f in zip(a.trace.episodes, b.trace.episodes))


def test_sg_cost_equals_total_steps():
    result = run_ball_sgd(QUARTIC, ball_noise(1.0), PRACTICAL, np.zeros(2),
                          seed=6, budget_mode="unlimited-episodes")
    assert result.trace.sg_cost == result.trace.total_steps


def test_budget_mode_caps_total_steps():
    result = run_ball_sgd(QUARTIC, ball_noise(1.0), PRACTICAL, np.zeros(2),
                          seed=7, budget_mode="unlimited-episodes",
                          max_steps=50)
    assert result.terminated == BUDGET_EXHAUSTED
    assert result.trace.total_steps == 50


def test_invalid_budget_mode():
    with pytest.raises(InvalidArgument):
        run_ball_sgd(QUARTIC, ball_noise(1.0), PRACTICAL, np.zeros(2),
                     seed=0, budget_mode="bogus")


def test_noise_dimension_mismatch():
    with pytest.raises(InvalidArgument):
        run_ball_sgd(QUARTIC, ball_noise(1.0, dim=3), PRACTICAL,
                     np.zeros(2), seed=0)


@pytest.mark.parametrize("cap", [
    {"max_episodes": 0}, {"max_episodes": -5},
    {"max_steps": 0}, {"max_steps": -3}],
    ids=["episodes-0", "episodes-negative", "steps-0", "steps-negative"])
def test_cap_below_one_is_invalid(cap):
    # a run takes at least one step of at least one episode
    with pytest.raises(InvalidArgument):
        run_ball_sgd(QUARTIC, ball_noise(1.0), PRACTICAL, np.zeros(2),
                     seed=0, budget_mode="unlimited-episodes", **cap)


@pytest.mark.parametrize("cap", [
    {"max_episodes": 1.5}, {"max_episodes": 2.0}, {"max_episodes": True},
    {"max_steps": 2.5}, {"max_steps": np.float64(100.0)},
    {"max_steps": True}, {"max_steps": "100"}],
    ids=["episodes-fraction", "episodes-float", "episodes-bool",
         "steps-fraction", "steps-numpy-float", "steps-bool", "steps-str"])
def test_cap_that_is_not_an_integer_is_invalid(cap):
    # a fractional cap used to run to the next whole exit or be cut down
    with pytest.raises(InvalidArgument):
        run_ball_sgd(QUARTIC, ball_noise(1.0), PRACTICAL, np.zeros(2),
                     seed=0, budget_mode="unlimited-episodes", **cap)


@pytest.mark.parametrize("x_init", [np.zeros(3), np.zeros((2, 2))],
                         ids=["length-3", "matrix"])
@pytest.mark.parametrize("seed", [0, [0, 1]], ids=["int", "sequence"])
def test_start_point_dimension_mismatch(x_init, seed):
    with pytest.raises(InvalidArgument):
        run_ball_sgd(QUARTIC, ball_noise(1.0), PRACTICAL, x_init, seed)


def test_injection_only_at_episode_start_when_ko_exceeds_k0():
    sched = manual_schedule(QUARTIC.constants, eta=0.01, ball_radius=0.5,
                            k0=300, ko=1000, epsilon=6e-5)
    result = run_ball_sgd(QUARTIC, ball_noise(1.0), sched, np.zeros(2),
                          seed=8, algorithm="noise-scheduled",
                          budget_mode="unlimited-episodes")
    expected = sum(1 + (e.length - 1) // sched.ko
                   for e in result.trace.episodes if e.length >= 1)
    assert result.trace.injections == expected
    short = [e for e in result.trace.episodes if e.length <= sched.ko]
    # every episode no longer than ko contributes exactly its k=0 injection
    assert len(short) <= result.trace.injections


def test_injection_count_bookkeeping():
    result = run_ball_sgd(QUARTIC, ball_noise(1.0), PRACTICAL, np.zeros(2),
                          seed=9, algorithm="noise-scheduled",
                          budget_mode="unlimited-episodes",
                          store_iterates=True)
    expected = sum(1 + (e.length - 1) // PRACTICAL.ko
                   for e in result.trace.episodes if e.length >= 1)
    assert result.trace.injections == expected


def test_noise_scheduled_escapes_without_base_noise():
    escapes = 0
    for seed in range(30):
        result = run_ball_sgd(QUARTIC, ball_noise(0.0), PRACTICAL,
                              np.zeros(2), seed=seed,
                              algorithm="noise-scheduled",
                              budget_mode="unlimited-episodes",
                              max_episodes=1, max_steps=PRACTICAL.k0)
        escapes += result.trace.exits >= 1
    assert escapes >= 27


def test_descent_threshold_formula():
    expected = PRACTICAL.ball_radius ** 2 / (7.0 * PRACTICAL.eta
                                             * PRACTICAL.k0)
    assert descent_threshold(PRACTICAL) == pytest.approx(expected)


def test_descent_report_vacuous_without_exits():
    result = run_ball_sgd(QUARTIC, ball_noise(0.0), PRACTICAL,
                          QUARTIC.minimizer(), seed=0,
                          budget_mode="unlimited-episodes")
    assert not any(e.exited for e in result.trace.episodes)
    assert descent_pass_fraction(result) == 1.0


def test_descent_report_flags_forced_failure():
    trace = RunTrace()
    trace.episodes.append(EpisodeRecord(
        index=0, start_step=0, anchor=np.zeros(2), length=10,
        f_anchor=1.0, f_end=1.0 - 1e-9, exited=True))
    result = RunResult(trace=trace, schedule=PRACTICAL, seed=0)
    assert not trace.episodes[0].descended(descent_threshold(PRACTICAL))
    assert descent_pass_fraction(result) == 0.0


_F = st.floats(-1.0, 1.0)


@given(st.lists(st.tuples(st.booleans(), _F, _F), max_size=12))
def test_descent_pass_fraction_is_the_share_of_exits_that_descended(
        episodes):
    # the drops straddle the threshold (0.0012 for PRACTICAL), and an empty
    # list or one without exits passes vacuously
    threshold = descent_threshold(PRACTICAL)
    trace = RunTrace(episodes=[EpisodeRecord(
        index=i, start_step=0, anchor=np.zeros(2), length=1,
        f_anchor=f_anchor, f_end=f_anchor - drop / 100.0, exited=exited)
        for i, (exited, f_anchor, drop) in enumerate(episodes)])
    result = RunResult(trace=trace, schedule=PRACTICAL, seed=0)
    exits = [e for e in trace.episodes if e.exited]
    passed = sum(e.f_anchor - e.f_end >= threshold for e in exits)
    expected = passed / len(exits) if exits else 1.0
    assert descent_pass_fraction(result) == expected

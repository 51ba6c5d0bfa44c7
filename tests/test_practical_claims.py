"""Practical-schedule counterparts of the theoretical-schedule claims.

The fully theoretical schedule is not executable at desk scale (see
test_acceptance.py), so the same probabilistic claims are checked here
under a hand-calibrated schedule on the quartic saddle: eta = 0.01,
B = 0.5, K0 = 3000, Ko = 800, epsilon = 6e-5, p = 0.1, uniform-ball noise
with sigma = 1.  The escape claims are checked for both algorithms: the
noise-scheduled variant runs on zero base noise, so only its injection
can escape the saddle.  The first four claims hold comfortably at these
settings; the difference-iterate bound does not (its constants lean on
the theoretical step size), so it is reported rather than asserted.
"""

import math

import numpy as np
import pytest

from ballsgd.certify import certify, dense_hessian
from ballsgd.diagnostics import (coupled_escape_trial, escape_frequency,
                                 quadratic_model_run)
from ballsgd.hyperparams import manual_schedule
from ballsgd.noise import NoiseSampler, hoeffding_half_width
from ballsgd.optimizer import (CONVERGED, descent_pass_fraction,
                               run_ball_sgd)
from ballsgd.problems import QuarticSaddle

P = 0.1
QUARTIC = QuarticSaddle(2)
SCHEDULE = manual_schedule(QUARTIC.constants, eta=0.01, ball_radius=0.5,
                           k0=3000, ko=800, epsilon=6e-5, p=P)


# (algorithm, base noise sigma, sigma of the noise that drives escape):
# the noise-scheduled injection is drawn at the problem's declared sigma
BOTH_ALGORITHMS = pytest.mark.parametrize(
    "algorithm, base_sigma, sigma",
    [("ball-sgd", 1.0, 1.0),
     ("noise-scheduled", 0.0, QUARTIC.constants.sigma)],
    ids=["ball-sgd", "noise-scheduled"])


def ball_noise(sigma=1.0):
    return NoiseSampler("uniform-ball", sigma, 2)


@BOTH_ALGORITHMS
def test_escape_frequency_claim(algorithm, base_sigma, sigma):
    n = 200
    report = escape_frequency(QUARTIC, ball_noise(base_sigma), SCHEDULE,
                              np.zeros(2), range(n), algorithm=algorithm)
    assert report.frequency >= 1.0 - P / 3.0 - report.half_width


@BOTH_ALGORITHMS
def test_paired_escape_claim(algorithm, base_sigma, sigma):
    n = 200
    _, vecs = np.linalg.eigh(dense_hessian(QUARTIC, np.zeros(2)))
    q0 = sigma * SCHEDULE.eta / (4.0 * math.sqrt(2.0))
    stuck = sum(outcome.both_stuck for outcome in coupled_escape_trial(
        QUARTIC, ball_noise(base_sigma), SCHEDULE, np.zeros(2), q0,
        vecs[:, 0], range(n), algorithm=algorithm))
    assert stuck / n <= 0.1 + hoeffding_half_width(n)


def test_episode_descent_claim():
    n = 60
    batch = run_ball_sgd(QUARTIC, ball_noise(), SCHEDULE, np.zeros(2),
                         range(n), budget_mode="unlimited-episodes")
    fractions = [descent_pass_fraction(result) for result in batch.results]
    assert float(np.mean(fractions)) >= 1.0 - 2.0 * P / 3.0 \
        - hoeffding_half_width(n)


def test_certification_claim():
    n = 60
    passed = 0
    converged = 0
    batch = run_ball_sgd(QUARTIC, ball_noise(), SCHEDULE, np.zeros(2),
                         range(n), budget_mode="unlimited-episodes")
    for result in batch.results:
        if result.terminated != CONVERGED:
            continue
        converged += 1
        passed += certify(QUARTIC, result.trace.output, SCHEDULE,
                          seed=result.seed).passed
    assert converged >= n // 2
    assert passed / converged >= 1.0 - P - hoeffding_half_width(converged)


def test_difference_iterate_bound_reported_only():
    # under this practical schedule the 3B/32 bound holds for most but not
    # all episodes (measured around 0.8); its 1 - p/6 guarantee needs the
    # theoretical step size, so here only sanity limits are asserted
    n = 40
    batch = run_ball_sgd(QUARTIC, ball_noise(), SCHEDULE, np.zeros(2),
                         range(n), budget_mode="unlimited-episodes",
                         max_episodes=1, max_steps=SCHEDULE.k0,
                         store_iterates=True)
    held = sum(trace.z_bound_ok for trace in
               quadratic_model_run(QUARTIC, np.zeros(2), batch.results))
    frequency = held / n
    assert 0.5 <= frequency <= 1.0


def test_schedule_under_test_is_marked_manual():
    assert not SCHEDULE.theoretical
    assert SCHEDULE.delta == pytest.approx(0.06)
    assert SCHEDULE.delta2 == pytest.approx(0.96)

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ballsgd.certify import dense_hessian
from ballsgd.diagnostics import (_exit_steps, coupled_escape_trial,
                                 escape_frequency,
                                 matrix_power_bound_check,
                                 quadratic_model_run, split_subspaces)
from ballsgd.errors import InvalidArgument
from ballsgd.hyperparams import manual_schedule
from ballsgd.noise import Frequency, NoiseSampler
from ballsgd.optimizer import ALGORITHMS, _Batch, run_ball_sgd
from ballsgd.problems import Quadratic, QuarticSaddle
from helpers import Rng, killed_chain_survival

QUARTIC = QuarticSaddle(2)
PRACTICAL = manual_schedule(QUARTIC.constants, eta=0.01, ball_radius=0.5,
                            k0=3000, ko=800, epsilon=6e-5, p=0.1)
E1 = np.array([1.0, 0.0])


def ball_noise(sigma, dim=2):
    return NoiseSampler("uniform-ball", sigma, dim)


def test_coupled_zero_offset_trajectories_coincide():
    for out in coupled_escape_trial(QUARTIC, ball_noise(1.0), PRACTICAL,
                                    np.zeros(2), 0.0, E1, range(5)):
        assert out.exit_a == out.exit_b


def test_coupled_offset_outside_ball_exits_immediately():
    [out] = coupled_escape_trial(QUARTIC, ball_noise(1.0), PRACTICAL,
                                 np.zeros(2), 2.0 * PRACTICAL.ball_radius,
                                 E1, 0)
    assert out.exit_b == 0


def test_exit_rule_is_the_loops_at_the_ball_boundary():
    # |start| is B by np.linalg.norm, but its squared distance, summed as
    # the step sums it, is above B^2: the start is outside and exits at 0
    start = np.array([-0.37229514225499455, 0.33376088304852836])
    assert not np.linalg.norm(start) > PRACTICAL.ball_radius
    assert np.add.reduce(start * start) > PRACTICAL.ball_radius ** 2
    assert _exit_steps(QUARTIC, ball_noise(1.0), PRACTICAL, np.zeros(2),
                       [start], [0], 400, "ball-sgd") == [0]


def test_exit_steps_follow_the_exact_exit_law():
    # f(x) = -gamma x^2 / 2 with N(0, sigma^2) noise makes ball-sgd from 0
    # the chain x_{t+1} = (1 + eta gamma) x_t - eta xi_t, which exits at the
    # first t with |x_t| > B; its survival S(t) = P(exit > t) is exact
    gamma, eta, radius, sigma, n, limit = 2.0, 0.05, 0.5, 1.0, 20_000, 200
    obj = Quadratic(np.array([[-gamma]]), np.zeros(1), sigma=sigma)
    sched = manual_schedule(obj.constants, eta=eta, ball_radius=radius,
                            k0=limit, ko=limit, epsilon=0.01)
    steps = np.array(_exit_steps(
        obj, NoiseSampler("scaled-gaussian", sigma, 1), sched, np.zeros(1),
        [np.zeros(1)] * n, range(n), limit, "ball-sgd"))
    simulated = (steps > np.arange(limit + 1)[:, None]).mean(axis=1)

    def law(scale, panels):
        return killed_chain_survival(1.0 + eta * gamma, eta * sigma * scale,
                                     radius, limit, panels)

    exact = law(1.0, 200)
    # the 99% DKW band (Massart's constant) plus the quadrature error
    band = math.sqrt(math.log(2.0 / 0.01) / (2.0 * n)) + float(
        np.max(np.abs(law(1.0, 100) - exact)))
    assert np.max(np.abs(simulated - exact)) <= band
    # controls: a 3% noise-scale error, and an exit one step early, fail
    assert np.max(np.abs(simulated - law(1.03, 200))) > band
    assert np.max(np.abs(simulated[:-1] - exact[1:])) > band


def test_coupled_rejects_non_unit_direction():
    with pytest.raises(InvalidArgument):
        coupled_escape_trial(QUARTIC, ball_noise(1.0), PRACTICAL,
                             np.zeros(2), 0.1, np.array([2.0, 0.0]), 0)


@pytest.mark.parametrize("u, q, direction, message", [
    (np.zeros(2), math.nan, E1, "finite"),
    (np.zeros(2), math.inf, E1, "finite"),
    (np.zeros(2), 0.1, np.array([math.nan, 0.0]), "unit vector"),
    (np.array([math.nan, 0.0]), 0.1, E1, "finite"),
    (np.array([0.0, math.inf]), 0.1, E1, "finite"),
], ids=["nan-q", "inf-q", "nan-direction", "nan-u", "inf-u"])
def test_coupled_rejects_non_finite_inputs_before_any_step(u, q, direction,
                                                          message):
    with pytest.raises(InvalidArgument, match=message):
        coupled_escape_trial(QUARTIC, ball_noise(1.0), PRACTICAL, u, q,
                             direction, 0)


def test_coupled_rejects_wrong_length_inputs():
    # a unit 3-vector direction and a 3-vector point, against d = 2
    for u, direction in [(np.zeros(2), np.array([1.0, 0.0, 0.0])),
                         (np.zeros(3), E1)]:
        with pytest.raises(InvalidArgument, match="dimension"):
            coupled_escape_trial(QUARTIC, ball_noise(1.0), PRACTICAL, u,
                                 0.1, direction, 0)


def test_coupled_deterministic_exit_matches_scalar_recursion():
    # sigma = 0 on a pure quadratic: the unstable coordinate grows by
    # (1 + eta*|lambda|) each step, so its distance u1 (growth^k - 1) from
    # the anchor u has a closed-form exit step
    delta_m = 0.5
    obj = Quadratic(np.diag([-delta_m, 1.0]), np.zeros(2), sigma=0.0)
    sched = manual_schedule(obj.constants, eta=0.01, ball_radius=0.4,
                            k0=5000, ko=5000, epsilon=0.01)
    u1 = 0.013
    u = np.array([u1, 0.0])
    [out] = coupled_escape_trial(obj, ball_noise(0.0), sched, u, 0.0, E1, 0)
    growth = 1.0 + sched.eta * delta_m
    predicted = math.ceil(math.log(1.0 + sched.ball_radius / u1)
                          / math.log(growth))
    # independent step-by-step simulation oracle
    x, k = u1, 0
    while abs(x - u1) <= sched.ball_radius:
        x *= growth
        k += 1
    assert out.exit_a == k == predicted


def test_both_stuck_iff_both_exceed_ko():
    # an exit within ko is a finite step; no exit within ko is math.inf
    sched = manual_schedule(QUARTIC.constants, eta=0.01, ball_radius=0.5,
                            k0=3000, ko=400, epsilon=6e-5, p=0.1)
    outcomes = coupled_escape_trial(QUARTIC, ball_noise(1.0), sched,
                                    np.zeros(2), 0.001, E1, range(20))
    for out in outcomes:
        for step in (out.exit_a, out.exit_b):
            assert step == math.inf or step <= sched.ko
        assert out.both_stuck == (out.exit_a == out.exit_b == math.inf)
    assert {out.both_stuck for out in outcomes} == {False, True}


class _NanCurvature(QuarticSaddle):
    def hvp(self, x, v):
        return np.full(np.shape(v), math.nan)


def test_escape_frequency_precondition_violated_at_minimum():
    with pytest.raises(InvalidArgument, match="lambda_min at x0"):
        escape_frequency(QUARTIC, ball_noise(1.0), PRACTICAL,
                         QUARTIC.minimizer(), range(5))
    # a NaN lambda_min at a finite x0 does not show negative curvature either
    with pytest.raises(InvalidArgument, match="lambda_min at x0"):
        escape_frequency(_NanCurvature(2), ball_noise(1.0), PRACTICAL,
                         np.zeros(2), range(5))


@pytest.mark.parametrize("obj", [QUARTIC, Quadratic(np.diag([-1.0, 1.0]),
                                                    np.zeros(2))],
                         ids=["quartic", "quadratic"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_escape_frequency_rejects_non_finite_x0_before_any_step(
        monkeypatch, obj, bad):
    def step(self):
        raise AssertionError("a step ran")

    monkeypatch.setattr(_Batch, "run", step)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidArgument, match="x0 must be finite"):
            escape_frequency(obj, ball_noise(1.0), PRACTICAL,
                             np.array([bad, 0.0]), range(5))


def _quartic_and_schedule(dim):
    obj = QuarticSaddle(dim)
    return obj, manual_schedule(obj.constants, eta=0.01, ball_radius=0.5,
                                k0=3000, ko=800, epsilon=6e-5, p=0.1)


def test_escape_frequency_precondition_above_the_dense_limit():
    # block Lanczos proves lambda_min = 1 at the minimizer, not <= -delta2
    obj, sched = _quartic_and_schedule(202)
    with pytest.raises(InvalidArgument, match="lambda_min at x0 is 1 > "):
        escape_frequency(obj, ball_noise(1.0, 202), sched, obj.minimizer(),
                         range(5))


def test_escape_frequency_runs_at_d_1000():
    obj, sched = _quartic_and_schedule(1000)
    assert escape_frequency(obj, ball_noise(1.0, 1000), sched,
                            np.zeros(1000), range(20)) == Frequency(20, 20)


@pytest.mark.parametrize("x0", [np.zeros(3), np.zeros(1), np.zeros((2, 2))],
                         ids=["length-3", "length-1", "matrix"])
def test_escape_frequency_start_point_dimension_mismatch(x0):
    with pytest.raises(InvalidArgument):
        escape_frequency(QUARTIC, ball_noise(1.0), PRACTICAL, x0, range(5))


def test_escape_frequency_zero_noise_at_exact_saddle():
    report = escape_frequency(QUARTIC, ball_noise(0.0), PRACTICAL,
                              np.zeros(2), range(5))
    assert report.frequency == 0.0


def test_escape_frequency_practical_schedule_is_high():
    report = escape_frequency(QUARTIC, ball_noise(1.0), PRACTICAL,
                              np.zeros(2), range(20))
    assert report.n == 20
    assert report.frequency >= 0.9
    assert report.half_width == pytest.approx(
        math.sqrt(math.log(200.0) / 40.0))


def test_escape_frequency_matches_one_episode_runs():
    # k0 = 300 leaves some seeds inside the ball: both outcomes occur
    sched = manual_schedule(QUARTIC.constants, eta=0.01, ball_radius=0.5,
                            k0=300, ko=400, epsilon=6e-5, p=0.1)
    for algorithm in ALGORITHMS:
        exited = []
        for seed in range(30):
            report = escape_frequency(QUARTIC, ball_noise(1.0), sched,
                                      np.zeros(2), seed, algorithm=algorithm)
            run = run_ball_sgd(QUARTIC, ball_noise(1.0), sched, np.zeros(2),
                               seed=seed, algorithm=algorithm,
                               budget_mode="unlimited-episodes",
                               max_episodes=1, max_steps=sched.k0)
            assert report.frequency == run.trace.exits
            exited.append(run.trace.exits)
        assert 0 < sum(exited) < len(exited)


def test_split_diagonal_reference():
    obj = Quadratic(np.diag([1.0, -1.0]), np.zeros(2))
    p_s, p_sperp, h_s, h_sperp = split_subspaces(obj, np.zeros(2))
    assert np.allclose(p_s, np.diag([1.0, 0.0]))
    assert np.allclose(h_sperp, np.diag([0.0, -1.0]))


def test_split_definite_case():
    obj = Quadratic(np.diag([2.0, 0.5]), np.zeros(2))
    p_s, p_sperp, h_s, h_sperp = split_subspaces(obj, np.zeros(2))
    assert np.allclose(p_s, np.eye(2))
    assert np.allclose(h_sperp, np.zeros((2, 2)))


def test_split_zero_eigenvalue_goes_to_complement():
    obj = Quadratic(np.diag([1.0, 0.0]), np.zeros(2))
    p_s, p_sperp, _, _ = split_subspaces(obj, np.zeros(2))
    assert np.allclose(p_s, np.diag([1.0, 0.0]))
    assert np.allclose(p_sperp, np.diag([0.0, 1.0]))


@given(st.integers(min_value=0, max_value=2**32))
@settings(max_examples=20, deadline=None)
def test_split_reconstruction_random(seed):
    rng = Rng(seed)
    A = rng.normal_rows(6, 6)
    H = 0.5 * (A + A.T)
    obj = Quadratic(H, np.zeros(6))
    p_s, p_sperp, h_s, h_sperp = split_subspaces(obj, np.zeros(6))
    assert np.max(np.abs(h_s + h_sperp - H)) <= 1e-10
    assert np.max(np.abs(p_s + p_sperp - np.eye(6))) <= 1e-10
    assert np.max(np.abs(p_s @ p_s - p_s)) <= 1e-10
    assert np.max(np.abs(p_s @ p_sperp)) <= 1e-10


def test_split_dimension_guard():
    obj = Quadratic(np.eye(250), np.zeros(250))
    with pytest.raises(InvalidArgument, match="dense Hessian limited"):
        split_subspaces(obj, np.zeros(250))


def _stored_run(obj, noise, sched, x0, seed):
    return run_ball_sgd(obj, noise, sched, x0, seed=seed,
                        budget_mode="unlimited-episodes", max_episodes=1,
                        max_steps=sched.k0, store_iterates=True)


def test_quadratic_model_pure_quadratic_zero_noise_z_vanishes():
    obj = Quadratic(np.diag([-0.5, 1.0]), np.zeros(2), sigma=0.0)
    sched = manual_schedule(obj.constants, eta=0.01, ball_radius=0.4,
                            k0=800, ko=800, epsilon=0.01)
    run = _stored_run(obj, ball_noise(0.0), sched, np.array([0.01, 0.1]),
                      seed=0)
    # anchor is the initial point here
    [trace] = quadratic_model_run(obj, np.array([0.01, 0.1]), [run])
    assert np.max(np.abs(trace.z)) <= 1e-10


def test_quadratic_model_reconstruction_and_value_split():
    run = _stored_run(QUARTIC, ball_noise(1.0), PRACTICAL, np.zeros(2),
                      seed=2)
    [trace] = quadratic_model_run(QUARTIC, np.zeros(2), [run])
    episode = run.trace.episodes[0]
    xs = np.asarray(episode.iterates)
    diffs = xs - np.zeros(2)
    assert np.max(np.abs(trace.u + trace.v - diffs)) <= 1e-10
    g0 = QUARTIC.gradient(np.zeros(2))
    H = dense_hessian(QUARTIC, np.zeros(2))
    g_full = diffs @ g0 + 0.5 * np.einsum("ki,ij,kj->k", diffs, H, diffs)
    assert np.max(np.abs(trace.g_s + trace.g_sperp - g_full)) <= 1e-10


def test_quadratic_model_z_recursion_identity():
    seed = 3
    run = _stored_run(QUARTIC, ball_noise(1.0), PRACTICAL, np.zeros(2),
                      seed=seed)
    [trace] = quadratic_model_run(QUARTIC, np.zeros(2), [run])
    episode = run.trace.episodes[0]
    eta = PRACTICAL.eta
    xs = np.asarray(episode.iterates)
    # step k of the run's first episode reads row k of stream seed
    noises = ball_noise(1.0).rows(seed, 0, len(xs) - 1)
    gs0 = trace.p_s @ QUARTIC.gradient(np.zeros(2))
    for k in range(len(xs) - 1):
        assert np.array_equal(xs[k + 1], xs[k] - eta * (
            QUARTIC.gradient(xs[k:k + 1])[0] + noises[k]))
        grad_u = trace.p_s @ QUARTIC.gradient(xs[k])
        grad_model = gs0 + trace.h_s @ trace.u[k]
        xi_u = trace.p_s @ noises[k]
        predicted = ((np.eye(2) - eta * trace.h_s) @ trace.z[k]
                     - eta * (grad_u - grad_model) - eta * xi_u)
        assert np.max(np.abs(predicted - trace.z[k + 1])) <= 1e-10


def test_quadratic_model_y_is_noise_independent():
    runs = [_stored_run(QUARTIC, ball_noise(1.0), PRACTICAL, np.zeros(2),
                        seed=s) for s in (4, 5)]
    traces = quadratic_model_run(QUARTIC, np.zeros(2), runs)
    n = min(len(traces[0].y), len(traces[1].y))
    assert np.array_equal(traces[0].y[:n], traces[1].y[:n])


def test_shared_y_is_each_runs_own_recursion():
    # one call shares y between the runs whose u[0] is bitwise equal; each
    # run's y must be the recursion from its own u[0] over its own length.
    # The run from `near` has its anchor within 1e-12 of x0 but u[0] != 0.
    x0, near = np.zeros(2), np.array([0.0, 4e-13])
    starts = [x0, x0, near, x0, near]
    runs = [_stored_run(QUARTIC, ball_noise(1.0), PRACTICAL, start, seed=s)
            for s, start in enumerate(starts, 4)]
    lengths = [len(r.trace.episodes[0].iterates) for r in runs]
    assert len(set(lengths)) == len(runs)
    p_s, _, h_s, _ = split_subspaces(QUARTIC, x0)
    gs0 = p_s @ QUARTIC.gradient(x0)
    eta = PRACTICAL.eta
    traces = quadratic_model_run(QUARTIC, x0, runs)
    assert len(traces) == len(runs)
    for run, start, trace in zip(runs, starts, traces):
        u = (np.asarray(run.trace.episodes[0].iterates) - x0) @ p_s.T
        y = np.empty_like(u)
        y[0] = u[0]
        for k in range(len(y) - 1):
            y[k + 1] = y[k] - eta * (gs0 + h_s @ y[k])
        assert np.any(u[0] != 0.0) == (start is near)
        assert np.array_equal(trace.y, y)
        assert np.array_equal(trace.z, u - y)
        [alone] = quadratic_model_run(QUARTIC, x0, [run])
        assert np.array_equal(alone.y, y)
        assert alone.z_final_norm == trace.z_final_norm


def test_quadratic_model_rejects_bad_run_sequences_and_x0():
    run = _stored_run(QUARTIC, ball_noise(1.0), PRACTICAL, np.zeros(2),
                      seed=0)
    with pytest.raises(InvalidArgument, match="dimension"):
        quadratic_model_run(QUARTIC, np.zeros(3), [run])
    with pytest.raises(InvalidArgument, match="empty"):
        quadratic_model_run(QUARTIC, np.zeros(2), [])


def test_quadratic_model_requires_stored_iterates():
    run = run_ball_sgd(QUARTIC, ball_noise(1.0), PRACTICAL, np.zeros(2),
                       seed=0, budget_mode="unlimited-episodes",
                       max_episodes=1, max_steps=100)
    with pytest.raises(InvalidArgument, match="did not store iterates"):
        quadratic_model_run(QUARTIC, np.zeros(2), [run])


def test_quadratic_model_requires_x0_to_be_the_episode_anchor():
    run = _stored_run(QUARTIC, ball_noise(1.0), PRACTICAL, np.zeros(2),
                      seed=0)
    quadratic_model_run(QUARTIC, np.zeros(2), [run])
    with pytest.raises(InvalidArgument, match="anchor"):
        quadratic_model_run(QUARTIC, np.array([1e-9, 0.0]), [run])


def test_taylor_bound_along_in_ball_iterates():
    run = _stored_run(QUARTIC, ball_noise(1.0), PRACTICAL, np.zeros(2),
                      seed=6)
    episode = run.trace.episodes[0]
    g0 = QUARTIC.gradient(np.zeros(2))
    H = dense_hessian(QUARTIC, np.zeros(2))
    rho = QUARTIC.constants.rho
    bound = rho * PRACTICAL.ball_radius ** 2 / 2.0
    for x in np.asarray(episode.iterates)[:-1]:
        model = g0 + H @ x
        assert np.linalg.norm(QUARTIC.gradient(x) - model) <= bound


def test_matrix_power_bound_trivial_cases():
    lhs, rhs, ok = matrix_power_bound_check(np.diag([1.0, 0.5]), 1.0, 0, 0)
    assert ok and lhs == pytest.approx(1.0) and rhs == 1.0
    lhs, rhs, ok = matrix_power_bound_check(np.diag([1.0]), 1.0, 1, 2)
    assert ok and lhs == 0.0 and rhs == 0.25


def test_matrix_power_bound_validation():
    with pytest.raises(InvalidArgument):
        matrix_power_bound_check(np.diag([1.0]), 2.0, 1, 1)
    with pytest.raises(InvalidArgument):
        matrix_power_bound_check(np.diag([-1.0]), 0.5, 1, 1)
    with pytest.raises(InvalidArgument):
        matrix_power_bound_check(np.array([[0.0, 1.0], [0.0, 0.0]]),
                                 1.0, 1, 1)
    with pytest.raises(InvalidArgument):
        matrix_power_bound_check(np.diag([1.0]), 1.0, -1, 0)


@given(st.integers(min_value=0, max_value=2**32))
@settings(max_examples=100, deadline=None)
def test_matrix_power_bound_randomized(seed):
    rng = Rng(seed)
    d = 1 + int(float(rng.uniforms(1)[0]) * 8)
    A = rng.normal_rows(d, d)
    A = A @ A.T
    norm = float(np.max(np.abs(np.linalg.eigvalsh(A))))
    a = float(rng.uniforms(1)[0]) / max(norm, 1e-12)
    i = int(float(rng.uniforms(1)[0]) * 10)
    j = int(float(rng.uniforms(1)[0]) * 10)
    lhs, rhs, ok = matrix_power_bound_check(A, a, i, j)
    assert ok


def test_matrix_power_bound_matches_explicit_product():
    rng = Rng(9)
    A = rng.normal_rows(4, 4)
    A = A @ A.T
    norm = float(np.max(np.abs(np.linalg.eigvalsh(A))))
    a = 0.8 / norm
    i, j = 2, 3
    lhs, _, _ = matrix_power_bound_check(A, a, i, j)
    base = np.eye(4) - a * A
    explicit = np.linalg.matrix_power(base, i) @ A @ \
        np.linalg.matrix_power(base, j)
    assert lhs == pytest.approx(np.linalg.norm(explicit, ord=2), abs=1e-10)

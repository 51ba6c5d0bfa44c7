"""Acceptance gate: ten end-to-end checks, one pass/fail line each.

Checks 1-5 exercise the fully theoretical hyper-parameter schedule.  That
schedule is derived here exactly as specified and then gated on an
executable step budget: the constants it mandates put the required number
of SGD steps astronomically beyond desk scale, so those checks report the
derived schedule and fail honestly rather than substituting a weaker
schedule.  Practical-schedule counterparts of the same claims are verified
in test_practical_claims.py.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from ballsgd.certify import (certify, dense_hessian, dense_min_eigenvalue,
                             default_tolerance, min_eigenvalue)
from ballsgd.concentration import (bernstein_tail_experiment,
                                   pinelis_tail_experiment)
from ballsgd.diagnostics import (coupled_escape_trial, escape_frequency,
                                 matrix_power_bound_check,
                                 quadratic_model_run, split_subspaces)
from ballsgd.harness import ExperimentConfig, run_config
from ballsgd.hyperparams import derive_schedule, manual_schedule
from ballsgd.noise import (NarrowSet, NoiseSampler, dispersive_width,
                           estimate_set_probability, hoeffding_half_width)
from ballsgd.optimizer import (CONVERGED, descent_pass_fraction,
                               run_ball_sgd)
from ballsgd.problems import MatrixFactorization, Quadratic, QuarticSaddle
from helpers import Rng, finite_diff_gradient_check

# Executable budget for one acceptance check: about a minute of SGD
# stepping at the throughput this package reaches on one core.
_STEP_BUDGET = 2 * 10 ** 7

P = 0.1
N_SEEDS = 200
CI_200 = hoeffding_half_width(N_SEEDS)

CATALOG = [
    QuarticSaddle(2),
    QuarticSaddle(10),
    Quadratic(np.array([[1.0, 0.2], [0.2, 2.0]]), np.array([0.5, -1.0])),
    MatrixFactorization(np.eye(3), 2),
]


def _verdict(name: str, ok: bool) -> None:
    print(f"acceptance {name}: {'PASS' if ok else 'FAIL'}")


def _largest_feasible_epsilon(obj) -> float:
    # delta2 = 16 sqrt(rho epsilon) must not exceed the curvature magnitude
    # at the saddle, or the escape claims do not apply there; this cap is
    # tighter than delta <= 1
    curvature = -dense_min_eigenvalue(obj, np.zeros(obj.dim))
    return (curvature / 16.0) ** 2 / obj.constants.rho


def _theoretical_schedules():
    out = []
    for dim in (2, 10):
        obj = QuarticSaddle(dim)
        epsilon = _largest_feasible_epsilon(obj)
        out.append((obj, derive_schedule(obj.constants, epsilon, P)))
    return out


def _budget_gate(name: str, cost_line_items) -> None:
    """Fail with the derived-schedule numbers when the required step count
    exceeds the executable budget; return normally when it fits."""
    lines = []
    total = 0
    for label, steps in cost_line_items:
        total += steps
        lines.append(f"  {label}: {steps:.3e} steps")
    if total <= _STEP_BUDGET:
        return
    _verdict(name, False)
    detail = "\n".join(lines)
    pytest.fail(
        f"{name}: the derived theoretical schedule needs {total:.3e} SGD "
        f"steps, beyond the executable budget of {_STEP_BUDGET:.1e} "
        f"(~{total / 10 ** 6:.1e} s at 1e6 steps/s).\n{detail}\n"
        "The schedule was derived exactly as specified; no weaker schedule "
        "is substituted here.  The same claims are verified under a "
        "practical schedule in test_practical_claims.py.")


def test_criterion_01_escape_frequency():
    items = []
    for obj, sched in _theoretical_schedules():
        items.append((f"quartic d={obj.dim}: {N_SEEDS} seeds x K0={sched.k0:.3e}",
                      N_SEEDS * sched.k0))
    _budget_gate("01 escape-frequency", items)
    ok = True
    for obj, sched in _theoretical_schedules():
        noise = NoiseSampler("uniform-ball", obj.constants.sigma, obj.dim)
        report = escape_frequency(obj, noise, sched, np.zeros(obj.dim),
                                  range(N_SEEDS))
        ok &= report.frequency >= 1.0 - P / 3.0 - CI_200
    _verdict("01 escape-frequency", ok)
    assert ok


def test_criterion_02_paired_escape():
    items = []
    for obj, sched in _theoretical_schedules():
        items.append((f"quartic d={obj.dim}: {N_SEEDS} pairs x "
                      f"Ko={sched.ko:.3e}", 2 * N_SEEDS * sched.ko))
    _budget_gate("02 paired-escape", items)
    ok = True
    for obj, sched in _theoretical_schedules():
        noise = NoiseSampler("uniform-ball", obj.constants.sigma, obj.dim)
        x0 = np.zeros(obj.dim)
        _, vecs = np.linalg.eigh(dense_hessian(obj, x0))
        q0 = obj.constants.sigma * sched.eta / (4.0 * math.sqrt(obj.dim))
        stuck = sum(outcome.both_stuck for outcome in coupled_escape_trial(
            obj, noise, sched, x0, q0, vecs[:, 0], range(N_SEEDS)))
        ok &= stuck / N_SEEDS <= 0.1 + CI_200
    _verdict("02 paired-escape", ok)
    assert ok


def test_criterion_03_episode_descent():
    items = []
    for obj, sched in _theoretical_schedules():
        items.append((f"quartic d={obj.dim}: {N_SEEDS} runs x "
                      f"T0={sched.t0:.3e}", N_SEEDS * sched.t0))
    _budget_gate("03 episode-descent", items)
    ok = True
    for obj, sched in _theoretical_schedules():
        noise = NoiseSampler("uniform-ball", obj.constants.sigma, obj.dim)
        fractions = [descent_pass_fraction(
            run_ball_sgd(obj, noise, sched, np.zeros(obj.dim), seed))
            for seed in range(N_SEEDS)]
        ok &= float(np.mean(fractions)) >= 1.0 - 2.0 * P / 3.0 - CI_200
    _verdict("03 episode-descent", ok)
    assert ok


def test_criterion_04_certification():
    items = []
    for obj, sched in _theoretical_schedules():
        items.append((f"quartic d={obj.dim}: {N_SEEDS} runs x "
                      f"T0={sched.t0:.3e}", N_SEEDS * sched.t0))
    _budget_gate("04 certification", items)
    ok = True
    for obj, sched in _theoretical_schedules():
        noise = NoiseSampler("uniform-ball", obj.constants.sigma, obj.dim)
        passed = 0
        converged = 0
        for seed in range(N_SEEDS):
            result = run_ball_sgd(obj, noise, sched, np.zeros(obj.dim), seed)
            if result.terminated != CONVERGED:
                continue
            converged += 1
            passed += certify(obj, result.trace.output, sched,
                              seed=seed).passed
        ok &= converged > 0 and passed / converged >= 1.0 - P - CI_200
    _verdict("04 certification", ok)
    assert ok


def test_criterion_05_difference_iterate_bound():
    n_episodes = 100
    items = []
    for obj, sched in _theoretical_schedules():
        items.append((f"quartic d={obj.dim}: {n_episodes} stored episodes x "
                      f"K0={sched.k0:.3e}", n_episodes * sched.k0))
    _budget_gate("05 difference-iterate-bound", items)
    ok = True
    ci = hoeffding_half_width(n_episodes)
    for obj, sched in _theoretical_schedules():
        noise = NoiseSampler("uniform-ball", obj.constants.sigma, obj.dim)
        x0 = np.zeros(obj.dim)
        batch = run_ball_sgd(obj, noise, sched, x0, range(n_episodes),
                             max_episodes=1, store_iterates=True)
        held = sum(trace.z_bound_ok for trace in
                   quadratic_model_run(obj, x0, batch.results))
        ok &= held / n_episodes >= 1.0 - P / 6.0 - ci
    _verdict("05 difference-iterate-bound", ok)
    assert ok


def test_criterion_06_dispersive_geometry():
    n = 100_000
    direction = np.zeros(4)
    direction[0] = 1.0
    q_star = dispersive_width(1.0, 4)
    gauss = NoiseSampler("scaled-gaussian", 1.0, 4)
    est = estimate_set_probability(
        gauss, NarrowSet.centered(direction, 1.1 * q_star), n, seed=0)
    closed_form = 1.1 / (4.0 * math.sqrt(2.0 * math.pi))
    ok = est.frequency <= 0.25
    ok &= abs(est.frequency - closed_form) <= est.half_width

    ball = NoiseSampler("uniform-ball", 1.0, 3)
    dir3 = np.zeros(3)
    dir3[0] = 1.0
    est_ball = estimate_set_probability(
        ball, NarrowSet.centered(dir3, dispersive_width(1.0, 3)), n, seed=0)
    ok &= est_ball.frequency <= 0.25
    _verdict("06 dispersive-geometry", ok)
    assert ok


def test_criterion_07_concentration():
    ok = True
    for dim in (5, 50):
        report = pinelis_tail_experiment(dim=dim, K=64, step_bound=1.0,
                                         lambda_grid=[32.0],
                                         n_trials=100_000)
        assert report.bound[0] == pytest.approx(4.0 * math.exp(-4.0))
        ok &= report.passed
    bern = bernstein_tail_experiment(K=100, step_bound=1.0, variance=0.09,
                                     delta=0.01, n_trials=100_000)
    ok &= bern.passed
    _verdict("07 concentration", ok)
    assert ok


def test_criterion_08_numerical_oracles():
    ok = True
    rng = Rng(0)
    for obj in CATALOG:
        for _ in range(50):
            x = 4.0 * rng.uniforms(obj.dim) - 2.0
            ok &= finite_diff_gradient_check(obj, x, 1e-5) <= 1e-6
    for obj in CATALOG:
        for _ in range(20):
            x = rng.normals(obj.dim)
            u = rng.normals(obj.dim)
            v = rng.normals(obj.dim)
            asym = abs(u @ obj.hvp(x, v) - v @ obj.hvp(x, u))
            ok &= asym <= 1e-10 * max(1.0, abs(u @ obj.hvp(x, v)))
    for dim in (6, 30, 50):
        obj = QuarticSaddle(dim)
        tol = default_tolerance(obj.constants.L)
        for _ in range(3):
            x = 2.0 * rng.uniforms(dim) - 1.0
            est = min_eigenvalue(obj, x, seed=0)
            exact = dense_min_eigenvalue(obj, x)
            ok &= est.converged and abs(est.value - exact) <= max(tol, 1e-8)
    _verdict("08 numerical-oracles", ok)
    assert ok


def test_criterion_09_structural_identities():
    obj = QuarticSaddle(2)
    sched = manual_schedule(obj.constants, eta=0.01, ball_radius=0.5,
                            k0=3000, ko=400, epsilon=6e-5, p=P)
    noise = NoiseSampler("uniform-ball", 1.0, 2)
    x0 = np.zeros(2)
    ok = True

    p_s, p_sperp, h_s, h_sperp = split_subspaces(obj, x0)
    H = dense_hessian(obj, x0)
    ok &= np.max(np.abs(h_s + h_sperp - H)) <= 1e-10
    ok &= np.max(np.abs(p_s + p_sperp - np.eye(2))) <= 1e-10

    run = run_ball_sgd(obj, noise, sched, x0, seed=0,
                       budget_mode="unlimited-episodes", max_episodes=1,
                       max_steps=sched.k0, store_iterates=True)
    [trace] = quadratic_model_run(obj, x0, [run])
    episode = run.trace.episodes[0]
    xs = np.asarray(episode.iterates)
    diffs = xs - x0
    ok &= np.max(np.abs(trace.u + trace.v - diffs)) <= 1e-10
    g0 = obj.gradient(x0)
    g_full = diffs @ g0 + 0.5 * np.einsum("ki,ij,kj->k", diffs, H, diffs)
    ok &= np.max(np.abs(trace.g_s + trace.g_sperp - g_full)) <= 1e-10

    # Taylor remainder bound along every in-ball iterate of the episode
    bound = obj.constants.rho * sched.ball_radius ** 2 / 2.0
    for x in xs[:-1]:
        ok &= np.linalg.norm(obj.gradient(x) - (g0 + H @ x)) <= bound

    # matrix power norm bound over randomized instances
    rng = Rng(1)
    for _ in range(500):
        d = 1 + int(float(rng.uniforms(1)[0]) * 8)
        A = rng.normal_rows(d, d)
        A = A @ A.T
        norm = float(np.max(np.abs(np.linalg.eigvalsh(A))))
        a = float(rng.uniforms(1)[0]) / max(norm, 1e-12)
        i = int(float(rng.uniforms(1)[0]) * 10)
        j = int(float(rng.uniforms(1)[0]) * 10)
        _, _, holds = matrix_power_bound_check(A, a, i, j)
        ok &= holds
    _verdict("09 structural-identities", ok)
    assert ok


def test_criterion_10_determinism(tmp_path):
    raw = {
        "objective": {"kind": "quartic", "dim": 2, "sigma": 1.0},
        "noise": {"kind": "uniform-ball", "sigma": 1.0},
        "schedule": {"mode": "manual", "eta": 0.01, "ball_radius": 0.5,
                     "k0": 3000, "ko": 400, "epsilon": 6e-5, "p": P},
        "n_seeds": 3,
        "budget_mode": "unlimited-episodes",
    }
    config = ExperimentConfig.from_dict(raw)
    blobs = []
    for name in ("a", "b"):
        run_config(replace(config, output_dir=str(tmp_path / name)))
        with open(tmp_path / name / "summary.json", "rb") as fh:
            blobs.append(fh.read())
    ok = blobs[0] == blobs[1]
    _verdict("10 determinism", ok)
    assert ok

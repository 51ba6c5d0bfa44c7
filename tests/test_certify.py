import importlib
import math

import numpy as np
import pytest

from ballsgd.certify import (certify, default_tolerance, dense_hessian,
                             min_curvature, min_eigenvalue)
from ballsgd.errors import InvalidArgument
from ballsgd.hyperparams import manual_schedule
from ballsgd.problems import (MatrixFactorization, Objective, Quadratic,
                              QuarticSaddle)
from helpers import Rng
from test_noise_kernel import same_bits

certify_module = importlib.import_module("ballsgd.certify")


def test_min_eigenvalue_explicit_spectrum():
    obj = Quadratic(np.diag([1.0, -0.5]), np.zeros(2))
    est = min_eigenvalue(obj, np.zeros(2))
    assert est.converged
    assert est.value == pytest.approx(-0.5, abs=1e-6)


def test_min_eigenvalue_quartic_saddle_small_shift():
    obj = QuarticSaddle(2)
    est = min_eigenvalue(obj, np.zeros(2))
    assert est.converged
    assert est.value == pytest.approx(-1.0, abs=1e-6)


def test_min_eigenvalue_deterministic_given_seed():
    obj = QuarticSaddle(4)
    x = np.array([0.3, -0.2, 0.5, 0.1])
    a = min_eigenvalue(obj, x, seed=3)
    b = min_eigenvalue(obj, x, seed=3)
    assert a == b


def test_dense_hessian_matches_known_hessian():
    obj = QuarticSaddle(2)
    H = dense_hessian(obj, np.zeros(2))
    assert np.allclose(H, np.diag([-1.0, 1.0]))


def test_min_curvature_matrix_factorization():
    obj = MatrixFactorization(np.eye(2), 1)
    assert min_curvature(obj, np.zeros(2)).value == pytest.approx(-1.0,
                                                                  abs=1e-10)


def test_dense_dimension_guard():
    obj = Quadratic(np.eye(250), np.zeros(250))
    with pytest.raises(InvalidArgument, match="dense Hessian limited"):
        dense_hessian(obj, np.zeros(250))


def test_power_iteration_matches_dense_oracle():
    rng = Rng(5)
    for dim, builder in [(6, QuarticSaddle),
                         (30, QuarticSaddle)]:
        obj = builder(dim)
        for _ in range(5):
            x = 2.0 * rng.uniforms(dim) - 1.0
            est = min_eigenvalue(obj, x, seed=0)
            exact = min_curvature(obj, x).value
            tol = 1e-6 * max(1.0, obj.constants.L)
            assert est.converged
            assert abs(est.value - exact) <= max(tol, 1e-8)


def _schedule_for(obj, epsilon):
    return manual_schedule(obj.constants, eta=0.01, ball_radius=0.5,
                           k0=3000, ko=400, epsilon=epsilon, p=0.1)


def test_certify_quartic_minimizer_passes():
    obj = QuarticSaddle(2)
    sched = _schedule_for(obj, 6e-5)
    cert = certify(obj, obj.minimizer(), sched)
    assert cert.grad_norm == 0.0
    # Hessian at the minimizer is diag(2, 1)
    assert cert.lambda_min == pytest.approx(1.0, abs=1e-10)
    assert cert.passed
    assert cert.to_dict()["eig_pass"]


def test_certify_saddle_threshold_arithmetic():
    obj = QuarticSaddle(2)
    # delta < 1/17 so -17 delta > -1 = lambda_min: eig check must fail
    sched = _schedule_for(obj, (1.0 / 20.0) ** 2 / obj.constants.rho)
    assert 17.0 * sched.delta < 1.0
    cert = certify(obj, np.zeros(2), sched)
    assert not cert.eig_pass
    assert not cert.passed


def test_certify_shift_invariance():
    base = QuarticSaddle(2)

    class Shifted(Objective):
        name = "shifted"

        def __init__(self):
            self.dim = base.dim
            self.constants = base.constants

        def value(self, x):
            return base.value(x) + 123.0

        def gradient(self, x):
            return base.gradient(x)

        def hvp(self, x, v):
            return base.hvp(x, v)

    sched = _schedule_for(base, 6e-5)
    x = np.array([0.9, 0.05])
    assert certify(base, x, sched).to_dict() == \
        certify(Shifted(), x, sched).to_dict()


@pytest.mark.parametrize("dim", [2, 60, 200])
def test_certify_is_exact_up_to_the_dense_hessian_limit(monkeypatch, dim):
    def refuse(*args, **kwargs):
        raise AssertionError("block Lanczos called at d <= 200")

    monkeypatch.setattr(certify_module, "min_eigenvalue", refuse)
    obj = QuarticSaddle(dim)
    x = 0.1 * np.random.default_rng(0).standard_normal(dim)
    exact = float(np.linalg.eigvalsh(dense_hessian(obj, x))[0])
    est = min_curvature(obj, x, seed=3)
    assert same_bits(est.value, exact)
    assert (est.residual, est.iterations, est.converged) == (0.0, 0, True)
    cert = certify(obj, x, _schedule_for(obj, 6e-5))
    assert same_bits(cert.lambda_min, exact)
    assert cert.eig_residual == 0.0
    assert cert.eig_converged
    # a Hessian that is not finite has no value, whatever LAPACK returns
    bad = min_curvature(obj, np.full(dim, math.nan))
    assert math.isnan(bad.value)
    assert (bad.residual, bad.converged) == (math.inf, False)


def test_certify_estimates_by_block_lanczos_above_the_limit(monkeypatch):
    estimates = []

    def record(*args, **kwargs):
        estimates.append(min_eigenvalue(*args, **kwargs))
        return estimates[-1]

    obj = QuarticSaddle(202)
    x = 0.1 * np.random.default_rng(0).standard_normal(202)
    assert min_curvature(obj, x, seed=3) == min_eigenvalue(obj, x, seed=3)
    monkeypatch.setattr(certify_module, "min_eigenvalue", record)
    cert = certify(obj, x, _schedule_for(obj, 6e-5))
    assert len(estimates) == 1
    assert cert.lambda_min == estimates[0].value
    assert cert.eig_residual == estimates[0].residual
    assert cert.eig_converged
    exact = min(float(np.min(3.0 * x[0::2] ** 2 - 1.0)), 1.0)
    assert abs(cert.lambda_min - exact) <= \
        cert.eig_residual + default_tolerance(obj.constants.L)

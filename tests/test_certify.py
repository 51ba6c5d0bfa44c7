import numpy as np
import pytest

from ballsgd.certify import (certify, dense_hessian, dense_min_eigenvalue,
                             min_eigenvalue)
from ballsgd.errors import DimensionTooLarge
from ballsgd.hyperparams import manual_schedule
from ballsgd.problems import (Objective, make_matrix_factorization,
                              make_quadratic, make_quartic_saddle)
from ballsgd.rng import Rng


def test_min_eigenvalue_explicit_spectrum():
    obj = make_quadratic(np.diag([1.0, -0.5]), np.zeros(2))
    est = min_eigenvalue(obj, np.zeros(2))
    assert est.converged
    assert est.value == pytest.approx(-0.5, abs=1e-6)


def test_min_eigenvalue_quartic_saddle_small_shift():
    obj = make_quartic_saddle(2)
    est = min_eigenvalue(obj, np.zeros(2))
    assert est.converged
    assert est.value == pytest.approx(-1.0, abs=1e-6)


def test_min_eigenvalue_deterministic_given_seed():
    obj = make_quartic_saddle(4)
    x = np.array([0.3, -0.2, 0.5, 0.1])
    a = min_eigenvalue(obj, x, seed=3)
    b = min_eigenvalue(obj, x, seed=3)
    assert a == b


def test_dense_hessian_matches_known_hessian():
    obj = make_quartic_saddle(2)
    H = dense_hessian(obj, np.zeros(2))
    assert np.allclose(H, np.diag([-1.0, 1.0]))


def test_dense_min_eigenvalue_matrix_factorization():
    obj = make_matrix_factorization(np.eye(2), 1)
    assert dense_min_eigenvalue(obj, np.zeros(2)) == pytest.approx(-1.0,
                                                                   abs=1e-10)


def test_dense_dimension_guard():
    obj = make_quadratic(np.eye(250), np.zeros(250))
    with pytest.raises(DimensionTooLarge):
        dense_hessian(obj, np.zeros(250))


def test_power_iteration_matches_dense_oracle():
    rng = Rng(5)
    for dim, builder in [(6, make_quartic_saddle),
                         (30, make_quartic_saddle)]:
        obj = builder(dim)
        for _ in range(5):
            x = 2.0 * rng.uniforms(dim) - 1.0
            est = min_eigenvalue(obj, x, seed=0)
            exact = dense_min_eigenvalue(obj, x)
            tol = 1e-6 * max(1.0, obj.constants.L)
            assert est.converged
            assert abs(est.value - exact) <= max(tol, 1e-8)


def _schedule_for(obj, epsilon):
    return manual_schedule(obj.constants, eta=0.01, ball_radius=0.5,
                           k0=3000, ko=400, epsilon=epsilon, p=0.1)


def test_certify_quartic_minimizer_passes():
    obj = make_quartic_saddle(2)
    sched = _schedule_for(obj, 6e-5)
    cert = certify(obj, obj.minimizer(), sched)
    assert cert.grad_norm == 0.0
    # Hessian at the minimizer is diag(2, 1)
    assert cert.lambda_min == pytest.approx(1.0, abs=1e-10)
    assert cert.passed
    assert cert.to_dict()["eig_pass"]


def test_certify_saddle_threshold_arithmetic():
    obj = make_quartic_saddle(2)
    # delta < 1/17 so -17 delta > -1 = lambda_min: eig check must fail
    sched = _schedule_for(obj, (1.0 / 20.0) ** 2 / obj.constants.rho)
    assert 17.0 * sched.delta < 1.0
    cert = certify(obj, np.zeros(2), sched)
    assert not cert.eig_pass
    assert not cert.passed


def test_certify_shift_invariance():
    base = make_quartic_saddle(2)

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

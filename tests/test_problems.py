import numpy as np
import pytest

from ballsgd.errors import InvalidArgument, NonSymmetric
from ballsgd.problems import (BOX_RADIUS, MatrixFactorization, Quadratic,
                              QuarticSaddle)
from ballsgd.certify import dense_min_eigenvalue
from helpers import Rng, finite_diff_gradient_check, finite_diff_hvp

CATALOG = [
    QuarticSaddle(2),
    QuarticSaddle(10),
    Quadratic(np.array([[1.0, 0.2], [0.2, 2.0]]), np.array([0.5, -1.0])),
    MatrixFactorization(np.eye(3), 2),
]


def test_quartic_rejects_odd_dim():
    with pytest.raises(InvalidArgument):
        QuarticSaddle(3)
    with pytest.raises(InvalidArgument):
        QuarticSaddle(0)


def test_quartic_saddle_at_origin():
    obj = QuarticSaddle(2)
    assert np.array_equal(obj.gradient(np.zeros(2)), np.zeros(2))
    assert np.array_equal(obj.hvp(np.zeros(2), np.array([1.0, 0.0])),
                          np.array([-1.0, 0.0]))
    assert np.array_equal(obj.hvp(np.zeros(2), np.array([0.0, 1.0])),
                          np.array([0.0, 1.0]))


def test_quartic_minimizer_and_f_star():
    obj = QuarticSaddle(2)
    assert obj.value(np.array([1.0, 0.0])) == pytest.approx(-0.25)
    assert obj.f_star == pytest.approx(-0.25)
    assert np.array_equal(obj.gradient(obj.minimizer()), np.zeros(2))
    obj10 = QuarticSaddle(10)
    assert obj10.value(obj10.minimizer()) == pytest.approx(obj10.f_star)


def test_quartic_finite_difference_gradient():
    obj = QuarticSaddle(4)
    rng = Rng(0)
    for _ in range(10):
        x = 4.0 * rng.uniforms(4) - 2.0
        assert finite_diff_gradient_check(obj, x, 1e-5) <= 1e-6


def test_quartic_oracles_equal_the_formula_in_python_floats():
    # numpy's float64 power differs in the last bit between SIMD targets;
    # IEEE * and - do not, so every entry is the Python-float formula
    obj = QuarticSaddle(200)
    rng = Rng(7)
    x = 3.0 * rng.normal_rows(4, 200)
    for row, grad in zip(x.tolist(), obj.gradient(x).tolist()):
        assert grad[0::2] == [u * u * u - u for u in row[0::2]]
        assert grad[1::2] == row[1::2]
    v = rng.normals(200)
    hvp = obj.hvp(x[0], v).tolist()
    assert hvp[0::2] == [(3.0 * (u * u) - 1.0) * s for u, s in
                         zip(x[0, 0::2].tolist(), v[0::2].tolist())]
    assert hvp[1::2] == v[1::2].tolist()


def test_quartic_hvp_against_finite_differences():
    obj = QuarticSaddle(4)
    rng = Rng(1)
    for _ in range(10):
        x = 4.0 * rng.uniforms(4) - 2.0
        v = rng.normals(4)
        v /= np.linalg.norm(v)
        numeric = finite_diff_hvp(obj, x, v, 1e-6)
        assert np.max(np.abs(obj.hvp(x, v) - numeric)) <= 1e-6


def test_quadratic_zero_function():
    obj = Quadratic(np.zeros((2, 2)), np.zeros(2))
    assert obj.value(np.array([3.0, -4.0])) == 0.0
    assert np.array_equal(obj.gradient(np.array([3.0, -4.0])), np.zeros(2))


def test_quadratic_gradient_reference():
    obj = Quadratic(np.diag([1.0, -0.5]), np.zeros(2))
    assert np.array_equal(obj.gradient(np.array([1.0, 1.0])),
                          np.array([1.0, -0.5]))
    assert obj.constants.rho == 0.0


def test_quadratic_hvp_is_matrix_product():
    rng = Rng(2)
    A = rng.normal_rows(5, 5)
    H = 0.5 * (A + A.T)
    obj = Quadratic(H, np.zeros(5))
    for _ in range(5):
        v = rng.normals(5)
        assert np.array_equal(obj.hvp(np.zeros(5), v), H @ v)


def test_quadratic_rejects_nonsymmetric():
    with pytest.raises(NonSymmetric):
        Quadratic(np.array([[0.0, 1.0], [0.0, 0.0]]), np.zeros(2))


def test_quadratic_finite_differences_nearly_exact():
    obj = Quadratic(np.array([[2.0, 0.3], [0.3, 1.0]]),
                    np.array([1.0, -1.0]))
    rng = Rng(3)
    for _ in range(5):
        x = rng.normals(2)
        assert finite_diff_gradient_check(obj, x, 1e-5) <= 1e-9


def test_matrix_factorization_saddle_at_zero():
    obj = MatrixFactorization(np.eye(2), 1)
    assert np.array_equal(obj.gradient(np.zeros(2)), np.zeros(2))
    assert dense_min_eigenvalue(obj, np.zeros(2)) == pytest.approx(-1.0,
                                                                   abs=1e-10)


def test_matrix_factorization_global_minimum():
    M = np.array([[2.0, 1.0], [1.0, 2.0]])
    eigvals, vecs = np.linalg.eigh(M)
    U = vecs @ np.diag(np.sqrt(eigvals))
    obj = MatrixFactorization(M, 2)
    assert obj.value(U.ravel()) == pytest.approx(0.0, abs=1e-20)
    assert np.max(np.abs(obj.gradient(U.ravel()))) <= 1e-12
    assert obj.f_star == pytest.approx(0.0)


def test_matrix_factorization_finite_difference_gradient():
    obj = MatrixFactorization(np.diag([3.0, 1.0, 0.5]), 2)
    rng = Rng(4)
    for _ in range(5):
        x = rng.normals(obj.dim)
        assert finite_diff_gradient_check(obj, x, 1e-5) <= 1e-6


def test_matrix_factorization_validation():
    with pytest.raises(NonSymmetric):
        MatrixFactorization(np.array([[1.0, 1.0], [0.0, 1.0]]), 1)
    with pytest.raises(InvalidArgument):
        MatrixFactorization(np.diag([-1.0, 1.0]), 1)
    with pytest.raises(InvalidArgument):
        MatrixFactorization(np.eye(2), 3)


@pytest.mark.parametrize("obj", CATALOG, ids=lambda o: f"{o.name}-{o.dim}")
def test_gradient_lipschitz_spot_check(obj):
    rng = Rng(5)
    box = BOX_RADIUS
    for _ in range(100):
        x = box * (2.0 * rng.uniforms(obj.dim) - 1.0)
        y = box * (2.0 * rng.uniforms(obj.dim) - 1.0)
        lhs = np.linalg.norm(obj.gradient(x) - obj.gradient(y))
        assert lhs <= obj.constants.L * np.linalg.norm(x - y) * (1 + 1e-9)


@pytest.mark.parametrize("obj", CATALOG, ids=lambda o: f"{o.name}-{o.dim}")
def test_hessian_lipschitz_spot_check(obj):
    rng = Rng(6)
    box = BOX_RADIUS
    for _ in range(100):
        x = box * (2.0 * rng.uniforms(obj.dim) - 1.0)
        y = box * (2.0 * rng.uniforms(obj.dim) - 1.0)
        v = rng.normals(obj.dim)
        v /= np.linalg.norm(v)
        lhs = np.linalg.norm(obj.hvp(x, v) - obj.hvp(y, v))
        assert lhs <= obj.constants.rho * np.linalg.norm(x - y) * (1 + 1e-9) \
            + 1e-12


@pytest.mark.parametrize("obj", CATALOG, ids=lambda o: f"{o.name}-{o.dim}")
def test_hvp_symmetric_bilinear_form(obj):
    rng = Rng(7)
    for _ in range(20):
        x = rng.normals(obj.dim)
        u = rng.normals(obj.dim)
        v = rng.normals(obj.dim)
        assert abs(u @ obj.hvp(x, v) - v @ obj.hvp(x, u)) <= 1e-10 * \
            max(1.0, abs(u @ obj.hvp(x, v)))


def test_finite_diff_rejects_zero_step():
    obj = QuarticSaddle(2)
    with pytest.raises(InvalidArgument):
        finite_diff_gradient_check(obj, np.zeros(2), 0.0)
    with pytest.raises(InvalidArgument):
        finite_diff_hvp(obj, np.zeros(2), np.array([1.0, 0.0]), 0.0)

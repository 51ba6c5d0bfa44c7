"""Block Lanczos minimum-eigenvalue solver against dense references."""

import importlib
import math

import numpy as np
import pytest

from ballsgd.certify import (default_tolerance, dense_hessian,
                             dense_min_eigenvalue, min_eigenvalue)
from ballsgd.problems import MatrixFactorization, Quadratic, QuarticSaddle
from helpers import Rng
from test_noise_kernel import (same_bits, spec_box_muller, spec_random_words,
                               spec_words_to_uniform)

certify_module = importlib.import_module("ballsgd.certify")


class CountingObjective:
    """Forwards to an objective and counts Hessian-vector products."""

    def __init__(self, obj):
        self.obj = obj
        self.dim = obj.dim
        self.constants = obj.constants
        self.hvps = 0

    def hvp(self, x, v):
        self.hvps += 1
        return self.obj.hvp(x, v)


def _near_tied_quadratic(dim, seed):
    # bottom two eigenvalues 1.1 tol apart under a spread of 0..5 above
    tol = default_tolerance(5.0)
    eigs = np.concatenate([[-1.0, -1.0 + 1.1 * tol],
                           np.linspace(0.0, 5.0, dim - 2)])
    basis, _ = np.linalg.qr(Rng(seed).normal_rows(dim, dim))
    H = basis @ np.diag(eigs) @ basis.T
    return Quadratic(0.5 * (H + H.T), np.zeros(dim)), -1.0


def _cases():
    rng = Rng(11)
    quartic = QuarticSaddle(60)
    points = [scale * rng.normals(60) for scale in (0.1, 0.3, 1.0)
              for _ in range(4)]
    # bottom gaps of about 2 tol with a third eigenvalue close above: a
    # block-4 solver that stops on the residual alone (residual <= tol)
    # reports the second eigenvalue at these points
    points += [0.3 * Rng(k).normals(60) for k in (788, 915, 953, 1306)]
    for x in points:
        yield "quartic", quartic, x, dense_min_eigenvalue(quartic, x)
    factorization = MatrixFactorization(
        np.diag(np.linspace(0.5, 3.0, 45)), 2)
    for scale in (0.1, 0.3, 1.0):
        for _ in range(2):
            x = scale * rng.normals(90)
            exact = float(np.linalg.eigvalsh(dense_hessian(factorization,
                                                           x))[0])
            yield "factorization", factorization, x, exact
    for seed in range(3):
        quadratic, exact = _near_tied_quadratic(200, seed)
        yield "near-tied quadratic", quadratic, np.zeros(200), exact


@pytest.mark.parametrize("seed", [0, 1])
def test_converged_estimate_is_within_residual_plus_tol(seed):
    for name, obj, x, exact in _cases():
        est = min_eigenvalue(obj, x, seed=seed)
        tol = default_tolerance(obj.constants.L)
        assert est.converged, name
        assert abs(est.value - exact) <= est.residual + tol, name


def test_quartic_d200_work_is_bounded_by_the_dimension():
    dim = 200
    obj = CountingObjective(QuarticSaddle(dim))
    x = Rng(0).normals(dim)
    est = min_eigenvalue(obj, x, seed=0)
    assert est.converged
    assert obj.hvps <= dim + 4
    assert est.iterations <= math.ceil(dim / 4)
    exact = min(float(np.min(3.0 * x[0::2] ** 2 - 1.0)), 1.0)
    assert abs(est.value - exact) <= est.residual + \
        default_tolerance(obj.constants.L)


def test_quartic_d200_near_the_saddle_stops_on_the_residual_test():
    # the highdim-certify point: the solve ends on the small-residual and
    # stable-estimate exit, not at an invariant subspace, whose residuals
    # are near 1e-12 to 1e-15
    obj = QuarticSaddle(200)
    x = 0.1 * np.random.default_rng(0).standard_normal(200)
    est = min_eigenvalue(obj, x, seed=0)
    tol = default_tolerance(obj.constants.L)
    assert est.converged
    assert 1e-10 < est.residual <= 0.1 * tol
    assert est.iterations < math.ceil(200 / 4)
    exact = min(float(np.min(3.0 * x[0::2] ** 2 - 1.0)), 1.0)
    assert abs(est.value - exact) <= est.residual + tol


def test_non_finite_hvps_are_flagged_unconverged():
    x = np.zeros(60)
    x[0] = math.inf
    est = min_eigenvalue(QuarticSaddle(60), x, seed=0)
    assert not est.converged
    assert est.iterations == 1
    assert math.isnan(est.value)


def test_invariant_subspace_stops_with_the_exact_value():
    # two distinct eigenvalues: span{v, Hv} is invariant for every v, so the
    # block Krylov space stops growing after its second block
    dim = 100
    basis, _ = np.linalg.qr(Rng(7).normal_rows(dim, dim))
    H = basis @ np.diag(np.where(np.arange(dim) < dim // 2, 1.0, 3.0)) \
        @ basis.T
    obj = CountingObjective(Quadratic(0.5 * (H + H.T), np.zeros(dim)))
    est = min_eigenvalue(obj, np.zeros(dim), seed=0)
    assert est.converged
    assert est.iterations == 2
    assert obj.hvps == 8
    # exact up to rounding, far inside tol = 3e-6
    assert abs(est.value - 1.0) <= 1e-12


def test_start_block_is_one_box_muller_request_of_the_seed_mod_2_64(
        monkeypatch):
    # at d=60 the solve grows from a (60, 4) start block: the first 240
    # normals of one Box-Muller request over words 0.. of the stream of
    # the seed mod 2^64, so seed -5 reads the stream of 2^64 - 5
    dim, k = 60, 4
    blocks = []
    extend = certify_module._extend_basis

    def record(Q, W):
        if Q.shape[1] == 0:
            blocks.append(W.copy())
        return extend(Q, W)

    monkeypatch.setattr(certify_module, "_extend_basis", record)
    obj = QuarticSaddle(dim)
    x = 0.3 * np.random.default_rng(5).standard_normal(dim)
    negative = min_eigenvalue(obj, x, seed=-5)
    assert negative.converged
    assert negative == min_eigenvalue(obj, x, seed=2**64 - 5)
    count = dim * k
    u = spec_words_to_uniform(
        spec_random_words(2**64 - 5, 0, 2 * ((count + 1) // 2)))
    expected = spec_box_muller(u)[:count].reshape(dim, k)
    assert len(blocks) == 2
    for block in blocks:
        assert same_bits(block, expected)

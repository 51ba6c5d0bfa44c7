"""Test objectives with exact values, gradients, and Hessian-vector
products.

Smoothness constants are declared over a clamped evaluation box of
half-width ``BOX_RADIUS`` per coordinate; global constants do not exist for
the quartic family.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidArgument, NonSymmetric
from .hyperparams import ProblemConstants

BOX_RADIUS = 10.0


class Objective:
    """Oracle bundle: exact value, gradient, Hessian-vector product, and
    declared constants.

    ``gradient`` takes a point or an (m, dim) block of points and returns
    the gradients in the same shape, in a new array that the caller may
    overwrite; a row's gradient does not depend on the other rows: a
    block's matrix products are stacked, one per row, as a product over
    the whole block can differ in the last bit.
    """

    name: str
    dim: int
    constants: ProblemConstants

    def value(self, x: np.ndarray) -> float:
        raise NotImplementedError

    def gradient(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def hvp(self, x: np.ndarray, v: np.ndarray) -> np.ndarray:
        raise NotImplementedError


class QuarticSaddle(Objective):
    """Paired-coordinate quartic with a strict saddle at the origin.

    f(x) = sum_i (u_i^4/4 - u_i^2/2 + w_i^2/2) with u = x[0::2],
    w = x[1::2].  The Hessian at 0 is diag(-1, 1, -1, 1, ...); global
    minima sit at u_i = +-1, w_i = 0 with f* = -dim/8.

    The oracles use only IEEE ``+``, ``-`` and ``*``, never numpy's
    ``power``, whose float64 kernel differs in the last bit between the
    SIMD targets numpy dispatches to.  So the gradient and the HVP equal
    the same formula in Python floats, element by element, on every
    machine.
    """

    def __init__(self, dim: int, sigma: float = 1.0):
        if dim < 2 or dim % 2 != 0:
            raise InvalidArgument("dim must be an even integer >= 2")
        self.name = "quartic"
        self.dim = dim
        # On the box |x_i| <= 10: Hessian eigenvalues in [-1, 3*100-1],
        # third-derivative norm <= 6*10.
        L = 3.0 * BOX_RADIUS ** 2 - 1.0
        rho = 6.0 * BOX_RADIUS
        per_pair_max = BOX_RADIUS ** 4 / 4.0 - BOX_RADIUS ** 2 / 2.0 \
            + BOX_RADIUS ** 2 / 2.0
        delta_f = (dim // 2) * per_pair_max + dim / 8.0
        self.constants = ProblemConstants(L=L, rho=rho, sigma=sigma,
                                          delta_f=delta_f, dim=dim)

    @property
    def f_star(self) -> float:
        return -self.dim / 8.0

    def minimizer(self) -> np.ndarray:
        x = np.zeros(self.dim)
        x[0::2] = 1.0
        return x

    def value(self, x):
        u = x[0::2]
        w = x[1::2]
        u2 = u * u
        return float(np.sum(0.25 * u2 * u2 - 0.5 * u2) +
                     0.5 * np.sum(w * w))

    def gradient(self, x):
        g = np.empty_like(x, dtype=float)
        u = x[..., 0::2]
        g[..., 0::2] = u * u * u - u
        g[..., 1::2] = x[..., 1::2]
        return g

    def hvp(self, x, v):
        out = np.empty_like(v, dtype=float)
        u = x[0::2]
        out[0::2] = (3.0 * (u * u) - 1.0) * v[0::2]
        out[1::2] = v[1::2]
        return out


class Quadratic(Objective):
    """f(x) = b^T x + x^T H x / 2 with exact everything and rho = 0.

    Unbounded below when H has a negative eigenvalue; such quadratics
    serve the diagnostics, not full runs.
    """

    def __init__(self, H: np.ndarray, b: np.ndarray, sigma: float = 1.0):
        H = np.asarray(H, dtype=float)
        b = np.asarray(b, dtype=float)
        if H.ndim != 2 or H.shape[0] != H.shape[1] or b.shape != (H.shape[0],):
            raise InvalidArgument("H must be square and b conforming")
        if np.linalg.norm(H - H.T) > 1e-12:
            raise NonSymmetric("H is not symmetric")
        self.name = "quadratic"
        self.dim = H.shape[0]
        self.H = H
        self.b = b
        eigs = np.linalg.eigvalsh(H) if self.dim else np.zeros(0)
        L = float(np.max(np.abs(eigs))) if self.dim else 0.0
        # Delta over the box: crude upper bound on f range
        bound = float(np.sum(np.abs(b)) * BOX_RADIUS +
                      0.5 * L * self.dim * BOX_RADIUS ** 2)
        self.constants = ProblemConstants(L=L, rho=0.0, sigma=sigma,
                                          delta_f=2.0 * bound, dim=self.dim)

    def value(self, x):
        return float(self.b @ x + 0.5 * x @ (self.H @ x))

    def gradient(self, x):
        x = np.asarray(x, dtype=float)
        return np.matmul(self.H, x[..., None])[..., 0] + self.b

    def hvp(self, x, v):
        return self.H @ v


class MatrixFactorization(Objective):
    """f(U) = ||U U^T - M||_F^2 / 4 over flattened U in R^{n x r}.

    U = 0 is a strict saddle whenever M != 0: the Hessian quadratic form
    there is -v^T M v per factor column.
    """

    def __init__(self, M: np.ndarray, rank: int, sigma: float = 1.0):
        M = np.asarray(M, dtype=float)
        if M.ndim != 2 or M.shape[0] != M.shape[1]:
            raise InvalidArgument("M must be square")
        if np.linalg.norm(M - M.T) > 1e-12:
            raise NonSymmetric("M is not symmetric")
        eigs = np.linalg.eigvalsh(M)
        if np.min(eigs) < -1e-10:
            raise InvalidArgument("M must be positive semidefinite")
        if not 1 <= rank <= M.shape[0]:
            raise InvalidArgument("rank must lie in [1, n]")
        self.name = "matrix-factorization"
        self.n = M.shape[0]
        self.rank = rank
        self.M = M
        self.dim = self.n * rank
        m_norm = float(np.max(np.abs(eigs)))
        u_norm = BOX_RADIUS * math.sqrt(self.dim)  # ||U||_F on the box
        L = 3.0 * u_norm ** 2 + m_norm
        rho = 6.0 * u_norm
        tail = 0.25 * float(np.sum(np.sort(eigs)[::-1][rank:] ** 2))
        self.f_star = tail
        delta_f = 0.25 * (u_norm ** 2 + float(np.linalg.norm(M))) ** 2 - tail
        self.constants = ProblemConstants(L=L, rho=rho, sigma=sigma,
                                          delta_f=delta_f, dim=self.dim)

    def _unflatten(self, x):
        return np.asarray(x, dtype=float).reshape(self.n, self.rank)

    def value(self, x):
        U = self._unflatten(x)
        return 0.25 * float(np.linalg.norm(U @ U.T - self.M) ** 2)

    def gradient(self, x):
        x = np.asarray(x, dtype=float)
        U = x.reshape(x.shape[:-1] + (self.n, self.rank))
        return ((U @ U.swapaxes(-1, -2) - self.M) @ U).reshape(x.shape)

    def hvp(self, x, v):
        U = self._unflatten(x)
        V = self._unflatten(v)
        R = U @ U.T - self.M
        return ((U @ V.T + V @ U.T) @ U + R @ V).ravel()


"""Helpers the tests share: a sequential view of a noise stream,
finite-difference oracles for the objectives' exact derivatives, and the
exact exit-time law of a 1-D Gaussian chain killed outside an interval.

The package reads every stream by address (``ballsgd.rng.random_words``);
``Rng`` reads one address word after word, which is how many tests build
their inputs.
"""

import math

import numpy as np

from ballsgd.errors import InvalidArgument
from ballsgd.problems import Objective
from ballsgd.rng import _box_muller, _uniforms, random_words


class Rng:
    """Sequential view over the counter-based stream for one seed, from
    word ``start`` on."""

    def __init__(self, seed: int, start: int = 0):
        self.seed = int(seed) % 2 ** 64  # any int, taken mod 2^64
        self._counter = int(start)

    def words(self, count: int) -> np.ndarray:
        out = random_words(self.seed, self._counter, count)
        self._counter += count
        return out

    def uniforms(self, count: int) -> np.ndarray:
        """``count`` iid uniforms (``_uniforms``)."""
        return _uniforms(self.words(count))

    def normals(self, count: int) -> np.ndarray:
        """``count`` iid standard normals (consumes 2*ceil(count/2) words)."""
        return _box_muller(self.uniforms(2 * ((count + 1) // 2)), count)

    def normal_rows(self, rows: int, dim: int) -> np.ndarray:
        """A (rows, dim) block of standard normals, row-major in the stream."""
        return self.normals(rows * dim).reshape(rows, dim)


def finite_diff_gradient(obj: Objective, x: np.ndarray,
                         h: float) -> np.ndarray:
    """Central-difference gradient of the exact value, coordinate-wise."""
    if h <= 0:
        raise InvalidArgument("h must be positive")
    x = np.asarray(x, dtype=float)
    g = np.empty_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (obj.value(x + e) - obj.value(x - e)) / (2.0 * h)
    return g


def finite_diff_gradient_check(obj: Objective, x: np.ndarray,
                               h: float) -> float:
    """Max over coordinates of |analytic - central difference| relative to
    max(1, |component|)."""
    x = np.asarray(x, dtype=float)
    analytic = obj.gradient(x)
    numeric = finite_diff_gradient(obj, x, h)
    denom = np.maximum(1.0, np.abs(analytic))
    return float(np.max(np.abs(analytic - numeric) / denom))


def finite_diff_hvp(obj: Objective, x: np.ndarray, v: np.ndarray,
                    h: float) -> np.ndarray:
    """Central difference of the exact gradient along v."""
    if h <= 0:
        raise InvalidArgument("h must be positive")
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    return (obj.gradient(x + h * v) - obj.gradient(x - h * v)) / (2.0 * h)


def killed_chain_survival(a: float, s: float, radius: float, steps: int,
                          panels: int, order: int = 8) -> np.ndarray:
    """S(t) = P(|x_1|, ..., |x_t| <= radius) for t = 0, ..., steps, where
    x_0 = 0 and x_{t+1} = a x_t + s z_t with iid standard normal z_t.

    The density p_t of the surviving chain follows the killed-kernel
    recursion p_{t+1}(y) = int_{-r}^{r} p_t(x) phi((y - a x)/s)/s dx, and
    S(t) is the integral of p_t over [-r, r].  The integrals are taken by
    Nystrom's method on ``panels`` equal panels of ``order`` Gauss-Legendre
    nodes each; the kernel is smooth, so the error falls fast with panels.
    """
    g, w = np.polynomial.legendre.leggauss(order)
    edges = np.linspace(-radius, radius, panels + 1)
    half = 0.5 * np.diff(edges)[:, None]
    nodes = (0.5 * (edges[1:] + edges[:-1])[:, None] + half * g).ravel()
    weights = (half * w).ravel()

    def kernel(y, x):
        return np.exp(-0.5 * ((y - a * x) / s) ** 2) / (
            s * math.sqrt(2.0 * math.pi))

    step = kernel(nodes[:, None], nodes[None, :]) * weights
    p = kernel(nodes, 0.0)
    survival = [1.0]
    for _ in range(steps):
        survival.append(float(weights @ p))
        p = step @ p
    return np.array(survival)

"""Helpers the tests share: a sequential view of a noise stream and
finite-difference oracles for the objectives' exact derivatives.

The package reads every stream by address (``ballsgd.rng.random_words``);
``Rng`` reads one address word after word, which is how many tests build
their inputs.
"""

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


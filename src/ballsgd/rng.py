"""Counter-based pseudo-random generator used by every sampler in the package.

The generator is deliberately tiny and written out in full so that a stream
can be reproduced bit-for-bit in any language.  Word ``n`` (zero-based) of the
stream with seed ``s`` is

    out_n = mix64(s + (n + 1) * 0x9E3779B97F4A7C15  mod 2^64)

where ``mix64`` is the SplitMix64 finalizer:

    z ^= z >> 30;  z *= 0xBF58476D1CE4E5B9  mod 2^64
    z ^= z >> 27;  z *= 0x94D049BB133111EB  mod 2^64
    z ^= z >> 31

Uniform doubles take the top 53 bits: ``u = ((out >> 11) + 1) * 2^-53``,
giving values in (0, 1].  Standard normals come from Box-Muller.  A
request for n normals takes p = ceil(n/2) radius words u_1..u_p followed by
p angle words v_1..v_p, and returns the first n of

    r_i cos(2 pi v_i) (i = 1..p),  then  r_i sin(2 pi v_i) (i = 1..p),
    with r_i = sqrt(-2 ln u_i)

so the draws depend on how a stream is split into requests:
``normals(4)`` is not ``normals(2)`` followed by ``normals(2)``.  The noise
samplers draw each d-dimensional row as one such request.

The counter only ever moves forward, so a stream is fully determined by the
seed and the sequence of requested block shapes.  ``Rng(seed, start)``
starts at word ``start``: a reader that knows where a draw begins can read
it without reading what comes before.  The Monte-Carlo checks use this to
give each trial chunk a fixed word range, so their reports are
bit-identical for any number of cores.
"""

from __future__ import annotations

import numpy as np

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)
_MASK = np.uint64(0xFFFFFFFFFFFFFFFF)

_TWO_NEG53 = 2.0 ** -53


def _mix64(z):
    z = (z ^ (z >> np.uint64(30))) * _M1
    z = (z ^ (z >> np.uint64(27))) * _M2
    return z ^ (z >> np.uint64(31))


def random_words(seed: int, start: int, count: int) -> np.ndarray:
    """Words ``start .. start+count-1`` of the stream with the given seed."""
    s = np.uint64(seed & 0xFFFFFFFFFFFFFFFF)
    n = np.arange(start + 1, start + count + 1, dtype=np.uint64)
    with np.errstate(over="ignore"):
        return _mix64(s + n * _GAMMA)


def _words_to_uniform(words: np.ndarray) -> np.ndarray:
    # (0, 1]: the +1 keeps log() finite for Box-Muller.
    return ((words >> np.uint64(11)).astype(np.float64) + 1.0) * _TWO_NEG53


def _box_muller(u: np.ndarray) -> np.ndarray:
    """Normals from uniforms whose last axis holds p radius uniforms and
    then p angle uniforms; the output's last axis holds the p cosine
    normals and then the p sine normals."""
    pairs = u.shape[-1] // 2
    r = np.sqrt(-2.0 * np.log(u[..., :pairs]))
    theta = 2.0 * np.pi * u[..., pairs:]
    return np.concatenate([r * np.cos(theta), r * np.sin(theta)], axis=-1)


class Rng:
    """Sequential view over the counter-based stream for one seed, from
    word ``start`` on."""

    def __init__(self, seed: int, start: int = 0):
        self.seed = int(seed)
        self._counter = int(start)

    def words(self, count: int) -> np.ndarray:
        out = random_words(self.seed, self._counter, count)
        self._counter += count
        return out

    def uniforms(self, count: int) -> np.ndarray:
        """``count`` iid uniforms on (0, 1]."""
        return _words_to_uniform(self.words(count))

    def uniform(self) -> float:
        return float(self.uniforms(1)[0])

    def normals(self, count: int) -> np.ndarray:
        """``count`` iid standard normals (consumes 2*ceil(count/2) words)."""
        return _box_muller(self.uniforms(2 * ((count + 1) // 2)))[:count]

    def normal_rows(self, rows: int, dim: int) -> np.ndarray:
        """A (rows, dim) block of standard normals, row-major in the stream."""
        return self.normals(rows * dim).reshape(rows, dim)

    def unit_vector(self, dim: int) -> np.ndarray:
        v = self.normals(dim)
        return v / np.linalg.norm(v)

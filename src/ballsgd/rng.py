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

so the draws depend on how a stream is split into requests: one request
for 4 normals is not two successive requests for 2.  The noise samplers
draw each d-dimensional row as one such request.

Every draw is read by its address, the pair (seed < 2^64, first word),
with ``random_words``, whose seeds and starts broadcast, and no generator is
carried from one draw to the next.  ``NoiseSampler.rows`` reads rows of w =
``words_per_row`` words at every address in one call.  Each Monte-Carlo
trial chunk reads a fixed word range, so the checks' reports are
bit-identical for any core count.

A run's noise is addressed by seed and step: step t of seed s reads row t
of stream s (words t*w on), t being the run's global step across its
episodes, in any batch; the run's n-th injection is row n of stream
s ^ 0x6A09E667F3BCC908.  A truncated row past its bound, with first word o,
is replaced by the first row within it of the redraw stream, seeded with
word o of stream s ^ 0xBB67AE8584CAA73B: candidate j is row j of the redraw
stream.  Certify's (d, k) start block, k = min(4, d), is one Box-Muller
request for d*k normals from word 0 of stream seed mod 2^64.

Each formula above is computed in place, in buffers this module allocates
itself or takes from a caller's ``work`` dict (``_buffer``), never in an
array a caller passed in, with the same operations in the same order as
written, so words, uniforms and normals are bit-identical to a fresh array
per operation.  There is one exception: the normals that ``_box_muller``
makes with float32 trig, which only the Pinelis screen asks for
(``NoiseSampler._screen``), are only bounded, not bit-identical to any
formula; they decide which trials draw exact rows, and no count.
"""

from __future__ import annotations

import math

import numpy as np

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)

_TWO_NEG53 = 2.0 ** -53


def _mix64(z, scratch):
    """SplitMix64 finalizer of the uint64 array z, in place; scratch is a
    second buffer of z's shape that it overwrites."""
    for shift, mult in ((30, _M1), (27, _M2)):
        np.right_shift(z, np.uint64(shift), out=scratch)
        np.bitwise_xor(z, scratch, out=z)
        np.multiply(z, mult, out=z)
    np.right_shift(z, np.uint64(31), out=scratch)
    np.bitwise_xor(z, scratch, out=z)


def _buffer(work, key, shape, dtype=np.float64):
    """Where a kernel step writes its result: a fresh array when work is
    None, else a view of the buffer work[key], which grows as needed and
    which the next step using the same work and key overwrites.  A
    Monte-Carlo worker passes one work dict to every chunk it draws, so its
    chunks reuse the same memory instead of allocating, freeing and
    page-faulting it again for each chunk."""
    if work is None:
        return np.empty(shape, dtype)
    size = math.prod(shape)
    buf = work.get(key)
    if buf is None or buf.size < size:
        buf = work[key] = np.empty(size, dtype)
    return buf[:size].reshape(shape)


def random_words(seed, start, count: int, work=None) -> np.ndarray:
    """Words ``start .. start+count-1`` of the stream of each seed, on the
    last axis.  seed and start are nonnegative ints below 2^64 or integer
    arrays, and broadcast; see ``_buffer`` for work."""
    s = np.asarray(seed, np.uint64)[..., None]
    o = np.asarray(start, np.uint64)[..., None]
    shape = np.broadcast(s, o).shape[:-1] + (count,)
    work = {} if work is None else work  # a fresh dict: fresh arrays
    iota = work.get("iota")
    if iota is None or iota.size < count:
        iota = work["iota"] = np.arange(1, count + 1, dtype=np.uint64)
    n = np.add(iota[:count], o,
               out=_buffer(work, "counters", shape, np.uint64))
    with np.errstate(over="ignore"):
        z = np.multiply(n, _GAMMA,
                        out=_buffer(work, "words", shape, np.uint64))
        np.add(z, s, out=z)
        _mix64(z, n)  # the counters' buffer is the scratch
    return z


def _uniforms(bits: np.ndarray) -> np.ndarray:
    """The uniforms ((w >> 11) + 1) * 2^-53 on (0, 1] of the words w, in
    the words' memory (the +1 keeps log() finite for Box-Muller)."""
    np.right_shift(bits, np.uint64(11), out=bits)
    u = bits.view(np.float64)
    np.add(bits, 1.0, out=u)
    np.multiply(u, _TWO_NEG53, out=u)
    return u


def _box_muller(u: np.ndarray, count=None, work=None,
                trig=np.float64) -> np.ndarray:
    """Normals from uniforms whose last axis holds p radius uniforms and
    then p angle uniforms; the output's last axis holds the p cosine
    normals and then the first count - p sine normals (all p when count is
    None).  See ``_buffer`` for work; the radii r_i stay in work's
    "radii" buffer until the next call with the same work.

    trig is the dtype cos and sin are taken in.  float64 gives the normals
    of the module docstring.  float32 rounds each angle to float32 first,
    and its normals are only bounded: each is within r_i (2^-22 + e + 2^-51)
    of the float64 one, e being float32 trig's own error."""
    pairs = u.shape[-1] // 2
    sines = pairs if count is None else count - pairs
    half = u.shape[:-1] + (pairs,)
    # r and theta are contiguous arrays of their own, so log, sqrt, cos and
    # sin each run as one loop; only the two products write into the
    # output, whose rows interleave them
    r = np.log(u[..., :pairs], out=_buffer(work, "radii", half))
    np.multiply(-2.0, r, out=r)
    np.sqrt(r, out=r)
    theta = np.multiply(2.0 * np.pi, u[..., pairs:],
                        out=_buffer(work, "angles", half))
    angles = theta
    if trig is not np.float64:
        angles = _buffer(work, "rounded", half, trig)
        np.copyto(angles, theta, casting="same_kind")
    shape = u.shape[:-1] + (pairs + sines,)
    out = _buffer(work, "normals", shape)
    # cos and sin of float32 angles run in float32 and write float64
    np.multiply(r, np.cos(angles, out=_buffer(work, "cosines", half)),
                out=out[..., :pairs])
    np.sin(angles, out=theta)
    np.multiply(r[..., :sines], theta[..., :sines], out=out[..., pairs:])
    return out


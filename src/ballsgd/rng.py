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

cos(2 pi v) and sin(2 pi v) are taken with IEEE +, - and * only, after a
quadrant k = rint(4 v) (ties to even):

    x = (v - k/4) * fl(2 pi),  z = x * x,  q = k mod 4
    p_c = C1 + z (C2 + z (C3 + z (C4 + z (C5 + z C6))))
    p_s = S1 + z (S2 + z (S3 + z (S4 + z (S5 + z S6))))
    s = x + (z x) p_s,  w = 1 - z/2,  c = w + (((1 - w) - z/2) + z (z p_c))
    cos(2 pi v) = c A[q] + s B[q],  sin(2 pi v) = s A[q] - c B[q]
    with A = (1, 0, -1, 0) and B = (0, -1, 0, 1)

evaluated innermost first as written (Horner's rule), each product and
sum rounded once; C1..C6 and S1..S6 are fdlibm's __kernel_cos and
__kernel_sin coefficients (``_POLYNOMIALS``).  v - k/4 is exact and |x| <=
pi/4, so both are within 2^-52 of cos and sin of 2 pi v (1.26 and 1.22 x
2^-53 measured), and, unlike a libm cos, they are the same on every IEEE
platform.  ln and sqrt are numpy's.

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

# fdlibm's __kernel_cos and __kernel_sin coefficients (k_cos.c, k_sin.c):
# row j holds C_{6-j} and S_{6-j}, so that the rows from the top are the
# Horner steps of p_c = C1 + z (C2 + ... + z C6) and p_s = S1 + z (S2 +
# ... + z S6), z = x^2, on |x| <= pi/4
_POLYNOMIALS = np.array([
    [-1.13596475577881948265e-11, 1.58969099521155010221e-10],
    [2.08757232129817482790e-09, -2.50507602534068634195e-08],
    [-2.75573143513906633035e-07, 2.75573137070700676789e-06],
    [2.48015872894767294178e-05, -1.98412698298579493134e-04],
    [-1.38888888888741095749e-03, 8.33333333332248946124e-03],
    [4.16666666666666019037e-02, -1.66666666666666324348e-01]])[..., None]
# cos(x + q pi/2) = A[q] cos x + B[q] sin x and
# sin(x + q pi/2) = A[q] sin x - B[q] cos x; row 0 is A, row 1 is B.  The
# last column repeats the first, so that k = 0..4 indexes A[k mod 4] and
# B[k mod 4] directly.
_QUADRANTS = np.array([[1.0, 0.0, -1.0, 0.0, 1.0],
                       [0.0, -1.0, 0.0, 1.0, 0.0]])


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


def _box_muller(u: np.ndarray, count: int, work=None,
                trig=np.float64) -> np.ndarray:
    """Normals from uniforms whose last axis holds p radius uniforms and
    then p angle uniforms; the output's last axis holds the p cosine
    normals and then the first count - p sine normals, p <= count <= 2 p.
    See ``_buffer`` for work; the radii r_i stay in work's "radii" buffer
    until the next call with the same work.

    trig is the dtype cos and sin are taken in.  float64 gives the normals
    of the module docstring, whose cosines and sines (``_cos_sin_2pi``)
    are within 2^-52 of cos and sin of 2 pi v.  float32 takes
    numpy's float32 cos and sin of the angle fl(2 pi v) rounded to float32,
    and its normals are only bounded: each is within r_i (2^-22 + e +
    2^-49) of the float64 one, e being float32 trig's own error (the
    docstring of ``concentration.pinelis_tail_experiment`` derives it)."""
    pairs = u.shape[-1] // 2
    sines = count - pairs
    half = u.shape[:-1] + (pairs,)
    # r and the trig are contiguous arrays of their own, so each step runs
    # as one loop; only the two products write into the output, whose rows
    # interleave them
    r = np.log(u[..., :pairs], out=_buffer(work, "radii", half))
    np.multiply(-2.0, r, out=r)
    np.sqrt(r, out=r)
    if trig is np.float64:
        cos, sin = _cos_sin_2pi(u[..., pairs:], work)
    else:
        theta = np.multiply(2.0 * np.pi, u[..., pairs:],
                            out=_buffer(work, "angles", half))
        angles = _buffer(work, "rounded", half, trig)
        np.copyto(angles, theta, casting="same_kind")
        # cos and sin of float32 angles run in float32 and write float64
        cos = np.cos(angles, out=_buffer(work, "cosines", half))
        sin = np.sin(angles, out=theta)
    shape = u.shape[:-1] + (pairs + sines,)
    out = _buffer(work, "normals", shape)
    np.multiply(r, cos, out=out[..., :pairs])
    np.multiply(r[..., :sines], sin[..., :sines], out=out[..., pairs:])
    return out


def _cos_sin_2pi(v: np.ndarray, work=None):
    """cos(2 pi v) and sin(2 pi v) of the uniforms v, computed as the
    module docstring states, in work's "trig" buffer (``_buffer``), which
    also holds the scratch; v is left unchanged."""
    size = v.size
    scratch, pair, cs = _buffer(work, "trig", (3, 2, size))
    k, x = scratch
    z, zx = pair
    c, s = cs
    quadrant = _buffer(work, "quadrants", (size,), np.intp)
    np.multiply(v, 4.0, out=k.reshape(v.shape))
    np.rint(k, out=k)
    np.copyto(quadrant, k, casting="unsafe")  # an exact integer 0..4
    np.multiply(k, 0.25, out=x)
    np.subtract(v, x.reshape(v.shape), out=x.reshape(v.shape))
    np.multiply(x, 2.0 * np.pi, out=x)
    np.multiply(x, x, out=z)
    # both polynomials in z by Horner's rule, cos's in c and sin's in s
    np.multiply(z, _POLYNOMIALS[0], out=cs)
    for coefficients in _POLYNOMIALS[1:-1]:
        np.add(cs, coefficients, out=cs)
        np.multiply(cs, z, out=cs)
    np.add(cs, _POLYNOMIALS[-1], out=cs)
    # sin x = x + (z x) p_s
    np.multiply(z, x, out=zx)
    np.multiply(zx, s, out=s)
    np.add(x, s, out=s)
    # cos x = w + (((1 - w) - z/2) + z (z p_c)), w = 1 - z/2
    np.multiply(c, z, out=c)
    np.multiply(z, c, out=c)
    hz = np.multiply(0.5, z, out=z)
    w = np.subtract(1.0, hz, out=k)
    np.subtract(1.0, w, out=x)
    np.subtract(x, hz, out=x)
    np.add(x, c, out=x)
    np.add(w, x, out=c)
    # the quadrant: (a, b) = (A[q], B[q]), cos = c a + s b, sin = s a - c b
    ab = np.take(_QUADRANTS, quadrant, axis=1, out=pair, mode="clip")
    terms = np.multiply(cs, ab, out=scratch)
    np.multiply(c, ab[1], out=c)
    np.multiply(s, ab[0], out=s)
    cosines = np.add(terms[0], terms[1], out=terms[0])
    sines = np.subtract(s, c, out=s)
    return cosines.reshape(v.shape), sines.reshape(v.shape)

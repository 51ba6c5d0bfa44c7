"""Dispersive-noise geometry: how much mass each noise family puts on a
narrow slab.

A noise distribution is dispersive when every slab of width q* = sigma /
(4 sqrt(d)) orthogonal to any unit direction carries at most 1/4 of its
mass.  This is the property that lets a single noisy step push coupled
trajectories apart near a saddle.
"""

import math

import numpy as np

from ballsgd import (NarrowSet, NoiseSampler, dispersive_width,
                     estimate_set_probability)

sigma = 1.0
n = 100_000

print(f"slab mass at width q* = sigma / (4 sqrt(d)), {n} samples each:")
print(f"{'kind':>16} {'d':>4} {'q*':>8} {'estimate':>10} {'ci':>8}")
for kind in ("scaled-gaussian", "uniform-ball", "uniform-sphere"):
    for dim in (2, 5, 20):
        sampler = NoiseSampler(kind, sigma, dim)
        direction = np.zeros(dim)
        direction[0] = 1.0
        width = dispersive_width(sigma, dim)
        est = estimate_set_probability(sampler,
                                       NarrowSet.centered(direction, width),
                                       n, seed=0)
        print(f"{kind:>16} {dim:>4} {width:8.4f} {est.frequency:10.4f}"
              f" {est.half_width:8.4f}")
print()
print("all estimates sit well below the dispersive threshold 0.25.")
print()

# the scaled-Gaussian slab mass has a closed form: for per-coordinate
# scale sigma / sqrt(d) the projection on any unit direction is
# N(0, sigma^2 / d), so a centered slab of width w has mass about
# w * sqrt(d) / (sigma sqrt(2 pi)) when w is small
dim = 4
width = 1.1 * dispersive_width(sigma, dim)
sampler = NoiseSampler("scaled-gaussian", sigma, dim)
direction = np.zeros(dim)
direction[0] = 1.0
est = estimate_set_probability(sampler, NarrowSet.centered(direction, width),
                               n, seed=0)
closed = 1.1 / (4.0 * math.sqrt(2.0 * math.pi))
print(f"scaled-gaussian, d = {dim}, width 1.1 q*:"
      f" estimate {est.frequency:.4f} vs closed form {closed:.4f}")

"""Certify approximate second-order stationarity of optimizer outputs.

Runs ball-controlled SGD to convergence on the quartic saddle, then checks
the averaged output against the two certificate thresholds: gradient norm
at most 18 rho B^2 and minimum Hessian eigenvalue at least -17 delta.  The
matrix-free estimator is cross-checked against the dense LAPACK value.
"""

import numpy as np

from ballsgd import (NoiseSampler, QuarticSaddle, certify, manual_schedule,
                     min_curvature, min_eigenvalue, run_ball_sgd)
from ballsgd.optimizer import CONVERGED

obj = QuarticSaddle(2)
schedule = manual_schedule(obj.constants, eta=0.01, ball_radius=0.5,
                           k0=3000, ko=400, epsilon=6e-5, p=0.1)
noise = NoiseSampler("uniform-ball", 1.0, 2)

print("certificates for 10 converged runs from the saddle:")
print(f"{'seed':>4} {'grad_norm':>12} {'lambda_min':>12} {'pass':>6}")
for seed in range(10):
    result = run_ball_sgd(obj, noise, schedule, np.zeros(2), seed,
                          budget_mode="unlimited-episodes")
    if result.terminated != CONVERGED:
        print(f"{seed:>4}  (budget exhausted)")
        continue
    cert = certify(obj, result.trace.output, schedule, seed=seed)
    print(f"{seed:>4} {cert.grad_norm:12.5f} {cert.lambda_min:12.5f}"
          f" {'yes' if cert.passed else 'no':>6}")
print()
print(f"thresholds: grad <= {18.0 * obj.constants.rho * schedule.ball_radius ** 2:.4f},"
      f" lambda_min >= {-17.0 * schedule.delta:.4f}")
print()

print("matrix-free estimator vs dense oracle at random points (d = 30):")
big = QuarticSaddle(30)
rng = np.random.default_rng(0)
for _ in range(3):
    x = rng.uniform(-1.0, 1.0, 30)
    est = min_eigenvalue(big, x, seed=0)
    exact = min_curvature(big, x).value
    print(f"  estimate {est.value:+.8f}  dense {exact:+.8f}"
          f"  |diff| {abs(est.value - exact):.2e}"
          f"  ({est.iterations} iterations)")

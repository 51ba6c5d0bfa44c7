"""Derive the fully theoretical hyper-parameter schedule and show how its
stochastic-gradient budget scales as the accuracy target tightens.

The derived constants are deliberately conservative: even at the loosest
feasible accuracy the step budget is astronomically beyond desk scale,
which is why the empirical demos use a hand-calibrated schedule instead.
"""

from ballsgd import QuarticSaddle, derive_schedule

obj = QuarticSaddle(2)

# loosest accuracy with delta2 = 16 sqrt(rho epsilon) <= 1, the curvature
# magnitude at the quartic saddle
epsilon_max = (1.0 / 16.0) ** 2 / obj.constants.rho

print("quartic saddle, d = 2")
print(f"problem constants: L = {obj.constants.L}, rho = {obj.constants.rho},"
      f" sigma = {obj.constants.sigma}")
print()

schedule = derive_schedule(obj.constants, epsilon_max, p=0.1)
print(f"theoretical schedule at the loosest feasible epsilon ="
      f" {epsilon_max:.3e}:")
print(schedule.as_table())
print()

print("budget growth as epsilon tightens:")
print(f"{'epsilon':>12} {'eta':>12} {'K0':>12} {'T0 (steps)':>14}")
for exponent in range(0, 5):
    epsilon = epsilon_max / 10 ** exponent
    s = derive_schedule(obj.constants, epsilon, p=0.1)
    print(f"{epsilon:12.3e} {s.eta:12.3e} {s.k0:12.3e} {s.t0:14.3e}")

print()
print("at ~1e6 SGD steps per second the loosest budget above would take"
      f" about {schedule.t0 / 10 ** 6:.2e} seconds to execute.")

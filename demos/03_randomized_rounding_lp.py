"""Integer-valued features: randomized rounding and the LP relaxation.

Rounding each coordinate up with probability equal to its fractional part
preserves the mean, but inflates the expected squared distance to the class
centroid, which gets continuous-feasible points filtered after rounding.
Constraining E[||x_hat - mu||^2] directly (a piecewise-linear convex
constraint) fixes that.
"""

import numpy as np

from poisonlab import FeasibleSet, LpConstraint, expected_sq_distance, f_piecewise, round_point
from poisonlab.feasible import ClassConstraints

mu = np.array([2.0, 1.0, 3.0])
tau = 1.2
x = mu + np.array([0.55, -0.45, 0.5])

print(f"continuous point distance to centroid: {np.linalg.norm(x - mu):.3f} "
      f"(threshold {tau})")
print(f"expected squared distance after rounding: "
      f"{expected_sq_distance(x, mu):.3f} vs threshold^2 = {tau**2:.3f}")

# Monte Carlo confirms the inflation
draws = np.array([round_point(x, seed) for seed in range(20000)])
dists = np.sum((draws - mu) ** 2, axis=1)
print(f"monte-carlo E[||x_hat - mu||^2] = {dists.mean():.3f}")

# the per-coordinate inflation is the piecewise-linear f(x) = E[x_hat^2]
grid = np.linspace(0.0, 3.0, 7)
print("\n  x     f(x)   x^2")
for v in grid:
    print(f"  {v:.1f}   {float(f_piecewise(v)):5.2f}  {v*v:5.2f}")

# projecting onto the LP-relaxed set yields the closest point that stays
# inside the centroid defense *in expectation* after rounding; the attacks
# project the same way, through a feasible set carrying the LP atom
C = LpConstraint(mu, tau, np.array([6, 6, 6]))
cc = ClassConstraints(nonneg=True, lp=C)
x_lp = FeasibleSet({1: cc, -1: cc}, 3).project(x, 1)
print(f"\nprojected point: {np.round(x_lp, 3)}")
print(f"its expected post-rounding squared distance: "
      f"{expected_sq_distance(x_lp, mu):.3f} <= {tau**2:.3f}")
draws = np.array([round_point(x_lp, seed) for seed in range(20000)])
print(f"monte-carlo check: {np.mean(np.sum((draws - mu) ** 2, axis=1)):.3f}")

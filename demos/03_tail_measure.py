"""Joint tail measures: densities, rectangle masses, angular diagnostics.

The scaled exceedance probabilities of the degree pair converge to a
combined tail measure with an explicit density.  Rectangle masses have
a one-dimensional incomplete-gamma reduction, the measure is homogeneous
under the (c**c1, c**c2) scaling, and the standardized sample's angular
histogram shows genuine asymptotic dependence (interior mass).
"""

import numpy as np

from heavytail_pa import (
    LimitDistribution,
    ModelParams,
    TailMeasure,
    angular_histogram,
    standardize,
)

params = ModelParams(alpha=0.3, beta=0.5, gamma=0.2, delta_in=1.0, delta_out=1.0)
tm = TailMeasure(params)
d = tm.derived

print("density on the diagonal:")
for x in (0.5, 1.0, 2.0, 4.0):
    print(f"  f_combined({x}, {x}) = {tm.density('combined', x, x):.6f}")

print("\nhomogeneity: f1(c^c1 x, c^c2 y) * c^(1+c1+c2) is constant in c")
x, y = 1.0, 1.5
base = tm.density(1, x, y)
for c in (0.25, 1.0, 4.0):
    val = tm.density(1, c**d.c1 * x, c**d.c2 * y) * c ** (1 + d.c1 + d.c2)
    print(f"  c = {c:5.2f}: {val:.10f}  (base {base:.10f})")

print("\nrectangle masses and the closed-form marginal:")
for x_lo in (0.5, 1.0, 2.0):
    quad_val = tm.rect_mass(1, x_lo, 0.0)
    closed = tm.marginal_mass_closed_form(1, x_lo)
    print(f"  V1([{x_lo},inf) x [0,inf)) = {quad_val:.8f}, closed form {closed:.8f}")
print(f"  combined V([1,inf)^2) = {tm.rect_mass('combined', 1.0, 1.0):.6f}")

# exceedance scaling of the sampled law against the combined measure
dist = LimitDistribution(params)
rng = np.random.default_rng(99)
i_draws, o_draws = dist.sample(2 * 10**6, rng)
h = 3000.0
frac = np.mean((i_draws > h**d.c1) & (o_draws > h**d.c2))
print(f"\nh * P[I > h^c1, O > h^c2] at h = {h:.0f}: {h * frac:.3f} "
      f"vs combined mass {tm.rect_mass('combined', 1.0, 1.0):.3f}")

std = standardize((i_draws, o_draws), d)
radius = std.u + std.v
hist = angular_histogram(std, float(np.quantile(radius, 0.999)), bins=10)
print(f"\nangular histogram of {hist.exceedances} standardized exceedances "
      f"(L1 angle, 10 bins):")
print("  " + "  ".join(f"{m:.3f}" for m in hist.masses))
print("interior bins carry mass: the two degrees are asymptotically dependent")

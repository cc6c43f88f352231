"""Transform-side scaling limits on the derivative measure.

Weighting the component pmf by rising factorials produces an infinite
lattice measure whose rescaled versions converge, and whose rescaled
Laplace transforms converge to an explicit integral.  The two sides are
computed by independent code paths (closed-form NB sections per mixing
node vs limit kernel quadrature), so watching the error shrink along a
log-spaced grid is a genuine numerical verification of the scaling limit.

Grids here are kept modest so the script runs in seconds; the full
protocol (h up to 1e6) is the acceptance suite's criterion 8.
"""

from heavytail_pa import (
    ModelParams,
    ScalingFunctions,
    build_derivative_measure,
    derivative_limit_rect,
    marginal_check,
    measure_scaling,
    transform_scaling,
    truncation_check,
    uhat_limit_rhs,
)

params = ModelParams(alpha=0.3, beta=0.5, gamma=0.2, delta_in=1.0, delta_out=1.0)
k = 3
u = build_derivative_measure(k, params)
b = ScalingFunctions.for_derivative_measure(params, k)
print(f"derivative measure at k = {k}: scaling indices "
      f"gamma1 = {b.gamma1:.4f}, gamma2 = {b.gamma2:.4f}")

print("\ndivergent total mass (partial sums over growing squares):")
for s in (100, 400, 1600):
    print(f"  [0,{s}]^2: {u.rect_mass_below(s, s):.2f}")

print("\ntransform scaling vs the limit integral at lambda = (1, 1):")
rhs = uhat_limit_rhs(k, params, 1.0, 1.0)
for h in (1e2, 1e3, 1e4):
    lhs = transform_scaling(u, b, h, 1.0, 1.0)
    print(f"  h = {h:8.0f}: scaled {lhs:.5f}  limit {rhs:.5f}  rel err {abs(lhs/rhs-1):.3%}")

print("\nmeasure scaling vs the limit rectangle mass at (1, 1):")
target = derivative_limit_rect(k, params, 1.0, 1.0)
for t in (1e2, 1e3, 1e4):
    val = measure_scaling(u, b, t, 1.0, 1.0)
    print(f"  t = {t:8.0f}: {val:.5f}  limit {target:.5f}  rel err {abs(val/target-1):.3%}")

print("\ntail regularity: transform mass beyond the box [0,y)^2, relative to y = 0:")
trunc = truncation_check(params, k, t_grid=(1e3, 1e4), measure=u)
for r in trunc["rows"]:
    print(f"  t = {r['t']:8.0f}  y = {r['y']:3.0f}: ratio {r['ratio_to_y0']:.2e}")

marg = marginal_check(params, k, t_grid=(1e4,), measure=u)
print(f"\nmarginal scaling with b1 taken at t/K (normalizer K = {marg['normalizer']:.4f}):")
for r in marg["rows"]:
    print(f"  x = {r['x']:.1f}: ratio {r['ratio']:.4f}  target x^gamma1 = {r['target']:.4f} "
          f" rel err {r['rel_err']:.2%}")

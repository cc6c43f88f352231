"""The limiting joint degree law: generating functions, masses, sampling.

The law is a two-component mixture; conditionally on a latent Pareto
variable the coordinates are independent negative binomials.  That
representation gives three independent routes to the same numbers:
quadrature of the printed generating functions, quadrature of the pmf,
and Monte Carlo from the exact sampler.  This script plays them against
each other, and against a simulated graph.
"""

import numpy as np

from heavytail_pa import (
    LimitDistribution,
    ModelParams,
    compare_pmf,
    degree_counts,
    empirical_pmf,
    simulate,
)
from heavytail_pa.census import JointPMF

params = ModelParams(alpha=0.3, beta=0.5, gamma=0.2, delta_in=1.0, delta_out=1.0)
dist = LimitDistribution(params)

print("pgf normalization: phi1(1,1) =", dist.pgf_component(1, 1.0, 1.0))
print("closed-form check: phi1(0,1) =", dist.pgf_component(1, 0.0, 1.0), "= 15/31 =", 15 / 31)
print("pgf at the origin vanishes:", dist.pgf(0.0, 0.0))
h = 1e-5
slope = (3 * dist.pgf(1.0, 1.0) - 4 * dist.pgf(1 - h, 1.0) + dist.pgf(1 - 2 * h, 1.0)) / (2 * h)
print("mean in-degree:", dist.mean_in_degree(), "closed form;", slope,
      "pgf slope (limit: 1/(alpha+gamma) = 2)")

rng = np.random.default_rng(7)
xs, ys = dist.sample_component(1, 10**6, rng)
x, y = 0.5, 0.5
mc = float(np.mean(x**xs.astype(float) * y**ys.astype(float)))
quad = dist.pgf_component(1, x, y)
print(f"\nmixture sampler vs quadrature at ({x},{y}): MC {mc:.6f}, quad {quad:.6f}")

print("\nsmall-degree masses p(i,j) of the full law:")
table = dist.pmf_table(4, 4)
for i in range(5):
    print("  " + "  ".join(f"{table[i, j]:.4f}" for j in range(5)))
print("note p(0,0) = 0: every node enters the graph with an edge endpoint")

i_draws, o_draws = dist.sample(10**6, rng)
p_has_in = 1.0 - 0.6 * dist.pgf_component(2, 0.0, 1.0)
print(f"\nsampler check: min(I+O) = {(i_draws + o_draws).min()}, "
      f"P[I >= 1] = {np.mean(i_draws >= 1):.4f} (analytic {p_has_in:.4f})")

graph = simulate(10**6, params, seed=123)
emp = empirical_pmf(degree_counts(graph))
ana = JointPMF(dist.pmf_table(10, 10))
report = compare_pmf(emp, ana, 10, 10)
print(f"\nmillion-edge graph vs analytic law on the 10x10 box: "
      f"TV = {report.tv_distance:.4f}, max cell deviation = {report.max_abs_diff:.5f}")

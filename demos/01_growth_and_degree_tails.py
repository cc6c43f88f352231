"""Grow a directed graph by preferential attachment and inspect its tails.

Three things to watch: the node count settles at (1-beta) per edge, the
in/out degree marginals develop power-law tails, and the Hill estimates
of those tails land on the predicted exponents.
"""

from heavytail_pa import (
    ModelParams,
    default_hill_k,
    degree_counts,
    derive,
    empirical_pmf,
    hill_estimate,
    simulate,
)

params = ModelParams(alpha=0.3, beta=0.5, gamma=0.2, delta_in=1.0, delta_out=1.0)
d = derive(params)
print("model:", params.as_dict())
print(f"predicted exponents: alpha_in = {d.alpha_in:.4f}, alpha_out = {d.alpha_out:.4f}")

n_edges = 300_000
graph = simulate(n_edges, params, seed=42)
print(f"\ngrew {graph.edge_count} edges, {graph.node_count} nodes")
print(f"N/n = {graph.node_count / graph.edge_count:.4f}  (limit: 1 - beta = {1 - params.beta})")

counts = degree_counts(graph)
pmf = empirical_pmf(counts)
print(f"\njoint degree table spans in-degree <= {counts.shape[0] - 1}, "
      f"out-degree <= {counts.shape[1] - 1}")
print("mass at small degrees:")
for i in range(4):
    row = "  ".join(f"p({i},{j})={pmf.get(i, j):.4f}" for j in range(4))
    print("  " + row)

for name, degrees, target in (
    ("in", graph.in_degree, d.alpha_in - 1.0),
    ("out", graph.out_degree, d.alpha_out - 1.0),
):
    positive = degrees[degrees > 0].astype(float)
    k = default_hill_k(positive.size)
    fit = hill_estimate(positive, k)
    print(f"\n{name}-degree Hill estimate (k={k}): "
          f"{fit.index_estimate:.3f} +- {fit.stderr:.3f}  (tail index target {target:.3f})")

"""Triforce and k-force densities and weighted kernels.

The triforce is the 3-uniform hypergraph on vertices {1,2,3,1',2',3'} with
edges 123', 12'3, 1'23; the k-force is its k-uniform analogue.  Its
homomorphism density against a host hypergraph, or against a step kernel on
[0,1]^3, is the quantity that controls how many corners the most popular
difference of a pair set must carry.
"""

import random
from fractions import Fraction

from cornerforge import (
    Hypergraph,
    StepKernel,
    edge_density,
    hom_count,
    kforce_density,
    triforce_motif,
    triforce_weighted,
)

single = Hypergraph(3, 3, frozenset({frozenset({0, 1, 2})}))
print("single triple on 3 vertices:")
print(f"  edge density      {edge_density(single)}")
print(f"  triforce homs     {hom_count(triforce_motif(), single)} (6 per triple)")
print(f"  triforce density  {kforce_density(single)}")

rng = random.Random(1)
edges = frozenset(
    frozenset(e)
    for e in __import__("itertools").combinations(range(7), 3)
    if rng.random() < 0.4
)
h = Hypergraph(3, 7, edges)
dens = kforce_density(h)
check = Fraction(hom_count(triforce_motif(), h), 7**6)
print(f"\nrandom hypergraph, {len(edges)} triples: codegree recipe {dens} == DFS count {check}: {dens == check}")

k4 = Hypergraph(4, 5, frozenset({frozenset({0, 1, 2, 3}), frozenset({1, 2, 3, 4})}))
print(f"4-force density of two overlapping 4-edges: {kforce_density(k4)}")

# --- weighted kernels ---------------------------------------------------------

print("\nstep kernels W on [0,1]^3 (exact rational integrals):")
for w, label in [
    (StepKernel.constant(1, Fraction(1, 2)), "constant 1/2"),
    (StepKernel.indicator(2, (0, 0, 0)), "single cell of a 2x2x2 grid"),
]:
    value = triforce_weighted(w)
    print(f"  {label}: integral {value}, mean^4 = {w.mean() ** 4}, ratio {value / w.mean() ** 4}")

# the integral always dominates mean^4; random kernels show the slack
worst = None
for _ in range(200):
    w = StepKernel(
        2, [[[Fraction(rng.randint(0, 8), 8) for _ in range(2)] for _ in range(2)] for _ in range(2)]
    )
    if w.mean() == 0:
        continue
    ratio = triforce_weighted(w) / w.mean() ** 4
    worst = ratio if worst is None else min(worst, ratio)
print(f"  smallest integral/mean^4 ratio over 200 random kernels: {float(worst):.3f} (never below 1)")

"""Randomized pair sets from a step kernel, tracking the triforce integral.

Draw uniform labels X_a, Y_a, Z_a per group element, then keep pair (a, b)
with probability W(X_a, Y_b, Z_{-a-b}).  For every nonzero difference d the
normalized corner count |S_d|/|G|^2 has expectation exactly equal to the
kernel's triforce integral -- the construction that turns a low-triforce
kernel into a pair set with no good popular difference.

Sampling is reproducible down to the bit: labels come from SHA-256 of
"<seed>|<role>|<element>" strings (first 8 bytes, big-endian, over 2^64),
and inclusion compares the coin against the exact rational kernel value.
"""

from fractions import Fraction
import random

from cornerforge import (
    Group,
    StepKernel,
    mandache_report,
    sample_mandache,
    triforce_weighted,
)

group = Group.vector(3, 3)  # F_3^3, |G| = 27

rng = random.Random(7)
kernels = {
    "constant 1/2": StepKernel.constant(1, Fraction(1, 2)),
    "one cell of 2x2x2": StepKernel.indicator(2, (0, 1, 0)),
    "random 2x2x2": StepKernel(
        2, [[[Fraction(rng.randint(0, 16), 16) for _ in range(2)] for _ in range(2)] for _ in range(2)]
    ),
}

for label, w in kernels.items():
    target = triforce_weighted(w)
    report = mandache_report(w, group, seeds=range(80))
    grand = report.grand_mean()
    se = report.standard_error()
    print(f"{label}:")
    print(f"  triforce integral  {target} = {float(target):.5f}")
    print(f"  grand mean |S_d|/|G|^2 over 80 seeds: {float(grand):.5f} (se {se:.5f})")
    spread = [float(row["max"] - row["min"]) for row in report.per_seed]
    print(f"  per-seed spread max_d - min_d averages {sum(spread) / len(spread):.5f}")

# determinism: the same seed reproduces the same set, bit for bit
w = kernels["random 2x2x2"]
a = sample_mandache(w, group, seed=123)
b = sample_mandache(w, group, seed=123)
c = sample_mandache(w, group, seed=124)
print(f"\nseed 123 twice -> identical sets: {a == b}; seed 124 differs: {a != c}")

"""Counting pattern occurrences and popular-difference spectra.

A spectrum maps each nonzero difference d to the number of occurrences of a
fixed pattern dilated by d.  Random sets concentrate near the product of
point densities; structured sets can behave very differently, which is the
whole game in the rest of the demos.
"""

import random

from cornerforge import (
    GridSet,
    Group,
    GroupSet,
    Pattern,
    corner_count_group,
    spectrum,
)

# --- grids ------------------------------------------------------------------

full = GridSet.full(3, 6)
corner = Pattern.corner(3)
counts = spectrum(full, corner).counts
print("full [6]^3 cube, corner counts by difference:")
for d in range(1, 6):
    print(f"  d={d}: {counts[d]} (= (6-d)^3)")

rng = random.Random(0)
half = GridSet(3, 6, [p for p in full if rng.random() < 0.5])
spec = spectrum(half, corner)
best_d, best = spec.max_entry()
print(f"\nrandom half-density subset: {len(half)} members")
print(f"  most popular difference d={best_d} with {best} corners")
print(f"  total corner count over all d: {spec.total()}")

# patterns need not contain the origin; anchors may sit outside the grid
window = Pattern.one_dim([5, 7])
line = GridSet(1, 12, [(5,), (7,), (10,), (12,)])
counts = spectrum(line, window).counts
print(f"\n1-d pattern {{5,7}} in {sorted(x for (x,) in line)}:")
for d in (1, -1):
    print(f"  d={d}: {counts[d]} anchors")

# --- groups (wraparound corners) ---------------------------------------------

group = Group.vector(3, 2)  # F_3^2, |G| = 9
pairs = GroupSet(group, [(a, b) for a in group.elements() for b in group.elements()
                         if (sum(a) + 2 * sum(b)) % 3 != 1])
print(f"\nstructured subset of F_3^2 x F_3^2: {len(pairs)} of 81 pairs")
for d in [(1, 0), (0, 1), (2, 2)]:
    print(f"  corners with d={d}: {corner_count_group(pairs, d)}")
gspec = spectrum(pairs)
print(f"  spectrum max: {gspec.max_entry()}")

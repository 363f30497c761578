"""A set in [N]^3 that starves every difference of 3-dimensional corners.

The recipe: put the statistic f(x,y,z) = (x-y)(x+y-2z), which satisfies
f(x+d,y,z) + f(x,y+d,z) + f(x,y,z+d) = 3 f(x,y,z), behind a circle test.
Membership asks whether alpha*f lands in a union B of tiny intervals indexed
by a set with no solutions of w+x+y = 3z.  A corner forces four statistic
values into B while their combination telescopes, which traps them in a
single interval and makes ||2 alpha (x-y) d|| tiny -- so only a thin slice
of differences x-y can carry corners at all.

Every membership decision is exact (rational enclosures of alpha), and the
verifier re-finds all corners by brute force and checks the norm conclusion
on each.
"""

import time

from cornerforge import build_corner_avoider, spectrum, verify_corner_avoidance
from cornerforge.patterns import Pattern

start = time.perf_counter()
avoider = build_corner_avoider(delta=0.25, length=8, q_max=500)
grid = avoider.materialize()
params = avoider.params
print(f"L={params.length}, interval set Lambda={sorted(params.lam)}")
n = avoider.side
print(f"modulus N = q = {n} (scale 2^{params.j}, approximant index {params.i})")
print(f"|A| = {len(grid)} of {n ** 3} points "
      f"(density {len(grid) / n ** 3:.4f}, interval measure {float(avoider.system.measure()):.4f})")

report = verify_corner_avoidance(avoider)
max_d, max_count = report.max_count()
ceiling = report.rows[0][2]
print(f"\nbrute-force scan over all {len(report.rows)} differences: {time.perf_counter() - start:.1f}s")
print(f"  max corner count {max_count} at d={max_d}; proof ceiling 14N^3/L = {float(ceiling):.0f}")
print(f"  transfer norm ||2 alpha (x-y) d|| < 1/(9L) on every occurrence: {all(r[4] for r in report.rows)}")
print(f"  rational shadow ||2 (x-y) d p/q|| <= 3/L on every occurrence: {all(r[5] for r in report.rows)}")

# compare with how a random set of the same density behaves
import random

rng = random.Random(0)
density = len(grid) / n**3
sample = [
    (x, y, z)
    for x in range(1, n + 1)
    for y in range(1, n + 1)
    for z in range(1, n + 1)
    if rng.random() < density
]
from cornerforge import GridSet

random_set = GridSet(3, n, sample)
spec = spectrum(random_set, Pattern.corner(3))
print(f"\nrandom set at the same density: max corner count {spec.max_entry()[1]} "
      f"(expectation ~ density^4 N^3 = {density ** 4 * n ** 3:.0f} per difference)")
print(f"constructed set: max {max_count} -- the structure suppresses nothing at this tiny N,")
print("but the exact norm bounds already hold, and they are what the asymptotics run on.")

"""Avoiding popular differences of five-point patterns, and lifting.

For five fixed distinct integers a_1..a_5, membership of x keys on whether
alpha*x^2 falls into intervals indexed by a set free of quadratic
configurations of type a.  An occurrence x + a_i*d in the set forces five
values of a quadratic polynomial into the interval system, pinning them to
one interval and bounding ||Theta2 * alpha * x * d||.

Patterns in higher dimensions reduce to these low-dimensional cases: a
digit map phi(x) = sum C^i x_i projects any 5-point pattern to a 1-d one,
and a spanning triple of differences embeds a 3-d corner avoider.
"""

from cornerforge import (
    GridSet,
    Pattern,
    build_five_point_avoider,
    check_five_point_transfer,
    lift_avoider,
    pattern_projection,
    spectrum,
    theta_constants,
)

a = (0, 1, 2, 3, 4)  # five-term progressions
theta = theta_constants(a)
print(f"pattern {a}: Theta1={theta[0]} (interval granularity), "
      f"Theta2={theta[1]}, Theta3={theta[2]} (norm bound Theta3/L)")

avoider = build_five_point_avoider(a, delta=0.3, length=4, q_max=600)
grid = avoider.materialize()
n = grid.side
print(f"N = {n}, |A| = {len(grid)} (target measure {float(avoider.system.measure()):.4f})")

occurrences = 0
for d in range(1, (n - 1) // 4 + 1):
    for x in range(1, n - 4 * d + 1):
        if all((x + ai * d,) in grid for ai in a):
            assert check_five_point_transfer(avoider.system, avoider.alpha, a, x, d)
            occurrences += 1
print(f"full occurrences found by brute force: {occurrences}"
      + ("; every one passed the norm check" if occurrences else
         " (the set is too sparse at this tiny N to host any)"))

# the transfer conclusion itself, exercised on a synthetic membership:
# a small rational alpha parks all five quadratic values inside the first
# interval, and the norm bound must follow
from fractions import Fraction
from cornerforge import IntervalSystem

system = IntervalSystem(4, theta[0], frozenset({0}))
alpha = Fraction(1, 200000)
x, d = 3, 2
print(f"synthetic occurrence at alpha={alpha}, x={x}, d={d}: "
      f"{check_five_point_transfer(system, alpha, a, x, d)}")

# --- lifting ---------------------------------------------------------------

pattern = Pattern.corner(4)  # five points in Z^4
c, phi, five = pattern_projection(pattern)
print(f"\n4-d corner projects through phi with C={c} to 1-d offsets {phi}")

weight = sum(c ** (i + 1) for i in range(4))
base = GridSet(1, weight * 3, [(v,) for v in range(1, weight * 3 + 1, 11)])
lifted = lift_avoider(pattern, base)
print(f"lifting a 1-d set of {len(base)} members gives side {lifted.side}, {len(lifted)} points in Z^4")

spec_lifted = spectrum(lifted, pattern)
spec_base = spectrum(base, Pattern.one_dim(phi))
print(f"max pattern count upstairs {spec_lifted.max_entry()} vs downstairs {spec_base.max_entry()}")
print("(occurrences project, so the lifted maximum can never exceed the base maximum)")

# padding route: a 3-d corner avoider crossed with full axes dodges the 4-d corner
cube = GridSet(3, 4, [(1, 2, 3), (2, 2, 2), (4, 4, 1), (3, 1, 4)])
padded = lift_avoider(Pattern(4, tuple(p + (0,) for p in Pattern.corner(3).points)), cube)
print(f"\npadding a 3-d base of {len(cube)} points into Z^4: {len(padded)} points at side {padded.side}")

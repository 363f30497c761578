"""Digit-sphere constructions of solution-free sets, and their verifiers.

The construction writes numbers in base m with digits capped well below m
(the cap leaves enough headroom that the linear relation being avoided can
never carry between digits) and keeps only the vectors on a fixed sphere
sum(x_j^2) = r.  A nontrivial solution of the relation would force, digit by
digit, a solution among sphere vectors, which convexity rules out.  Three
flavors are provided:

* 3-term progressions (x - 2y + z = 0),
* the four-variable relation x + y + z - 3w = 0,
* quadratic configurations: value vectors of nonconstant degree-<=2
  polynomials at five fixed distinct integers.

Every builder has a brute-force verifier so nothing is taken on faith.
"""

from __future__ import annotations

import itertools
import json
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from math import lcm, prod
from typing import Iterable, Iterator, Optional, Sequence

from . import limits

__all__ = [
    "DigitSphereParams",
    "SphereSet",
    "QCSystem",
    "behrend_3ap_free",
    "behrend_sum_free",
    "behrend_qc_free",
    "qc_coefficients",
    "is_qc",
    "find_relation_witness",
    "find_qc_witness",
    "RELATION_3AP",
    "RELATION_SUM3",
]

# translation-invariant relations (coefficients sum to zero)
RELATION_3AP = (1, -2, 1)
RELATION_SUM3 = (1, 1, 1, -3)


@dataclass(frozen=True)
class DigitSphereParams:
    """Parameters of one digit-sphere construction.

    length: target range (the set lives in {0..length-1})
    dim: number of digits
    base: digit base (values are sum x_j * base^j)
    headroom: digit cap divisor; digits run over {0..floor(base/headroom)-1}
    radius_sq: the chosen sphere sum(x_j^2)
    """

    length: int
    dim: int
    base: int
    headroom: int
    radius_sq: int

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise ValueError("dimension must be at least 1")
        if self.base < self.headroom:
            raise ValueError("base must be at least the headroom divisor")
        if not 0 <= self.radius_sq * self.headroom**2 < self.dim * self.base**2:
            raise ValueError("radius out of range")

    @property
    def digit_cap(self) -> int:
        return self.base // self.headroom

    def pigeonhole_bound(self) -> Fraction:
        """Guaranteed size floor(base/headroom)^dim / (dim * (base/headroom)^2)."""
        return Fraction(self.digit_cap**self.dim * self.headroom**2, self.dim * self.base**2)


class SphereSet:
    """A constructed set together with the parameters that produced it."""

    __slots__ = ("members", "params")

    def __init__(self, members: Iterable[int], params: DigitSphereParams):
        self.members = frozenset(int(x) for x in members)
        self.params = params

    def __contains__(self, x: int) -> bool:
        return x in self.members

    def __iter__(self) -> Iterator[int]:
        return iter(sorted(self.members))

    def __len__(self) -> int:
        return len(self.members)

    def __repr__(self) -> str:
        return f"SphereSet(size={len(self)}, params={self.params})"


def _sphere_dimensions(length: int, headroom: int) -> tuple[int, int]:
    """dim = floor(sqrt(ln length)), at least 1, and base =
    floor(length^(1/dim)); d^2 <= ln length is decided exactly, as
    e^(d^2) < length.

    The dimension is lowered when needed so the base stays at least the
    headroom divisor (only relevant at small lengths; asymptotically the
    base dwarfs the headroom).
    """
    dim = 1
    while _exp_below((dim + 1) ** 2, length):
        dim += 1
    while dim > 1 and _int_root(length, dim) < headroom:
        dim -= 1
    return dim, _int_root(length, dim)


def _exp_below(x: int, bound: int) -> bool:
    """Whether e^x < bound, exactly, for integers x >= 1 and bound >= 1.

    The partial sum s of the first k terms of the series of e^x is below
    it, and once the next term t = x^k / k! has k >= 2x the rest is below
    2t, so s < e^x < s + 2t.  e^x is irrational, so some k separates it
    from the integer bound.
    """
    total, term, k = 0, Fraction(1), 0
    while total < bound:
        if k >= 2 * x and total + 2 * term < bound:
            return True
        total += term
        k += 1
        term = term * x / k
    return False


def _int_root(x: int, d: int) -> int:
    """Largest m with m**d <= x, in integer arithmetic at any size.

    Newton's iteration from 2^ceil(bits/d), which is above the root, falls
    strictly until it reaches the root and then stops falling.
    """
    if x < 0 or d < 1:
        raise ValueError("need x >= 0 and d >= 1")
    if d == 1 or x < 2:
        return x
    m = 1 << -(-x.bit_length() // d)
    while True:
        nxt = ((d - 1) * m + x // m ** (d - 1)) // d
        if nxt >= m:
            return m
        m = nxt


def _digit_sphere_set(length: int, headroom: int) -> SphereSet:
    if length < 1:
        raise ValueError("length must be positive")
    if limits._past_cell_limit(length, 1):
        # past the residue reader's limit the digit vectors alone run to 10^8 and more
        raise ValueError(f"length {length} exceeds the limit of {limits.MAX_CELLS} residues")
    if length <= headroom:
        # not enough room for even one nonzero digit; {0} is always valid
        return SphereSet({0}, DigitSphereParams(length, 1, headroom, headroom, 0))
    dim, base = _sphere_dimensions(length, headroom)
    cap = base // headroom
    classes: dict[int, list[int]] = defaultdict(list)
    for digits in itertools.product(range(cap), repeat=dim):
        r = sum(x * x for x in digits)
        value = 0
        for x in reversed(digits):
            value = value * base + x
        classes[r].append(value)
    radius = max(classes, key=lambda r: (len(classes[r]), -r))
    params = DigitSphereParams(length, dim, base, headroom, radius)
    return SphereSet(classes[radius], params)


def behrend_3ap_free(length: int) -> SphereSet:
    """A subset of {0..length-1} with no nontrivial 3-term progression.

    Headroom 4 = |1| + |-2| + |1| keeps both sides of x + z = 2y carry-free.
    """
    return _digit_sphere_set(length, headroom=4)


def behrend_sum_free(length: int) -> SphereSet:
    """A subset of {0..length-1} with no nontrivial solution of x+y+z = 3w.

    Headroom 6 is the coefficient magnitude sum of (1, 1, 1, -3), so a
    solution among members forces digitwise solutions among sphere vectors,
    and |a|=|b|=|c|=|w| with a+b+c=3w forces a=b=c=w by strict convexity.
    """
    return _digit_sphere_set(length, headroom=6)


# ---------------------------------------------------------------------------
# quadratic configurations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QCSystem:
    """Integer window relations characterizing quadratic value vectors.

    Row i annihilates (P(a_i), ..., P(a_{i+3})) for every polynomial P of
    degree at most 2; a nonconstant integer vector is a quadratic
    configuration of type `a` exactly when all rows vanish on it.  M is the
    least positive integer clearing the interpolation denominators.
    """

    a: tuple[int, ...]
    M: int
    gamma: tuple[tuple[int, int, int, int], ...]

    def __post_init__(self) -> None:
        k = len(self.a)
        if k < 4:
            raise ValueError("need at least 4 window points")
        if len(set(self.a)) != k:
            raise ValueError("window points must be distinct")
        if len(self.gamma) != k - 3:
            raise ValueError("expected one row per length-4 window")
        for i, row in enumerate(self.gamma):
            if any(g == 0 for g in row):
                raise ValueError(f"row {i} has a zero coefficient")
            if sum(row) != 0:
                raise ValueError(f"row {i} does not annihilate constants")
            window = self.a[i : i + 4]
            for basis in (lambda t: t, lambda t: t * t):
                if sum(g * basis(w) for g, w in zip(row, window)) != 0:
                    raise ValueError(f"row {i} fails on a quadratic basis polynomial")

    def to_json(self) -> str:
        return json.dumps({"a": list(self.a), "M": self.M, "gamma": [list(r) for r in self.gamma]})

    @staticmethod
    def from_json(text: str) -> "QCSystem":
        obj = json.loads(text)
        return QCSystem(tuple(obj["a"]), int(obj["M"]), tuple(tuple(r) for r in obj["gamma"]))


def qc_coefficients(a: Sequence[int]) -> QCSystem:
    """Window coefficients gamma[i][j] = M / prod_{s != j} (a[i+j] - a[i+s]).

    Each row is the order-3 divided-difference functional on four
    consecutive window points, which kills every polynomial of degree <= 2;
    M is the lcm of the denominators so all entries are nonzero integers.
    """
    a = tuple(int(x) for x in a)
    if len(a) < 4:
        raise ValueError("need at least 4 points")
    if len(set(a)) != len(a):
        raise ValueError("points must be distinct")
    raw: list[tuple[Fraction, ...]] = []
    for i in range(len(a) - 3):
        window = a[i : i + 4]
        raw.append(
            tuple(
                Fraction(1, prod(window[j] - window[s] for s in range(4) if s != j))
                for j in range(4)
            )
        )
    scale = lcm(*(f.denominator for row in raw for f in row))
    gamma = tuple(tuple(int(f * scale) for f in row) for row in raw)
    return QCSystem(a, scale, gamma)


def is_qc(sys: QCSystem, y: Sequence[int]) -> bool:
    """True iff y is nonconstant and satisfies every window relation,
    i.e. y interpolates a nonconstant polynomial of degree at most 2."""
    y = tuple(int(v) for v in y)
    if len(y) != len(sys.a):
        raise ValueError(f"vector length {len(y)} does not match {len(sys.a)} points")
    if len(set(y)) == 1:
        return False
    return all(
        sum(g * y[i + j] for j, g in enumerate(row)) == 0 for i, row in enumerate(sys.gamma)
    )


def behrend_qc_free(a: Sequence[int], length: int) -> SphereSet:
    """A subset of {0..length-1} containing no quadratic configuration of
    type `a` (five distinct integers).

    Headroom is 4 * max |gamma|: a window relation among members then forces
    the same relation digitwise, so the digit vectors interpolate a vector
    quadratic whose squared norm is constant on five distinct points, which
    makes it constant.
    """
    a = tuple(int(x) for x in a)
    if len(a) != 5:
        raise ValueError("quadratic-configuration avoidance is built for 5 points")
    sys = qc_coefficients(a)
    headroom = 4 * max(abs(g) for row in sys.gamma for g in row)
    return _digit_sphere_set(length, headroom)


# ---------------------------------------------------------------------------
# verifiers (shared brute-force oracles)
# ---------------------------------------------------------------------------


def find_relation_witness(members: Iterable[int], relation: Sequence[int]) -> Optional[tuple]:
    """A nontrivial tuple from the set satisfying sum(c_i * y_i) = 0, or None.

    `relation` must be nonzero with coefficient sum zero (so constant tuples
    solve it trivially; "nontrivial" means not all entries equal).  All but
    the last coordinate are enumerated and the last is solved for.
    """
    relation = tuple(int(c) for c in relation)
    if not any(relation):
        raise ValueError("relation must be nonzero")
    if sum(relation) != 0:
        raise ValueError("relation coefficients must sum to zero")
    members = sorted(set(members))
    pool = set(members)
    if not members:
        return None
    *head, last = relation
    if last == 0:  # rotate a nonzero coefficient into the solved slot
        pivot = max(i for i, c in enumerate(relation) if c != 0)
        perm = [i for i in range(len(relation)) if i != pivot] + [pivot]
        inner = find_relation_witness(members, tuple(relation[i] for i in perm))
        if inner is None:
            return None
        out = [0] * len(relation)
        for slot, i in enumerate(perm):
            out[i] = inner[slot]
        return tuple(out)
    for ys in itertools.product(members, repeat=len(head)):
        s = sum(c * y for c, y in zip(head, ys))
        q, r = divmod(-s, last)
        if r == 0 and q in pool:
            tup = ys + (q,)
            if len(set(tup)) > 1:
                return tup
    return None


def find_qc_witness(sys: QCSystem, members: Iterable[int]) -> Optional[tuple]:
    """A quadratic configuration of type sys.a inside the set, or None.

    Enumerates (y1, y2, y3) and completes y4, y5 through the two window
    rows, so the search is cubic rather than quintic.
    """
    if len(sys.a) != 5:
        raise ValueError("witness search expects a 5-point system")
    members = sorted(set(members))
    pool = set(members)
    (g10, g11, g12, g13), (g20, g21, g22, g23) = sys.gamma
    for y1, y2, y3 in itertools.product(members, repeat=3):
        q4, r4 = divmod(-(g10 * y1 + g11 * y2 + g12 * y3), g13)
        if r4 or q4 not in pool:
            continue
        q5, r5 = divmod(-(g20 * y2 + g21 * y3 + g22 * q4), g23)
        if r5 or q5 not in pool:
            continue
        tup = (y1, y2, y3, q4, q5)
        if len(set(tup)) > 1:
            return tup
    return None

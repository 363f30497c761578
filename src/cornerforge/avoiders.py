"""Sets avoiding popular differences: 3-d corners, 5-point patterns, lifts.

The recipe shared by both headline constructions:

1. a solution-free set Lambda in {0..L-1} (sum-free or QC-free, from the
   digit-sphere builders) marks a union B of short intervals on the circle,
   one interval of length 1/(Theta1^2 L) at each j/(Theta1 L);
2. an irrational alpha with rough convergent denominators supplies the
   modulus: N is a denominator q, and membership of a point is decided by
   whether alpha times its quadratic statistic lands in B (mod 1);
3. any pattern occurrence forces four (or five) values of the statistic
   into B while an exact linear identity ties them together, which pins all
   of them into a single interval and makes the difference's fractional
   rotation tiny -- so few residues can host occurrences at all.

Membership is never decided by a float.  Every question about the circle
is a reading of one exact primitive, `contfrac.frac_floors`, which gives
k = floor(den * frac(v*alpha)) for a batch of values v (going one
convergent deeper on the rare value whose position would tie):

* v*alpha lies in B iff, at den = Theta1^2 L, Theta1 divides k and
  k / Theta1 is in Lambda;
* the circle norm of v*alpha is below a/b iff, at den = b, the floor of v
  or of -v is below a.

Both readings hold for every real alpha, rational ties included.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Optional, Sequence, Union

from .behrend import behrend_qc_free, behrend_sum_free, qc_coefficients
from .contfrac import AlphaSequence, build_alpha_hard, frac_floors, verify_alpha
from . import limits
from .patterns import (
    GridSet,
    Pattern,
    _grid_hits,
    _member_blocks,
    _pack,
    _set_bits,
    _set_flats,
    grid_differences,
)

# numpy is imported in the function bodies that compute with it, so the
# five-point avoider and the 1-d lift load none
if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "f_quad",
    "IntervalSystem",
    "AvoiderParams",
    "CornerAvoider",
    "FivePointAvoider",
    "build_corner_avoider",
    "build_five_point_avoider",
    "check_five_point_transfer",
    "theta_constants",
    "lift_avoider",
    "load_avoider",
    "pattern_projection",
    "norm_to_nearest_int",
    "verify_corner_avoidance",
    "AvoidanceReport",
]

def f_quad(x: int, y: int, z: int) -> int:
    """The corner statistic (x - y)(x + y - 2z).

    Satisfies f(x+d,y,z) + f(x,y+d,z) + f(x,y,z+d) = 3 f(x,y,z) for all
    integers, which is what transfers corner occurrences into the
    solution-free structure of Lambda.
    """
    return (x - y) * (x + y - 2 * z)


def norm_to_nearest_int(x: Fraction) -> Fraction:
    """Distance from a rational to the nearest integer."""
    f = x - math.floor(x)
    return min(f, 1 - f)


# ---------------------------------------------------------------------------
# interval systems on the circle
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IntervalSystem:
    """Union B of intervals [j/(T1*L), j/(T1*L) + 1/(T1^2*L)) for j in Lambda.

    T1 is 3 for the corner construction and 4*max|gamma| for the QC one.
    Intervals are closed-left open-right and pairwise disjoint; the total
    measure is |Lambda| / (T1^2 L).
    """

    length: int
    theta1: int
    lam: frozenset

    def __post_init__(self) -> None:
        if self.length < 1 or self.theta1 < 2:
            raise ValueError("need L >= 1 and Theta1 >= 2")
        lam = frozenset(int(j) for j in self.lam)
        if any(not 0 <= j < self.length for j in lam):
            raise ValueError("interval indices must lie in {0..L-1}")
        object.__setattr__(self, "lam", lam)

    @property
    def slot_width(self) -> Fraction:
        return Fraction(1, self.theta1 * self.length)

    @property
    def interval_width(self) -> Fraction:
        return Fraction(1, self.theta1**2 * self.length)

    def measure(self) -> Fraction:
        return len(self.lam) * self.interval_width

    def decide_values(self, alpha: Union[AlphaSequence, Fraction], values: Sequence[int]) -> list[bool]:
        """Exact membership of frac(v * alpha) in B, one entry per value.

        Scaled by Theta1^2 L, slot j starts at j * Theta1 and its interval
        is the unit after it, so v * alpha is in B iff the floor k of its
        scaled position has k = j * Theta1 with j in Lambda.
        """
        theta1, lam = self.theta1, self.lam
        floors = frac_floors(alpha, values, theta1 * theta1 * self.length)
        return [k % theta1 == 0 and k // theta1 in lam for k in floors]


# ---------------------------------------------------------------------------
# constructed avoiders
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AvoiderParams:
    """The inputs that rebuild a constructed set with alpha, whose m is L and r is 2^j."""

    delta: float
    c: float
    lam: tuple[int, ...]
    i: int  # approximant index within the alpha sequence
    a: Optional[tuple[int, ...]] = None  # the five-point pattern; None for corners


class _AvoiderBase:
    """Shared plumbing of a membership predicate, which holds no set: the
    values derived from the inputs, membership, materialization and the
    sidecar.  Subclasses set `dim`, the dimension of their grid, `form`, the
    tag of their record, `_theta`, the constants of their transfer bound,
    `statistic`, the integer whose multiple of alpha decides a point, and
    `_fill`, every cell's membership packed."""

    dim: int
    form: str

    def __init__(self, params: AvoiderParams, alpha: AlphaSequence):
        self.j = alpha.r.numerator.bit_length() - 1  # the record names r = 2^j by j
        if alpha.r != 2**self.j:
            raise ValueError(f"alpha's scale r = {alpha.r} is not a power of two, so the record cannot name it by j")
        self.params = params
        self.alpha = alpha
        self.theta = self._theta()
        self.system = IntervalSystem(alpha.m, self.theta[0], frozenset(params.lam))
        alpha.check_index(params.i)
        self.p, self.q = alpha.p_q(params.i)

    @property
    def side(self) -> int:
        """N: the modulus is the approximant's denominator q."""
        return self.q

    def record(self) -> dict:
        """The sidecar's fields: the inputs, and the derived values that
        load_avoider checks against the ones the inputs give."""
        params = self.params
        return {
            "delta": params.delta,
            "c": params.c,
            "L": self.system.length,
            "form": self.form,
            "theta": list(self.theta),
            "lambda_size": len(params.lam),
            "lambda": list(params.lam),
            "j": self.j,
            "i": params.i,
            "p": self.p,
            "q": self.q,
            "N": self.side,
            "a": None if params.a is None else list(params.a),
            "alpha": self.alpha.record(),
        }

    def __contains__(self, point) -> bool:
        return self.system.decide_values(self.alpha, [self.statistic(point)])[0]

    def materialize(self) -> GridSet:
        """The whole set, built on every call, one exact interval decision
        per statistic value; a grid past `limits.MAX_CELLS`, read at call
        time, is refused before anything is decided."""
        if limits._past_cell_limit(self.side, self.dim):
            raise ValueError(f"side {self.side} needs {self.side**self.dim} cells; use the membership predicate")
        return GridSet.from_packed(self.dim, self.side, self._fill())


# statistic values decided at a time by both avoiders
_DECIDE_CHUNK = 1 << 15


class CornerAvoider(_AvoiderBase):
    """A subset of [N]^3 whose corner counts stay small for every nonzero d."""

    dim = 3
    form = "corner3d"

    def _theta(self) -> tuple[int, int, int]:
        if self.params.a is not None:
            raise ValueError(f"form {self.form!r} takes no pattern 'a'")
        return 3, 0, 0

    def statistic(self, point) -> int:
        x, y, z = point
        return f_quad(x, y, z)

    def _fill(self) -> np.ndarray:
        import numpy as np

        n = self.side
        vmax = f_quad(n, 1, 1)  # largest attainable |statistic|
        lookup = np.empty(2 * vmax + 1, dtype=bool)  # membership of v at v + vmax
        for start in range(0, lookup.size, _DECIDE_CHUNK):
            values = range(start - vmax, min(start + _DECIDE_CHUNK, lookup.size) - vmax)
            lookup[start : start + len(values)] = self.system.decide_values(self.alpha, values)
        # every lookup index (x - y)(x + y - 2z) + vmax lies in [0, 2 * vmax],
        # which int32 holds at any side within the cell limit
        coords = np.arange(1, n + 1, dtype=np.int32)
        xs = coords[None, :]  # x varies fastest
        ys = coords[:, None]
        diff = xs - ys
        base = diff * (xs + ys) + vmax  # the index at z = 0
        out = np.empty((n**3 + 7) // 8, dtype=np.uint8)
        # 8 z-slabs are 8n^2 bits, n^2 whole bytes, so the packed blocks fill
        # the mask in order without an n^3 bool cube.  Each slab's indices
        # go into one reused array: a fresh n^2 int32 temporary per z (264 KB
        # at N = 257) is past malloc's default mmap threshold, so, depending
        # on what the heap freed before, every z could map it and page-fault
        # it in anew (30,621 minor faults in `construct corner3d`, against
        # 6,646 with the array reused)
        slabs = np.empty((8, n, n), dtype=bool)  # [z, y, x], as GridSet.cells
        index = np.empty((n, n), dtype=np.int32)
        for z0 in range(0, n, 8):
            zs = range(z0 + 1, min(z0 + 9, n + 1))
            for i, z in enumerate(zs):
                np.multiply(diff, -2 * z, out=index)
                index += base
                np.take(lookup, index, out=slabs[i])
            block = np.packbits(slabs[: len(zs)], axis=None, bitorder="little")
            at = z0 * n * n // 8
            out[at : at + block.size] = block
        return out


class FivePointAvoider(_AvoiderBase):
    """A subset of [N] avoiding popular translates x + a_i * d of a fixed
    five-point pattern; membership keys on frac(alpha * x^2)."""

    dim = 1
    form = "x2"

    def _theta(self) -> tuple[int, int, int]:
        if self.params.a is None:
            raise ValueError(f"form {self.form!r} needs a pattern 'a'")
        return theta_constants(self.params.a)

    def statistic(self, point) -> int:
        (x,) = point if isinstance(point, tuple) else (point,)
        return x * x

    def _fill(self) -> bytes:
        n = self.side

        def members() -> Iterable[int]:
            for x0 in range(0, n, _DECIDE_CHUNK):
                squares = [x * x for x in range(x0 + 1, min(x0 + _DECIDE_CHUNK, n) + 1)]
                yield from itertools.compress(range(x0, n), self.system.decide_values(self.alpha, squares))

        return _set_bits(members(), n)


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------

DEFAULT_C = 0.1  # keeps L desk-sized; the asymptotic statement tunes c to delta


def _check_delta_c(delta: float, c: float) -> None:
    """Refuse a delta outside (0, 1/2) or a c that is not finite and positive."""
    if not 0 < delta < 0.5:
        raise ValueError(f"need 0 < delta < 1/2, got {delta}")
    if not 0 < c < math.inf:
        raise ValueError(f"need a finite c > 0, got {c}")


def load_avoider(params_json: str):
    """Rebuild a constructed avoider from the inputs in its sidecar, refusing
    a delta or c that `_build` refuses, or a derived field that disagrees."""
    obj = json.loads(params_json)
    alpha = AlphaSequence.from_json(json.dumps(obj["alpha"]))
    kinds = {cls.form: cls for cls in (CornerAvoider, FivePointAvoider)}
    if obj["form"] not in kinds:
        raise ValueError(f"unknown avoider form {obj['form']!r}; expected one of {sorted(kinds)}")
    a = None if obj["a"] is None else tuple(obj["a"])
    _check_delta_c(obj["delta"], obj["c"])
    params = AvoiderParams(obj["delta"], obj["c"], tuple(obj["lambda"]), obj["i"], a)
    avoider = kinds[obj["form"]](params, alpha)
    rebuilt = avoider.record()
    for key in ("L", "form", "theta", "lambda_size", "j", "p", "q", "N"):  # the derived fields
        if obj[key] != rebuilt[key]:
            raise ValueError(f"{key!r} is {obj[key]!r}, but the inputs give {rebuilt[key]!r}")
    return avoider


def _select_approximant(length: int, q_max: int) -> tuple[AlphaSequence, int]:
    """Scan scales r = 2^j, j = 1..2L+1, for the largest verified denominator
    q <= q_max; returns (sequence, i), the sequence carrying r.

    The scan stops at the first j with 2^j >= q_max, which drops no
    candidate.  At scale r it starts at the sequence's start index K, whose
    denominator is the prime x > r * b^K >= r, and denominators never fall
    as the index grows (Q_{n+1} = c Q_n + Q_{n-1} with c >= 1).  So every
    denominator at scale r exceeds r, and at r >= q_max none is at most
    q_max; the full scan would break at once on each such scale.

    Every candidate is re-verified (smoothness, growth interval, and the
    1/(L q^2) approximation bound) rather than trusted.
    """
    best = None
    for j in range(1, 2 * length + 2):
        if 2**j >= q_max:
            break
        seq = build_alpha_hard(length, Fraction(2) ** j)
        i = seq.start_index
        while (q := seq.p_q(i)[1]) <= q_max:
            if verify_alpha(seq, i).passed and (best is None or q > best[2]):
                best = (seq, i, q)
            i += 1
    if best is None:
        raise ValueError(f"no verified denominator up to {q_max} for L={length}; raise q_max")
    return best[:2]


def _build(
    kind: type, solution_free: Callable[[int], Iterable[int]], a: Optional[tuple[int, ...]],
    delta: float, c: float, *, length: Optional[int], q_max: int,
) -> _AvoiderBase:
    """The recipe of both constructions: Lambda = solution_free(L) marks the
    intervals of B, and N is a verified rough denominator q of alpha.

    L defaults to ceil(exp(c * ln(1/delta)^2)) but may be pinned directly
    with `length`.  q is the largest verified denominator at most q_max.
    """
    _check_delta_c(delta, c)
    try:
        length = max(1, math.ceil(math.exp(c * math.log(1 / delta) ** 2))) if length is None else length
    except OverflowError:
        raise ValueError(f"the default L overflows at delta={delta}, c={c}; give L with --length") from None
    lam = tuple(sorted(solution_free(length)))
    seq, i = _select_approximant(length, q_max)
    return kind(AvoiderParams(delta=delta, c=c, lam=lam, i=i, a=a), seq)


def build_corner_avoider(
    delta: float,
    c: float = DEFAULT_C,
    *,
    length: Optional[int] = None,
    q_max: int = 600,
) -> CornerAvoider:
    """Build the corner-avoiding subset of [N]^3 from a sum-free Lambda.
    Its density aims at |Lambda| / (9 L), which at desk scales may fall short
    of 2*delta; that is not fatal."""
    return _build(
        CornerAvoider, lambda length: behrend_sum_free(length).members, None, delta, c, length=length, q_max=q_max
    )


def theta_constants(a: Sequence[int]) -> tuple[int, int, int]:
    """Constants of the five-point transfer bound for the pattern a.

    Theta1 = 4 max|gamma| sizes the intervals; Theta2 = |2(a1-a2)(a2-a3)(a3-a1)|
    is the coefficient of n*d in the three-square identity; Theta3 =
    ceil(3 max(a1..a3)^2 / Theta1^2) absorbs the interval error terms.
    """
    a = tuple(int(v) for v in a)
    theta1 = 4 * max(abs(g) for row in qc_coefficients(a).gamma for g in row)
    theta2 = abs(2 * (a[0] - a[1]) * (a[1] - a[2]) * (a[2] - a[0]))
    theta3 = math.ceil(Fraction(3 * max(abs(v) for v in a[:3]) ** 2, theta1**2))
    return theta1, theta2, theta3


def build_five_point_avoider(
    a: Sequence[int],
    delta: float,
    c: float = DEFAULT_C,
    *,
    length: Optional[int] = None,
    q_max: int = 5000,
) -> FivePointAvoider:
    """Build the subset of [N] avoiding popular differences of the pattern
    x + a_i * d for five fixed distinct integers a_i, from a QC-free
    Lambda."""
    a = tuple(int(v) for v in a)
    return _build(
        FivePointAvoider, lambda length: behrend_qc_free(a, length).members, a, delta, c, length=length, q_max=q_max
    )


# ---------------------------------------------------------------------------
# transfer checks
# ---------------------------------------------------------------------------


def _norm_below(alpha: Union[AlphaSequence, Fraction], values: Sequence[int], bound: Fraction) -> list[bool]:
    """Whether the circle norm of v * alpha is strictly below `bound` = a/b,
    one entry per value, exactly.

    The norm is min(frac(v*alpha), frac(-v*alpha)), and frac(x) < a/b iff
    floor(b * frac(x)) < a, since a is an integer.
    """
    a, b = bound.numerator, bound.denominator
    ups = frac_floors(alpha, values, b)
    downs = frac_floors(alpha, [-v for v in values], b)
    return [up < a or down < a for up, down in zip(ups, downs)]


def check_five_point_transfer(
    system: IntervalSystem,
    alpha: Union[AlphaSequence, Fraction],
    a: Sequence[int],
    anchor: int,
    d: int,
) -> bool:
    """Verify the five-point transfer conclusion for one occurrence.

    Preconditions (checked): alpha * (anchor + a_i * d)^2 lands in B mod 1
    for all five i.  Then the norm of Theta2 * alpha * anchor * d must fall
    below Theta3 / L.
    """
    a = tuple(int(v) for v in a)
    theta1, theta2, theta3 = theta_constants(a)
    if theta1 != system.theta1:
        raise ValueError("interval system was built for a different pattern")
    vals = [(anchor + ai * d) ** 2 for ai in a]
    for v, inside in zip(vals, system.decide_values(alpha, vals)):
        if not inside:
            raise ValueError(f"precondition failed: statistic {v} is not in B")
    return _norm_below(alpha, [theta2 * anchor * d], Fraction(theta3, system.length))[0]


@dataclass
class AvoidanceReport:
    """Per-difference corner counts with the proof-chain checks."""

    rows: list  # (d, count, bound, count <= bound, transfer_ok, rational_ok)

    def failing(self) -> list[int]:
        """Indices of the rows that fail: a count past the bound, or a
        failed transfer or rational check."""
        return [k for k, r in enumerate(self.rows) if not (r[3] and r[4] and r[5])]

    def all_ok(self) -> bool:
        return not self.failing()

    def max_count(self) -> tuple[int, int]:
        best = max(self.rows, key=lambda r: (r[1], -abs(r[0])))
        return best[0], best[1]

    def write_csv(self, fh) -> None:
        import csv

        failed = set(self.failing())
        writer = csv.writer(fh)
        writer.writerow(["d", "count", "bound", "pass"])
        writer.writerows([d, count, bound, int(k not in failed)] for k, (d, count, bound, *_) in enumerate(self.rows))


def _distinct(values: np.ndarray) -> np.ndarray:
    """The distinct entries of `values`, ascending: np.unique's answer
    without its import of numpy.ma, which a plain np.unique call makes."""
    import numpy as np

    values = np.sort(values)
    first = np.ones(values.size, dtype=bool)
    first[1:] = values[1:] != values[:-1]
    return values[first]


def verify_corner_avoidance(avoider: CornerAvoider, grid: GridSet) -> AvoidanceReport:
    """Count the corners of `grid`, the set under test, for every difference
    0 < |d| < N in `grid_differences` order, and check the corner avoider's
    complete proof chain on each class.

    For each d, every distinct first-coordinate difference n1 - n2 among
    corner anchors is checked against the transfer bound (norm of
    2*alpha*(n1-n2)*d below 1/(9L)) and its rational shadow (norm of
    2*(n1-n2)*d*p/q at most 3/L).  The per-d count is compared with the
    14 N^3 / L ceiling.  `grid` must be a side-N 3-d set.
    """
    import numpy as np

    if not isinstance(avoider, CornerAvoider):
        raise ValueError(f"corner avoidance is certified for form {CornerAvoider.form!r}, not {avoider.form!r}")
    n = avoider.side
    if grid.dim != 3 or grid.side != n:
        raise ValueError(f"expected a side-{n} 3-d set, got {grid!r}")
    length = avoider.system.length
    p, q = avoider.p, avoider.q
    ds = grid_differences(n)
    # distinct (slot, n1 - n2) classes over all corners, coded slot * 2n + n1 - n2 + n
    counts = np.zeros(len(ds), dtype=np.int64)
    classes = [np.zeros(0, dtype=np.int64)]
    for slots, flats in _grid_hits(grid, Pattern.corner(3)):
        slots, flats = np.asarray(slots), np.asarray(flats)  # from either route
        counts += np.bincount(slots, minlength=len(ds))
        # t_0 is the origin, so a corner's flat is its anchor's, and
        # n1 - n2 is flats % n - flats // n % n
        classes.append(_distinct(slots * 2 * n + flats % n - flats // n % n + n))
    slot_classes, diffs = np.divmod(_distinct(np.concatenate(classes)), 2 * n)
    # each class's value 2(n1 - n2)d, checked once per distinct value;
    # |2(n1 - n2)d| < 2N^2 fits int64 at any N within the cell limit
    values, which = np.unique(2 * (diffs - n) * np.array(ds, dtype=np.int64)[slot_classes], return_inverse=True)
    values = values.tolist()
    transfer = np.array(_norm_below(avoider.alpha, values, Fraction(1, 9 * length)), dtype=bool)
    rational = np.array([norm_to_nearest_int(Fraction(v * p, q)) <= Fraction(3, length) for v in values], dtype=bool)
    # classes failing each check, per slot
    bad_transfer = np.bincount(slot_classes[~transfer[which]], minlength=len(ds))
    bad_rational = np.bincount(slot_classes[~rational[which]], minlength=len(ds))
    rows = []
    ceiling = Fraction(14 * n**3, length)
    for i, d in enumerate(ds):
        count = int(counts[i])
        rows.append((d, count, ceiling, Fraction(count) <= ceiling, not bad_transfer[i], not bad_rational[i]))
    return AvoidanceReport(rows)


# ---------------------------------------------------------------------------
# lifting to general patterns
# ---------------------------------------------------------------------------


def pattern_projection(pattern: Pattern) -> tuple[int, tuple[int, ...], Pattern]:
    """Base C and the projected five integers for the digit map
    phi(x) = sum C^i x_i.

    C exceeds the total coordinate magnitude of all pattern points, so phi
    is injective on the pattern and linear in dilates: phi(x + d t) =
    phi(x) + d phi(t).
    """
    if len(pattern.points) < 5:
        raise ValueError("projection route needs at least 5 points")
    five = tuple(sorted(pattern.points))[:5]
    c = 1 + sum(abs(coord) for pt in pattern.points for coord in pt)
    phi = tuple(sum(c ** (i + 1) * pt[i] for i in range(pattern.dim)) for pt in five)
    if len(set(phi)) != 5:
        raise ArithmeticError("projection collapsed pattern points")
    return c, phi, Pattern(pattern.dim, five)


def _rank(vectors: Sequence[Sequence[int]]) -> int:
    """Exact rank of integer vectors, by elimination over the rationals."""
    rows = [[Fraction(x) for x in v] for v in vectors]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is not None:
            rows[rank], rows[pivot] = rows[pivot], rows[rank]
            for r in range(rank + 1, len(rows)):
                factor = rows[r][col] / rows[rank][col]
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[rank])]
            rank += 1
    return rank


def _affine_rank(points: Sequence[tuple[int, ...]]) -> int:
    return _rank([[a - b for a, b in zip(p, points[0])] for p in points[1:]])


def lift_avoider(pattern: Pattern, base: GridSet) -> GridSet:
    """Lift a lower-dimensional avoider to a set dodging `pattern`.

    With a 1-d base (five-point route): members are the points of [N]^k
    whose digit projection phi lands in the base set; N is the largest side
    whose phi image fits.  With a 3-d base (corner route): pad to
    base x [N]^(k-3) when the pattern contains the corner {0, e1, e2, e3},
    else push the padded set through an injective integer map sending the
    first three axes to a spanning triple of pattern differences.

    Occurrences of the pattern in the lifted set map to occurrences in the
    base (both maps are linear, so they commute with dilation), which is how
    the base's avoidance carries over.  A lifted grid past the cell limit
    is refused before it is allocated.  The 1-d lift runs in plain Python
    (`_lift_flats`), the 3-d lift on numpy.
    """
    k = pattern.dim
    if base.dim == 1:
        c, _, _ = pattern_projection(pattern)
        weight = sum(c ** (i + 1) for i in range(k))
        side = base.side // weight
        if side < 1:
            raise ValueError("base side too small for even one lifted layer")
        limits.check_cells(side, k, f"lifted grid of side {side} in dim {k}")
        return GridSet.from_packed(k, side, _set_bits(_lift_flats(base, c, k, side), side**k))
    if base.dim != 3:
        raise ValueError("lifting expects a 1-d or 3-d base set")
    import numpy as np

    if _affine_rank(pattern.points) < 3:
        if len(pattern.points) >= 5:
            raise ValueError("use a 1-d base for a 5-point pattern of low affine dimension")
        raise ValueError("pattern has fewer than 5 points and affine dimension below 3")
    n = base.side
    limits.check_cells(n, k, f"lifted grid of side {n} in dim {k}")
    # base x [N]^(k-3): the base's N^3 bits repeat once per trailing point
    padded = base if k == 3 else GridSet.from_packed(k, n, _tile_bits(base.packed(), n**3, n ** (k - 3)))
    corner3 = {(0,) * k} | {tuple(1 if j == i else 0 for j in range(k)) for i in range(3)}
    if set(pattern.points) >= corner3:
        return padded
    # general position: send the first three axes to a spanning triple of
    # pattern differences (the affine rank is 3, so some 4 points span),
    # completed by unit vectors to a full-rank integer map
    quad = next(combo for combo in itertools.combinations(pattern.points, 4) if _affine_rank(combo) == 3)
    columns = [[a - b for a, b in zip(q, quad[0])] for q in quad[1:]]
    for axis in range(k):
        unit = [1 if j == axis else 0 for j in range(k)]
        if _rank(columns + [unit]) == len(columns) + 1:
            columns.append(unit)
    matrix = np.array(columns, dtype=np.int64).T  # image = matrix @ point
    if not len(base):
        raise ValueError("cannot place the image of an empty base set")

    def images():
        """The images of the 1-based members, one block of lines at a time."""
        for _, members in _member_blocks(padded.packed(), n, k):
            yield matrix @ (np.stack(members).astype(np.int64) + 1)

    # two passes: the image's bounding box, then its bits in that box
    bounds = np.array([(img.min(axis=1), img.max(axis=1)) for img in images()])
    lows, highs = bounds[:, 0].min(axis=0), bounds[:, 1].max(axis=0)
    side = int((highs - lows).max()) + 1
    limits.check_cells(side, k, f"lifted grid of side {side} in dim {k}")
    weights = side ** np.arange(k, dtype=np.int64)
    return GridSet.from_packed(k, side, _pack((weights @ (img - lows[:, None]) for img in images()), side**k))


def _lift_flats(base: GridSet, c: int, k: int, side: int) -> Iterator[int]:
    """The flat indices of the points x of [side]^k whose phi(x) =
    sum_i c^(i+1) x_i is a member of the 1-d `base`, in plain Python.  The
    members are grouped by their residue mod c^k, so for each x_1 .. x_(k-1)
    only the members m congruent to the rest of phi are tried, each giving
    x_k = (m - rest) / c^k when that lies in [1, side]."""
    top, last = c**k, side ** (k - 1)
    by_residue: dict[int, list[int]] = {}
    for f in _set_flats(base.packed()):
        by_residue.setdefault((f + 1) % top, []).append(f + 1)  # 1-based, as phi
    for head in itertools.product(range(1, side + 1), repeat=k - 1):  # x_1 .. x_(k-1)
        rest = sum(c ** (i + 1) * x for i, x in enumerate(head))
        flat = sum((x - 1) * side**i for i, x in enumerate(head))
        for m in by_residue.get(rest % top, ()):
            x = (m - rest) // top
            if 1 <= x <= side:
                yield flat + (x - 1) * last


def _tile_bits(raw, nbits: int, count: int) -> np.ndarray:
    """`count` copies of the first `nbits` bits of the packed bytes `raw`,
    end to end, packed.  Eight copies are 8 * nbits bits, whole bytes, so
    the output is that block repeated, then the copies left over."""
    import numpy as np

    bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8), count=nbits, bitorder="little")
    eight = np.packbits(np.tile(bits, 8), bitorder="little")
    return np.concatenate([np.tile(eight, count // 8), np.packbits(np.tile(bits, count % 8), bitorder="little")])

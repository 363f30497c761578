"""Independent brute-force oracles.

Everything here is deliberately naive: plain loops over points, maps, and
tuples, sharing no code with the library kernels it checks.
"""

import hashlib
import itertools
import math
from fractions import Fraction
from math import prod


def grid_count_oracle(members, dim, side, points, d):
    """Count anchors by looping over the valid anchor box and testing each
    translated pattern point for membership."""
    members = set(map(tuple, members))
    lo = [max(1 - d * p[j] for p in points) for j in range(dim)]
    hi = [min(side - d * p[j] for p in points) for j in range(dim)]
    if any(lo[j] > hi[j] for j in range(dim)):
        return 0
    count = 0
    for x in itertools.product(*(range(lo[j], hi[j] + 1) for j in range(dim))):
        if all(tuple(x[j] + d * p[j] for j in range(dim)) in members for p in points):
            count += 1
    return count


def corner3_count_oracle(members, ds):
    """{d: count} of 3-d corners (x,y,z), (x+d,y,z), (x,y+d,z), (x,y,z+d):
    every member is tried as the anchor and its three translates are looked
    up in a Python set, O(|members|) per d."""
    members = set(map(tuple, members))
    return {
        d: sum(
            1
            for x, y, z in members
            if (x + d, y, z) in members and (x, y + d, z) in members and (x, y, z + d) in members
        )
        for d in ds
    }


def corner3_transfer_classes(members, ds):
    """{d: {x - y}} over the anchors (x, y, z) of 3-d corners with
    difference d, by the same member loop as corner3_count_oracle."""
    members = set(map(tuple, members))
    return {
        d: {
            x - y
            for x, y, z in members
            if (x + d, y, z) in members and (x, y + d, z) in members and (x, y, z + d) in members
        }
        for d in ds
    }


def _group_by_hand(kind, params):
    """(elements, zero, add) of Z/N (kind "zN") or F_p^n (kind "fp"):
    residues, or digit tuples added componentwise."""
    if kind == "zN":
        (modulus,) = params
        return list(range(modulus)), 0, lambda a, b: (a + b) % modulus
    p, n = params
    elements = list(itertools.product(range(p), repeat=n))
    return elements, (0,) * n, lambda a, b: tuple((x + y) % p for x, y in zip(a, b))


def corner_count_oracle(members, group, d):
    """Triple-membership loop over all of G x G."""
    elements, _, add = _group_by_hand(group.kind, group.params)
    members = set(members)
    count = 0
    for x in elements:
        for y in elements:
            if (x, y) in members and (add(x, d), y) in members and (x, add(y, d)) in members:
                count += 1
    return count


def group_corner_oracle(members, kind, params):
    """{d: corner count} for every nonzero d of Z/N (kind "zN") or F_p^n
    (kind "fp"), with the group written out by hand, every (x, y) of
    G x G tried."""
    elements, zero, add = _group_by_hand(kind, params)
    members = set(members)
    return {
        d: sum(
            1
            for x in elements
            for y in elements
            if (x, y) in members and (add(x, d), y) in members and (x, add(y, d)) in members
        )
        for d in elements
        if d != zero
    }


def corner_hypergraph_oracle(members, kind, params):
    """(vertex count, edges) of the 3-partite 3-graph H_S of a pair set S in
    G x G: vertex i, |G| + i or 2|G| + i stands for the i-th element of the
    first, second or third part, and each member (x, y) is one edge
    {x, |G| + y, 2|G| + (x + y)}, with the group written out by hand."""
    elements, _, add = _group_by_hand(kind, params)
    pos = {e: i for i, e in enumerate(elements)}
    w = len(elements)
    return 3 * w, frozenset(frozenset({pos[x], w + pos[y], 2 * w + pos[add(x, y)]}) for x, y in members)


def hom_count_oracle(motif, target):
    """Enumerate every vertex map and test every edge image."""
    count = 0
    for images in itertools.product(range(target.n), repeat=motif.n):
        ok = True
        for e in motif.edges:
            img = frozenset(images[v] for v in e)
            if len(img) != target.k or img not in target.edges:
                ok = False
                break
        if ok:
            count += 1
    return count


def hom_count_dfs_oracle(motif, h):
    """Number of vertex maps V(motif) -> V(h) sending every motif edge onto
    an edge of h (k distinct images per edge).

    Plain depth-first enumeration with per-level edge checks; it prunes a
    branch as soon as an edge fails, so it reaches larger targets than the
    full product of hom_count_oracle.
    """
    if motif.k != h.k:
        raise ValueError(f"uniformity mismatch: motif {motif.k}, target {h.k}")
    if motif.n > 10:
        raise ValueError("motif too large (at most 10 vertices)")
    k = h.k
    target = h.edges
    # edges become checkable once their last vertex (in assignment order) lands
    checks = [[] for _ in range(motif.n)]
    for e in motif.edges:
        verts = sorted(e)
        checks[verts[-1]].append(tuple(verts))
    assign = [0] * motif.n
    n = h.n

    def descend(level):
        if level == motif.n:
            return 1
        total = 0
        todo = checks[level]
        for v in range(n):
            assign[level] = v
            for e in todo:
                img = frozenset(assign[u] for u in e)
                if len(img) != k or img not in target:
                    break
            else:
                total += descend(level + 1)
        return total

    return descend(0)


def triforce_weighted_oracle(kernel):
    """Six nested loops over the cells, no factoring."""
    g = kernel.g
    total = Fraction(0)
    for x in range(g):
        for y in range(g):
            for z in range(g):
                for xp in range(g):
                    for yp in range(g):
                        for zp in range(g):
                            total += (
                                kernel.values[xp][y][z]
                                * kernel.values[x][yp][z]
                                * kernel.values[x][y][zp]
                            )
    return total / g**6


def relation_witness_oracle(members, relation):
    """Full product search, all coordinates enumerated."""
    members = sorted(set(members))
    for tup in itertools.product(members, repeat=len(relation)):
        if sum(c * y for c, y in zip(relation, tup)) == 0 and len(set(tup)) > 1:
            return tup
    return None


def qc_witness_oracle(a, members, coeff_bound=None):
    """Search quadratics P(t) = p0 + p1 t + p2 t^2 with values in the set.

    Used only at tiny scales; the coefficient ranges are solved from the
    first three members rather than enumerated blindly.
    """
    members = sorted(set(members))
    pool = set(members)
    a1, a2, a3, a4, a5 = a
    for y1, y2, y3 in itertools.product(members, repeat=3):
        # interpolate P through (a1,y1), (a2,y2), (a3,y3) with rationals
        denom = [
            (a1 - a2) * (a1 - a3),
            (a2 - a1) * (a2 - a3),
            (a3 - a1) * (a3 - a2),
        ]
        def P(t):
            return (
                Fraction(y1 * (t - a2) * (t - a3), denom[0])
                + Fraction(y2 * (t - a1) * (t - a3), denom[1])
                + Fraction(y3 * (t - a1) * (t - a2), denom[2])
            )
        v4, v5 = P(a4), P(a5)
        if v4.denominator == 1 and v5.denominator == 1 and int(v4) in pool and int(v5) in pool:
            tup = (y1, y2, y3, int(v4), int(v5))
            if len(set(tup)) > 1:
                return tup
    return None


def mandache_oracle(kernel, kind, params, seed):
    """Packed mask of one Mandache draw, built straight from the README key
    strings: labels "<seed>|R|<e>", coins "<seed>|INC|<a>|<b>", every uniform
    the first 8 bytes of SHA-256 read as u / 2^64, and a pair kept when its
    coin fraction is strictly below the kernel value.  Elements are digit
    tuples (least significant first), named and added digit by digit;
    bit index(a) * |G| + index(b) holds the pair (a, b)."""
    if kind == "zN":
        (modulus,) = params
        elements = [(v,) for v in range(modulus)]
        p = modulus
    else:
        p, n = params
        elements = [tuple(reversed(e)) for e in itertools.product(range(p), repeat=n)]

    def name(e):
        return ",".join(str(c) for c in e)

    def uniform(key):
        return Fraction(int.from_bytes(hashlib.sha256(key.encode()).digest()[:8], "big"), 2**64)

    def cell(key):
        return int(uniform(key) * kernel.g)

    label = {e: [cell(f"{seed}|{role}|{name(e)}") for role in ("X", "Y", "Z")] for e in elements}
    order = len(elements)
    mask = 0
    for i, a in enumerate(elements):
        for j, b in enumerate(elements):
            c = tuple((-(x + y)) % p for x, y in zip(a, b))
            value = kernel.values[label[a][0]][label[b][1]][label[c][2]]
            if uniform(f"{seed}|INC|{name(a)}|{name(b)}") < value:
                mask |= 1 << (i * order + j)
    return mask


def lift_oracle(pattern_points, base_members, base_dim, base_side):
    """(side, members) of the lift of a base set, from the definitions alone.

    1-d base: C is 1 + the total coordinate magnitude of the pattern,
    phi(x) = sum C^(i+1) x_i, the side is the largest N with phi(N, .., N) at
    most the base side, and the members are every x in [N]^k whose phi is a
    base member.  3-d base: the padding base x [N]^(k-3), returned as is when
    the pattern holds the unit corner {0, e1, e2, e3}; otherwise its image
    under the integer matrix whose columns are q1 - q0, q2 - q0, q3 - q0 for
    the first 4-subset (q0..q3, in pattern order) spanning three dimensions,
    then the unit vectors, in axis order, that raise the rank, translated so
    every coordinate starts at 1; the side is the widest coordinate range.
    Ranks come from nonzero minors, found by brute force.
    """
    pts = [tuple(p) for p in pattern_points]
    k = len(pts[0])
    members = set(map(tuple, base_members))
    if base_dim == 1:
        c = 1 + sum(abs(x) for p in pts for x in p)
        side = base_side // sum(c ** (i + 1) for i in range(k))
        lifted = {
            x
            for x in itertools.product(range(1, side + 1), repeat=k)
            if (sum(c ** (i + 1) * x[i] for i in range(k)),) in members
        }
        return side, lifted
    n = base_side
    padded = {p + rest for p in members for rest in itertools.product(range(1, n + 1), repeat=k - 3)}
    corner = {(0,) * k} | {tuple(int(j == i) for j in range(k)) for i in range(3)}
    if corner <= set(pts):
        return n, padded

    def det(m):
        return sum(
            (-1) ** sum(1 for a, b in itertools.combinations(perm, 2) if a > b)
            * prod(m[i][perm[i]] for i in range(len(m)))
            for perm in itertools.permutations(range(len(m)))
        )

    def rank(vectors):
        for r in range(min(len(vectors), k), 0, -1):
            for rows in itertools.combinations(vectors, r):
                for cols in itertools.combinations(range(k), r):
                    if det([[v[j] for j in cols] for v in rows]):
                        return r
        return 0

    for quad in itertools.combinations(pts, 4):
        diffs = [tuple(q[j] - quad[0][j] for j in range(k)) for q in quad[1:]]
        if rank(diffs) == 3:
            break
    for axis in range(k):
        unit = tuple(int(j == axis) for j in range(k))
        if len(diffs) < k and rank(diffs + [unit]) == len(diffs) + 1:
            diffs.append(unit)
    images = {tuple(sum(diffs[c][r] * p[c] for c in range(k)) for r in range(k)) for p in padded}
    lows = [min(img[r] for img in images) for r in range(k)]
    side = max(max(img[r] for img in images) - lows[r] + 1 for r in range(k))
    return side, {tuple(img[r] - lows[r] + 1 for r in range(k)) for img in images}



def set_text_oracle(text):
    """The members of a grid-set or group-set text, read line by line with
    int(): 1-based point tuples for a grid set, (x, y) pairs of residues or
    of digit tuples mod p for a group set.  Blank and '#' lines are skipped;
    the text is assumed well formed."""
    lines = [line for line in text.split("\n") if line.strip() and not line.lstrip().startswith("#")]
    head = lines[0].split()
    members = set()
    for line in lines[1:]:
        tokens = [t for t in line.split(" ") if t]
        if head[0] == "dim":
            members.add(tuple(int(t) for t in tokens))
        elif head[1] == "zN":
            members.add(tuple(int(t) % int(head[2]) for t in tokens))
        else:
            p = int(head[2])
            members.add(tuple(tuple(int(c) % p for c in t.split(",")) for t in tokens))
    return members


def frac_floor_oracle(alpha, v, den):
    """floor(den * frac(v * alpha)) for a sequence-given irrational alpha.

    alpha lies strictly inside enclosure(n) for every n, and floor(den * x)
    is monotone in x, so once den * v * x floors alike at both ends of the
    enclosure it is that integer on the whole of it; the answer is the
    integer mod den.  Deepening ends because v * alpha is irrational."""
    n = 0
    while True:
        lo, hi = alpha.enclosure(n)
        low, high = math.floor(den * v * lo), math.floor(den * v * hi)
        if low == high:
            return low % den
        n += 1


def next_prime_walk_oracle(u, v, a, is_prime):
    """The least prime strictly above u + v*b, b = (a + sqrt(a^2+4)) / 2,
    for v >= 0, by a unit-step walk: start at or below the bound (isqrt
    rounds sqrt(a^2+4) down), step until n > u + v*b, decided by squaring
    2(n - u)/v - a > sqrt(a^2+4), then step until `is_prime`."""
    u, v = Fraction(u), Fraction(v)
    n = math.floor(u + v * Fraction(a + math.isqrt(a * a + 4), 2))

    def above(n):
        if v == 0:
            return n > u
        c = 2 * (n - u) / v - a
        return c > 0 and c * c > a * a + 4

    while not above(n):
        n += 1
    while not is_prime(n):
        n += 1
    return n


def gt_linear_fraction_oracle(u, v, rhs, a):
    """Whether u + v*b > rhs, for v >= 0 and any rational rhs, in Fractions:
    b > c iff sqrt(a^2+4) > 2c - a, squared when the right side is not
    negative."""
    u, v, rhs = Fraction(u), Fraction(v), Fraction(rhs)
    if v == 0:
        return u > rhs
    c = 2 * (rhs - u) / v - a
    return c < 0 or a * a + 4 > c * c

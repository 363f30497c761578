"""k-uniform hypergraph densities: edges, homomorphisms, k-force, kernels.

Density conventions are exact rationals throughout.  A map between
hypergraphs counts as a homomorphism when the image of every motif edge is
an edge of the target with all k images distinct; maps collapsing an edge
are not homomorphisms.  (The convention is forced by the single-triple
count: one triple admits exactly 6 triforce homomorphisms.)  Vertices not
sharing an edge may still collide.

hom_count is one exact numpy tensor contraction over the target's adjacency
tensor (int64 while n^v(motif) < 2^63, Python ints past that), refused
before allocation when that tensor would pass MAX_CELLS // 64 cells.  numpy
is imported inside it, so importing this module does not load numpy.
"""

from __future__ import annotations

import itertools
from collections import Counter, defaultdict
from dataclasses import dataclass
from fractions import Fraction
from math import factorial

__all__ = [
    "Hypergraph",
    "StepKernel",
    "triforce_motif",
    "kforce_motif",
    "single_edge_motif",
    "edge_density",
    "hom_count",
    "kforce_density",
    "triforce_weighted",
]


@dataclass(frozen=True)
class Hypergraph:
    """k-uniform hypergraph on vertices 0..n-1 with a set of k-element edges."""

    k: int
    n: int
    edges: frozenset

    def __post_init__(self) -> None:
        if self.k < 2:
            raise ValueError("uniformity must be at least 2")
        if self.n < 0:
            raise ValueError("vertex count must be nonnegative")
        edges = frozenset(frozenset(e) for e in self.edges)
        for e in edges:
            if len(e) != self.k:
                raise ValueError(f"edge {sorted(e)} does not have {self.k} distinct vertices")
            if any(not (0 <= v < self.n) for v in e):
                raise ValueError(f"edge {sorted(e)} has a vertex outside [0, {self.n})")
        object.__setattr__(self, "edges", edges)

    @staticmethod
    def complete(k: int, n: int) -> "Hypergraph":
        return Hypergraph(k, n, frozenset(map(frozenset, itertools.combinations(range(n), k))))


# Motifs are just small hypergraphs used as the pattern side of hom counts.


def kforce_motif(k: int) -> Hypergraph:
    """2k vertices 0..k-1 (base) and k..2k-1 (primed); edge i swaps base
    vertex i for its primed copy."""
    if k < 2:
        raise ValueError("k-force needs k >= 2")
    base = frozenset(range(k))
    edges = frozenset((base - {i}) | {k + i} for i in range(k))
    return Hypergraph(k, 2 * k, edges)


def triforce_motif() -> Hypergraph:
    return kforce_motif(3)


def single_edge_motif(k: int) -> Hypergraph:
    return Hypergraph(k, k, frozenset({frozenset(range(k))}))


def edge_density(h: Hypergraph) -> Fraction:
    """Labeled edge density k! * |E| / n^k."""
    if h.n == 0:
        raise ValueError("edge density of an empty vertex set is undefined")
    return Fraction(factorial(h.k) * len(h.edges), h.n**h.k)


MAX_MOTIF_VERTICES = 10  # hom_count names each motif vertex by one of the letters a..j


def _check_motif(k: int, vertices: int, h: Hypergraph) -> None:
    """Refuse a k-uniform motif on `vertices` vertices that hom_count cannot count in `h`."""
    if k != h.k:
        raise ValueError(f"uniformity mismatch: motif {k}, target {h.k}")
    if vertices > MAX_MOTIF_VERTICES:
        raise ValueError(f"motif too large (at most {MAX_MOTIF_VERTICES} vertices)")


def hom_count(motif: Hypergraph, h: Hypergraph) -> int:
    """Number of vertex maps V(motif) -> V(h) sending every motif edge onto
    an edge of h (k distinct images per edge).

    One tensor contraction.  T is h's adjacency tensor: n^k cells, 1 exactly
    where the k indices are distinct and form an edge, so a map collapsing
    an edge meets a 0.  ``np.einsum`` takes one copy of T per motif edge
    along a greedy path, each copy already summed over the edge's vertices
    that lie in no other edge (T is symmetric, so which axes does not
    matter): the triforce ``abf,ace,bcd->`` becomes the codegree triangle
    ``ab,ac,bc->``, n^3 steps instead of n^5.  Each motif vertex in no edge
    multiplies the count by n.  Every intermediate counts partial maps, at
    most n^v(motif), so int64 is exact while n^v(motif) < 2^63; past that the
    contraction runs on Python ints (object dtype).  A target whose T would
    pass MAX_CELLS // 64 cells (50 MB of int64) is refused with ValueError
    before anything is allocated; numpy's greedy path keeps every
    intermediate within the largest operand, so that bounds them too.
    Independent of the codegree sums in kforce_density, so the two
    cross-check each other.
    """
    import numpy as np

    from . import limits

    _check_motif(motif.k, motif.n, h)
    k, n = h.k, h.n
    degree = Counter(v for e in motif.edges for v in e)
    if not degree:
        return n**motif.n
    limit = limits.MAX_CELLS // 64
    if n**k > limit:
        raise ValueError(f"adjacency tensor of {n}^{k} cells exceeds the {limit}-cell limit (MAX_CELLS // 64)")
    terms = ["".join("abcdefghij"[v] for v in sorted(e) if degree[v] > 1) for e in motif.edges]
    exact = np.int64 if n**motif.n < 2**63 else object
    tensor = np.zeros((n,) * k, dtype=exact)
    if h.edges:
        rows = np.array([sorted(e) for e in h.edges], dtype=np.intp)
        for perm in itertools.permutations(range(k)):
            tensor[tuple(rows[:, perm].T)] = 1
    summed = {r: tensor.sum(axis=tuple(range(k - r))) if r < k else tensor for r in {len(t) for t in terms}}
    operands = [summed[len(t)] for t in terms]
    subscripts = ",".join(terms) + "->"
    path = np.einsum_path(subscripts, *operands, optimize="greedy")[0]
    count = np.einsum(subscripts, *operands, optimize=path)
    return int(count) * n ** (motif.n - len(degree))


def _codegrees(h: Hypergraph) -> Counter:
    codeg: Counter = Counter()
    for e in h.edges:
        for v in e:
            codeg[e - {v}] += 1
    return codeg


def kforce_density(h: Hypergraph) -> Fraction:
    """k-force homomorphism density hom(k-force, H) / n^(2k).

    Evaluated through codegree products: for a base tuple (x_1..x_k) the
    number of valid primed completions at slot i is the number of vertices
    extending {x_j : j != i} to an edge, and the completions multiply.  At
    k = 2 the two slots are independent vertices, so the sum is (2|E|)^2.
    For k >= 3 tuples sharing a coordinate contribute nothing, so the sum
    collapses to k! times a sum over k-sets, and only k-sets whose every
    (k-1)-subset has positive codegree contribute.  Each is found once, as
    a (k-1)-set S of positive codegree extended by a vertex v > max S lying
    in the link of every (k-2)-subset of S; at k = 3 these are the
    triangles of the codegree support graph.
    """
    if h.n == 0:
        raise ValueError("density of an empty vertex set is undefined")
    k, n = h.k, h.n
    if k == 2:
        return Fraction((2 * len(h.edges)) ** 2, n**4)
    codeg = _codegrees(h)
    link = defaultdict(set)  # (k-2)-set R -> {v : R + v has positive codegree}
    for s in codeg:
        for v in s:
            link[s - {v}].add(v)
    total = 0
    for s in codeg:
        top = max(s)
        for v in set.intersection(*(link[s - {u}] for u in s)):
            if v > top:
                prod = codeg[s]
                for u in s:
                    prod *= codeg[(s - {u}) | {v}]
                total += prod
    return Fraction(factorial(k) * total, n ** (2 * k))


# ---------------------------------------------------------------------------
# step kernels
# ---------------------------------------------------------------------------


class StepKernel:
    """Piecewise-constant W on a g x g x g grid of [0,1]^3, values in [0,1].

    Values are exact rationals so the weighted triforce integral is exact;
    floats passed in are rationalized via Fraction (exact binary value).
    """

    __slots__ = ("g", "values")

    def __init__(self, g: int, values) -> None:
        if g < 1:
            raise ValueError("grid resolution must be positive")
        vals = tuple(
            tuple(tuple(Fraction(values[x][y][z]) for z in range(g)) for y in range(g))
            for x in range(g)
        )
        for plane in vals:
            for row in plane:
                for v in row:
                    if not 0 <= v <= 1:
                        raise ValueError(f"kernel value {v} outside [0, 1]")
        self.g = g
        self.values = vals

    @staticmethod
    def constant(g: int, value) -> "StepKernel":
        v = Fraction(value)
        return StepKernel(g, [[[v] * g for _ in range(g)] for _ in range(g)])

    @staticmethod
    def indicator(g: int, cell: tuple[int, int, int]) -> "StepKernel":
        vals = [[[Fraction(0)] * g for _ in range(g)] for _ in range(g)]
        x, y, z = cell
        vals[x][y][z] = Fraction(1)
        return StepKernel(g, vals)

    def mean(self) -> Fraction:
        return sum(v for plane in self.values for row in plane for v in row) / self.g**3

    def __eq__(self, other: object) -> bool:
        return isinstance(other, StepKernel) and (self.g, self.values) == (other.g, other.values)

    def __repr__(self) -> str:
        return f"StepKernel(g={self.g}, mean={self.mean()})"


def triforce_weighted(w: StepKernel) -> Fraction:
    """Exact value of the triforce integral of a step kernel.

    Integrating W(x',y,z) W(x,y',z) W(x,y,z') over [0,1]^6 factors per cell:
    sum the three one-axis marginals and contract, then divide by g^6.
    """
    g = w.g
    v = w.values
    sum_x = [[sum(v[x][y][z] for x in range(g)) for z in range(g)] for y in range(g)]
    sum_y = [[sum(v[x][y][z] for y in range(g)) for z in range(g)] for x in range(g)]
    sum_z = [[sum(v[x][y][z] for z in range(g)) for y in range(g)] for x in range(g)]
    total = Fraction(0)
    for x in range(g):
        for y in range(g):
            for z in range(g):
                total += sum_x[y][z] * sum_y[x][z] * sum_z[x][y]
    return total / g**6

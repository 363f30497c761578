import itertools
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cornerforge import hypergraph, limits
from cornerforge.hypergraph import (
    Hypergraph,
    StepKernel,
    edge_density,
    hom_count,
    kforce_density,
    kforce_motif,
    single_edge_motif,
    triforce_motif,
    triforce_weighted,
)
from cornerforge.mandache import sample_mandache
from cornerforge.patterns import Group, GroupSet, spectrum
from oracles import (
    corner_hypergraph_oracle,
    hom_count_dfs_oracle,
    hom_count_oracle,
    triforce_weighted_oracle,
)

SINGLE_TRIPLE = Hypergraph(3, 3, frozenset({frozenset({0, 1, 2})}))


def random_hypergraph(rng, k, n, density=0.5):
    edges = frozenset(
        frozenset(e) for e in itertools.combinations(range(n), k) if rng.random() < density
    )
    return Hypergraph(k, n, edges)


def random_kernel(rng, g, denominator=16):
    vals = [
        [[Fraction(rng.randint(0, denominator), denominator) for _ in range(g)] for _ in range(g)]
        for _ in range(g)
    ]
    return StepKernel(g, vals)


def test_edge_density_examples():
    assert edge_density(SINGLE_TRIPLE) == Fraction(2, 9)
    assert edge_density(Hypergraph.complete(3, 3)) == Fraction(2, 9)
    assert edge_density(Hypergraph(3, 5, frozenset())) == 0
    with pytest.raises(ValueError):
        edge_density(Hypergraph(3, 0, frozenset()))


def test_hom_count_examples():
    assert hom_count(triforce_motif(), SINGLE_TRIPLE) == 6
    assert hom_count_oracle(triforce_motif(), SINGLE_TRIPLE) == 6
    four = Hypergraph(4, 4, frozenset({frozenset(range(4))}))
    assert hom_count(kforce_motif(4), four) == 24
    assert hom_count_oracle(kforce_motif(4), four) == 24
    with pytest.raises(ValueError):
        hom_count(kforce_motif(3), four)


@st.composite
def motif_and_target(draw):
    """A k-uniform motif (edges drawn from few vertices, so they share some;
    vertices beyond the edges stay isolated) and a random target, n < k and
    n = 0 included."""
    k = draw(st.sampled_from([2, 3, 4]))
    span = draw(st.integers(0, 5))
    pool = [frozenset(e) for e in itertools.combinations(range(span), k)]
    motif_edges = draw(st.sets(st.sampled_from(pool), max_size=4)) if pool else set()
    isolated = draw(st.integers(0, 6 - span))
    motif = Hypergraph(k, span + isolated, frozenset(motif_edges))
    n = draw(st.integers(0, 5))
    cells = [frozenset(e) for e in itertools.combinations(range(n), k)]
    target = Hypergraph(k, n, frozenset(draw(st.sets(st.sampled_from(cells)))) if cells else frozenset())
    return motif, target


TRIPLE_OF_FIVE = Hypergraph(3, 5, frozenset({frozenset({0, 1, 2}), frozenset({1, 2, 4})}))


@settings(max_examples=200, deadline=None)
@given(motif_and_target())
@example((triforce_motif(), TRIPLE_OF_FIVE))
@example((Hypergraph(3, 5, frozenset({frozenset({0, 1, 2})})), TRIPLE_OF_FIVE))  # two isolated vertices
@example((Hypergraph(3, 4, frozenset()), TRIPLE_OF_FIVE))  # no edges: every map counts
@example((Hypergraph(2, 3, frozenset()), Hypergraph(2, 0, frozenset())))
@example((Hypergraph(2, 0, frozenset()), Hypergraph(2, 0, frozenset())))  # the empty map
@example((single_edge_motif(4), Hypergraph(4, 3, frozenset())))  # n < k
@example((kforce_motif(2), Hypergraph.complete(2, 4)))
def test_hom_count_matches_dfs_oracle(case):
    motif, target = case
    assert hom_count(motif, target) == hom_count_dfs_oracle(motif, target)


def test_hom_count_exact_past_int64():
    # 200 * 199^9 is about 1.0e23 > 2^63: the contraction runs on Python ints
    path = Hypergraph(2, 10, frozenset(frozenset({i, i + 1}) for i in range(9)))
    assert hom_count(path, Hypergraph.complete(2, 200)) == 200 * 199**9


def test_hom_count_on_the_benchmark_graph():
    # the triforce chain's 3-graph (variant 0 of its relabelings), counted by
    # the contraction alone: the DFS oracle needs about 3 s on it
    n, m = 30, 150
    base = random.Random("triforce:graph").sample(list(itertools.combinations(range(n), 3)), m)
    label = random.Random("triforce:0").sample(range(n), n)
    h = Hypergraph(3, n, frozenset(frozenset(label[v] for v in e) for e in base))
    count = hom_count(triforce_motif(), h)
    assert count == 29_208
    assert count == kforce_density(h) * n**6


def test_hom_count_refuses_an_oversized_target():
    limit = limits.MAX_CELLS // 64
    with pytest.raises(ValueError, match=f"200\\^3 cells exceeds the {limit}-cell limit"):
        hom_count(triforce_motif(), Hypergraph(3, 200, frozenset()))  # T alone: 8.0e6 cells
    assert hom_count(single_edge_motif(2), Hypergraph(2, 2000, frozenset({frozenset({0, 1})}))) == 2
    assert hom_count(Hypergraph(3, 2, frozenset()), Hypergraph(3, 200, frozenset())) == 200**2  # no T needed


def test_hypergraph_module_loads_without_numpy():
    # loaded on its own, outside the package __init__, in a fresh interpreter
    code = (
        "import importlib.util, sys\n"
        f"spec = importlib.util.spec_from_file_location('cornerforge_hypergraph', {hypergraph.__file__!r})\n"
        "module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)\n"
        "spec.loader.exec_module(module)\n"
        "print('numpy' in sys.modules)\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_edge_density_equals_single_edge_homs():
    rng = random.Random(2)
    for _ in range(8):
        k = rng.choice([2, 3, 4])
        n = rng.randint(k, 6)
        h = random_hypergraph(rng, k, n)
        assert edge_density(h) == Fraction(hom_count(single_edge_motif(k), h), n**k)


def test_kforce_density_examples():
    assert kforce_density(SINGLE_TRIPLE) == Fraction(2, 243)
    assert kforce_density(Hypergraph(3, 6, frozenset())) == 0


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_kforce_density_matches_hom_count(k):
    rng = random.Random(4 + k)
    for _ in range(12):
        n = rng.randint(k, 7)
        h = random_hypergraph(rng, k, n, density=rng.choice([0.2, 0.5, 0.9]))
        assert kforce_density(h) == Fraction(hom_count(kforce_motif(k), h), n ** (2 * k))


def test_kforce_density_matches_hom_count_on_a_sparse_target():
    # 300 random triples on 120 vertices: 847 of the 7,140 pairs have
    # positive codegree, and 522 of the 822 triangles they form are not
    # edges, so the count is more than the 6 per edge
    rng = random.Random(11)
    triples = rng.sample(list(itertools.combinations(range(120), 3)), 300)
    h = Hypergraph(3, 120, frozenset(map(frozenset, triples)))
    count = hom_count(triforce_motif(), h)
    assert count > 6 * 300
    assert kforce_density(h) == Fraction(count, 120**6)


def corner_hypergraph(pairs):
    """H_S of the group set `pairs`, by the oracle's hand-written group."""
    g = pairs.group
    n, edges = corner_hypergraph_oracle(pairs, g.kind, g.params)
    return Hypergraph(3, n, edges)


# every group of order at most 12
CORNER_GROUPS = [Group.zmod(m) for m in range(1, 13)] + [Group.vector(2, 2), Group.vector(2, 3), Group.vector(3, 2)]


@st.composite
def small_group_sets(draw):
    group = draw(st.sampled_from(CORNER_GROUPS))
    cells = list(itertools.product(group.elements(), repeat=2))
    keep = draw(st.lists(st.booleans(), min_size=len(cells), max_size=len(cells)))
    return GroupSet(group, [c for c, k in zip(cells, keep) if k])


@settings(max_examples=60, deadline=None)
@given(small_group_sets())
def test_corners_are_triforces(pairs):
    # a triforce on base (x, y, z) of H_S is the corner of d = z - x - y at
    # (x, y), once per order of the three parts; d = 0 is the member itself
    h = corner_hypergraph(pairs)
    count = hom_count(triforce_motif(), h)
    assert count == kforce_density(h) * h.n**6 == 6 * (len(pairs) + spectrum(pairs).total())


def test_corners_are_triforces_on_a_mandache_sample():
    # F_3^4: H_S has 243 vertices, and hom_count refuses its 243^3-cell
    # adjacency tensor, so only the codegree route is checked
    pairs = sample_mandache(StepKernel.constant(2, Fraction(1, 2)), Group.vector(3, 4), 7)
    h = corner_hypergraph(pairs)
    assert kforce_density(h) * h.n**6 == 6 * (len(pairs) + spectrum(pairs).total())


def test_kforce_sparse_path_agrees_with_subset_oracle():
    # 110 vertices, edges on the first 7 only: the enumeration must find
    # every support triple; the oracle walks them with its own codegree
    # bookkeeping
    rng = random.Random(6)
    small = random_hypergraph(rng, 3, 7, density=0.4)
    shifted = Hypergraph(3, 110, small.edges)
    codeg = {}
    for e in shifted.edges:
        for v in e:
            codeg[e - {v}] = codeg.get(e - {v}, 0) + 1
    support = sorted({v for e in shifted.edges for v in e})
    total = 0
    for s in itertools.combinations(support, 3):
        prod = 1
        for v in s:
            prod *= codeg.get(frozenset(s) - {v}, 0)
        total += prod
    assert kforce_density(shifted) == Fraction(6 * total, 110**6)


def test_triforce_weighted_examples():
    assert triforce_weighted(StepKernel.constant(1, 1)) == 1
    assert triforce_weighted(StepKernel.constant(2, Fraction(1, 2))) == Fraction(1, 8)
    assert triforce_weighted(StepKernel.indicator(2, (1, 0, 1))) == Fraction(1, 64)


def test_triforce_weighted_matches_six_loop_oracle():
    rng = random.Random(8)
    for _ in range(6):
        w = random_kernel(rng, rng.choice([1, 2, 3]))
        assert triforce_weighted(w) == triforce_weighted_oracle(w)


def test_triforce_weighted_dominates_fourth_power_of_mean():
    rng = random.Random(10)
    for _ in range(20):
        w = random_kernel(rng, rng.choice([2, 3]))
        assert triforce_weighted(w) >= w.mean() ** 4


def test_kernel_validation():
    with pytest.raises(ValueError):
        StepKernel(1, [[[Fraction(3, 2)]]])
    with pytest.raises(ValueError):
        StepKernel(0, [])


def test_motif_shapes():
    tri = triforce_motif()
    assert tri.n == 6 and len(tri.edges) == 3
    assert frozenset({0, 1, 5}) in tri.edges  # base 1,2 with third slot primed
    k4 = kforce_motif(4)
    assert k4.n == 8 and len(k4.edges) == 4

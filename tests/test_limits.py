"""Every size refusal reads the one cell limit, `limits.MAX_CELLS`, when it
runs: lowered through the `cell_limit` fixture, each refusal fires on a
carrier far below the default limit, and a message that names the limit
names the lowered number."""

import io
import random

import pytest

from cornerforge.avoiders import build_corner_avoider, lift_avoider
from cornerforge.behrend import behrend_sum_free
from cornerforge.formats import ParseError, read_grid_set, read_group_set
from cornerforge.hypergraph import Hypergraph, StepKernel, hom_count, triforce_motif
from cornerforge.mandache import mandache_report, sample_mandache
from cornerforge.patterns import GridSet, Group, GroupSet, Pattern, spectrum

HALF = StepKernel.constant(1, 0.5)

# (what is refused, the lowered limit, the call, the message it raises)
REFUSALS = {
    "grid header": (1000, lambda: read_grid_set(io.StringIO("dim 3 side 11\n"), "g.set"),
                    "g.set:1:12: side 11 in dim 3 exceeds the 1000-cell limit"),
    "side-1 grid header": (1000, lambda: read_grid_set(io.StringIO("dim 10 side 1\n"), "g.set"),
                           "g.set:1:13: side 1 in dim 10 exceeds the 1000-cell limit"),
    "group header": (1000, lambda: read_group_set(io.StringIO("group zN 40\n"), "s.gset"),
                     "s.gset:1:10: zN 40 x zN 40 exceeds the 1000-cell limit"),
    "residue length": (1000, lambda: behrend_sum_free(5000), "length 5000 exceeds the limit of 1000 residues"),
    "materialize": (1000, lambda: build_corner_avoider(0.25, length=8, q_max=80).materialize(),
                    "side 67 needs 300763 cells; use the membership predicate"),
    "lift": (1000, lambda: lift_avoider(Pattern.corner(5), GridSet(3, 4, [(1, 2, 3)])),
             "lifted grid of side 4 in dim 5 exceeds the 1000-cell limit"),
    "sample_mandache": (1000, lambda: sample_mandache(HALF, Group.zmod(40), 0),
                        "zN 40 x zN 40 exceeds the 1000-cell limit"),
    "report seeds": (1000, lambda: mandache_report(HALF, Group.zmod(10), range(11)),
                     "11 seeds x zN 10 x zN 10 exceeds the 1000-cell limit"),
    "grid spectrum": (64 * 1000, lambda: spectrum(GridSet(1, 1001, [(1,)]), Pattern.arithmetic(3)),
                      "2000 differences of a side-1001 grid exceed the 1000-difference limit (MAX_CELLS // 64)"),
    "hom_count": (64 * 1000, lambda: hom_count(triforce_motif(), Hypergraph(3, 11, frozenset())),
                  "adjacency tensor of 11^3 cells exceeds the 1000-cell limit (MAX_CELLS // 64)"),
}


@pytest.mark.parametrize("name", REFUSALS)
def test_each_refusal_reads_the_lowered_limit(name, cell_limit):
    cells, call, message = REFUSALS[name]
    call()  # within the default limit, nothing is refused
    cell_limit(cells)
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message
    assert isinstance(exc.value, ParseError) == name.endswith("header")


def test_the_walk_holds_fewer_pairs_under_a_lowered_limit(cell_limit, built_pairs):
    # each rotation builds its keep/wrap pair unless it is held; below two
    # pairs' worth of bits nothing is held, so every rotation builds one
    group = Group.vector(3, 2)
    rng = random.Random(3)
    pairs = GroupSet(group, [(a, b) for a in group.elements() for b in group.elements() if rng.random() < 0.5])
    expected = spectrum(pairs).counts
    held = len(built_pairs)
    del built_pairs[:]
    cell_limit(2 * group.order**2 - 1)
    assert spectrum(pairs).counts == expected
    assert held == len(set(built_pairs)) < len(built_pairs) == 2 * (group.order - 1)

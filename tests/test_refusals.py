"""Every argument check in the library refuses its smallest bad argument.

The command line refuses most bad input before it reaches these checks, so
without this table they would never run.  Each row calls one library name
with the least argument it must refuse and matches the start of the message.
Internal checks that no argument can reach (a reversed Euclid word that does
not reproduce its pair, a missing prime in `build_alpha_hard`, a collapsed
projection) are not listed.
"""

import argparse
import json
from fractions import Fraction

import numpy as np
import pytest

from cornerforge import avoiders, behrend, cli, contfrac, diamond, hypergraph, patterns
from cornerforge.patterns import GridSet, Group, GroupSet, Pattern

ALPHA = contfrac.build_alpha_hard(5, 2)


def _record_with(field, change):
    record = ALPHA.record()
    record[field] = change(record[field])
    return contfrac.AlphaSequence.from_json(json.dumps(record))


def _verify_another_side():
    avoider = avoiders.build_corner_avoider(0.3, length=4, q_max=80)
    avoiders.verify_corner_avoidance(avoider, GridSet(3, avoider.side + 1))


def _qc(points):
    return behrend.QCSystem(points, 1, ((1, -1, 1, -1),) * (len(points) - 3))


# (id, call, exception type, start of the message)
REFUSALS = [
    ("spectrum of a grid without a pattern", lambda: patterns.spectrum(GridSet(1, 3)), ValueError,
     "grid spectra need an explicit pattern"),
    ("spectrum of a group set with a pattern", lambda: patterns.spectrum(GroupSet(Group.zmod(2)), Pattern.corner(2)),
     ValueError, "group spectra are corner spectra"),
    ("Pattern dim 0", lambda: Pattern(0, ((),)), ValueError, "pattern dimension must be positive"),
    ("Pattern with no point", lambda: Pattern(1, ()), ValueError, "pattern needs at least one point"),
    ("Pattern point of another dim", lambda: Pattern(1, ((0, 1),)), ValueError, "pattern point has wrong dimension"),
    ("Pattern repeated point", lambda: Pattern(1, ((0,), (0,))), ValueError, "pattern points must be distinct"),
    ("GridSet dim 0", lambda: GridSet(0, 1), ValueError, "dim and side must be positive"),
    ("GridSet side 0", lambda: GridSet(1, 0), ValueError, "dim and side must be positive"),
    ("GridSet.from_cells of a non-cube", lambda: GridSet.from_cells(np.zeros((1, 2), dtype=bool)), ValueError,
     "cells must be a cube, got shape (1, 2)"),
    ("corner_count_group at the identity", lambda: patterns.corner_count_group(GroupSet(Group.zmod(2)), 0), ValueError,
     "difference d must not be the identity"),
    ("Group.zmod(0)", lambda: Group.zmod(0), ValueError, "modulus must be positive"),
    ("IntervalSystem L 0", lambda: avoiders.IntervalSystem(0, 2, frozenset()), ValueError,
     "need L >= 1 and Theta1 >= 2"),
    ("IntervalSystem Theta1 1", lambda: avoiders.IntervalSystem(1, 1, frozenset()), ValueError,
     "need L >= 1 and Theta1 >= 2"),
    ("IntervalSystem index L", lambda: avoiders.IntervalSystem(1, 2, frozenset({1})), ValueError,
     "interval indices must lie in {0..L-1}"),
    ("five-point transfer on another Theta1",
     lambda: avoiders.check_five_point_transfer(avoiders.IntervalSystem(1, 2, frozenset()), Fraction(1, 3),
                                                (0, 1, 2, 3, 4), 1, 1),
     ValueError, "interval system was built for a different pattern"),
    ("verify_corner_avoidance of another side", _verify_another_side, ValueError, "expected a side-"),
    ("pattern_projection of 4 points", lambda: avoiders.pattern_projection(Pattern.corner(3)), ValueError,
     "projection route needs at least 5 points"),
    ("lift to a side too small", lambda: avoiders.lift_avoider(Pattern.arithmetic(5), GridSet(1, 1)), ValueError,
     "base side too small for even one lifted layer"),
    ("lift a 2-d base", lambda: avoiders.lift_avoider(Pattern.corner(3), GridSet(2, 2)), ValueError,
     "lifting expects a 1-d or 3-d base set"),
    ("lift a flat 5-point pattern from a 3-d base", lambda: avoiders.lift_avoider(Pattern.arithmetic(5), GridSet(3, 2)),
     ValueError, "use a 1-d base for a 5-point pattern of low affine dimension"),
    ("lift a flat 4-point pattern from a 3-d base", lambda: avoiders.lift_avoider(Pattern.arithmetic(4), GridSet(3, 2)),
     ValueError, "pattern has fewer than 5 points and affine dimension below 3"),
    ("lift an empty base in general position",
     lambda: avoiders.lift_avoider(Pattern(3, ((0, 0, 0), (2, 0, 0), (0, 2, 0), (0, 0, 2))), GridSet(3, 2)),
     ValueError, "cannot place the image of an empty base set"),
    ("AlphaSequence.convergent(-1)", lambda: ALPHA.convergent(-1), IndexError, "convergent index must be nonnegative"),
    ("AlphaSequence.p_q before the stream", lambda: ALPHA.p_q(-ALPHA.offset - 1), IndexError,
     f"index {-ALPHA.offset - 1} precedes the quotient stream"),
    ("from_json with another x", lambda: _record_with("x", lambda x: x + 1), ValueError,
     "stored x does not match the quotient prefix"),
    ("from_json with another y", lambda: _record_with("y", lambda y: y + 1), ValueError,
     "stored y does not match the quotient prefix"),
    ("Hypergraph k 1", lambda: hypergraph.Hypergraph(1, 1, frozenset()), ValueError, "uniformity must be at least 2"),
    ("Hypergraph n -1", lambda: hypergraph.Hypergraph(2, -1, frozenset()), ValueError,
     "vertex count must be nonnegative"),
    ("Hypergraph short edge", lambda: hypergraph.Hypergraph(2, 2, {frozenset({0})}), ValueError,
     "edge [0] does not have 2 distinct vertices"),
    ("Hypergraph vertex n", lambda: hypergraph.Hypergraph(2, 2, {frozenset({0, 2})}), ValueError,
     "edge [0, 2] has a vertex outside [0, 2)"),
    ("kforce_motif(1)", lambda: hypergraph.kforce_motif(1), ValueError, "k-force needs k >= 2"),
    ("kforce_density with n 0", lambda: hypergraph.kforce_density(hypergraph.Hypergraph(2, 0, frozenset())), ValueError,
     "density of an empty vertex set is undefined"),
    ("DigitSphereParams dim 0", lambda: behrend.DigitSphereParams(1, 0, 2, 1, 0), ValueError,
     "dimension must be at least 1"),
    ("DigitSphereParams base below headroom", lambda: behrend.DigitSphereParams(1, 1, 1, 2, 0), ValueError,
     "base must be at least the headroom divisor"),
    ("DigitSphereParams radius -1", lambda: behrend.DigitSphereParams(1, 1, 2, 1, -1), ValueError,
     "radius out of range"),
    ("QCSystem of 3 points", lambda: behrend.QCSystem((0, 1, 2), 1, ()), ValueError, "need at least 4 window points"),
    ("QCSystem repeated point", lambda: _qc((0, 0, 1, 2)), ValueError, "window points must be distinct"),
    ("QCSystem without rows", lambda: behrend.QCSystem((0, 1, 2, 3), 1, ()), ValueError,
     "expected one row per length-4 window"),
    ("QCSystem zero coefficient", lambda: behrend.QCSystem((0, 1, 2, 3), 1, ((0, 1, 1, -2),)), ValueError,
     "row 0 has a zero coefficient"),
    ("QCSystem row not killing constants", lambda: behrend.QCSystem((0, 1, 2, 3), 1, ((1, 1, 1, 1),)), ValueError,
     "row 0 does not annihilate constants"),
    ("QCSystem row not killing t", lambda: _qc((0, 1, 2, 3)), ValueError,
     "row 0 fails on a quadratic basis polynomial"),
    ("is_qc of a short vector", lambda: behrend.is_qc(behrend.qc_coefficients((0, 1, 2, 3, 4)), (1, 2)), ValueError,
     "vector length 2 does not match 5 points"),
    ("behrend_qc_free of 4 points", lambda: behrend.behrend_qc_free((0, 1, 2, 3), 8), ValueError,
     "quadratic-configuration avoidance is built for 5 points"),
    ("find_qc_witness of 4 points", lambda: behrend.find_qc_witness(behrend.qc_coefficients((0, 1, 2, 3)), ()),
     ValueError, "witness search expects a 5-point system"),
    ("TripartiteGraph edge past side", lambda: diamond.TripartiteGraph(1, {(0, 1)}, (), ()), ValueError,
     "xy edge outside [0, 1)^2"),
    ("_input_path without a path",
     lambda: cli._input_path(argparse.Namespace(graph=None, graph_path=None), "graph", "graph_path"), ValueError,
     "missing input file: pass --graph or a positional path"),
]


@pytest.mark.parametrize("call, error, message", [row[1:] for row in REFUSALS], ids=[row[0] for row in REFUSALS])
def test_each_library_check_refuses_its_smallest_bad_argument(call, error, message):
    with pytest.raises(error) as caught:
        call()
    assert str(caught.value).startswith(message) and type(caught.value) is error

import io
from fractions import Fraction

import pytest

from cornerforge.behrend import behrend_sum_free
from cornerforge.diamond import diamond_free_from_ap_free
from cornerforge.formats import (
    ParseError,
    read_grid_set,
    read_group_set,
    read_hypergraph,
    read_kernel,
    read_residues,
    read_tripartite,
    write_grid_set,
    write_group_set,
    write_hypergraph,
    write_kernel,
    write_sphere_set,
    write_tripartite,
)
from cornerforge.hypergraph import Hypergraph, StepKernel
from cornerforge.patterns import GridSet, Group, GroupSet


def round_trip(write, read, value):
    buf = io.StringIO()
    write(buf, value)
    buf.seek(0)
    return read(buf)


def test_grid_set_round_trip():
    grid = GridSet(3, 5, [(1, 2, 3), (5, 5, 5), (2, 1, 4)])
    again = round_trip(write_grid_set, read_grid_set, grid)
    assert again == grid


def test_grid_set_diagnostics():
    with pytest.raises(ParseError) as err:
        read_grid_set(io.StringIO("dim 2 side 3\n1 2\n4 1\n"), "pts.set")
    assert err.value.line == 3 and "outside" in str(err.value)
    with pytest.raises(ParseError):
        read_grid_set(io.StringIO(""), "empty.set")
    with pytest.raises(ParseError) as err:
        read_grid_set(io.StringIO("dim 2 side 3\n1 2 3\n"), "pts.set")
    assert err.value.line == 2


def test_residue_round_trip_shifts_to_one_based():
    out = behrend_sum_free(64)
    buf = io.StringIO()
    write_sphere_set(buf, out)
    text = buf.getvalue()
    assert text.splitlines()[0] == "dim 1 side 64"
    assert text.splitlines()[1] == "1"  # residue 0 stored as 1
    buf.seek(0)
    members, length = read_residues(buf)
    assert members == out.members and length == 64


def test_group_set_round_trips():
    zset = GroupSet(Group.zmod(6), [(0, 3), (5, 1)])
    again = round_trip(write_group_set, read_group_set, zset)
    assert again.group == zset.group and again.mask == zset.mask
    vset = GroupSet(Group.vector(3, 2), [((0, 1), (2, 2)), ((1, 0), (0, 0))])
    again = round_trip(write_group_set, read_group_set, vset)
    assert again.group == vset.group and again.mask == vset.mask


def test_group_set_diagnostics():
    with pytest.raises(ParseError) as err:
        read_group_set(io.StringIO("group fp 3 2\n0,1 2\n"), "g.gset")
    assert err.value.line == 2 and err.value.column == 5


def test_hypergraph_round_trip_and_checks():
    h = Hypergraph(3, 6, frozenset({frozenset({0, 1, 2}), frozenset({3, 4, 5})}))
    again = round_trip(write_hypergraph, read_hypergraph, h)
    assert again == h
    with pytest.raises(ParseError):
        read_hypergraph(io.StringIO("3 6 2\n0 1 2\n"))  # promised 2 edges
    with pytest.raises(ParseError):
        read_hypergraph(io.StringIO("3 6 1\n0 1 1\n"))  # repeated vertex


def test_kernel_round_trip_order():
    w = StepKernel(
        2,
        [
            [[Fraction(0), Fraction(1, 2)], [Fraction(1, 3), Fraction(1)]],
            [[Fraction(1, 5), Fraction(2, 7)], [Fraction(0), Fraction(3, 4)]],
        ],
    )
    again = round_trip(write_kernel, read_kernel, w)
    assert again == w
    # x varies fastest in the token stream
    buf = io.StringIO()
    write_kernel(buf, w)
    tokens = buf.getvalue().split()
    assert tokens[0] == "2"
    assert Fraction(tokens[1]) == w.values[0][0][0]
    assert Fraction(tokens[2]) == w.values[1][0][0]


def test_kernel_diagnostics():
    with pytest.raises(ParseError):
        read_kernel(io.StringIO("2\n1/2\n"))  # 7 values missing
    with pytest.raises(ParseError) as err:
        read_kernel(io.StringIO("1\nbogus\n"), "w.kern")
    assert err.value.line == 2


def test_kernel_value_out_of_range_has_position():
    with pytest.raises(ParseError) as err:
        read_kernel(io.StringIO("1\n# one cell\n  3/2\n"), "w.kern")
    assert (err.value.line, err.value.column) == (3, 3)
    assert "kernel value 3/2 outside [0, 1]" in str(err.value)


def test_tripartite_edge_error_names_its_line():
    with pytest.raises(ParseError) as err:
        read_tripartite(io.StringIO("tripartite 3\nXY 0 1\nYZ 1 2\nXZ 0 3\n"), "g.graph")
    assert (err.value.line, err.value.column) == (4, 6)
    assert str(err.value).startswith("g.graph:4:6: XZ edge")


def test_tripartite_round_trip():
    g = diamond_free_from_ap_free({0, 1}, 5)
    again = round_trip(write_tripartite, read_tripartite, g)
    assert again == g
    with pytest.raises(ParseError):
        read_tripartite(io.StringIO("tripartite 2\nXW 0 1\n"))

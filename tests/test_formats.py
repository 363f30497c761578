import csv
import io
import itertools
import json
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from cornerforge import formats
from cornerforge.behrend import behrend_sum_free
from cornerforge.diamond import TripartiteGraph, diamond_free_from_ap_free
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
    write_residues,
    write_spectrum_csv,
    write_spectrum_json,
    write_tripartite,
)
from cornerforge.hypergraph import Hypergraph, StepKernel
from cornerforge.patterns import GridSet, Group, GroupSet, Spectrum
from oracles import set_text_oracle


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


# (text, line, column, message) as the grid-set reader has always reported them
MALFORMED_GRID_SETS = [
    ('', 1, 1, 'empty file'),
    ('# only\n\n', 1, 1, 'empty file'),
    ('\n\n', 1, 1, 'empty file'),
    ('dim 2\n', 1, 1, "expected header 'dim k side N'"),
    ('dim 2 side\n', 1, 1, "expected header 'dim k side N'"),
    ('dim 2 size 3\n', 1, 1, "expected header 'dim k side N'"),
    ('dims 2 side 3\n', 1, 1, "expected header 'dim k side N'"),
    ('dim x side 3\n', 1, 5, "expected an integer, got 'x'"),
    ('dim 2 side y\n', 1, 12, "expected an integer, got 'y'"),
    ('dim 2 side 3 4\n', 1, 1, "expected header 'dim k side N'"),
    ('dim 2 side 3\n1\n', 2, 1, 'expected 2 coordinates'),
    ('dim 2 side 3\n1 2 3\n', 2, 1, 'expected 2 coordinates'),
    ('dim 2 side 3\n1 x\n', 2, 3, "expected an integer, got 'x'"),
    ('dim 2 side 3\n  1   2x\n', 2, 7, "expected an integer, got '2x'"),
    ('dim 2 side 3\n4 1\n', 2, 1, 'point (4, 1) outside [1, 3]^2'),
    ('dim 2 side 3\n0 1\n', 2, 1, 'point (0, 1) outside [1, 3]^2'),
    ('dim 2 side 3\n1 -1\n', 2, 1, 'point (1, -1) outside [1, 3]^2'),
    ('dim 2 side 3\n1\t2\n', 2, 1, 'expected 2 coordinates'),
    ('dim 3 side 3\n1\t2 3\n', 2, 1, 'expected 3 coordinates'),
    ('dim 2 side 3\n1.0 2\n', 2, 1, "expected an integer, got '1.0'"),
    ('dim 2 side 3\n1 2\n# c\n\n2 2 2\n', 5, 1, 'expected 2 coordinates'),
    ('dim 2 side 3\n1 2\n   \n  # 1 2\n3 9\n', 5, 1, 'point (3, 9) outside [1, 3]^2'),
    ('dim 1 side 5\n6\n', 2, 1, 'point (6,) outside [1, 5]^1'),
    ('dim 1 side 5\n1,2\n', 2, 1, "expected an integer, got '1,2'"),
    ('dim 3 side 4\n1  2\n', 2, 1, 'expected 3 coordinates'),
    ('dim 3 side 4\n 1 2 3 4\n', 2, 2, 'expected 3 coordinates'),
    ('dim 2 side 3\n1 2\r\n3 x\r\n', 3, 3, "expected an integer, got 'x\\r'"),
    ('dim 2 side 3\n1 2 \n2 0 \n', 3, 1, 'point (2, 0) outside [1, 3]^2'),
    ('dim 2 side 3\n+4 1\n', 2, 1, 'point (4, 1) outside [1, 3]^2'),
    ('dim 2 side 3\n1 1_0\n', 2, 1, 'point (1, 10) outside [1, 3]^2'),
    ('dim 2 side 3\n1 _1\n', 2, 3, "expected an integer, got '_1'"),
    ('dim 2 side 100000\n', 1, 12, 'side 100000 in dim 2 exceeds the 400000000-cell limit'),
    ('dim 9 side 10\n', 1, 12, 'side 10 in dim 9 exceeds the 400000000-cell limit'),
    ('dim 2 side 3\n3 3\n3 3 \x0c\n', 3, 1, 'expected 2 coordinates'),
]


@pytest.mark.parametrize("text,line,column,message", MALFORMED_GRID_SETS)
def test_grid_set_parse_error_positions(text, line, column, message):
    with pytest.raises(ParseError) as err:
        read_grid_set(io.StringIO(text), "g.set")
    assert str(err.value) == f"g.set:{line}:{column}: {message}"


# headers the reader used to hand unchecked to GridSet / Group
BAD_HEADERS = [
    (read_grid_set, "dim 0 side 5\n", 1, 5, "dim must be positive, got 0"),
    (read_grid_set, "dim -1 side 5\n", 1, 5, "dim must be positive, got -1"),
    (read_grid_set, "dim 3 side 0\n", 1, 12, "side must be positive, got 0"),
    (read_grid_set, "# c\n\ndim  2  side  -4\n1 1\n", 3, 15, "side must be positive, got -4"),
    (read_group_set, "group zN 0\n", 1, 10, "modulus must be positive, got 0"),
    (read_group_set, "group zN -3\n0 0\n", 1, 10, "modulus must be positive, got -3"),
    (read_group_set, "group fp 1 3\n", 1, 10, "p must be prime, got 1"),
    (read_group_set, "group fp 1 30\n", 1, 10, "p must be prime, got 1"),
    (read_group_set, "group fp 4 2\n0,0 0,0\n", 1, 10, "p must be prime, got 4"),
    (read_group_set, "group fp 91 1\n", 1, 10, "p must be prime, got 91"),
    (read_group_set, "\ngroup fp 3 0\n", 2, 12, "exponent must be positive, got 0"),
    (read_tripartite, "tripartite 0\n", 1, 12, "side must be positive, got 0"),
    (read_tripartite, "tripartite -2\nXY 0 1\n", 1, 12, "side must be positive, got -2"),
    (read_kernel, "0\n", 1, 1, "grid resolution must be positive, got 0"),
    (read_kernel, "# w\n  -3\n", 2, 3, "grid resolution must be positive, got -3"),
]


@pytest.mark.parametrize("read,text,line,column,message", BAD_HEADERS)
def test_bad_header_values_have_positions(read, text, line, column, message):
    with pytest.raises(ParseError) as err:
        read(io.StringIO(text), "h.set")
    assert str(err.value) == f"h.set:{line}:{column}: {message}"


@pytest.mark.parametrize(
    "text,points",
    [
        ("dim 2 side 5\n1  2\n", [(1, 2)]),
        ("dim 2 side 5\n  3 4  \n", [(3, 4)]),
        ("dim 2 side 40\n+3 007\n", [(3, 7)]),
        ("dim 1 side 40\n3_0\n", [(30,)]),
        ("dim 2 side 5\r\n1 2\r\n5 5\r\n", [(1, 2), (5, 5)]),
        ("# a grid\n\ndim 3 side 2\n# first\n1 1 1\n\n   \n  # 2 2 2\n2 1 2\n2 1 2\n", [(1, 1, 1), (2, 1, 2)]),
        ("dim 2 side 3\n1\t 2\n", [(1, 2)]),
        ("dim 2 side 3\n1 \u0661\n", [(1, 1)]),
        ("dim 1 side 70000\n70000\n65537\n1\n", [(70000,), (65537,), (1,)]),
        ("dim 2 side 3\n", []),
    ],
)
def test_grid_set_reader_accepts_non_canonical_input(text, points):
    grid = read_grid_set(io.StringIO(text))
    assert grid == GridSet(grid.dim, grid.side, points)


@st.composite
def grid_sets(draw):
    dim = draw(st.integers(1, 3))
    side = draw(st.sampled_from([1, 2, 3, 9, 10, 11, 257] if dim < 3 else [1, 2, 5, 12]))
    coords = st.tuples(*[st.integers(1, side)] * dim)
    return GridSet(dim, side, draw(st.lists(coords, max_size=60)))


@settings(max_examples=100, deadline=None)
@given(grid_sets())
def test_grid_set_write_read_round_trip(grid_route, grid):
    # one line per member in flat-index order (first coordinate fastest), as
    # the per-point writer had it, on both of the writer's routes
    points = sorted(grid, key=lambda p: p[::-1])
    assert list(grid) == points
    expected = f"dim {grid.dim} side {grid.side}\n" + "".join(" ".join(str(c) for c in p) + "\n" for p in points)
    for route in ("numpy", "plain"):
        buf = io.StringIO()
        with grid_route(route):
            write_grid_set(buf, grid)
        assert buf.getvalue() == expected
        buf.seek(0)
        assert read_grid_set(buf) == grid


@st.composite
def noisy_grid_texts(draw):
    """A point list spelled non-canonically (signs, zero padding,
    underscores), with repeated points, uneven spacing, CR LF line ends and
    blank and comment lines in between."""
    grid = draw(grid_sets())
    points = draw(st.permutations(list(grid)))

    def spell(c):
        return draw(st.sampled_from([str(c), f"+{c}", f"0{c}", f"00{c}", f"{c}" if c < 10 else f"{c // 10}_{c % 10}"]))

    lines = draw(st.lists(st.sampled_from(["\n", "  \n", "# note\n", " # 1 1\n"]), max_size=2))
    lines.append(f"dim {grid.dim} side {grid.side}\n")
    for p in points:
        for _ in range(draw(st.integers(1, 2))):
            lead, gap = " " * draw(st.integers(0, 2)), " " * draw(st.integers(1, 3))
            end = draw(st.sampled_from(["\n", "\r\n", " \n"]))
            lines.append(lead + gap.join(spell(c) for c in p) + end)
        lines += draw(st.lists(st.sampled_from(["\n", "   \n", "# note\n", "  # 1 2\n"]), max_size=2))
    return grid, "".join(lines)


@settings(max_examples=100, deadline=None)
@given(noisy_grid_texts())
def test_grid_set_reader_accepts_noisy_input(case):
    grid, text = case
    assert read_grid_set(io.StringIO(text)) == grid


def test_residue_round_trip_shifts_to_one_based():
    out = behrend_sum_free(64)
    buf = io.StringIO()
    write_residues(buf, out.members, out.params.length)
    text = buf.getvalue()
    assert text.splitlines()[0] == "dim 1 side 64"
    assert text.splitlines()[1] == "1"  # residue 0 stored as 1
    buf.seek(0)
    members, length = read_residues(buf)
    assert members == out.members and length == 64


@pytest.mark.parametrize(
    "members,length",
    [((), 1), ((), 7), ([6, 0, 3, 2], 7), ([4, 4, 1, 4, 1], 5), (range(99, -1, -3), 100), ([0], 1)],
)
def test_residue_writer_matches_the_one_dimensional_grid_writer(members, length):
    direct, via_grid = io.StringIO(), io.StringIO()
    write_residues(direct, members, length)
    write_grid_set(via_grid, GridSet(1, length, [(v + 1,) for v in members]))
    assert direct.getvalue() == via_grid.getvalue()


@pytest.mark.parametrize("members,length", [([5], 5), ([-1], 5), ([], 0)])
def test_residue_writer_refuses_values_off_the_range(members, length):
    with pytest.raises(ValueError):
        write_residues(io.StringIO(), members, length)


RESIDUE_ERRORS = [
    ("dim 1 side 5\n6\n", 2, 1, "point (6,) outside [1, 5]^1"),
    ("dim 1 side 5\n2\n\n# c\n0\n", 5, 1, "point (0,) outside [1, 5]^1"),
    ("dim 1 side 5\n1 2\n", 2, 1, "expected 1 coordinates"),
    ("dim 1 side 5\n  x\n", 2, 3, "expected an integer, got 'x'"),
    ("dim 1 side x\n", 1, 12, "expected an integer, got 'x'"),
    ("dim 1 side 0\n", 1, 12, "side must be positive, got 0"),
    ("dim 1 side 400000001\n1\n", 1, 12, "side 400000001 in dim 1 exceeds the 400000000-cell limit"),
    ("# c\ndim 2 side 5\n1 1\n", 2, 5, "residue sets must be 1-dimensional"),
    ("", 1, 1, "empty file"),
]


@pytest.mark.parametrize("text,line,column,message", RESIDUE_ERRORS)
def test_residue_parse_error_positions(text, line, column, message):
    with pytest.raises(ParseError) as err:
        read_residues(io.StringIO(text), "r.set")
    assert str(err.value) == f"r.set:{line}:{column}: {message}"


def test_group_set_round_trips():
    zset = GroupSet(Group.zmod(6), [(0, 3), (5, 1)])
    again = round_trip(write_group_set, read_group_set, zset)
    assert again == zset
    vset = GroupSet(Group.vector(3, 2), [((0, 1), (2, 2)), ((1, 0), (0, 0))])
    again = round_trip(write_group_set, read_group_set, vset)
    assert again == vset


def test_group_set_diagnostics():
    with pytest.raises(ParseError) as err:
        read_group_set(io.StringIO("group fp 3 2\n0,1 2\n"), "g.gset")
    assert err.value.line == 2 and err.value.column == 5


IO_GROUPS = [Group.zmod(m) for m in (1, 2, 5, 12)] + [
    Group.vector(p, n) for p, n in ((2, 1), (2, 3), (3, 2), (5, 1))
]


@st.composite
def group_pair_lists(draw):
    group = draw(st.sampled_from(IO_GROUPS))
    elems = list(group.elements())
    pairs = draw(st.lists(st.tuples(st.sampled_from(elems), st.sampled_from(elems)), max_size=40))
    return group, pairs


@settings(max_examples=100, deadline=None)
@given(group_pair_lists())
def test_group_set_write_read_round_trip(case):
    group, pairs = case
    gset = GroupSet(group, pairs)
    buf = io.StringIO()
    write_group_set(buf, gset)
    fmt = group.format_element
    # one line per member in flat-index order, elements in canonical form
    assert buf.getvalue() == f"group {group.label()}\n" + "".join(f"{fmt(x)} {fmt(y)}\n" for x, y in gset)
    buf.seek(0)
    again = read_group_set(buf)
    assert again == gset


@st.composite
def noisy_group_texts(draw):
    """A pair list spelled with non-canonical elements (shifted by multiples
    of the modulus, zero-padded), repeated lines, uneven spacing, and blank
    and comment lines in between."""
    group, pairs = draw(group_pair_lists())
    modulus = group.order if group.kind == "zN" else group.params[0]

    def spell(value):
        v = value + modulus * draw(st.integers(-2, 2))
        return f"0{v}" if v >= 0 and draw(st.booleans()) else str(v)

    def name(e):
        return spell(e) if group.kind == "zN" else ",".join(spell(c) for c in e)

    lines = [f"group {group.label()}\n"]
    for x, y in pairs:
        for _ in range(draw(st.integers(1, 2))):
            lead, gap = " " * draw(st.integers(0, 2)), " " * draw(st.integers(1, 3))
            lines.append(f"{lead}{name(x)}{gap}{name(y)}\n")
        lines += draw(st.lists(st.sampled_from(["\n", "   \n", "# note\n", "  # 1 2\n"]), max_size=2))
    return group, pairs, "".join(lines)


@settings(max_examples=100, deadline=None)
@given(noisy_group_texts())
def test_group_set_reader_accepts_non_canonical_input(case):
    group, pairs, text = case
    got = read_group_set(io.StringIO(text))
    assert got == GroupSet(group, pairs)


# (text, line, column, message) as the group-set reader has always reported them
MALFORMED_GROUP_SETS = [
    ("group fp 3 2\n0,1 2\n", 2, 5, "bad group element '2'"),
    ("group zN 5\n1\n", 2, 1, "expected two elements"),
    ("group zN 5\n1 2 3\n", 2, 1, "expected two elements"),
    ("group zN 5\n# c\n\n1 x\n", 4, 3, "bad group element 'x'"),
    ("group zN 5\n0 0\n  1   2x\n", 3, 7, "bad group element '2x'"),
    ("group fp 3 2\n0,1,2 0,0\n", 2, 1, "bad group element '0,1,2'"),
    ("group fp 3 2\n0,0 0;0\n", 2, 5, "bad group element '0;0'"),
    ("group fp 3 2\n0,0 0,\n", 2, 5, "bad group element '0,'"),
    ("group zN 4\n1 1\n2\t3\n", 3, 1, "expected two elements"),
    ("group zN 4\n1 2\n1 1 \n  # x\n3 4 5\n", 5, 1, "expected two elements"),
    ("group zN\n", 1, 7, "unknown group kind"),
    ("grp zN 4\n", 1, 1, "expected header 'group zN <N>' or 'group fp <p> <n>'"),
    ("group fp 3 x\n", 1, 12, "expected an integer, got 'x'"),
    ("group qq 3\n", 1, 7, "unknown group kind"),
    ("", 1, 1, "empty file"),
    ("# only\n\n", 1, 1, "empty file"),
    ("group zN 4\n1 2\n2 ,\n", 3, 3, "bad group element ','"),
    ("group fp 2 2\n1,1 1,1,\n", 2, 5, "bad group element '1,1,'"),
    ("group zN 4\n1.0 2\n", 2, 1, "bad group element '1.0'"),
]


@pytest.mark.parametrize("text,line,column,message", MALFORMED_GROUP_SETS)
def test_group_set_parse_error_positions(text, line, column, message):
    with pytest.raises(ParseError) as err:
        read_group_set(io.StringIO(text), "g.gset")
    assert str(err.value) == f"g.gset:{line}:{column}: {message}"


def test_hypergraph_round_trip_and_checks():
    h = Hypergraph(3, 6, frozenset({frozenset({0, 1, 2}), frozenset({3, 4, 5})}))
    again = round_trip(write_hypergraph, read_hypergraph, h)
    assert again == h
    with pytest.raises(ParseError):
        read_hypergraph(io.StringIO("3 6 2\n0 1 2\n"))  # promised 2 edges
    with pytest.raises(ParseError):
        read_hypergraph(io.StringIO("3 6 1\n0 1 1\n"))  # repeated vertex


# (text, line, column, message) for malformed hypergraph files
MALFORMED_HYPERGRAPHS = [
    ("", 1, 1, "empty file"),
    ("3 5\n", 1, 1, "expected header 'k n m'"),
    ("3 x 1\n", 1, 3, "expected an integer, got 'x'"),
    ("1 5 0\n", 1, 1, "uniformity must be at least 2, got 1"),
    ("# c\n 0 5 0\n", 2, 2, "uniformity must be at least 2, got 0"),
    ("3 0 0\n", 1, 3, "vertex count must be positive, got 0"),
    ("3  -2 0\n", 1, 4, "vertex count must be positive, got -2"),
    ("3 5 -1\n", 1, 5, "edge count must be nonnegative, got -1"),
    ("3 5 1\n0 1\n", 2, 1, "expected 3 vertices"),
    ("3 5 1\n0 1 y\n", 2, 5, "expected an integer, got 'y'"),
    ("3 5 1\n0 1 1\n", 2, 1, "edge vertices must be distinct"),
    ("3 5 1\n0 1 5\n", 2, 5, "edge vertex 5 outside [0, 5)"),
    ("3 5 1\n-1 1 2\n", 2, 1, "edge vertex -1 outside [0, 5)"),
    ("2 3 2\n0 1\n  1  30\n", 3, 6, "edge vertex 30 outside [0, 3)"),
    ("3 5 2\n0 1 2\n2 1 0\n", 3, 1, "edge [0, 1, 2] repeats line 2"),
    ("# c\n3 5 3\n0 1 2\n1 2 3\n\n  2 0 1\n", 6, 3, "edge [0, 1, 2] repeats line 3"),
    ("3 5 2\n0 1 2\n", 2, 1, "header promised 2 edges, found 1"),
    ("3 5 0\n0 1 2\n", 2, 1, "header promised 0 edges, found 1"),
]


@pytest.mark.parametrize("text,line,column,message", MALFORMED_HYPERGRAPHS)
def test_hypergraph_parse_error_positions(text, line, column, message):
    with pytest.raises(ParseError) as err:
        read_hypergraph(io.StringIO(text), "h.hg")
    assert str(err.value) == f"h.hg:{line}:{column}: {message}"


@st.composite
def hypergraphs(draw):
    k = draw(st.integers(2, 4))
    n = draw(st.integers(1, 7))
    cells = [frozenset(e) for e in itertools.combinations(range(n), k)]
    return Hypergraph(k, n, frozenset(draw(st.sets(st.sampled_from(cells)))) if cells else frozenset())


@settings(max_examples=100, deadline=None)
@given(hypergraphs())
def test_hypergraph_write_read_round_trip(h):
    buf = io.StringIO()
    write_hypergraph(buf, h)
    # header, then one sorted edge per line in sorted order
    edges = sorted(sorted(e) for e in h.edges)
    assert buf.getvalue() == f"{h.k} {h.n} {len(edges)}\n" + "".join(" ".join(map(str, e)) + "\n" for e in edges)
    buf.seek(0)
    assert read_hypergraph(buf) == h


@st.composite
def step_kernels(draw):
    g = draw(st.integers(1, 3))
    value = st.fractions(min_value=0, max_value=1, max_denominator=1000)
    return StepKernel(g, [[[draw(value) for _ in range(g)] for _ in range(g)] for _ in range(g)])


@settings(max_examples=100, deadline=None)
@given(step_kernels())
def test_kernel_write_read_round_trip(w):
    assert round_trip(write_kernel, read_kernel, w) == w


@st.composite
def tripartite_graphs(draw):
    side = draw(st.integers(1, 5))
    pairs = st.sets(st.tuples(st.integers(0, side - 1), st.integers(0, side - 1)), max_size=12)
    return TripartiteGraph(side, frozenset(draw(pairs)), frozenset(draw(pairs)), frozenset(draw(pairs)))


@settings(max_examples=100, deadline=None)
@given(tripartite_graphs())
def test_tripartite_write_read_round_trip(graph):
    assert round_trip(write_tripartite, read_tripartite, graph) == graph


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 300).flatmap(lambda length: st.tuples(st.sets(st.integers(0, length - 1)), st.just(length))))
def test_residue_write_read_round_trip(case):
    members, length = case
    buf = io.StringIO()
    write_residues(buf, members, length)
    buf.seek(0)
    assert read_residues(buf) == (frozenset(members), length)


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


# (text, seps, low, high, weights, flats or None): the strict form the bulk
# parser takes, and spellings it must leave to the per-line reader
STRICT_CHUNKS = [
    ("1 2\n", b" \n", 1, 12, [1, 12], [12]),
    ("12 12\n3 1\n", b" \n", 1, 12, [1, 12], [143, 2]),
    ("7\n10\n", b"\n", 1, 10, [1], [6, 9]),
    ("0 9\n", b" \n", 0, 9, [10, 1], [9]),
    ("1,2 0,1\n", b", ,\n", 0, 2, [9, 27, 1, 3], [66]),
    ("01 2\n", b" \n", 1, 12, [1, 12], None),
    ("00 1\n", b" \n", 0, 9, [10, 1], None),
    ("0 2\n", b" \n", 1, 12, [1, 12], None),
    ("13 1\n", b" \n", 1, 12, [1, 12], None),
    ("10 1\n", b" \n", 0, 9, [10, 1], None),
    ("100 1\n", b" \n", 1, 12, [1, 12], None),
    ("+1 2\n", b" \n", 1, 12, [1, 12], None),
    ("1  2\n", b" \n", 1, 12, [1, 12], None),
    ("1 2 \n", b" \n", 1, 12, [1, 12], None),
    (" 1 2\n", b" \n", 1, 12, [1, 12], None),
    ("1\t2\n", b" \n", 1, 12, [1, 12], None),
    ("1 2\r\n", b" \n", 1, 12, [1, 12], None),
    ("1 2\n\n", b" \n", 1, 12, [1, 12], None),
    ("1 2\n3\n", b" \n", 1, 12, [1, 12], None),
    ("# c\n", b" \n", 1, 12, [1, 12], None),
    ("1 \u0661\n", b" \n", 1, 12, [1, 12], None),
    ("1,2,0 0,1\n", b", ,\n", 0, 2, [9, 27, 1, 3], None),
    ("1,2 0 1\n", b", ,\n", 0, 2, [9, 27, 1, 3], None),
]


@pytest.mark.parametrize("text,seps,low,high,weights,flats", STRICT_CHUNKS)
def test_strict_form(text, seps, low, high, weights, flats):
    got = formats._strict_flats(text, seps, low, high, weights)
    assert (got is None) if flats is None else got.tolist() == flats


@st.composite
def set_texts(draw):
    """A grid-set or group-set text whose lines are canonical in any order,
    with repeats, sometimes a blank, comment or zero-padded line among them
    and sometimes no final line end; with the chunk size to read it in."""
    if draw(st.booleans()):
        dim = draw(st.integers(1, 3))
        side = draw(st.sampled_from([1, 2, 9, 10, 11, 257, 1000] if dim < 3 else [1, 2, 5, 12]))
        points = draw(st.lists(st.tuples(*[st.integers(1, side)] * dim), max_size=50))
        header, lines = f"dim {dim} side {side}\n", [" ".join(map(str, p)) for p in points]
    else:
        group = draw(st.sampled_from(IO_GROUPS + [Group.zmod(10), Group.zmod(101), Group.vector(11, 2)]))
        names = st.sampled_from([group.format_element(e) for e in group.elements()])
        pairs = draw(st.lists(st.tuples(names, names), max_size=50))
        header, lines = f"group {group.label()}\n", [f"{x} {y}" for x, y in pairs]
    padded = [f"0{line}" for line in lines]
    for _ in range(draw(st.integers(0, 2))):
        odd = draw(st.sampled_from(["", "  ", "# note", "  # 1 1"] + padded))
        lines.insert(draw(st.integers(0, len(lines))), odd)
    end = draw(st.sampled_from(["\n", ""])) if lines else ""
    return header + "\n".join(lines) + end, draw(st.sampled_from([1, 7, 13, 64, formats._CHUNK_CHARS]))


@settings(max_examples=200, deadline=None)
@given(set_texts())
def test_readers_agree_with_line_oracle(case):
    text, chunk = case
    read = read_grid_set if text.startswith("dim") else read_group_set
    with mock.patch.object(formats, "_CHUNK_CHARS", chunk):
        got = read(io.StringIO(text))
    assert set(got) == set_text_oracle(text)


@settings(max_examples=150, deadline=None)
@given(set_texts(), st.sampled_from([None, "x", "0 1", "1 1 1 1", "-1", "99999", "# ok"]), st.integers(0, 60))
def test_both_grid_read_routes_give_the_same_set_and_errors(case, bad, at):
    # a body that ends within the first chunk is read in plain Python, line
    # by line; with one-character chunks every other body is read in bulk
    # with numpy, a line at a time.  A bad line gives the same
    # file:line:column on both
    text, _ = case
    assume(text.startswith("dim"))
    if bad:
        lines = text.split("\n")
        lines.insert(min(at, len(lines) - 1) + 1, bad)
        text = "\n".join(lines)
    read = []
    assert len(text) < formats._CHUNK_CHARS
    for chunk in (1, formats._CHUNK_CHARS):
        with mock.patch.object(formats, "_CHUNK_CHARS", chunk):
            try:
                read.append(read_grid_set(io.StringIO(text), "g.set"))
            except ParseError as err:
                read.append(str(err))
    assert read[0] == read[1]
    if bad in (None, "# ok"):
        assert set(read[1]) == set_text_oracle(text)


@st.composite
def group_set_spellings(draw):
    """A group set with its canonical text and the same set spelled
    otherwise: every digit any representative, '\\r\\n' or '\\n' line ends
    and a comment among the lines; with the chunk size to read them in."""
    group = draw(st.sampled_from(IO_GROUPS + [Group.zmod(101), Group.vector(11, 2)]))
    base, _ = group.radix
    index = st.integers(0, group.order - 1)
    pairs = draw(st.lists(st.tuples(index, index), min_size=1, max_size=40))
    gset = GroupSet(group, [(group.element(x), group.element(y)) for x, y in pairs])
    buf = io.StringIO()
    write_group_set(buf, gset)

    def spell(i):
        return ",".join(str(d + base * draw(st.integers(-2, 2))) for d in group._digits(i))

    lines = [f"{spell(x)} {spell(y)}" for x, y in pairs]
    lines.insert(draw(st.integers(1, len(lines))), "# a comment")
    end = draw(st.sampled_from(["\n", "\r\n"]))
    other = "".join(line + end for line in [f"group {group.label()}", *lines])
    return gset, buf.getvalue(), other, draw(st.sampled_from([1, 7, 64, formats._CHUNK_CHARS]))


@settings(max_examples=150, deadline=None)
@given(group_set_spellings())
def test_group_set_spellings_read_alike_by_both_paths(case):
    gset, canonical, other, chunk = case
    strict, original = [], formats._strict_pairs

    def recorded(*args):
        strict.append(original(*args))
        return strict[-1]

    with mock.patch.object(formats, "_CHUNK_CHARS", chunk), mock.patch.object(formats, "_strict_pairs", recorded):
        assert read_group_set(io.StringIO(canonical)) == gset
        assert strict and None not in strict  # every chunk of canonical text is read in bulk
        strict.clear()
        assert read_group_set(io.StringIO(other)) == gset
        assert None in strict  # the comment's chunk goes line by line
    assert set(gset) == set_text_oracle(canonical) == set_text_oracle(other.replace("\r", ""))


@pytest.mark.parametrize("chunk", [1, 7, 13])
def test_lines_straddling_chunk_edges(chunk, monkeypatch):
    grid = GridSet(3, 12, [(x, y, (x * y) % 12 + 1) for x in range(1, 13) for y in range(1, 13, 3)])
    vset = GroupSet(Group.vector(3, 3), [((a, b, 0), (b, 0, a)) for a in range(3) for b in range(3)])
    texts = []
    for write, value in ((write_grid_set, grid), (write_group_set, vset)):
        buf = io.StringIO()
        write(buf, value)
        texts.append(buf.getvalue())
    monkeypatch.setattr(formats, "_CHUNK_CHARS", chunk)
    assert read_grid_set(io.StringIO(texts[0])) == grid
    assert read_grid_set(io.StringIO(texts[0].rstrip("\n"))) == grid
    assert read_group_set(io.StringIO(texts[1])) == vset
    with pytest.raises(ParseError) as err:
        read_grid_set(io.StringIO(texts[0] + "# c\n1 1 x\n"), "g.set")
    assert str(err.value) == f"g.set:{len(grid) + 3}:5: expected an integer, got 'x'"


def test_bad_token_after_many_strict_chunks():
    # strict for several chunks, then a comment, more strict lines and a bad
    # token: the set read so far and the error position are the per-line ones
    grid = GridSet(2, 300, [(x, y) for x in range(1, 301, 7) for y in range(1, 301)])
    buf = io.StringIO()
    write_grid_set(buf, grid)
    body = buf.getvalue()
    assert len(body) > 4 * formats._CHUNK_CHARS
    tail = "# a comment\n5 5\n300 1\n"
    text = body + tail
    assert set(read_grid_set(io.StringIO(text))) == set_text_oracle(text) == set(grid) | {(5, 5), (300, 1)}
    with pytest.raises(ParseError) as err:
        read_grid_set(io.StringIO(text + "3 301\n"), "big.set")
    assert str(err.value) == f"big.set:{len(grid) + 5}:1: point (3, 301) outside [1, 300]^2"


@settings(max_examples=100, deadline=None)
@given(
    st.one_of(
        # grid and zN spectra are keyed by integers, fp spectra by digit tuples
        st.dictionaries(st.integers(-300, 300).filter(bool), st.integers(0, 10**12)),
        st.dictionaries(st.tuples(st.integers(0, 2), st.integers(0, 2)), st.integers(0, 5)),
        st.dictionaries(st.tuples(*[st.integers(0, 4)] * 3), st.integers(0, 999)),
    )
)
@example({})
def test_spectrum_json_matches_json_dump(counts):
    spec = Spectrum(counts)
    best = spec.max_entry()
    expected = {
        "counts": dict(spec.rows()),
        "total": spec.total(),
        "max_d": None if best is None else str(best[0]),
        "max_count": None if best is None else best[1],
    }
    for rows in (formats._WRITE_ROWS, 1, 3):  # one join, and batch edges
        buf = io.StringIO()
        with mock.patch.object(formats, "_WRITE_ROWS", rows):
            write_spectrum_json(buf, spec)
        assert buf.getvalue() == json.dumps(expected, indent=2)


@settings(max_examples=100, deadline=None)
@given(
    st.one_of(
        st.dictionaries(st.integers(-300, 300).filter(bool), st.integers(0, 10**12)),
        st.dictionaries(st.tuples(st.integers(0, 2), st.integers(0, 2)), st.integers(0, 5)),
        st.dictionaries(st.tuples(st.integers(0, 4)), st.integers(0, 999)),
    )
)
@example({})
def test_spectrum_csv_matches_csv_writer(counts):
    spec = Spectrum(counts)
    expected = io.StringIO()
    writer = csv.writer(expected)
    writer.writerow(["d", "count"])
    writer.writerows([key, count] for key, count in spec.rows())
    for rows in (formats._WRITE_ROWS, 1, 3):
        buf = io.StringIO()
        with mock.patch.object(formats, "_WRITE_ROWS", rows):
            write_spectrum_csv(buf, spec)
        assert buf.getvalue() == expected.getvalue()


def test_spectrum_json_max_d_keeps_the_tuple_repr():
    # keys of an fp spectrum are comma-joined digits, but max_d is the
    # Python repr of the tuple; recorded spectra (their SHA-256 included)
    # fix both forms, so neither may change silently
    spec = Spectrum({(0, 1, 0, 0, 0, 0): 3, (1, 1, 1, 2, 2, 1): 5})
    buf = io.StringIO()
    write_spectrum_json(buf, spec)
    text = buf.getvalue()
    assert '\n    "1,1,1,2,2,1": 5\n' in text and '"0,1,0,0,0,0": 3,' in text
    assert '\n  "max_d": "(1, 1, 1, 2, 2, 1)",\n' in text
    buf = io.StringIO()
    write_spectrum_json(buf, Spectrum({4: 1, -4: 2}))
    assert json.loads(buf.getvalue())["max_d"] == "-4"

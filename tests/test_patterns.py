import io
import itertools
import random
import re
import tracemalloc
from array import array

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cornerforge import patterns
from cornerforge.formats import read_grid_set, write_grid_set
from cornerforge.patterns import (
    GridSet,
    Group,
    GroupSet,
    Pattern,
    corner_count_group,
    grid_differences,
    spectrum,
)
from oracles import _group_by_hand, corner_count_oracle, grid_count_oracle, group_corner_oracle, set_text_oracle


def random_grid(rng, dim, side, density=0.4):
    pts = [
        p
        for p in __import__("itertools").product(range(1, side + 1), repeat=dim)
        if rng.random() < density
    ]
    return GridSet(dim, side, pts)


def test_empty_set_counts_zero():
    g = GridSet.empty(3, 5)
    assert spectrum(g, Pattern.corner(3)).counts[2] == 0


def test_rejects_bad_inputs():
    g = GridSet.full(2, 3)
    with pytest.raises(ValueError, match="^dimension mismatch: set 2, pattern 3$"):
        spectrum(g, Pattern.corner(3))
    with pytest.raises(ValueError):
        Pattern(2, ((0, 0), (0, 0)))
    with pytest.raises(ValueError):
        GridSet(2, 3, [(0, 1)])


def test_anchor_may_fall_outside_the_grid():
    # pattern without the origin: anchors contribute without being members
    g = GridSet(1, 10, [(5,), (7,)])
    pat = Pattern.one_dim([5, 7])
    assert spectrum(g, pat).counts[1] == 1  # x = 0, outside [1,10]


def test_random_grids_match_oracle():
    rng = random.Random(1)
    for _ in range(25):
        dim = rng.randint(1, 3)
        side = rng.randint(2, 9)
        g = random_grid(rng, dim, side)
        pat = (
            Pattern.corner(dim)
            if rng.random() < 0.5
            else Pattern(
                dim,
                tuple(
                    {tuple(rng.randint(-2, 2) for _ in range(dim)) for _ in range(3)}
                ),
            )
        )
        d = rng.choice([x for x in range(-side + 1, side) if x])
        expected = grid_count_oracle(set(g), dim, side, pat.points, d)
        assert spectrum(g, pat).counts[d] == expected


def test_reflection_symmetry():
    rng = random.Random(7)
    for _ in range(10):
        dim = rng.randint(1, 3)
        side = rng.randint(3, 7)
        g = random_grid(rng, dim, side)
        pat = Pattern.corner(dim)
        axis = rng.randrange(dim)
        assert spectrum(g, pat).counts == spectrum(g.reflect(axis), pat.reflect(axis)).counts


def test_grid_set_round_trip():
    g = GridSet(2, 4, [(1, 1), (4, 3), (2, 2)])
    assert set(g) == {(1, 1), (4, 3), (2, 2)}
    assert (4, 3) in g and (3, 4) not in g
    assert len(g) == 3


def test_packed_bytes_are_the_stored_form():
    g = GridSet(2, 3, [(1, 1), (3, 3)])  # flat indices 0 and 8 of 9 bits
    raw = g.packed()
    assert raw is g.packed() and type(raw) is memoryview and raw.readonly
    assert raw.tolist() == [1, 1]
    # a numpy array is taken over, frozen and not copied
    given = np.array([1, 1], dtype=np.uint8)
    taken = GridSet.from_packed(2, 3, given)
    assert taken == g and not given.flags.writeable and np.shares_memory(np.frombuffer(taken.packed(), np.uint8), given)
    # bytes are viewed, other bytes-like objects copied
    assert GridSet.from_packed(2, 3, b"\x01\x01") == g == GridSet.from_packed(2, 3, bytearray(b"\x01\x01"))
    mutable = bytearray(b"\x01\x01")
    copied = GridSet.from_packed(2, 3, mutable)
    mutable[0] = 0
    assert copied == g and copied.packed().readonly
    assert GridSet.from_packed(2, 3, np.array([1, 0], dtype=np.uint8)) != g
    assert [p in g for p in itertools.product(range(0, 5), repeat=2)] == [
        p in {(1, 1), (3, 3)} for p in itertools.product(range(0, 5), repeat=2)
    ]
    assert (1, 1, 1) not in g
    with pytest.raises(ValueError, match="bits past its 9 cells"):
        GridSet.from_packed(2, 3, np.array([0, 2], dtype=np.uint8))
    for bad in (np.zeros(3, dtype=np.uint8), np.zeros(2, dtype=np.int64), np.zeros((1, 2), dtype=np.uint8), [1, 1], 0):
        with pytest.raises(ValueError, match="must be 2 uint8 bytes"):
            GridSet.from_packed(2, 3, bad)
    full = GridSet.full(3, 5)  # 125 bits: the last byte holds 5
    assert len(full) == 125 and full.packed()[-1] == 0b11111 and len(GridSet.empty(3, 5)) == 0


def test_group_set_crosses_bytes_only_through_packed():
    group = Group.vector(3, 2)  # 81 pairs: the last byte holds one bit
    pairs = GroupSet(group, [((0, 0), (2, 2)), ((1, 2), (0, 1))])
    again = GroupSet.from_packed(group, pairs.packed())
    assert again == pairs and set(again) == set(pairs)
    assert pairs.packed() is pairs.packed() and type(pairs.packed()) is bytes
    # same bytes, other group: Z/9 pairs (0, 8) and (7, 3) are flat 8 and 66 too
    same_bytes = GroupSet(Group.zmod(9), [(0, 8), (7, 3)])
    assert same_bytes.packed() == pairs.packed() and same_bytes != pairs
    assert again != GroupSet(group, [((0, 0), (2, 2))])
    full = GroupSet.full(group)
    assert full.packed() == b"\xff" * 10 + b"\x01" and len(full) == 81
    with pytest.raises(ValueError, match="bits past its 81 cells"):
        GroupSet.from_packed(group, np.full(11, 255, dtype=np.uint8))


@pytest.mark.parametrize("kind", [bytes, bytearray, lambda raw: np.frombuffer(raw, dtype=np.uint8)])
def test_group_set_from_packed_checks_any_bytes_like(kind):
    group = Group.vector(3, 2)  # 81 pairs in 11 bytes; bit 80 is the last
    raw = bytes(10) + b"\x01"
    pairs = GroupSet.from_packed(group, kind(raw))
    assert pairs == GroupSet(group, [((2, 2), (2, 2))]) and type(pairs.packed()) is bytes
    for bad in (bytes(10), bytes(12)):
        with pytest.raises(ValueError, match="packed set must be 11 bytes"):
            GroupSet.from_packed(group, kind(bad))
    with pytest.raises(ValueError, match="bits past its 81 cells"):
        GroupSet.from_packed(group, kind(bytes(10) + b"\x02"))


def test_group_set_from_packed_refuses_what_is_not_bytes():
    group = Group.vector(3, 2)
    for bad in (np.zeros(11, dtype=np.int64), np.zeros((1, 11), dtype=np.uint8), list(bytes(11)), 0):
        with pytest.raises(ValueError, match="packed set must be 11 bytes"):
            GroupSet.from_packed(group, bad)


def test_cells_view_and_back():
    rng = random.Random(11)
    for dim in (1, 2, 3):
        side = rng.randint(1, 6)
        g = random_grid(rng, dim, side)
        cells = g.cells()
        assert cells.shape == (side,) * dim and cells.dtype == bool
        # axes [x_k .. x_1], 0-based
        assert {tuple(c + 1 for c in reversed(idx)) for idx in zip(*cells.nonzero())} == set(g)
        assert GridSet.from_cells(cells) == g
        for axis in range(dim):
            flipped = {tuple(side + 1 - c if j == axis else c for j, c in enumerate(p)) for p in g}
            assert set(g.reflect(axis)) == flipped
    with pytest.raises(ValueError):
        GridSet.from_cells(np.zeros((2, 3), dtype=bool))


def test_vector_group_needs_a_prime():
    for p, n in ((4, 2), (1, 3), (0, 1), (9, 1), (91, 2), (3, 0)):
        with pytest.raises(ValueError, match="need prime p"):
            Group.vector(p, n)
    assert Group.vector(2, 1).order == 2 and Group.vector(7, 2).order == 49


# -- group sets --------------------------------------------------------------


def test_full_group_and_singleton():
    g5 = Group.zmod(5)
    assert corner_count_group(GroupSet.full(g5), 1) == 25
    single = GroupSet(g5, [(0, 0)])
    assert corner_count_group(single, 1) == 0
    with pytest.raises(ValueError):
        corner_count_group(single, 0)


def random_group_set(rng, group, density=0.4):
    members = [
        (x, y)
        for x in group.elements()
        for y in group.elements()
        if rng.random() < density
    ]
    return GroupSet(group, members)


def test_group_kernel_matches_triple_loop():
    rng = random.Random(3)
    groups = [Group.zmod(7), Group.zmod(12), Group.vector(3, 2), Group.vector(2, 3), Group.vector(3, 4)]
    for group in groups:
        pairs = random_group_set(rng, group, 0.35)
        members = set(pairs)
        for _ in range(4):
            d = group.element(rng.randrange(1, group.order))  # index 0 is the identity
            assert corner_count_group(pairs, d) == corner_count_oracle(members, group, d)


def test_translation_invariance():
    rng = random.Random(11)
    group = Group.vector(3, 2)
    pairs = random_group_set(rng, group, 0.4)

    def shift(e, s):
        return tuple((a + b) % 3 for a, b in zip(e, s))

    for _ in range(5):
        u = tuple(rng.randrange(3) for _ in range(2))
        v = tuple(rng.randrange(3) for _ in range(2))
        d = (1, 2)
        translated = GroupSet(group, [(shift(x, u), shift(y, v)) for x, y in pairs])
        assert corner_count_group(pairs, d) == corner_count_group(translated, d)


@pytest.mark.parametrize("group", [Group.zmod(7), Group.vector(2, 4), Group.vector(3, 3)], ids=Group.label)
def test_group_spectrum_rotates_twice_per_difference(group, monkeypatch):
    # the Gray walk shifts each mask by one digit rotation per step; a one-d
    # count walks from the identity through the same kernel, one rotation
    # per nonzero digit of d
    rotate, walk = patterns._rotate_blocks, patterns._corner_walk
    calls, walks = [], []

    def counting(*args):
        calls.append(args[2])
        return rotate(*args)

    def counting_walk(*args):
        walks.append(args)
        return walk(*args)

    monkeypatch.setattr(patterns, "_rotate_blocks", counting)
    monkeypatch.setattr(patterns, "_corner_walk", counting_walk)
    pairs = random_group_set(random.Random(group.order), group)
    spectrum(pairs)
    assert len(calls) == 2 * (group.order - 1) and len(walks) == 1
    assert 0 not in calls
    base, digits = group.radix
    for i in range(1, group.order):
        del calls[:]
        corner_count_group(pairs, group.element(i))
        assert len(calls) == 2 * sum(1 for j in range(digits) if i // base**j % base)
        assert 0 not in calls
    assert len(walks) == group.order


def test_group_spectrum_is_the_one_d_count_in_index_order():
    rng = random.Random(29)
    groups = SMALL_GROUPS + [Group.zmod(31), Group.vector(2, 5), Group.vector(5, 2), Group.vector(3, 3)]
    for group in groups:
        for density in (0.2, 0.6):
            pairs = random_group_set(rng, group, density)
            counts = spectrum(pairs).counts
            ds = [group.element(i) for i in range(1, group.order)]
            assert list(counts) == ds, group.label()
            assert counts == {d: corner_count_group(pairs, d) for d in ds}, group.label()


# -- spectra -----------------------------------------------------------------


def test_full_grid_spectrum_values():
    g = GridSet.full(3, 4)
    spec = spectrum(g, Pattern.corner(3))
    assert set(spec.counts) == {d for d in range(-3, 4) if d}
    for d, c in spec.counts.items():
        assert c == (4 - abs(d)) ** 3
    assert spectrum(GridSet.empty(2, 4), Pattern.corner(2)).total() == 0


def test_spectrum_total_matches_oracle_sum():
    rng = random.Random(5)
    g = random_grid(rng, 2, 6)
    pat = Pattern.corner(2)
    spec = spectrum(g, pat)
    oracle_total = sum(
        grid_count_oracle(set(g), 2, 6, pat.points, d) for d in range(-5, 6) if d
    )
    assert spec.total() == oracle_total


@st.composite
def grid_pattern_cases(draw, step=None):
    """(set, pattern) on a side of at most 8; with `step` = 1 or -1 the
    first two pattern points differ by step * e_1, the kernel's unsorted
    and sorted line orders."""
    dim = draw(st.integers(1, 3))
    side = draw(st.integers(1, 8))
    cells = list(itertools.product(range(1, side + 1), repeat=dim))
    keep = draw(st.lists(st.booleans(), min_size=len(cells), max_size=len(cells)))
    members = [c for c, k in zip(cells, keep) if k]
    coord = st.integers(-3, 3)
    points = draw(st.lists(st.tuples(*[coord] * dim), min_size=1, max_size=5, unique=True))
    if step is not None:
        second = (points[0][0] + step,) + points[0][1:]
        points = [points[0], second] + [p for p in points[1:] if p != second]
    return GridSet(dim, side, members), Pattern(dim, tuple(points))


def check_kernel_against_oracle(g, pat, members=None):
    members = set(g) if members is None else members
    assert spectrum(g, pat).counts == {
        e: grid_count_oracle(members, g.dim, g.side, pat.points, e) for s in range(1, g.side) for e in (s, -s)
    }
    # each hit names one copy by its slot and the flat of its member
    # x + d*t_0: a real copy, and no copy twice, so right counts cannot
    # hide wrong flats
    ds, t0 = grid_differences(g.side), pat.points[0]
    hits = [hit for slots, flats in patterns._grid_hits(g, pat) for hit in zip(slots.tolist(), flats.tolist())]
    assert len(set(hits)) == len(hits)
    for slot, flat in hits:
        d = ds[slot]
        x = [flat // g.side**j % g.side + 1 - d * t0[j] for j in range(g.dim)]
        assert all(tuple(x[j] + d * t[j] for j in range(g.dim)) in members for t in pat.points), (d, x)


@settings(max_examples=200, deadline=None)
@given(grid_pattern_cases())
def test_grid_kernel_matches_oracle(grid_route, case):
    for route in ("numpy", "plain"):
        with grid_route(route):
            check_kernel_against_oracle(*case)


@settings(max_examples=100, deadline=None)
@given(st.one_of(grid_pattern_cases(step=1), grid_pattern_cases(step=-1)))
def test_grid_kernel_matches_oracle_along_the_first_axis(grid_route, case):
    for route in ("numpy", "plain"):
        with grid_route(route):
            check_kernel_against_oracle(*case)


@pytest.mark.parametrize("route", ["numpy", "plain"])
def test_each_route_yields_its_own_chunks(grid_route, route):
    # the plain route yields array("q") chunks and never reaches numpy's kernel
    g = GridSet(2, 5, [(1, 1), (2, 1), (1, 2), (3, 3), (4, 3), (3, 4)])
    with grid_route(route), pytest.MonkeyPatch.context() as mp:
        if route == "plain":
            mp.setattr(patterns, "_numpy_hits", None)
        chunks = list(patterns._grid_hits(g, Pattern.corner(2)))
    assert {type(part) for chunk in chunks for part in chunk} == {np.ndarray if route == "numpy" else array}
    assert spectrum(g, Pattern.corner(2)).counts[1] == 2


def test_the_route_follows_exact_work_counts(monkeypatch):
    # 6 members; along e_1 (and -e_1) one line of 5, 10 same-line pairs
    g = GridSet(2, 5, [(x, 1) for x in range(1, 6)] + [(3, 3)])
    routes = []
    numpy_hits = patterns._numpy_hits
    monkeypatch.setattr(patterns, "_numpy_hits", lambda *args: routes.append("numpy") or numpy_hits(*args))
    for steps in (5, 9, 10):
        monkeypatch.setattr(patterns, "_PLAIN_STEPS", steps)
        routes.append(steps)
        spectrum(g, Pattern.corner(2))
        spectrum(g, Pattern.corner(2).reflect(0))
    # past 5 steps the members go to numpy ungrouped, past 9 the pairs do
    assert routes == [5, "numpy", "numpy", 9, "numpy", "numpy", 10]
    # a one-point pattern: 6 members * 2 * 4 differences = 48 hits
    for steps in (47, 48):
        monkeypatch.setattr(patterns, "_PLAIN_STEPS", steps)
        routes.append(steps)
        spectrum(g, Pattern(2, ((0, 0),)))
    assert routes[7:] == [47, "numpy", 48]


def shrink_blocks(mp, block, side):
    """Make the member reader's blocks "one line" (a block ends with the line
    of its first member, so a block edge falls between every two lines that
    hold members) or "two lines" (side + 1 members, more than one line
    holds, so every block but the last spans two lines or more), and unpack
    the mask one byte at a time, so unpack edges fall inside lines."""
    mp.setattr(patterns, "_BLOCK_MEMBERS", {"one line": 1, "two lines": side + 1}[block])
    mp.setattr(patterns, "_UNPACK_CHUNK", 1)


@pytest.mark.parametrize("block", [None, "one line", "two lines"])
@pytest.mark.parametrize("chunk", [1, 3])
@settings(max_examples=100, deadline=None)
@given(case=st.one_of(grid_pattern_cases(), grid_pattern_cases(step=1), grid_pattern_cases(step=-1)))
def test_grid_kernel_matches_oracle_across_pair_chunk_edges(grid_route, chunk, block, case):
    # sides of at most 8 never fill a chunk of 2**14 pairs or a block of
    # 2**15 members; chunks of 1 and 3 put a chunk edge inside every gap's
    # survivors, and the shrunk blocks put block edges between lines, on
    # the numpy route that has both.  The oracle's members are read before
    # the blocks shrink.
    g = case[0]
    members = set(g)
    with grid_route("numpy"), pytest.MonkeyPatch.context() as mp:
        mp.setattr(patterns, "_PAIR_CHUNK", chunk)
        if block:
            shrink_blocks(mp, block, g.side)
        check_kernel_against_oracle(*case, members=members)


@pytest.mark.parametrize("block", ["one line", "two lines"])
@settings(max_examples=100, deadline=None)
@given(case=grid_pattern_cases())
def test_member_reader_round_trips_across_block_edges(grid_route, block, case):
    g = case[0]
    # membership by bit lookup, which does not go through the reader
    cells = [p[::-1] for p in itertools.product(range(1, g.side + 1), repeat=g.dim) if p[::-1] in g]
    with grid_route("numpy"), pytest.MonkeyPatch.context() as mp:
        shrink_blocks(mp, block, g.side)
        lines = [np.unique(flats // g.side).tolist() for flats, _ in patterns._member_blocks(g.packed(), g.side, g.dim)]
        listed = list(g)
        buf = io.StringIO()
        write_grid_set(buf, g)
    # blocks are whole lines, in order; "one line" puts a block edge
    # between every two lines with members
    flat_lines = sorted({sum((c - 1) * g.side**j for j, c in enumerate(p[1:])) for p in cells})
    assert [line for block_lines in lines for line in block_lines] == flat_lines
    if block == "one line":
        assert all(len(block_lines) == 1 for block_lines in lines)
    else:
        assert all(len(block_lines) >= 2 for block_lines in lines[:-1])
    assert listed == cells  # flat order: first coordinate fastest
    text = buf.getvalue()
    assert set_text_oracle(text) == set(cells)
    assert text == f"dim {g.dim} side {g.side}\n" + "".join(" ".join(map(str, p)) + "\n" for p in cells)
    assert read_grid_set(io.StringIO(text)) == g


def test_kernel_sorts_only_off_the_first_axis(monkeypatch):
    sorts = []
    lexsort = np.lexsort
    monkeypatch.setattr(np, "lexsort", lambda keys: sorts.append(len(keys)) or lexsort(keys))
    monkeypatch.setattr(patterns, "_PLAIN_STEPS", 0)  # the numpy route, which sorts
    g = random_grid(random.Random(3), 3, 6)
    corner = spectrum(g, Pattern.corner(3))
    assert sorts == []  # t_1 - t_0 = e_1: flat order is line order
    assert spectrum(g.reflect(0), Pattern.corner(3).reflect(0)).counts == corner.counts
    assert sorts == [3]  # t_1 - t_0 = -e_1: sorted


@pytest.mark.parametrize("route", ["numpy", "plain"])
@pytest.mark.parametrize("side", [2**15 - 1, 2**15, 2**15 + 1])
def test_one_dim_sets_at_the_narrow_column_edge(grid_route, route, side):
    # numpy's columns are int16 below side 2**15 and int32 from it; members
    # at N and N - 1 put the largest coordinate of each width through the
    # kernel, the iterator and the writer, on both routes
    with grid_route(route):
        members = [(1,), (side - 1,), (side,)]
        g = GridSet(1, side, members)
        assert list(g) == members
        ds = (1, -1, 2, side - 2, 2 - side, side - 1, 1 - side)
        for pat in (Pattern.corner(1), Pattern.corner(1).reflect(0), Pattern.arithmetic(3)):
            counts = spectrum(g, pat).counts
            for d in ds:
                assert counts[d] == grid_count_oracle(members, 1, side, pat.points, d)
        # every d with a copy is among ds: the spectrum's other entries are 0
        expected = {d: c for d in ds if (c := grid_count_oracle(members, 1, side, Pattern.corner(1).points, d))}
        assert {d: c for d, c in spectrum(g, Pattern.corner(1)).counts.items() if c} == expected
        buf = io.StringIO()
        write_grid_set(buf, g)
        assert buf.getvalue() == f"dim 1 side {side}\n1\n{side - 1}\n{side}\n"
        buf.seek(0)
        assert read_grid_set(buf) == g


def test_corner_kernel_scratch_per_member():
    # a seeded random 3-d set of 327,105 members.  The kernel's traced peak
    # was 50.1 bytes per member with sorted int32 columns and whole-length
    # survivor arrays per gap; unsorted int16 columns and survivors filtered
    # a chunk at a time read 20.6
    cells = np.random.default_rng(7).random((160, 160, 160)) < 0.08
    g = GridSet.from_cells(cells)
    members = len(g)
    assert members > 300_000
    tracemalloc.start()
    try:
        spectrum(g, Pattern.corner(3))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 * members


def test_group_spectrum_max_entry():
    group = Group.zmod(5)
    pairs = GroupSet.full(group)
    spec = spectrum(pairs)
    assert spec.max_entry() == (1, 25)
    assert len(spec.counts) == 4


SMALL_GROUPS = [Group.zmod(m) for m in (1, 2, 5, 9, 12)] + [
    Group.vector(p, n) for p, n in ((2, 1), (2, 2), (2, 3), (3, 1), (3, 2))
]


def test_set_coordinates_are_integers_python_or_numpy():
    grid = GridSet(2, 5, [(np.int64(2), 3)])
    assert list(grid) == [(2, 3)] and (np.int64(2), np.int64(3)) in grid
    zn = GroupSet(Group.zmod(5), [(np.int64(2), 0)])
    assert list(zn) == [(2, 0)] and (np.int64(7), np.int64(0)) in zn
    fp = GroupSet(Group.vector(3, 2), [((np.int64(4), 2), (0, 0))])
    assert list(fp) == [((1, 2), (0, 0))] and ((1, np.int64(2)), (0, 0)) in fp
    # a float is refused even when integral, and `in` answers False for it
    for x in (2.7, 2.0):
        with pytest.raises(ValueError, match=re.escape(f"point ({x}, 3) is not a tuple of integers")):
            GridSet(2, 5, [(x, 3)])
        assert (x, 3) not in grid
        with pytest.raises(ValueError, match=re.escape(f"pair ({x}, 0) is not two elements of zN 5")):
            GroupSet(Group.zmod(5), [(x, 0)])
        assert (x, 0) not in zn
        with pytest.raises(ValueError, match=re.escape(f"pair (({x}, 2), (0, 0)) is not two elements of fp 3 2")):
            GroupSet(Group.vector(3, 2), [((x, 2), (0, 0))])
        assert ((x, 2), (0, 0)) not in fp
    for pairs, pair in ((zn, (2,)), (zn, (2, 0, 0)), (zn, 2), (fp, ((1, 2, 0), (0, 0)))):
        with pytest.raises(ValueError, match="is not two elements"):
            GroupSet(pairs.group, [pair])
    assert (2, 3, 1) not in grid and 2 not in grid and ((1, 2, 0), (0, 0)) not in fp


@pytest.mark.parametrize("group", SMALL_GROUPS, ids=Group.label)
def test_elements_are_indices_with_two_shape_crossings(group):
    base, digits = group.radix
    elements, zero, _ = _group_by_hand(group.kind, group.params)
    assert sorted(group.elements()) == sorted(elements) and group.identity == zero
    for i in range(group.order):
        e = group.element(i)
        assert group.index(e) == i and group.canon(e) == e
        # adding or taking base from any digit names the same element
        for j in range(digits):
            for step in (base, -base):
                other = e + step if isinstance(e, int) else tuple(c + step * (k == j) for k, c in enumerate(e))
                assert group.index(other) == i
    # element text: the oracle's elements spelled as decimal digits, comma-joined
    for e in elements:
        text = str(e) if isinstance(e, int) else ",".join(map(str, e))
        assert group.format_element(e) == text and group.parse_element(text) == e


def test_element_spellings_accepted_before_still_parse():
    z5, f32 = Group.zmod(5), Group.vector(3, 2)
    assert [z5.parse_element(text) for text in ("-1", "+3", "7")] == [4, 3, 2]
    assert f32.parse_element("4,-2") == (1, 1)
    with pytest.raises(ValueError, match="has 2 digits, expected 1"):
        z5.parse_element("1,2")
    with pytest.raises(ValueError, match="has 1 digits, expected 2"):
        f32.parse_element("1")
    with pytest.raises(ValueError, match="has 3 digits, expected 2"):
        f32.index((1, 2, 0))
    assert f32.index((4, 0)) == 1  # each digit reduced mod p: (4, 0) is (1, 0)
    with pytest.raises(ValueError, match=r"outside \[0, 9\)"):
        f32.element(9)


@st.composite
def group_member_sets(draw, group):
    cells = list(itertools.product(group.elements(), repeat=2))
    keep = draw(st.lists(st.booleans(), min_size=len(cells), max_size=len(cells)))
    return {c for c, k in zip(cells, keep) if k}


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(SMALL_GROUPS).flatmap(lambda g: st.tuples(st.just(g), group_member_sets(g))))
def test_group_spectrum_matches_oracle(case):
    group, members = case
    spec = spectrum(GroupSet(group, members))
    assert spec.counts == group_corner_oracle(members, group.kind, group.params)


@pytest.mark.parametrize("group, most", [(Group.zmod(31), 4), (Group.vector(3, 3), 4 * 3)], ids=["zN 31", "fp 3 3"])
def test_a_walk_builds_each_rotation_pair_once(group, most, built_pairs):
    # a Gray walk asks for at most four keep/wrap pairs per digit; each is
    # built on first use and held for the rest of the walk
    spectrum(random_group_set(random.Random(5), group))
    assert len(built_pairs) == len(set(built_pairs)) <= most


def test_rotation_masks_stop_caching_at_the_cell_limit(cell_limit, built_pairs):
    group = Group.vector(3, 2)
    rng = random.Random(7)
    pairs = GroupSet(group, [(a, b) for a in group.elements() for b in group.elements() if rng.random() < 0.6])
    expected = spectrum(pairs).counts
    del built_pairs[:]
    cell_limit(5 * group.order**2)  # room for two keep/wrap pairs
    assert spectrum(pairs).counts == expected
    # d walks 1, 2, 5, 4, 3, 6, 7, 8: the digit-0 rise is held from the first
    # step, and the digit-1 rise (steps 3, 6) and the digit-0 fall (steps 4,
    # 5) are built at every use
    assert len(built_pairs) == 2 * (1 + 4)
    assert len(set(built_pairs)) == 2 * 3

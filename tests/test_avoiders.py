import io
import itertools
import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cornerforge.avoiders import (
    FivePointAvoider,
    IntervalSystem,
    build_corner_avoider,
    build_five_point_avoider,
    check_five_point_transfer,
    f_quad,
    lift_avoider,
    norm_to_nearest_int,
    pattern_projection,
    theta_constants,
    verify_corner_avoidance,
)
from cornerforge.behrend import RELATION_SUM3, find_relation_witness
from cornerforge.contfrac import build_alpha_hard, verify_alpha
from cornerforge.patterns import GridSet, Pattern, grid_differences, spectrum
from cornerforge import avoiders, formats, limits, patterns
from oracles import corner3_count_oracle, corner3_transfer_classes, lift_oracle


def test_f_quad_values_and_identity():
    assert f_quad(1, 1, 1) == 0
    assert f_quad(2, 1, 0) == 3
    assert f_quad(3, 1, 0) + f_quad(2, 2, 0) + f_quad(2, 1, 1) == 9 == 3 * f_quad(2, 1, 0)
    rng = random.Random(2)
    for _ in range(2000):
        x, y, z, d = (rng.randint(-10**9, 10**9) for _ in range(4))
        assert f_quad(x + d, y, z) + f_quad(x, y + d, z) + f_quad(x, y, z + d) == 3 * f_quad(x, y, z)


def test_interval_system_geometry():
    system = IntervalSystem(4, 3, frozenset({0, 2}))
    assert system.measure() == Fraction(2, 36)
    # a rational point x is the multiple 1 * x
    points = [Fraction(0), Fraction(1, 36) - Fraction(1, 1000), Fraction(1, 36), Fraction(2, 12)]
    points += [Fraction(1, 12), Fraction(11, 12)]
    assert [system.decide_values(x, [1])[0] for x in points] == [True, True, False, True, False, False]


def test_circle_readings_match_fraction_arithmetic_for_rational_alpha():
    # every P/Q in [0, 1) with Q <= 24, every |v| <= 40, boundaries
    # included: the membership and norm readings of the floor primitive
    # against the definitions of B and of the circle norm, in Fractions
    system = IntervalSystem(4, 3, frozenset({0, 2, 3}))
    bounds = [Fraction(0), Fraction(1, 36), Fraction(1, 12), Fraction(5, 12), Fraction(1, 2)]
    values = list(range(-40, 41))
    for big_q in range(1, 25):
        for big_p in range(big_q):
            alpha = Fraction(big_p, big_q)
            expected = []
            for v in values:
                f = v * alpha - math.floor(v * alpha)
                slot = math.floor(f / system.slot_width)
                expected.append(slot in system.lam and f - slot * system.slot_width < system.interval_width)
            assert system.decide_values(alpha, values) == expected
            for bound in bounds:
                norms = [norm_to_nearest_int(v * alpha) < bound for v in values]
                assert avoiders._norm_below(alpha, values, bound) == norms


def test_interval_membership_by_enclosure_matches_rational_shadow():
    # deep rational approximations agree with the exact decision on multiples
    system = IntervalSystem(8, 3, frozenset({0, 3, 5}))
    alpha = build_alpha_hard(8, 4)
    p, q = alpha.p_q(alpha.start_index + 2)
    rng = random.Random(6)
    values = [rng.randint(-5000, 5000) for _ in range(200)]
    exacts = system.decide_values(alpha, values)
    # the shadow can disagree only within 1/(q_next) of a boundary
    shadows = system.decide_values(Fraction(p, q), values)
    for v, exact, shadow in zip(values, exacts, shadows):
        if exact != shadow:
            pos = Fraction(v * p % q, q)
            slot = pos / system.slot_width
            frac_part = pos - (pos // system.slot_width) * system.slot_width
            near = min(
                abs(frac_part),
                abs(frac_part - system.interval_width),
                abs(frac_part - system.slot_width),
            )
            assert near < Fraction(abs(v), q)
    assert system.decide_values(alpha, [0]) == [0 in system.lam]


def test_corner_avoider_small_pipeline():
    avoider = build_corner_avoider(0.25, length=8, q_max=128)
    grid = avoider.materialize()
    assert grid.side == avoider.q
    # every reported member satisfies the exact membership predicate
    rng = random.Random(9)
    members = list(grid)
    for point in rng.sample(members, 50):
        assert point in avoider
    # and random non-members fail it
    n = grid.side
    for _ in range(50):
        point = (rng.randint(1, n), rng.randint(1, n), rng.randint(1, n))
        assert (point in grid) == (point in avoider)


def test_corner_materialize_matches_membership_on_every_cell():
    # side 37 is no multiple of 8, so the last block of packed z-slabs is short
    avoider = build_corner_avoider(0.25, length=8, q_max=40)
    grid = avoider.materialize()
    n = grid.side
    assert n % 8 and len(grid)
    for point in itertools.product(range(1, n + 1), repeat=3):
        assert (point in grid) == (point in avoider)


@pytest.mark.parametrize("chunk", [1, 7, 4096])
def test_corner_materialize_decides_in_chunks(chunk, monkeypatch):
    # the lookup table of N = 37 has 2 * 36^2 + 1 = 2593 entries, decided
    # _DECIDE_CHUNK values at a time: chunks of 1, of 7 (a short last one)
    # and of 4096 (one chunk past the table's end) fill the same table
    whole = build_corner_avoider(0.25, length=8, q_max=40).materialize()
    monkeypatch.setattr(avoiders, "_DECIDE_CHUNK", chunk)
    assert build_corner_avoider(0.25, length=8, q_max=40).materialize() == whole


def test_corner_avoider_full_lambda_reduces_to_measure_one_ninth():
    # no avoidance: every slot used, membership is a plain fractional test
    avoider = build_corner_avoider(0.25, length=8, q_max=128)
    system = IntervalSystem(1, 3, frozenset({0}))
    full = IntervalSystem(1, 3, frozenset(range(1)))
    assert full.measure() == Fraction(1, 9)
    assert system.measure() == Fraction(1, 9)


def test_transfer_check_passes_on_found_corners():
    # every corner found in a built avoider has its four statistics in B,
    # the transfer conclusion holds for it, and verify's row for its d says so
    avoider = build_corner_avoider(0.3, length=4, q_max=80)
    grid = avoider.materialize()
    n = grid.side
    transfer = {r[0]: r[4] for r in verify_corner_avoidance(avoider, grid).rows}
    bound = Fraction(1, 9 * avoider.system.length)
    found = 0
    for d in range(1, n):
        for x, y, z in itertools.product(range(1, n - d + 1), repeat=3):
            quad = [(x, y, z), (x + d, y, z), (x, y + d, z), (x, y, z + d)]
            if all(p in grid for p in quad):
                assert all(avoider.system.decide_values(avoider.alpha, [f_quad(*p) for p in quad]))
                assert avoiders._norm_below(avoider.alpha, [2 * (x - y) * d], bound) == [True]
                assert transfer[d]
                found += 1
                if found >= 40:
                    return
    assert found > 0


def test_transfer_check_rejects_precondition_violations():
    # a five-point occurrence whose anchor is outside the built set has a
    # statistic outside B, and the transfer check refuses it
    a = (0, 1, 2, 3, 4)
    avoider = build_five_point_avoider(a, 0.3, length=4, q_max=600)
    grid = avoider.materialize()
    outside = next(x for x in range(1, grid.side + 1) if (x,) not in grid)
    with pytest.raises(ValueError, match=f"^precondition failed: statistic {outside * outside} is not in B$"):
        check_five_point_transfer(avoider.system, avoider.alpha, a, outside, 1)


def test_transfer_conclusion_fails_without_solution_free_lambda():
    # Lambda = {0,1,2} admits 0+1+2 = 3*1, so the interval argument breaks;
    # with alpha = 1/27 membership is a residue test and the search is exact.
    # Each solution-free two-slot Lambda on the same alpha has no such corner.
    length = 3
    alpha = Fraction(1, 9 * length)

    def broken_corners(lam):
        system = IntervalSystem(length, 3, frozenset(lam))
        for x, y, z, d in itertools.product(range(-12, 13), range(-12, 13), range(-12, 13), range(1, 7)):
            vals = [f_quad(x, y, z), f_quad(x + d, y, z), f_quad(x, y + d, z), f_quad(x, y, z + d)]
            if all(system.decide_values(alpha, vals)):
                if norm_to_nearest_int(2 * (x - y) * d * alpha) >= Fraction(1, 9 * length):
                    yield x, y, z, d

    assert find_relation_witness((0, 1, 2), RELATION_SUM3) is not None
    x, y, z, d = next(broken_corners((0, 1, 2)))
    assert avoiders._norm_below(alpha, [2 * (x - y) * d], Fraction(1, 9 * length)) == [False]
    for lam in ((0, 1), (0, 2), (1, 2)):
        assert find_relation_witness(lam, RELATION_SUM3) is None
        assert next(broken_corners(lam), None) is None, lam


def test_verify_fails_exactly_where_lambda_has_a_solution():
    # Lambda = {0, 1, 2} admits 0 + 1 + 2 = 3 * 1, so the interval argument
    # breaks: the set's corners fall in classes (x - y, d) whose norm of
    # 2 * alpha * (x - y) * d reaches 1/(9L).  The solution-free
    # Lambda = {1, 2, 5, 6} on the same alpha and N passes everywhere.
    seq, i = avoiders._select_approximant(8, 128)
    bad = avoiders.CornerAvoider(avoiders.AvoiderParams(0.25, 0.1, (0, 1, 2), i), seq)
    good = avoiders.CornerAvoider(avoiders.AvoiderParams(0.25, 0.1, (1, 2, 5, 6), i), seq)
    assert (bad.side, bad.p) == (67, 12)
    assert find_relation_witness((0, 1, 2), RELATION_SUM3) is not None
    assert find_relation_witness((1, 2, 5, 6), RELATION_SUM3) is None
    assert verify_corner_avoidance(good, good.materialize()).all_ok()
    grid = bad.materialize()
    report = verify_corner_avoidance(bad, grid)
    failing = [report.rows[k] for k in report.failing()]
    assert [r[0] for r in failing] == [5, -5, 9, -9]
    assert failing[0][:2] == (5, 52)
    # the counts stay under the ceiling and the rational shadow holds: only
    # the transfer check fails
    assert all(r[3] and not r[4] and r[5] for r in failing)
    # the oracle's classes, read with exact Fraction norms at both ends of
    # a rational enclosure of alpha narrower than 1e-40, break the bound at
    # those d
    bound = Fraction(1, 9 * bad.system.length)
    classes = corner3_transfer_classes(grid, [r[0] for r in report.rows])

    def broken(end):
        return [d for d, diffs in classes.items() if any(norm_to_nearest_int(2 * diff * d * end) >= bound for diff in diffs)]

    lo, hi = seq.enclosure(i + seq.offset + 6)
    assert broken(lo) == broken(hi) == [5, -5, 9, -9]


def test_avoidance_report_counts_match_packed_kernel():
    avoider = build_corner_avoider(0.25, length=8, q_max=128)
    grid = avoider.materialize()
    report = verify_corner_avoidance(avoider, grid)
    assert report.all_ok()
    # both callers of the grid kernel against the member-driven oracle
    oracle = corner3_count_oracle(grid, [r[0] for r in report.rows])
    spec = spectrum(grid, Pattern.corner(3))
    assert {r[0]: r[1] for r in report.rows} == oracle
    assert spec.counts == oracle
    assert report.max_count()[1] == max(oracle.values())


def test_verify_of_a_set_without_corners_has_no_classes():
    avoider = build_corner_avoider(0.25, length=8, q_max=128)
    empty = GridSet.empty(3, avoider.side)
    report = verify_corner_avoidance(avoider, empty)
    assert report.all_ok() and {r[1] for r in report.rows} == {0}


def test_distinct_is_np_unique():
    rng = np.random.default_rng(3)
    for values in (np.zeros(0, dtype=np.int64), np.array([5]), rng.integers(-40, 40, 300)):
        assert np.array_equal(avoiders._distinct(values), np.unique(values))


def test_grid_member_readers_scratch_is_one_block():
    # a random 3-d set of about 300k members at the benchmark's N = 257,
    # built before tracing starts, so no peak counts the mask.  Scratch is
    # the traced peak less what the call leaves held (its result, or the
    # text in the StringIO).  2.5 MB bounds one block of _BLOCK_MEMBERS
    # members, one chunk of _PAIR_CHUNK pairs and one batch of written text:
    # it does not grow with the set.  Reading every member into whole-set
    # columns first, the kernel (spectrum and verify) took 6.0 MB here.
    avoider = build_corner_avoider(0.25, length=8, q_max=500)
    n = avoider.side
    rng = np.random.default_rng(7)
    cells = np.zeros(n**3, dtype=bool)
    cells[rng.integers(0, n**3, 305_000)] = True
    grid = GridSet.from_cells(cells.reshape((n,) * 3))
    del cells
    assert n == 257 and len(grid) > 300_000
    budget = 2_500_000

    def write() -> io.StringIO:
        buf = io.StringIO()
        formats.write_grid_set(buf, grid)
        return buf

    for name, call in (
        ("spectrum", lambda: spectrum(grid, Pattern.corner(3))),
        ("verify", lambda: verify_corner_avoidance(avoider, grid)),
        ("write", write),
    ):
        tracemalloc.start()
        try:
            kept = call()
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        del kept
        assert peak - held < budget, (name, peak - held)


def test_verify_consults_exactly_the_transfer_classes(monkeypatch):
    # a kernel with the right counts but the wrong anchors would check the
    # wrong (x - y, d) classes; record every norm verify asks for
    avoider = build_corner_avoider(0.25, length=8, q_max=128)
    grid = avoider.materialize()
    asked = set()
    norm = avoiders._norm_below

    def recording(alpha, values, bound):
        asked.update(values)
        return norm(alpha, values, bound)

    monkeypatch.setattr(avoiders, "_norm_below", recording)
    report = verify_corner_avoidance(avoider, grid)
    classes = corner3_transfer_classes(grid, [r[0] for r in report.rows])
    expected = {2 * diff * d for d, diffs in classes.items() for diff in diffs}
    assert expected and asked == expected


def test_verify_rows_are_every_grid_difference_in_order():
    avoider = build_corner_avoider(0.25, length=8, q_max=128)
    grid = avoider.materialize()
    n = grid.side
    report = verify_corner_avoidance(avoider, grid)
    ds = [r[0] for r in report.rows]
    assert ds == grid_differences(n)
    oracle = corner3_count_oracle(grid, ds)
    # this set has corners for even d only, of both signs
    assert oracle[4] and oracle[-4] and not oracle[3] and not oracle[-3]
    assert [r[1] for r in report.rows] == [oracle[d] for d in ds]
    assert report.all_ok()


def test_length_0_is_refused_not_replaced_by_the_default():
    with pytest.raises(ValueError, match="^length must be positive$"):
        build_corner_avoider(0.3, length=0)
    with pytest.raises(ValueError, match="^length must be positive$"):
        build_five_point_avoider((0, 1, 2, 3, 4), 0.3, length=0)


def test_theta_constants_values():
    theta1, theta2, theta3 = theta_constants((0, 1, 2, 3, 4))
    assert theta1 == 12  # 4 * max|gamma| with rows (-1, 3, -3, 1)
    assert theta2 == 4  # |2 * (0-1)(1-2)(2-0)|
    assert theta3 == 1  # ceil(3 * 4 / 144)


def test_theta_identity():
    rng = random.Random(13)
    for _ in range(500):
        a1, a2, a3, n, d = (rng.randint(-30, 30) for _ in range(5))
        lhs = 2 * (a1 - a2) * (a2 - a3) * (a3 - a1) * n * d
        rhs = (
            (a2**2 - a3**2) * (n + d * a1) ** 2
            + (a3**2 - a1**2) * (n + d * a2) ** 2
            + (a1**2 - a2**2) * (n + d * a3) ** 2
        )
        assert lhs == rhs
    assert 2 * (0 - 1) * (1 - 2) * (2 - 0) * 1 * 1 == -3 + 16 - 9 == 4


def test_five_point_avoider_members_and_transfer():
    a = (0, 1, 2, 3, 4)
    avoider = build_five_point_avoider(a, 0.3, length=4, q_max=600)
    grid = avoider.materialize()
    n = grid.side
    # members satisfy the exact predicate, non-members fail it
    rng = random.Random(27)
    for x in list(grid)[:30]:
        assert avoider.system.decide_values(avoider.alpha, [x[0] * x[0]])[0]
    for _ in range(30):
        x = rng.randint(1, n)
        assert ((x,) in grid) == avoider.system.decide_values(avoider.alpha, [x * x])[0]
    # any full pattern occurrence obeys the transfer bound
    found = 0
    for d in range(1, (n - 1) // 4 + 1):
        for x in range(1, n - 4 * d + 1):
            if all((x + ai * d,) in grid for ai in a):
                assert check_five_point_transfer(avoider.system, avoider.alpha, a, x, d)
                found += 1
                if found >= 10:
                    return


def test_five_point_transfer_on_synthetic_memberships():
    # a small rational alpha parks all five quadratic values in interval 0,
    # and the norm conclusion follows; bumping alpha past the interval width
    # violates the precondition instead
    a = (0, 1, 2, 3, 4)
    theta1, _, _ = theta_constants(a)
    system = IntervalSystem(4, theta1, frozenset({0}))
    alpha = Fraction(1, 200000)
    assert check_five_point_transfer(system, alpha, a, 3, 2) is True
    with pytest.raises(ValueError):
        check_five_point_transfer(system, Fraction(1, 100), a, 3, 2)


def test_pattern_projection_properties():
    pat = Pattern.corner(4)  # 5 points in Z^4
    c, phi, five = pattern_projection(pat)
    assert len(set(phi)) == 5
    assert c == 1 + 4  # coordinate magnitudes sum to 4
    # linearity: phi(x + d t) = phi(x) + d phi(t)
    rng = random.Random(15)
    for _ in range(20):
        x = tuple(rng.randint(-9, 9) for _ in range(4))
        d = rng.randint(-5, 5)
        for pt, image in zip(five.points, phi):
            lifted = tuple(x[j] + d * pt[j] for j in range(4))
            assert sum(c ** (i + 1) * lifted[i] for i in range(4)) == sum(
                c ** (i + 1) * x[i] for i in range(4)
            ) + d * image


def test_lift_via_projection_matches_preimage_oracle():
    pat = Pattern.corner(4)
    c, phi, _ = pattern_projection(pat)
    rng = random.Random(17)
    weight = sum(c ** (i + 1) for i in range(4))
    base_side = weight * 3  # lifted side 3 < c, keeping the digit map injective
    base = GridSet(1, base_side, [(v,) for v in rng.sample(range(1, base_side + 1), base_side // 3)])
    lifted = lift_avoider(pat, base)
    assert lifted.side == 3
    for point in itertools.product(range(1, 4), repeat=4):
        value = sum(c ** (i + 1) * point[i] for i in range(4))
        assert (point in lifted) == ((value,) in base)
    # occurrences project: max spectrum entry cannot exceed the base pattern's
    lifted_spec = spectrum(lifted, pat)
    base_spec = spectrum(base, Pattern.one_dim(phi))
    if lifted_spec.counts and base_spec.counts:
        assert lifted_spec.max_entry()[1] <= base_spec.max_entry()[1]


def test_lift_by_padding_for_corner_patterns():
    base = GridSet(3, 4, [(1, 2, 3), (2, 2, 2), (4, 4, 1)])
    pat = Pattern.corner(4)
    lifted = lift_avoider(Pattern(4, tuple((p + (0,)) for p in Pattern.corner(3).points)), base)
    assert lifted.side == 4
    assert len(lifted) == len(base) * 4
    assert ((1, 2, 3, 4) in lifted) and ((1, 2, 3, 1) in lifted)
    assert (1, 2, 4, 1) not in lifted


def test_lift_general_affine_position():
    # pattern of affine dimension 3 not containing the unit corner
    pat = Pattern(
        3,
        ((0, 0, 0), (2, 0, 0), (0, 2, 0), (0, 0, 2)),
    )
    base = GridSet(3, 3, [(1, 1, 1), (2, 3, 1), (3, 3, 3)])
    lifted = lift_avoider(pat, base)
    assert len(lifted) == len(base)
    # the map doubles each axis: images of 1..3 run over 2..6, shifted to 1..5
    assert lifted == GridSet(3, 5, [(1, 1, 1), (3, 5, 1), (5, 5, 5)])
    _assert_lift_matches_oracle(pat, base)


def _assert_lift_matches_oracle(pattern, base):
    lifted = lift_avoider(pattern, base)
    side, members = lift_oracle(pattern.points, list(base), base.dim, base.side)
    assert (lifted.dim, lifted.side) == (pattern.dim, side)
    assert lifted == GridSet(pattern.dim, side, members)


@st.composite
def projection_cases(draw):
    """A pattern of 5-6 distinct points in dims 1-3 and a random 1-d base
    whose lifted side is 1-12 (well past C for small patterns, where phi is
    not injective) with at most ~1000 lifted cells."""
    dim = draw(st.integers(1, 3))
    coords = st.tuples(*[st.integers(-2, 2)] * dim)
    points = draw(st.lists(coords, min_size=5, max_size=6, unique=True))
    c = 1 + sum(abs(x) for p in points for x in p)
    weight = sum(c ** (i + 1) for i in range(dim))
    side = draw(st.integers(1, {1: 12, 2: 12, 3: 8}[dim]))
    base_side = weight * side + draw(st.integers(0, weight - 1))
    members = draw(st.sets(st.integers(1, base_side), max_size=200))
    return Pattern(dim, tuple(points)), GridSet(1, base_side, [(v,) for v in members])


@settings(max_examples=60, deadline=None)
@given(projection_cases())
def test_lift_via_projection_matches_lift_oracle(case):
    _assert_lift_matches_oracle(*case)


def test_lift_via_projection_beyond_the_digit_base():
    # the benchmark's shape: a 2-d five-point pattern (C = 7) lifted to side
    # 40 > C, where phi is not injective, from a dense random base
    pat = Pattern(2, ((0, 0), (1, 0), (0, 1), (1, 1), (2, 0)))
    rng = random.Random(23)
    base_side = (7 + 49) * 40 + 5
    base = GridSet(1, base_side, [(v,) for v in range(1, base_side + 1) if rng.random() < 0.3])
    lifted = lift_avoider(pat, base)
    assert lifted.side == 40
    _assert_lift_matches_oracle(pat, base)


@pytest.mark.parametrize("lifted_side", [1, 7, 8, 9, 16, 17])
@pytest.mark.parametrize("pattern", [Pattern.one_dim(range(5)), Pattern(2, ((0, 0), (1, 0), (0, 1), (1, 1), (2, 0)))], ids=str)
def test_lift_via_projection_at_slab_edges(pattern, lifted_side):
    # the lift fills its mask eight x_k-slabs at a time: sides around
    # multiples of 8 end on a whole or a partial group of slabs
    c, _, _ = pattern_projection(pattern)
    weight = sum(c ** (i + 1) for i in range(pattern.dim))
    rng = random.Random(lifted_side)
    base_side = weight * lifted_side + rng.randrange(weight)
    base = GridSet(1, base_side, [(v,) for v in range(1, base_side + 1) if rng.random() < 0.3])
    assert lift_avoider(pattern, base).side == lifted_side
    _assert_lift_matches_oracle(pattern, base)


LIFT_3D_PATTERNS = [
    # padding: the pattern holds the unit corner {0, e1, e2, e3}
    Pattern.corner(4),
    Pattern(4, tuple(p + (0,) for p in Pattern.corner(3).points)),
    Pattern(5, tuple(p + (0, 0) for p in Pattern.corner(3).points) + ((0, 0, 0, 1, 1),)),
    Pattern.corner(3),
    # general position
    Pattern(3, ((0, 0, 0), (2, 0, 0), (0, 2, 0), (0, 0, 2))),
    Pattern(3, ((1, 1, 0), (0, 0, 0), (1, -1, 2), (0, 1, 1), (3, 3, 3))),
    Pattern(4, ((0, 0, 0, 0), (1, 1, 0, 0), (0, 1, 1, 0), (1, 0, 1, 1))),
    Pattern(4, ((0, 0, 0, 0), (0, 0, 0, 2), (0, 1, 0, 1), (0, 2, 1, 0), (1, 0, 0, 0))),
]


@pytest.mark.parametrize("pattern", LIFT_3D_PATTERNS, ids=str)
@pytest.mark.parametrize("seed", range(3))
def test_lift_of_3d_base_matches_lift_oracle(pattern, seed):
    rng = random.Random(seed)
    side = rng.randint(2, 4)
    cube = list(itertools.product(range(1, side + 1), repeat=3))
    base = GridSet(3, side, rng.sample(cube, rng.randint(1, len(cube))))
    _assert_lift_matches_oracle(pattern, base)


@pytest.mark.parametrize("block", ["one line", "two lines"])
@pytest.mark.parametrize("pattern", LIFT_3D_PATTERNS[4:], ids=str)  # general position
def test_general_position_lift_across_block_edges(pattern, block, monkeypatch):
    # a full base: every line of the padded set holds members, so "one
    # line" puts a block edge between every two lines; the oracle reads the
    # base's members before the blocks shrink
    base = GridSet.full(3, 3)
    side, members = lift_oracle(pattern.points, list(base), base.dim, base.side)
    monkeypatch.setattr(patterns, "_BLOCK_MEMBERS", {"one line": 1, "two lines": base.side + 1}[block])
    monkeypatch.setattr(patterns, "_UNPACK_CHUNK", 1)
    assert lift_avoider(pattern, base) == GridSet(pattern.dim, side, members)


def test_tile_bits_matches_tiling_the_cells():
    # copies of a bit block that is not whole bytes, fewer and more than 8
    rng = random.Random(5)
    for nbits in (1, 5, 8, 27):
        bits = np.array([rng.random() < 0.5 for _ in range(nbits)], dtype=bool)
        raw = np.packbits(bits, bitorder="little")
        for count in (1, 3, 8, 9, 17):
            want = np.packbits(np.tile(bits, count), bitorder="little")
            assert avoiders._tile_bits(raw, nbits, count).tolist() == want.tolist(), (nbits, count)


def test_lift_refuses_grids_past_the_cell_limit(cell_limit):
    proj = GridSet(1, (7 + 49) * 10, [(v,) for v in range(1, 561, 3)])
    pat5 = Pattern(2, ((0, 0), (1, 0), (0, 1), (1, 1), (2, 0)))
    cube = GridSet(3, 4, [(1, 2, 3), (4, 4, 4)])
    general = Pattern(4, ((0, 0, 0, 0), (1, 1, 0, 0), (0, 1, 1, 0), (1, 0, 1, 1)))
    assert lift_avoider(pat5, proj).side == 10
    cell_limit(99)  # one cell short of the 10 x 10 lift
    with pytest.raises(ValueError, match="side 10 in dim 2 exceeds the 99-cell limit"):
        lift_avoider(pat5, proj)
    cell_limit(255)  # padding needs 4^4 = 256 cells
    with pytest.raises(ValueError, match="side 4 in dim 4 exceeds"):
        lift_avoider(Pattern.corner(4), cube)
    with pytest.raises(ValueError, match="side 4 in dim 4 exceeds"):
        lift_avoider(general, cube)
    # the general route's image can be wider than the padded grid
    cell_limit(256)
    with pytest.raises(ValueError, match="exceeds the 256-cell limit"):
        lift_avoider(general, cube)


def test_lift_rejects_unsupported_patterns():
    with pytest.raises(ValueError):
        lift_avoider(Pattern(2, ((0, 0), (1, 0), (0, 1))), GridSet(3, 3, []))
    with pytest.raises(ValueError):
        pattern_projection(Pattern(1, ((0,), (1,))))


BUILDERS = {
    "corner": lambda q_max: build_corner_avoider(0.25, length=8, q_max=q_max),
    "fivepoint": lambda q_max: build_five_point_avoider((0, 1, 2, 3, 4), 0.25, length=8, q_max=q_max),
}


@pytest.mark.parametrize("name", BUILDERS)
def test_builder_materializes_iff_the_cube_fits_the_cell_limit(name, cell_limit):
    # one rule for both avoiders, read at call time: side**dim <= MAX_CELLS;
    # the builder returns the predicate, and each materialize() builds anew
    build = BUILDERS[name]
    avoider = build(200)
    cells = avoider.side**avoider.dim
    first = avoider.materialize()
    second = avoider.materialize()
    assert first == second and first is not second
    cell_limit(cells)
    assert avoider.materialize() == first
    cell_limit(cells - 1)
    assert build(200).side == avoider.side
    with pytest.raises(ValueError, match=f"side {avoider.side} needs {cells} cells"):
        avoider.materialize()


def test_corner_builder_leaves_cubes_past_the_cell_limit_unmaterialized():
    # sides 973 and 2735 both need more than MAX_CELLS cells: the avoider
    # still answers membership, and materializing refuses
    for q_max, side in ((1000, 973), (3000, 2735)):
        avoider = build_corner_avoider(0.25, q_max=q_max)
        assert avoider.side == side and side**3 > limits.MAX_CELLS
        assert ((1, 1, 1) in avoider) == avoider.system.decide_values(avoider.alpha, [0])[0]
        with pytest.raises(ValueError, match=f"side {side} needs {side**3} cells"):
            avoider.materialize()


def test_five_point_materialize_packs_chunks_that_do_not_divide_n(monkeypatch):
    # a dense interval system in place of the derived one, over the built
    # alpha, so the packed chunks hold members; 16 does not divide N = 2053,
    # so the last chunk is short, and x = N is a member, so a chunk that
    # drops its last value shows
    built = build_five_point_avoider((0, 1, 2, 3, 4), 0.25, length=8, q_max=3000)
    n = built.side
    dense = FivePointAvoider(built.params, built.alpha)
    dense.system = IntervalSystem(4, 2, frozenset(range(4)))
    monkeypatch.setattr(avoiders, "_DECIDE_CHUNK", 16)
    assert n == 2053 and n in dense
    grid = dense.materialize()
    expected = dense.system.decide_values(dense.alpha, [x * x for x in range(1, n + 1)])
    assert grid.cells().tolist() == expected
    assert 0 < len(grid) < n
    assert all(((x,) in grid) == (x in dense) for x in range(1, n + 1))


def test_corner_ceiling_binds_at_length_16():
    # at L = 8 the ceiling 14 N^3 / L exceeds N^3 and cannot fail; at L = 16
    # and N = 67 it is 263,167.6 < 67^3, so the count gate can fail
    avoider = build_corner_avoider(0.25, length=16, q_max=100)
    n = avoider.side
    assert n == 67 and Fraction(14 * n**3, 16) < n**3
    assert verify_corner_avoidance(avoider, avoider.materialize()).all_ok()
    # the full grid, certified over every d: d = 1 and -1 come first
    report = verify_corner_avoidance(avoider, GridSet.full(3, n))
    for d, count, ceiling, ok_count, _, _ in report.rows[:2]:
        assert count == 66**3 == 287_496 and count > ceiling
        assert ok_count is False
    assert not report.all_ok() and report.failing()[:2] == [0, 1]


def full_approximant_scan(length, q_max):
    """(j, i, q) of the largest verified q <= q_max over every scale
    r = 2^j, j = 1..2L+1, with no early stop; every denominator at scale r
    is checked to exceed r, the bound the early stop rests on."""
    best = None
    for j in range(1, 2 * length + 2):
        seq = build_alpha_hard(length, Fraction(2) ** j)
        i = seq.start_index
        assert seq.p_q(i)[1] > 2**j
        while (q := seq.p_q(i)[1]) <= q_max:
            if verify_alpha(seq, i).passed and (best is None or q > best[2]):
                best = (j, i, q)
            i += 1
    return best


@pytest.mark.parametrize("q_max", [100, 500, 5000, 100_000])
@pytest.mark.parametrize("length", [4, 8, 16])
def test_bounded_approximant_scan_equals_the_full_scan(length, q_max):
    seq, i = avoiders._select_approximant(length, q_max)
    j = seq.r.numerator.bit_length() - 1
    assert seq.r == 2**j and (j, i, seq.p_q(i)[1]) == full_approximant_scan(length, q_max)


@pytest.mark.parametrize(
    "length, q_max, chosen", [(8, 500, (8, 0, 257)), (16, 5000, (12, 0, 4099)), (16, 100_000, (16, 0, 65537))]
)
def test_approximant_scan_keeps_the_recorded_choices(length, q_max, chosen):
    seq, i = avoiders._select_approximant(length, q_max)
    assert (seq.r, i, seq.p_q(i)[1]) == (2 ** chosen[0], *chosen[1:])


def test_corner_avoider_builds_at_length_28():
    # the full scan over j = 1..57 raised at j = 46, whose prime lies past
    # the certified primality range; the bounded scan stops at 2^7 >= q_max
    avoider = build_corner_avoider(0.25, length=28, q_max=100)
    assert (avoider.j, avoider.params.i, avoider.q) == (6, 0, 67)
    assert verify_corner_avoidance(avoider, avoider.materialize()).all_ok()


def test_builder_argument_validation():
    with pytest.raises(ValueError):
        build_corner_avoider(0.7)
    # at L = 8 every denominator the scan meets is past 20
    with pytest.raises(ValueError, match="no verified denominator up to 20 for L=8"):
        build_corner_avoider(0.25, length=8, q_max=20)

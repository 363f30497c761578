import random
from decimal import Decimal, localcontext

import pytest

from cornerforge.behrend import (
    RELATION_3AP,
    RELATION_SUM3,
    QCSystem,
    _int_root,
    _sphere_dimensions,
    behrend_3ap_free,
    behrend_qc_free,
    behrend_sum_free,
    find_qc_witness,
    find_relation_witness,
    is_qc,
    qc_coefficients,
)
from oracles import qc_witness_oracle, relation_witness_oracle


def test_3ap_free_tiny_cases():
    assert set(behrend_3ap_free(1)) == {0}
    out = behrend_3ap_free(10)
    assert all(0 <= v < 10 for v in out)
    assert find_relation_witness(out.members, RELATION_3AP) is None


def test_3ap_free_range_of_lengths():
    for length in (2, 16, 100, 1000, 20000):
        out = behrend_3ap_free(length)
        assert all(0 <= v < length for v in out)
        assert find_relation_witness(out.members, RELATION_3AP) is None
        assert len(out) >= out.params.pigeonhole_bound()


def test_sum_free_examples():
    assert find_relation_witness({0, 1}, RELATION_SUM3) is None
    assert find_relation_witness({5}, RELATION_SUM3) is None
    out = behrend_sum_free(64)
    assert find_relation_witness(out.members, RELATION_SUM3) is None


def test_relation_witness_examples():
    assert find_relation_witness({0, 1, 2}, RELATION_3AP) == (0, 1, 2)
    assert find_relation_witness(set(), RELATION_SUM3) is None
    with pytest.raises(ValueError):
        find_relation_witness({1, 2}, (0, 0, 0))
    with pytest.raises(ValueError):
        find_relation_witness({1, 2}, (1, 1, -1))  # sum != 0


def test_relation_witness_matches_full_search():
    rng = random.Random(31)
    for _ in range(30):
        members = {rng.randrange(30) for _ in range(rng.randint(1, 7))}
        relation = rng.choice([RELATION_3AP, RELATION_SUM3, (2, -1, -1), (1, 1, -2, 1, -1)])
        got = find_relation_witness(members, relation)
        expect = relation_witness_oracle(members, relation)
        assert (got is None) == (expect is None)
        if got is not None:
            assert sum(c * y for c, y in zip(relation, got)) == 0
            assert len(set(got)) > 1
            assert all(y in members for y in got)


def test_relation_witness_zero_tail_coefficient():
    # solved slot rotated away from a zero coefficient
    witness = find_relation_witness({0, 1, 2}, (1, -2, 1, 0))
    assert witness is not None
    assert sum(c * y for c, y in zip((1, -2, 1, 0), witness)) == 0


# -- quadratic configurations -------------------------------------------------


def test_qc_coefficients_progression_windows():
    sys = qc_coefficients((0, 1, 2, 3, 4))
    assert sys.M == 6
    assert sys.gamma == ((-1, 3, -3, 1), (-1, 3, -3, 1))


def test_qc_coefficients_uneven_window():
    sys = qc_coefficients((0, 1, 2, 4))
    assert sys.M == 24
    assert sys.gamma == ((-3, 8, -6, 1),)
    for basis in (lambda t: 1, lambda t: t, lambda t: t * t):
        assert sum(g * basis(w) for g, w in zip(sys.gamma[0], (0, 1, 2, 4))) == 0


def test_qc_coefficients_rejects_repeats():
    with pytest.raises(ValueError):
        qc_coefficients((0, 1, 1, 3))
    with pytest.raises(ValueError):
        qc_coefficients((0, 1, 2))


def test_qc_rows_annihilate_random_quadratics():
    rng = random.Random(17)
    a = tuple(sorted(rng.sample(range(-30, 30), 5)))
    sys = qc_coefficients(a)
    for _ in range(50):
        p0, p1, p2 = (rng.randint(-40, 40) for _ in range(3))
        values = tuple(p0 + p1 * t + p2 * t * t for t in a)
        for i, row in enumerate(sys.gamma):
            assert sum(g * values[i + j] for j, g in enumerate(row)) == 0


def test_is_qc_classification():
    sys = qc_coefficients((0, 1, 2, 3, 4))
    assert is_qc(sys, (0, 1, 4, 9, 16))
    assert not is_qc(sys, (5, 5, 5, 5, 5))
    assert not is_qc(sys, (0, 1, 2, 3, 5))
    rng = random.Random(19)
    for _ in range(200):
        p0, p1, p2 = rng.randint(-50, 50), rng.randint(-50, 50), rng.randint(-50, 50)
        values = tuple(p0 + p1 * t + p2 * t * t for t in (0, 1, 2, 3, 4))
        assert is_qc(sys, values) == (not (p1 == 0 and p2 == 0))
    # perturbations of genuine quadratics must break some window row
    for _ in range(200):
        p0, p1, p2 = rng.randint(-50, 50), rng.randint(1, 50), rng.randint(-50, 50)
        values = list(p0 + p1 * t + p2 * t * t for t in (0, 1, 2, 3, 4))
        values[rng.randrange(5)] += rng.choice([-3, -2, -1, 1, 2, 3])
        assert not is_qc(sys, tuple(values))


def test_qc_system_json_round_trip():
    sys = qc_coefficients((0, 1, 2, 3, 4))
    again = QCSystem.from_json(sys.to_json())
    assert again == sys


def test_qc_free_sets():
    a = (0, 1, 2, 3, 4)
    for length in (1, 64, 256, 1024):
        out = behrend_qc_free(a, length)
        sys = qc_coefficients(a)
        assert find_qc_witness(sys, out.members) is None
        assert all(0 <= v < length for v in out)


def test_qc_witness_search_matches_oracle():
    rng = random.Random(23)
    a = (0, 1, 2, 3, 4)
    sys = qc_coefficients(a)
    for _ in range(20):
        members = {rng.randrange(40) for _ in range(rng.randint(2, 8))}
        got = find_qc_witness(sys, members)
        expect = qc_witness_oracle(a, members)
        assert (got is None) == (expect is None)
        if got is not None:
            assert is_qc(sys, got)
            assert all(y in members for y in got)


def test_qc_witness_finds_planted_quadratic():
    a = (0, 1, 2, 3, 4)
    sys = qc_coefficients(a)
    planted = {t * t for t in a} | {17, 23}
    witness = find_qc_witness(sys, planted)
    assert witness is not None and is_qc(sys, witness)


def test_sphere_vectors_share_one_radius():
    # any in-set relation forces the interpolating digit polynomial constant
    out = behrend_sum_free(4096)
    params = out.params
    for value in out:
        digits = []
        v = value
        for _ in range(params.dim):
            v, r = divmod(v, params.base)
            digits.append(r)
        assert all(0 <= x < params.digit_cap for x in digits)
        assert sum(x * x for x in digits) == params.radius_sq


def test_int_root_matches_brute_force():
    for d in range(1, 7):
        m = 0
        for x in range(3000):
            while (m + 1) ** d <= x:
                m += 1
            assert _int_root(x, d) == m, (x, d)


def test_int_root_beyond_float_range():
    x = 10**400
    for d in (2, 3, 7, 400, 1329, 1330, 5000):
        m = _int_root(x, d)
        assert m**d <= x < (m + 1) ** d, d
    assert _int_root(10**400, 2) == 10**200
    assert _int_root(10**400 - 1, 2) == 10**200 - 1
    assert _int_root(2**3000, 3) == 2**1000
    with pytest.raises(ValueError):
        _int_root(-1, 2)


def _sphere_dimension_oracle(length: int) -> int:
    """The largest d >= 1 with d^2 <= ln(length), in 60-digit decimals."""
    with localcontext() as ctx:
        ctx.prec = 60
        ln = Decimal(length).ln()
        d = 1
        while (d + 1) ** 2 <= ln:
            d += 1
        return d


@pytest.mark.parametrize("k", range(2, 8))
def test_sphere_dimension_is_exact_on_both_sides_of_e_to_k_squared(k):
    with localcontext() as ctx:
        ctx.prec = 60
        edge = int(Decimal(k * k).exp())  # floor(e^(k^2)) < e^(k^2) < edge + 1
    for length, want in ((edge, k - 1), (edge + 1, k)):
        assert _sphere_dimension_oracle(length) == want
        assert _sphere_dimensions(length, 1)[0] == want, length
    if k == 6:  # where int(sqrt(log(L))) read 6: log(4311231547115195) rounds to 36.0
        assert edge == 4311231547115195

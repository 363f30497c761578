import math
import random
import time
from fractions import Fraction
from math import gcd, lcm

import pytest

from cornerforge import contfrac
from cornerforge.contfrac import (
    AlphaSequence,
    _floor_linear,
    _is_prime,
    _next_prime_above,
    approximants,
    build_alpha_hard,
    frac_floors,
    quotients_from_pair,
    verify_alpha,
)
from oracles import frac_floor_oracle, gt_linear_fraction_oracle, next_prime_walk_oracle


def test_fibonacci_style_convergents():
    assert approximants([1, 1, 1, 1, 1]) == [(1, 1), (2, 1), (3, 2), (5, 3), (8, 5)]


def test_small_quotient_list():
    conv = approximants([0, 2, 3])
    assert conv == [(0, 1), (1, 2), (3, 7)]
    # recurrence spot check: P2 = 3*1 + 0, Q2 = 3*2 + 1
    assert conv[2] == (3 * conv[1][0] + conv[0][0], 3 * conv[1][1] + conv[0][1])


def test_convergents_are_reduced_and_validated():
    rng = random.Random(3)
    for _ in range(20):
        quotients = [rng.randint(0, 4)] + [rng.randint(1, 9) for _ in range(rng.randint(1, 12))]
        for p, q in approximants(quotients):
            assert gcd(p, q) == 1
    with pytest.raises(ValueError):
        approximants([1, 0, 2])
    with pytest.raises(ValueError):
        approximants([-1, 2])


def test_enclosure_brackets_the_tail_value():
    # |alpha - P_n/Q_n| < 1/(Q_n Q_{n+1}) with alpha between consecutive ones
    seq = AlphaSequence(m=2, r=Fraction(1), a=2, prefix=(0, 1, 2), tail=2)
    for n in range(1, 8):
        lo, hi = seq.enclosure(n)
        p, q = seq.convergent(n)
        q_next = seq.convergent(n + 1)[1]
        assert hi - lo == Fraction(1, q * q_next)
        assert lo <= Fraction(p, q) <= hi
        deeper_lo, deeper_hi = seq.enclosure(n + 3)
        assert lo < deeper_lo < deeper_hi < hi


def test_quotients_from_pair_examples():
    for x, y in [(2, 7), (1, 2), (5, 8), (7, 24), (13, 89)]:
        quotients = quotients_from_pair(x, y)
        conv = approximants(quotients)
        assert conv[-2][1] == x and conv[-1][1] == y
    with pytest.raises(ValueError):
        quotients_from_pair(4, 10)
    with pytest.raises(ValueError):
        quotients_from_pair(5, 3)


def test_quotients_from_pair_random():
    rng = random.Random(5)
    for _ in range(40):
        x = rng.randint(1, 400)
        y = rng.randint(x + 1, 900)
        if gcd(x, y) != 1:
            continue
        conv = approximants(quotients_from_pair(x, y))
        assert conv[-2][1] == x and conv[-1][1] == y


def test_build_alpha_hard_smallest_case():
    seq = build_alpha_hard(2, 1)
    assert seq.a == 2
    for i in range(seq.start_index, seq.start_index + 8):
        check = verify_alpha(seq, i)
        assert check.passed and check.guaranteed
        assert check.q % 2 == 1  # no prime factor below m=2 means odd


def test_build_alpha_hard_m5():
    seq = build_alpha_hard(5, Fraction(3, 2))
    assert seq.a == lcm(1, 2, 3, 4, 5) == 60
    assert seq.a < 4**5
    for i in range(seq.start_index, seq.start_index + 5):
        assert verify_alpha(seq, i).passed


def test_denominator_recurrence_and_residues():
    seq = build_alpha_hard(4, 2)
    t = seq.t
    qs = [seq.convergent(n)[1] for n in range(t, t + 10)]
    for n in range(2, 10):
        assert qs[n] == seq.a * qs[n - 1] + qs[n - 2]
    assert {q % seq.a for q in qs} <= {seq.x % seq.a, seq.y % seq.a}


def test_golden_ratio_stream_fails_the_checks():
    # all-ones quotients: denominators are Fibonacci, even ones appear, and
    # the growth interval for lcm(1..3) is badly missed
    seq = AlphaSequence(m=3, r=Fraction(1), a=lcm(1, 2, 3), prefix=(0,), tail=1)
    results = [verify_alpha(seq, i) for i in range(2, 12)]
    assert any(not r.smooth_ok for r in results)
    assert any(not r.interval_ok for r in results)


def test_indices_below_threshold_not_guaranteed():
    seq = build_alpha_hard(3, Fraction(1, 4))  # small scale forces K >= 1
    assert seq.start_index > 0
    early = verify_alpha(seq, seq.start_index - 1)
    assert not early.guaranteed
    good = verify_alpha(seq, seq.start_index)
    assert good.guaranteed and good.passed


@pytest.mark.parametrize("m, r", [(2, 1), (5, Fraction(3, 2)), (16, 2)])
def test_digit_bound_covers_every_denominator(m, r):
    # never below the digits of Q_n, at most one above them, and exact for
    # m = 5 and 16 (Q_n past 4,300 digits cannot be printed, so compare
    # against powers of ten)
    seq = build_alpha_hard(m, r)
    slack = 1 if m == 2 else 0
    for n in range(800):
        q, bound = seq.convergent(n)[1], seq.digit_bound(n)
        assert 10 ** (bound - 1 - slack) <= q < 10**bound, n


def test_digit_bound_takes_the_growth_rate_from_log_a():
    # a = lcm(1..400)^2 is past any float, and so would be a^2
    a = lcm(*range(1, 401)) ** 2
    seq = AlphaSequence(m=400, r=Fraction(1), a=a, prefix=(0, 3, 5), tail=a)
    for n in range(12):
        q, bound = seq.convergent(n)[1], seq.digit_bound(n)
        assert 10 ** (bound - 1) <= q < 10**bound, n


def test_json_round_trip_regenerates_stream():
    seq = build_alpha_hard(6, Fraction(5, 4))
    again = AlphaSequence.from_json(seq.to_json())
    assert again.p_q(seq.start_index + 3) == seq.p_q(seq.start_index + 3)
    assert again.start_index == seq.start_index
    assert verify_alpha(again, again.start_index).passed


def test_build_rejects_bad_arguments():
    with pytest.raises(ValueError):
        build_alpha_hard(1, 1)
    with pytest.raises(ValueError):
        build_alpha_hard(4, 0)


def test_primality_matches_trial_division_and_strong_pseudoprimes():
    trial = lambda n: n >= 2 and all(n % f for f in range(2, int(n**0.5) + 1))
    assert all(_is_prime(n) == trial(n) for n in range(-3, 20_000))
    # strong pseudoprimes to every prime base up to 2, 3, 5, ..., 37
    for n in (2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
              341550071728321, 3825123056546413051, 318665857834031151167461):
        assert not _is_prime(n)
    assert 318665857834031151167461 == 399165290221 * 798330580441
    assert _is_prime(2**31 - 1) and _is_prime(2**61 - 1)
    with pytest.raises(ValueError):
        _is_prime(3_317_044_064_679_887_385_961_981)


@pytest.mark.parametrize("m", range(1, 13))
def test_next_prime_from_the_exact_floor_matches_the_unit_step_walk(m):
    # the bounds r * b^k of build_alpha_hard, b^k = u_k + v_k * b, for
    # k = 0, 1, 2 and r = 2^j or 2^j / 3 with j <= 20.  The walk takes
    # about r * v_k / a steps; bounds it would need more than 2^10 for are
    # left out (k = 2, where v_2 = a, stops at j = 10)
    a = lcm(*range(1, m + 1))
    for u, v in [(1, 0), (0, 1), (1, a)]:
        for j in range(21):
            for r in (Fraction(2**j), Fraction(2**j, 3)):
                if r * v > 2**10 * a:
                    continue
                expected = next_prime_walk_oracle(r * u, r * v, a, _is_prime)
                assert _next_prime_above(r * u, r * v, a) == expected
                # the floor is exact: one above it is the least integer the
                # walk finds above the bound
                floor = _floor_linear(r * u, r * v, a)
                assert next_prime_walk_oracle(r * u, r * v, a, lambda n: True) == floor + 1


def test_frac_floors_of_rational_alpha_match_fraction_arithmetic():
    values = list(range(-30, 31))
    for big_q in range(1, 17):
        for big_p in range(-big_q, big_q + 1):
            alpha = Fraction(big_p, big_q)
            for den in (1, 2, 3, 7, 36):
                expected = [math.floor(den * (v * alpha - math.floor(v * alpha))) for v in values]
                assert frac_floors(alpha, values, den) == expected


ALPHAS = [
    build_alpha_hard(2, 1),
    build_alpha_hard(5, Fraction(3, 2)),
    build_alpha_hard(8, 4),
    AlphaSequence(m=3, r=Fraction(1), a=6, prefix=(0,), tail=1),  # golden ratio - 1
    AlphaSequence(m=2, r=Fraction(1), a=2, prefix=(1, 3, 1, 40, 2), tail=7),
]


@pytest.mark.parametrize("alpha", ALPHAS, ids=range(len(ALPHAS)))
def test_frac_floors_of_irrational_alpha_match_the_enclosure_oracle(alpha):
    rng = random.Random(29)
    batches = [list(range(-150, 151)), [rng.randint(-10**6, 10**6) for _ in range(150)]]
    for values in batches:
        for den in (1, 9, 72, 576, 1000):
            assert frac_floors(alpha, values, den) == [frac_floor_oracle(alpha, v, den) for v in values]
    assert frac_floors(alpha, [], 5) == []
    assert frac_floors(alpha, [0], 5) == [0]


def test_frac_floors_tie_goes_one_convergent_deeper():
    # with a = 840 > 8 * 72, every tail level n is the one chosen for the
    # batch [q_n, -q_n] at den 72, and v = +-q_n puts t = v * p_n mod q_n at
    # 0: both values tie.  q_n * alpha sits just off the integer p_n, so one
    # of the two true floors is den - 1, not the tied reading 0.
    alpha = build_alpha_hard(8, 4)
    den = 72
    for n in range(len(alpha.prefix), len(alpha.prefix) + 4):
        q = alpha.convergent(n)[1]
        assert alpha.convergent(n + 1)[1] > 8 * den * q >= alpha.convergent(n)[1]
        values = [q, -q]
        floors = frac_floors(alpha, values, den)
        assert floors == [frac_floor_oracle(alpha, v, den) for v in values]
        assert den - 1 in floors


def _alpha_facts(m, r):
    seq = build_alpha_hard(m, r)
    k = seq.start_index
    return k, seq.x, seq.y, [verify_alpha(seq, i) for i in range(max(0, k - 1), k + 3)]


@pytest.mark.parametrize("m", range(2, 13))
def test_integer_surd_comparison_matches_the_fraction_reference(m, monkeypatch):
    # the comparison against an integer, with its strict v = 0 case, gives
    # the same K, x, y and verdicts as the Fraction comparison it replaced;
    # j = 4 at m = 8 meets the tie r * b^0 = 16 = 2m at k = 0
    scales = [r for j in range(21) for r in (Fraction(2**j), Fraction(2**j, 3))]
    facts = [_alpha_facts(m, r) for r in scales]
    monkeypatch.setattr(contfrac, "_gt_linear", gt_linear_fraction_oracle)
    assert facts == [_alpha_facts(m, r) for r in scales]


def test_gt_linear_keeps_the_tie_strict():
    # b^0 = 1 + 0 * b: 16 * 1 > 16 is false, so K = 1 at m = 8, r = 16
    assert not contfrac._gt_linear(Fraction(16), Fraction(0), 16, 840)
    assert build_alpha_hard(8, 16).start_index == 1
    for u, v, n in [(0, 1, 840), (Fraction(1, 3), Fraction(2, 3), 560), (5, Fraction(1, 7), 125)]:
        for a in (1, 2, 840):
            assert contfrac._gt_linear(Fraction(u), Fraction(v), n, a) == gt_linear_fraction_oracle(u, v, n, a)


def test_a_huge_m_is_refused_within_a_second():
    # lcm(1..m) has about m / ln(10) digits; both paths stop within a few
    # dozen factors instead of building it
    start = time.perf_counter()
    with pytest.raises(ValueError, match="stored a does not match lcm"):
        AlphaSequence.from_json('{"m": 10000000, "r": "2", "a": 12, "t": 0, "quotients_prefix": [0]}')
    with pytest.raises(ValueError, match="candidate beyond the certified deterministic range"):
        build_alpha_hard(10_000_000, 2)
    assert time.perf_counter() - start < 1


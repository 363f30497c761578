"""Exact continued fractions and irrationals with rough-denominator
approximants.

Everything here is exact big-integer / rational arithmetic: the irrational
alpha is never materialized as a float.  It is carried as its partial
quotient stream, and any question about alpha is answered through the
enclosure between two consecutive convergents, whose width 1/(Q_n Q_{n+1})
shrinks geometrically.

The headline constructor produces, for a smoothness bound m and a scale r,
an irrational whose convergent denominators q_i eventually

* carry no prime factor at most m (they stay coprime to lcm(1..m)),
* grow geometrically: r * b^i < q_i < 2 * r * b^i, where b is the positive
  root of b^2 = a*b + 1 with a = lcm(1..m), and
* approximate alpha to within 1/(m * q_i^2).

The tail of the quotient stream is the constant a; the head is produced by
running Euclid backwards from a pair of large primes, which pins two
consecutive denominators and hence the residues of all later ones mod a.

Every question about where a multiple v*alpha falls on the circle -- in an
interval, or within a norm bound -- is answered by one primitive,
`frac_floors`, which returns floor(den * frac(v*alpha)) exactly for a batch
of integers v, for a rational or a sequence-given alpha.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from fractions import Fraction
from math import floor, gcd, isqrt, lcm, log10, sqrt
from typing import Optional, Sequence

__all__ = [
    "approximants",
    "quotients_from_pair",
    "AlphaSequence",
    "AlphaCheck",
    "build_alpha_hard",
    "verify_alpha",
    "frac_floors",
]


def approximants(quotients: Sequence[int]) -> list[tuple[int, int]]:
    """Convergents (P_k, Q_k) of a finite quotient list.

    Uses the double recurrence P_k = c_k P_{k-1} + P_{k-2} (same for Q)
    seeded with Q_{-1} = 0, Q_{-2} = 1, so Q_0 = 1 and P_0 = c_0.  Each pair
    is automatically in lowest terms.
    """
    if not quotients:
        return []
    if quotients[0] < 0 or any(c < 1 for c in quotients[1:]):
        raise ValueError("need c_0 >= 0 and c_k >= 1 for k >= 1")
    out = []
    p2, p1 = 0, 1  # P_{-2}, P_{-1}
    q2, q1 = 1, 0
    for c in quotients:
        p2, p1 = p1, c * p1 + p2
        q2, q1 = q1, c * q1 + q2
        out.append((p1, q1))
    return out


def quotients_from_pair(x: int, y: int) -> list[int]:
    """Quotients c_0..c_{t+1} whose denominator sequence ends Q_t = x,
    Q_{t+1} = y (coprime, 0 < x < y).

    Euclid on y/x gives the quotient word of y/x; reversing it (continuants
    are palindromic) makes x and y the last two continuants.  c_0 = 0 keeps
    the eventual value in (0, 1).
    """
    if x < 1 or y <= x:
        raise ValueError("need 0 < x < y")
    if gcd(x, y) != 1:
        raise ValueError(f"gcd({x}, {y}) != 1")
    word = []
    a, b = y, x
    while b:
        q, r = divmod(a, b)
        word.append(q)
        a, b = b, r
    quotients = [0] + word[::-1]
    conv = approximants(quotients)
    if conv[-2][1] != x or conv[-1][1] != y:
        raise RuntimeError("reversed Euclid word failed to reproduce the pair")
    return quotients


# ---------------------------------------------------------------------------
# exact comparisons against u + v*b, b = (a + sqrt(a^2+4)) / 2
# ---------------------------------------------------------------------------


def _gt_linear(u: Fraction, v: Fraction, n: int, a: int) -> bool:
    """Whether u + v*b > n for an integer n, exactly, for v >= 0.  b is
    irrational for a >= 1, so for v > 0 the sum is no integer and exceeds n
    iff its floor reaches n; at v = 0 the comparison stays strict."""
    return u > n if v == 0 else _floor_linear(u, v, a) >= n


def _floor_linear(u: Fraction, v: Fraction, a: int) -> int:
    """floor(u + v*b), exactly, for v >= 0.

    Over a common denominator D of u and v, 2D(u + v*b) = m + sqrt(t) with
    integers m = 2Du + aDv and t = (Dv)^2 (a^2 + 4), and for any real s,
    floor((m + s) / 2D) = floor((m + floor(s)) / 2D); so one isqrt gives the
    floor, with no search.  An integer n exceeds u + v*b iff it exceeds this
    floor.
    """
    den = lcm(u.denominator, v.denominator)
    du, dv = int(u * den), int(v * den)  # exact: den clears both
    return (2 * du + a * dv + isqrt(dv * dv * (a * a + 4))) // (2 * den)


def _decimal_digits(q: int) -> int:
    """Decimal digits of q >= 1, exactly and without printing q."""
    digits = floor(log10(q)) + 1  # off by at most one where q is near 10**k
    return digits + (q >= 10**digits) - (q < 10 ** (digits - 1))


def _b_power(a: int, i: int) -> tuple[int, int]:
    """(u, v) with b^i = u + v*b; follows from b^2 = a*b + 1."""
    u, v = 1, 0
    for _ in range(i):
        u, v = v, a * v + u
    return u, v


def _lcm_upto(m: int, cap: int) -> int:
    """lcm(1..m), or the first running lcm past `cap`: a huge m is refused
    after a few factors, not after a product of about m / ln(10) digits."""
    a = 1
    for k in range(2, m + 1):
        a = lcm(a, k)
        if a > cap:
            break
    return a


# ---------------------------------------------------------------------------
# primality (deterministic Miller-Rabin)
# ---------------------------------------------------------------------------

# the first 13 primes; 318665857834031151167461 passes all but 41
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3_317_044_064_679_887_385_961_981  # bases above are proven below this


def _check_certified(n: int) -> None:
    if n >= _MR_LIMIT:
        raise ValueError("candidate beyond the certified deterministic range")


def _is_prime(n: int) -> bool:
    _check_certified(n)
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for base in _MR_BASES:
        x = pow(base, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _next_prime_above(lower_u: Fraction, lower_v: Fraction, a: int) -> int:
    """Smallest prime strictly greater than lower_u + lower_v * b."""
    n = _floor_linear(lower_u, lower_v, a) + 1
    while not _is_prime(n):
        n += 1
    return n


# ---------------------------------------------------------------------------
# the alpha sequence
# ---------------------------------------------------------------------------


@dataclass
class AlphaSequence:
    """An irrational given by an eventually-constant quotient stream.

    prefix holds c_0..c_{t+1}; every later quotient equals `tail`.  For
    sequences built by build_alpha_hard, tail = a = lcm(1..m), the prefix is
    the Euclid word of the prime pair (x, y) = (Q_t, Q_{t+1}), and the
    indexed approximants are (p_i, q_i) = (P_{i+offset}, Q_{i+offset}) with
    offset = t - K, valid from i = K on.
    """

    m: int
    r: Fraction
    a: int
    prefix: tuple[int, ...]
    tail: int
    x: Optional[int] = None
    y: Optional[int] = None
    t: int = 0
    start_index: int = 0  # K: first index whose guarantees are claimed

    def __post_init__(self) -> None:
        self.r = Fraction(self.r)
        self.prefix = tuple(int(c) for c in self.prefix)
        self._p, self._q = [0, 1], [1, 0]  # P_{n-2}, Q_{n-2} at position n

    # -- quotient / convergent access ------------------------------------

    def quotient(self, n: int) -> int:
        return self.prefix[n] if n < len(self.prefix) else self.tail

    def convergent(self, n: int) -> tuple[int, int]:
        if n < 0:
            raise IndexError("convergent index must be nonnegative")
        p, q = self._p, self._q
        while len(p) < n + 3:
            c = self.quotient(len(p) - 2)
            p.append(c * p[-1] + p[-2])
            q.append(c * q[-1] + q[-2])
        return p[n + 2], q[n + 2]

    def digit_bound(self, n: int) -> int:
        """An upper bound on the decimal digits of Q_n that computes no
        convergent past the prefix.

        Within the prefix Q_n is read exactly.  Past its last position s
        every quotient is a = tail, and b = (a + sqrt(a^2 + 4)) / 2 has
        b = a + 1/b, so S_j = Q_j + Q_{j-1}/b grows as S_{j+1} = b S_j and
        Q_{s+k} <= b^k (Q_s + Q_{s-1}/b).  That log is summed in floats with
        a relative margin far above their rounding; log10 b is taken from
        log10 a, because a^2 overflows a float from about m = 360.
        """
        s = len(self.prefix) - 1
        if n <= s:
            return _decimal_digits(self.convergent(n)[1])
        a = self.tail
        log_b = log10(a) + log10((1 + sqrt(1 + (2 / a) ** 2)) / 2)
        q, q_prev = self.convergent(s)[1], self.convergent(s - 1)[1] if s else 0
        logs = (n - s) * log_b + log10(q) + log10(1 + q_prev / q * 10.0**-log_b)
        return floor(logs * (1 + 1e-12)) + 1

    # -- lemma-facing accessors ------------------------------------------

    @property
    def offset(self) -> int:
        return self.t - self.start_index

    def p_q(self, i: int) -> tuple[int, int]:
        """(p_i, q_i); guaranteed properties hold for i >= start_index."""
        n = i + self.offset
        if n < 0:
            raise IndexError(f"index {i} precedes the quotient stream")
        return self.convergent(n)

    def enclosure(self, n: int) -> tuple[Fraction, Fraction]:
        """Open rational interval between convergents n and n+1 containing
        alpha; width is exactly 1/(Q_n * Q_{n+1})."""
        pn, qn = self.convergent(n)
        pm, qm = self.convergent(n + 1)
        lo, hi = Fraction(pn, qn), Fraction(pm, qm)
        return (lo, hi) if lo < hi else (hi, lo)

    def check_index(self, i: int) -> None:
        """Refuse an index before the quotient stream, or one whose
        denominator could pass Python's integer-print limit."""
        n = i + self.offset
        if n < 0:
            raise ValueError(f"index {i} precedes the quotient stream (least index {-self.offset})")
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: no limit (or none in this Python)
        if limit and (digits := self.digit_bound(n)) > limit:
            raise ValueError(f"index {i} has a denominator of up to {digits} digits (limit {limit})")

    # -- serialization ----------------------------------------------------

    def record(self) -> dict:
        return {
            "m": self.m,
            "r": str(self.r),
            "a": self.a,
            "x": self.x,
            "y": self.y,
            "t": self.t,
            "quotients_prefix": list(self.prefix),
        }

    def to_json(self) -> str:
        return json.dumps(self.record())

    @staticmethod
    def from_json(text: str) -> "AlphaSequence":
        obj = json.loads(text)
        m = int(obj["m"])
        a = int(obj["a"])
        if _lcm_upto(m, a) != a:
            raise ValueError("stored a does not match lcm(1..m)")
        r = Fraction(obj["r"])
        seq = AlphaSequence(
            m=m,
            r=r,
            a=a,
            prefix=tuple(obj["quotients_prefix"]),
            tail=a,
            x=obj.get("x"),
            y=obj.get("y"),
            t=int(obj["t"]),
            start_index=_start_index(m, r, a),
        )
        if seq.x is not None and seq.convergent(seq.t)[1] != seq.x:
            raise ValueError("stored x does not match the quotient prefix")
        if seq.y is not None and seq.convergent(seq.t + 1)[1] != seq.y:
            raise ValueError("stored y does not match the quotient prefix")
        return seq


def _start_index(m: int, r: Fraction, a: int) -> int:
    """Minimal K with r * b^K > 2m."""
    k = 0
    while True:
        u, v = _b_power(a, k)
        if _gt_linear(r * u, r * v, 2 * m, a):
            return k
        k += 1


def build_alpha_hard(m: int, r) -> AlphaSequence:
    """Construct the irrational of the rough-denominator lemma.

    Picks the minimal K with r*b^K > 2m, takes primes x in (r*b^K, 2*r*b^K)
    and y in (r*b^(K+1), 2*r*b^(K+1)) (both exist by Bertrand), runs Euclid
    backwards so some Q_t = x, Q_{t+1} = y, and continues the stream with
    the constant quotient a.  All later denominators are congruent to x or
    y mod a, hence coprime to a = lcm(1..m).
    """
    if m <= 1:
        raise ValueError("need m > 1")
    r = Fraction(r)
    if r <= 0:
        raise ValueError("need r > 0")
    # y > r*b^(K+1) > 2m*b > 2m*a, so once 2m*a reaches _MR_LIMIT no y can
    # be certified prime; the running lcm shows that within a few factors
    a = _lcm_upto(m, (_MR_LIMIT - 1) // (2 * m))
    _check_certified(2 * m * a)
    k = _start_index(m, r, a)
    u_k, v_k = _b_power(a, k)
    u_k1, v_k1 = _b_power(a, k + 1)
    x = _next_prime_above(r * u_k, r * v_k, a)
    if not _gt_linear(2 * r * u_k, 2 * r * v_k, x, a):
        raise ArithmeticError(f"no prime strictly inside the level-{k} interval")
    y = _next_prime_above(r * u_k1, r * v_k1, a)
    if not _gt_linear(2 * r * u_k1, 2 * r * v_k1, y, a):
        raise ArithmeticError(f"no prime strictly inside the level-{k + 1} interval")
    if gcd(x * y, a) != 1 or gcd(x, y) != 1:
        raise ArithmeticError("prime pair unexpectedly shares a factor")
    quotients = quotients_from_pair(x, y)
    return AlphaSequence(
        m=m,
        r=r,
        a=a,
        prefix=tuple(quotients),
        tail=a,
        x=x,
        y=y,
        t=len(quotients) - 2,
        start_index=k,
    )


@dataclass(frozen=True)
class AlphaCheck:
    """Per-index verification of the three guaranteed properties."""

    index: int
    p: int
    q: int
    guaranteed: bool  # index at or beyond the construction's start index
    smooth_ok: bool  # gcd(q, lcm(1..m)) == 1
    interval_ok: bool  # r*b^i < q < 2*r*b^i, exact surd comparisons
    approx_ok: bool  # |alpha - p/q| < 1/(m q^2), certified by enclosure

    @property
    def passed(self) -> bool:
        return self.smooth_ok and self.interval_ok and self.approx_ok


def verify_alpha(seq: AlphaSequence, i: int) -> AlphaCheck:
    """Check smoothness, geometric growth, and approximation quality of
    (p_i, q_i) with exact arithmetic only."""
    p, q = seq.p_q(i)
    smooth = gcd(q, seq.a) == 1
    u, v = _b_power(seq.a, i)
    # q > r*b^i  and  2*r*b^i > q, both exact
    interval = q > _floor_linear(seq.r * u, seq.r * v, seq.a) and _gt_linear(2 * seq.r * u, 2 * seq.r * v, q, seq.a)
    n = i + seq.offset
    lo, hi = seq.enclosure(n + 1)  # excludes p/q itself from the interval
    target = Fraction(1, seq.m * q * q)
    err = max(abs(lo - Fraction(p, q)), abs(hi - Fraction(p, q)))
    approx = err < target
    return AlphaCheck(
        index=i,
        p=p,
        q=q,
        guaranteed=i >= seq.start_index,
        smooth_ok=smooth,
        interval_ok=interval,
        approx_ok=approx,
    )


# ---------------------------------------------------------------------------
# exact positions on the circle
# ---------------------------------------------------------------------------


def frac_floors(alpha: AlphaSequence | Fraction, values: Sequence[int], den: int) -> list[int]:
    """floor(den * frac(v * alpha)) for each integer v, exactly.

    A rational alpha = P/Q is read off directly.  An irrational one is read
    at one convergent p/q for the whole batch: the least level n whose next
    denominator exceeds 8 * den * max|v|.  With t = v*p mod q the true
    position den*frac(v*alpha) lies within 1/(8q) of t*den/q, which is at
    least 1/q from every integer unless q divides t*den, so the floor of
    t*den/q is exact.  On that tie (v != 0) the next convergent decides:
    its denominator exceeds |v|*den and is coprime to its numerator, so it
    cannot divide v*den, and its own error is below 1/q_{n+1}.
    """
    if isinstance(alpha, Fraction):
        big_p, big_q = alpha.numerator, alpha.denominator
        return [v * big_p % big_q * den // big_q for v in values]
    target = 8 * den * max(map(abs, values), default=0)
    n = 0
    while alpha.convergent(n + 1)[1] <= target:
        n += 1
    p, q = alpha.convergent(n)
    p_next, q_next = alpha.convergent(n + 1)
    out = []
    for v in values:
        k, tie = divmod(v * p % q * den, q)
        if tie == 0 and v:
            k = v * p_next % q_next * den // q_next
        out.append(k)
    return out

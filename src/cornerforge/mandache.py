"""Randomized pair sets sampled from a step kernel, with expectation reports.

Draw three independent uniform labels X_a, Y_a, Z_a in [0,1) for every group
element a, then include each pair (a, b) independently with probability
W(X_a, Y_b, Z_{-a-b}).  For any fixed nonzero d the normalized corner count
|S_d| / |G|^2 then has expectation the weighted triforce integral of W, and
it concentrates around it; the report measures this across seeds.  That
is exact only when g and every value's denominator are powers of two (as in
the benchmark kernel: g = 2, sixteenths), since a label's cell is
floor(u * g / 2^64) and a coin's limit ceil(numerator * 2^64 / denominator).

Reproducibility (including across languages): every uniform label is the
first 8 bytes, big-endian, of SHA-256 over a key string, taken as a 64-bit
fixed-point fraction u / 2^64.  Key strings are

    "<seed>|X|<element>"   "<seed>|Y|<element>"   "<seed>|Z|<element>"

for the per-element labels and "<seed>|INC|<a>|<b>" for the per-pair
inclusion coin, where elements print as decimal residues (Z/N) or
comma-joined digit vectors (F_p^n).  A pair is included when its coin
fraction is strictly below the kernel value, compared in exact integer
arithmetic (u * denominator < numerator * 2^64).

The sampler decides a row a at a time, in plain Python: numpy is never
loaded.  Each kernel value is turned once into the integer limit
ceil(numerator * 2^64 / denominator), below which a coin u includes the
pair; a value-0 cell (limit 0) is never included and a cell with limit 2^64
always is, so only the other pairs of the row are hashed.  A limit L in
[1, 2^64) is kept as its 8 big-endian bytes, and the coin is below L exactly
when the digest is below them: bytes compare lexicographically, and a digest
whose first 8 bytes equal them sorts after them.  The report counts each
draw's corners with the group corner spectrum.
"""

from __future__ import annotations

import hashlib
import json
import math
import operator
import struct
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional, Sequence

from .hypergraph import StepKernel, triforce_weighted
from . import limits
from .patterns import Group, GroupSet, _gray_steps, spectrum

__all__ = ["sample_mandache", "mandache_report", "MandacheReport", "kernel_fingerprint"]

_SCALE = 1 << 64
_DIGITS = bytes.maketrans(b"\0\1", b"01")  # 0/1 bytes to binary digits
_U64 = struct.Struct(">Q").unpack_from  # first 8 digest bytes, big-endian


def _u64(key: str) -> int:
    return _U64(hashlib.sha256(key.encode()).digest())[0]


def _cell(u: int, g: int) -> int:
    return u * g >> 64


def kernel_fingerprint(w: StepKernel) -> str:
    text = f"{w.g}\n" + "\n".join(
        str(w.values[x][y][z]) for z in range(w.g) for y in range(w.g) for x in range(w.g)
    )
    return hashlib.sha256(text.encode()).hexdigest()


def _shift_digit(row: list, base: int, place: int, step: int) -> list:
    """The list whose entry b is row[b'], where b' is b with `step` added
    mod base to its digit of place value `place` (a power of base).  Moved
    as whole slices: every block of place * base entries rotated by
    step * place, or, when those blocks are many and short, place * base
    strided slices; O(len(row)) either way."""
    block = place * base
    if 2 * len(row) // block <= block:
        out = []
        for start in range(0, len(row), block):
            out += row[start + step * place : start + block]
            out += row[start : start + step * place]
        return out
    out = [None] * len(row)
    for low in range(place):
        for digit in range(base):
            out[low + digit * place :: block] = row[low + (digit + step) % base * place :: block]
    return out


def _neg_sum_rows(group: Group, values: list) -> Iterator[tuple[int, list]]:
    """(a, the row b -> values[index(-(a + b))]) for every a, one row at a
    time, a in reflected Gray order (`patterns._gray_steps`).

    Digit j of element index i is i // p^j % p (Z/N is one digit base N),
    and sums are digitwise.  Row 0 is values at the digitwise negations.  A
    Gray step adds s to digit j of a, so entry b of the next row is the
    entry of this one at b with s added to its digit j: one `_shift_digit`.
    A row costs O(|G|) time and memory where the whole table would cost
    O(|G|^2).
    """
    p, n = group.radix
    negs = [0]
    for j in range(n):
        negs = [i + (-b) % p * p**j for b in range(p) for i in negs]
    row = [values[i] for i in negs]
    a = 0
    yield a, row
    for j, s in _gray_steps(group):
        place = p**j
        row = _shift_digit(row, p, place, s)
        digit = a // place % p
        a += ((digit + s) % p - digit) * place
        yield a, row


def _coin_limit(value: Fraction) -> int:
    """The kernel value as a coin limit: an integer coin u in [0, 2^64) has
    u * den < num * 2^64 exactly when u < ceil(num * 2^64 / den).  Value 0
    gives 0 (never included) and value 1 gives 2^64 (always); every other
    limit is in [1, 2^64], and 2^64 only when every coin is below the value.
    """
    return -(-value.numerator * _SCALE // value.denominator)


def sample_mandache(w: StepKernel, group: Group, seed: int) -> GroupSet:
    """One draw of the random pair set; bit-identical for identical seeds.

    Runs on element indices: every element is named once, its X/Y/Z cells
    are drawn into lists, and the pair (a, b) -- bit a * |G| + b of the
    mask -- reads its kernel cell through the -(a+b) row.  Kernel values
    become coin limits, and a row a is decided at once: only the pairs whose
    limit is neither 0 nor 2^64 are hashed, each digest is compared with its
    limit's bytes, and the row's 0/1 bytes are read as one int and ORed
    into the packed mask.  The scratch is O(|G|) per row and O(g * |G|) for
    the kernel cells regrouped by element.  A group whose |G|^2 pairs pass
    the cell limit is refused before |G| is evaluated or any element is
    named.
    """
    label = group.label()
    limits.check_cells(group.radix[0], 2 * group.radix[1], f"{label} x {label}")
    g = w.g
    order = group.order
    names = [group._name(i) for i in range(order)]
    cx, cy, cz = ([_cell(_u64(f"{seed}|{role}|{name}"), g) for name in names] for role in "XYZ")
    # kernel cell (x, y, z), at x*g*g + y*g + z: whether every coin is below
    # its value (1, or within 2^-64 of it), and the 8 big-endian bytes of its
    # coin limit when the coin decides, else b"" (the pair is not hashed)
    coin_limits = [_coin_limit(v) for plane in w.values for row in plane for v in row]
    always = [limit == _SCALE for limit in coin_limits]
    drawn_limit = [limit.to_bytes(8, "big") if 0 < limit < _SCALE else b"" for limit in coin_limits]

    def by_z(cells: list) -> list:
        """`cells` regrouped for the rows: entry [x][b] is the tuple of the
        g cells (x, Y(b), z), z = 0 .. g-1, shared by every b of one Y."""
        runs = [tuple(cells[start : start + g]) for start in range(0, g**3, g)]
        return [[runs[x * g + y] for y in cy] for x in range(g)]

    always_by_z = by_z(always) if any(always) else None
    limits_by_z = by_z(drawn_limit)
    tails = [name.encode() for name in names]

    packed = bytearray((order * order + 7) // 8)
    for a, z_part in _neg_sum_rows(group, cz):
        # byte b of the row is 1 when the pair (a, b) is included
        row = bytearray(map(operator.getitem, always_by_z[cx[a]], z_part)) if always_by_z else bytearray(order)
        head = hashlib.sha256(f"{seed}|INC|{names[a]}|".encode())
        copy = head.copy
        for b, limit in enumerate(map(operator.getitem, limits_by_z[cx[a]], z_part)):
            if limit:
                h = copy()  # key "<seed>|INC|<a>|<b>"
                h.update(tails[b])
                if h.digest() < limit:
                    row[b] = 1
        # OR the row's bits into the bytes that hold bits a*|G| .. (a+1)*|G| - 1
        low = a * order
        window = slice(low >> 3, (low + order + 7) >> 3)
        bits = int(row[::-1].translate(_DIGITS), 2) << (low & 7) | int.from_bytes(packed[window], "little")
        packed[window] = bits.to_bytes(window.stop - window.start, "little")
    return GroupSet.from_packed(group, packed)


@dataclass
class MandacheReport:
    """Min/max/mean normalized corner counts per seed, against the exact
    kernel triforce value."""

    group: str
    kernel_hash: str
    seeds: tuple[int, ...]
    triforce_value: Fraction
    per_seed: list  # dicts: seed, min_d, max_d, mean (Fractions; None when |G| = 1)

    def grand_mean(self) -> Optional[Fraction]:
        means = [row["mean"] for row in self.per_seed if row["mean"] is not None]
        if not means:
            return None
        return sum(means, Fraction(0)) / len(means)

    def sample_std(self) -> Optional[float]:
        means = [float(row["mean"]) for row in self.per_seed if row["mean"] is not None]
        if len(means) < 2:
            return None
        mu = sum(means) / len(means)
        return math.sqrt(sum((v - mu) ** 2 for v in means) / (len(means) - 1))

    def standard_error(self) -> Optional[float]:
        std = self.sample_std()
        count = sum(1 for row in self.per_seed if row["mean"] is not None)
        return None if std is None else std / math.sqrt(count)

    def to_json(self) -> str:
        return json.dumps(
            {
                "group": self.group,
                "kernel_hash": self.kernel_hash,
                "seeds": list(self.seeds),
                "triforce_value": str(self.triforce_value),
                "triforce_value_float": float(self.triforce_value),
                "grand_mean": None if self.grand_mean() is None else float(self.grand_mean()),
                "sample_std": self.sample_std(),
                "per_seed": [
                    {
                        "seed": row["seed"],
                        "min_d": None if row["min"] is None else float(row["min"]),
                        "max_d": None if row["max"] is None else float(row["max"]),
                        "mean": None if row["mean"] is None else float(row["mean"]),
                    }
                    for row in self.per_seed
                ],
            },
            indent=2,
        )


def mandache_report(w: StepKernel, group: Group, seeds: Sequence[int]) -> MandacheReport:
    """Sample once per seed and summarize |S_d|/|G|^2 over all nonzero d.

    A report that would sample more pairs than one set may hold, seeds x
    |G|^2 past the cell limit, is refused before any seed is read.
    """
    if len(seeds) < 2:
        raise ValueError("need at least 2 seeds for a spread estimate")
    label = group.label()
    limits.check_cells(group.radix[0], 2 * group.radix[1], f"{label} x {label}")
    order = group.order
    limits.check_cells(len(seeds) * order * order, 1, f"{len(seeds)} seeds x {label} x {label}")
    seeds = tuple(int(s) for s in seeds)
    norm = Fraction(1, order * order)
    rows = []
    for seed in seeds:
        counts = list(spectrum(sample_mandache(w, group, seed)).counts.values())
        if not counts:  # trivial group: only d = 0 exists
            rows.append({"seed": seed, "min": None, "max": None, "mean": None})
            continue
        rows.append(
            {
                "seed": seed,
                "min": min(counts) * norm,
                "max": max(counts) * norm,
                "mean": Fraction(sum(counts), len(counts)) * norm,
            }
        )
    return MandacheReport(
        group=label,
        kernel_hash=kernel_fingerprint(w),
        seeds=seeds,
        triforce_value=triforce_weighted(w),
        per_seed=rows,
    )

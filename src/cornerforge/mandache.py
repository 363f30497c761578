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

The sampler decides a row a at a time.  Each kernel value is turned once
into the integer limit ceil(numerator * 2^64 / denominator), below which a
coin u includes the pair; a value-0 cell (limit 0) is never included and a
cell with limit 2^64 always is, so only the other pairs of the row are
hashed, and their coins are compared with the limits in one numpy step.
The report counts each draw's corners with the group corner spectrum.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional, Sequence

import numpy as np

from .hypergraph import StepKernel, triforce_weighted
from . import limits
from .patterns import Group, GroupSet, _pack, spectrum

__all__ = ["sample_mandache", "mandache_report", "MandacheReport", "kernel_fingerprint"]

_SCALE = 1 << 64
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


def _neg_sum_rows(group: Group) -> Iterator[np.ndarray]:
    """Row a of the index table b -> index(-(a + b)), one row at a time.

    Digit j of element index i is i // p^j % p (Z/N is one digit base N),
    so negated sums are digitwise arithmetic on the index arrays; a row costs
    O(|G|) memory where the whole table would cost O(|G|^2).
    """
    p, n = group.radix
    weights = p ** np.arange(n)
    digits = np.arange(group.order)[:, None] // weights % p
    for row in digits:
        yield ((-(row + digits)) % p) @ weights


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
    are drawn into index arrays, and the pair (a, b) -- bit
    a * |G| + b of the mask -- reads its kernel cell through the -(a+b)
    table.  Kernel values become integer coin limits, and a row a is decided
    at once: only the pairs whose limit is neither 0 nor 2^64 are hashed,
    their coins are read from the joined digests in one numpy step and
    compared with the limits, and the row's member flats go to the packer,
    so the scratch is O(|G|) per row.  A group whose |G|^2 pairs pass the
    cell limit is refused before |G| is evaluated or any element is named.
    """
    label = group.label()
    limits.check_cells(group.radix[0], 2 * group.radix[1], f"{label} x {label}")
    g = w.g
    order = group.order
    names = [group._name(i) for i in range(order)]
    cx, cy, cz = (
        np.array([_cell(_u64(f"{seed}|{role}|{name}"), g) for name in names], dtype=np.int64)
        for role in "XYZ"
    )
    # kernel cell x*g*g + y*g + z: its coin limit when the coin decides, else
    # 0, and whether its value is 1 (or so close that every coin is below it)
    coin_limits = [_coin_limit(v) for plane in w.values for row in plane for v in row]
    always = np.array([limit == _SCALE for limit in coin_limits], dtype=bool)
    drawn_limit = np.array([0 if limit == _SCALE else limit for limit in coin_limits], dtype=np.uint64)
    y_part = cy * g
    tails = [name.encode() for name in names]

    def rows() -> Iterator[np.ndarray]:
        for a, neg in enumerate(_neg_sum_rows(group)):
            cells = cx[a] * (g * g) + y_part + cz[neg]
            limit = drawn_limit[cells]
            drawn = np.flatnonzero(limit)
            head = hashlib.sha256(f"{seed}|INC|{names[a]}|".encode())
            digests = []
            for b in drawn.tolist():
                h = head.copy()  # key "<seed>|INC|<a>|<b>"
                h.update(tails[b])
                digests.append(h.digest())
            # each coin is the first 8 of a digest's 32 bytes, big-endian
            coins = np.frombuffer(b"".join(digests), dtype=">u8")[::4]
            members = np.concatenate([np.flatnonzero(always[cells]), drawn[coins < limit[drawn]]])
            yield members + a * order

    return GroupSet.from_packed(group, _pack(rows(), order * order))


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

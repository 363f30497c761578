import hashlib
import json
import math
import random
from fractions import Fraction

import pytest

from cornerforge.hypergraph import StepKernel, triforce_weighted
from cornerforge.mandache import _coin_limit, _neg_sum_rows, kernel_fingerprint, mandache_report, sample_mandache
from cornerforge.patterns import Group
from oracles import mandache_oracle


def random_kernel(rng, g, denominator=16):
    vals = [
        [[Fraction(rng.randint(0, denominator), denominator) for _ in range(g)] for _ in range(g)]
        for _ in range(g)
    ]
    return StepKernel(g, vals)


def test_extreme_kernels():
    group = Group.zmod(7)
    assert len(sample_mandache(StepKernel.constant(1, 1), group, 3)) == 49
    assert len(sample_mandache(StepKernel.constant(1, 0), group, 3)) == 0


def test_determinism_and_seed_sensitivity():
    group = Group.vector(3, 2)
    w = StepKernel.constant(2, Fraction(1, 2))
    a = sample_mandache(w, group, 42)
    b = sample_mandache(w, group, 42)
    c = sample_mandache(w, group, 43)
    assert a == b
    assert a != c


def test_inclusion_marginals_match_cell_values():
    # empirical P[(a,b) included] per kernel cell within 3 standard errors
    group = Group.vector(3, 3)
    rng = random.Random(51)
    w = random_kernel(rng, 2)
    hits = {}
    totals = {}
    for seed in range(40):
        pairs = sample_mandache(w, group, seed)
        import hashlib

        g = w.g
        labels = {}
        for e in group.elements():
            name = group.format_element(e)
            labels[e] = tuple(
                (int.from_bytes(hashlib.sha256(f"{seed}|{role}|{name}".encode()).digest()[:8], "big") * g) >> 64
                for role in ("X", "Y", "Z")
            )
        for a in group.elements():
            for b in group.elements():
                cell = (
                    labels[a][0],
                    labels[b][1],
                    labels[tuple((-x - y) % 3 for x, y in zip(a, b))][2],
                )
                totals[cell] = totals.get(cell, 0) + 1
                if (a, b) in pairs:
                    hits[cell] = hits.get(cell, 0) + 1
    for cell, total in totals.items():
        if total < 50:
            continue
        p = float(w.values[cell[0]][cell[1]][cell[2]])
        observed = hits.get(cell, 0) / total
        stderr = math.sqrt(max(p * (1 - p), 1e-9) / total)
        assert abs(observed - p) < max(3 * stderr, 0.02)


def test_report_structure_and_trivial_group():
    w = StepKernel.constant(1, Fraction(1, 2))
    report = mandache_report(w, Group.zmod(1), seeds=range(3))
    assert all(row["mean"] is None for row in report.per_seed)
    assert report.grand_mean() is None
    payload = json.loads(report.to_json())
    assert payload["group"] == "zN 1"
    assert payload["per_seed"][0]["mean"] is None
    with pytest.raises(ValueError):
        mandache_report(w, Group.zmod(5), seeds=[1])


def test_expectation_tracks_triforce_value():
    # quick version of the expectation law at a smaller group and seed count
    group = Group.vector(3, 3)  # |G| = 27
    rng = random.Random(53)
    kernels = [
        StepKernel.constant(1, Fraction(1, 2)),
        StepKernel.indicator(2, (0, 1, 1)),
        random_kernel(rng, 2),
        StepKernel.constant(2, Fraction(3, 4)),
        random_kernel(rng, 3),
    ]
    for w in kernels:
        report = mandache_report(w, group, seeds=range(60))
        grand = float(report.grand_mean())
        se = report.standard_error()
        target = float(triforce_weighted(w))
        assert abs(grand - target) < max(4 * se, 1e-9), (target, grand, se)


def test_fingerprint_distinguishes_kernels():
    a = StepKernel.constant(2, Fraction(1, 2))
    b = StepKernel.constant(2, Fraction(1, 3))
    assert kernel_fingerprint(a) != kernel_fingerprint(b)
    assert kernel_fingerprint(a) == kernel_fingerprint(StepKernel.constant(2, Fraction(1, 2)))


# The sampling contract, frozen: SHA-256 of the packed little-endian mask of
# every (kernel, group, seed) draw below.  These digests were recorded once
# and must never be regenerated; a change to the sampler that moves any of
# them breaks reproducibility across versions and languages.
DIGEST_KERNELS = {
    "zero": StepKernel.constant(1, 0),
    "one": StepKernel.constant(1, 1),
    "sixteenths": StepKernel(
        2,
        [[[Fraction((3 + 5 * x + 2 * y + 9 * z) % 15 + 1, 16) for z in range(2)] for y in range(2)] for x in range(2)],
    ),
    "g3_with_0_1": StepKernel(
        3,
        [[[Fraction((x + 2 * y + 4 * z) % 5, 4) for z in range(3)] for y in range(3)] for x in range(3)],
    ),
}
DIGEST_GROUPS = {
    "zN:1": Group.zmod(1),
    "zN:7": Group.zmod(7),
    "zN:12": Group.zmod(12),
    "fp:2:3": Group.vector(2, 3),
    "fp:3:2": Group.vector(3, 2),
    "fp:5:2": Group.vector(5, 2),
}
DIGEST_SEEDS = (0, 1, 123456)
MASK_DIGESTS = {
    "zero|zN:1|0": "6e340b9cffb37a989ca544e6bb780a2c78901d3fb33738768511a30617afa01d",
    "zero|zN:1|1": "6e340b9cffb37a989ca544e6bb780a2c78901d3fb33738768511a30617afa01d",
    "zero|zN:1|123456": "6e340b9cffb37a989ca544e6bb780a2c78901d3fb33738768511a30617afa01d",
    "zero|zN:7|0": "837885c8f8091aeaeb9ec3c3f85a6ff470a415e610b8ba3e49f9b33c9cf9d619",
    "zero|zN:7|1": "837885c8f8091aeaeb9ec3c3f85a6ff470a415e610b8ba3e49f9b33c9cf9d619",
    "zero|zN:7|123456": "837885c8f8091aeaeb9ec3c3f85a6ff470a415e610b8ba3e49f9b33c9cf9d619",
    "zero|zN:12|0": "60daa3a5f7dbfa200f8c82840ecf5b42640b70f3b7218a4c6bbd67db542e75a4",
    "zero|zN:12|1": "60daa3a5f7dbfa200f8c82840ecf5b42640b70f3b7218a4c6bbd67db542e75a4",
    "zero|zN:12|123456": "60daa3a5f7dbfa200f8c82840ecf5b42640b70f3b7218a4c6bbd67db542e75a4",
    "zero|fp:2:3|0": "af5570f5a1810b7af78caf4bc70a660f0df51e42baf91d4de5b2328de0e83dfc",
    "zero|fp:2:3|1": "af5570f5a1810b7af78caf4bc70a660f0df51e42baf91d4de5b2328de0e83dfc",
    "zero|fp:2:3|123456": "af5570f5a1810b7af78caf4bc70a660f0df51e42baf91d4de5b2328de0e83dfc",
    "zero|fp:3:2|0": "71b6c1d53832f789a7f2435a7c629245fa3761ad8487775ebf4957330213a706",
    "zero|fp:3:2|1": "71b6c1d53832f789a7f2435a7c629245fa3761ad8487775ebf4957330213a706",
    "zero|fp:3:2|123456": "71b6c1d53832f789a7f2435a7c629245fa3761ad8487775ebf4957330213a706",
    "zero|fp:5:2|0": "41681f90ae14d87dee5d37d19500fc21d85c2b3e7b0dd697a27c36d03e3606ba",
    "zero|fp:5:2|1": "41681f90ae14d87dee5d37d19500fc21d85c2b3e7b0dd697a27c36d03e3606ba",
    "zero|fp:5:2|123456": "41681f90ae14d87dee5d37d19500fc21d85c2b3e7b0dd697a27c36d03e3606ba",
    "one|zN:1|0": "4bf5122f344554c53bde2ebb8cd2b7e3d1600ad631c385a5d7cce23c7785459a",
    "one|zN:1|1": "4bf5122f344554c53bde2ebb8cd2b7e3d1600ad631c385a5d7cce23c7785459a",
    "one|zN:1|123456": "4bf5122f344554c53bde2ebb8cd2b7e3d1600ad631c385a5d7cce23c7785459a",
    "one|zN:7|0": "feade707989318c8de1dd3359b413ad30b2aef703b02cb691cbe4fb86d8d605c",
    "one|zN:7|1": "feade707989318c8de1dd3359b413ad30b2aef703b02cb691cbe4fb86d8d605c",
    "one|zN:7|123456": "feade707989318c8de1dd3359b413ad30b2aef703b02cb691cbe4fb86d8d605c",
    "one|zN:12|0": "6acf95f515743e1c0485d811685cbf247857ba14c40318f2142915fe89a666f6",
    "one|zN:12|1": "6acf95f515743e1c0485d811685cbf247857ba14c40318f2142915fe89a666f6",
    "one|zN:12|123456": "6acf95f515743e1c0485d811685cbf247857ba14c40318f2142915fe89a666f6",
    "one|fp:2:3|0": "12a3ae445661ce5dee78d0650d33362dec29c4f82af05e7e57fb595bbbacf0ca",
    "one|fp:2:3|1": "12a3ae445661ce5dee78d0650d33362dec29c4f82af05e7e57fb595bbbacf0ca",
    "one|fp:2:3|123456": "12a3ae445661ce5dee78d0650d33362dec29c4f82af05e7e57fb595bbbacf0ca",
    "one|fp:3:2|0": "71c85e95083a589be3ffa3c255494a5df9832df2dfe6acef49d341a58be39032",
    "one|fp:3:2|1": "71c85e95083a589be3ffa3c255494a5df9832df2dfe6acef49d341a58be39032",
    "one|fp:3:2|123456": "71c85e95083a589be3ffa3c255494a5df9832df2dfe6acef49d341a58be39032",
    "one|fp:5:2|0": "44979685b574becc2685c3ca7520c919fa545b7c3d03deeb4984b5ce7f20ed5a",
    "one|fp:5:2|1": "44979685b574becc2685c3ca7520c919fa545b7c3d03deeb4984b5ce7f20ed5a",
    "one|fp:5:2|123456": "44979685b574becc2685c3ca7520c919fa545b7c3d03deeb4984b5ce7f20ed5a",
    "sixteenths|zN:1|0": "6e340b9cffb37a989ca544e6bb780a2c78901d3fb33738768511a30617afa01d",
    "sixteenths|zN:1|1": "4bf5122f344554c53bde2ebb8cd2b7e3d1600ad631c385a5d7cce23c7785459a",
    "sixteenths|zN:1|123456": "4bf5122f344554c53bde2ebb8cd2b7e3d1600ad631c385a5d7cce23c7785459a",
    "sixteenths|zN:7|0": "67df156aae4949e607a1b638a03023b47d56e83123559bd7310abc89c6848f58",
    "sixteenths|zN:7|1": "ead338913c3f51cf58a2c1fe4d6a9c7e9cf25d74e2535ab5b67d9c0a37eab939",
    "sixteenths|zN:7|123456": "26715a083859f063fcfcdec4ee704e186d334ed6b1e5cb5b1bc0d14716c80b24",
    "sixteenths|zN:12|0": "64b5b1999db9735c305d3124cf000753fb94a2a8547aed5808253bdab3dbb050",
    "sixteenths|zN:12|1": "6a218800031e9fe5615230367b6e382a6350e48da703be72ec3906d4e5778131",
    "sixteenths|zN:12|123456": "e23ba8506fc753a31f7dc92c19aea83a7f3177e0b2273560b34b45704076b9b9",
    "sixteenths|fp:2:3|0": "70fbc7f102933265c56d2602dabd38435ddc9f9fc52441423902d590e6d89bcf",
    "sixteenths|fp:2:3|1": "2d6e07727fe77406524c1d683055dfd389f96fc3515acce1985d6734fe3e820b",
    "sixteenths|fp:2:3|123456": "f9ddefd222b4df7cc65732e64630613792eeeff42a24b445d39cb92baee7879d",
    "sixteenths|fp:3:2|0": "72d6733a64b0506b3ffa113676035634fcd09dd55a1ef84cdafbb240275348bd",
    "sixteenths|fp:3:2|1": "46db9fc2a1dbc760d16f1dfaafeb642f093128c2e25d61d877b9d4b16553f6a9",
    "sixteenths|fp:3:2|123456": "69d7c75f80ac25d8a57161f8f35d16f6c774ea4826e1333db2eb0a60a78c3ae9",
    "sixteenths|fp:5:2|0": "5f9fbfaf4147ffee49d6cde01215a454c0ed51bfd06c779f889765b586017bee",
    "sixteenths|fp:5:2|1": "c6c7c04a90633558fdb3fde4c820adcfadd7f60828b5517e9a409c6ca0248a34",
    "sixteenths|fp:5:2|123456": "8bb4f8ed0ade7bd7f9574729c5e9f2b18fcaeff0956de3000cd038b991704489",
    "g3_with_0_1|zN:1|0": "6e340b9cffb37a989ca544e6bb780a2c78901d3fb33738768511a30617afa01d",
    "g3_with_0_1|zN:1|1": "4bf5122f344554c53bde2ebb8cd2b7e3d1600ad631c385a5d7cce23c7785459a",
    "g3_with_0_1|zN:1|123456": "4bf5122f344554c53bde2ebb8cd2b7e3d1600ad631c385a5d7cce23c7785459a",
    "g3_with_0_1|zN:7|0": "33a5c8c7d7707dfead5d500cdc0d857d458cd17331beeddfad6506e309f81392",
    "g3_with_0_1|zN:7|1": "1d7412e1b3aa81c007b009519df6eded64c0899cec02f66897ec700fff6fe13b",
    "g3_with_0_1|zN:7|123456": "0186284702243ceb3a9a4a4a9af98e65c7c92e74ce74e54dde3944915be0345f",
    "g3_with_0_1|zN:12|0": "fda05ddbbf06b6fd12172a420c36cdef5fa18d395f0b98ebc5e50be490403408",
    "g3_with_0_1|zN:12|1": "324f9ad3aa1ee03c206010adb46cce1da9cdc033a31a9d3f0656fe2fa80444ef",
    "g3_with_0_1|zN:12|123456": "bd59a5cb510e251ad5633d7102a57926b59aef143696fa66e4f69a52f803fae3",
    "g3_with_0_1|fp:2:3|0": "84b9d5054880a17e4febb3c9739f67a68d5ea40a4333e1d69ef4ca1a88db4524",
    "g3_with_0_1|fp:2:3|1": "7117e7ea4cf58b78da8be8eecfeb48f1a8a3d60a137e879ecf58c647e326d4ec",
    "g3_with_0_1|fp:2:3|123456": "c22d94662be1e4597f85ad3d0cc2cab5e82518d8a5ac1a5e00f763fa565a681a",
    "g3_with_0_1|fp:3:2|0": "3690a375b376b850a269be919278ed7c044424b725321d0e180ca73024a783ca",
    "g3_with_0_1|fp:3:2|1": "5c6315473e9e6bc18510a9a49bdddf10c107c30044d6129134ce2f4ec21e0915",
    "g3_with_0_1|fp:3:2|123456": "92ca4182e3b2655dacfa798de1fe12b19210db7c9098e0effe90c773dcaf2517",
    "g3_with_0_1|fp:5:2|0": "df20a76291f8c13f7759e89af2dca9a41d9a13d8496ba689fcb4204e187ef0ac",
    "g3_with_0_1|fp:5:2|1": "f28722e42689a6394cab12c792ca9b0f90840b82263e74d6a36d9a381fc8fc74",
    "g3_with_0_1|fp:5:2|123456": "aa5a1ff5ea8349e61a2c97245534e5fc5c7ff3c6fb94b52b047af393939a8961",
}


def _digest_cases():
    for kname, w in DIGEST_KERNELS.items():
        for gname, group in DIGEST_GROUPS.items():
            for seed in DIGEST_SEEDS:
                yield f"{kname}|{gname}|{seed}", (w, group, seed)


def _mask_digest(pairs):
    return hashlib.sha256(pairs.packed()).hexdigest()


def _bits(pairs):
    """The set as one int, bit f pair f: the oracle's form."""
    return int.from_bytes(pairs.packed(), "little")


def test_sampled_masks_match_frozen_digests():
    cases = dict(_digest_cases())
    assert cases.keys() == MASK_DIGESTS.keys()
    for key, (w, group, seed) in cases.items():
        assert _mask_digest(sample_mandache(w, group, seed)) == MASK_DIGESTS[key], key


def test_sampler_matches_key_string_oracle():
    for key, (w, group, seed) in _digest_cases():
        assert _bits(sample_mandache(w, group, seed)) == mandache_oracle(w, group.kind, group.params, seed), key


# Kernel values whose coin limit ceil(value * 2^64) is exact (1/2, 3/4), is 1
# (only the coin 0 is below 2^-70) or is 2^64 (every coin is below 1 - 2^-70).
EDGE_VALUES = (Fraction(1, 2), Fraction(3, 4), Fraction(1, 2**70), 1 - Fraction(1, 2**70))
EDGE_GROUPS = (Group.zmod(12), Group.vector(3, 2))


def _coin(seed, group, a, b):
    key = f"{seed}|INC|{group.format_element(group.element(a))}|{group.format_element(group.element(b))}"
    return int.from_bytes(hashlib.sha256(key.encode()).digest()[:8], "big")


@pytest.mark.parametrize("group", [Group.zmod(1), Group.zmod(2), Group.zmod(7), Group.vector(2, 4), Group.vector(3, 3), Group.vector(5, 2)], ids=Group.label)
def test_neg_sum_rows_are_every_row_of_the_table_once(group):
    # rows come in Gray order, each from the one before by slices
    names = [group.format_element(e) for e in group.elements()]
    rows = list(_neg_sum_rows(group, names))
    assert sorted(a for a, _ in rows) == list(range(group.order))
    for a, row in rows:
        ea = group.element(a)
        assert row == [group.format_element(_neg_sum(group, ea, eb)) for eb in group.elements()], a


def _neg_sum(group, x, y):
    if group.kind == "zN":
        return -(x + y)
    return tuple(-(u + v) for u, v in zip(x, y))


def test_coin_limits_at_the_edges_match_the_oracle():
    assert [_coin_limit(v) for v in EDGE_VALUES] == [2**63, 3 * 2**62, 1, 2**64]
    assert (_coin_limit(Fraction(0)), _coin_limit(Fraction(1)), _coin_limit(Fraction(1, 3))) == (0, 2**64, 2**64 // 3 + 1)
    w = StepKernel(2, [[[EDGE_VALUES[(x + 2 * y + 3 * z) % 4] for z in range(2)] for y in range(2)] for x in range(2)])
    for group in EDGE_GROUPS:
        for seed in (0, 5, 77):
            assert _bits(sample_mandache(w, group, seed)) == mandache_oracle(w, group.kind, group.params, seed)


def test_a_coin_equal_to_its_limit_is_excluded():
    seed = 9
    for group in EDGE_GROUPS:
        a, b = 5, 7
        coin = _coin(seed, group, a, b)
        bit = 1 << (a * group.order + b)
        for limit, included in ((coin, False), (coin + 1, True)):
            w = StepKernel.constant(1, Fraction(limit, 2**64))
            assert _coin_limit(w.values[0][0][0]) == limit
            mask = _bits(sample_mandache(w, group, seed))
            assert bool(mask & bit) is included, (group.label(), limit)
            assert mask == mandache_oracle(w, group.kind, group.params, seed)

"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` (or execute this file
directly) to see the per-criterion lines.  Budgets are wall-clock seconds
from the criteria; every numeric check is exact or carries its stated
statistical tolerance.
"""

import itertools
import random
import time
from fractions import Fraction
from math import gcd, lcm

from cornerforge.avoiders import (
    build_corner_avoider,
    check_corner_transfer,
    f_quad,
    verify_corner_avoidance,
)
from cornerforge.behrend import (
    RELATION_SUM3,
    behrend_qc_free,
    behrend_sum_free,
    find_qc_witness,
    find_relation_witness,
    is_qc,
    qc_coefficients,
)
from cornerforge.contfrac import build_alpha_hard, verify_alpha
from cornerforge.diamond import diamond_free_from_ap_free, triangle_hypergraph, verify_diamond_free
from cornerforge.hypergraph import (
    Hypergraph,
    StepKernel,
    edge_density,
    hom_count,
    kforce_density,
    kforce_motif,
    triforce_weighted,
)
from cornerforge.mandache import mandache_report
from cornerforge.patterns import (
    GridSet,
    Group,
    GroupSet,
    Pattern,
    _grid_hits,
    spectrum,
)
from oracles import corner3_count_oracle, corner_count_oracle, grid_count_oracle, triforce_weighted_oracle

_results = []


def _report(number, label, ok, detail, elapsed, budget):
    status = "PASS" if ok else "FAIL"
    line = f"[{status}] criterion {number} ({label}): {detail} ({elapsed:.1f}s < {budget:.0f}s)"
    print(line)
    _results.append(line)
    assert ok, line
    assert elapsed < budget, line


def test_criterion_1_identity_suite():
    start = time.perf_counter()
    rng = random.Random(101)
    checked = 0
    for _ in range(100_000):
        x, y, z, d = (rng.randint(-(10**9), 10**9) for _ in range(4))
        assert f_quad(x + d, y, z) + f_quad(x, y + d, z) + f_quad(x, y, z + d) == 3 * f_quad(x, y, z)
        checked += 1
    for _ in range(10_000):
        a1, a2, a3, n, d = (rng.randint(-(10**6), 10**6) for _ in range(5))
        lhs = 2 * (a1 - a2) * (a2 - a3) * (a3 - a1) * n * d
        rhs = (
            (a2**2 - a3**2) * (n + d * a1) ** 2
            + (a3**2 - a1**2) * (n + d * a2) ** 2
            + (a1**2 - a2**2) * (n + d * a3) ** 2
        )
        assert lhs == rhs
        checked += 1
    elapsed = time.perf_counter() - start
    _report(1, "identity suite", checked == 110_000, f"{checked} identities exact", elapsed, 5.0)


def test_criterion_2_qc_machinery():
    start = time.perf_counter()
    rng = random.Random(102)
    sys5 = qc_coefficients((0, 1, 2, 3, 4))
    base = (-1, 3, -3, 1)
    proportional = all(
        row[0] * base[1] == row[1] * base[0]
        and row == tuple(row[0] // base[0] * b for b in base)
        for row in sys5.gamma
    )
    ok = proportional
    for _ in range(200):
        p0 = rng.randint(-100, 100)
        p1, p2 = rng.randint(-100, 100), rng.randint(-100, 100)
        if p1 == 0 and p2 == 0:
            p1 = 1
        values = tuple(p0 + p1 * t + p2 * t * t for t in (0, 1, 2, 3, 4))
        ok &= is_qc(sys5, values)
    for _ in range(200):
        constant = (rng.randint(-100, 100),) * 5
        ok &= not is_qc(sys5, constant)
        p0, p1, p2 = rng.randint(-100, 100), rng.randint(1, 100), rng.randint(-100, 100)
        values = list(p0 + p1 * t + p2 * t * t for t in (0, 1, 2, 3, 4))
        values[rng.randrange(5)] += rng.choice([-2, -1, 1, 2])
        ok &= not is_qc(sys5, tuple(values))
    elapsed = time.perf_counter() - start
    _report(2, "QC machinery", ok, "rows (-1,3,-3,1); 600 classifications correct", elapsed, 2.0)


def test_criterion_3_behrend_verifiers():
    start = time.perf_counter()
    ok = True
    sizes = []
    for length in (8, 64, 512, 4096):
        out = behrend_sum_free(length)
        ok &= find_relation_witness(out.members, RELATION_SUM3) is None
        ok &= Fraction(len(out)) >= out.params.pigeonhole_bound()
        sizes.append(len(out))
    a = (0, 1, 2, 3, 4)
    sys5 = qc_coefficients(a)
    for length in (64, 256, 1024):
        out = behrend_qc_free(a, length)
        ok &= find_qc_witness(sys5, out.members) is None
        ok &= Fraction(len(out)) >= out.params.pigeonhole_bound()
        sizes.append(len(out))
    elapsed = time.perf_counter() - start
    _report(3, "solution-free sets", ok, f"7 sets verified, sizes {sizes}", elapsed, 60.0)


def test_criterion_4_continued_fractions():
    start = time.perf_counter()
    seq = build_alpha_hard(16, 2)
    modulus = lcm(*range(1, 17))
    ok = True
    for i in range(seq.start_index, seq.start_index + 5):
        check = verify_alpha(seq, i)
        ok &= gcd(check.q, modulus) == 1
        ok &= check.smooth_ok and check.interval_ok and check.approx_ok and check.guaranteed
    elapsed = time.perf_counter() - start
    _report(
        4,
        "rough denominators",
        ok,
        f"5 approximants from i={seq.start_index} verified (q up to ~1e{len(str(check.q)) - 1})",
        elapsed,
        10.0,
    )


def _szekeres(limit):
    out = []
    for v in range(limit):
        t = v
        while t:
            t, r = divmod(t, 3)
            if r == 2:
                break
        else:
            out.append(v)
    return out


def test_criterion_5_density_identities():
    start = time.perf_counter()
    cases = [
        ({0}, 5),
        ({1}, 5),
        ({0, 1}, 5),
        (set(_szekeres(13)), 37),
        (set(_szekeres(33)), 97),  # 12 members, embedded below 97/3: no wraparound
    ]
    ok = True
    checked = 0
    for members, modulus in cases:
        graph = diamond_free_from_ap_free(members, modulus)
        ok &= verify_diamond_free(graph) is True
        h = triangle_hypergraph(graph)
        t = len(h.edges)
        n = 3 * modulus
        value = kforce_density(h)
        ok &= value == Fraction(6 * t, n**6)
        d = Fraction(graph.edge_count(), n**2)
        ok &= value == edge_density(h) ** 4 / (8 * d**3)
        checked += 1
    elapsed = time.perf_counter() - start
    _report(5, "density identities", ok, f"{checked} constructions, exact rationals", elapsed, 30.0)


def test_criterion_6_hom_count_equivalence():
    start = time.perf_counter()
    rng = random.Random(106)
    ok = True
    for _ in range(50):
        k = rng.choice([3, 4])
        n = rng.randint(k, 8)
        density = rng.uniform(0.2, 0.7)
        edges = frozenset(
            frozenset(e) for e in itertools.combinations(range(n), k) if rng.random() < density
        )
        h = Hypergraph(k, n, edges)
        ok &= kforce_density(h) == Fraction(hom_count(kforce_motif(k), h), n ** (2 * k))
    for _ in range(20):
        g = rng.choice([1, 2, 3])
        w = StepKernel(
            g,
            [
                [[Fraction(rng.randint(0, 16), 16) for _ in range(g)] for _ in range(g)]
                for _ in range(g)
            ],
        )
        ok &= triforce_weighted(w) == triforce_weighted_oracle(w)
    elapsed = time.perf_counter() - start
    _report(6, "hom-count equivalence", ok, "50 hypergraphs + 20 kernels, exact", elapsed, 60.0)


def test_criterion_7_avoider_chain():
    start = time.perf_counter()
    avoider = build_corner_avoider(0.25, length=8, q_max=500)
    grid = avoider.materialize()
    n = grid.side
    assert n <= 500
    report = verify_corner_avoidance(avoider, grid)
    # the report checks the transfer norm for every corner's (a1 - a2, s)
    # class; the norm depends only on that pair, so this covers every
    # brute-force-found quadruple
    transfer_ok = all(r[4] for r in report.rows)
    ceiling = Fraction(14 * n**3, avoider.system.length)
    max_d, max_count = report.max_count()
    bound_ok = all(Fraction(r[1]) <= ceiling for r in report.rows)
    rational_ok = all(r[5] for r in report.rows)
    # cross-check a handful of per-d counts, the busiest ones included,
    # against the member-driven oracle
    busiest = [r[0] for r in sorted(report.rows, key=lambda r: -r[1])[:5] if r[1]]
    picked = {report.rows[i][0] for i in (0, 1, 10, 50, len(report.rows) // 2, len(report.rows) - 1)}
    oracle = corner3_count_oracle(set(grid), sorted(picked | set(busiest)))
    counts = {r[0]: r[1] for r in report.rows}
    agree = all(counts[d] == c for d, c in oracle.items())
    # spot-check individual quadruples end to end, one anchor per busy d
    # taken from the kernel's hit chunks (slot in busiest, 1-based anchor)
    first_anchor = {}
    for slots, anchors in _grid_hits(grid, Pattern.corner(3), busiest):
        for slot, anchor in zip(slots.tolist(), anchors.tolist()):
            first_anchor.setdefault(busiest[slot], tuple(anchor))
    assert sorted(first_anchor) == sorted(busiest)
    spot = 0
    for d, (n1, n2, n3) in first_anchor.items():
        quad = [(n1, n2, n3), (n1 + d, n2, n3), (n1, n2 + d, n3), (n1, n2, n3 + d)]
        assert all(p in grid for p in quad), (d, quad)
        assert check_corner_transfer(avoider.system, avoider.alpha, quad[0], d)
        spot += 1
    elapsed = time.perf_counter() - start
    _report(
        7,
        "corner avoider chain",
        transfer_ok and bound_ok and rational_ok and agree,
        f"N={n}, max count {max_count} at d={max_d}, ceiling {float(ceiling):.0f}, {spot} quadruples spot-checked",
        elapsed,
        600.0,
    )


def test_criterion_8_mandache_expectation():
    start = time.perf_counter()
    rng = random.Random(108)
    group = Group.vector(3, 4)
    kernels = [
        StepKernel.constant(1, Fraction(1, 2)),
        StepKernel.indicator(2, (1, 0, 1)),
        StepKernel(
            2,
            [[[Fraction(rng.randint(0, 16), 16) for _ in range(2)] for _ in range(2)] for _ in range(2)],
        ),
    ]
    ok = True
    details = []
    for w in kernels:
        report = mandache_report(w, group, seeds=range(200))
        grand = float(report.grand_mean())
        se = report.standard_error()
        target = float(triforce_weighted(w))
        deviation = abs(grand - target)
        ok &= deviation < max(4 * se, 1e-12)
        details.append(f"{deviation / se if se else 0:.2f}se")
    elapsed = time.perf_counter() - start
    _report(8, "sampled expectation", ok, f"3 kernels within 4 standard errors {details}", elapsed, 300.0)


def test_criterion_9_spectrum_oracle():
    start = time.perf_counter()
    rng = random.Random(109)
    ok = True
    group_choices = [
        Group.zmod(81),
        Group.vector(3, 4),
        Group.zmod(7),
        Group.vector(2, 5),
        Group.zmod(24),
        Group.vector(5, 2),
    ]
    for idx in range(20):
        group = group_choices[idx % len(group_choices)]
        density = rng.uniform(0.1, 0.6)
        members = [
            (x, y) for x in group.elements() for y in group.elements() if rng.random() < density
        ]
        pairs = GroupSet(group, members)
        spec = spectrum(pairs)
        for d, count in spec.counts.items():
            ok &= count == corner_count_oracle(set(members), group, d)
    for idx in range(20):
        dim = rng.randint(1, 3)
        side = rng.randint(2, 16)
        members = [
            p
            for p in itertools.product(range(1, side + 1), repeat=dim)
            if rng.random() < rng.uniform(0.2, 0.7)
        ]
        grid = GridSet(dim, side, members)
        pattern = Pattern.corner(dim)
        spec = spectrum(grid, pattern)
        for d, count in spec.counts.items():
            ok &= count == grid_count_oracle(set(members), dim, side, pattern.points, d)
    elapsed = time.perf_counter() - start
    _report(9, "spectrum vs naive loops", ok, "20 group + 20 grid sets, exact", elapsed, 60.0)


if __name__ == "__main__":
    failures = 0
    for name, fn in sorted(globals().items()):
        if name.startswith("test_criterion"):
            try:
                fn()
            except AssertionError as exc:
                failures += 1
                print(f"FAILED {name}: {exc}")
    raise SystemExit(1 if failures else 0)

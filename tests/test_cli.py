import itertools
import shlex
import sys
import time
import json
import math
from fractions import Fraction
from pathlib import Path

import pytest

from cornerforge import avoiders
from cornerforge.behrend import behrend_3ap_free, is_qc, qc_coefficients
from cornerforge.cli import build_parser, main
from cornerforge.diamond import TripartiteGraph, diamond_free_from_ap_free
from cornerforge.formats import read_grid_set, read_residues, write_grid_set, write_residues, write_tripartite
from cornerforge.patterns import GridSet
from oracles import corner3_count_oracle


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_sumfree_then_relationfree_round_trip(tmp_path, capsys):
    out = tmp_path / "lam.set"
    code, _, _ = run(capsys, "construct", "sumfree", "--length", "64", "-o", str(out))
    assert code == 0
    assert (tmp_path / "lam.set.params.json").exists()
    code, stdout, _ = run(capsys, "verify", "relationfree", "--relation", "1,1,1,-3", "--set", str(out))
    assert code == 0
    assert json.loads(stdout)["relation_free"] is True


def test_relationfree_failure_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.set"
    bad.write_text("dim 1 side 8\n1\n2\n3\n")  # residues {0,1,2} contain a 3-AP
    code, stdout, _ = run(capsys, "verify", "relationfree", "--relation", "1,-2,1", "--set", str(bad))
    assert code == 2
    payload = json.loads(stdout)
    assert payload["verified"] is False
    assert len(payload["witness"]) == 3


def test_verify_relationfree_fails_on_an_added_residue(tmp_path, capsys):
    out = tmp_path / "lam.set"
    assert run(capsys, "construct", "sumfree", "--length", "256", "-o", str(out))[0] == 0
    assert run(capsys, "verify", "relationfree", "--relation", "1,1,1,-3", "--set", str(out))[0] == 0
    with open(out) as fh:
        members, length = read_residues(fh)
    assert len(members) >= 2
    # z = 3w - x - y completes x + y + z = 3w with members x, y and w
    added = min(
        z for x, y, w in itertools.product(members, repeat=3) if 0 <= (z := 3 * w - x - y) < length and z not in members
    )
    with open(out, "w") as fh:
        write_residues(fh, members | {added}, length)
    code, stdout, _ = run(capsys, "verify", "relationfree", "--relation", "1,1,1,-3", "--set", str(out))
    assert code == 2
    witness = json.loads(stdout)["witness"]
    assert set(witness) <= members | {added} and len(set(witness)) > 1
    assert sum(c * v for c, v in zip((1, 1, 1, -3), witness)) == 0


def test_verify_diamondfree_fails_on_an_edge_closing_a_second_triangle(tmp_path, capsys):
    ap_free = sorted(behrend_3ap_free(1024).members)
    assert len(ap_free) >= 2
    n = 2 * ap_free[-1] + 1  # odd, and past every integer 3-AP's wrap
    graph = diamond_free_from_ap_free(ap_free, n)
    path = tmp_path / "g.graph"
    with open(path, "w") as fh:
        write_tripartite(fh, graph)
    assert run(capsys, "verify", "diamondfree", "--graph", str(path))[0] == 0
    # XZ (0, a + b) closes (0, a, a + b) and (0, b, a + b): each XY and YZ
    # edge of those lies in a second triangle, the new edge in two
    a, b = ap_free[:2]
    with open(path, "w") as fh:
        write_tripartite(fh, TripartiteGraph(n, graph.xy, graph.yz, graph.xz | {(0, a + b)}))
    code, stdout, _ = run(capsys, "verify", "diamondfree", "--graph", str(path))
    assert code == 2
    witness = json.loads(stdout)["witness"]
    closed = {("xy", (0, a)), ("xy", (0, b)), ("yz", (a, a + b)), ("yz", (b, a + b)), ("xz", (0, a + b))}
    assert (witness["family"], tuple(witness["edge"])) in closed and witness["triangles"] == 2


def test_qcfree_construct_and_verify(tmp_path, capsys):
    out = tmp_path / "qc.set"
    code, _, _ = run(capsys, "construct", "qcfree", "--a", "0,1,2,3,4", "--length", "256", "-o", str(out))
    assert code == 0
    code, stdout, _ = run(capsys, "verify", "qcfree", "--a", "0,1,2,3,4", "--set", str(out))
    assert code == 0


def test_verify_qcfree_fails_on_an_added_residue(tmp_path, capsys):
    out = tmp_path / "qc.set"
    code, _, _ = run(capsys, "construct", "qcfree", "--a", "0,1,2,3,4", "--length", "1024", "-o", str(out))
    assert code == 0
    with open(out) as fh:
        members, length = read_residues(fh)
    assert members == {1, 32}
    # 31(x - 2)^2 + 1 takes the values 125, 32, 1, 32, 125 at x = 0..4
    with open(out, "w") as fh:
        write_residues(fh, members | {125}, length)
    code, stdout, _ = run(capsys, "verify", "qcfree", "--a", "0,1,2,3,4", "--set", str(out))
    assert code == 2
    payload = json.loads(stdout)
    assert payload["verified"] is False
    witness = payload["witness"]
    assert set(witness) <= {1, 32, 125} and is_qc(qc_coefficients((0, 1, 2, 3, 4)), witness)


def test_spectrum_csv_full_grid(tmp_path, capsys):
    grid = tmp_path / "full.set"
    lines = ["dim 3 side 4"]
    lines += [f"{x} {y} {z}" for x in range(1, 5) for y in range(1, 5) for z in range(1, 5)]
    grid.write_text("\n".join(lines) + "\n")
    code, stdout, _ = run(capsys, "count", "spectrum", "--set", str(grid), "--pattern", "corner3", "--format", "csv")
    assert code == 0
    rows = dict(
        line.split(",") for line in stdout.strip().splitlines()[1:]
    )
    assert rows["1"] == "27" and rows["-3"] == "1"


def test_diamondfree_failure_on_complete_tripartite(tmp_path, capsys):
    graph = tmp_path / "k222.graph"
    lines = ["tripartite 2"]
    for fam in ("XY", "YZ", "XZ"):
        lines += [f"{fam} {u} {v}" for u in range(2) for v in range(2)]
    graph.write_text("\n".join(lines) + "\n")
    code, stdout, _ = run(capsys, "verify", "diamondfree", "--graph", str(graph))
    assert code == 2
    payload = json.loads(stdout)
    assert payload["witness"]["triangles"] == 2


def test_malformed_input_exits_1_with_position(tmp_path, capsys):
    bad = tmp_path / "bad.set"
    bad.write_text("dim 2 side 4\n1 x\n")
    code, _, stderr = run(capsys, "count", "density", "--set", str(bad))
    assert code == 1
    assert f"{bad}:2:3" in stderr


@pytest.mark.parametrize(
    "header, column",
    [("dim 3 side 100000", 12), ("dim 40 side 2", 13), ("group fp 3 20", 12), ("group zN 30000", 10)],
)
def test_oversized_header_exits_1_before_allocating(tmp_path, capsys, header, column):
    big = tmp_path / "big.set"
    big.write_text(header + "\n")
    code, _, stderr = run(capsys, "count", "density", "--set", str(big))
    assert code == 1
    assert f"{big}:1:{column}: " in stderr
    assert "400000000-cell limit" in stderr


@pytest.mark.parametrize(
    "argv", [["verify", "relationfree", "--relation", "1,-2,1"], ["verify", "qcfree", "--a", "0,1,2,3,4"]]
)
def test_oversized_residue_header_exits_1_naming_the_limit(tmp_path, capsys, argv):
    big = tmp_path / "big.set"
    big.write_text("dim 1 side 400000001\n1\n")
    code, stdout, stderr = run(capsys, *argv, "--set", str(big))
    assert code == 1 and stdout == ""
    assert stderr.strip() == f"error: {big}:1:12: side 400000001 in dim 1 exceeds the 400000000-cell limit"


@pytest.mark.parametrize(
    "argv",
    [
        ["behrend"],
        ["sumfree"],
        ["qcfree", "--a", "0,1,2,3,4"],
        ["corner3d", "--delta", "0.25"],
        ["fivepoint", "--a", "0,1,2,3,4", "--delta", "0.25"],
    ],
    ids=lambda argv: argv[0],
)
def test_an_oversized_length_exits_1_within_a_second(tmp_path, capsys, argv):
    # a residue set past the reader's limit could not be read back, and its
    # digit vectors alone would run to 10^8 and more
    out = tmp_path / "out.set"
    start = time.perf_counter()
    code, stdout, stderr = run(capsys, "construct", *argv, "--length", "1000000000000", "-o", str(out))
    assert time.perf_counter() - start < 1
    assert (code, stdout) == (1, "")
    assert stderr.strip() == "error: length 1000000000000 exceeds the limit of 400000000 residues"
    assert not out.exists()


@pytest.mark.parametrize(
    "header,column,message",
    [
        ("dim 0 side 5", 5, "dim must be positive, got 0"),
        ("dim 3 side 0", 12, "side must be positive, got 0"),
        ("group zN 0", 10, "modulus must be positive, got 0"),
        ("group fp 1 3", 10, "p must be prime, got 1"),
        ("group fp 4 2", 10, "p must be prime, got 4"),
    ],
)
def test_bad_header_value_exits_1_with_position(tmp_path, capsys, header, column, message):
    bad = tmp_path / "bad.set"
    bad.write_text(header + "\n")
    code, _, stderr = run(capsys, "count", "spectrum", "--set", str(bad), "--pattern", "ap3")
    assert code == 1
    assert stderr.strip() == f"error: {bad}:1:{column}: {message}"


@pytest.mark.parametrize("group", ["fp:4:2", "fp:1:3", "fp:9:1", "fp:3:0"])
def test_composite_or_degenerate_vector_group_exits_1(tmp_path, capsys, group):
    kern = tmp_path / "w.kern"
    kern.write_text("1\n1/2\n")
    out = tmp_path / "pairs.gset"
    code, _, stderr = run(capsys, "construct", "mandache", "--kernel", str(kern), "--group", group, "-o", str(out))
    assert code == 1
    assert "need prime p and exponent n >= 1" in stderr
    assert not out.exists()


def test_lift_past_the_cell_limit_exits_1(tmp_path, capsys, monkeypatch, cell_limit):
    # a 2-d five-point pattern (C = 7, weight 56) over a base of side 560
    # lifts to side 10: 100 cells, one more than the patched limit
    base = tmp_path / "base.set"
    base.write_text("dim 1 side 560\n" + "".join(f"{v}\n" for v in range(1, 561, 3)))
    lift = avoiders.lift_avoider

    def lift_under_99_cells(pattern, grid):
        cell_limit(99)  # once the 560-cell base is read
        return lift(pattern, grid)

    monkeypatch.setattr(avoiders, "lift_avoider", lift_under_99_cells)
    out = tmp_path / "lifted.set"
    pattern = "points:0,0;1,0;0,1;1,1;2,0"
    code, _, stderr = run(capsys, "construct", "lift", "--pattern", pattern, "--base", str(base), "-o", str(out))
    assert code == 1
    assert stderr.strip() == "error: lifted grid of side 10 in dim 2 exceeds the 99-cell limit"
    assert not out.exists()


def test_spectrum_threads_flag_is_gone(tmp_path, capsys):
    grid = tmp_path / "g.set"
    grid.write_text("dim 1 side 4\n1\n2\n")
    with pytest.raises(SystemExit) as exc:
        main(["count", "spectrum", "--threads", "2", "--set", str(grid), "--pattern", "ap3"])
    assert exc.value.code == 1


def test_alpha_construct_and_verify(tmp_path, capsys):
    out = tmp_path / "alpha.json"
    code, _, _ = run(capsys, "construct", "alpha", "--m", "5", "--r", "3/2", "-o", str(out))
    assert code == 0
    code, stdout, _ = run(capsys, "verify", "alpha", "--alpha", str(out))
    assert code == 0
    checks = json.loads(stdout)["checks"]
    assert len(checks) == 5 and all(c["smooth"] for c in checks)


def test_verify_alpha_fails_on_a_changed_scale(tmp_path, capsys):
    out = tmp_path / "alpha.json"
    code, _, _ = run(capsys, "construct", "alpha", "--m", "5", "--r", "2", "-o", str(out))
    assert code == 0
    record = json.loads(out.read_text())
    assert record["r"] == "2"
    # the quotient stream still matches x and y, but its denominators now
    # miss the growth interval r * b^i < q < 2 r * b^i for r = 3
    record["r"] = "3"
    out.write_text(json.dumps(record))
    code, stdout, _ = run(capsys, "verify", "alpha", "--alpha", str(out))
    assert code == 2
    payload = json.loads(stdout.strip().splitlines()[-1])
    assert payload["verified"] is False
    rows = payload["witness"]
    assert rows and all(row["guaranteed"] and row["interval"] is False for row in rows)


@pytest.mark.parametrize("index", [4000, 10**6])
def test_verify_alpha_refuses_an_index_past_the_integer_print_limit(tmp_path, capsys, index):
    record = tmp_path / "alpha.json"
    assert run(capsys, "construct", "alpha", "--m", "16", "--r", "2", "-o", str(record))[0] == 0
    start = time.perf_counter()
    code, stdout, stderr = run(capsys, "verify", "alpha", "--alpha", str(record), "--indices", f"5,{index}")
    assert time.perf_counter() - start < 1  # refused before any convergent is computed
    assert code == 1 and stdout == ""
    assert stderr.startswith(f"error: {record}: index {index} has a denominator of up to ")
    assert stderr.rstrip().endswith(f"digits (limit {sys.get_int_max_str_digits()})")


def test_verify_alpha_prints_the_last_index_within_the_print_limit(tmp_path, capsys):
    # m = 16, r = 2: q at index 734 has exactly 4,300 digits, at 735 4,306
    record = tmp_path / "alpha.json"
    assert run(capsys, "construct", "alpha", "--m", "16", "--r", "2", "-o", str(record))[0] == 0
    code, stdout, _ = run(capsys, "verify", "alpha", "--alpha", str(record), "--indices", "734")
    assert code == 0
    (row,) = json.loads(stdout)["checks"]
    assert row["i"] == 734 and len(str(row["q"])) == sys.get_int_max_str_digits() == 4300
    code, stdout, stderr = run(capsys, "verify", "alpha", "--alpha", str(record), "--indices", "735")
    assert code == 1 and stdout == ""
    assert stderr.strip() == f"error: {record}: index 735 has a denominator of up to 4306 digits (limit 4300)"


def test_corner3d_construct_then_verify_avoidance(tmp_path, capsys):
    out = tmp_path / "A.set"
    params = tmp_path / "A.params.json"
    code, _, stderr = run(
        capsys,
        "construct", "corner3d", "--delta", "0.25", "--length", "8", "--q-max", "80",
        "-o", str(out), "--params-out", str(params),
    )
    assert code == 0 and "density" in stderr
    report = tmp_path / "report.csv"
    code, _, stderr = run(
        capsys, "verify", "avoidance", "--set", str(out), "--params", str(params), "-o", str(report)
    )
    assert code == 0
    header, *rows = report.read_text().strip().splitlines()
    assert header == "d,count,bound,pass"
    assert all(row.endswith(",1") for row in rows)
    with open(out) as fh:
        grid = read_grid_set(fh)
    assert grid.side <= 80


def test_verify_avoidance_fails_on_an_inserted_corner(tmp_path, capsys):
    out = tmp_path / "A.set"
    params = tmp_path / "A.params.json"
    code, _, _ = run(
        capsys,
        "construct", "corner3d", "--delta", "0.25", "--length", "8", "--q-max", "80",
        "-o", str(out), "--params-out", str(params),
    )
    assert code == 0
    with open(out) as fh:
        grid = read_grid_set(fh)
    avoider = avoiders.load_avoider(params.read_text())
    n, d = grid.side, -3
    bound = Fraction(1, 9 * avoider.system.length)

    def corner(x, y, z):
        return [(x, y, z), (x + d, y, z), (x, y + d, z), (x, y, z + d)]

    # the first anchor, in lexicographic order, whose corner is not already
    # in the set and whose class 2(x - y)d breaks the transfer bound
    anchor = next(
        p
        for p in itertools.product(range(1 - d, n + 1), repeat=3)
        if not all(q in grid for q in corner(*p))
        and not avoiders._norm_below(avoider.alpha, [2 * (p[0] - p[1]) * d], bound)[0]
    )
    mutated = GridSet(3, n, list(grid) + corner(*anchor))
    with open(out, "w") as fh:
        write_grid_set(fh, mutated)
    code, stdout, _ = run(capsys, "verify", "avoidance", "--set", str(out), "--params", str(params))
    assert code == 2
    payload = json.loads(stdout.strip().splitlines()[-1])
    assert payload["verified"] is False
    assert payload["witness"] == {"d": d, "count": corner3_count_oracle(mutated, [d])[d]}


def test_verify_avoidance_fails_for_a_lambda_with_a_solution(tmp_path, capsys):
    # Lambda = {0, 1, 2} admits 0 + 1 + 2 = 3 * 1: its set breaks the
    # transfer bound first at d = 5, where it has 52 corners
    seq, i = avoiders._select_approximant(8, 128)
    avoider = avoiders.CornerAvoider(avoiders.AvoiderParams(0.25, 0.1, (0, 1, 2), i), seq)
    out, params = tmp_path / "A.set", tmp_path / "A.params.json"
    with open(out, "w") as fh:
        write_grid_set(fh, avoider.materialize())
    params.write_text(json.dumps(avoider.record()))
    code, stdout, _ = run(capsys, "verify", "avoidance", "--set", str(out), "--params", str(params))
    assert code == 2
    payload = json.loads(stdout.strip().splitlines()[-1])
    assert payload["verified"] is False
    assert payload["witness"] == {"d": 5, "count": 52}


def test_mandache_sample_and_report(tmp_path, capsys):
    kern = tmp_path / "w.kern"
    kern.write_text("1\n1/2\n")
    out = tmp_path / "pairs.gset"
    code, _, _ = run(
        capsys, "construct", "mandache", "--kernel", str(kern), "--group", "zN:5", "--seed", "7", "-o", str(out)
    )
    assert code == 0
    params = json.loads((tmp_path / "pairs.gset.params.json").read_text())
    assert params["seed"] == 7 and params["group"] == "zN 5"
    rep = tmp_path / "report.json"
    code, _, _ = run(
        capsys, "report", "mandache", "--kernel", str(kern), "--group", "fp:3:2", "--seeds", "0:12", "-o", str(rep)
    )
    assert code == 0
    payload = json.loads(rep.read_text())
    assert payload["triforce_value"] == "1/8"
    assert len(payload["per_seed"]) == 12


def test_lift_command(tmp_path, capsys):
    base = tmp_path / "base.set"
    side = (5 + 25 + 125 + 625) * 3
    members = "\n".join(str(v) for v in range(1, side + 1, 7))
    base.write_text(f"dim 1 side {side}\n{members}\n")
    out = tmp_path / "lifted.set"
    code, _, _ = run(capsys, "construct", "lift", "--pattern", "corner4", "--base", str(base), "-o", str(out))
    assert code == 0
    with open(out) as fh:
        lifted = read_grid_set(fh)
    assert lifted.dim == 4 and lifted.side == 3


def test_homs_and_triforce_counts(tmp_path, capsys):
    hg = tmp_path / "h.hg"
    hg.write_text("3 3 1\n0 1 2\n")
    code, stdout, _ = run(capsys, "count", "homs", "--motif", "triforce", "--hypergraph", str(hg))
    assert code == 0
    payload = json.loads(stdout)
    assert payload["hom_count"] == 6
    kern = tmp_path / "w.kern"
    kern.write_text("2\n" + "\n".join(["1/2 1/2"] * 4) + "\n")
    code, stdout, _ = run(capsys, "count", "triforce", "--kernel", str(kern))
    assert json.loads(stdout)["triforce"] == "1/8"


@pytest.mark.parametrize("motif", ["kforceX", "kforce", "edge", "edge3x", "kforce-3", "tri"])
def test_homs_unknown_motif_exits_1(tmp_path, capsys, motif):
    hg = tmp_path / "h.hg"
    hg.write_text("3 3 1\n0 1 2\n")
    code, _, stderr = run(capsys, "count", "homs", "--motif", motif, "--hypergraph", str(hg))
    assert code == 1
    assert stderr.strip() == f"error: unknown motif {motif!r}; use triforce, kforceK, or edgeK"


def test_homs_oversized_target_exits_1(tmp_path, capsys):
    hg = tmp_path / "big.hg"
    hg.write_text("3 100000 1\n0 1 2\n")
    code, stdout, stderr = run(capsys, "count", "homs", "--motif", "triforce", "--hypergraph", str(hg))
    assert code == 1 and not stdout
    assert stderr.strip() == "error: adjacency tensor of 100000^3 cells exceeds the 6250000-cell limit (MAX_CELLS // 64)"


@pytest.mark.parametrize(
    "motif,header,message",
    [
        ("kforce30000", "3 5 1\n0 1 2\n", "uniformity mismatch: motif 30000, target 3"),
        ("edge300000000", "3 5 1\n0 1 2\n", "uniformity mismatch: motif 300000000, target 3"),
        ("kforce30000", "30000 5 0\n", "motif too large (at most 10 vertices)"),
        ("edge300000000", "300000000 5 0\n", "motif too large (at most 10 vertices)"),
        ("kforce6", "6 7 1\n0 1 2 3 4 5\n", "motif too large (at most 10 vertices)"),
    ],
    ids=["kforce-mismatch", "edge-mismatch", "kforce-too-large", "edge-too-large", "kforce6-too-large"],
)
def test_homs_refuses_an_unusable_motif_before_building_it(tmp_path, capsys, monkeypatch, motif, header, message):
    # a k-force motif holds O(K^2) vertex slots and an edge motif O(K), so
    # building either at these K would not fit in memory
    from cornerforge import hypergraph

    def refuse(k):
        raise AssertionError(f"motif of K = {k} built")

    monkeypatch.setattr(hypergraph, "kforce_motif", refuse)
    monkeypatch.setattr(hypergraph, "single_edge_motif", refuse)
    hg = tmp_path / "h.hg"
    hg.write_text(header)
    start = time.perf_counter()
    code, stdout, stderr = run(capsys, "count", "homs", "--motif", motif, "--hypergraph", str(hg))
    assert time.perf_counter() - start < 1
    assert (code, stdout, stderr.strip()) == (1, "", f"error: {message}")


@pytest.mark.parametrize(
    "text,pattern",
    [
        ("group zN 5\n0 1\n1 2\n2 2\n3 2\n", None),
        ("group fp 2 2\n0,1 1,1\n1,1 1,1\n", None),
        ("dim 2 side 4\n1 1\n2 1\n1 2\n", "corner2"),
    ],
    ids=["zN", "fp", "grid"],
)
def test_a_set_file_led_by_comments_is_read_by_its_own_reader(tmp_path, capsys, text, pattern):
    # the kind is the first word of the first data line, as the readers see it
    plain, led = tmp_path / "plain.set", tmp_path / "led.set"
    plain.write_text(text)
    led.write_text("# a comment\n\n  # another\n" + text)
    extra = ["--pattern", pattern] if pattern else []
    for command in (["count", "density"], ["count", "spectrum", *extra]):
        outputs = [run(capsys, *command, "--set", str(path)) for path in (plain, led)]
        assert outputs[0][0] == 0 and outputs[0] == outputs[1], command


def test_spec_spelled_invocation(tmp_path, capsys):
    # --L alias and positional set path
    out = tmp_path / "lam.set"
    code, _, _ = run(capsys, "construct", "sumfree", "--L", "64", "-o", str(out))
    assert code == 0
    code, stdout, _ = run(capsys, "verify", "relationfree", "--relation", "1,1,1,-3", str(out))
    assert code == 0
    assert json.loads(stdout)["relation_free"] is True


def test_unknown_subcommand_exits_1(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["construct", "nonsense"])
    assert exc.value.code == 1


def test_kernel_with_no_cells_exits_1_with_position(tmp_path, capsys):
    kern = tmp_path / "zero.kern"
    kern.write_text("0\n")
    code, stdout, stderr = run(capsys, "count", "triforce", "--kernel", str(kern))
    assert code == 1 and not stdout
    assert stderr.strip() == f"error: {kern}:1:1: grid resolution must be positive, got 0"


BAD_RECORDS = [
    # (command, record text, extra arguments, message after "error: <path>: ")
    ("alpha", "{}", [], "missing field 'm'"),
    ("alpha", '{"m": 16}', [], "missing field 'a'"),
    ("alpha", "[1, 2]", [], "malformed record: "),
    ("alpha", "{", [], "malformed record: "),
    ("alpha", None, ["--indices=-100"], "index -100 precedes the quotient stream"),
    ("avoidance", "{}", [], "missing field 'alpha'"),
    ("avoidance", "[1, 2]", [], "malformed record: "),
    ("avoidance", None, [], "malformed record: unknown avoider form 'x3'"),
]


@pytest.mark.parametrize("command, text, extra, message", BAD_RECORDS)
def test_malformed_json_record_exits_1_with_its_path(tmp_path, capsys, command, text, extra, message):
    record = tmp_path / "record.json"
    if command == "alpha":
        if text is None:  # a well-formed sequence, asked for an index before its stream
            assert run(capsys, "construct", "alpha", "--m", "5", "--r", "2", "-o", str(record))[0] == 0
        else:
            record.write_text(text)
        argv = ["verify", "alpha", "--alpha", str(record), *extra]
    else:
        grid = tmp_path / "A.set"
        grid.write_text("dim 3 side 2\n")
        if text is None:  # a constructed record whose form no avoider has
            params = tmp_path / "built.json"
            built = tmp_path / "built.set"
            argv = ["construct", "corner3d", "--delta", "0.25", "--length", "8", "--q-max", "40"]
            assert run(capsys, *argv, "-o", str(built), "--params-out", str(params))[0] == 0
            record.write_text(params.read_text().replace('"form": "corner3d"', '"form": "x3"'))
        else:
            record.write_text(text)
        argv = ["verify", "avoidance", "--set", str(grid), "--params", str(record), *extra]
    code, stdout, stderr = run(capsys, *argv)
    assert code == 1 and stdout == ""
    assert stderr.startswith(f"error: {record}: {message}")
    assert "Traceback" not in stderr


def test_internal_index_errors_still_surface(tmp_path, capsys, monkeypatch):
    from cornerforge import contfrac

    record = tmp_path / "alpha.json"
    assert run(capsys, "construct", "alpha", "--m", "5", "--r", "2", "-o", str(record))[0] == 0

    def broken(seq, i):
        raise IndexError("internal")

    monkeypatch.setattr(contfrac, "verify_alpha", broken)  # the handler looks it up when it runs
    with pytest.raises(IndexError, match="internal"):
        main(["verify", "alpha", "--alpha", str(record)])


@pytest.mark.parametrize(
    "group",
    ["zN:abc", "fp:3:x", "fp:x:2", "zN:5:1", "fp:3", "zN", ""]
    + ["zN 7", "zN: 7", " zN:7", "zN::7", "zN:+7", "fp:3::2", "fp 3 2", "zN:7_0"],
)
@pytest.mark.parametrize("command", ["construct", "report"])
def test_mandache_unknown_group_spelling_exits_1_with_usage(tmp_path, capsys, group, command):
    kern = tmp_path / "w.kern"
    kern.write_text("1\n1/2\n")
    out = tmp_path / "out"
    extra = ["--seeds", "0:2"] if command == "report" else []
    code, _, stderr = run(capsys, command, "mandache", "--kernel", str(kern), "--group", group, *extra, "-o", str(out))
    assert code == 1
    assert stderr.strip() == f"error: unknown group {group!r}; use 'zN:<N>' or 'fp:<p>:<n>'"
    assert not out.exists()


@pytest.mark.parametrize("group, label", [("zN:30000", "zN 30000"), ("fp:3:1000000000", "fp 3 1000000000")])
@pytest.mark.parametrize("command", ["construct", "report"])
def test_mandache_refuses_groups_past_the_cell_limit_at_once(tmp_path, capsys, group, label, command):
    kern = tmp_path / "w.kern"
    kern.write_text("1\n1/2\n")
    out = tmp_path / "out"
    extra = ["--seeds", "0:2"] if command == "report" else []
    start = time.perf_counter()
    code, _, stderr = run(capsys, command, "mandache", "--kernel", str(kern), "--group", group, *extra, "-o", str(out))
    assert time.perf_counter() - start < 5  # refused before any element is named
    assert code == 1
    assert stderr.strip() == f"error: {label} x {label} exceeds the 400000000-cell limit"
    assert not out.exists()


def test_report_seeds_past_the_cell_limit_are_refused_unlisted(tmp_path, capsys, monkeypatch):
    # 10^8 seeds of 81 pairs each: listing the seeds alone would take gigabytes
    from cornerforge import mandache

    def refuse(*args):
        raise AssertionError("sampled")

    monkeypatch.setattr(mandache, "sample_mandache", refuse)
    kern = tmp_path / "w.kern"
    kern.write_text("1\n1/2\n")
    argv = ["report", "mandache", "--kernel", str(kern), "--group", "fp:3:2", "--seeds"]
    start = time.perf_counter()
    code, stdout, stderr = run(capsys, *argv, "0:100000000")
    assert time.perf_counter() - start < 1
    message = "error: 100000000 seeds x fp 3 2 x fp 3 2 exceeds the 400000000-cell limit"
    assert (code, stdout, stderr.strip()) == (1, "", message)
    for bad in ("1:2:3", "a:b"):
        code, stdout, stderr = run(capsys, *argv, bad)
        message = f"error: bad seeds {bad!r}; use 'lo:hi' or a comma list like '0,1,2'"
        assert (code, stdout, stderr.strip()) == (1, "", message)


@pytest.mark.parametrize("what", [["corner3d"], ["fivepoint", "--a", "0,1,2,3,4"]], ids=["corner3d", "fivepoint"])
def test_construct_avoider_refuses_length_0(tmp_path, capsys, what):
    # L = 0 reaches the solution-free builder, as `construct sumfree` does,
    # rather than falling back to the delta-derived default
    out = tmp_path / "A.set"
    argv = ["construct", *what, "--delta", "0.3", "--length", "0", "--q-max", "200", "-o", str(out)]
    code, stdout, stderr = run(capsys, *argv)
    assert (code, stdout, stderr.strip()) == (1, "", "error: length must be positive")
    assert not out.exists() and not (tmp_path / "A.set.params.json").exists()


@pytest.fixture(scope="module")
def corner_record(tmp_path_factory):
    """A constructed corner set of side 67 and its sidecar."""
    tmp = tmp_path_factory.mktemp("corner")
    argv = ["construct", "corner3d", "--delta", "0.25", "--length", "8", "--q-max", "80"]
    assert main([*argv, "-o", str(tmp / "A.set")]) == 0
    return tmp / "A.set", tmp / "A.set.params.json"


def test_the_sidecar_is_rebuilt_byte_for_byte_from_its_inputs(corner_record):
    grid_path, params = corner_record
    text = params.read_text()
    avoider = avoiders.load_avoider(text)
    assert json.dumps({"tool_version": "0.1.0", **avoider.record()}, indent=2) + "\n" == text
    assert list(json.loads(text)) == [
        "tool_version", "delta", "c", "L", "form", "theta", "lambda_size", "lambda", "j", "i", "p", "q", "N", "a", "alpha",
    ]


CONTRADICTIONS = [
    # (field, value written over the constructed one, message after "malformed record: ")
    ("form", "x2", "form 'x2' needs a pattern 'a'"),
    ("theta", [4, 0, 0], "'theta' is [4, 0, 0], but the inputs give [3, 0, 0]"),
    ("lambda_size", 7, "'lambda_size' is 7, but the inputs give 1"),
    ("p", 1, "'p' is 1, but the inputs give "),
    ("q", 65, "'q' is 65, but the inputs give 67"),
    ("N", 65, "'N' is 65, but the inputs give 67"),
    ("a", [0, 1, 2, 3, 4], "form 'corner3d' takes no pattern 'a'"),
    ("L", 9, "'L' is 9, but the inputs give 8"),
    ("j", 7, "'j' is 7, but the inputs give 6"),
    ("i", -9, "index -9 precedes the quotient stream"),
]


@pytest.mark.parametrize("field, value, message", CONTRADICTIONS, ids=[c[0] for c in CONTRADICTIONS])
def test_verify_avoidance_refuses_a_record_that_contradicts_itself(tmp_path, capsys, corner_record, field, value, message):
    grid, params = corner_record
    record = json.loads(params.read_text())
    assert record[field] != value
    record[field] = value
    bad = tmp_path / "bad.params.json"
    bad.write_text(json.dumps(record, indent=2))
    code, stdout, stderr = run(capsys, "verify", "avoidance", "--set", str(grid), "--params", str(bad))
    assert code == 1 and stdout == ""
    assert stderr.startswith(f"error: {bad}: malformed record: {message}")


BAD_INPUTS = [
    # (field, value written over the constructed one, message after "malformed record: "); the rules of `_build`
    ("delta", 7, "need 0 < delta < 1/2, got 7"),
    ("delta", 0, "need 0 < delta < 1/2, got 0"),
    ("c", math.inf, "need a finite c > 0, got inf"),
    ("c", -0.5, "need a finite c > 0, got -0.5"),
]


@pytest.mark.parametrize("field, value, message", BAD_INPUTS, ids=[f"{f}={v}" for f, v, _ in BAD_INPUTS])
def test_verify_avoidance_refuses_a_delta_or_c_that_construct_refuses(tmp_path, capsys, corner_record, field, value, message):
    # the derived fields do not read delta or c, so only this check sees them
    grid, params = corner_record
    record = json.loads(params.read_text())
    record[field] = value
    bad = tmp_path / "bad.params.json"
    bad.write_text(json.dumps(record, indent=2))  # an infinite c is written as Infinity
    code, stdout, stderr = run(capsys, "verify", "avoidance", "--set", str(grid), "--params", str(bad))
    assert (code, stdout, stderr.strip()) == (1, "", f"error: {bad}: malformed record: {message}")


def test_verify_avoidance_refuses_a_five_point_record(tmp_path, capsys):
    # a five-point set with its own sidecar is a valid record of the wrong form
    out = tmp_path / "F.set"
    argv = ["construct", "fivepoint", "--a", "0,1,2,3,4", "--delta", "0.25", "--length", "8", "--q-max", "600"]
    assert run(capsys, *argv, "-o", str(out))[0] == 0
    code, stdout, stderr = run(capsys, "verify", "avoidance", "--set", str(out), "--params", f"{out}.params.json")
    assert code == 1 and stdout == ""
    assert stderr.strip() == "error: corner avoidance is certified for form 'corner3d', not 'x2'"


def test_verify_avoidance_refuses_a_grid_of_another_side(tmp_path, capsys, corner_record):
    _, params = corner_record
    grid = tmp_path / "small.set"
    grid.write_text("dim 3 side 5\n1 1 1\n")
    code, stdout, stderr = run(capsys, "verify", "avoidance", "--set", str(grid), "--params", str(params))
    assert code == 1 and stdout == ""
    assert stderr.strip() == "error: expected a side-67 3-d set, got GridSet(dim=3, side=5, size=1)"


def test_verify_avoidance_refuses_a_scale_that_is_not_a_power_of_two(tmp_path, capsys, corner_record):
    # the record names the scale r = 2^j by j, so r = 3 has no record
    grid, params = corner_record
    record = json.loads(params.read_text())
    record["alpha"]["r"] = "3"
    bad = tmp_path / "bad.params.json"
    bad.write_text(json.dumps(record, indent=2))
    code, stdout, stderr = run(capsys, "verify", "avoidance", "--set", str(grid), "--params", str(bad))
    assert code == 1 and stdout == ""
    assert stderr.strip() == (
        f"error: {bad}: malformed record: alpha's scale r = 3 is not a power of two, so the record cannot name it by j"
    )


@pytest.mark.parametrize("scale", ["1e3000000", "2.5", " 2", "0", "0/1", "2/0", "-2", "3317044064679887385961981", "1" * 26])
def test_a_scale_that_is_not_plain_p_or_p_over_q_exits_1_within_a_second(tmp_path, capsys, scale):
    record = tmp_path / "alpha.json"
    assert run(capsys, "construct", "alpha", "--m", "5", "--r", "2", "-o", str(record))[0] == 0
    text = json.loads(record.read_text())
    text["r"] = scale
    record.write_text(json.dumps(text))
    refusal = f"r is {scale!r}; need p or p/q with 0 < p, q < 3317044064679887385961981"
    start = time.perf_counter()
    code, stdout, stderr = run(capsys, "verify", "alpha", "--alpha", str(record))
    assert (code, stdout, stderr.strip()) == (1, "", f"error: {record}: malformed record: {refusal}")
    out = tmp_path / "a.json"
    code, _, stderr = run(capsys, "construct", "alpha", "--m", "5", "--r", scale, "-o", str(out))
    assert (code, stderr.strip()) == (1, f"error: {refusal}")
    assert time.perf_counter() - start < 1
    assert not out.exists()


@pytest.mark.parametrize("header", ["dim 1 side 4099", "dim 3 side 4", "dim 3 side 1", "dim 2 side 4"])
@pytest.mark.parametrize("spec", ["corner30000", "ap100000000"])
def test_a_lift_spec_is_checked_against_the_base_before_it_is_built(tmp_path, capsys, header, spec):
    # corner30000 would be 30,001 points of 30,000 coordinates, and
    # ap100000000 a hundred million points; no base here lifts to either
    base = tmp_path / "base.set"
    base.write_text(header + "\n")
    out = tmp_path / "lifted.set"
    start = time.perf_counter()
    code, stdout, stderr = run(capsys, "construct", "lift", "--pattern", spec, "--base", str(base), "-o", str(out))
    assert time.perf_counter() - start < 1
    assert code == 1 and stdout == ""
    assert stderr.startswith("error: ") and "Traceback" not in stderr
    assert not out.exists()


@pytest.mark.parametrize(
    "header, spec, lifted_side",
    [("dim 1 side 780", "corner4", 1), ("dim 1 side 779", "corner4", None), ("dim 1 side 11", "ap5", 1),
     ("dim 1 side 10", "ap5", None), ("dim 3 side 4", "corner5", 4), ("dim 3 side 4", "corner6", None),
     ("dim 3 side 4", "corner2", None), ("dim 3 side 4", "ap5", None)],
)
def test_the_lift_spec_check_agrees_with_the_lift(tmp_path, capsys, cell_limit, header, spec, lifted_side):
    # at the edge of each rule: weight 5 + 25 + 125 + 625 = 780 for corner4,
    # 1 + 10 = 11 for ap5, and, under a limit of 4^5 cells, 4^5 for corner5
    cell_limit(4**5)
    base = tmp_path / "base.set"
    base.write_text(header + "\n1" + " 1" * (int(header.split()[1]) - 1) + "\n")
    out = tmp_path / "lifted.set"
    code, _, stderr = run(capsys, "construct", "lift", "--pattern", spec, "--base", str(base), "-o", str(out))
    if lifted_side is None:
        assert code == 1 and stderr.startswith("error: ") and not out.exists()
    else:
        assert code == 0
        with open(out) as fh:
            assert read_grid_set(fh).side == lifted_side


def test_construct_avoider_defaults_come_from_the_builders(tmp_path, capsys):
    # with --q-max left out, construct fivepoint picks the N the library does
    out = tmp_path / "F.set"
    code, _, stderr = run(capsys, "construct", "fivepoint", "--a", "0,1,2,3,4", "--delta", "0.25", "--length", "8", "-o", str(out))
    assert code == 0 and stderr.startswith("side 4099, ")
    built = avoiders.build_five_point_avoider((0, 1, 2, 3, 4), 0.25, length=8)
    assert json.loads((tmp_path / "F.set.params.json").read_text()) == {"tool_version": "0.1.0", **built.record()}
    for argv in (["corner3d"], ["fivepoint", "--a", "0,1,2,3,4"]):
        with pytest.raises(SystemExit) as exc:
            main(["construct", *argv, "--delta", "0.25", "--n-target", "100"])
        assert exc.value.code == 1
    assert "unrecognized arguments: --n-target 100" in capsys.readouterr().err


def test_a_huge_m_exits_1_within_a_second(tmp_path, capsys):
    record = tmp_path / "alpha.json"
    record.write_text('{"m": 10000000, "r": "2", "a": 12, "x": null, "y": null, "t": 0, "quotients_prefix": [0]}')
    start = time.perf_counter()
    code, _, stderr = run(capsys, "verify", "alpha", "--alpha", str(record))
    assert (code, stderr.strip()) == (1, f"error: {record}: malformed record: stored a does not match lcm(1..m)")
    code, _, stderr = run(capsys, "construct", "alpha", "--m", "10000000", "--r", "2", "-o", str(tmp_path / "a.json"))
    assert (code, stderr.strip()) == (1, "error: candidate beyond the certified deterministic range")
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize("spec", ["corner", "ap", "a:", "a:1,,2", "points:", "points:1,x", "cornerx3"])
def test_a_pattern_spec_without_its_numbers_exits_1_with_usage(tmp_path, capsys, spec):
    grid = tmp_path / "g.set"
    grid.write_text("dim 1 side 8\n1\n2\n3\n")
    code, stdout, stderr = run(capsys, "count", "spectrum", "--set", str(grid), "--pattern", spec)
    assert code == 1 and stdout == ""
    assert stderr.strip() == f"error: unknown pattern {spec!r}; use cornerK, apK, a:..., or points:..."


LONG = "799999998 differences of a side-400000000 grid exceed the 6250000-difference limit (MAX_CELLS // 64)"


@pytest.mark.parametrize(
    "header, spec, message",
    [
        ("dim 3 side 4", "corner30000", "dimension mismatch: set 3, pattern 30000"),
        ("dim 2 side 4", "ap3", "ap3 needs a 1-d set of side 3 or more"),
        ("dim 1 side 4", "ap100000000", "ap100000000 needs a 1-d set of side 100000000 or more"),
        ("dim 1 side 4", "ap5", "ap5 needs a 1-d set of side 5 or more"),
        ("group zN 5", "corner2", "group spectra are corner spectra; omit the pattern"),
        ("dim 1 side 400000000", "ap3", LONG),
        ("dim 1 side 400000000", "ap300000000", LONG),
    ],
)
def test_a_pattern_spec_is_checked_against_the_set_before_it_is_built(tmp_path, capsys, header, spec, message):
    # corner30000 would be 30,001 points of 30,000 coordinates, and
    # ap100000000 a hundred million points; both are refused first.  A legal
    # 4*10^8-cell 1-d set is refused for any pattern: its 2(N - 1) differences
    # alone would be 8*10^8 Python ints
    carrier = tmp_path / "s.set"
    carrier.write_text(header + "\n")
    start = time.perf_counter()
    code, stdout, stderr = run(capsys, "count", "spectrum", "--set", str(carrier), "--pattern", spec)
    assert time.perf_counter() - start < 1
    assert code == 1 and stdout == ""
    assert stderr.strip() == f"error: {message}"


@pytest.mark.parametrize("command", [["count", "spectrum", "--set"], ["construct", "lift", "--base"]], ids=" ".join)
def test_a_side_1_grid_of_huge_dimension_is_refused_at_its_header(tmp_path, capsys, command):
    # a side below 2 counts as 2, so 2^20000 cells; the corner20000 pattern
    # alone would be 20,001 points of 20,000 coordinates
    grid = tmp_path / "one.set"
    grid.write_text("dim 20000 side 1\n")
    out = tmp_path / "out.set"
    start = time.perf_counter()
    code, stdout, stderr = run(capsys, *command, str(grid), "--pattern", "corner20000", "-o", str(out))
    assert time.perf_counter() - start < 1
    message = f"error: {grid}:1:16: side 1 in dim 20000 exceeds the 400000000-cell limit"
    assert (code, stdout, stderr.strip()) == (1, "", message)
    assert not out.exists()


def test_an_ap_as_long_as_the_side_still_counts(tmp_path, capsys):
    grid = tmp_path / "g.set"
    grid.write_text("dim 1 side 4\n1\n2\n3\n4\n")
    code, stdout, _ = run(capsys, "count", "spectrum", "--set", str(grid), "--pattern", "ap4")
    assert code == 0
    assert json.loads(stdout)["counts"] == {"1": 1, "-1": 1, "2": 0, "-2": 0, "3": 0, "-3": 0}


BAD_C = [
    (["--c", "inf", "--length", "4"], "need a finite c > 0, got inf"),
    (["--c", "nan", "--length", "4"], "need a finite c > 0, got nan"),
    (["--c", "-1"], "need a finite c > 0, got -1.0"),
    (["--c", "inf"], "need a finite c > 0, got inf"),
    (["--delta", "1e-300"], "the default L overflows at delta=1e-300, c=0.1; give L with --length"),
    (["--c", "1e9"], "the default L overflows at delta=0.25, c=1000000000.0; give L with --length"),
]


@pytest.mark.parametrize("argv, message", BAD_C, ids=[" ".join(argv) for argv, _ in BAD_C])
def test_a_bad_c_or_an_overflowing_default_length_exits_1(tmp_path, capsys, argv, message):
    # an infinite or nan c was written to the sidecar as JSON's invalid
    # Infinity / NaN; the others failed deep inside the build
    out = tmp_path / "A.set"
    delta = [] if "--delta" in argv else ["--delta", "0.25"]
    code, stdout, stderr = run(capsys, "construct", "corner3d", *delta, *argv, "--q-max", "40", "-o", str(out))
    assert (code, stdout) == (1, "")
    assert stderr.strip() == f"error: {message}"
    assert not out.exists() and not (tmp_path / "A.set.params.json").exists()


# (argv with DIR where a directory goes); every file-taking command, each input option, -o and --params-out
DIRECTORY_CASES = [
    ["construct", "lift", "--pattern", "corner3", "--base", "DIR"],
    ["construct", "mandache", "--kernel", "DIR", "--group", "zN:5"],
    ["count", "spectrum", "--set", "DIR"],
    ["count", "density", "--set", "DIR"],
    ["count", "homs", "--motif", "triforce", "--hypergraph", "DIR"],
    ["count", "triforce", "--kernel", "DIR"],
    ["verify", "diamondfree", "--graph", "DIR"],
    ["verify", "diamondfree", "DIR"],
    ["verify", "relationfree", "--relation", "1,1,-2", "--set", "DIR"],
    ["verify", "relationfree", "--relation", "1,1,-2", "DIR"],
    ["verify", "qcfree", "--a", "0,1,2,3,4", "--set", "DIR"],
    ["verify", "qcfree", "--a", "0,1,2,3,4", "DIR"],
    ["verify", "alpha", "--alpha", "DIR"],
    ["verify", "avoidance", "--set", "DIR", "--params", "GRID"],
    ["verify", "avoidance", "--set", "GRID", "--params", "DIR"],
    ["report", "mandache", "--kernel", "DIR", "--group", "zN:5", "--seeds", "0:2"],
    ["construct", "sumfree", "--length", "8", "-o", "DIR"],
    ["construct", "sumfree", "--length", "8", "-o", "OUT", "--params-out", "DIR"],
]


@pytest.mark.parametrize("argv", DIRECTORY_CASES, ids=" ".join)
def test_a_directory_for_a_file_exits_1_naming_it(tmp_path, capsys, argv):
    directory = tmp_path / "dir"
    directory.mkdir()
    grid = tmp_path / "g.set"
    grid.write_text("dim 3 side 2\n")
    paths = {"DIR": directory, "GRID": grid, "OUT": tmp_path / "out.set"}
    code, stdout, stderr = run(capsys, *(str(paths.get(arg, arg)) for arg in argv))
    assert (code, stdout) == (1, "")
    assert len(stderr.splitlines()) == 1 and stderr.startswith("error: ") and str(directory) in stderr, stderr


@pytest.mark.parametrize("to_file", [True, False], ids=["-o", "stdout"])
def test_an_unwritable_sidecar_is_refused_before_the_artifact_is_written(tmp_path, capsys, to_file):
    # the artifact used to be written in full before the sidecar failed
    directory = tmp_path / "dir"
    directory.mkdir()
    out = tmp_path / "s.set"
    argv = ["construct", "sumfree", "--length", "8", "--params-out", str(directory)]
    code, stdout, stderr = run(capsys, *argv, *(["-o", str(out)] if to_file else []))
    assert (code, stdout) == (1, "") and str(directory) in stderr
    assert sorted(tmp_path.iterdir()) == [directory]


def test_an_unwritable_artifact_leaves_no_new_sidecar_and_an_old_one_unchanged(tmp_path, capsys):
    directory = tmp_path / "dir"
    directory.mkdir()
    sidecar = tmp_path / "dir.params.json"
    code, _, _ = run(capsys, "construct", "sumfree", "--length", "8", "-o", str(directory))
    assert code == 1 and sorted(tmp_path.iterdir()) == [directory]
    sidecar.write_text("old\n")
    code, _, _ = run(capsys, "construct", "sumfree", "--length", "8", "-o", str(directory))
    assert code == 1 and sidecar.read_text() == "old\n"


def test_every_readme_command_parses():
    # parsed, not run: an option renamed or removed leaves no stale command
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    lines = [line for line in readme.replace("\\\n", " ").splitlines() if line.startswith("cornerforge ")]
    assert len(lines) >= 13
    parser = build_parser()
    for line in lines:
        try:
            parser.parse_args(shlex.split(line)[1:])
        except SystemExit:
            pytest.fail(f"README command does not parse: {line}")

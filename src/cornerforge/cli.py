"""Command-line surface: construct / count / verify / report.

Exit codes: 0 success, 1 malformed input (a file:line:column diagnostic where
one exists, else the path), 2 verification failure (witness in the output).
A construct subcommand writes a sidecar that reproduces its artifact exactly
to --params-out, else to <output>.params.json (none for stdout output without
--params-out); a sidecar path that cannot be opened is refused before the
artifact is written.  Randomness flows from --seed (or CORNERFORGE_SEED).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import re
import sys
from fractions import Fraction
from typing import TYPE_CHECKING

from . import __version__

# Each handler imports what it runs when it runs, so a command loads only its
# own modules (numpy only where it computes with it), and every library name
# is looked up when the command runs, not when this module is imported.
if TYPE_CHECKING:
    from .patterns import Group, Pattern

EXIT_OK = 0
EXIT_BAD_INPUT = 1
EXIT_VERIFY_FAILED = 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # malformed command lines are malformed input
        self.print_usage(sys.stderr)
        self.exit(EXIT_BAD_INPUT, f"{self.prog}: error: {message}\n")


class VerificationFailure(Exception):
    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


def _parse_group(text: str) -> Group:
    from .patterns import Group

    if spec := re.fullmatch(r"zN:([0-9]+)|fp:([0-9]+):([0-9]+)", text):
        modulus, p, n = spec.groups()
        return Group.zmod(int(modulus)) if modulus else Group.vector(int(p), int(n))
    raise ValueError(f"unknown group {text!r}; use 'zN:<N>' or 'fp:<p>:<n>'")


def _parse_pattern(text: str, carrier=None) -> Pattern:
    """The pattern `text` names.  A cornerK or apK spec is checked against
    `carrier`, the set it will be counted in, and the carrier against the
    spectrum's difference budget, before its points are built."""
    from .patterns import GridSet, Pattern, _check_differences

    if not re.fullmatch(r"(corner|ap)-?[0-9]+|a:-?[0-9]+(,-?[0-9]+)*|points:-?[0-9]+([,;]-?[0-9]+)*", text):
        raise ValueError(f"unknown pattern {text!r}; use cornerK, apK, a:..., or points:...")
    if carrier is not None:
        if not isinstance(carrier, GridSet):
            raise ValueError("group spectra are corner spectra; omit the pattern")
        _check_differences(carrier.side)
    if text.startswith("corner"):
        k = int(text[len("corner") :])
        if carrier is not None and k != carrier.dim:
            raise ValueError(f"dimension mismatch: set {carrier.dim}, pattern {k}")
        return Pattern.corner(k)
    if text.startswith("ap"):
        k = int(text[len("ap") :])
        if carrier is not None and (carrier.dim != 1 or k > carrier.side):
            raise ValueError(f"ap{k} needs a 1-d set of side {k} or more")
        return Pattern.arithmetic(k)
    if text.startswith("a:"):
        return Pattern.one_dim(int(v) for v in text[2:].split(","))
    pts = [tuple(int(c) for c in chunk.split(",")) for chunk in text[7:].split(";")]
    return Pattern(len(pts[0]), tuple(pts))


def _parse_ints(text: str) -> tuple[int, ...]:
    return tuple(int(v) for v in text.split(","))


def _parse_seeds(text: str) -> range | list[int]:
    """`lo:hi` as a range, never listed, or a comma list of seeds."""
    try:
        if ":" in text:
            lo, hi = text.split(":")
            return range(int(lo), int(hi))
        return [int(v) for v in text.split(",")]
    except ValueError:
        raise ValueError(f"bad seeds {text!r}; use 'lo:hi' or a comma list like '0,1,2'") from None


def _seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("CORNERFORGE_SEED")
    return int(env) if env else 0


def _open_out(args):
    if getattr(args, "output", None):
        return open(args.output, "w")
    return contextlib.nullcontext(sys.stdout)


@contextlib.contextmanager
def _open_artifact(args, payload: dict):
    """The handle a construct command writes its artifact to (see
    `_open_out`); after the artifact, the sidecar `payload` is written to
    --params-out, else to <output>.params.json (none for stdout output
    without --params-out).  The sidecar path is opened, unchanged, before
    the artifact's, so a path that cannot take it is refused before any
    artifact is written; a sidecar file made for a command that then fails
    is removed again."""
    path = args.params_out
    if path is None and args.output:
        path = args.output + ".params.json"
    made = path is not None and not os.path.exists(path)
    if path is not None:
        open(path, "a").close()
    try:
        with _open_out(args) as fh:
            yield fh
    except BaseException:
        if made:
            os.remove(path)
        raise
    if path is not None:
        with open(path, "w") as fh:
            json.dump({"tool_version": __version__, **payload}, fh, indent=2)
            fh.write("\n")


def _read(reader, path: str):
    """reader(fh, path) on the input file at `path`, the one place a command
    opens one; a byte that is not UTF-8 reads as U+FFFD (see `formats`)."""
    with open(path, encoding="utf-8", errors="replace") as fh:
        return reader(fh, path)


def _load_record(path: str, loader):
    """`loader` applied to the text of the JSON record at `path`; a record
    of the wrong shape (not an object, a missing field, a bad value) is
    malformed input named by its path."""
    text = _read(lambda fh, _: fh.read(), path)
    try:
        return loader(text)
    except KeyError as exc:
        raise ValueError(f"{path}: missing field {exc.args[0]!r}") from None
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: malformed record: {exc}") from None


# -- construct ----------------------------------------------------------------


def _cmd_construct_residue(args, builder_name, name):
    from . import behrend
    from .formats import write_residues

    out = getattr(behrend, builder_name)(args.length)
    payload = {
        "command": f"construct {name}",
        "length": args.length,
        "size": len(out),
        "params": {
            "dim": out.params.dim,
            "base": out.params.base,
            "headroom": out.params.headroom,
            "radius_sq": out.params.radius_sq,
        },
    }
    with _open_artifact(args, payload) as fh:
        write_residues(fh, out.members, args.length)
    return EXIT_OK


def _cmd_construct_qcfree(args):
    from .behrend import behrend_qc_free, qc_coefficients
    from .formats import write_residues

    a = _parse_ints(args.a)
    out = behrend_qc_free(a, args.length)
    payload = {
        "command": "construct qcfree",
        "a": list(a),
        "length": args.length,
        "size": len(out),
        "qc_system": json.loads(qc_coefficients(a).to_json()),
    }
    with _open_artifact(args, payload) as fh:
        write_residues(fh, out.members, args.length)
    return EXIT_OK


def _cmd_construct_alpha(args):
    from .contfrac import build_alpha_hard, parse_scale

    seq = build_alpha_hard(args.m, parse_scale(args.r))
    with _open_artifact(args, {"command": "construct alpha", "m": args.m, "r": str(args.r)}) as fh:
        fh.write(seq.to_json() + "\n")
    return EXIT_OK


def _cmd_construct_avoider(args):
    from .avoiders import build_corner_avoider, build_five_point_avoider
    from .formats import write_grid_set

    # an option left out takes the builder's default, so each default has one source
    given = {"c": args.c, "length": args.length, "q_max": args.q_max}
    given = {name: value for name, value in given.items() if value is not None}
    if args.what == "corner3d":
        avoider = build_corner_avoider(args.delta, **given)
    else:
        avoider = build_five_point_avoider(_parse_ints(args.a), args.delta, **given)
    grid = avoider.materialize()
    with _open_artifact(args, avoider.record()) as fh:
        write_grid_set(fh, grid)
    print(
        f"side {grid.side}, {len(grid)} members, density {len(grid) / grid.side**grid.dim:.5f} "
        f"(target {float(avoider.system.measure()):.5f})",
        file=sys.stderr,
    )
    return EXIT_OK


def _cmd_construct_lift(args):
    from .avoiders import lift_avoider
    from .formats import read_grid_set, write_grid_set
    from .limits import _past_cell_limit

    base = _read(read_grid_set, args.base)
    # refuse a cornerK or apK spec the base cannot lift to before its points
    # are built: a side-N 1-d base needs the projection weight, c^(i+1) summed
    # over the axes, at most N (c >= 2 past one axis, so N.bit_length() axes
    # outweigh N); a 3-d base needs a corner, K >= 3 and a lifted grid within the cell limit
    if spec := re.fullmatch(r"(corner|ap)([0-9]+)", args.pattern):
        k, n = int(spec[2]), base.side
        if base.dim == 1:
            c, axes = (k + 1, k) if spec[1] == "corner" else (1 + k * (k - 1) // 2, 1)
            fits = sum(c ** (i + 1) for i in range(min(axes, n.bit_length()))) <= n
        else:
            fits = base.dim == 3 and spec[1] == "corner" and k >= 3 and not _past_cell_limit(n, k)
        if not fits:
            raise ValueError(f"a side-{n} {base.dim}-d base cannot be lifted to {args.pattern}")
    lifted = lift_avoider(_parse_pattern(args.pattern), base)
    payload = {"command": "construct lift", "pattern": args.pattern, "base": args.base, "side": lifted.side}
    with _open_artifact(args, payload) as fh:
        write_grid_set(fh, lifted)
    return EXIT_OK


def _cmd_construct_mandache(args):
    from .formats import read_kernel, write_group_set
    from .mandache import kernel_fingerprint, sample_mandache

    kernel = _read(read_kernel, args.kernel)
    group = _parse_group(args.group)
    seed = _seed(args)
    pairs = sample_mandache(kernel, group, seed)
    payload = {
        "command": "construct mandache",
        "kernel_hash": kernel_fingerprint(kernel),
        "group": group.label(),
        "seed": seed,
        "size": len(pairs),
    }
    with _open_artifact(args, payload) as fh:
        write_group_set(fh, pairs)
    return EXIT_OK


# -- count --------------------------------------------------------------------


def _cmd_count_spectrum(args):
    from .formats import read_set, write_spectrum_csv, write_spectrum_json
    from .patterns import spectrum

    carrier = _read(read_set, args.set)
    pattern = _parse_pattern(args.pattern, carrier) if args.pattern else None
    spec = spectrum(carrier, pattern)
    with _open_out(args) as fh:
        if args.format == "csv":
            write_spectrum_csv(fh, spec)
        else:
            write_spectrum_json(fh, spec)
            fh.write("\n")
    return EXIT_OK


def _cmd_count_density(args):
    from .formats import read_set
    from .patterns import GridSet

    carrier = _read(read_set, args.set)
    total = carrier.side**carrier.dim if isinstance(carrier, GridSet) else carrier.group.order**2
    density = Fraction(len(carrier), total)
    print(json.dumps({"members": len(carrier), "cells": total, "density": str(density), "density_float": float(density)}))
    return EXIT_OK


def _cmd_count_homs(args):
    from .formats import read_hypergraph
    from .hypergraph import _check_motif, edge_density, hom_count, kforce_density, kforce_motif, single_edge_motif

    h = _read(read_hypergraph, args.hypergraph)
    name = args.motif
    family = re.fullmatch(r"(kforce|edge)([0-9]+)", "kforce3" if name == "triforce" else name)
    if not family:
        raise ValueError(f"unknown motif {name!r}; use triforce, kforceK, or edgeK")
    k = int(family[2])
    _check_motif(k, 2 * k if family[1] == "kforce" else k, h)  # before a motif of 2k or k vertices is built
    motif = kforce_motif(k) if family[1] == "kforce" else single_edge_motif(k)
    count = hom_count(motif, h)
    print(
        json.dumps(
            {
                "motif": name,
                "hom_count": count,
                "density": str(Fraction(count, h.n**motif.n)),
                "edge_density": str(edge_density(h)),
                "kforce_density": str(kforce_density(h)),
            }
        )
    )
    return EXIT_OK


def _cmd_count_triforce(args):
    from .formats import read_kernel
    from .hypergraph import triforce_weighted

    kernel = _read(read_kernel, args.kernel)
    value = triforce_weighted(kernel)
    print(
        json.dumps(
            {
                "triforce": str(value),
                "triforce_float": float(value),
                "mean": str(kernel.mean()),
                "mean_fourth_power": str(kernel.mean() ** 4),
            }
        )
    )
    return EXIT_OK


# -- verify -------------------------------------------------------------------


def _input_path(args, flag: str, positional: str) -> str:
    path = getattr(args, flag, None) or getattr(args, positional, None)
    if path is None:
        raise ValueError(f"missing input file: pass --{flag} or a positional path")
    return path


def _cmd_verify_diamondfree(args):
    from .diamond import verify_diamond_free
    from .formats import read_tripartite

    graph = _read(read_tripartite, _input_path(args, "graph", "graph_path"))
    verdict = verify_diamond_free(graph)
    if verdict is True:
        print(json.dumps({"diamond_free": True, "edges": graph.edge_count()}))
        return EXIT_OK
    family, edge, count = verdict
    raise VerificationFailure(
        "edge in the wrong number of triangles",
        witness={"family": family, "edge": list(edge), "triangles": count},
    )


def _cmd_verify_relationfree(args):
    from .behrend import find_relation_witness
    from .formats import read_residues

    relation = _parse_ints(args.relation)
    members, _ = _read(read_residues, _input_path(args, "set", "set_path"))
    witness = find_relation_witness(members, relation)
    if witness is None:
        print(json.dumps({"relation_free": True, "relation": list(relation), "size": len(members)}))
        return EXIT_OK
    raise VerificationFailure("nontrivial solution found", witness=list(witness))


def _cmd_verify_qcfree(args):
    from .behrend import find_qc_witness, qc_coefficients
    from .formats import read_residues

    a = _parse_ints(args.a)
    members, _ = _read(read_residues, _input_path(args, "set", "set_path"))
    witness = find_qc_witness(qc_coefficients(a), members)
    if witness is None:
        print(json.dumps({"qc_free": True, "a": list(a), "size": len(members)}))
        return EXIT_OK
    raise VerificationFailure("quadratic configuration found", witness=list(witness))


def _cmd_verify_alpha(args):
    from .contfrac import AlphaSequence, verify_alpha

    seq = _load_record(args.alpha, AlphaSequence.from_json)
    indices = _parse_ints(args.indices) if args.indices else range(seq.start_index, seq.start_index + 5)
    for i in indices:
        try:
            seq.check_index(i)
        except ValueError as exc:
            raise ValueError(f"{args.alpha}: {exc}") from None
    rows = []
    failed = False
    for i in indices:
        check = verify_alpha(seq, i)
        rows.append(
            {
                "i": i,
                "q": check.q,
                "guaranteed": check.guaranteed,
                "smooth": check.smooth_ok,
                "interval": check.interval_ok if check.guaranteed else "not guaranteed",
                "approx": check.approx_ok,
            }
        )
        if check.guaranteed and not check.passed:
            failed = True
    print(json.dumps({"checks": rows}, indent=2))
    if failed:
        raise VerificationFailure("a guaranteed index failed its checks", witness=rows)
    return EXIT_OK


def _cmd_verify_avoidance(args):
    from .avoiders import load_avoider, verify_corner_avoidance
    from .formats import read_grid_set

    grid = _read(read_grid_set, args.set)
    avoider = _load_record(args.params, load_avoider)
    report = verify_corner_avoidance(avoider, grid)
    with _open_out(args) as fh:
        report.write_csv(fh)
    if failing := report.failing():
        d, count, *_ = report.rows[failing[0]]
        raise VerificationFailure("avoidance bound or transfer check failed", witness={"d": d, "count": count})
    d, count = report.max_count()
    print(f"max corners {count} at d={d}; bound {float(report.rows[0][2]):.1f}", file=sys.stderr)
    return EXIT_OK


# -- report ------------------------------------------------------------------


def _cmd_report_mandache(args):
    from .formats import read_kernel
    from .mandache import mandache_report

    kernel = _read(read_kernel, args.kernel)
    group = _parse_group(args.group)
    report = mandache_report(kernel, group, _parse_seeds(args.seeds))
    with _open_out(args) as fh:
        fh.write(report.to_json() + "\n")
    return EXIT_OK


# -- wiring -------------------------------------------------------------------


def _add_output(p):
    p.add_argument("-o", "--output", help="output path (default stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="cornerforge", description=__doc__)
    parser.add_argument("--version", action="version", version=f"cornerforge {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    construct = sub.add_parser("construct", help="build sets, streams, and samples").add_subparsers(
        dest="what", required=True
    )
    for name, builder in (("behrend", "behrend_3ap_free"), ("sumfree", "behrend_sum_free")):
        p = construct.add_parser(name)
        p.add_argument("--length", "--L", "-L", type=int, required=True)
        _add_output(p)
        p.add_argument("--params-out")
        p.set_defaults(func=lambda a, b=builder, n=name: _cmd_construct_residue(a, b, n))
    p = construct.add_parser("qcfree")
    p.add_argument("--a", required=True, help="five distinct integers, comma-separated")
    p.add_argument("--length", "--L", "-L", type=int, required=True)
    _add_output(p)
    p.add_argument("--params-out")
    p.set_defaults(func=_cmd_construct_qcfree)
    p = construct.add_parser("alpha")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--r", required=True, help="positive rational scale, e.g. 2 or 5/4")
    _add_output(p)
    p.add_argument("--params-out")
    p.set_defaults(func=_cmd_construct_alpha)
    for name in ("corner3d", "fivepoint"):
        p = construct.add_parser(name)
        p.add_argument("--delta", type=float, required=True)
        p.add_argument("--c", type=float)
        p.add_argument("--length", "--L", "-L", type=int, help="override the interval count L")
        p.add_argument("--q-max", type=int)
        if name == "fivepoint":
            p.add_argument("--a", required=True)
        _add_output(p)
        p.add_argument("--params-out")
        p.set_defaults(func=_cmd_construct_avoider)
    p = construct.add_parser("lift")
    p.add_argument("--pattern", required=True)
    p.add_argument("--base", required=True, help="grid set file of the base avoider")
    _add_output(p)
    p.add_argument("--params-out")
    p.set_defaults(func=_cmd_construct_lift)
    p = construct.add_parser("mandache")
    p.add_argument("--kernel", required=True)
    p.add_argument("--group", required=True, help="zN:<N> or fp:<p>:<n>")
    p.add_argument("--seed", type=int)
    _add_output(p)
    p.add_argument("--params-out")
    p.set_defaults(func=_cmd_construct_mandache)

    count = sub.add_parser("count", help="densities and spectra").add_subparsers(
        dest="what", required=True
    )
    p = count.add_parser("spectrum")
    p.add_argument("--set", required=True)
    p.add_argument("--pattern", help="cornerK, apK, a:..., or points:... (grid sets only)")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    _add_output(p)
    p.set_defaults(func=_cmd_count_spectrum)
    p = count.add_parser("density")
    p.add_argument("--set", required=True)
    p.set_defaults(func=_cmd_count_density)
    p = count.add_parser("homs")
    p.add_argument("--motif", required=True, help="triforce, kforceK, or edgeK")
    p.add_argument("--hypergraph", required=True)
    p.set_defaults(func=_cmd_count_homs)
    p = count.add_parser("triforce")
    p.add_argument("--kernel", required=True)
    p.set_defaults(func=_cmd_count_triforce)

    verify = sub.add_parser("verify", help="check artifacts; exit 2 with a witness on failure").add_subparsers(
        dest="what", required=True
    )
    p = verify.add_parser("diamondfree")
    p.add_argument("graph_path", nargs="?", help="graph file (alternative to --graph)")
    p.add_argument("--graph")
    p.set_defaults(func=_cmd_verify_diamondfree)
    p = verify.add_parser("relationfree")
    p.add_argument("--relation", required=True, help="coefficients, e.g. 1,1,1,-3")
    p.add_argument("set_path", nargs="?", help="set file (alternative to --set)")
    p.add_argument("--set")
    p.set_defaults(func=_cmd_verify_relationfree)
    p = verify.add_parser("qcfree")
    p.add_argument("--a", required=True)
    p.add_argument("set_path", nargs="?", help="set file (alternative to --set)")
    p.add_argument("--set")
    p.set_defaults(func=_cmd_verify_qcfree)
    p = verify.add_parser("alpha")
    p.add_argument("--alpha", required=True, help="alpha sequence JSON file")
    p.add_argument("--indices", help="comma-separated indices (default: first five guaranteed)")
    p.set_defaults(func=_cmd_verify_alpha)
    p = verify.add_parser("avoidance")
    p.add_argument("--set", required=True)
    p.add_argument("--params", required=True, help="params JSON from construct corner3d")
    _add_output(p)
    p.set_defaults(func=_cmd_verify_avoidance)

    report = sub.add_parser("report", help="statistical summaries").add_subparsers(
        dest="what", required=True
    )
    p = report.add_parser("mandache")
    p.add_argument("--kernel", required=True)
    p.add_argument("--group", required=True)
    p.add_argument("--seeds", required=True, help="lo:hi range or comma list")
    _add_output(p)
    p.set_defaults(func=_cmd_report_mandache)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, ArithmeticError, OSError) as exc:  # a ParseError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except VerificationFailure as exc:
        print(json.dumps({"verified": False, "reason": str(exc), "witness": exc.witness}))
        return EXIT_VERIFY_FAILED


if __name__ == "__main__":
    sys.exit(main())

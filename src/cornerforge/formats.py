"""Text file formats for sets, hypergraphs, kernels, and graphs.

All formats are line-oriented with a one-line header:

  grid set     ``dim <k> side <N>``   then one point per line (k integers)
  group set    ``group zN <N>`` or ``group fp <p> <n>``   then one pair of
               elements per line; vector-group elements are comma-joined
  hypergraph   ``<k> <n> <m>``        then m lines of k distinct vertex indices
               in [0, n), no edge on two lines; k >= 2, n >= 1
  kernel       ``<g>``                then g^3 rationals p/q, x fastest
  graph        ``tripartite <N>``     then lines ``XY x y`` / ``YZ y z`` /
               ``XZ x z``

Residue sets in {0..L-1} (the solution-free constructions) use the 1-based
grid format with side L by storing value+1; translation-invariant relations
are unaffected by the shift, and loaders undo it.  Parse errors carry
line/column positions.
"""

from __future__ import annotations

import csv
from fractions import Fraction
from typing import Iterable, TextIO

import numpy as np

from .diamond import TripartiteGraph
from .hypergraph import Hypergraph, StepKernel
from .contfrac import _is_prime
from .patterns import MAX_CELLS, GridSet, Group, GroupSet, Spectrum, _iter_flats, _mask_from_flats

__all__ = [
    "ParseError",
    "read_grid_set",
    "write_grid_set",
    "read_group_set",
    "write_group_set",
    "read_residues",
    "write_residues",
    "read_hypergraph",
    "write_hypergraph",
    "read_kernel",
    "write_kernel",
    "read_tripartite",
    "write_tripartite",
    "write_spectrum_csv",
]


class ParseError(ValueError):
    def __init__(self, path: str, line: int, column: int, message: str):
        self.path, self.line, self.column = path, line, column
        super().__init__(f"{path}:{line}:{column}: {message}")


# coordinate values up to this many get a name table in read_grid_set
_NAMED_COORDS = 1 << 12


def _tokens(line: str) -> list[tuple[int, str]]:
    """(1-based column, token) pairs of a whitespace-split line."""
    out = []
    col = 0
    for raw in line.rstrip("\n").split(" "):
        if raw:
            out.append((col + 1, raw))
        col += len(raw) + 1
    return out


def _int(path: str, lineno: int, col: int, token: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise ParseError(path, lineno, col, f"expected an integer, got {token!r}") from None


def _check_cells(path: str, lineno: int, col: int, base: int, exp: int, what: str) -> None:
    """Refuse a header whose carrier, base**exp cells, exceeds MAX_CELLS,
    before anything is allocated; a huge exponent is refused unevaluated."""
    if base > 1 and (exp >= MAX_CELLS.bit_length() or base**exp > MAX_CELLS):
        raise ParseError(path, lineno, col, f"{what} exceeds the {MAX_CELLS}-cell limit")


def _is_data(line: str) -> bool:
    """Not blank and not a comment."""
    return bool(line.strip()) and not line.lstrip().startswith("#")


def _data_lines(fh: TextIO):
    for lineno, line in enumerate(fh, start=1):
        if _is_data(line):
            yield lineno, line


def _grid_point(path: str, lineno: int, line: str, dim: int, side: int) -> tuple[int, ...]:
    """The point on a grid-set data line, with every check at its position."""
    toks = _tokens(line)
    if len(toks) != dim:
        raise ParseError(path, lineno, toks[0][0] if toks else 1, f"expected {dim} coordinates")
    point = tuple(_int(path, lineno, c, t) for c, t in toks)
    if not all(1 <= x <= side for x in point):
        raise ParseError(path, lineno, toks[0][0], f"point {point} outside [1, {side}]^{dim}")
    return point


def read_grid_set(fh: TextIO, path: str = "<grid set>") -> GridSet:
    lines = _data_lines(fh)
    try:
        lineno, header = next(lines)
    except StopIteration:
        raise ParseError(path, 1, 1, "empty file") from None
    toks = _tokens(header)
    if len(toks) != 4 or toks[0][1] != "dim" or toks[2][1] != "side":
        raise ParseError(path, lineno, toks[0][0] if toks else 1, "expected header 'dim k side N'")
    dim = _int(path, lineno, toks[1][0], toks[1][1])
    side = _int(path, lineno, toks[3][0], toks[3][1])
    if dim < 1:
        raise ParseError(path, lineno, toks[1][0], f"dim must be positive, got {dim}")
    if side < 1:
        raise ParseError(path, lineno, toks[3][0], f"side must be positive, got {side}")
    _check_cells(path, lineno, toks[3][0], side, dim, f"side {side} in dim {dim}")

    weights = [side**j for j in range(dim)]
    # canonical coordinate names, so most tokens skip int(); bounded so a
    # 1-d header with a huge side does not cost a dict entry per cell
    known = {str(c): c - 1 for c in range(1, min(side, _NAMED_COORDS) + 1)}.get
    buf = bytearray((side**dim + 7) // 8)
    # the header came from `lines`, which has read nothing past it
    for lineno, line in enumerate(fh, start=lineno + 1):
        # fast path: exactly `dim` single-space-separated in-range integers,
        # which is never a blank or comment line
        fields = line.rstrip("\n").split(" ")
        flat = 0
        try:
            if len(fields) != dim:
                raise ValueError
            for token, weight in zip(fields, weights):
                c = known(token)
                if c is None:
                    c = int(token) - 1
                    if not 0 <= c < side:
                        raise ValueError
                flat += c * weight
        except ValueError:
            if not _is_data(line):
                continue
            # anything else gets the full checks: the same point, or a ParseError
            flat = sum((c - 1) * w for c, w in zip(_grid_point(path, lineno, line, dim, side), weights))
        buf[flat >> 3] |= 1 << (flat & 7)
    return GridSet.from_mask(dim, side, int.from_bytes(buf, "little"))


def write_grid_set(fh: TextIO, grid: GridSet) -> None:
    n = grid.side
    fh.write(f"dim {grid.dim} side {n}\n")
    flats = np.flatnonzero(grid.cells())
    columns = []
    for j in range(grid.dim):
        # name each distinct coordinate once, then index the names
        values, where = np.unique(flats // n**j % n, return_inverse=True)
        names = np.array([str(v + 1) for v in values.tolist()], dtype=object)
        columns.append(names[where].tolist())
    fh.writelines(" ".join(point) + "\n" for point in zip(*columns))


def read_residues(fh: TextIO, path: str = "<residue set>") -> tuple[frozenset, int]:
    """Load a {0..L-1} residue set stored in the 1-based grid format;
    returns (members, L)."""
    grid = read_grid_set(fh, path)
    if grid.dim != 1:
        raise ParseError(path, 1, 1, "residue sets must be 1-dimensional")
    return frozenset(p[0] - 1 for p in grid), grid.side


def write_residues(fh: TextIO, members: Iterable[int], length: int) -> None:
    shifted = GridSet(1, length, [(int(v) + 1,) for v in members])
    write_grid_set(fh, shifted)


def read_group_set(fh: TextIO, path: str = "<group set>") -> GroupSet:
    lines = _data_lines(fh)
    try:
        lineno, header = next(lines)
    except StopIteration:
        raise ParseError(path, 1, 1, "empty file") from None
    toks = _tokens(header)
    if not toks or toks[0][1] != "group":
        raise ParseError(path, lineno, 1, "expected header 'group zN <N>' or 'group fp <p> <n>'")
    if len(toks) == 3 and toks[1][1] == "zN":
        modulus = _int(path, lineno, toks[2][0], toks[2][1])
        if modulus < 1:
            raise ParseError(path, lineno, toks[2][0], f"modulus must be positive, got {modulus}")
        _check_cells(path, lineno, toks[2][0], modulus, 2, f"zN {modulus} x zN {modulus}")
        group = Group.zmod(modulus)
    elif len(toks) == 4 and toks[1][1] == "fp":
        p = _int(path, lineno, toks[2][0], toks[2][1])
        n = _int(path, lineno, toks[3][0], toks[3][1])
        if n < 1:
            raise ParseError(path, lineno, toks[3][0], f"exponent must be positive, got {n}")
        _check_cells(path, lineno, toks[3][0], p, 2 * n, f"fp {p} {n} x fp {p} {n}")
        if not _is_prime(p):
            raise ParseError(path, lineno, toks[2][0], f"p must be prime, got {p}")
        group = Group.vector(p, n)
    else:
        raise ParseError(path, lineno, toks[1][0] if len(toks) > 1 else 1, "unknown group kind")

    order = group.order
    index = {group.format_element(e): i for i, e in enumerate(group.elements())}

    def element_index(lineno: int, col: int, token: str) -> int:
        i = index.get(token)
        if i is not None:
            return i
        # not a canonical name: `-1`, `4,0` and the like still parse
        try:
            return group.index(group.parse_element(token))
        except ValueError:
            raise ParseError(path, lineno, col, f"bad group element {token!r}") from None

    def flats():
        for lineno, line in lines:
            toks = _tokens(line)
            if len(toks) != 2:
                raise ParseError(path, lineno, toks[0][0] if toks else 1, "expected two elements")
            (cx, x), (cy, y) = toks
            yield element_index(lineno, cx, x) * order + element_index(lineno, cy, y)

    return GroupSet.from_mask(group, _mask_from_flats(flats(), order * order))


def write_group_set(fh: TextIO, pairs: GroupSet) -> None:
    group = pairs.group
    order = group.order
    names = [group.format_element(e) for e in group.elements()]
    fh.write(f"group {group.label()}\n")
    fh.writelines(f"{names[f // order]} {names[f % order]}\n" for f in _iter_flats(pairs.mask, order * order))


def read_hypergraph(fh: TextIO, path: str = "<hypergraph>") -> Hypergraph:
    lines = _data_lines(fh)
    try:
        lineno, header = next(lines)
    except StopIteration:
        raise ParseError(path, 1, 1, "empty file") from None
    toks = _tokens(header)
    if len(toks) != 3:
        raise ParseError(path, lineno, 1, "expected header 'k n m'")
    (ck, k), (cn, n), (cm, m) = ((c, _int(path, lineno, c, t)) for c, t in toks)
    if k < 2:
        raise ParseError(path, lineno, ck, f"uniformity must be at least 2, got {k}")
    if n < 1:
        raise ParseError(path, lineno, cn, f"vertex count must be positive, got {n}")
    if m < 0:
        raise ParseError(path, lineno, cm, f"edge count must be nonnegative, got {m}")
    first_line: dict[frozenset, int] = {}  # edge -> the line that gave it
    for lineno, line in lines:
        toks = _tokens(line)
        if len(toks) != k:
            raise ParseError(path, lineno, toks[0][0] if toks else 1, f"expected {k} vertices")
        vertices = []
        for col, token in toks:
            v = _int(path, lineno, col, token)
            if not 0 <= v < n:
                raise ParseError(path, lineno, col, f"edge vertex {v} outside [0, {n})")
            vertices.append(v)
        edge = frozenset(vertices)
        if len(edge) != k:
            raise ParseError(path, lineno, toks[0][0], "edge vertices must be distinct")
        if edge in first_line:
            raise ParseError(path, lineno, toks[0][0], f"edge {sorted(edge)} repeats line {first_line[edge]}")
        first_line[edge] = lineno
    if len(first_line) != m:
        raise ParseError(path, lineno if first_line else 1, 1, f"header promised {m} edges, found {len(first_line)}")
    return Hypergraph(k, n, frozenset(first_line))


def write_hypergraph(fh: TextIO, h: Hypergraph) -> None:
    fh.write(f"{h.k} {h.n} {len(h.edges)}\n")
    for edge in sorted(sorted(e) for e in h.edges):
        fh.write(" ".join(str(v) for v in edge) + "\n")


def _fraction(path: str, lineno: int, col: int, token: str) -> Fraction:
    try:
        return Fraction(token)
    except (ValueError, ZeroDivisionError):
        raise ParseError(path, lineno, col, f"expected a rational p/q, got {token!r}") from None


def read_kernel(fh: TextIO, path: str = "<kernel>") -> StepKernel:
    lines = _data_lines(fh)
    try:
        lineno, header = next(lines)
    except StopIteration:
        raise ParseError(path, 1, 1, "empty file") from None
    toks = _tokens(header)
    if len(toks) != 1:
        raise ParseError(path, lineno, 1, "expected header '<g>'")
    g = _int(path, lineno, toks[0][0], toks[0][1])
    flat = []
    for lineno, line in lines:
        for col, token in _tokens(line):
            value = _fraction(path, lineno, col, token)
            if not 0 <= value <= 1:
                raise ParseError(path, lineno, col, f"kernel value {value} outside [0, 1]")
            flat.append(value)
    if len(flat) != g**3:
        raise ParseError(path, lineno if flat else 1, 1, f"expected {g ** 3} values, found {len(flat)}")
    values = [[[Fraction(0)] * g for _ in range(g)] for _ in range(g)]
    pos = 0
    for z in range(g):  # x varies fastest
        for y in range(g):
            for x in range(g):
                values[x][y][z] = flat[pos]
                pos += 1
    return StepKernel(g, values)


def write_kernel(fh: TextIO, w: StepKernel) -> None:
    fh.write(f"{w.g}\n")
    for z in range(w.g):
        for y in range(w.g):
            fh.write(" ".join(str(w.values[x][y][z]) for x in range(w.g)) + "\n")


def read_tripartite(fh: TextIO, path: str = "<graph>") -> TripartiteGraph:
    lines = _data_lines(fh)
    try:
        lineno, header = next(lines)
    except StopIteration:
        raise ParseError(path, 1, 1, "empty file") from None
    toks = _tokens(header)
    if len(toks) != 2 or toks[0][1] != "tripartite":
        raise ParseError(path, lineno, 1, "expected header 'tripartite N'")
    side = _int(path, lineno, toks[1][0], toks[1][1])
    families: dict[str, list] = {"XY": [], "YZ": [], "XZ": []}
    for lineno, line in lines:
        toks = _tokens(line)
        if len(toks) != 3 or toks[0][1] not in families:
            raise ParseError(path, lineno, toks[0][0] if toks else 1, "expected 'XY|YZ|XZ u v'")
        edge = []
        for col, token in toks[1:]:
            v = _int(path, lineno, col, token)
            if not 0 <= v < side:
                raise ParseError(path, lineno, col, f"{toks[0][1]} edge vertex {v} outside [0, {side})")
            edge.append(v)
        families[toks[0][1]].append(tuple(edge))
    return TripartiteGraph(side, frozenset(families["XY"]), frozenset(families["YZ"]), frozenset(families["XZ"]))


def write_tripartite(fh: TextIO, graph: TripartiteGraph) -> None:
    fh.write(f"tripartite {graph.side}\n")
    for name, attr in (("XY", "xy"), ("YZ", "yz"), ("XZ", "xz")):
        for u, v in sorted(getattr(graph, attr)):
            fh.write(f"{name} {u} {v}\n")


def write_spectrum_csv(fh: TextIO, spec: Spectrum) -> None:
    writer = csv.writer(fh)
    writer.writerow(["d", "count"])
    for key, count in spec.rows():
        writer.writerow([key, count])


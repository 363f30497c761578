"""Text file formats for sets, hypergraphs, kernels, and graphs.

All formats are line-oriented with a one-line header:

  grid set     ``dim <k> side <N>``   then one point per line (k integers)
  group set    ``group zN <N>`` or ``group fp <p> <n>``   then one pair of
               elements per line; vector-group elements are comma-joined
  hypergraph   ``<k> <n> <m>``        then m lines of k distinct vertex indices
               in [0, n), no edge on two lines; k >= 2, n >= 1
  kernel       ``<g>``                then g^3 rationals p/q, x fastest; g >= 1
  graph        ``tripartite <N>``     then lines ``XY x y`` / ``YZ y z`` /
               ``XZ x z``; N >= 1

Residue sets in {0..L-1} (the solution-free constructions) use the 1-based
grid format with side L by storing value+1; translation-invariant relations
are unaffected by the shift, and loaders undo it.  Parse errors carry
line/column positions.

`read_set` reads either kind of set: a group set when the first word of
its first data line is ``group``.  Text is UTF-8; opened with
errors="replace", a byte that is not UTF-8 reads as U+FFFD, which no format
accepts outside a comment, so it is refused at its line and column.

Grid and group sets in the canonical form the writers emit are parsed in
bulk, a chunk of text at a time: grid text with numpy, group text through a
dict of the group's canonical element names.  Text in any other spelling
goes through the per-line reader, which yields the same set and gives every
diagnostic.  A grid-set body that ends within its first chunk goes
through the per-line reader whole, without numpy, and the grid-set writer
writes a set of few members in plain Python (by `patterns._numpy_pays`);
only larger grid sets load numpy.  The group set, residue, hypergraph,
kernel, graph and spectrum formats never do.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from functools import partial
from itertools import chain, islice
from json.encoder import encode_basestring_ascii
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Optional, Sequence, TextIO

from . import limits

# each reader and writer imports what it builds when it runs (see above)
if TYPE_CHECKING:
    import numpy as np

    from .diamond import TripartiteGraph
    from .hypergraph import Hypergraph, StepKernel
    from .patterns import GridSet, GroupSet, Spectrum

__all__ = [
    "ParseError",
    "read_grid_set",
    "write_grid_set",
    "read_group_set",
    "write_group_set",
    "read_set",
    "read_residues",
    "write_residues",
    "read_hypergraph",
    "write_hypergraph",
    "read_kernel",
    "write_kernel",
    "read_tripartite",
    "write_tripartite",
    "write_spectrum_csv",
    "write_spectrum_json",
]


class ParseError(ValueError):
    def __init__(self, path: str, line: int, column: int, message: str):
        self.path, self.line, self.column = path, line, column
        super().__init__(f"{path}:{line}:{column}: {message}")


# characters of set text parsed at a time: small, so the bulk parser's
# scratch arrays stay far below the mask they fill
_CHUNK_CHARS = 1 << 13

# members written at a time by the grid-set writer, and rows by the
# spectrum writers
_WRITE_ROWS = 1 << 13


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
    """Refuse a header whose carrier, base**exp cells, exceeds the cell
    limit, before anything is allocated; a huge exponent is refused unevaluated."""
    if limits._past_cell_limit(base, exp):
        raise ParseError(path, lineno, col, f"{what} exceeds the {limits.MAX_CELLS}-cell limit")


def _is_data(line: str) -> bool:
    """Not blank and not a comment."""
    return bool(line.strip()) and not line.lstrip().startswith("#")


def _header(fh: TextIO, path: str) -> tuple[int, list[tuple[int, str]], Iterator[tuple[int, str]]]:
    """(line number, tokens) of the first data line, and the data lines
    after it; a file with no data line is refused as empty.  The lines are
    read lazily, so `fh` itself has read nothing past the header."""
    lines = ((lineno, line) for lineno, line in enumerate(fh, start=1) if _is_data(line))
    try:
        lineno, header = next(lines)
    except StopIteration:
        raise ParseError(path, 1, 1, "empty file") from None
    return lineno, _tokens(header), lines


def _pieces(fh: TextIO) -> Iterator[str]:
    """The rest of `fh`, read _CHUNK_CHARS characters at a time."""
    return iter(partial(fh.read, _CHUNK_CHARS), "")


def _line_chunks(pieces: Iterable[str]) -> Iterator[str]:
    """The text of `pieces` (see _pieces) cut after a '\\n' in each piece
    that has one, so every chunk ends in '\\n'; a last line without one
    gets it."""
    tail: list[str] = []
    for piece in pieces:
        cut = piece.rfind("\n") + 1
        if cut:
            yield "".join(tail) + piece[:cut]
            tail = [piece[cut:]]
        else:
            tail.append(piece)
    if rest := "".join(tail):
        yield rest + "\n"


def _strict_flats(text: str, seps: bytes, low: int, high: int, weights: list[int]) -> Optional[np.ndarray]:
    """Flat indices of the lines of `text` if all of it is in strict form,
    else None.

    Strict form is what the writers emit: ASCII digits and separators only,
    the separators of every line exactly `seps` (ending in '\\n'), no empty
    token, no sign, no leading zero and every value in [low, high].  Token j
    of a line adds (value - low) * weights[j] to its flat index.
    """
    import numpy as np

    try:
        raw = np.frombuffer(text.encode("ascii"), dtype=np.uint8)
    except UnicodeEncodeError:
        return None
    ends = np.flatnonzero((raw < 48) | (raw > 57))  # the separator after each token
    per_line = len(seps)
    if ends.size % per_line or not (raw[ends].reshape(-1, per_line) == np.frombuffer(seps, np.uint8)).all():
        return None
    length = np.diff(ends, prepend=-1) - 1
    width = len(str(high))
    if length.min() < 1 or length.max() > width:
        return None
    values = np.zeros(ends.size, dtype=np.int64)
    for place in range(width):  # digit `place` from the right of every token
        digit = raw.take(ends - 1 - place, mode="clip").astype(np.int64) - 48
        values += np.where(length > place, digit, 0) * 10**place
    # a leading zero leaves a value below 10**(digits - 1), the least value
    # of its digit count (a lone 0 has no leading zero)
    if values.min() < low or values.max() > high or not (values >= np.where(length > 1, 10 ** (length - 1), 0)).all():
        return None
    rows = values.reshape(-1, per_line) - low
    flats = rows[:, 0] * weights[0]
    for j in range(1, per_line):
        flats += rows[:, j] * weights[j]
    return flats


def _strict_pairs(text: str, x_flat: dict[bytes, int], y_flat: dict[bytes, int]) -> Optional[list[int]]:
    """Flat indices of the group-set lines of `text` if all of it is in
    strict form, else None.

    Strict form is what the writer emits: every line two canonical element
    names and '\\n', one space between them.  The separators are checked
    first: with the digits and commas deleted, the ASCII text must be
    exactly one ' \\n' per line.  Every token must then be a key of the name
    dicts, which map a name to its flat part as x and as y.
    """
    try:
        raw = text.encode("ascii")
    except UnicodeEncodeError:
        return None
    lines = raw.count(b"\n")
    if raw.translate(None, b"0123456789,") != b" \n" * lines:
        return None
    tokens = raw.split()
    if len(tokens) != 2 * lines:  # an empty name
        return None
    try:
        return list(map(operator.add, map(x_flat.__getitem__, tokens[0::2]), map(y_flat.__getitem__, tokens[1::2])))
    except KeyError:
        return None


def _read_flats(
    pieces: Iterable[str],
    lineno: int,
    strict: Callable[[str], Optional[Sequence[int]]],
    flat_of_line: Callable[[int, str], int],
) -> Iterator[Sequence[int]]:
    """The flat indices of the set lines in `pieces`, the text after the
    header, which is line `lineno`, one sequence per chunk.  strict(text)
    parses a chunk in strict form in bulk and returns None for any other
    chunk; that chunk goes line by line through flat_of_line(lineno, line),
    which raises the ParseError of a bad line, so every input reads as the
    per-line reader alone would read it."""
    for text in _line_chunks(pieces):
        flats = strict(text)
        if flats is None:
            lines = enumerate(text.split("\n")[:-1], start=lineno + 1)
            flats = [flat_of_line(n, line) for n, line in lines if _is_data(line)]
        yield flats
        lineno += text.count("\n")


def _grid_point(path: str, lineno: int, line: str, dim: int, side: int) -> tuple[int, ...]:
    """The point on a grid-set data line, with every check at its position."""
    toks = _tokens(line)
    if len(toks) != dim:
        raise ParseError(path, lineno, toks[0][0] if toks else 1, f"expected {dim} coordinates")
    point = tuple(_int(path, lineno, c, t) for c, t in toks)
    if not all(1 <= x <= side for x in point):
        raise ParseError(path, lineno, toks[0][0], f"point {point} outside [1, {side}]^{dim}")
    return point


def _grid_header(fh: TextIO, path: str) -> tuple[int, int, int, list[tuple[int, str]], Iterator[tuple[int, str]]]:
    """(line number, dim, side, tokens) of a checked 'dim k side N' header
    within the cell limit, then the data lines after it (see _header)."""
    lineno, toks, lines = _header(fh, path)
    if len(toks) != 4 or toks[0][1] != "dim" or toks[2][1] != "side":
        raise ParseError(path, lineno, toks[0][0] if toks else 1, "expected header 'dim k side N'")
    dim = _int(path, lineno, toks[1][0], toks[1][1])
    side = _int(path, lineno, toks[3][0], toks[3][1])
    if dim < 1:
        raise ParseError(path, lineno, toks[1][0], f"dim must be positive, got {dim}")
    if side < 1:
        raise ParseError(path, lineno, toks[3][0], f"side must be positive, got {side}")
    _check_cells(path, lineno, toks[3][0], side, dim, f"side {side} in dim {dim}")
    return lineno, dim, side, toks, lines


def read_grid_set(fh: TextIO, path: str = "<grid set>") -> GridSet:
    """The grid set in `fh`.  A body that ends within the first
    _CHUNK_CHARS read goes through the per-line reader alone, in plain
    Python; a longer one is parsed in bulk with numpy where it is in strict
    form."""
    from .patterns import GridSet, _pack, _set_bits

    lineno, dim, side, _, _ = _grid_header(fh, path)
    weights = [side**j for j in range(dim)]

    def flat_of_line(lineno: int, line: str) -> int:
        return sum((c - 1) * w for c, w in zip(_grid_point(path, lineno, line, dim, side), weights))

    pieces = _pieces(fh)
    first = next(pieces, "")
    if len(first) < _CHUNK_CHARS:
        flats = _read_flats([first], lineno, lambda text: None, flat_of_line)
        return GridSet.from_packed(dim, side, _set_bits(chain.from_iterable(flats), side**dim))
    import numpy as np

    seps = b" " * (dim - 1) + b"\n"
    flats = _read_flats(chain([first], pieces), lineno, lambda text: _strict_flats(text, seps, 1, side, weights), flat_of_line)
    return GridSet.from_packed(dim, side, _pack((np.asarray(chunk, dtype=np.int64) for chunk in flats), side**dim))


def write_grid_set(fh: TextIO, grid: GridSet) -> None:
    """Write `grid` as text: the header, then one line of 1-based
    coordinates per member, in flat-index order.  A set of few members
    (`patterns._numpy_pays`) is written in plain Python, at once.  A larger
    one is read one block of whole lines at a time
    (`patterns._member_blocks`) and written `_WRITE_ROWS` members at a time,
    so the scratch is one block and one batch of text, not one set."""
    from .patterns import _member_blocks, _numpy_pays

    fh.write(f"dim {grid.dim} side {grid.side}\n")
    line = "%d " * (grid.dim - 1) + "%d\n"
    if not _numpy_pays(len(grid)):
        fh.write("".join([line % point for point in grid]))
        return
    import numpy as np

    for _, columns in _member_blocks(grid.packed(), grid.side, grid.dim):
        for start in range(0, columns[0].size, _WRITE_ROWS):
            rows = np.stack([column[start : start + _WRITE_ROWS] for column in columns], axis=1) + 1
            fh.write((line * len(rows)) % tuple(rows.ravel().tolist()))


def read_residues(fh: TextIO, path: str = "<residue set>") -> tuple[frozenset, int]:
    """Load a {0..L-1} residue set stored in the 1-based grid format;
    returns (members, L).  Read line by line: residue sets are small."""
    lineno, dim, side, toks, lines = _grid_header(fh, path)
    if dim != 1:
        raise ParseError(path, lineno, toks[1][0], "residue sets must be 1-dimensional")
    members = frozenset(_grid_point(path, n, line, 1, side)[0] - 1 for n, line in lines)
    return members, side


def write_residues(fh: TextIO, members: Iterable[int], length: int) -> None:
    """The grid-format text of the 1-d set {v + 1 : v in members} of side
    `length`: each residue once, in increasing order."""
    values = sorted({int(v) for v in members})
    if length < 1 or values and (values[0] < 0 or values[-1] >= length):
        raise ValueError(f"residues must lie in [0, {length})")
    fh.write(f"dim 1 side {length}\n")
    fh.writelines(f"{v + 1}\n" for v in values)


def read_group_set(fh: TextIO, path: str = "<group set>") -> GroupSet:
    from .contfrac import _is_prime
    from .patterns import Group, GroupSet, _set_bits

    lineno, toks, _ = _header(fh, path)
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
        if p > 1:  # a p below 2 is refused as not prime below, not as the 2^(2n) cells the limit counts
            _check_cells(path, lineno, toks[3][0], p, 2 * n, f"fp {p} {n} x fp {p} {n}")
        if not _is_prime(p):
            raise ParseError(path, lineno, toks[2][0], f"p must be prime, got {p}")
        group = Group.vector(p, n)
    else:
        raise ParseError(path, lineno, toks[1][0] if len(toks) > 1 else 1, "unknown group kind")

    order = group.order

    def element_index(lineno: int, col: int, token: str) -> int:
        try:
            return group._parse_index(token)
        except ValueError:
            raise ParseError(path, lineno, col, f"bad group element {token!r}") from None

    def flat_of_line(lineno: int, line: str) -> int:
        toks = _tokens(line)
        if len(toks) != 2:
            raise ParseError(path, lineno, toks[0][0] if toks else 1, "expected two elements")
        (cx, x), (cy, y) = toks
        return element_index(lineno, cx, x) * order + element_index(lineno, cy, y)

    names = [group._name(i).encode() for i in range(order)]
    x_flat = {name: i * order for i, name in enumerate(names)}
    y_flat = {name: i for i, name in enumerate(names)}
    flats = _read_flats(_pieces(fh), lineno, lambda text: _strict_pairs(text, x_flat, y_flat), flat_of_line)
    return GroupSet.from_packed(group, _set_bits(chain.from_iterable(flats), order * order))


def read_set(fh: TextIO, path: str = "<set>") -> GridSet | GroupSet:
    """The grid or group set in `fh`, read from its start (see above)."""
    head = next(filter(_is_data, fh), "").split()
    fh.seek(0)
    return (read_group_set if head[:1] == ["group"] else read_grid_set)(fh, path)


def write_group_set(fh: TextIO, pairs: GroupSet) -> None:
    """The header, then one line 'x y' per member in flat order, written a
    row x at a time."""
    group = pairs.group
    names = [group._name(i) for i in range(group.order)]
    fh.write(f"group {group.label()}\n")
    for x, ys in pairs._rows():
        lead = names[x] + " "
        fh.write(lead + f"\n{lead}".join(map(names.__getitem__, ys)) + "\n")


def read_hypergraph(fh: TextIO, path: str = "<hypergraph>") -> Hypergraph:
    from .hypergraph import Hypergraph

    lineno, toks, lines = _header(fh, path)
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
    from .hypergraph import StepKernel

    lineno, toks, lines = _header(fh, path)
    if len(toks) != 1:
        raise ParseError(path, lineno, 1, "expected header '<g>'")
    g = _int(path, lineno, toks[0][0], toks[0][1])
    if g < 1:
        raise ParseError(path, lineno, toks[0][0], f"grid resolution must be positive, got {g}")
    flat = []
    for lineno, line in lines:
        for col, token in _tokens(line):
            value = _fraction(path, lineno, col, token)
            if not 0 <= value <= 1:
                raise ParseError(path, lineno, col, f"kernel value {value} outside [0, 1]")
            flat.append(value)
    if len(flat) != g**3:
        raise ParseError(path, lineno if flat else 1, 1, f"expected {g ** 3} values, found {len(flat)}")
    # x varies fastest in the file
    return StepKernel(g, [[[flat[x + g * (y + g * z)] for z in range(g)] for y in range(g)] for x in range(g)])


def write_kernel(fh: TextIO, w: StepKernel) -> None:
    fh.write(f"{w.g}\n")
    for z in range(w.g):
        for y in range(w.g):
            fh.write(" ".join(str(w.values[x][y][z]) for x in range(w.g)) + "\n")


def read_tripartite(fh: TextIO, path: str = "<graph>") -> TripartiteGraph:
    from .diamond import TripartiteGraph

    lineno, toks, lines = _header(fh, path)
    if len(toks) != 2 or toks[0][1] != "tripartite":
        raise ParseError(path, lineno, 1, "expected header 'tripartite N'")
    side = _int(path, lineno, toks[1][0], toks[1][1])
    if side < 1:
        raise ParseError(path, lineno, toks[1][0], f"side must be positive, got {side}")
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
    """The bytes `csv.writer` writes for a "d,count" header and one row per
    difference, joined `_WRITE_ROWS` rows at a time: a key text holds
    digits, '-' and ',' (`Spectrum.rows`), so only a key with a comma is
    quoted."""
    rows = spec.rows()
    fh.write("d,count\r\n")
    while batch := [f'"{key}",{count}\r\n' if "," in key else f"{key},{count}\r\n" for key, count in islice(rows, _WRITE_ROWS)]:
        fh.write("".join(batch))


def write_spectrum_json(fh: TextIO, spec: Spectrum) -> None:
    """The bytes `json.dump` writes with indent=2 for {"counts": {key:
    count}, "total", "max_d", "max_count"}, the counts joined `_WRITE_ROWS`
    rows at a time; a key text holds digits, '-' and ',' (`Spectrum.rows`),
    which JSON takes unescaped."""
    best = spec.max_entry()
    rows = spec.rows()
    fh.write('{\n  "counts": {')
    lead = "\n    "
    while batch := [f'"{key}": {count}' for key, count in islice(rows, _WRITE_ROWS)]:
        fh.write(lead + ",\n    ".join(batch))
        lead = ",\n    "
    fh.write("}" if lead == "\n    " else "\n  }")
    max_d = "null" if best is None else encode_basestring_ascii(str(best[0]))
    max_count = "null" if best is None else best[1]
    fh.write(f',\n  "total": {spec.total()},\n  "max_d": {max_d},\n  "max_count": {max_count}\n}}')

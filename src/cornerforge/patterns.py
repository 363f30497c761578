"""Point patterns, grid/group pair sets, and popular-difference spectra.

Two kinds of carrier set are supported:

* ``GridSet`` -- a subset of the integer grid ``[N]^k`` (coordinates 1..N),
  counted against translated dilates ``x + d*T`` of a fixed pattern ``T``.
* ``GroupSet`` -- a subset of ``G x G`` for a finite abelian group ``G``
  (``Z/N`` or a vector group ``F_p^n``), counted against corners
  ``(x,y), (x+d,y), (x,y+d)`` with group arithmetic (wraparound).

Both kinds are stored as their packed bits, little-endian, that every
consumer reads or fills directly: a grid set as a read-only uint8 numpy
array, a group set as immutable `bytes`.  Grid patterns are
counted from the members: every copy x + d*T holds two members on one line
parallel to t_1 - t_0, so the grid kernel pairs up members line by line,
for every difference 0 < |d| < N in one pass, and tests the other pattern
points by bit lookups in the packed bytes.  Group
corners are counted in one walk over d, on the bytes read into one int, one
digit step at a time, each step one block rotation of each shifted copy: a
spectrum walks every d in reflected base-p Gray order, and a one-d count
walks from the identity through the nonzero digits of its d.  A group is
one digit-group model: element i has digit j = i // base**j % base, with
Z/N the one-digit case, so the kernel, the readers and writers and the
sampler all work on element indices; the public element shape (an int, or a
digit tuple for F_p^n) is made only by `Group.element` and read only by
`Group.index`.  The spectrum over all admissible differences d is the
statistic of interest: its maximum entry is the best "popular difference"
of the set.

Only the grid code computes with numpy, and it imports numpy in its
function bodies: group sets, their corner walk and `Group` run on `bytes`
and ints, so importing this module, or counting a group set, loads no numpy.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from itertools import chain, compress
from typing import TYPE_CHECKING, Iterable, Iterator, Optional, Sequence, Union

from .contfrac import _is_prime
from . import limits

# the grid functions import numpy when they run (see above)
if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "Pattern",
    "GridSet",
    "Group",
    "GroupSet",
    "Spectrum",
    "corner_count_group",
    "spectrum",
]

# ---------------------------------------------------------------------------
# bit-array helpers
# ---------------------------------------------------------------------------

def _pack(flats: Iterable[np.ndarray], nbits: int) -> np.ndarray:
    """The read-only little-endian packed array of `nbits` bits with bit f
    set for every f in every array of `flats` (each in [0, nbits))."""
    import numpy as np

    bits = np.array([1 << b for b in range(8)], dtype=np.uint8)
    buf = np.zeros((nbits + 7) // 8, dtype=np.uint8)
    for chunk in flats:
        np.bitwise_or.at(buf, chunk >> 3, bits[chunk & 7])
    buf.flags.writeable = False
    return buf


def _set_bits(flats: Iterable[int], nbits: int) -> bytes:
    """The little-endian packed bytes of `nbits` bits with bit f set for
    every f of `flats` (each in [0, nbits)): `_pack` in plain Python."""
    buf = bytearray((nbits + 7) // 8)
    bits = (1, 2, 4, 8, 16, 32, 64, 128)  # a lookup is faster than a shift here
    for f in flats:
        buf[f >> 3] |= bits[f & 7]
    return bytes(buf)


# ASCII binary digits to the bytes 0 and 1, for itertools.compress
_BINARY_DIGITS = bytes.maketrans(b"01", b"\0\1")


def _popcount(raw: np.ndarray) -> int:
    """Set bits of a packed array, unpacked a chunk of bytes at a time."""
    import numpy as np

    chunks = (raw[start : start + _UNPACK_CHUNK] for start in range(0, raw.size, _UNPACK_CHUNK))
    return sum(int(np.count_nonzero(np.unpackbits(chunk))) for chunk in chunks)


def _checked_packed(raw: np.ndarray, nbits: int) -> np.ndarray:
    """`raw` frozen read-only, once it is uint8 bytes of exactly `nbits`
    bits with zero tail bits."""
    import numpy as np

    raw = np.asarray(raw)
    if raw.dtype != np.uint8 or raw.shape != ((nbits + 7) // 8,):
        raise ValueError(f"packed set must be {(nbits + 7) // 8} uint8 bytes, got {raw.dtype} of shape {raw.shape}")
    if nbits % 8 and raw[-1] >> (nbits % 8):
        raise ValueError(f"packed set has bits past its {nbits} cells")
    raw.flags.writeable = False
    return raw


def _replicate(unit: int, block: int, count: int) -> int:
    """`count` contiguous copies of `unit` at stride `block` bits.

    unit must fit in `block` bits.  Built by binary doubling: linear in the
    output size, which matters at grid sizes where a single multiply or
    divide on the full-width integer would dominate the whole count.
    """
    out = 0
    pos = 0
    piece, span = unit, block
    while count:
        if count & 1:
            out |= piece << pos
            pos += span
        count >>= 1
        if count:
            piece |= piece << span
            span *= 2
    return out


def _rotate_blocks(mask: int, block: int, amount: int, keep: int, wrap: int) -> int:
    """Rotate every aligned `block`-bit window of `mask` down by `amount`.

    Bit ``p`` of the result equals bit ``start + (offset + amount) % block``
    of the input, where ``start = p - p % block``; 0 < amount < block.
    `keep` has the low block - amount bits of every window set and `wrap`
    is its complement, as `_corner_walk` builds them.
    """
    return ((mask >> amount) & keep) | ((mask << (block - amount)) & wrap)


# ---------------------------------------------------------------------------
# patterns
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Pattern:
    """A finite list of distinct integer vectors; occurrences are x + d*T."""

    dim: int
    points: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise ValueError("pattern dimension must be positive")
        pts = tuple(tuple(int(c) for c in p) for p in self.points)
        if not pts:
            raise ValueError("pattern needs at least one point")
        if any(len(p) != self.dim for p in pts):
            raise ValueError("pattern point has wrong dimension")
        if len(set(pts)) != len(pts):
            raise ValueError("pattern points must be distinct")
        object.__setattr__(self, "points", pts)

    @staticmethod
    def corner(dim: int) -> "Pattern":
        """The (dim)-dimensional corner: origin plus one step per axis."""
        origin = (0,) * dim
        steps = tuple(tuple(1 if j == i else 0 for j in range(dim)) for i in range(dim))
        return Pattern(dim, (origin,) + steps)

    @staticmethod
    def arithmetic(terms: int) -> "Pattern":
        """1-d progression pattern 0, 1, ..., terms-1."""
        return Pattern(1, tuple((i,) for i in range(terms)))

    @staticmethod
    def one_dim(offsets: Iterable[int]) -> "Pattern":
        return Pattern(1, tuple((int(o),) for o in offsets))

    def reflect(self, axis: int = 0) -> "Pattern":
        return Pattern(
            self.dim,
            tuple(tuple(-c if j == axis else c for j, c in enumerate(p)) for p in self.points),
        )


# ---------------------------------------------------------------------------
# grid sets
# ---------------------------------------------------------------------------


class GridSet:
    """Subset of [N]^k with 1-based coordinates, stored as its packed bits.

    The one stored form is a read-only little-endian uint8 array whose bit
    f is the cell with flat index f = sum_j (p_j - 1) * N^j (first
    coordinate fastest); the bits past N^k are zero.  Conversion between
    1-based tuples and flat bits happens only at this boundary.
    """

    __slots__ = ("dim", "side", "_packed")

    def __init__(self, dim: int, side: int, members: Iterable[tuple[int, ...]] = ()):
        import numpy as np

        if dim < 1 or side < 1:
            raise ValueError("dim and side must be positive")
        self.dim = dim
        self.side = side
        self._packed = _pack([np.fromiter(map(self._checked_flat, members), dtype=np.int64)], side**dim)

    @classmethod
    def from_packed(cls, dim: int, side: int, packed: np.ndarray) -> "GridSet":
        """The set whose cell f is bit f of `packed`, taken over and frozen."""
        obj = cls.__new__(cls)
        obj.dim, obj.side, obj._packed = dim, side, _checked_packed(packed, side**dim)
        return obj

    @classmethod
    def full(cls, dim: int, side: int) -> "GridSet":
        import numpy as np

        return cls.from_cells(np.ones((side,) * dim, dtype=bool))

    @classmethod
    def empty(cls, dim: int, side: int) -> "GridSet":
        return cls(dim, side)

    @classmethod
    def from_cells(cls, cells: np.ndarray) -> "GridSet":
        """The set whose membership is the bool array `cells`, with axes
        [x_k .. x_1] (first coordinate fastest, as in the flat index)."""
        import numpy as np

        if len(set(cells.shape)) != 1:  # also refuses a 0-d array
            raise ValueError(f"cells must be a cube, got shape {cells.shape}")
        return cls.from_packed(cells.ndim, cells.shape[0], np.packbits(cells.reshape(-1), bitorder="little"))

    def packed(self) -> np.ndarray:
        """The stored read-only bytes, not a copy: bit f is cell f."""
        return self._packed

    def cells(self) -> np.ndarray:
        """The set as a fresh bool array with axes [x_k .. x_1] (first
        coordinate fastest), one byte per cell."""
        import numpy as np

        n, k = self.side, self.dim
        return np.unpackbits(self._packed, count=n**k, bitorder="little").view(bool).reshape((n,) * k)

    def _checked_flat(self, p: tuple[int, ...]) -> int:
        """The flat index of point `p`, whose coordinates must be integers
        (Python or numpy ints, read with operator.index) in [1, side]."""
        try:
            coords = tuple(map(operator.index, p))
        except TypeError:
            raise ValueError(f"point {p!r} is not a tuple of integers") from None
        if len(coords) != self.dim:
            raise ValueError(f"point {coords} has wrong dimension (expected {self.dim})")
        if not all(1 <= c <= self.side for c in coords):
            raise ValueError(f"point {coords} outside [1, {self.side}]^{self.dim}")
        f = 0
        for c in reversed(coords):
            f = f * self.side + (c - 1)
        return f

    def __contains__(self, p: tuple[int, ...]) -> bool:
        """Whether `p` is a member; False for any point the constructor
        refuses."""
        try:
            f = self._checked_flat(p)
        except ValueError:
            return False
        return bool(self._packed[f >> 3] >> (f & 7) & 1)

    def __len__(self) -> int:
        return _popcount(self._packed)

    def __iter__(self) -> Iterator[tuple[int, ...]]:
        blocks = _member_blocks(self._packed, self.side, self.dim)
        return chain.from_iterable(zip(*((column + 1).tolist() for column in columns)) for _, columns in blocks)

    def __eq__(self, other: object) -> bool:
        import numpy as np

        return (
            isinstance(other, GridSet)
            and (self.dim, self.side) == (other.dim, other.side)
            and np.array_equal(self._packed, other._packed)
        )

    def __repr__(self) -> str:
        return f"GridSet(dim={self.dim}, side={self.side}, size={len(self)})"

    def reflect(self, axis: int = 0) -> "GridSet":
        """Negate one coordinate and translate back into range (p -> N+1-p)."""
        import numpy as np

        return GridSet.from_cells(np.flip(self.cells(), axis=self.dim - 1 - axis))


# bytes of the packed mask unpacked at a time by the member reader, members
# per block of whole first-axis lines (a block ends with the line of its
# _BLOCK_MEMBERS-th member), and member pairs tested at a time: together
# they bound the scratch of every reader of a grid set's members
_UNPACK_CHUNK = 1 << 13
_BLOCK_MEMBERS = 1 << 15
_PAIR_CHUNK = 1 << 14


def _member_blocks(raw: np.ndarray, side: int, dim: int) -> Iterator[tuple[np.ndarray, list[np.ndarray]]]:
    """Yield (flats, columns) of the members of the packed mask `raw`, in
    flat-index order, a block of whole first-axis lines (runs of `side`
    consecutive flat indices) at a time: the one reader of a grid set's
    members.

    flats holds the members' int64 flat indices and columns their 0-based
    coordinates, first coordinate first.  The columns are int16 when
    side < 2**15 and int32 otherwise: a value is below side, so value + 1
    still fits, but any other arithmetic on them must widen first.  The mask
    is unpacked `_UNPACK_CHUNK` bytes at a time, never as a whole bool grid.
    A block ends with the line that holds its `_BLOCK_MEMBERS`-th member, so
    it has fewer than _BLOCK_MEMBERS + side members, and only the last block
    has fewer than _BLOCK_MEMBERS.
    """
    import numpy as np

    dtype = np.int16 if side < 1 << 15 else np.int32
    nbits = side**dim

    def block(flats: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
        columns, rest = [], flats
        for _ in range(dim):
            columns.append((rest % side).astype(dtype))
            rest = rest // side
        return flats, columns

    # the members read and not yet yielded, and the flat index at which a
    # block ends: the last block's end, or the next one's once its
    # _BLOCK_MEMBERS-th member is read
    pending: list[np.ndarray] = []
    held = cut = 0
    for start in range(0, raw.size, _UNPACK_CHUNK):
        bits = np.unpackbits(raw[start : start + _UNPACK_CHUNK], bitorder="little")
        # flatnonzero is several times faster on bool than on uint8
        flats = np.flatnonzero(bits.view(bool))
        flats += 8 * start
        pending.append(flats)
        held += flats.size
        read = min(8 * (start + _UNPACK_CHUNK), nbits)
        while held >= _BLOCK_MEMBERS and read >= cut:
            flats = np.concatenate(pending)
            cut = (int(flats[_BLOCK_MEMBERS - 1]) // side + 1) * side
            if cut > read:  # that line is not whole yet
                pending = [flats]
                break
            at = int(np.searchsorted(flats, cut))
            # the rest is copied, so no reference outlives its block
            head, pending, held = flats[:at], [flats[at:].copy()], flats.size - at
            del flats
            yield block(head)
            del head
    if held:
        yield block(np.concatenate(pending))


def _line_numbers(keys: Iterable[np.ndarray], size: int) -> np.ndarray:
    """int32 line number of each of `size` members sorted by line: 0 at the
    first, one more wherever any key changes."""
    import numpy as np

    line = np.zeros(size, dtype=np.int32)
    for key in keys:
        line[1:] |= key[1:] != key[:-1]
    return np.cumsum(line, out=line)


def _grid_hits(grid: GridSet, pattern: Pattern) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield (slots, flats) chunks of pattern copies for every difference
    0 < |d| < N, the one grid kernel.

    Each entry is one copy x + d*T in the set: slot i means
    d = `grid_differences`(N)[i], and the flat is the int64 flat index of
    its member x + d*t_0.  Every copy is yielded once, in no fixed order.

    The members come from `_member_blocks` and are put into lines parallel
    to v = t_1 - t_0, ordered by their position along the line.  When
    v = e_1 (as in the corner) flat order already is that order and a line
    never crosses a block, so each block is walked on its own, nothing is
    sorted and the first column is the position; any other v gathers every
    block and sorts once.  A copy with difference d holds two members
    y = x + d*t_0 and y + d*v on one line, |d| positions apart (fewer than
    N), so the kernel walks same-line pairs by rank gap g = 1, 2, ...: a
    pair at gap g has its line-mates at gap g - 1 too, so only the
    survivors of g - 1 are tried.  The survivors are filtered a chunk at a
    time and compacted in place, so no gap builds an array as long as the
    block.  Each pair serves d and -d at once; every other pattern point
    x + d*t of a candidate is the flat offset d * sum_j w_j N^j from the
    candidate's own flat index, with w = t - t_0, after a bounds check of
    the coordinates w moves, and is tested by one bit lookup in the packed
    mask.  The work is the sum over lines of c(c - 1) for c members on a
    line, against |T| * N^k per d for scanning the grid: cheap on sparse
    sets, slow on dense ones.  On the e_1 path the scratch is one block's
    flat indices, columns, int32 line numbers and int32 survivors, and a
    chunk's arrays: a bound per block, not per member of the set.
    """
    import numpy as np

    if grid.dim != pattern.dim:
        raise ValueError(f"dimension mismatch: set {grid.dim}, pattern {pattern.dim}")
    n, k = grid.side, grid.dim
    raw = grid.packed()
    blocks = _member_blocks(raw, n, k)
    t0 = pattern.points[0]
    offsets = [tuple(t[j] - t0[j] for j in range(k)) for t in pattern.points[1:]]

    if not offsets:  # one point: every member is a copy for every d
        for flats, _ in blocks:
            for i in range(2 * (n - 1)):
                yield np.full(flats.size, i), flats
        return
    v, rest = offsets[0], offsets[1:]
    # each other point w: the axes it moves and its flat offset per unit d
    moves = [([j for j in range(k) if w[j]], w, sum(w[j] * n**j for j in range(k))) for w in rest]

    def lines() -> Iterator[tuple[np.ndarray, list[np.ndarray], np.ndarray, np.ndarray]]:
        """(flats, columns, position, line number) of runs of whole lines,
        each sorted by line, then by position."""
        if v == (1,) + (0,) * (k - 1):
            # flat order is line order: a line is a run of equal x_2..x_k,
            # and x_1 rises along it
            for flats, cols in blocks:
                yield flats, cols, cols[0], _line_numbers(cols[1:], flats.size)
                del flats, cols  # before the next block is read
            return
        gathered = list(blocks)
        flats = np.concatenate([f for f, _ in gathered] or [np.zeros(0, dtype=np.int64)])
        cols = [np.concatenate([c[j] for _, c in gathered] or [np.zeros(0, dtype=np.int16)]) for j in range(k)]
        del gathered
        # member = base + pos*v with base fixed on its line; the line's key
        # is base, whose axis-a coordinate is the residue r
        a = next(j for j in range(k) if v[j])
        col = cols[a].astype(np.int64)
        r = col % abs(v[a])
        pos = (col - r) // v[a]
        keys = [cols[j] - pos * v[j] if v[j] else cols[j] for j in range(k) if j != a]
        if abs(v[a]) > 1:
            keys.append(r)
        del col, r
        order = np.lexsort([pos] + keys)  # by line, then by position
        line = _line_numbers((key[order] for key in keys), order.size)
        flats, cols, pos = flats[order], [c[order] for c in cols], pos[order]
        del order, keys
        yield flats, cols, pos, line

    def copies(flats: np.ndarray, cols: list[np.ndarray], y: np.ndarray, d: np.ndarray):
        """The (slots, flats) of the candidates y with y + d*v a member."""
        for axes, w, step in moves:
            # a coordinate below 0 reads as a huge unsigned one, so one
            # comparison bounds it
            keep = np.ones(y.size, dtype=bool)
            for j in axes:
                keep &= (cols[j][y] + d * w[j]).view(np.uint64) < n
            flat = (flats[y] + d * step)[keep]
            keep[keep] = (raw[flat >> 3] >> (flat & 7).astype(np.uint8) & 1).astype(bool)
            y, d = y[keep], d[keep]
        # the slot of d in grid_differences: 2|d| - 2, one more for d < 0
        return 2 * np.abs(d) - 2 + (d < 0), flats[y]

    for flats, cols, pos, line in lines():
        # the pairs (low, low + gap) still to try: every member at gap 1,
        # then the survivors of the gap before, written back over `low` in
        # order
        low = np.arange(max(pos.size - 1, 0), dtype=np.int32)
        gap = 1
        while low.size:
            kept = 0
            for start in range(0, low.size, _PAIR_CHUNK):
                y = low[start : start + _PAIR_CHUNK]
                y = y[y < pos.size - gap]
                y = y[line[y + gap] == line[y]]
                dist = (pos[y + gap] - pos[y]).astype(np.int64)
                for chunk in (copies(flats, cols, y, dist), copies(flats, cols, y + gap, -dist)):  # d and -d
                    if chunk[0].size:
                        yield chunk
                low[kept : kept + y.size] = y
                kept += y.size
            low = low[:kept]
            gap += 1
        del flats, cols, pos, line, low  # before the next block is read


# ---------------------------------------------------------------------------
# group pair sets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Group:
    """Finite abelian group descriptor: Z/N or the vector group F_p^n, one
    digit-group model.

    Element i (an index in [0, order)) has digit j = i // base**j % base,
    with (base, digits) = `radix`, and adds digitwise mod base; Z/N is the
    one-digit case (base N).  Every library path works on indices.  The
    public element shape -- an int for Z/N, a tuple of n digits (least
    significant first) for F_p^n -- is made only by `element` and read only
    by `index`; its text is the digits comma-joined.
    """

    kind: str  # "zN" | "fp"
    params: tuple[int, ...]

    @staticmethod
    def zmod(modulus: int) -> "Group":
        if modulus < 1:
            raise ValueError("modulus must be positive")
        return Group("zN", (modulus,))

    @staticmethod
    def vector(p: int, n: int) -> "Group":
        if n < 1 or not _is_prime(p):
            raise ValueError(f"need prime p and exponent n >= 1, got p={p}, n={n}")
        return Group("fp", (p, n))

    @property
    def radix(self) -> tuple[int, int]:
        """(base, digit count) of element indices; Z/N is one digit of base N."""
        return (self.params[0], 1) if self.kind == "zN" else self.params

    @property
    def order(self) -> int:
        base, digits = self.radix
        return base**digits

    @property
    def identity(self):
        return self.element(0)

    def _digits(self, i: int) -> tuple[int, ...]:
        base, digits = self.radix
        return tuple(i // base**j % base for j in range(digits))

    def _fold(self, digits: Sequence[int], e) -> int:
        """The index whose digit j is digits[j] mod base; `e` names the
        element in the error for a wrong digit count."""
        base, count = self.radix
        if len(digits) != count:
            raise ValueError(f"element {e!r} has {len(digits)} digits, expected {count}")
        i = 0
        for c in reversed(digits):
            i = i * base + c % base
        return i

    def element(self, i: int):
        """The element with index i, in its public shape."""
        if not 0 <= i < self.order:
            raise ValueError(f"index {i} outside [0, {self.order})")
        digits = self._digits(i)
        return digits[0] if self.kind == "zN" else digits

    def index(self, e) -> int:
        """The index of element `e`: integer digits, each reduced mod base."""
        return self._fold([operator.index(e)] if self.kind == "zN" else [operator.index(c) for c in e], e)

    def canon(self, e):
        return self.element(self.index(e))

    def elements(self) -> Iterator:
        """Every element, in index order (first vector coordinate fastest)."""
        return map(self.element, range(self.order))

    def _name(self, i: int) -> str:
        """The text of element i: its digits, comma-joined."""
        return ",".join(map(str, self._digits(i)))

    def _parse_index(self, text: str) -> int:
        """The index of element text: comma-joined integers, each any
        representative of its digit."""
        return self._fold([int(t) for t in text.split(",")], text)

    def format_element(self, e) -> str:
        return self._name(self.index(e))

    def parse_element(self, text: str):
        return self.element(self._parse_index(text))

    def label(self) -> str:
        base, digits = self.radix
        return f"zN {base}" if self.kind == "zN" else f"fp {base} {digits}"


class GroupSet:
    """Subset of G x G, stored as its packed bits in immutable `bytes`:
    little-endian, bit f is the pair with flat index
    f = index(x) * |G| + index(y), with zero bits past |G|^2.  The bit layout
    is a grid set's; only the container differs, so no group-set path needs
    numpy.
    """

    __slots__ = ("group", "_packed")

    def __init__(self, group: Group, members: Iterable[tuple] = ()):
        self.group = group
        self._packed = _set_bits(map(self._checked_flat, members), group.order**2)

    @classmethod
    def from_packed(cls, group: Group, packed) -> "GroupSet":
        """The set whose pair f is bit f of `packed`: any bytes-like object
        (`bytes`, `bytearray`, a uint8 numpy array) of exactly the set's
        byte count with zero bits past |G|^2, read into `bytes`."""
        nbits = group.order**2
        size = (nbits + 7) // 8
        try:
            view = memoryview(packed)
        except TypeError:
            raise ValueError(f"packed set must be {size} bytes, got {type(packed).__name__}") from None
        if (view.format, view.shape) != ("B", (size,)):
            raise ValueError(f"packed set must be {size} bytes, got format {view.format!r} of shape {view.shape}")
        raw = packed if type(packed) is bytes else view.tobytes()
        if nbits % 8 and raw[-1] >> (nbits % 8):
            raise ValueError(f"packed set has bits past its {nbits} cells")
        obj = cls.__new__(cls)
        obj.group, obj._packed = group, raw
        return obj

    @classmethod
    def full(cls, group: Group) -> "GroupSet":
        nbits = group.order**2
        return cls.from_packed(group, ((1 << nbits) - 1).to_bytes((nbits + 7) // 8, "little"))

    def packed(self) -> bytes:
        """The stored bytes, not a copy: bit f is pair f."""
        return self._packed

    def _checked_flat(self, pair) -> int:
        """The flat index of `pair`: two elements whose digits are integers
        (Python or numpy ints), each taken mod the base."""
        g = self.group
        try:
            x, y = pair
            return g.index(x) * g.order + g.index(y)
        except (TypeError, ValueError):
            raise ValueError(f"pair {pair!r} is not two elements of {g.label()}") from None

    def __contains__(self, pair) -> bool:
        """Whether `pair` is a member; False for any pair the constructor
        refuses."""
        try:
            f = self._checked_flat(pair)
        except ValueError:
            return False
        return bool(self._packed[f >> 3] >> (f & 7) & 1)

    def __len__(self) -> int:
        return int.from_bytes(self._packed, "little").bit_count()

    def _rows(self) -> Iterator[tuple[int, list[int]]]:
        """(x, the y with (x, y) a member, ascending) for every index x with
        a member, in order.  Row x is bits x*|G| .. (x+1)*|G| - 1, read from
        the bytes that hold it into one int, so the scratch is one row."""
        order = self.group.order
        ys, everything = range(order), (1 << order) - 1
        for x in range(order):
            low = x * order
            row = int.from_bytes(self._packed[low >> 3 : (low + order + 7) >> 3], "little") >> (low & 7) & everything
            if row:
                # the row's binary digits, lowest first, as 0/1 bytes
                yield x, list(compress(ys, bin(row)[:1:-1].encode().translate(_BINARY_DIGITS)))

    def __iter__(self) -> Iterator[tuple]:
        elems = list(self.group.elements())
        return ((elems[x], elems[y]) for x, ys in self._rows() for y in ys)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, GroupSet) and self.group == other.group and self._packed == other._packed

    def __repr__(self) -> str:
        return f"GroupSet({self.group.label()}, size={len(self)})"


def _corner_walk(pairs: GroupSet, steps: Iterable[tuple[int, int]]) -> Iterator[tuple[int, int]]:
    """Yield (d, corners of d) after each digit step of d: the one group
    corner kernel, with d an element index.

    The set's bytes are read once into one int, the mask.  d starts at the
    identity, and step (j, s), 0 < s < base, adds s to digit j of d.  Index
    digit j of a coordinate sits at place value unit * base^j of the flat
    index (unit = |G| for x, 1 for y), so the step rotates every aligned
    block of unit * base^(j+1) bits of each shifted mask by s * unit *
    base^j; rotations on different digits commute, so the two shifted
    masks always hold the d reached.  A keep/wrap pair is built on first use
    and held for the rest of the walk while the held pairs stay within
    `limits.MAX_CELLS` bits, read at call time: a Gray walk asks for at most
    four per digit (the x- and the y-shift of that digit, one place up or
    down), again at every step that changes the digit.
    """
    g = pairs.group
    base, _ = g.radix
    order = g.order
    nbits = order * order
    held: dict[tuple[int, int], tuple[int, int]] = {}

    def rotate(mask: int, block: int, amount: int) -> int:
        pair = held.get((block, amount))
        if pair is None:
            keep = _replicate((1 << (block - amount)) - 1, block, nbits // block)
            pair = keep, keep ^ ((1 << nbits) - 1)  # wrap: the complement
            if 2 * nbits * (len(held) + 1) <= limits.MAX_CELLS:
                held[block, amount] = pair
        return _rotate_blocks(mask, block, amount, *pair)

    mask = int.from_bytes(pairs.packed(), "little")
    shifted_x = shifted_y = mask
    d = 0
    for j, s in steps:
        place = base**j
        shifted_x = rotate(shifted_x, order * place * base, s * order * place)
        shifted_y = rotate(shifted_y, place * base, s * place)
        digit = d // place % base
        d += ((digit + s) % base - digit) * place
        yield d, (mask & shifted_x & shifted_y).bit_count()


def _gray_steps(group: Group) -> Iterator[tuple[int, int]]:
    """The digit steps of the reflected base-p Gray walk through every
    nonidentity index: at step t (1 <= t < |G|), j is the number of
    trailing zero base-p digits of t, and digit j rises (s = 1) when
    t // p^(j+1) is even and falls (s = p - 1) when it is odd.  That is one
    rotation of each shifted mask per d, against one per nonzero digit of d
    for a walk from the identity."""
    base, _ = group.radix
    for t in range(1, group.order):
        j, q = 0, t
        while q % base == 0:
            q //= base
            j += 1
        yield j, 1 if q // base % 2 == 0 else base - 1


def corner_count_group(pairs: GroupSet, d) -> int:
    """|{(x,y) : (x,y), (x+d,y), (x,y+d) all in the set}| with group arithmetic.

    The one-d entry point: a walk from the identity with one step per
    nonzero digit of d.
    """
    g = pairs.group
    d = g.index(d)
    if d == 0:
        raise ValueError("difference d must not be the identity")
    base, digits = g.radix
    steps = [(j, s) for j in range(digits) if (s := d // base**j % base)]
    *_, (_, count) = _corner_walk(pairs, steps)
    return count


# ---------------------------------------------------------------------------
# spectra
# ---------------------------------------------------------------------------


@dataclass
class Spectrum:
    """Counts per admissible nonzero difference, plus the max-d statistic."""

    counts: dict = field(default_factory=dict)

    def max_entry(self):
        """(d, count) with the largest count; ties go to the earliest d."""
        return max(self.counts.items(), key=lambda item: item[1], default=None)

    def total(self) -> int:
        return sum(self.counts.values())

    def rows(self) -> Iterator[tuple[str, int]]:
        for d, c in self.counts.items():
            key = ",".join(str(x) for x in d) if isinstance(d, tuple) else str(d)
            yield key, c


def _check_differences(side: int) -> None:
    """Refuse a side-N grid spectrum whose 2(N - 1) differences pass
    MAX_CELLS // 64, read at call time, before the differences or a pattern
    counted against them are built."""
    limit, count = limits.MAX_CELLS // 64, 2 * (side - 1)
    if count > limit:
        raise ValueError(f"{count} differences of a side-{side} grid exceed the {limit}-difference limit (MAX_CELLS // 64)")


def grid_differences(side: int) -> list[int]:
    """The differences 0 < |d| < N of a side-N grid in spectrum order: 1, -1, 2, -2, ..."""
    return [s * m for m in range(1, side) for s in (1, -1)]


def spectrum(carrier: Union[GridSet, GroupSet], pattern: Optional[Pattern] = None) -> Spectrum:
    """Pattern counts for every admissible difference.

    Grid sets take |d| < N (both signs); group sets take every nonidentity d
    against the corner configuration (`pattern` must be omitted).  Entries
    are in canonical order, so results are reproducible.  A grid whose
    2(N - 1) differences pass MAX_CELLS // 64 is refused with ValueError.
    """
    if isinstance(carrier, GridSet):
        if pattern is None:
            raise ValueError("grid spectra need an explicit pattern")
        import numpy as np

        _check_differences(carrier.side)
        ds = grid_differences(carrier.side)
        counts = dict.fromkeys(ds, 0)
        for slots, _ in _grid_hits(carrier, pattern):
            for slot, count in zip(*(a.tolist() for a in np.unique(slots, return_counts=True))):
                counts[ds[slot]] += count
        return Spectrum(counts)
    if pattern is not None:
        raise ValueError("group spectra are corner spectra; omit the pattern")
    group = carrier.group
    counts = dict(_corner_walk(carrier, _gray_steps(group)))
    # index 0 is the identity; keys in index order
    return Spectrum({group.element(i): counts[i] for i in range(1, group.order)})

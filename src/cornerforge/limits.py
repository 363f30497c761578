"""The one cell limit, in plain integers, so readers that need no numpy
(residues, kernels, graphs) can check it.  Every size refusal decides here
and reads `limits.MAX_CELLS` at call time; no module keeps a copy."""

# Largest carrier (grid cells or |G|^2 pairs) any reader or materializer
# will allocate.  The grid kernel reads the members one block of whole lines
# at a time, so past the packed mask (N^k / 8 bytes) it needs a bounded
# scratch per block (about 1.5 MB on the 3-d corner); only a pattern whose
# first step is not e_1 sorts every member at once.
MAX_CELLS = 400_000_000


def _past_cell_limit(base: int, exp: int) -> bool:
    """Whether a carrier of base**exp cells exceeds MAX_CELLS, counting a
    base below 2 as 2 (a side-1 grid of huge dimension still builds its
    dim-sized corner); a huge exponent is judged without evaluating the power."""
    return exp >= MAX_CELLS.bit_length() or max(base, 2) ** exp > MAX_CELLS


def check_cells(base: int, exp: int, what: str) -> None:
    """Refuse, with ValueError, a carrier `what` of base**exp cells past MAX_CELLS."""
    if _past_cell_limit(base, exp):
        raise ValueError(f"{what} exceeds the {MAX_CELLS}-cell limit")

"""The eight admissibility rules that turn a restricted partition sum into a
quantum statistics.

Each statistics admits the shapes in a box, at most R rows of at most C
columns, tiled by cells of a rows and b columns (`StatisticsKind.box`):
`admits`, the listing, the counts and the Schur engine's box (`shape_box`)
all read it. The parameter-free kinds are module constants (BOSE, FERMI, HST,
EVEN_ROWS, EVEN_COLS); the others come from `parafermi(p)`, `parabose(p)`
and `pq(p, q)`. String names follow the fixed grammar "bose", "fermi",
"parafermi:p", "parabose:p", "pq:p:q", "hst", "even-rows", "even-cols" used
by the CLI and JSON output. `check_listing_envelope` bounds a listing of
admitted shapes by their counts alone, before any shape is generated.
"""

from __future__ import annotations

from collections import namedtuple

from .partitions import Partition, count_partitions, count_parts, iter_partitions

# family -> (R, C, cell), None for no bound and "p" or "q" for the kind's
# parameter: even-rows and even-cols are hst in cells of 1 x 2 and 2 x 1
_BOXES = {
    "bose": (1, None, (1, 1)),
    "fermi": (None, 1, (1, 1)),
    "parafermi": (None, "p", (1, 1)),
    "parabose": ("p", None, (1, 1)),
    "pq": ("p", "q", (1, 1)),
    "hst": (None, None, (1, 1)),
    "even-rows": (None, None, (1, 2)),
    "even-cols": (None, None, (2, 1)),
}
_PARAMETERS = ("{} takes no parameters", "{} needs a single positive order",
               "{} needs two positive bounds")


class UnsupportedKind(ValueError):
    """An operation was asked for a statistics it does not cover."""


class StatisticsKind(namedtuple("StatisticsKind", "family p q")):
    """Tagged statistics family.

    `p` is the order of parafermi/parabose, or the row-count bound of pq;
    `q` is the column-count bound of pq (unrelated to the Boltzmann variable
    of the series modules). Both are None for the parameter-free families.
    """

    __slots__ = ()

    def __new__(cls, family: str, p: int | None = None, q: int | None = None):
        if family not in _BOXES:
            raise ValueError(f"unknown statistics family: {family!r}")
        need = sum(bound in ("p", "q") for bound in _BOXES[family][:2])
        if any(v is None or v < 1 for v in (p, q)[:need]) or any(v is not None
                                                                 for v in (p, q)[need:]):
            raise ValueError(_PARAMETERS[need].format(family))
        return super().__new__(cls, family, p, q)

    # copy and pickle call __new__; _replace calls _make, which would skip it
    _make = classmethod(lambda cls, fields: cls(*fields))

    def __str__(self) -> str:
        return kind_name(self)

    @property
    def box(self) -> tuple[int | None, int | None, tuple[int, int]]:
        """(R, C, cell): the row and column bounds, None when unbounded, and
        the (rows, columns) of the cells that tile an admitted shape."""
        rows, cols, cell = _BOXES[self.family]
        params = {"p": self.p, "q": self.q}
        return params.get(rows, rows), params.get(cols, cols), cell


BOSE = StatisticsKind("bose")
FERMI = StatisticsKind("fermi")
HST = StatisticsKind("hst")
EVEN_ROWS = StatisticsKind("even-rows")
EVEN_COLS = StatisticsKind("even-cols")


def parafermi(p: int) -> StatisticsKind:
    """Row lengths bounded: admits lam iff lam_1 <= p."""
    return StatisticsKind("parafermi", p=p)


def parabose(p: int) -> StatisticsKind:
    """Row count bounded: admits lam iff length(lam) <= p."""
    return StatisticsKind("parabose", p=p)


def pq(p: int, q: int) -> StatisticsKind:
    """Both bounds at once: length(lam) <= p and lam_1 <= q."""
    return StatisticsKind("pq", p=p, q=q)


def kind_name(kind: StatisticsKind) -> str:
    return ":".join([kind.family, *(str(v) for v in (kind.p, kind.q) if v is not None)])


def parse_kind(text: str) -> StatisticsKind:
    """Parse the fixed string grammar; raises UnsupportedKind on anything
    malformed, including bad order parameters."""
    head, _, rest = text.partition(":")
    try:
        params = [int(s) for s in rest.split(":")] if rest else []
        if len(params) > 2:
            raise ValueError(f"at most two parameters: {text!r}")
        return StatisticsKind(head, *params)
    except ValueError as exc:
        raise UnsupportedKind(str(exc)) from None


def _tiled(cell: tuple[int, int], lam: Partition) -> bool:
    """Is lam tiled by cells of a rows and b columns: do its rows come in
    runs of a equal ones (rows weakly decrease, so the last row of each run
    equals the first), each a multiple of b long?"""
    a, b = cell
    return lam[a - 1 :: a] == lam[::a] and all(part % b == 0 for part in lam)


def admits(kind: StatisticsKind, lam: Partition) -> bool:
    """Does this statistics admit the partition: is it inside the kind's
    box and tiled by its cells?

    The empty partition is admitted by every kind, so every canonical
    partition function has Z_0 = 1.
    """
    rows, cols, cell = kind.box
    return (len(lam) <= (rows or len(lam)) and (not lam or lam[0] <= (cols or lam[0]))
            and _tiled(cell, lam))


def shape_box(kind: StatisticsKind, levels: int, top: int):
    """The kind's shapes on `levels` levels with at most `top` boxes, as the
    Schur engine's (outer, top, cell): R rows (at most levels, as a longer
    shape has s_lam = 0) of C columns (at most top), top, and the cell that
    tiles a kept shape. Two kinds with the same box sum the same shapes
    there."""
    if top < 0:
        raise ValueError("n must be nonnegative")
    rows, cols, cell = kind.box
    rows, cols = min(rows or levels, levels), min(cols or top, top)
    return (cols,) * rows if cols else (), top, cell


# The `partitions` envelope, checked before any shape is generated: the count
# takes about n^2 steps (1 s at 4,000 boxes), a listing about 8 us a shape and
# up to 0.35 us a part (1 s at either). The parts lie between count x ceil(n /
# cols) and count x min(n, rows), and only a limit between the two is checked
# on the exact total: about n rows steps, or n cols steps where rows do not bind.
PARTITIONS_MAX_BOXES = 4000
PARTITIONS_MAX_SHAPES = 100_000
PARTITIONS_MAX_PARTS = 3_000_000


def _cells(kind: StatisticsKind, n: int, max_parts: int):
    """The kind's cell (a, b), and the shapes it admits of n boxes in at most
    max_parts rows as iter_partitions' arguments in cells: n / ab cells in
    at most min(R, max_parts) / a rows of at most C / b; None when n is no
    whole number of cells."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if max_parts < 1:
        raise ValueError("max_parts must be positive")
    rows, cols, (a, b) = kind.box
    rows = min(rows or max_parts, max_parts) // a
    return (a, b), None if n % (a * b) else (n // (a * b), rows, cols and cols // b)


def admitted_partitions(kind: StatisticsKind, n: int, max_parts: int) -> list[Partition]:
    """gen_partitions(n, max_parts) filtered by admits, order preserved.

    The admitted shapes are generated directly rather than filtered: a shape
    of a by b cells is a partition of n / ab in at most max_parts / a rows of
    at most C / b with every part times b, repeated a times, which keeps
    reverse-lexicographic order.
    """
    (a, b), half = _cells(kind, n, max_parts)
    if half is None or not half[1]:  # no whole cells, or no whole row of them
        return [()] if n == 0 else []
    if (a, b) == (1, 1):
        return list(iter_partitions(*half))
    rows = range(a)
    return [tuple([b * part for part in mu for _ in rows]) for mu in iter_partitions(*half)]


def admitted_count(kind: StatisticsKind, n: int, max_parts: int, parts: bool = False) -> int:
    """len(admitted_partitions(kind, n, max_parts)), or with parts the total
    number of parts over them, counted without generating a shape: the
    partitions in cells that they map from, a shape having a times the parts
    of its partition in cells."""
    (a, _), half = _cells(kind, n, max_parts)
    if half is None:
        return 0
    return a * count_parts(*half) if parts else count_partitions(*half)


def check_listing_envelope(kind: StatisticsKind, n: int, max_parts: int) -> None:
    """Raise ValueError when admitted_partitions(kind, n, max_parts) is past the envelope."""
    if n > PARTITIONS_MAX_BOXES:
        raise ValueError(f"n = {n} is more than {PARTITIONS_MAX_BOXES} boxes")
    count = admitted_count(kind, n, max_parts)
    if count > PARTITIONS_MAX_SHAPES:
        raise ValueError(f"{kind_name(kind)} admits {count} partitions of {n}, "
                         f"more than {PARTITIONS_MAX_SHAPES}")
    rows, cols, _ = kind.box
    least, most = count * -(-n // (cols or n or 1)), count * min(n, rows or n, max_parts)
    if least <= PARTITIONS_MAX_PARTS < most:
        least = most = admitted_count(kind, n, max_parts, parts=True)
    if least > PARTITIONS_MAX_PARTS:
        raise ValueError(f"{kind_name(kind)} admits {count} partitions of {n} with "
                         f"{'' if least == most else 'at least '}{least} parts in all, "
                         f"more than {PARTITIONS_MAX_PARTS}")

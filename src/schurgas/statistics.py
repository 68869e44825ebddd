"""The eight admissibility rules that turn a restricted partition sum into a
quantum statistics.

Each statistics is a predicate on partitions. The parameter-free families are
exposed as module constants (BOSE, FERMI, HST, EVEN_ROWS, EVEN_COLS); the
parametrised ones through `parafermi(p)`, `parabose(p)` and `pq(p, q)`.
String names follow the fixed grammar "bose", "fermi", "parafermi:p",
"parabose:p", "pq:p:q", "hst", "even-rows", "even-cols" used by the CLI and
JSON output. `check_listing_envelope` bounds a listing of admitted shapes by
their counts alone, before any shape is generated.
"""

from __future__ import annotations

from collections import Counter, namedtuple

from .partitions import Partition, count_partitions, count_parts, iter_partitions

_FAMILIES = (
    "bose",
    "fermi",
    "parafermi",
    "parabose",
    "pq",
    "hst",
    "even-rows",
    "even-cols",
)


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
        if family not in _FAMILIES:
            raise ValueError(f"unknown statistics family: {family!r}")
        if family in ("parafermi", "parabose"):
            if p is None or p < 1 or q is not None:
                raise ValueError(f"{family} needs a single positive order")
        elif family == "pq":
            if p is None or q is None or p < 1 or q < 1:
                raise ValueError("pq needs two positive bounds")
        elif p is not None or q is not None:
            raise ValueError(f"{family} takes no parameters")
        return super().__new__(cls, family, p, q)

    # copy and pickle call __new__; _replace calls _make, which would skip it
    _make = classmethod(lambda cls, fields: cls(*fields))

    def __str__(self) -> str:
        return kind_name(self)


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
    if kind.family in ("parafermi", "parabose"):
        return f"{kind.family}:{kind.p}"
    if kind.family == "pq":
        return f"pq:{kind.p}:{kind.q}"
    return kind.family


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


def admits(kind: StatisticsKind, lam: Partition) -> bool:
    """Does this statistics admit the partition?

    The empty partition is admitted by every kind, so every canonical
    partition function has Z_0 = 1.
    """
    fam = kind.family
    if fam == "hst":
        return True
    if fam == "bose":
        return len(lam) <= 1
    if fam == "fermi":
        return not lam or lam[0] <= 1
    if fam == "parafermi":
        return not lam or lam[0] <= kind.p
    if fam == "parabose":
        return len(lam) <= kind.p
    if fam == "pq":
        return len(lam) <= kind.p and (not lam or lam[0] <= kind.q)
    if fam == "even-rows":
        return all(part % 2 == 0 for part in lam)
    if fam == "even-cols":
        # all part multiplicities even <=> conjugate(lam) has all parts even
        return all(mult % 2 == 0 for mult in Counter(lam).values())
    raise UnsupportedKind(kind_name(kind))


_EVEN = ("even-rows", "even-cols")
# The `partitions` envelope, checked before any shape is generated: the count
# takes about n^2 steps (1 s at 4,000 boxes), a listing about 8 us a shape and
# up to 0.35 us a part (1 s at either). The parts lie between count x ceil(n /
# cols) and count x min(n, rows), and only a limit between the two is checked
# on the exact total: about n rows steps, or n cols steps where rows do not bind.
PARTITIONS_MAX_BOXES = 4000
PARTITIONS_MAX_SHAPES = 100_000
PARTITIONS_MAX_PARTS = 3_000_000


def _check_sizes(n: int, max_parts: int) -> None:
    if n < 0:
        raise ValueError("n must be nonnegative")
    if max_parts < 1:
        raise ValueError("max_parts must be positive")


def _shape_bounds(kind: StatisticsKind, max_parts: int) -> tuple[int, int | None]:
    """A kind's row and column bounds; (max_parts, None) for the even kinds."""
    rows = {"bose": 1, "parabose": kind.p, "pq": kind.p}.get(kind.family, max_parts)
    return min(rows, max_parts), {"fermi": 1, "parafermi": kind.p, "pq": kind.q}.get(kind.family)


def admitted_partitions(kind: StatisticsKind, n: int, max_parts: int) -> list[Partition]:
    """gen_partitions(n, max_parts) filtered by admits, order preserved.

    The admitted shapes are generated directly rather than filtered: the
    row and column bounds go to iter_partitions, an even-rows shape is a
    partition of n/2 with every part doubled, and an even-cols shape one of
    n/2 (at most max_parts // 2 parts) with every part repeated twice. Both
    maps keep reverse-lexicographic order.
    """
    _check_sizes(n, max_parts)
    fam = kind.family
    if fam not in _EVEN:
        return list(iter_partitions(n, *_shape_bounds(kind, max_parts)))
    if n % 2:
        return []
    if fam == "even-rows":
        return [tuple(2 * p for p in mu) for mu in iter_partitions(n // 2, max_parts)]
    if max_parts < 2:  # even-cols
        return [()] if n == 0 else []
    halves = iter_partitions(n // 2, max_parts // 2)
    return [tuple(p for p in mu for _ in (0, 1)) for mu in halves]


def admitted_count(kind: StatisticsKind, n: int, max_parts: int, parts: bool = False) -> int:
    """len(admitted_partitions(kind, n, max_parts)), or with parts the total
    number of parts over them, counted without generating a shape; the even
    kinds count the partitions of n/2 that they map from, and an even-cols
    shape has twice the parts of its half."""
    _check_sizes(n, max_parts)
    count = count_parts if parts else count_partitions
    if kind.family not in _EVEN:
        return count(n, *_shape_bounds(kind, max_parts))
    if kind.family == "even-rows":
        return 0 if n % 2 else count(n // 2, max_parts)
    return 0 if n % 2 else (1 + parts) * count(n // 2, max_parts // 2)


def check_listing_envelope(kind: StatisticsKind, n: int, max_parts: int) -> None:
    """Raise ValueError when admitted_partitions(kind, n, max_parts) is past the envelope."""
    if n > PARTITIONS_MAX_BOXES:
        raise ValueError(f"n = {n} is more than {PARTITIONS_MAX_BOXES} boxes")
    count = admitted_count(kind, n, max_parts)
    if count > PARTITIONS_MAX_SHAPES:
        raise ValueError(f"{kind_name(kind)} admits {count} partitions of {n}, "
                         f"more than {PARTITIONS_MAX_SHAPES}")
    rows, cols = _shape_bounds(kind, max_parts)
    least, most = count * -(-n // (cols or n or 1)), count * min(n, rows)
    if least <= PARTITIONS_MAX_PARTS < most:
        least = most = admitted_count(kind, n, max_parts, parts=True)
    if least > PARTITIONS_MAX_PARTS:
        raise ValueError(f"{kind_name(kind)} admits {count} partitions of {n} with "
                         f"{'' if least == most else 'at least '}{least} parts in all, "
                         f"more than {PARTITIONS_MAX_PARTS}")

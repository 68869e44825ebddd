"""Integer partitions: generation, conjugation, basic queries.

A partition is a plain tuple of weakly decreasing positive integers; the
empty tuple is the unique partition of 0. No trailing zeros are ever stored,
so tuple equality is partition equality.
"""

from __future__ import annotations

from collections.abc import Iterator

Partition = tuple[int, ...]


def is_partition(parts) -> bool:
    """True if `parts` is a weakly decreasing sequence of positive integers."""
    parts = tuple(parts)
    return all(isinstance(p, int) and p >= 1 for p in parts) and all(
        parts[i] >= parts[i + 1] for i in range(len(parts) - 1)
    )


def check_partition(parts) -> Partition:
    """Coerce to a tuple and raise ValueError if it is not a valid partition."""
    lam = tuple(parts)
    if not is_partition(lam):
        raise ValueError(f"not a partition: {lam!r}")
    return lam


def iter_partitions(n: int, max_parts: int, max_part: int | None = None) -> Iterator[Partition]:
    """Yield the partitions of n with at most max_parts parts, each part at
    most max_part (unbounded when None), in reverse-lexicographic order
    (largest first part first). The parts are chosen depth first on an
    explicit stack, so the number of parts sets no recursion depth."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if max_parts < 1:
        raise ValueError("max_parts must be positive")
    parts: list[int] = []
    remaining, k = n, min(n, n if max_part is None else max_part)  # k: next part to try
    while True:
        if remaining == 0:
            yield tuple(parts)
        elif k * (max_parts - len(parts)) >= remaining:
            # largest feasible part first => reverse-lexicographic output
            parts.append(k)
            remaining, k = remaining - k, min(remaining - k, k)
            continue
        if not parts:
            return
        k = parts.pop()  # back up one part and try one smaller there
        remaining, k = remaining + k, k - 1


def _box_counts(n: int, rows: int, cols: int) -> Iterator[int]:
    """a_0..a_rows, a_k the number of partitions of n with at most k parts,
    each at most cols: the q^n coefficients of the Gaussian binomials
    prod_(i=1..k) (1 - q^(cols + i)) / (1 - q^i), one factor a step."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    coef = [1] + [0] * n
    yield coef[n]
    for i in range(1, rows + 1):
        for d in range(n, cols + i - 1, -1):
            coef[d] -= coef[d - cols - i]
        for d in range(i, n + 1):
            coef[d] += coef[d - i]
        yield coef[n]


def count_partitions(n: int, max_parts: int, max_part: int | None = None) -> int:
    """How many partitions iter_partitions(n, max_parts, max_part) yields
    (max_parts may be 0 here), without listing one: _box_counts run on the
    smaller of the two bounds (conjugation swaps them)."""
    cols = n if max_part is None else min(max_part, n)
    *_, count = _box_counts(n, *sorted((min(max_parts, n), cols)))
    return count


def count_parts(n: int, max_parts: int, max_part: int | None = None) -> int:
    """The total number of parts over iter_partitions(n, max_parts, max_part),
    without listing one. Of the a_r partitions (r = min(max_parts, n)),
    a_r - a_(k-1) have k parts or more, so the total is r a_r - sum_(k<r) a_k:
    one pass of _box_counts on the row bound, about r n steps."""
    r = min(max_parts, n)
    *below, count = _box_counts(n, r, n if max_part is None else min(max_part, n))
    return r * count - sum(below)


def gen_partitions(n: int, max_parts: int) -> list[Partition]:
    """All partitions of n with length <= max_parts, reverse-lexicographic."""
    return list(iter_partitions(n, max_parts))


def conjugate(lam: Partition) -> Partition:
    """Transpose of the Young diagram: part j of the result counts the parts
    of `lam` that are >= j."""
    if not lam:
        return ()
    return tuple(sum(1 for p in lam if p >= j) for j in range(1, lam[0] + 1))

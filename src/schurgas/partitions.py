"""Integer partitions: generation, conjugation, basic queries.

A partition is a plain tuple of weakly decreasing positive integers; the
empty tuple is the unique partition of 0. No trailing zeros are ever stored,
so tuple equality is partition equality.
"""

from __future__ import annotations

from typing import Iterator

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


def count_partitions(n: int, max_parts: int, max_part: int | None = None) -> int:
    """How many partitions iter_partitions(n, max_parts, max_part) yields
    (max_parts may be 0 here), without listing one: the q^n coefficient of
    the Gaussian binomial prod_(i=1..r) (1 - q^(c + i)) / (1 - q^i), r the
    smaller of the two bounds and c the larger (conjugation swaps them)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    r, c = sorted((min(max_parts, n), n if max_part is None else min(max_part, n)))
    coef = [1] + [0] * n
    for i in range(1, r + 1):
        for d in range(n, c + i - 1, -1):
            coef[d] -= coef[d - c - i]
        for d in range(i, n + 1):
            coef[d] += coef[d - i]
    return coef[n]


def gen_partitions(n: int, max_parts: int) -> list[Partition]:
    """All partitions of n with length <= max_parts, reverse-lexicographic."""
    return list(iter_partitions(n, max_parts))


def conjugate(lam: Partition) -> Partition:
    """Transpose of the Young diagram: part j of the result counts the parts
    of `lam` that are >= j."""
    if not lam:
        return ()
    return tuple(sum(1 for p in lam if p >= j) for j in range(1, lam[0] + 1))

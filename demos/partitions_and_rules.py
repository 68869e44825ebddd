"""
Partitions and admission rules
==============================

Walk through the combinatorial layer: generate partitions, conjugate them,
and see which ones each statistics keeps.
"""

from schurgas.partitions import conjugate, iter_partitions
from schurgas.statistics import admits, parse_kind

print("partitions of 6 into at most 3 parts:")
for lam in iter_partitions(6, 3):
    print("  ", lam, "  conjugate:", conjugate(lam))

print()

# An admission rule is just a predicate on the shape. "even-cols" asks the
# conjugate to have all even parts, which is the same as every part of the
# original appearing an even number of times.
kinds = ["bose", "fermi", "parafermi:2", "parabose:2", "pq:2:2", "hst",
         "even-rows", "even-cols"]

shapes = iter_partitions(4, 4)
header = "shape".ljust(14) + "".join(k.ljust(13) for k in kinds)
print(header)
for lam in shapes:
    row = str(lam).ljust(14)
    for name in kinds:
        row += ("yes" if admits(parse_kind(name), lam) else ".").ljust(13)
    print(row)

print()
print("conjugating swaps the row bound and the column bound:")
lam = (3, 3, 1)
print("  ", lam, "parafermi:3 ->", admits(parse_kind("parafermi:3"), lam))
print("  ", conjugate(lam), "parabose:3  ->", admits(parse_kind("parabose:3"), conjugate(lam)))

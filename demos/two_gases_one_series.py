# A bose gas on a ladder with growing degeneracies (1,1,2,2,3,3,...) and an
# even-column gas on a plain non-degenerate ladder produce the same grand
# series coefficient by coefficient. This script builds both tables with
# exact integer arithmetic and prints the audit that explains why.

from schurgas.equivalence import (build_spectrum, check_equivalence, gpf_bose_biseries,
                                  gpf_evencols_biseries)

report = check_equivalence(10)
bose = gpf_bose_biseries(build_spectrum("eq1", 10))
evencols = gpf_evencols_biseries(build_spectrum("eq2", 10))

print("equal over the whole table:", report.equal)
print()
print("degenerate-ladder levels (index, energy in half-quanta, degeneracy):")
for m, d in report.degeneracy_table[:8]:
    print(f"   {m:2d}   {2 * m + 3:2d}   {d}")

print()
print("why the products match, factor by factor:")
print("  t | bose multiplicity | pairs a<b with a+b=t")
for t, left, right in report.factor_audit:
    mark = "" if left == right else "   <-- mismatch"
    print(f"  {t:2d} | {left:17d} | {right}{mark}")

print()
print("corner of the shared coefficient table c[j][t] (rows j = particle")
print("pairs, columns t = energy in whole quanta):")
for j in range(5):
    print("  ", list(bose[j][:9]))

# the same numbers straight from the even-column side
for j in range(5):
    assert bose[j] == evencols[j]
print()
print("even-column table identical on every row shown above.")

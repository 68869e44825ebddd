# Evaluate one Schur polynomial three independent ways and watch the
# numbers agree exactly (everything is a Fraction, no floats anywhere).

from fractions import Fraction

from schurgas.partitions import iter_partitions
from schurgas.schur import kostka, monomial_sym, schur_bialternant, schur_tableau

lam = (3, 2, 1)
point = (Fraction(1, 2), Fraction(2, 3), Fraction(5))

print("shape", lam, "at point", tuple(str(x) for x in point))
print()

a = schur_tableau(lam, point)
print("tableau sum        :", a)

b = schur_bialternant(lam, point)
print("bialternant ratio  :", b)

# third route: expand into monomial symmetric functions with Kostka counts
total = Fraction(0)
print("kostka expansion   :")
for mu in iter_partitions(sum(lam), len(point)):
    k = kostka(lam, mu)
    if k:
        m = monomial_sym(mu, point)
        print(f"    {k} * m_{mu} = {k * m}")
        total += k * m
print("    sum =", total)

assert a == b == total
print()
print("all three agree.")

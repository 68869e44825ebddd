"""
Occupancy against chemical potential on a truncated oscillator ladder
=====================================================================

Mean particle number and mean energy for bose and fermi statistics,
computed from exact canonical polynomials evaluated at float temperature.
Ends with the inverse problem: find mu for a prescribed filling.
"""

from schurgas.equivalence import build_spectrum
from schurgas.statistics import BOSE, FERMI
from schurgas.thermo import ThermoParams, evaluate, solve_mu

# 8 levels at 1/2, 3/2, ..., 15/2 (units of hw). The particle cutoff is
# generous because the bose occupancy near mu = 0 puts real weight on
# 30-40 particle states and the tail check is strict.
spec = build_spectrum("eq2", 7)
beta = 1.0
nmax = 48

print(f"{'mu/hw':>7} | {'bose <N>':>10} {'bose <E>/hw':>12} | {'fermi <N>':>10} {'fermi <E>/hw':>12}")
for tenths in range(-30, 5, 5):
    mu = tenths / 10
    rb = evaluate(BOSE, spec, ThermoParams(beta, mu, nmax))
    rf = evaluate(FERMI, spec, ThermoParams(beta, mu, nmax))
    print(f"{mu:7.1f} | {rb.mean_n:10.5f} {rb.mean_e_over_hw:12.5f}"
          f" | {rf.mean_n:10.5f} {rf.mean_e_over_hw:12.5f}")

print()
print("solve for the chemical potential that pins <N> = 2:")
for kind, label in ((BOSE, "bose"), (FERMI, "fermi")):
    mu = solve_mu(kind, spec, beta, 2.0, nmax)
    back = evaluate(kind, spec, ThermoParams(beta, mu, nmax)).mean_n
    print(f"  {label:5} mu/hw = {mu:+.6f}   check <N> = {back:.9f}")

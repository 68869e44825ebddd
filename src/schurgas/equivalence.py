"""Equivalence of two gases: a degenerate-spectrum Bose system against a
non-degenerate system with conjugate-even statistics.

The first spectrum is the 1:2 anisotropic planar oscillator: energies
(2n + k + 3/2) in units of the base quantum, n, k nonnegative integers.
The second is the plain 1-D oscillator, energies (n + 1/2), no degeneracy.

Energies live on an integer half-quantum grid (units of hw/2) so every
series exponent is an integer. The grand series of both systems become
bivariate series in (a, q): a is the Boltzmann symbol absorbing the
chemical potential, q the step e^{-beta hw}. The Bose series is a product
of geometric factors (1 - a q^(m+1))^(-d_m); the conjugate-even series is
a product over level pairs (1 - a q^(s_i + s_j))^(-1). The theorem is that
the two factor multisets, hence the two series, coincide - checked here on
the multisets themselves; the tables are built only to be shown.

Physically a carries e^(-beta(hw/2 - mu)) on the Bose side and
e^(-beta(hw - 2 mu)) on the pair side; that bookkeeping never enters the
computation, only the docs.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from typing import NamedTuple

from .qpoly import qp_power_sum_rows


def eq1_degeneracy(m: int) -> int:
    """Number of (n, k) pairs of nonnegative integers with 2n + k = m, which
    is the degeneracy of the planar-oscillator level at energy (m + 3/2)hw.
    Counted by direct enumeration of n, with k = m - 2n; the closed form
    floor(m/2) + 1 is kept out of this function so tests can pit the two
    against each other."""
    if m < 0:
        raise ValueError("level index must be nonnegative")
    return sum(1 for n in range(m + 1) if m - 2 * n >= 0)


@dataclass(frozen=True)
class SpectrumSpec:
    """Single-particle levels as (energy in half-quanta, degeneracy) pairs,
    energies odd and strictly increasing, plus the q-truncation bound the
    spectrum was built for."""

    levels: tuple[tuple[int, int], ...]
    qmax: int

    def __post_init__(self):
        if self.qmax < 1:
            raise ValueError("qmax must be positive")
        if not self.levels:
            raise ValueError("spectrum needs at least one level")
        prev = 0
        for energy, degeneracy in self.levels:
            if energy <= prev or energy % 2 == 0:
                raise ValueError("energies must be odd and strictly increasing")
            if degeneracy < 1:
                raise ValueError("degeneracies must be positive")
            prev = energy

    def alpha_exponents(self) -> tuple[int, ...]:
        """q-exponent carried by each level's Boltzmann factor once the
        half-quantum offset is absorbed into the symbol a: (energy - 1) / 2."""
        return tuple((e - 1) // 2 for e, _ in self.levels)

    def qpoly_exponents(self) -> tuple[int, ...]:
        """Half-quantum energies with each level repeated by degeneracy,
        the shape needed by the canonical q-polynomial sums."""
        return tuple(energy for energy, degeneracy in self.levels for _ in range(degeneracy))


def build_spectrum(family: str, qmax: int) -> SpectrumSpec:
    """The two named spectra, truncated so that no discarded level can touch
    q-exponents <= qmax. "eq1" is the degenerate planar oscillator (levels
    2m+3 half-quanta, m = 0..qmax-1, degeneracy by enumeration); "eq2" the
    1-D oscillator (levels 2n+1, n = 0..qmax, all simple)."""
    if family == "eq1":
        levels = tuple((2 * m + 3, eq1_degeneracy(m)) for m in range(qmax))
    elif family == "eq2":
        levels = tuple((2 * n + 1, 1) for n in range(qmax + 1))
    else:
        raise ValueError(f"unknown spectrum family {family!r}")
    return SpectrumSpec(levels, qmax)


Table = tuple[tuple[int, ...], ...]


def _product_biseries(factors: Counter, qmax: int) -> Table:
    """The series sum c[j][t] a^j q^t of the factors' product: the kernel's
    offset rows padded into qmax + 1 rows of qmax + 1 integers, t = 0..qmax."""
    return tuple((0,) * low + tuple(row) + (0,) * (qmax + 1 - low - len(row))
                 for low, row in qp_power_sum_rows(factors, qmax, qmax))


def _bose_factors(spec: SpectrumSpec) -> Counter:
    """The Bose product's factors (1 - a q^s)^(-1), s each level's
    alpha_exponent, counted with the level's degeneracy."""
    exponents = spec.alpha_exponents()  # increasing, so the first is the least
    if exponents[0] < 1:
        raise ValueError("bose factors need q-exponent >= 1; level too low")
    return Counter({(1, 1, 1, s): d for (_, d), s in zip(spec.levels, exponents)})


def _pair_factors(spec: SpectrumSpec) -> Counter:
    """The pair product's factors (1 - a q^(s_i + s_j))^(-1), levels i < j of
    a simple spectrum, counted by exponent so memory stays linear in qmax.
    Pairs past q^qmax are never formed: the exponents increase, so the
    partners of level i that keep s_i + s_j <= qmax form a slice."""
    if any(d != 1 for _, d in spec.levels):
        raise ValueError("pair product expects a non-degenerate spectrum")
    exps = spec.alpha_exponents()
    return Counter((1, 1, 1, a + b) for i, a in enumerate(exps)
                   for b in exps[i + 1 : bisect_right(exps, spec.qmax - a)])


def gpf_bose_biseries(spec: SpectrumSpec) -> Table:
    """Grand series of bosons on the spectrum to order (a, q)^spec.qmax."""
    return _product_biseries(_bose_factors(spec), spec.qmax)


def gpf_evencols_biseries(spec: SpectrumSpec) -> Table:
    """Grand series of the conjugate-even gas on a simple spectrum to order
    (a, q)^spec.qmax. Each power of a counts one pair, i.e. two particles."""
    return _product_biseries(_pair_factors(spec), spec.qmax)


class EquivalenceReport(NamedTuple):
    """The verdict `equal` and the first differing cell `first_mismatch`
    (see check_equivalence), the per-level degeneracies and a
    factor-multiplicity audit: for each q-exponent t, the Bose multiplicity
    (degeneracy of the level feeding q^t) against the number of pairs summing
    to t. Matching audits imply matching series."""

    qmax: int
    equal: bool
    first_mismatch: tuple[int, int] | None
    degeneracy_table: tuple[tuple[int, int], ...]
    factor_audit: tuple[tuple[int, int, int], ...]


def _pair_count(t: int) -> int:
    # independent of eq1_degeneracy on purpose: the audit compares the two.
    # Pairs a < b with a + b = t, enumerated by a with b = t - a.
    return sum(1 for a in range(t + 1) if a < t - a)


def check_equivalence(qmax: int) -> EquivalenceReport:
    """Compare both grand series to order (a^qmax, q^qmax). Each is a product
    of factors (1 - a q^t)^(-1) with 1 <= t <= qmax, so the a^1 row of its
    table is sum_t mult_t q^t, and that row fixes the whole table (Macdonald
    I.2): the tables agree exactly when the factor multisets do. Otherwise
    they first differ, row by row, at a^1 q^t for the least t whose
    multiplicities differ. No table is built. Inequality is reported, not
    raised."""
    spec1 = build_spectrum("eq1", qmax)
    spec2 = build_spectrum("eq2", qmax)
    bose, pairs = _bose_factors(spec1), _pair_factors(spec2)
    t = min((f[3] for f in bose.keys() | pairs.keys() if bose[f] != pairs[f]), default=None)
    return EquivalenceReport(
        qmax=qmax,
        equal=t is None,
        first_mismatch=None if t is None else (1, t),
        degeneracy_table=tuple((m, d) for m, (_, d) in enumerate(spec1.levels)),
        factor_audit=tuple((t, d, _pair_count(t)) for t, (_, d) in enumerate(spec1.levels, 1)),
    )

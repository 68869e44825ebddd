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
the two factor multisets, hence the two series, coincide - checked here by
exact integer coefficient tables.

Physically a carries e^(-beta(hw/2 - mu)) on the Bose side and
e^(-beta(hw - 2 mu)) on the pair side; that bookkeeping never enters the
computation, only the docs.
"""

from __future__ import annotations

from dataclasses import dataclass

from .qpoly import Factor, qp_power_sum_rows


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
        out = []
        for energy, degeneracy in self.levels:
            out.extend([energy] * degeneracy)
        return tuple(out)


def build_spectrum(family: str, qmax: int) -> SpectrumSpec:
    """The two named spectra, truncated so that no discarded level can touch
    q-exponents <= qmax. "eq1" is the degenerate planar oscillator (levels
    2m+3 half-quanta, m = 0..qmax-1, degeneracy by enumeration); "eq2" the
    1-D oscillator (levels 2n+1, n = 0..qmax, all simple)."""
    if qmax < 1:
        raise ValueError("qmax must be positive")
    if family == "eq1":
        levels = tuple((2 * m + 3, eq1_degeneracy(m)) for m in range(qmax))
    elif family == "eq2":
        levels = tuple((2 * n + 1, 1) for n in range(qmax + 1))
    else:
        raise ValueError(f"unknown spectrum family {family!r}")
    return SpectrumSpec(levels, qmax)


@dataclass(frozen=True)
class BiSeries:
    """Truncated bivariate series sum c[j][t] a^j q^t with exact integer
    coefficients, j <= amax, t <= qmax."""

    amax: int
    qmax: int
    coeffs: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if len(self.coeffs) != self.amax + 1:
            raise ValueError("need amax + 1 rows")
        if any(len(row) != self.qmax + 1 for row in self.coeffs):
            raise ValueError("every row needs qmax + 1 entries")

    def coeff(self, j: int, t: int) -> int:
        return self.coeffs[j][t]


def _product_biseries(factors: list[Factor], qmax: int) -> BiSeries:
    rows = qp_power_sum_rows(factors, qmax, qmax)
    return BiSeries(qmax, qmax, tuple(tuple(row) + (0,) * (qmax + 1 - len(row)) for row in rows))


def gpf_bose_biseries(spec: SpectrumSpec) -> BiSeries:
    """Grand series of bosons on the given spectrum, to order (a, q)^spec.qmax:
    product over levels of (1 - a q^s)^(-degeneracy) with s the level's
    alpha_exponent."""
    factors = []
    for (energy, degeneracy), s in zip(spec.levels, spec.alpha_exponents()):
        if s < 1:
            raise ValueError("bose factors need q-exponent >= 1; level too low")
        factors.extend([(1, 1, 1, s)] * degeneracy)
    return _product_biseries(factors, spec.qmax)


def gpf_evencols_biseries(spec: SpectrumSpec) -> BiSeries:
    """Grand series of the conjugate-even gas on a simple spectrum, to order
    (a, q)^spec.qmax: product over level pairs i < j of (1 - a q^(s_i + s_j))^(-1).
    Each power of a counts one pair, i.e. two particles. Pairs with
    s_i + s_j > qmax cannot touch the kept coefficients and are skipped."""
    qmax = spec.qmax
    if any(d != 1 for _, d in spec.levels):
        raise ValueError("pair product expects a non-degenerate spectrum")
    s = spec.alpha_exponents()
    factors = [
        (1, 1, 1, s[i] + s[j])
        for i in range(len(s))
        for j in range(i + 1, len(s))
        if s[i] + s[j] <= qmax
    ]
    return _product_biseries(factors, qmax)


@dataclass(frozen=True)
class EquivalenceReport:
    """Side-by-side coefficient tables with the per-level degeneracies and a
    factor-multiplicity audit: for each q-exponent t, the Bose multiplicity
    (degeneracy of the level feeding q^t) against the number of pairs
    summing to t. Matching audits imply matching series."""

    qmax: int
    bose: BiSeries
    evencols: BiSeries
    equal: bool
    first_mismatch: tuple[int, int] | None
    degeneracy_table: tuple[tuple[int, int], ...]
    factor_audit: tuple[tuple[int, int, int], ...]


def _pair_count(t: int) -> int:
    # independent of eq1_degeneracy on purpose: the audit compares the two.
    # Pairs a < b with a + b = t, enumerated by a with b = t - a.
    return sum(1 for a in range(t + 1) if a < t - a)


def check_equivalence(qmax: int) -> EquivalenceReport:
    """Build both grand series to order (a^qmax, q^qmax) and compare every
    kept coefficient. Inequality is reported, not raised."""
    spec1 = build_spectrum("eq1", qmax)
    spec2 = build_spectrum("eq2", qmax)
    bose = gpf_bose_biseries(spec1)
    evencols = gpf_evencols_biseries(spec2)
    first_mismatch = None
    for j in range(qmax + 1):
        for t in range(qmax + 1):
            if bose.coeff(j, t) != evencols.coeff(j, t):
                first_mismatch = (j, t)
                break
        if first_mismatch:
            break
    degeneracy_table = tuple((m, d) for m, (_, d) in enumerate(spec1.levels))
    factor_audit = tuple((t, eq1_degeneracy(t - 1), _pair_count(t)) for t in range(1, qmax + 1))
    return EquivalenceReport(
        qmax=qmax,
        bose=bose,
        evencols=evencols,
        equal=first_mismatch is None,
        first_mismatch=first_mismatch,
        degeneracy_table=degeneracy_table,
        factor_audit=factor_audit,
    )

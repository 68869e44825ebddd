"""Numeric thermodynamics on top of the exact canonical polynomials.

Everything upstream is exact; floating point enters only here, at the final
substitution. For a spectrum on the half-quantum grid the N-particle weight
is an integer polynomial in qh = e^(-beta hw / 2), computed once per
(statistics, spectrum, truncation), from a closed product where there is
one, and cached. The Horner passes at qh depend on beta alone, so the
mu-solver does them once per solve and only the per-mu sums at each step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

from .equivalence import SpectrumSpec
from .qpoly import qp_eval_float, qp_power_sum_rows, qp_weighted_eval_float
from .schur import schur_qpoly_sums
from .series import PRODUCT_FAMILIES, product_factors
from .statistics import StatisticsKind, admitted_partitions

TAIL_BOUND = 1e-9
MU_REL_TOL = 1e-8


class TruncationTail(ArithmeticError):
    """The last kept particle-number term is not negligible; nmax is too
    small for this fugacity, or the requested target is unreachable. A
    weight beyond float range raises it too, with a message saying so."""


class BracketFailure(ArithmeticError):
    """The mu search could not bracket the target mean particle number."""


@dataclass(frozen=True)
class ThermoParams:
    beta_hw: float
    mu_over_hw: float
    nmax: int

    def __post_init__(self):
        if not (self.beta_hw > 0 and math.isfinite(self.beta_hw)):
            raise ValueError("beta_hw must be positive and finite")
        if not math.isfinite(self.mu_over_hw):
            raise ValueError("mu_over_hw must be finite")
        if not math.isfinite(self.beta_hw * self.mu_over_hw):
            raise ValueError("beta_hw * mu_over_hw (log fugacity) must be finite")
        if self.nmax < 1:
            raise ValueError("nmax must be at least 1")


class ThermoResult(NamedTuple):
    logZ: float
    mean_n: float
    mean_e_over_hw: float


# Bounded: a solve or a sweep reuses one key many times, so a few working
# sets of keys suffice, and an unbounded cache grows for the process's life.
@lru_cache(maxsize=16)
def _weight_polys(kind: StatisticsKind, exponents: tuple[int, ...], nmax: int):
    """Exact integer polynomials in qh for N = 0..nmax, full degree kept so
    no truncation error enters before the float substitution.

    Each is stored in the producers' offset form as (d_N, (c_d, c_(d+1), ...)),
    so Z_N = qh^(d_N) r_N(qh) with r_N(0) >= 1. The zero polynomial is (0, ()).
    """
    # No shape of weight n has degree above n * max(exponents), so one cap
    # at nmax keeps every N whole.
    emax = nmax * max(exponents)
    if kind.family in PRODUCT_FAMILIES:  # one table from the closed product
        polys = qp_power_sum_rows(product_factors(kind, [(1, e) for e in exponents]), nmax, emax)
    else:  # every N shares one branching-rule sweep
        groups = [admitted_partitions(kind, n, len(exponents)) for n in range(nmax + 1)]
        polys = schur_qpoly_sums(exponents, emax, groups)
    return tuple((low, tuple(coeffs)) for low, coeffs in polys)


def _beta_terms(kind: StatisticsKind, spec: SpectrumSpec, beta_hw: float, nmax: int):
    """The beta-only half of evaluate: the polys, qh, r_N(qh) and each N's
    two terms of log qh^(d_N) r_N(qh), d_N beta/2 and log r_N(qh), the second
    None for an N without states (r_N(qh) >= 1 for every N with states)."""
    polys = _weight_polys(kind, spec.qpoly_exponents(), nmax)
    qh = math.exp(-beta_hw / 2)
    try:
        values = [qp_eval_float(r, qh) for _, r in polys]
    except OverflowError:  # a coefficient beyond float range
        values = [math.inf]
    if math.inf in values:
        raise TruncationTail("canonical weight exceeded float range; reduce nmax or beta")
    terms = [(low * beta_hw / 2, math.log(v) if v > 0.0 else None)
             for (low, _), v in zip(polys, values)]
    return polys, qh, values, terms


def _mu_sums(terms, params: ThermoParams):
    """The mu half of evaluate, all the mu-solver needs: the mean N, the
    weights z^N Z_N / e^top, their total and top."""
    logz = params.beta_hw * params.mu_over_hw
    # Log weights, log z^N qh^(d_N) r_N(qh), so that neither an extreme
    # fugacity nor a ground energy far above 1/beta (qh^(d_N) would
    # underflow) leaves float range before the tail check can classify the point.
    logw = [n * logz - a + b if b is not None else None for n, (a, b) in enumerate(terms)]
    top = max(lw for lw in logw if lw is not None)
    if not math.isfinite(top):
        raise TruncationTail("grand canonical weight exceeded float range; reduce nmax or mu")
    scaled = [math.exp(lw - top) if lw is not None else 0.0 for lw in logw]
    total = math.fsum(scaled)
    if not scaled[params.nmax] < TAIL_BOUND * total:
        raise TruncationTail(
            f"tail fraction {scaled[params.nmax] / total:.3e} at "
            f"mu/hw = {params.mu_over_hw}; increase nmax or lower mu"
        )
    mean_n = math.fsum(n * w for n, w in enumerate(scaled)) / total
    return mean_n, scaled, total, top


def evaluate(kind: StatisticsKind, spec: SpectrumSpec, params: ThermoParams) -> ThermoResult:
    """Truncated grand sum sum_N z^N Z_N at z = e^(beta hw mu/hw) and
    qh = e^(-beta hw/2), with the mean particle number and the mean energy
    in units of hw. Raises TruncationTail unless the last term is below
    TAIL_BOUND of the total."""
    polys, qh, values, terms = _beta_terms(kind, spec, params.beta_hw, params.nmax)
    mean_n, scaled, total, top = _mu_sums(terms, params)
    # half-quantum grid: energy in hw units is t/2 for the q^t coefficient,
    # so the per-N mean energy is d_N/2 plus a ratio of same-scale sums
    mean_e = (
        math.fsum(
            w * (low / 2 + qp_weighted_eval_float(r, qh, 0.5) / v) if w else 0.0
            for (low, r), v, w in zip(polys, values, scaled)
        )
        / total
    )
    return ThermoResult(top + math.log(total), mean_n, mean_e)


def solve_mu(
    kind: StatisticsKind,
    spec: SpectrumSpec,
    beta_hw: float,
    target_mean_n: float,
    nmax: int,
) -> float:
    """Chemical potential (in hw units) at which the mean particle number
    hits the target to MU_REL_TOL * max(1, target): relative above a target
    of 1 and absolute below, so a target of 1e-300 may end at mean 0.0.
    Bisection, on the mean number alone, over a bracket found by doubling
    steps; the beta-only terms are computed once, so each point costs only
    the per-mu sums. The mean must not decrease along the upward hunt, else
    BracketFailure. Points failing the truncation check count as above the
    target, so the search backs away; a target beyond them, TruncationTail."""
    if not (target_mean_n > 0 and math.isfinite(target_mean_n)):
        raise ValueError("target mean particle number must be positive and finite")
    tol = MU_REL_TOL * max(1.0, target_mean_n)
    ThermoParams(beta_hw, 0.0, nmax)  # beta and nmax, checked before any work
    terms = _beta_terms(kind, spec, beta_hw, nmax)[3]

    def mean_at(mu: float) -> float | None:
        try:
            return _mu_sums(terms, ThermoParams(beta_hw, mu, nmax))[0]
        except TruncationTail:
            return None

    # occupation ~ e^-50 here: far below any sane target, and always feasible
    start = spec.levels[0][0] / 2 - 50.0 / beta_hw
    f0 = mean_at(start)
    if f0 is None:
        raise TruncationTail("truncation fails even in the dilute limit; increase nmax")
    lo = hi = start
    f_lo = f_hi = f0
    step = 1.0 / beta_hw
    hunts = 0
    # Upward hunt; a tail-bound wall stops it, and the target then lies below.
    while f_hi is not None and f_hi < target_mean_n:
        hunts += 1
        if hunts > 200:
            raise BracketFailure(
                f"no bracket after 200 upward steps (last mean {f_lo}); "
                f"target {target_mean_n} looks unreachable (saturation?)"
            )
        lo, f_lo = hi, f_hi
        hi += step
        step *= 2.0
        f_hi = mean_at(hi)
        if f_hi is not None and f_hi < f_lo - 1e-9 * max(1.0, abs(f_lo)):
            raise BracketFailure(f"mean number fell from {f_lo} to {f_hi} while raising mu")
    # Every Z_N >= 0, so the tail fraction grows with z: below a feasible
    # point every point is feasible.
    while f_lo > target_mean_n:
        hunts += 1
        if hunts > 200:
            raise BracketFailure(f"no lower bracket for target {target_mean_n}")
        hi, f_hi = lo, f_lo
        lo -= step
        step *= 2.0
        f_lo = mean_at(lo)

    wall_hit = f_hi is None
    for _ in range(400):
        mid = 0.5 * (lo + hi)
        f_mid = mean_at(mid)
        if f_mid is None:
            wall_hit = True
            hi = mid
        elif abs(f_mid - target_mean_n) <= tol:
            return mid
        elif f_mid < target_mean_n:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-15 * max(1.0, abs(lo), abs(hi)):
            break
    if wall_hit:
        raise TruncationTail(
            f"target {target_mean_n} lies beyond the truncation-feasible region"
        )
    raise BracketFailure(f"bisection stalled between {lo} and {hi}")

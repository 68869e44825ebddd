"""Numeric thermodynamics on top of the exact canonical weights.

Everything upstream is exact; floating point enters only here, at the final
substitution qh = e^(-beta hw / 2) on the half-quantum grid. One beta pass
gives every term that depends on beta alone, each sector's mean energy among
them, so a request makes it once and each mu-solver step only the per-mu
sums. bose, hst, even-rows and even-cols make it from a cached int plan of
their product's power sums, in floats at qh; the other kinds by a Horner
pass, `qp_eval_float`, over cached exact polynomials in qh.
"""

from __future__ import annotations

import math
import sys
from collections import Counter, namedtuple
from functools import lru_cache
from operator import mul

from .equivalence import SpectrumSpec
from .qpoly import qp_eval_float
from .schur import schur_qpoly_sums
from .series import product_factors
from .statistics import StatisticsKind, admitted_partitions

TAIL_BOUND = 1e-9
MU_REL_TOL = 1e-8
POSITIVE_FAMILIES = ("bose", "hst", "even-rows", "even-cols")


class TruncationTail(ArithmeticError):
    """The last kept particle-number term is not negligible; nmax is too
    small for this fugacity, or the requested target is unreachable. A
    weight beyond float range raises it too, with a message saying so."""


class BracketFailure(ArithmeticError):
    """The mu search could not bracket the target mean particle number."""


def _check_beta_nmax(beta_hw: float, nmax: int) -> None:
    if not (beta_hw > 0 and math.isfinite(beta_hw)):
        raise ValueError("beta_hw must be positive and finite")
    if nmax < 1:
        raise ValueError("nmax must be at least 1")


class ThermoParams(namedtuple("ThermoParams", "beta_hw mu_over_hw nmax")):
    __slots__ = ()

    def __new__(cls, beta_hw: float, mu_over_hw: float, nmax: int):
        _check_beta_nmax(beta_hw, nmax)
        if not math.isfinite(mu_over_hw):
            raise ValueError("mu_over_hw must be finite")
        if not math.isfinite(beta_hw * mu_over_hw):
            raise ValueError("beta_hw * mu_over_hw (log fugacity) must be finite")
        return super().__new__(cls, beta_hw, mu_over_hw, nmax)

    # copy and pickle call __new__; _replace calls _make, which would skip it
    _make = classmethod(lambda cls, fields: cls(*fields))


class ThermoResult(namedtuple("ThermoResult", "logZ mean_n mean_e_over_hw")):
    __slots__ = ()


# Bounded: a solve or a sweep reuses one key many times, so a few working
# sets of keys suffice, and an unbounded cache grows for the process's life.
@lru_cache(maxsize=16)
def _weight_polys(kind: StatisticsKind, exponents: tuple[int, ...], nmax: int):
    """Exact integer polynomials in qh for N = 0..nmax, full degree kept so
    no truncation error enters before the float substitution.

    Each is stored in the producers' offset form as (d_N, (c_d, c_(d+1), ...)),
    so Z_N = qh^(d_N) r_N(qh) with r_N(0) >= 1. The zero polynomial is (0, ()).
    """
    # Every N shares one branching-rule sweep. No shape of weight n has degree
    # above n * max(exponents), so one cap at nmax keeps every N whole.
    groups = [admitted_partitions(kind, n, len(exponents)) for n in range(nmax + 1)]
    polys = schur_qpoly_sums(exponents, nmax * max(exponents), groups)
    return tuple((low, tuple(coeffs)) for low, coeffs in polys)


@lru_cache(maxsize=16)
def _power_sum_plan(kind: StatisticsKind, exponents: tuple[int, ...], nmax: int):
    """The beta-free int plan of a POSITIVE_FAMILIES kind, whose closed
    product has only factors (1 - z^r q^t)^(-1). With z -> z qh^(-s),
    s = num / den = min t / r, and w = z^step, step = gcd r, each merged (r, t)
    is a class (r' = r / step, r' times its count, u = t den - r num) adding
    r' count y^(u k) to the power sum at w^(r' k), y = qh^(1 / den)."""
    merged = Counter(product_factors(kind, [(1, e) for e in exponents]))
    den, step = math.lcm(*(f[0] for f in merged)), math.gcd(*(f[0] for f in merged)) or 1
    num = min((t * den // r for r, _, _, t in merged), default=0)
    return nmax, step, num, den, tuple((r // step, r // step * mult, t * den - r * num)
                                       for (r, _, _, t), mult in merged.items())


def _power_sum_pass(plan, qh: float):
    """Each N's (N s, G_N, qh G_N'), G_N = qh^(-N s) Z_N(qh), in floats: by
    Newton's identities n G_n = sum_(m=1..n) Q_m G_(n-m) in w (Macdonald
    I.2), and by G = exp(sum_m Q_m w^m / m), qh G_n' = sum_m (qh Q_m' / m)
    G_(n-m). All terms are positive, so the sums are forward-stable (Higham
    ch. 4), and G_N >= 1 where Z_N has states."""
    nmax, step, num, den, classes = plan
    top = nmax // step
    q, dq = [0.0] * (top + 1), [0.0] * (top + 1)  # Q_m and qh Q_m' / m
    for r, weight, u in classes:
        x, power, energy = qh ** (u / den), float(weight), u / den / r
        for k in range(1, top // r + 1):
            power *= x
            q[r * k] += power
            dq[r * k] += energy * power
    g = [1.0]
    for n in range(1, top + 1):
        g.append(sum(map(mul, q[n:0:-1], g)) / n)
    dg = [sum(map(mul, dq[n:0:-1], g)) for n in range(top + 1)]
    return [(n * num / den, *((0.0, 0.0) if n % step else (g[n // step], dg[n // step])))
            for n in range(nmax + 1)]


def _beta_terms(kind: StatisticsKind, spec: SpectrumSpec, beta_hw: float, nmax: int):
    """The beta-only half of evaluate: each N's terms (a_N, b_N, e_N) of
    log qh^(d_N) r_N(qh) = -a_N + b_N, a_N = d_N beta/2 and b_N = log r_N(qh),
    and of its mean energy in hw units, e_N = d_N/2 + qh r_N'(qh) / (2 r_N(qh))
    (the q^t coefficient carries energy t/2), from `_power_sum_pass` (d_N = N s)
    or a Horner pass over `_weight_polys`. b_N is None for an N without
    states; r_N(qh) >= 1 for every N with states."""
    qh = math.exp(-beta_hw / 2)
    key = (kind, spec.qpoly_exponents(), nmax)
    terms = []
    try:
        sectors = (_power_sum_pass(_power_sum_plan(*key), qh) if kind.family in POSITIVE_FAMILIES
                   else [(low, *qp_eval_float(r, qh)) for low, r in _weight_polys(*key)])
        for low, value, slope in sectors:
            if not (value < math.inf and slope < math.inf):
                raise OverflowError
            terms.append((low * beta_hw / 2, math.log(value), low / 2 + 0.5 * slope / value)
                          if value > 0.0 else (low * beta_hw / 2, None, 0.0))
    except OverflowError:  # a coefficient or a value beyond float range
        raise TruncationTail("canonical weight exceeded float range; reduce nmax or beta")
    return terms


def _mu_sums(terms, beta_hw: float, mu_over_hw: float):
    """The mu half of evaluate, all the mu-solver needs: the mean N, the
    weights z^N Z_N / e^top, their total and top."""
    logz = beta_hw * mu_over_hw
    # Log weights, log z^N qh^(d_N) r_N(qh), so that neither an extreme
    # fugacity nor a ground energy far above 1/beta (qh^(d_N) would
    # underflow) leaves float range before the tail check can classify the point.
    logw = [n * logz - a + b if b is not None else None for n, (a, b, _) in enumerate(terms)]
    top = max(lw for lw in logw if lw is not None)
    if not math.isfinite(top):
        raise TruncationTail("grand canonical weight exceeded float range; reduce nmax or mu")
    scaled = [math.exp(lw - top) if lw is not None else 0.0 for lw in logw]
    total = math.fsum(scaled)
    if not scaled[-1] < TAIL_BOUND * total:
        raise TruncationTail(
            f"tail fraction {scaled[-1] / total:.3e} at "
            f"mu/hw = {mu_over_hw}; increase nmax or lower mu"
        )
    mean_n = math.fsum(n * w for n, w in enumerate(scaled)) / total
    return mean_n, scaled, total, top


def _result(terms, sums) -> ThermoResult:
    mean_n, scaled, total, top = sums
    mean_e = math.fsum(w * e for (_, _, e), w in zip(terms, scaled) if w) / total
    return ThermoResult(top + math.log(total), mean_n, mean_e)


def evaluate(kind: StatisticsKind, spec: SpectrumSpec, params: ThermoParams) -> ThermoResult:
    """Truncated grand sum sum_N z^N Z_N at z = e^(beta hw mu/hw) and
    qh = e^(-beta hw/2), with the mean particle number and the mean energy
    in units of hw. Raises TruncationTail unless the last term is below
    TAIL_BOUND of the total."""
    terms = _beta_terms(kind, spec, params.beta_hw, params.nmax)
    return _result(terms, _mu_sums(terms, params.beta_hw, params.mu_over_hw))


def solve_mu(
    kind: StatisticsKind,
    spec: SpectrumSpec,
    beta_hw: float,
    target_mean_n: float,
    nmax: int,
) -> float:
    """Chemical potential (in hw units) at which the mean particle number
    meets the target to MU_REL_TOL * target; a target below the least normal
    float is a ValueError. From a dilute start, Newton steps on ln N, with
    d ln N / d mu = beta Var(N) / N from the per-mu sums. Until the target
    is bracketed, a step that is missing (Var N = 0), not finite, or longer
    than the hunt's at a Fano factor below 1/4 gives way to a doubling hunt,
    up or down; then one that leaves the bracket gives way to bisection, and
    a point past the tail wall to a doubling step back. The mean must not
    fall while mu rises, else BracketFailure. Points failing the truncation
    check count as above the target, so the search backs away; a target
    beyond them, TruncationTail. One beta pass serves every step."""
    return evaluate_at_target(kind, spec, beta_hw, target_mean_n, nmax)[0]


def evaluate_at_target(kind: StatisticsKind, spec: SpectrumSpec, beta_hw: float,
                       target_mean_n: float, nmax: int) -> tuple[float, ThermoResult]:
    """solve_mu's chemical potential and the evaluate result there, from one
    beta pass and the per-mu sums at the solve's last point."""
    if not (target_mean_n > 0 and math.isfinite(target_mean_n)):
        raise ValueError("target mean particle number must be positive and finite")
    if target_mean_n < sys.float_info.min:
        raise ValueError(f"target mean particle number {target_mean_n!r} is below "
                         f"the least normal float, {sys.float_info.min!r}")
    _check_beta_nmax(beta_hw, nmax)  # before any work
    terms = _beta_terms(kind, spec, beta_hw, nmax)
    lo = f_lo = hi = None  # the nearest mu known below the target, its mean, and above
    step = 1.0 / beta_hw
    hunts, wall_hit = 0, False
    # occupation ~ e^-50 here: far below any sane target, and always feasible
    mu = spec.levels[0][0] / 2 - 50.0 / beta_hw
    for _ in range(600):
        try:
            sums = _mu_sums(terms, beta_hw, mu)
        except TruncationTail:
            if lo is None and hi is None:
                raise TruncationTail("truncation fails even in the dilute limit; "
                                     "increase nmax") from None
            sums = None
        mean = sums[0] if sums else None
        if sums and abs(mean - target_mean_n) <= MU_REL_TOL * target_mean_n:
            return mu, _result(terms, sums)
        # Z_N >= 0, so the tail fraction grows with z: a point past the wall is above
        # the target, and every point below a feasible one is feasible.
        if not sums or mean > target_mean_n:
            hi, wall_hit = mu, wall_hit or not sums
        elif f_lo is not None and mean < f_lo - 1e-9 * max(1.0, abs(f_lo)):
            raise BracketFailure(f"mean number fell from {f_lo} to {mean} while raising mu")
        else:
            lo, f_lo = mu, mean
        # The Newton step; Var(N) centred, so a sharp distribution's small
        # variance is not a difference of two nearly equal moments.
        var = (math.fsum((n - mean) ** 2 * w for n, w in enumerate(sums[1])) / sums[2]
               if sums else 0.0)
        nxt = (mu - (math.log(mean) - math.log(target_mean_n)) * mean / (beta_hw * var)
               if var > 0.0 and mean > 0.0 else math.nan)
        newton = nxt != mu and math.isfinite(nmax * beta_hw * nxt)  # log weights stay finite
        if lo is None or hi is None:
            hunts += 1
            if hunts > 200:
                raise BracketFailure(
                    f"no lower bracket for target {target_mean_n}" if lo is None else
                    f"no bracket after 200 upward steps (last mean {f_lo}); "
                    f"target {target_mean_n} looks unreachable (saturation?)")
            # Unbracketed, a step is trusted within the hunt's step or at a Fano
            # factor Var(N) / N of 1/4 or more: a pinned N (a filled shell) has a
            # flat ln N whose tangent cannot say where the next shell opens.
            if not (newton and (4.0 * var >= mean or abs(nxt - mu) <= step)):
                nxt = lo + step if hi is None else hi - step  # the doubling hunt
                step *= 2.0
        elif hi - lo < 1e-15 * max(1.0, abs(lo), abs(hi)):
            break
        elif not (newton and lo < nxt < hi):  # bisection, or a step back from the wall
            nxt = 0.5 * (lo + hi) if sums else max(0.5 * (lo + hi), hi - step)
            step *= 2.0
        mu = nxt
    if wall_hit:
        raise TruncationTail(
            f"target {target_mean_n} lies beyond the truncation-feasible region"
        )
    raise BracketFailure(f"bisection stalled between {lo} and {hi}")

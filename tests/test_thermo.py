import contextlib
import copy
import decimal
import hashlib
import importlib.util
import io
import json
import math
import pickle
import sys
from decimal import Decimal
from fractions import Fraction
from itertools import combinations, combinations_with_replacement
from pathlib import Path

import pytest

import schurgas.qpoly
import schurgas.schur
import schurgas.series
import schurgas.thermo
from schurgas.cli import run
from schurgas.equivalence import SpectrumSpec, build_spectrum
from schurgas.partitions import conjugate
from schurgas.qpoly import qp_eval_float, qp_power_sum_rows, qp_weighted_eval_float
from schurgas.schur import schur_qpoly_sums
from schurgas.series import product_factors
from schurgas.statistics import BOSE, FERMI, admitted_partitions, parse_kind, shape_box
from schurgas.thermo import (
    MU_REL_TOL,
    POSITIVE_FAMILIES,
    BracketFailure,
    ThermoParams,
    TruncationTail,
    _power_sum_pass,
    _power_sum_plan,
    _weight_polys,
    evaluate,
    solve_mu,
)

SINGLE = SpectrumSpec(((1, 1),), 1)


def test_params_validation():
    with pytest.raises(ValueError):
        ThermoParams(0.0, 0.0, 8)
    with pytest.raises(ValueError):
        ThermoParams(1.0, 0.0, 0)
    for beta, mu in ((math.inf, -1.0), (math.nan, -1.0), (1.0, math.nan), (1.0, -math.inf),
                     (2.0, 1e308), (2.0, -1e308)):
        with pytest.raises(ValueError):
            ThermoParams(beta, mu, 8)


def test_params_are_a_validated_value():
    params = ThermoParams(1.0, -0.5, 8)
    assert params == ThermoParams(beta_hw=1.0, mu_over_hw=-0.5, nmax=8) == (1.0, -0.5, 8)
    assert hash(params) == hash(ThermoParams(1.0, -0.5, 8)) == hash((1.0, -0.5, 8))
    assert params != ThermoParams(1.0, -0.25, 8) and params != ThermoParams(1.0, -0.5, 9)
    assert len({params, ThermoParams(1.0, -0.5, 8), ThermoParams(2.0, -0.5, 8)}) == 2
    assert repr(params) == "ThermoParams(beta_hw=1.0, mu_over_hw=-0.5, nmax=8)"
    beta, mu, nmax = params
    assert (beta, mu, nmax) == (params.beta_hw, params.mu_over_hw, params.nmax)
    with pytest.raises(AttributeError):
        params.nmax = 9
    with pytest.raises(AttributeError):
        params.extra = 1


@pytest.mark.parametrize("fields, message", [
    ((0.0, 0.0, 8), "beta_hw must be positive and finite"),
    ((-1.0, 0.0, 8), "beta_hw must be positive and finite"),
    ((math.inf, -1.0, 8), "beta_hw must be positive and finite"),
    ((math.nan, -1.0, 8), "beta_hw must be positive and finite"),
    ((1.0, 0.0, 0), "nmax must be at least 1"),
    ((1.0, math.nan, 8), "mu_over_hw must be finite"),
    ((1.0, -math.inf, 8), "mu_over_hw must be finite"),
    ((2.0, 1e308, 8), "beta_hw * mu_over_hw (log fugacity) must be finite"),
    ((2.0, -1e308, 8), "beta_hw * mu_over_hw (log fugacity) must be finite"),
])
def test_params_validation_messages(fields, message):
    with pytest.raises(ValueError) as exc:
        ThermoParams(*fields)
    assert str(exc.value) == message


def test_params_rebuilds_are_validated():
    params = ThermoParams(1.0, -0.5, 8)
    assert params._replace(nmax=4) == ThermoParams(1.0, -0.5, 4)
    with pytest.raises(ValueError, match="^nmax must be at least 1$"):
        params._replace(nmax=0)
    with pytest.raises(ValueError, match="^mu_over_hw must be finite$"):
        params._replace(mu_over_hw=math.nan)
    for twin in (copy.copy(params), copy.deepcopy(params), pickle.loads(pickle.dumps(params))):
        assert type(twin) is ThermoParams and twin == params
    forged = tuple.__new__(ThermoParams, (0.0, 0.0, 8))
    with pytest.raises(ValueError, match="^beta_hw must be positive and finite$"):
        copy.copy(forged)
    with pytest.raises(ValueError, match="^beta_hw must be positive and finite$"):
        pickle.loads(pickle.dumps(forged))


def test_single_level_bose_matches_geometric_occupancy():
    res = evaluate(BOSE, SINGLE, ThermoParams(1.0, 0.0, 64))
    x = math.exp(-0.5)
    assert abs(res.mean_n - x / (1 - x)) < 1e-10
    assert abs(res.mean_e_over_hw - 0.5 * res.mean_n) < 1e-12
    # truncated geometric sum of 65 terms vs closed form
    assert abs(res.logZ - math.log((1 - x**65) / (1 - x))) < 1e-12


def test_single_level_fermi_occupancy():
    res = evaluate(FERMI, SINGLE, ThermoParams(2.0, 0.5, 4))
    # level exactly at mu: half filling regardless of beta
    assert abs(res.mean_n - 0.5) < 1e-12
    assert abs(res.logZ - math.log(2.0)) < 1e-12


def test_evaluate_is_deterministic():
    params = ThermoParams(0.7, -1.5, 24)
    spec = build_spectrum("eq2", 5)
    a = evaluate(BOSE, spec, params)
    b = evaluate(BOSE, spec, params)
    assert a == b


def test_evaluate_raises_on_fat_tail():
    with pytest.raises(TruncationTail):
        evaluate(BOSE, SINGLE, ThermoParams(1.0, 2.0, 16))


def test_solve_mu_inverts_geometric_occupancy():
    mu = solve_mu(BOSE, SINGLE, 1.0, 1.0, 64)
    assert abs(mu - (0.5 - math.log(2))) < 1e-7
    got = evaluate(BOSE, SINGLE, ThermoParams(1.0, mu, 64)).mean_n
    assert abs(got - 1.0) <= 1e-8


def test_solve_mu_fermi_half_filling():
    mu = solve_mu(FERMI, SINGLE, 1.0, 0.5, 8)
    assert abs(mu - 0.5) < 1e-7


def test_round_trips_on_oscillator_spectrum():
    spec = build_spectrum("eq2", 7)
    for beta in (0.5, 1.0, 2.0):
        for kind, target in ((BOSE, 0.5), (FERMI, 4.0)):
            mu = solve_mu(kind, spec, beta, target, 32)
            got = evaluate(kind, spec, ThermoParams(beta, mu, 32)).mean_n
            assert abs(got - target) <= 1e-8 * max(1.0, target)


def test_fermi_saturation_is_a_bracket_failure():
    spec = build_spectrum("eq2", 7)
    with pytest.raises(BracketFailure):
        solve_mu(FERMI, spec, 1.0, 9.0, 32)


@pytest.mark.parametrize("argv,message", [
    # at beta 1e20, 50 / beta is less than half an ulp of the lowest energy, so
    # the dilute start sits on the bose ground level, where every N weighs 1
    (["bose", "eq2", "1e20", "1", "4", "8"],
     "truncation fails even in the dilute limit; increase nmax"),
    # N steps from 2 to 3 within 1 / beta of mu = 2.5, finer than mu's floats
    (["fermi", "eq2", "1e15", "2.5", "4", "8"],
     "bisection stalled between 2.499999999999999 and 2.5000000000000004"),
    # the log weights n beta mu - a_N, near 1e15 here, round by more than
    # the step between two mu, so the float mean is not monotone in mu
    (["fermi", "eq2", "3e14", "5.9", "12", "16"],
     "mean number fell from 5.880797077977882 to 5.5 while raising mu"),
])
def test_solver_failures_at_extreme_beta(capsys, argv, message):
    kind, spectrum, beta, target, qmax, nmax = argv
    assert run(["thermo", "--kind", kind, "--spectrum", spectrum, "--beta", beta,
                "--target-n", target, "--qmax", qmax, "--nmax", nmax]) == 3
    assert capsys.readouterr() == ("", f"numeric failure: {message}\n")


def test_unreachable_bose_target_is_a_truncation_failure():
    with pytest.raises(TruncationTail):
        solve_mu(BOSE, SINGLE, 1.0, 50.0, 4)


def test_solve_mu_rejects_nonpositive_target():
    with pytest.raises(ValueError):
        solve_mu(BOSE, SINGLE, 1.0, 0.0, 8)


def test_solve_mu_rejects_non_finite_target():
    for target in (math.inf, math.nan):
        with pytest.raises(ValueError):
            solve_mu(BOSE, SINGLE, 1.0, target, 8)


def test_solve_mu_tiny_target_uses_downward_hunt():
    mu = solve_mu(BOSE, SINGLE, 1.0, 1e-25, 16)
    got = evaluate(BOSE, SINGLE, ThermoParams(1.0, mu, 16)).mean_n
    assert abs(got - 1e-25) <= 1e-8 * 1e-25


def test_tiny_targets_are_met_relative_to_the_target(capsys):
    # the tolerance is relative at every size, down to the least normal float
    argv = ["thermo", "--kind", "fermi", "--spectrum", "eq2", "--beta", "1", "--qmax", "4",
            "--nmax", "8", "--format", "json", "--target-n"]
    for target in (1e-300, sys.float_info.min):
        assert run(argv + [repr(target)]) == 0
        got = json.loads(capsys.readouterr().out)["mean_n"]
        assert abs(got - target) <= MU_REL_TOL * target
    for target in ("1e-310", "5e-324"):
        assert run(argv + [target]) == 2
        err = capsys.readouterr().err
        assert err == (f"error: target mean particle number {float(target)!r} is below the "
                       f"least normal float, {sys.float_info.min!r}\n")


def test_mean_energy_tracks_spectrum():
    # dilute limit: the energy per particle is the one-particle Boltzmann
    # average over the levels, since multiple occupation carries weight O(z)
    spec = build_spectrum("eq2", 5)
    beta = 2.0
    res = evaluate(BOSE, spec, ThermoParams(beta, -10.0, 8))
    assert res.mean_n > 0
    per_particle = res.mean_e_over_hw / res.mean_n
    energies = [h / 2 for h, d in spec.levels for _ in range(d)]
    weights = [math.exp(-beta * e) for e in energies]
    boltzmann = sum(e * w for e, w in zip(energies, weights)) / sum(weights)
    assert abs(per_particle - boltzmann) < 1e-6


@pytest.mark.parametrize("cache,kind", [(_weight_polys, FERMI), (_power_sum_plan, BOSE)])
def test_weight_cache_is_bounded_and_keeps_a_working_set(cache, kind):
    # the engine kinds' weight polynomials and the power-sum kinds' plans
    assert cache.cache_info().maxsize is not None
    cache.cache_clear()
    keys = [(kind, (1,) * m, 4) for m in range(1, 8)]
    for key in keys:
        cache(*key)
    for key in keys:
        cache(*key)
    info = cache.cache_info()
    assert info.currsize == 7 and info.hits == 7 and info.misses == 7


def test_large_beta_keeps_the_dominant_sectors():
    # mu between the 5th and 6th levels: the five lowest fill, the rest stay
    # empty; the ground-state weights qh^(d_N) underflow as floats here
    res = evaluate(FERMI, build_spectrum("eq2", 8), ThermoParams(100.0, 4.9, 24))
    assert res.mean_n == pytest.approx(5.0, abs=1e-12)
    assert res.mean_e_over_hw == pytest.approx(0.5 + 1.5 + 2.5 + 3.5 + 4.5, abs=1e-12)
    assert res.logZ == pytest.approx(100.0 * (5 * 4.9 - 12.5), rel=1e-12)


def test_weight_polys_store_lowest_degree_and_trimmed_coefficients():
    polys = _weight_polys(FERMI, (1, 3, 5), 4)
    assert polys == ((0, (1,)), (1, (1, 0, 1, 0, 1)), (4, (1, 0, 1, 0, 1)), (9, (1,)), (0, ()))


def test_log_weight_overflow_is_a_truncation_failure():
    # beta * mu is finite, N * beta * mu is not
    with pytest.raises(TruncationTail) as info:
        evaluate(BOSE, build_spectrum("eq2", 4), ThermoParams(1.0, 1e307, 24))
    assert str(info.value) == "grand canonical weight exceeded float range; reduce nmax or mu"


@pytest.mark.parametrize("coeffs,beta", [
    ((10**400,), 1.0),  # the Horner pass raises OverflowError
    ((10**308,) * 3, 0.1),  # r_N(qh) = inf
])
def test_beta_only_overflow_reaches_the_solver_caller(monkeypatch, coeffs, beta):
    polys = ((0, (1,)), (0, coeffs)) + ((0, ()),) * 7
    monkeypatch.setattr(schurgas.thermo, "_weight_polys", lambda *args: polys)
    with pytest.raises(TruncationTail) as info:
        solve_mu(FERMI, SINGLE, beta, 0.5, 8)
    assert str(info.value) == "canonical weight exceeded float range; reduce nmax or beta"


@pytest.mark.parametrize("weights", [
    (10**400,),  # a weight beyond float range raises OverflowError
    (10**308,) * 3,  # Q_1 = inf, so G_1 = inf
])
def test_power_sum_overflow_reaches_the_solver_caller(monkeypatch, weights):
    # an infinite G_N raises what an infinite Horner value raises
    plan = (8, 1, 0, 1, tuple((1, weight, 0) for weight in weights))
    monkeypatch.setattr(schurgas.thermo, "_power_sum_plan", lambda *args: plan)
    with pytest.raises(TruncationTail) as info:
        solve_mu(BOSE, SINGLE, 1.0, 0.5, 8)
    assert str(info.value) == "canonical weight exceeded float range; reduce nmax or beta"


def dense(polys):
    """The weight polynomials as plain coefficient lists from q^0."""
    return [[0] * low + list(coeffs) for low, coeffs in polys]


@pytest.mark.parametrize("family,qmax,nmax", [("eq2", 5, 8), ("eq1", 4, 8)])
def test_classical_weight_polys_count_occupations(family, qmax, nmax):
    # eq1 repeats exponents (degenerate levels): a multiset or subset of the
    # repeated entries counts each level copy separately
    exps = build_spectrum(family, qmax).qpoly_exponents()
    for kind, picks in ((BOSE, combinations_with_replacement), (FERMI, combinations)):
        polys = dense(_weight_polys(kind, exps, nmax))
        for n in range(nmax + 1):
            counts = [0] * (n * max(exps) + 1)
            for pick in picks(exps, n):
                counts[sum(pick)] += 1
            while counts and not counts[-1]:
                counts.pop()
            assert polys[n] == counts, (kind, n)


# Keys over all eight families and both spectra; the digest of their dense
# weight polynomials was recorded from the per-shape build that the shared
# branching-rule memo replaced.
DIGEST_KEYS = [
    ("bose", "eq1", 3, 12), ("bose", "eq2", 4, 12), ("fermi", "eq2", 6, 10),
    ("fermi", "eq1", 4, 10), ("parafermi:2", "eq2", 4, 10), ("parafermi:3", "eq1", 3, 9),
    ("parabose:2", "eq2", 3, 10), ("parabose:3", "eq1", 3, 8), ("pq:2:3", "eq2", 4, 9),
    ("pq:3:2", "eq1", 3, 9), ("hst", "eq2", 2, 10), ("hst", "eq1", 2, 9),
    ("even-rows", "eq2", 3, 10), ("even-rows", "eq1", 2, 10), ("even-cols", "eq2", 4, 10),
    ("even-cols", "eq1", 3, 10),
]
DIGEST = "787fbd7416e97a9b8f48e38f5d8fec8ba5bc0514ecb75b5b111252635b9ccabe"


def exact_weight_polys(kind, exps, nmax):
    """The weight polynomials of N = 0..nmax in offset form: the kernel's
    closed product for the four positive-factor kinds (thermo evaluates
    those in floats and builds none), the engine for the rest."""
    if kind.family in POSITIVE_FAMILIES:
        factors = product_factors(kind, [(1, e) for e in exps])
        return qp_power_sum_rows(factors, nmax, nmax * max(exps))
    return _weight_polys(kind, exps, nmax)


def test_weight_polys_digest():
    h = hashlib.sha256()
    for key in DIGEST_KEYS:
        kind, family, qmax, nmax = key
        exps = build_spectrum(family, qmax).qpoly_exponents()
        polys = tuple(tuple(p) for p in dense(exact_weight_polys(parse_kind(kind), exps, nmax)))
        h.update((repr(key) + repr(polys) + "\n").encode())
    assert h.hexdigest() == DIGEST


@pytest.mark.parametrize("kind", ["bose", "fermi", "hst", "even-rows", "even-cols"])
@pytest.mark.parametrize("family,qmax,nmax", [("eq1", 3, 12), ("eq1", 4, 8), ("eq2", 4, 10),
                                              ("eq2", 2, 12)])
def test_product_weights_match_the_engine(kind, family, qmax, nmax):
    # the five product kinds have a closed product, and the kernel builds it
    # the rows the branching-rule engine builds over the admitted shapes.
    # Thermo caches the engine's rows for fermi; for the other four it runs the
    # power sums in floats at qh, which agree with a Horner pass over the rows.
    exps = build_spectrum(family, qmax).qpoly_exponents()
    emax = nmax * max(exps)
    engine = schur_qpoly_sums(exps, emax, *shape_box(parse_kind(kind), len(exps), nmax))
    product = product_factors(parse_kind(kind), [(1, e) for e in exps])
    assert qp_power_sum_rows(product, nmax, emax) == engine
    if kind == "fermi":
        assert _weight_polys(parse_kind(kind), exps, nmax) == tuple(
            (low, tuple(coeffs)) for low, coeffs in engine)
        return
    qh = math.exp(-0.625)
    sectors = _power_sum_pass(_power_sum_plan(parse_kind(kind), exps, nmax), qh)
    for (ground, value, slope), (low, coeffs) in zip(sectors, engine, strict=True):
        want_value, want_slope = qp_eval_float(coeffs, qh)
        assert (value > 0) == bool(coeffs)
        if coeffs:
            assert ground == low
            assert value == pytest.approx(want_value, rel=1e-14)
            assert slope == pytest.approx(want_slope, rel=1e-14, abs=1e-300)


# On M levels (counted with degeneracy) a shape longer than M has s_lam = 0,
# and at most nmax particles fill no row longer than nmax: a kind whose box,
# its rows clamped to M and its columns to nmax, is hst's has hst's weights,
# so it takes hst's power-sum pass and builds no polynomial.
HST_ROUTES = [
    ("parabose:3", "eq2", 2, 12, True),  # M = 3
    ("parabose:2", "eq1", 2, 10, True),  # M = 2
    ("parabose:5", "eq1", 3, 9, True),  # M = 4 with a doubly degenerate level
    ("parabose:3", "eq2", 3, 12, False),  # M = 4
    ("parabose:3", "eq1", 3, 9, False),  # M = 4
    ("parafermi:12", "eq2", 3, 12, True),  # p = nmax
    ("parafermi:5", "eq1", 3, 4, True),  # p > nmax
    ("pq:4:9", "eq1", 3, 9, True),  # M = 4 rows, nmax = 9 columns
    ("pq:6:20", "eq2", 4, 10, True),
    ("fermi", "eq2", 4, 1, True),  # one particle fills one column
    ("parafermi:3", "eq2", 3, 4, False),
    ("pq:3:9", "eq1", 3, 9, False),  # 3 rows of 4 levels
    ("pq:4:8", "eq1", 3, 9, False),
]


@pytest.mark.parametrize("kind,family,qmax,nmax,power_sums", HST_ROUTES)
def test_a_kind_whose_clamped_box_is_hst_takes_the_power_sum_pass(monkeypatch, kind, family,
                                                                  qmax, nmax, power_sums):
    passes, builds = [], []
    power_sum_pass, weight_polys = schurgas.thermo._power_sum_pass, schurgas.thermo._weight_polys

    def counted_pass(plan, qh):
        passes.append(plan)
        return power_sum_pass(plan, qh)

    def counted_build(*key):
        builds.append(key)
        return weight_polys(*key)

    monkeypatch.setattr(schurgas.thermo, "_power_sum_pass", counted_pass)
    monkeypatch.setattr(schurgas.thermo, "_weight_polys", counted_build)
    schurgas.thermo._beta_terms(parse_kind(kind), build_spectrum(family, qmax), 1.25, nmax)
    assert (len(passes), len(builds)) == ((1, 0) if power_sums else (0, 1))


@pytest.mark.parametrize("kind,family,qmax,nmax", [key[:4] for key in HST_ROUTES if key[4]])
def test_clamped_hst_power_sums_match_the_engine(kind, family, qmax, nmax):
    # the pass against a Horner pass over the engine's own rows, which the
    # test builds directly
    kind, spec, beta = parse_kind(kind), build_spectrum(family, qmax), 1.25
    engine = _weight_polys(kind, spec.qpoly_exponents(), nmax)
    got = schurgas.thermo._beta_terms(kind, spec, beta, nmax)
    for (a, b, e), (low, coeffs) in zip(got, engine, strict=True):
        value, slope = qp_eval_float(coeffs, math.exp(-beta / 2))
        assert a == pytest.approx(low * beta / 2, rel=1e-14)
        assert b == pytest.approx(math.log(value), rel=1e-14, abs=1e-14)
        assert e == pytest.approx(low / 2 + 0.5 * slope / value, rel=1e-14)


def test_parabose_on_the_power_sum_pass_keeps_its_name():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run(["thermo", "--kind", "parabose:3", "--spectrum", "eq2", "--qmax", "2",
                    "--beta", "1.0", "--target-n", "0.15", "--format", "json"]) == 0
    assert json.loads(out.getvalue())["kind"] == "parabose:3"


def principal_schur(lam, m):
    """s_lam(q, q^3, ..., q^(2m-1)) = q^|lam| t^n(lam) prod_u (1 - t^(m + c(u)))
    / (1 - t^h(u)) with t = q^2 (Macdonald I.3 ex. 1), one shape at a time:
    no recursion and no tableaux."""
    if len(lam) > m:
        return []
    cols = conjugate(lam)
    cells = [(i, j) for i, part in enumerate(lam) for j in range(part)]
    poly = [0] * (sum(lam) + 2 * sum(i * part for i, part in enumerate(lam))) + [1]
    for i, j in cells:  # numerator factors 1 - q^(2(m + j - i))
        a = 2 * (m + j - i)
        poly = [c - (poly[k - a] if k >= a else 0) for k, c in enumerate(poly + [0] * a)]
    for i, j in cells:  # exact division by 1 - q^(2 h(u)), an upward sweep
        h = lam[i] - j + cols[j] - i - 1
        for k in range(2 * h, len(poly)):
            poly[k] += poly[k - 2 * h]
    while poly and not poly[-1]:
        poly.pop()
    return poly


@pytest.mark.parametrize("kind,qmax,nmax", [
    ("parafermi:2", 4, 8), ("parafermi:2", 3, 10), ("parafermi:3", 3, 8), ("parafermi:3", 2, 10),
    ("parabose:2", 3, 8), ("parabose:2", 4, 6), ("parabose:3", 2, 8), ("parabose:3", 3, 7),
    ("pq:3:3", 3, 8), ("pq:3:3", 4, 7), ("pq:4:4", 3, 9), ("pq:4:4", 2, 10),
])
def test_engine_weights_match_the_principal_specialisation(kind, qmax, nmax):
    # eq2's exponents are 1, 3, ..., 2M - 1
    exps = build_spectrum("eq2", qmax).qpoly_exponents()
    m = len(exps)
    for n, got in enumerate(dense(_weight_polys(parse_kind(kind), exps, nmax))):
        want = [0] * (n * max(exps) + 1)
        for lam in admitted_partitions(parse_kind(kind), n, m):
            for k, c in enumerate(principal_schur(lam, m)):
                want[k] += c
        while want and not want[-1]:
            want.pop()
        assert got == want, (kind, n)


def reference_solve_mu(kind, spec, beta_hw, target_mean_n, nmax):
    """solve_mu as it was when every step called evaluate: same hunt, same
    bisection, same messages."""
    tol = 1e-8 * max(1.0, target_mean_n)
    WALL, OVER = "wall", "overflow"

    def mean_at(mu):
        try:
            return evaluate(kind, spec, ThermoParams(beta_hw, mu, nmax)).mean_n
        except TruncationTail as exc:
            return OVER if "exceeded float range" in str(exc) else WALL

    start = spec.levels[0][0] / 2 - 50.0 / beta_hw
    f0 = mean_at(start)
    if not isinstance(f0, float):
        raise TruncationTail("truncation fails even in the dilute limit; increase nmax")
    lo = hi = start
    f_lo = f_hi = f0
    step = 1.0 / beta_hw
    hunts = 0
    while f_hi == OVER or (isinstance(f_hi, float) and f_hi < target_mean_n):
        hunts += 1
        if hunts > 200:
            raise BracketFailure(
                f"no bracket after 200 upward steps (last mean {f_lo}); "
                f"target {target_mean_n} looks unreachable (saturation?)"
            )
        if isinstance(f_hi, float):
            lo, f_lo = hi, f_hi
        hi += step
        step *= 2.0
        f_hi = mean_at(hi)
        if isinstance(f_hi, float) and f_hi < f_lo - 1e-9 * max(1.0, abs(f_lo)):
            raise BracketFailure(f"mean number fell from {f_lo} to {f_hi} while raising mu")
    while f_lo > target_mean_n:
        hunts += 1
        if hunts > 200:
            raise BracketFailure(f"no lower bracket for target {target_mean_n}")
        hi, f_hi = lo, f_lo
        lo -= step
        step *= 2.0
        f_lo = mean_at(lo)
        if not isinstance(f_lo, float):
            raise TruncationTail("truncation fails while lowering mu; increase nmax")
    wall_hit = not isinstance(f_hi, float)
    for _ in range(400):
        mid = 0.5 * (lo + hi)
        f_mid = mean_at(mid)
        if not isinstance(f_mid, float):
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
        raise TruncationTail(f"target {target_mean_n} lies beyond the truncation-feasible region")
    raise BracketFailure(f"bisection stalled between {lo} and {hi}")


@pytest.mark.parametrize("kind,spec,beta,target,nmax", [
    ("bose", SINGLE, 1.0, 1.0, 64),
    ("bose", SINGLE, 1.0, 1e-25, 16),
    ("fermi", build_spectrum("eq2", 7), 0.5, 4.0, 32),
    ("parafermi:2", build_spectrum("eq2", 6), 1.25, 2.0, 28),
    ("hst", build_spectrum("eq1", 2), 1.0, 0.15, 14),
    ("even-cols", build_spectrum("eq2", 4), 1.5, 0.2, 16),
    ("bose", SINGLE, 1.0, 50.0, 4),  # the tail wall
    ("fermi", build_spectrum("eq2", 7), 1.0, 9.0, 32),  # saturation
])
def test_solve_mu_matches_a_bisection_on_evaluate(kind, spec, beta, target, nmax):
    # where the old bisection fails, solve_mu fails alike, message and all;
    # where it succeeds, solve_mu meets the tolerance relative to the target
    args = (parse_kind(kind), spec, beta, target, nmax)
    try:
        reference_solve_mu(*args)
    except (TruncationTail, BracketFailure) as exc:
        with pytest.raises(type(exc)) as info:
            solve_mu(*args)
        assert str(info.value) == str(exc)
    else:
        mu = solve_mu(*args)
        got = evaluate(parse_kind(kind), spec, ThermoParams(beta, mu, nmax)).mean_n
        assert abs(got - target) <= MU_REL_TOL * target


def load_bench_workloads():
    """perfbench/workloads.py, read without changing it (as
    tests/test_bench_contract.py reads spans.py)."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclass resolves its module by name
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


# The old bisection took about 35 mean-N passes a solve on both grids (at most
# 38). Newton steps took 4,614 over these 960 solves, at most 8 in one; the
# bounds: at most 6 a solve on average, and never more than a third of 35.
GRID_MEAN_PASSES = 6
GRID_MAX_PASSES = 11


def test_solve_mu_meets_every_benchmark_target_in_few_passes(monkeypatch):
    wl = load_bench_workloads()
    grid = [(kind, spectrum, qmax, nmax, beta, target)
            for regime, keys in wl.COLD_CLASSES for kind, spectrum, qmax, nmax in keys
            for beta in wl.COLD_BETAS for target in wl.COLD_TARGETS[regime]]
    grid += [(kind, spectrum, qmax, nmax, beta, target)
             for kind, spectrum, qmax, nmax, targets in wl.WARM_KEYS
             for beta in wl.WARM_BETAS for target in targets]
    assert len(grid) == 960
    passes = []
    mu_sums = schurgas.thermo._mu_sums

    def counted(*args):
        passes[-1] += 1
        return mu_sums(*args)

    monkeypatch.setattr(schurgas.thermo, "_mu_sums", counted)
    for key in grid:
        kind, spec = parse_kind(key[0]), build_spectrum(key[1], key[2])
        nmax, beta, target = key[3], float(key[4]), float(key[5])
        passes.append(0)
        mu = solve_mu(kind, spec, beta, target, nmax)
        passes.append(0)  # evaluate's pass is not the solve's
        got = evaluate(kind, spec, ThermoParams(beta, mu, nmax)).mean_n
        assert abs(got - target) <= MU_REL_TOL * target, key
    solves = passes[::2]
    assert sum(solves) <= GRID_MEAN_PASSES * len(solves)
    assert max(solves) <= GRID_MAX_PASSES


def ulps(got, want):
    return abs(got - want) / (abs(want) * sys.float_info.epsilon)


@pytest.mark.parametrize("argv", [
    ["--kind", "bose", "--spectrum", "eq2", "--beta", "1.0", "--target-n", "0.25", "--nmax", "32"],
    ["--kind", "parafermi:3", "--spectrum", "eq1", "--beta", "1.25", "--target-n", "1.5",
     "--qmax", "4", "--nmax", "24"],
    ["--kind", "parabose:3", "--spectrum", "eq2", "--beta", "1.0", "--target-n", "0.15",
     "--qmax", "3", "--nmax", "12"],
    ["--kind", "even-cols", "--spectrum", "eq2", "--beta", "1.5", "--target-n", "0.2",
     "--qmax", "4", "--nmax", "16"],
    ["--kind", "fermi", "--spectrum", "eq2", "--beta", "1.0", "--target-n", "2.0",
     "--qmax", "6", "--nmax", "24"],
    ["--kind", "hst", "--spectrum", "eq2", "--beta", "1.25", "--target-n", "0.15",
     "--qmax", "3", "--nmax", "14"],
])
def test_target_request_makes_one_fused_horner_pass(monkeypatch, argv):
    # r_N(qh) and qh r_N'(qh) come from one beta pass per request: the
    # mu-solver's steps and the reported point share it. The engine kinds make
    # it as one Horner loop per sector, the power-sum kinds as one float pass.
    calls, passes = [], []
    horner, power_sum_pass = schurgas.thermo.qp_eval_float, schurgas.thermo._power_sum_pass

    def counted(coeffs, q):
        calls.append((coeffs, q, horner(coeffs, q)))
        return calls[-1][2]

    def counted_pass(plan, qh):
        passes.append(qh)
        return power_sum_pass(plan, qh)

    monkeypatch.setattr(schurgas.thermo, "qp_eval_float", counted)
    monkeypatch.setattr(schurgas.thermo, "_power_sum_pass", counted_pass)
    with contextlib.redirect_stdout(io.StringIO()):
        assert run(["thermo", *argv]) == 0
    if argv[1] in POSITIVE_FAMILIES:
        assert len(passes) == 1 and not calls
        return
    assert len(calls) == int(argv[argv.index("--nmax") + 1]) + 1 and not passes
    # The energy term qh r'(qh) / 2 against the exact value at the same qh,
    # to 2 ulp relative, and against the forward sum of qp_weighted_eval_float,
    # whose own rounding is the larger: up to 4.3 eps from the exact value
    # over 1,103 sectors of the benchmark keys, where Horner's stayed within 1.8.
    for coeffs, q, (value, slope) in calls:
        if len(coeffs) > 1:
            exact = Fraction(0)
            for t in range(len(coeffs) - 1, 0, -1):  # sum of t c_t q^t, by Horner in Fractions
                exact = (exact + t * coeffs[t]) * Fraction(q)
            exact /= 2
            assert ulps(0.5 * slope, float(exact)) <= 2.0
            assert ulps(0.5 * slope, qp_weighted_eval_float(coeffs, q, 0.5)) <= 8.0


def exact_beta_terms(polys, beta):
    """Each sector's log Z_N and mean energy e_N from the exact polynomials at
    the float qh that thermo uses, in 50-digit decimals (qh converts exactly):
    None for a sector without states."""
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        qh = Decimal(math.exp(-beta / 2))
        terms = []
        for low, coeffs in polys:
            value = slope = Decimal(0)
            for c in reversed(coeffs):
                slope, value = slope * qh + value, value * qh + c
            terms.append((float(value.ln() - Decimal(low) * Decimal(beta) / 2),
                          float(Decimal(low) / 2 + slope * qh / (2 * value))) if coeffs else None)
    return terms


# Measured over these keys at the three beta below: the float power sums
# within 1.4e-15 relative of log Z_N (hst eq2 20 60; 3.5e-16 on the rest) and
# 3.7e-16 of e_N, where a Horner pass over the exact rows stayed within
# 3.6e-16 and 2.2e-16.
ORACLE_REL = 5e-15


@pytest.mark.parametrize("key", [key for key in DIGEST_KEYS if key[0] in POSITIVE_FAMILIES]
                         + [("hst", "eq2", 20, 60)])
def test_power_sums_match_the_exact_polynomials(key):
    kind, family, qmax, nmax = key
    kind, spec = parse_kind(kind), build_spectrum(family, qmax)
    polys = exact_weight_polys(kind, spec.qpoly_exponents(), nmax)
    for beta in (0.8, 1.25, 1.6):
        got = schurgas.thermo._beta_terms(kind, spec, beta, nmax)
        for n, ((a, b, e), want) in enumerate(zip(got, exact_beta_terms(polys, beta), strict=True)):
            if want is None:  # a zero sector: odd N of the even kinds, exactly
                assert (b, e) == (None, 0.0) and n % 2 and kind.family.startswith("even")
                continue
            log_z, energy = want
            assert abs(b - a - log_z) <= ORACLE_REL * max(1.0, abs(log_z)), (n, beta)
            assert abs(e - energy) <= ORACLE_REL * energy, (n, beta)


@pytest.mark.parametrize("kind", POSITIVE_FAMILIES)
def test_power_sum_kinds_build_no_polynomial(monkeypatch, kind):
    # with the q-polynomial producers and the Horner pass unavailable, a
    # request of each positive-factor kind still succeeds: it builds nothing
    def refuse(*args):
        raise AssertionError("the power-sum route builds no q-polynomial")

    for module in (schurgas.qpoly, schurgas.schur, schurgas.series, schurgas.thermo):
        for name in ("qp_power_sum_rows", "schur_qpoly_sums", "qp_eval_float"):
            monkeypatch.setattr(module, name, refuse, raising=False)
    _power_sum_plan.cache_clear()
    argv = ["thermo", "--kind", kind, "--spectrum", "eq2", "--qmax", "4", "--nmax", "16",
            "--beta", "1.25", "--format", "json"]
    for request in (["--target-n", "0.15"], ["--mu", "-1"]):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert run(argv + request) == 0
        assert json.loads(out.getvalue())["mean_n"] > 0

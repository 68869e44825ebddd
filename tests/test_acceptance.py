"""End-to-end gate: every headline guarantee of the package, one test each,
with a PASS/FAIL line printed to the terminal so a bare `pytest tests/test_acceptance.py -q`
still shows which guarantee broke.

Everything here is exact-arithmetic equality except the thermo round trips,
which carry explicit float tolerances.
"""

import math
import random
import time
from fractions import Fraction

from schurgas.canonical import z_canonical
from schurgas.equivalence import (build_spectrum, check_equivalence, gpf_bose_biseries,
                                  gpf_evencols_biseries)
from schurgas.partitions import gen_partitions
from schurgas.schur import kostka, monomial_sym, schur_bialternant, schur_tableau
from schurgas.series import gpf_definition, gpf_parafermi_det, gpf_product, verify_identity
from schurgas.statistics import (
    BOSE,
    EVEN_COLS,
    EVEN_ROWS,
    FERMI,
    HST,
    admits,
    parabose,
    parafermi,
    pq,
)
from schurgas.thermo import ThermoParams, evaluate, solve_mu

from test_canonical import z_occupation_oracle

POINT4 = (2, 3, 5, 7)


def _report(capsys, label, check):
    try:
        check()
    except BaseException:
        with capsys.disabled():
            print(f"FAIL {label}")
        raise
    with capsys.disabled():
        print(f"PASS {label}")


def test_gate_classical_products(capsys):
    def check():
        t0 = time.perf_counter()
        for kind in (BOSE, FERMI):
            report = verify_identity(kind, POINT4, 8)
            assert report.equal
            assert report.lhs.coeffs == report.rhs.coeffs
        assert time.perf_counter() - t0 < 1.0
        # same canonical values from raw occupation sums, no Schur machinery
        for m in range(1, 5):
            point = POINT4[:m]
            for kind in (BOSE, FERMI):
                for n in range(9):
                    assert z_canonical(kind, point, n) == z_occupation_oracle(kind, point, n)

    _report(capsys, "classical products (bose, fermi)", check)


def test_gate_unrestricted_sum_vs_pair_product(capsys):
    def check():
        t0 = time.perf_counter()
        report = verify_identity(HST, POINT4, 8)
        assert report.equal
        assert time.perf_counter() - t0 < 5.0

    _report(capsys, "unrestricted schur sum vs pair product", check)


def test_gate_even_row_and_even_column_products(capsys):
    def check():
        for kind in (EVEN_ROWS, EVEN_COLS):
            report = verify_identity(kind, POINT4, 8)
            assert report.equal
            # even shapes carry even weight, so odd fugacity orders vanish
            for n in range(1, 9, 2):
                assert report.lhs.coeffs[n] == 0

    _report(capsys, "even-row / even-column products", check)


def test_gate_parafermi_determinant(capsys):
    def check():
        t0 = time.perf_counter()
        points = ((2, 3), (2, 3, 5))
        for point in points:
            for p in (1, 2, 3):
                det = gpf_parafermi_det(p, point, 6)
                assert det == gpf_definition(parafermi(p), point, 6)
            assert gpf_parafermi_det(1, point, 6) == gpf_product(FERMI, point, 6)
            # row bound 6 is inactive through order z^6
            assert gpf_parafermi_det(6, point, 6) == gpf_product(HST, point, 6)
            assert gpf_parafermi_det(7, point, 6) == gpf_product(HST, point, 6)
        assert time.perf_counter() - t0 < 5.0

    _report(capsys, "parafermi determinant ratio", check)


def test_gate_parabose_and_two_sided_bounds(capsys):
    def check():
        point = (2, 3, 5)
        assert gpf_definition(parabose(1), point, 8) == gpf_product(BOSE, point, 8)
        # the two-sided family is the conjunction of its one-sided halves
        for bound_p, bound_q in ((1, 1), (2, 3), (3, 2), (4, 4)):
            both = pq(bound_p, bound_q)
            for n in range(7):
                for lam in gen_partitions(n, n if n else 1):
                    expected = admits(parabose(bound_p), lam) and admits(
                        parafermi(bound_q), lam
                    )
                    assert admits(both, lam) == expected
        assert gpf_definition(pq(8, 8), point, 6) == gpf_product(HST, point, 6)

    _report(capsys, "parabose and two-sided bounds", check)


def test_gate_schur_backends_and_kostka(capsys):
    def check():
        shapes = [lam for n in range(7) for lam in gen_partitions(n, 6)]
        assert len(shapes) == 30
        rng = random.Random(90125)
        for _ in range(50):
            seen = set()
            while len(seen) < 6:
                seen.add(Fraction(rng.randint(1, 40), rng.randint(1, 40)))
            point = tuple(seen)
            for lam in shapes:
                direct = schur_tableau(lam, point)
                assert direct == schur_bialternant(lam, point)
                expanded = Fraction(0)
                for mu in gen_partitions(sum(lam), 6):
                    expanded += kostka(lam, mu) * monomial_sym(mu, point)
                assert direct == expanded

    _report(capsys, "schur backend agreement + kostka expansion", check)


def test_gate_spectrum_equivalence(capsys):
    def check():
        t0 = time.perf_counter()
        report = check_equivalence(12)
        assert report.equal
        assert report.first_mismatch is None
        degs = [d for _, d in report.degeneracy_table]
        assert degs[:6] == [1, 1, 2, 2, 3, 3]
        for t, from_levels, from_pairs in report.factor_audit:
            assert from_levels == from_pairs, t
        # both enumerations give multiplicity 4 at q^7, not 3
        assert report.factor_audit[6] == (7, 4, 4)
        assert time.perf_counter() - t0 < 10.0

    _report(capsys, "anisotropic-bose / even-column equivalence (depth 12)", check)


def test_gate_truncation_stability(capsys):
    def check():
        shallow, deep = ((gpf_bose_biseries(build_spectrum("eq1", qmax)),
                          gpf_evencols_biseries(build_spectrum("eq2", qmax))) for qmax in (12, 16))
        assert check_equivalence(16).equal
        for shallow_table, deep_table in zip(shallow, deep):
            for j in range(13):
                for t in range(13):
                    assert deep_table[j][t] == shallow_table[j][t]

    _report(capsys, "deeper truncation keeps shallow coefficients", check)


def test_gate_thermo_round_trips(capsys):
    def check():
        spec = build_spectrum("eq2", 7)
        for beta in (0.5, 1.0, 2.0):
            for kind, target in ((BOSE, 0.5), (FERMI, 0.5), (FERMI, 4.0)):
                mu = solve_mu(kind, spec, beta, target, 32)
                got = evaluate(kind, spec, ThermoParams(beta, mu, 32)).mean_n
                assert abs(got - target) <= 1e-8 * max(1.0, target)
        # same grand sum from the doubled-level bose gas and the even-column
        # gas on the plain ladder, once both chemical potentials encode the
        # same boltzmann weight alpha = 0.05
        beta, alpha = 2.0, 0.05
        mu_bose = 0.5 + math.log(alpha) / beta
        mu_pairs = 0.5 + math.log(alpha) / (2 * beta)
        zb = evaluate(BOSE, build_spectrum("eq1", 11), ThermoParams(beta, mu_bose, 12))
        zc = evaluate(EVEN_COLS, build_spectrum("eq2", 11), ThermoParams(beta, mu_pairs, 12))
        rel = abs(math.exp(zb.logZ) - math.exp(zc.logZ)) / math.exp(zb.logZ)
        assert rel < 1e-9

    _report(capsys, "thermo round trips + cross-statistics grand sum", check)

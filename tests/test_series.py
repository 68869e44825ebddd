from fractions import Fraction
from math import lcm

import pytest

from schurgas import series
from schurgas.cli import frac_str, run
from schurgas.schur import DistinctnessViolation
from schurgas.series import (
    DivisionInconsistency,
    FugacitySeries,
    TruncationMismatch,
    gpf_closed_form,
    gpf_definition,
    gpf_parafermi_det,
    gpf_product,
    series_mul,
    verify_identity,
)
from schurgas.statistics import (
    BOSE,
    EVEN_COLS,
    EVEN_ROWS,
    FERMI,
    HST,
    UnsupportedKind,
    parabose,
    parafermi,
    parse_kind,
    pq,
)

F = Fraction


def S(*coeffs):
    """The series with these rational coefficients, at the lcm D of their
    denominators: coefficient n is held as the int D^n c_n."""
    scale = lcm(*(F(c).denominator for c in coeffs))
    return FugacitySeries(scale, tuple(int(F(c) * scale ** n) for n, c in enumerate(coeffs)))


def test_series_mul_known_products():
    assert series_mul(S(1, 1, 0), S(1, -1, 0)).coeffs == (F(1), F(0), F(-1))
    anything = S(1, 7, -3, F(1, 2))
    assert series_mul(S(1, 0, 0, 0), anything).coeffs == anything.coeffs
    geometric = S(1, 2, 4, 8)
    assert series_mul(geometric, S(1, -2, 0, 0)).coeffs == (F(1), F(0), F(0), F(0))
    # at the lcm of the two scales: (1 + z/2)(1 - z/3) = 1 + z/6 - z^2/6
    assert series_mul(S(1, F(1, 2), 0), S(1, F(-1, 3), 0)) == FugacitySeries(6, (1, 1, -6))


def test_series_mul_rejects_mixed_truncation():
    with pytest.raises(TruncationMismatch):
        series_mul(S(1, 0, 0, 0), S(1, 0, 0, 0, 0))


def test_gpf_definition_examples():
    half = gpf_definition(BOSE, (F(1, 2),), 3)
    assert half.coeffs == (F(1), F(1, 2), F(1, 4), F(1, 8))
    fermi = gpf_definition(FERMI, (F(2), F(3)), 3)
    assert fermi.coeffs == (F(1), F(5), F(6), F(0))
    hst = gpf_definition(HST, (F(2), F(3)), 2)
    assert hst.coeffs == (F(1), F(5), F(25))


def test_gpf_product_examples():
    pt = (F(2), F(3))
    assert gpf_product(BOSE, pt, 2).coeffs == (F(1), F(5), F(19))
    assert gpf_product(EVEN_COLS, pt, 2).coeffs == (F(1), F(0), F(6))
    assert gpf_product(EVEN_ROWS, pt, 2).coeffs == (F(1), F(0), F(19))
    assert gpf_product(FERMI, pt, 2).coeffs == (F(1), F(5), F(6))


def test_gpf_product_rejects_kinds_without_closed_form():
    for kind in (parabose(2), pq(2, 2), parafermi(2)):
        with pytest.raises(UnsupportedKind):
            gpf_product(kind, (F(2), F(3)), 3)


def test_parafermi_det_single_level_collapses():
    series = gpf_parafermi_det(2, (F(2),), 4)
    assert series.coeffs == (F(1), F(2), F(4), F(0), F(0))


def test_parafermi_det_order_one_is_fermi():
    pt = (F(2), F(3))
    assert gpf_parafermi_det(1, pt, 4).coeffs == gpf_product(FERMI, pt, 4).coeffs


def test_parafermi_det_third_coefficient():
    series = gpf_parafermi_det(2, (F(2), F(3)), 3)
    assert series.coeffs[3] == 30


def test_parafermi_det_large_order_matches_hst():
    pt = (F(2), F(3))
    hst = gpf_product(HST, pt, 6)
    for p in (6, 7, 9):
        assert gpf_parafermi_det(p, pt, 6).coeffs == hst.coeffs


def test_parafermi_det_clears_mixed_denominators():
    # the determinants run on D x with D = lcm(4, 3, 5); coefficient k
    # comes back divided by D^k
    pt = (F(-1, 4), F(2, 3), F(7, 5))
    for p in (1, 2, 3):
        assert gpf_parafermi_det(p, pt, 6) == gpf_definition(parafermi(p), pt, 6)


def test_parafermi_det_rejects_repeated_coordinates():
    with pytest.raises(DistinctnessViolation):
        gpf_parafermi_det(2, (F(2), F(2)), 3)


def test_parafermi_det_zero_coordinate_is_inconsistent():
    with pytest.raises(DivisionInconsistency):
        gpf_parafermi_det(2, (F(0), F(2)), 3)


def test_verify_identity_all_closed_forms():
    pt = (F(2), F(3), F(5))
    for name in ("bose", "fermi", "hst", "even-rows", "even-cols",
                 "parafermi:1", "parafermi:2", "parafermi:3"):
        report = verify_identity(parse_kind(name), pt, 6)
        assert report.equal, name
        assert report.first_mismatch is None


def test_verify_identity_at_fractional_point():
    pt = (F(1, 2), F(2, 3), F(5, 7))
    for kind in (BOSE, FERMI, HST, EVEN_ROWS, EVEN_COLS, parafermi(2)):
        assert verify_identity(kind, pt, 5).equal


def test_even_series_have_no_odd_terms():
    pt = (F(2), F(3), F(5))
    for kind in (EVEN_ROWS, EVEN_COLS):
        series = gpf_product(kind, pt, 7)
        assert all(series.coeffs[n] == 0 for n in (1, 3, 5, 7))


def test_gpf_closed_form_dispatch():
    pt = (F(2), F(3))
    assert gpf_closed_form(parafermi(1), pt, 3).coeffs == gpf_product(FERMI, pt, 3).coeffs
    assert gpf_closed_form(BOSE, pt, 3).coeffs == gpf_product(BOSE, pt, 3).coeffs
    with pytest.raises(UnsupportedKind):
        gpf_closed_form(parabose(2), pt, 3)


@pytest.mark.parametrize("name", ["hst", "parafermi:2"])
def test_verify_reports_a_closed_form_that_is_off(monkeypatch, capsys, name):
    # the true closed form with its z^3 ints off by one, at a point with
    # D = 6: the coefficient is off by 1/6^3, and only there
    true_closed_form = series.gpf_closed_form

    def off_at_three(kind, point, nmax):
        scale, ints = true_closed_form(kind, point, nmax)
        return FugacitySeries(scale, ints[:3] + (ints[3] + 1,) + ints[4:])

    monkeypatch.setattr(series, "gpf_closed_form", off_at_three)
    report = verify_identity(parse_kind(name), (F(1, 2), F(2, 3), F(5)), 5)
    assert report.lhs.scale == report.rhs.scale == 6
    assert (report.equal, report.first_mismatch) == (False, 3)
    deltas = [r - l for l, r in zip(report.lhs.coeffs, report.rhs.coeffs)]
    assert deltas == [0, 0, 0, F(1, 216), 0, 0]
    assert run(["verify", "--kind", name, "--point", "1/2,2/3,5", "--nmax", "5"]) == 1
    assert capsys.readouterr().out == f"{name} @ (1/2, 2/3, 5/1) nmax=5: MISMATCH at z^3\n"


def test_gpf_definition_rejects_negative_nmax():
    with pytest.raises(ValueError, match="^nmax must be nonnegative$"):
        gpf_definition(BOSE, (F(1, 2),), -1)


def test_frac_str():
    assert frac_str(F(3)) == "3/1"
    assert frac_str(F(-5, 8)) == "-5/8"

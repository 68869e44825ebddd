"""Refusals at the library layer.

The `partitions` and `schur` commands each call one envelope check, kept
with the work it bounds: `statistics.check_listing_envelope` decides from
`admitted_count` alone, and `schur.check_schur_envelope` from the shape's
sub-shape count, the point's size and its bits. Here each is called on the
command's refusal cases (the same messages the CLI goldens pin after
"error: ") with the work it guards patched to fail. The table bound rests on
`_subshape_count`, checked against a brute-force count. Last, the argument
checks of the library calls that no CLI run reaches.
"""

import pytest
from hypothesis import given, strategies as st

from schurgas import schur, statistics
from schurgas.equivalence import build_spectrum, eq1_degeneracy, gpf_bose_biseries
from schurgas.partitions import iter_partitions
from schurgas.schur import _subshape_count, as_point, check_schur_envelope, schur_qpoly_sums
from schurgas.series import gpf_parafermi_det
from schurgas.statistics import check_listing_envelope, parse_kind


def refuse_work(*args):
    raise AssertionError("the envelope check must come before any work")


@pytest.fixture
def no_listing(monkeypatch):
    monkeypatch.setattr(statistics, "iter_partitions", refuse_work)
    monkeypatch.setattr(statistics, "admitted_partitions", refuse_work)


@pytest.fixture
def no_evaluation(monkeypatch):
    for name in ("_branching_sums", "schur_int_sums", "schur_bialternant", "qp_det"):
        monkeypatch.setattr(schur, name, refuse_work)


@pytest.mark.parametrize("kind,n,max_parts,message", [
    ("hst", 60, 60, "hst admits 966467 partitions of 60, more than 100000"),
    ("hst", 46, 46, "hst admits 105558 partitions of 46, more than 100000"),
    ("even-cols", 92, 92, "even-cols admits 105558 partitions of 92, more than 100000"),
    ("fermi", 4001, 4001, "n = 4001 is more than 4000 boxes"),
    ("parafermi:3", 500, 500, "parafermi:3 admits 21084 partitions of 500 with at least "
                              "3521028 parts in all, more than 3000000"),
    ("parafermi:2", 3000, 3000, "parafermi:2 admits 1501 partitions of 3000 with 3377250 "
                                "parts in all, more than 3000000"),
    ("parafermi:3", 1000, 600, "parafermi:3 admits 43634 partitions of 1000 with at least "
                               "14573756 parts in all, more than 3000000"),
    ("parafermi:2", 4000, 3999, "parafermi:2 admits 2000 partitions of 4000 with at least "
                                "4000000 parts in all, more than 3000000"),
])
def test_listing_envelope_refuses_from_the_counts(no_listing, kind, n, max_parts, message):
    with pytest.raises(ValueError) as exc:
        check_listing_envelope(parse_kind(kind), n, max_parts)
    assert str(exc.value) == message


@pytest.mark.parametrize("kind,n,max_parts", [
    ("hst", 45, 45), ("parafermi:2", 2448, 2448), ("fermi", 1500, 1500), ("bose", 4000, 1),
])
def test_listing_envelope_passes_what_the_command_lists(no_listing, kind, n, max_parts):
    assert check_listing_envelope(parse_kind(kind), n, max_parts) is None


@pytest.mark.parametrize("lam,point,message", [
    ((501,), "2", "shape 501 has more than 500 boxes"),
    ((1,), ",".join(map(str, range(1, 101))), "point has 100 coordinates, more than 32"),
    ((40, 30, 20, 10), "1,2,3,4,5,6",
     "shape 40,30,20,10 on 6 coordinates needs a table of 409266 entries, more than 200000"),
    ((500,), ",".join(f"{97 - i}/{89 + i}" for i in range(32)),
     "the bialternant of shape 500 on this point needs 1861355074224128 units of work, "
     "more than 50000000000000"),
    # the empty shape prints as the CLI spells it
    ((), ",".join(str(2 ** 40 + i) for i in range(32)),
     "the bialternant of shape 0 on this point needs 60610578481152 units of work, "
     "more than 50000000000000"),
])
def test_schur_envelope_refuses_before_any_work(no_evaluation, lam, point, message):
    with pytest.raises(ValueError) as exc:
        check_schur_envelope(lam, as_point(point.split(",")))
    assert str(exc.value) == message


@pytest.mark.parametrize("lam,point", [
    ((12, 8, 4), "1,2,3,4,5,6"), ((1, 1, 1), "2,3"), ((), "2"), ((500,), "2"),
])
def test_schur_envelope_passes_what_the_command_evaluates(no_evaluation, lam, point):
    assert check_schur_envelope(lam, as_point(point.split(","))) is None


@given(st.lists(st.integers(1, 5), max_size=4).map(lambda parts: tuple(sorted(parts)[::-1])))
def test_subshape_count_counts_the_partitions_inside(lam):
    inside = sum(all(m <= l for m, l in zip(mu, lam))
                 for size in range(sum(lam) + 1)
                 for mu in iter_partitions(size, max(len(lam), 1)))
    assert _subshape_count(lam) == inside


@pytest.mark.parametrize("call,args,message", [
    (schur_qpoly_sums, ([1], -1, (), 0), "emax must be nonnegative"),
    (gpf_parafermi_det, (0, [1, 2], 3), "order p must be positive"),
    (gpf_parafermi_det, (2, [1, 2], -1), "nmax must be nonnegative"),
    (eq1_degeneracy, (-1,), "level index must be nonnegative"),
    (gpf_bose_biseries, (build_spectrum("eq2", 3),), "level too low"),
])
def test_bad_arguments_raise_value_error(call, args, message):
    with pytest.raises(ValueError, match=message):
        call(*args)

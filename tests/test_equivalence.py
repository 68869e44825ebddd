
import copy
import pickle
import random
from collections import Counter
from itertools import combinations

import pytest
from hypothesis import given, strategies as st

from schurgas import equivalence
from schurgas.canonical import z_canonical_qpoly
from schurgas.cli import run
from schurgas.equivalence import (
    SpectrumSpec,
    build_spectrum,
    check_equivalence,
    _pair_count,
    eq1_degeneracy,
    gpf_bose_biseries,
    gpf_evencols_biseries,
)
from schurgas.qpoly import qp_power_sum_rows
from schurgas.statistics import BOSE, EVEN_COLS


def test_eq1_degeneracy_low_levels():
    assert [eq1_degeneracy(m) for m in range(7)] == [1, 1, 2, 2, 3, 3, 4]


@given(m=st.integers(0, 60))
def test_eq1_degeneracy_closed_form(m):
    assert eq1_degeneracy(m) == m // 2 + 1


def test_audit_counts_match_the_double_scans():
    # one index enumerated, the other derived, against scanning both
    for m in range(80):
        assert eq1_degeneracy(m) == sum(1 for n in range(m + 1) for k in range(m + 1)
                                        if 2 * n + k == m)
        assert _pair_count(m) == sum(1 for a in range(m + 1) for b in range(m + 1)
                                     if a < b and a + b == m)


def test_build_spectrum_eq1():
    spec = build_spectrum("eq1", 4)
    assert [e for e, _ in spec.levels] == [3, 5, 7, 9]
    assert [d for _, d in spec.levels] == [1, 1, 2, 2]
    assert [d for _, d in build_spectrum("eq1", 7).levels] == [1, 1, 2, 2, 3, 3, 4]


def test_build_spectrum_eq2():
    spec = build_spectrum("eq2", 3)
    assert spec.levels == ((1, 1), (3, 1), (5, 1), (7, 1))


def test_build_spectrum_rejects_garbage():
    with pytest.raises(ValueError):
        build_spectrum("eq3", 4)
    with pytest.raises(ValueError):
        build_spectrum("eq1", 0)


def test_spectrum_validation():
    with pytest.raises(ValueError):
        SpectrumSpec(((2, 1),), 2)  # even energy
    with pytest.raises(ValueError):
        SpectrumSpec(((3, 1), (3, 1)), 2)  # not increasing
    with pytest.raises(ValueError):
        SpectrumSpec(((3, 0),), 2)  # dead level
    with pytest.raises(ValueError):
        SpectrumSpec((), 2)


def test_spectrum_is_a_validated_value():
    spec = SpectrumSpec(((1, 1), (3, 2)), 2)
    assert spec == SpectrumSpec(((1, 1), (3, 2)), qmax=2) == (((1, 1), (3, 2)), 2)
    assert hash(spec) == hash(SpectrumSpec(((1, 1), (3, 2)), 2)) == hash((((1, 1), (3, 2)), 2))
    assert spec != SpectrumSpec(((1, 1), (3, 2)), 3) and spec != SpectrumSpec(((1, 1),), 2)
    assert build_spectrum("eq2", 3) == build_spectrum("eq2", 3)
    assert len({spec, SpectrumSpec(((1, 1), (3, 2)), 2), build_spectrum("eq1", 2)}) == 2
    assert repr(spec) == "SpectrumSpec(levels=((1, 1), (3, 2)), qmax=2)"
    levels, qmax = spec
    assert (levels, qmax) == (spec.levels, spec.qmax)
    with pytest.raises(AttributeError):
        spec.qmax = 3
    with pytest.raises(AttributeError):
        spec.extra = 1


@pytest.mark.parametrize("fields, message", [
    ((((1, 1),), 0), "qmax must be positive"),
    (((), 2), "spectrum needs at least one level"),
    ((((2, 1),), 2), "energies must be odd and strictly increasing"),
    ((((3, 1), (3, 1)), 2), "energies must be odd and strictly increasing"),
    ((((3, 1), (1, 1)), 2), "energies must be odd and strictly increasing"),
    ((((-1, 1),), 2), "energies must be odd and strictly increasing"),
    ((((3, 0),), 2), "degeneracies must be positive"),
])
def test_spectrum_validation_messages(fields, message):
    with pytest.raises(ValueError) as exc:
        SpectrumSpec(*fields)
    assert str(exc.value) == message


def test_spectrum_rebuilds_are_validated():
    spec = build_spectrum("eq1", 3)
    assert spec._replace(qmax=5) == SpectrumSpec(spec.levels, 5)
    with pytest.raises(ValueError, match="^qmax must be positive$"):
        spec._replace(qmax=0)
    with pytest.raises(ValueError, match="^degeneracies must be positive$"):
        spec._replace(levels=((3, 0),))
    for twin in (copy.copy(spec), copy.deepcopy(spec), pickle.loads(pickle.dumps(spec))):
        assert type(twin) is SpectrumSpec and twin == spec
    forged = tuple.__new__(SpectrumSpec, ((), 2))
    with pytest.raises(ValueError, match="^spectrum needs at least one level$"):
        copy.copy(forged)
    with pytest.raises(ValueError, match="^spectrum needs at least one level$"):
        pickle.loads(pickle.dumps(forged))


def test_spectrum_accessors():
    spec = build_spectrum("eq1", 4)
    assert spec.alpha_exponents() == (1, 2, 3, 4)
    assert spec.qpoly_exponents() == (3, 5, 7, 7, 9, 9)
    assert build_spectrum("eq2", 2).alpha_exponents() == (0, 1, 2)


def test_bose_biseries_landmark_coefficients():
    qmax = 6
    series = gpf_bose_biseries(build_spectrum("eq1", qmax))
    assert series[1][1] == 1
    assert series[1][5] == 3
    assert series[2][2] == 1


def test_evencols_biseries_landmark_coefficients():
    qmax = 6
    series = gpf_evencols_biseries(build_spectrum("eq2", qmax))
    assert series[1][1] == 1
    assert series[1][5] == 3
    assert series[1][0] == 0


def test_biseries_structural_invariants():
    qmax = 7
    for series in (
        gpf_bose_biseries(build_spectrum("eq1", qmax)),
        gpf_evencols_biseries(build_spectrum("eq2", qmax)),
    ):
        assert series[0][0] == 1
        for t in range(1, qmax + 1):
            assert series[0][t] == 0
        for j in range(qmax + 1):
            for t in range(qmax + 1):
                assert series[j][t] >= 0
                if t < j:
                    assert series[j][t] == 0


def test_evencols_biseries_rejects_degenerate_levels():
    with pytest.raises(ValueError):
        gpf_evencols_biseries(build_spectrum("eq1", 4))  # degenerate levels


def tables(qmax):
    # the two grand-series tables the JSON record prints
    return (gpf_bose_biseries(build_spectrum("eq1", qmax)),
            gpf_evencols_biseries(build_spectrum("eq2", qmax)))


@pytest.mark.parametrize("qmax", [1, 2, 5, 13])
def test_biseries_tables_are_square(qmax):
    # qmax + 1 rows a^0..a^qmax, each qmax + 1 wide for q^0..q^qmax
    for table in tables(qmax):
        assert len(table) == qmax + 1
        assert all(len(row) == qmax + 1 for row in table)


def test_check_equivalence_small():
    report = check_equivalence(6)
    assert report.equal
    assert report.first_mismatch is None
    assert [d for _, d in report.degeneracy_table] == [1, 1, 2, 2, 3, 3]


def test_factor_multiset_identity():
    # stronger than series equality: both multiplicity oracles agree,
    # including the fourfold level feeding q^7
    report = check_equivalence(12)
    for t, bose_mult, pair_mult in report.factor_audit:
        assert bose_mult == pair_mult
        assert bose_mult == (t + 1) // 2
    assert report.factor_audit[6] == (7, 4, 4)


def test_truncation_stability():
    small_bose, small_evencols = tables(8)
    large_bose, large_evencols = tables(12)
    for j in range(9):
        for t in range(9):
            assert small_bose[j][t] == large_bose[j][t]
            assert small_evencols[j][t] == large_evencols[j][t]


def test_bose_rows_match_canonical_qpoly():
    qmax = 8
    spec = build_spectrum("eq1", qmax)
    series = gpf_bose_biseries(spec)
    exps = []
    for (_, d), s in zip(spec.levels, spec.alpha_exponents()):
        exps.extend([s] * d)
    for j in range(5):
        low, poly = z_canonical_qpoly(BOSE, tuple(exps), j, qmax)
        padded = [0] * low + poly + [0] * (qmax + 1 - low - len(poly))
        assert list(series[j]) == padded


def test_evencols_rows_match_canonical_qpoly():
    qmax = 8
    spec = build_spectrum("eq2", qmax)
    series = gpf_evencols_biseries(spec)
    exps = spec.alpha_exponents()
    for j in range(4):
        # one power of the pair symbol carries two particles
        low, poly = z_canonical_qpoly(EVEN_COLS, exps, 2 * j, qmax)
        padded = [0] * low + poly + [0] * (qmax + 1 - low - len(poly))
        assert list(series[j]) == padded


def first_table_mismatch(left, right):
    # the row-by-row table scan that the multiset decision must agree with
    qmax = len(left) - 1
    return next(((j, t) for j in range(qmax + 1) for t in range(qmax + 1)
                 if left[j][t] != right[j][t]), None)


@pytest.mark.parametrize("qmax", [1, 2, 3, 5, 8, 13, 21, 34, 55, 80])
def test_multiset_decision_matches_the_tables(qmax):
    report = check_equivalence(qmax)
    assert report.equal
    assert first_table_mismatch(*tables(qmax)) is None


def test_pair_factors_match_every_level_pair():
    # the partner slices against every pair of levels, filtered at qmax
    for qmax in range(1, 81):
        spec = build_spectrum("eq2", qmax)
        every = Counter((1, 1, 1, a + b) for a, b in combinations(spec.alpha_exponents(), 2)
                        if a + b <= qmax)
        assert equivalence._pair_factors(spec) == every, qmax


# the originals, taken before any test patches them
PAIR_FACTORS = equivalence._pair_factors
PRODUCT_BISERIES = equivalence._product_biseries


def perturbed_pair_factors(spec):
    # one pair factor moved from q^5 to q^6: the tables first differ in row 1
    pairs = PAIR_FACTORS(spec)
    pairs[(1, 1, 1, 5)] -= 1
    pairs[(1, 1, 1, 6)] += 1
    return pairs


def refuse_tables(*args):
    raise AssertionError("a coefficient table was built")


def test_perturbed_pair_factor_is_unequal_by_both_criteria(monkeypatch):
    monkeypatch.setattr(equivalence, "_pair_factors", perturbed_pair_factors)
    qmax = 12
    report = check_equivalence(qmax)
    bose = equivalence._bose_factors(build_spectrum("eq1", qmax))
    pairs = perturbed_pair_factors(build_spectrum("eq2", qmax))
    assert qp_power_sum_rows(bose, qmax, qmax) != qp_power_sum_rows(pairs, qmax, qmax)
    assert not report.equal
    scan = first_table_mismatch(tables(qmax)[0], PRODUCT_BISERIES(pairs, qmax))
    assert report.first_mismatch == scan == (1, 5)


def test_multiset_decision_matches_the_table_scan():
    # random factor multisets (1 - a q^t)^(-1), 1 <= t <= qmax, against
    # perturbations of themselves; some perturbations cancel or only add a
    # zero multiplicity, so equal verdicts are drawn too. No table may be
    # built for the verdict or its first mismatch.
    rng = random.Random(25)
    verdicts = Counter()
    for _ in range(600):
        qmax = rng.randint(1, 12)
        bose = +Counter({(1, 1, 1, t): rng.randint(0, 3) for t in range(1, qmax + 1)})
        pairs = Counter(bose)
        for _ in range(rng.choice([0, 0, 1, 2, 3])):
            t = (1, 1, 1, rng.randint(1, qmax))
            pairs[t] = max(0, pairs[t] + rng.choice([-1, 0, 1]))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(equivalence, "_bose_factors", lambda spec: bose)
            mp.setattr(equivalence, "_pair_factors", lambda spec: pairs)
            mp.setattr(equivalence, "_product_biseries", refuse_tables)
            report = check_equivalence(qmax)
            verdict = report.equal, report.first_mismatch
        scan = first_table_mismatch(PRODUCT_BISERIES(bose, qmax), PRODUCT_BISERIES(pairs, qmax))
        assert verdict == (scan is None, scan), (qmax, bose, pairs)
        verdicts[verdict[0]] += 1
    assert min(verdicts.values()) >= 100, verdicts


@pytest.mark.parametrize("fmt", ["text", "csv"])
def test_text_and_csv_build_no_table(capsys, monkeypatch, fmt):
    monkeypatch.setattr(equivalence, "_product_biseries", refuse_tables)
    assert run(["equivalence", "--qmax", "30", "--format", fmt]) == 0
    out = capsys.readouterr().out
    assert out.startswith("qmax = 30\nequal = True\n" if fmt == "text" else "level_index,")
    with pytest.raises(AssertionError, match="table was built"):
        run(["equivalence", "--qmax", "3", "--format", "json"])


@pytest.mark.parametrize("fmt", ["text", "csv"])
def test_unequal_verdict_builds_no_table(capsys, monkeypatch, fmt):
    # an unequal verdict costs what an equal one does, well inside the envelope
    monkeypatch.setattr(equivalence, "_pair_factors", perturbed_pair_factors)
    monkeypatch.setattr(equivalence, "_product_biseries", refuse_tables)
    assert run(["equivalence", "--qmax", "300", "--format", fmt]) == 1
    out = capsys.readouterr().out
    if fmt == "text":
        assert out.startswith("qmax = 300\nequal = False\nfirst mismatch at a^1 q^5\n")
    else:
        assert out.startswith("level_index,")

import json
from fractions import Fraction

import pytest

from schurgas import cli, partitions, statistics, thermo
from schurgas.cli import run
from schurgas.equivalence import SpectrumSpec


def invoke(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def refuse_work(*args):
    raise AssertionError("the envelope check must come before any work")


def test_partitions_listing(capsys):
    code, out, _ = invoke(capsys, ["partitions", "4", "--max-parts", "2"])
    assert code == 0
    assert out == "4\n3,1\n2,2\n"


def test_partitions_kind_filter(capsys):
    code, out, _ = invoke(capsys, ["partitions", "4", "--max-parts", "2", "--kind", "even-rows"])
    assert code == 0
    assert out == "4\n2,2\n"


def test_partitions_json(capsys):
    code, out, _ = invoke(capsys, ["partitions", "3", "--format", "json"])
    assert code == 0
    assert json.loads(out) == [[3], [2, 1], [1, 1, 1]]


@pytest.mark.parametrize("argv,reason", [
    (["60"], "hst admits 966467 partitions of 60, more than 100000"),
    (["46", "--format", "csv"], "admits 105558 partitions of 46"),
    (["92", "--kind", "even-cols"], "even-cols admits 105558 partitions of 92"),
    (["4001", "--kind", "fermi"], "n = 4001 is more than 4000 boxes"),
    # few shapes, but long ones: past count x ceil(n / cols), refused on that
    # bound; between it and count x min(n, rows), the parts are counted
    # exactly, and still without generating a shape
    (["500", "--kind", "parafermi:3"], "admits 21084 partitions of 500 with at least 3521028"),
    (["3000", "--kind", "parafermi:2"], "admits 1501 partitions of 3000 with 3377250 parts"),
    (["1000", "--kind", "parafermi:3", "--max-parts", "600", "--format", "json"],
     "more than 3000000"),
])
def test_partitions_refuses_past_its_envelope(capsys, monkeypatch, argv, reason):
    monkeypatch.setattr(statistics, "iter_partitions", refuse_work)
    code, out, err = invoke(capsys, ["partitions", *argv])
    assert (code, out) == (2, "")
    assert reason in err


def test_partitions_refusal_counts_parts_by_columns(capsys, monkeypatch):
    # parafermi:2 binds the columns (2) and not the rows (n): the exact total
    # comes from the column count, and no Gaussian-binomial pass runs on more
    # than 2 rows, where the row pass would take 3,000
    rows = []
    box_counts = partitions._box_counts

    def counted(n, r, cols):
        rows.append(r)
        return box_counts(n, r, cols)

    monkeypatch.setattr(partitions, "_box_counts", counted)
    monkeypatch.setattr(statistics, "iter_partitions", refuse_work)
    code, out, err = invoke(capsys, ["partitions", "3000", "--kind", "parafermi:2"])
    assert (code, out) == (2, "")
    assert err == ("error: parafermi:2 admits 1501 partitions of 3000 with 3377250 parts in all, "
                   "more than 3000000\n")
    assert rows and max(rows) <= 2


def test_partitions_refuses_on_the_least_parts(capsys, monkeypatch):
    # every shape has at least ceil(n / cols) = 2,000 parts, so the total is
    # past the limit with no parts count; with 3,999 rows, the row pass of
    # that count took 1 s to refuse it
    monkeypatch.setattr(statistics, "count_parts", refuse_work)
    monkeypatch.setattr(statistics, "iter_partitions", refuse_work)
    argv = ["partitions", "4000", "--kind", "parafermi:2", "--max-parts", "3999"]
    code, out, err = invoke(capsys, argv)
    assert (code, out) == (2, "")
    assert err == ("error: parafermi:2 admits 2000 partitions of 4000 with at least 4000000 "
                   "parts in all, more than 3000000\n")


def test_partitions_lists_inside_its_envelope(capsys):
    # 89,134 shapes with 1,140,945 parts (up to 4,011,030 by the cheap bound),
    # the most shapes of any n under the shape bound
    code, out, _ = invoke(capsys, ["partitions", "45"])
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 89134 and lines[0] == "45" and lines[-1] == ",".join(["1"] * 45)
    # 1,225 shapes with 2,249,100 parts, just under the cheap bound
    argv = ["partitions", "2448", "--kind", "parafermi:2", "--format", "csv"]
    code, out, _ = invoke(capsys, argv)
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 1226 and lines[1] == "+".join(["2"] * 1224)
    assert lines[-1] == "+".join(["1"] * 2448)
    code, out, _ = invoke(capsys, ["partitions", "1500", "--kind", "fermi"])
    assert (code, out) == (0, ",".join(["1"] * 1500) + "\n")


def test_schur_both_backends(capsys):
    code, out, _ = invoke(capsys, ["schur", "--shape", "2,1", "--point", "2,3"])
    assert code == 0
    assert out == "tableau = 30/1\nbialternant = 30/1\n"


def test_schur_degenerate_point(capsys):
    code, out, _ = invoke(capsys, ["schur", "--shape", "2,1", "--point", "2,2",
                                   "--format", "json"])
    assert code == 0
    blob = json.loads(out)
    assert blob["tableau"] == "16/1"
    assert blob["bialternant"] is None


@pytest.mark.parametrize("argv,reason", [
    (["--shape", "501", "--point", "2"], "more than 500 boxes"),
    # the tableau count allowed this one, but the 100 x 100 Bareiss ran past 60 s
    (["--shape", "1", "--point", ",".join(map(str, range(1, 101)))],
     "point has 100 coordinates, more than 32"),
    (["--shape", "40,30,20,10", "--point", "1,2,3,4,5,6"],
     "needs a table of 409266 entries, more than 200000"),
    # 32 coordinates of 14 bits make a 16032-entry table but a slow bialternant
    (["--shape", "500", "--point", ",".join(f"{97 - i}/{89 + i}" for i in range(32))],
     "more than 50000000000000"),
])
def test_schur_refuses_past_its_envelope(capsys, monkeypatch, argv, reason):
    monkeypatch.setattr(cli, "schur_int_sums", refuse_work)
    monkeypatch.setattr(cli, "schur_bialternant", refuse_work)
    code, out, err = invoke(capsys, ["schur", *argv])
    assert (code, out) == (2, "")
    assert reason in err


def test_schur_runs_inside_its_envelope(capsys):
    # 16,362,500 tableaux on 6 coordinates, which exited 2 while the command
    # enumerated them; the engine's table has 6 x 285 entries
    code, out, _ = invoke(capsys, ["schur", "--shape", "12,8,4", "--point", "1,2,3,4,5,6"])
    assert code == 0
    assert out == "tableau = 701522599934506739389/1\nbialternant = 701522599934506739389/1\n"
    # a shape with more parts than coordinates is zero and costs nothing
    code, out, _ = invoke(capsys, ["schur", "--shape", "1,1,1", "--point", "2,3"])
    assert (code, out) == (0, "tableau = 0/1\nbialternant = 0/1\n")
    # repeated zero coordinates: no bialternant, and the tableau sum skips them
    code, out, _ = invoke(capsys, ["schur", "--shape", "12,8,4", "--point", "0,1,0,2,0,3"])
    assert code == 0 and out.startswith("tableau = 1025733456/1\n")


def test_zn_value(capsys):
    code, out, _ = invoke(capsys, ["zn", "--kind", "hst", "--point", "2,3", "--n", "2"])
    assert code == 0
    assert out == "25/1\n"


def test_gpf_definition_series(capsys):
    code, out, _ = invoke(capsys, ["gpf", "--kind", "bose", "--point", "1/2",
                                   "--nmax", "3", "--format", "json"])
    assert code == 0
    assert json.loads(out)["coeffs"] == ["1/1", "1/2", "1/4", "1/8"]


def test_gpf_supports_kinds_without_closed_form(capsys):
    code, out, _ = invoke(capsys, ["gpf", "--kind", "parabose:2", "--point", "2,3",
                                   "--nmax", "2"])
    assert code == 0
    assert out == "0: 1/1\n1: 5/1\n2: 25/1\n"


def test_verify_single_kind(capsys):
    code, out, _ = invoke(capsys, ["verify", "--kind", "bose", "--point", "2,3",
                                   "--nmax", "6"])
    assert code == 0
    assert "OK" in out


def test_verify_all_kinds(capsys):
    code, out, _ = invoke(capsys, ["verify", "--all", "--nmax", "4"])
    assert code == 0
    assert out.count("OK") == 16  # 8 kinds, two points each


def test_verify_requires_kind_or_all(capsys):
    code, _, err = invoke(capsys, ["verify", "--nmax", "4"])
    assert code == 2
    assert "kind" in err


def test_verify_deterministic_output(capsys):
    argv = ["verify", "--kind", "hst", "--nmax", "4", "--seed", "7", "--format", "json"]
    _, first, _ = invoke(capsys, argv)
    _, second, _ = invoke(capsys, argv)
    assert first == second


def test_equivalence_exit_and_json(capsys):
    code, out, _ = invoke(capsys, ["equivalence", "--qmax", "6", "--format", "json"])
    assert code == 0
    blob = json.loads(out)
    assert blob["equal"] is True
    assert [row[1] for row in blob["degeneracy_table"]] == [1, 1, 2, 2, 3, 3]


def test_equivalence_csv(capsys):
    code, out, _ = invoke(capsys, ["equivalence", "--qmax", "4", "--format", "csv"])
    assert code == 0
    assert out.startswith("level_index,energy_halfq,degeneracy\n")


@pytest.mark.parametrize("argv,reason", [
    (["--qmax", "1000000000"], "qmax = 1000000000 is more than 3000 for --format text"),
    (["--qmax", "3001", "--format", "csv"], "qmax = 3001 is more than 3000 for --format csv"),
    # JSON prints both tables, about qmax^3 work
    (["--qmax", "161", "--format", "json"], "qmax = 161 is more than 160 for --format json"),
])
def test_equivalence_refuses_past_its_envelope(capsys, monkeypatch, argv, reason):
    monkeypatch.setattr(cli, "check_equivalence", refuse_work)
    code, out, err = invoke(capsys, ["equivalence", *argv])
    assert (code, out) == (2, "")
    assert reason in err


def test_equivalence_envelope_keeps_its_limits(capsys, monkeypatch):
    asked = []
    small = cli.check_equivalence(3)
    monkeypatch.setattr(cli, "check_equivalence", lambda qmax: asked.append(qmax) or small)
    for argv in (["--qmax", "3000"], ["--qmax", "3000", "--format", "csv"],
                 ["--qmax", "160", "--format", "json"]):
        assert invoke(capsys, ["equivalence", *argv])[0] == 0
    assert asked == [3000, 3000, 160]


def test_thermo_fixed_mu(capsys):
    code, out, _ = invoke(capsys, ["thermo", "--kind", "fermi", "--spectrum", "eq2",
                                   "--beta", "1.0", "--mu", "2.0", "--format", "json"])
    assert code == 0
    blob = json.loads(out)
    assert 0 < blob["mean_n"] < 9
    assert blob["mu_over_hw"] == 2.0


def test_thermo_target_round_trip(capsys):
    code, out, _ = invoke(capsys, ["thermo", "--kind", "bose", "--spectrum", "eq2",
                                   "--beta", "1.0", "--target-n", "0.25",
                                   "--nmax", "32", "--format", "json"])
    assert code == 0
    assert abs(json.loads(out)["mean_n"] - 0.25) <= 1e-8


def test_thermo_numeric_failure_exit(capsys):
    code, _, err = invoke(capsys, ["thermo", "--kind", "bose", "--spectrum", "eq2",
                                   "--beta", "1.0", "--mu", "99", "--nmax", "8"])
    assert code == 3
    assert "numeric failure" in err


def test_thermo_target_checks_beta_before_any_work(capsys, monkeypatch):
    monkeypatch.setattr(thermo, "_weight_polys", refuse_work)
    monkeypatch.setattr(thermo, "_power_sum_plan", refuse_work)
    for kind in ("bose", "fermi"):  # the power-sum route and the engine's
        code, out, err = invoke(capsys, ["thermo", "--kind", kind, "--spectrum", "eq2",
                                         "--beta", "0", "--target-n", "1"])
        assert (code, out, err) == (2, "", "error: beta_hw must be positive and finite\n")
    spec = SpectrumSpec(((1, 1),), 1)
    with pytest.raises(ValueError, match="^beta_hw must be positive and finite$"):
        thermo.solve_mu(statistics.BOSE, spec, 0.0, 1.0, 8)
    with pytest.raises(ValueError, match="^nmax must be at least 1$"):
        thermo.solve_mu(statistics.BOSE, spec, 1.0, 1.0, 0)


def test_usage_errors_exit_two(capsys):
    code, _, _ = invoke(capsys, ["zn", "--kind", "nope", "--point", "2", "--n", "1"])
    assert code == 2
    code, _, _ = invoke(capsys, ["zn", "--point", "2"])
    assert code == 2
    code, _, _ = invoke(capsys, ["nonsense"])
    assert code == 2
    # --kind and --all contradict each other; --seed belongs to verify only
    code, _, _ = invoke(capsys, ["verify", "--kind", "bose", "--all"])
    assert code == 2
    code, _, _ = invoke(capsys, ["zn", "--kind", "hst", "--point", "2", "--n", "1", "--seed", "1"])
    assert code == 2


def test_repeated_coordinate_error_prints_the_point_as_output_does(capsys):
    code, out, err = invoke(capsys, ["verify", "--kind", "parafermi:2", "--point", "1,1"])
    assert (code, out, err) == (2, "", "error: repeated coordinate in point 1/1,1/1\n")


def test_out_file(tmp_path, capsys):
    target = tmp_path / "series.txt"
    code, out, _ = invoke(capsys, ["gpf", "--kind", "fermi", "--point", "2,3",
                                   "--nmax", "2", "--out", str(target)])
    assert code == 0
    assert out == ""
    assert target.read_text() == "0: 1/1\n1: 5/1\n2: 6/1\n"


@pytest.mark.parametrize("where", ["missing/dir/x.txt", "."])
def test_unwritable_out_is_a_usage_error(tmp_path, capsys, where):
    # a missing parent directory, then a path that is a directory: exit 2
    # with a message, not a traceback and not verify's mismatch code 1
    target = tmp_path / where
    code, out, err = invoke(capsys, ["zn", "--kind", "hst", "--point", "1,2", "--n", "2",
                                     "--out", str(target)])
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: cannot write {target}")
    assert not (tmp_path / "missing").exists()


@pytest.mark.parametrize("argv", [
    ["zn", "--kind=", "--point", "2", "--n", "1"],
    ["gpf", "--kind=", "--point", "2", "--nmax", "2"],
    ["thermo", "--kind=", "--spectrum", "eq2", "--beta", "1", "--mu", "-1"],
    ["verify", "--kind=", "--nmax", "2"],
    ["partitions", "3", "--kind="],
    ["schur", "--shape", "2,1", "--point="],
    ["verify", "--kind", "bose", "--point=", "--nmax", "2"],
])
def test_empty_kind_or_point_is_a_usage_error(capsys, argv):
    code, out, err = invoke(capsys, argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize("extra", [
    ["--beta", "inf", "--mu", "-1"],
    ["--beta", "1", "--mu", "nan"],
    ["--beta", "1", "--target-n", "inf"],
    ["--beta", "2", "--mu", "1e308"],
])
def test_thermo_rejects_non_finite_inputs(capsys, extra):
    code, _, err = invoke(capsys, ["thermo", "--kind", "bose", "--spectrum", "eq2"] + extra)
    assert code == 2
    assert err.startswith("error:") and "finite" in err


def test_thermo_csv_evaluates_once(capsys, monkeypatch):
    calls = []
    evaluate = thermo.evaluate

    def counting(*args):
        calls.append(args)
        return evaluate(*args)

    monkeypatch.setattr(cli, "evaluate", counting)
    monkeypatch.setattr(thermo, "evaluate", counting)
    code, _, _ = invoke(capsys, ["thermo", "--kind", "fermi", "--spectrum", "eq2",
                                 "--beta", "1.0", "--mu", "2.0", "--format", "csv"])
    assert code == 0
    assert len(calls) == 1


def test_thermo_large_beta_fills_the_lowest_levels(capsys):
    code, out, _ = invoke(capsys, ["thermo", "--kind", "fermi", "--spectrum", "eq2",
                                   "--beta", "100", "--mu", "4.9", "--format", "json"])
    assert code == 0
    blob = json.loads(out)
    assert blob["mean_n"] == pytest.approx(5.0, abs=1e-12)
    assert blob["mean_e_over_hw"] == pytest.approx(12.5, abs=1e-12)

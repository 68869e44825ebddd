"""Byte-exact CLI outputs: stdout, stderr and exit code of fixed argv lines in
every output format, compared against `cli_golden.json`.

The recorded outputs pin the exact layer end to end, so a refactor of the
arithmetic underneath must leave every byte unchanged; the envelope refusals
pin their exit code and message the same way. Run as a script,

    PYTHONPATH=src python tests/test_cli_golden.py

it lists the cases whose output differs from the recording and exits 1 if
any does. To record them again (only when an output is meant to change),
add `--record`.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from schurgas.cli import run

GOLDEN = Path(__file__).with_name("cli_golden.json")

ARGV = [
    ["partitions", "4", "--max-parts", "3"],
    ["partitions", "6", "--kind", "even-cols"],
    ["schur", "--shape", "2,1", "--point", "2,3"],
    ["schur", "--shape", "2,1", "--point", "2,2"],
    ["schur", "--shape", "2,1", "--point", "0,1,2"],
    ["schur", "--shape", "5,3,1", "--point=1/2,-2/3,3,5/4,7"],
    ["zn", "--kind", "hst", "--point", "2,3", "--n", "3"],
    ["zn", "--kind", "parafermi:2", "--point", "0,1,2", "--n", "3"],
    ["gpf", "--kind", "even-cols", "--point", "1/2,1/3", "--nmax", "6"],
    ["gpf", "--kind", "parabose:2", "--point", "2,3", "--nmax", "3"],
    ["verify", "--all"],
    ["verify", "--kind", "parafermi:2", "--point=1/2,-1/3,3", "--nmax", "5"],
    ["verify", "--kind", "even-rows", "--point", "0,1,2", "--nmax", "4"],
    ["verify", "--kind", "parafermi:1", "--point", "0,1,2", "--nmax", "4"],
    ["verify", "--kind", "parafermi:3", "--point=1/2,-2/3,3,5/4,7", "--nmax", "6"],
    ["equivalence", "--qmax", "8"],
    ["thermo", "--kind", "bose", "--spectrum", "eq2", "--beta", "1.0",
     "--target-n", "0.25", "--nmax", "32"],
    ["thermo", "--kind", "fermi", "--spectrum", "eq2", "--beta", "1.0", "--mu", "2.0"],
    ["thermo", "--kind", "hst", "--spectrum", "eq1", "--beta", "2", "--mu", "-1",
     "--qmax", "4", "--nmax", "8"],
    ["thermo", "--kind", "parafermi:3", "--spectrum", "eq1", "--beta", "1.25",
     "--target-n", "1.5", "--qmax", "4", "--nmax", "24"],
    ["thermo", "--kind", "parabose:3", "--spectrum", "eq2", "--beta", "1.0",
     "--target-n", "0.15", "--qmax", "3", "--nmax", "12"],
    ["thermo", "--kind", "pq:4:4", "--spectrum", "eq1", "--beta", "1.5", "--mu", "-0.5",
     "--qmax", "3", "--nmax", "16"],
    ["thermo", "--kind", "even-cols", "--spectrum", "eq2", "--beta", "1.5",
     "--target-n", "0.2", "--qmax", "4", "--nmax", "16"],
    ["thermo", "--kind", "bose", "--spectrum", "eq2", "--beta", "1.0",
     "--target-n", "50", "--qmax", "4", "--nmax", "4"],
]
CASES = [argv + ["--format", fmt] for argv in ARGV for fmt in ("text", "json", "csv")]
# equivalence inside the benchmark's qmax range (20-40) in the formats that
# print no table, and a table-printing run well past the qmax 8 case
CASES += [["equivalence", "--qmax", "30", "--format", "text"],
          ["equivalence", "--qmax", "30", "--format", "csv"],
          ["equivalence", "--qmax", "20", "--format", "json"]]
# every envelope refusal of tests/test_cli.py: exit 2 and its message, with
# nothing on stdout
CASES += [["partitions", "60"],
          ["partitions", "46", "--format", "csv"],
          ["partitions", "92", "--kind", "even-cols"],
          ["partitions", "4001", "--kind", "fermi"],
          ["partitions", "500", "--kind", "parafermi:3"],
          ["partitions", "3000", "--kind", "parafermi:2"],
          ["partitions", "1000", "--kind", "parafermi:3", "--max-parts", "600", "--format", "json"],
          ["partitions", "4000", "--kind", "parafermi:2", "--max-parts", "3999"],
          ["schur", "--shape", "501", "--point", "2"],
          ["schur", "--shape", "1", "--point", ",".join(map(str, range(1, 101)))],
          ["schur", "--shape", "40,30,20,10", "--point", "1,2,3,4,5,6"],
          ["schur", "--shape", "500", "--point", ",".join(f"{97 - i}/{89 + i}" for i in range(32))],
          ["equivalence", "--qmax", "1000000000"],
          ["equivalence", "--qmax", "3001", "--format", "csv"],
          ["equivalence", "--qmax", "161", "--format", "json"]]


def record(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    return {"argv": argv, "code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


@pytest.fixture(scope="module")
def golden():
    return {" ".join(g["argv"]): g for g in json.loads(GOLDEN.read_text())}


@pytest.mark.parametrize("argv", CASES, ids=" ".join)
def test_cli_output_is_byte_identical(golden, argv):
    assert record(argv) == golden[" ".join(argv)]


def main(args: list[str]) -> int:
    if args not in ([], ["--record"]):
        print(f"usage: {Path(__file__).name} [--record]", file=sys.stderr)
        return 2
    fresh = [record(argv) for argv in CASES]
    if args:
        GOLDEN.write_text(json.dumps(fresh, indent=1) + "\n")
        return 0
    recorded = {" ".join(g["argv"]): g for g in json.loads(GOLDEN.read_text())}
    differing = [" ".join(r["argv"]) for r in fresh if recorded.get(" ".join(r["argv"])) != r]
    for case in differing:
        print(f"differs: {case}")
    print(f"{len(differing)} of {len(fresh)} cases differ")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

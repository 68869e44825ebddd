"""Output checks, run after the timed loop.

Each check recomputes what the request asked for by a route other than the
one the CLI takes, or tests a property the output must have:

* gpf and zn: the closed product where the kind has one, else a sum of
  bialternant Schur values over the admitted shapes; the CLI sums
  semistandard tableaux. The parafermi determinant ratio is not used here:
  it costs eight times the bialternant sum, and the verify requests
  already compare it against the defining sum.
* verify: every line reports OK. equivalence: `equal = True`.
* schur: the tableau and bialternant values agree.
* thermo --target-n: mean N within MU_REL_TOL of the target.
* thermo --mu (fermi and bose only): mean N against the grand canonical
  occupation sum over the spectrum's levels.
"""

from __future__ import annotations

import math
from fractions import Fraction

from schurgas.equivalence import build_spectrum
from schurgas.schur import schur_bialternant
from schurgas.series import gpf_product
from schurgas.statistics import admitted_partitions, parse_kind
from schurgas.thermo import MU_REL_TOL

MU_CHECK_REL_TOL = 1e-6  # truncated grand sum against the untruncated product


def options(argv: list[str]) -> dict[str, str]:
    """--flag value and --flag=value pairs of an argv list."""
    out: dict[str, str] = {}
    i = 0
    while i < len(argv):
        arg = argv[i]
        if arg.startswith("--"):
            if "=" in arg:
                key, value = arg[2:].split("=", 1)
            else:
                key, value = arg[2:], argv[i + 1]
                i += 1
            out[key] = value
        i += 1
    return out


def _point(text: str) -> tuple[Fraction, ...]:
    return tuple(Fraction(p) for p in text.split(","))


PRODUCT_FAMILIES = ("bose", "fermi", "hst", "even-rows", "even-cols")


def expected_coefficients(kind_text: str, point: tuple[Fraction, ...],
                          degrees: list[int]) -> list[Fraction]:
    """Grand series coefficients of the given degrees, by the closed product
    or the bialternant sum."""
    kind = parse_kind(kind_text)
    if kind.family in PRODUCT_FAMILIES:
        series = gpf_product(kind, point, max(degrees)).coeffs
        return [series[n] for n in degrees]
    return [sum((schur_bialternant(lam, point)
                 for lam in admitted_partitions(kind, n, len(point))), Fraction(0))
            for n in degrees]


def _fields(text: str) -> dict[str, str]:
    return dict(line.split(" = ", 1) for line in text.splitlines() if " = " in line)


def _occupation_mean_n(kind: str, spectrum: str, qmax: int, beta: float, mu: float) -> float:
    sign = 1.0 if kind == "fermi" else -1.0
    return math.fsum(
        degeneracy / (math.exp(beta * (energy / 2 - mu)) + sign)
        for energy, degeneracy in build_spectrum(spectrum, qmax).levels
    )


def check(argv: list[str], code: int, out: str, err: str) -> str | None:
    """None if the request's output is right, else the reason it is not."""
    if code != 0:
        return f"exit {code}: {err.strip()[-200:]}"
    try:
        return _check_output(argv[0], options(argv), out)
    except (ValueError, KeyError, IndexError, ZeroDivisionError) as exc:
        return f"unreadable output ({exc!r}): {out[:200]!r}"


def _check_output(sub: str, opt: dict[str, str], out: str) -> str | None:
    if sub == "gpf":
        got = [Fraction(line.split(": ", 1)[1]) for line in out.splitlines()]
        degrees = list(range(int(opt["nmax"]) + 1))
        if got != expected_coefficients(opt["kind"], _point(opt["point"]), degrees):
            return "gpf coefficients differ from the independent route"
    elif sub == "zn":
        if [Fraction(out.strip())] != expected_coefficients(opt["kind"], _point(opt["point"]),
                                                            [int(opt["n"])]):
            return "Z_N differs from the independent route"
    elif sub == "verify":
        lines = out.splitlines()
        if not lines or not all(line.endswith(": OK") for line in lines):
            return "verify did not report OK"
    elif sub == "equivalence":
        if _fields(out).get("equal") != "True":
            return "equivalence did not report equal = True"
    elif sub == "schur":
        f = _fields(out)
        if f.get("tableau") is None or f.get("tableau") != f.get("bialternant"):
            return "tableau and bialternant differ"
    elif sub == "thermo":
        mean_n = float(_fields(out)["meanN"])
        if "target-n" in opt:
            target = float(opt["target-n"])
            if not abs(mean_n - target) <= MU_REL_TOL * max(1.0, target):
                return f"meanN {mean_n!r} misses target {target!r}"
        else:
            want = _occupation_mean_n(opt["kind"], opt["spectrum"], int(opt["qmax"]),
                                      float(opt["beta"]), float(opt["mu"]))
            if not abs(mean_n - want) <= MU_CHECK_REL_TOL * want:
                return f"meanN {mean_n!r} differs from occupation sum {want!r}"
    else:
        return f"no check for subcommand {sub!r}"
    return None

"""Command-line front door: it parses argv, dispatches and prints.

Every computation and verification is a subcommand with machine-readable
output. Exit codes: 0 success or verified, 1 a checked identity was
falsified, 2 usage error, 3 numeric failure (truncation or bracketing).
All randomness is seeded, all arithmetic outside `thermo` exact, so a given
argv always produces byte-identical output. Rationals print as "num/den".
Each handler returns an `Output` of plain values; `_emit` formats it.
"""

from __future__ import annotations

import argparse
import sys
from collections import namedtuple
from fractions import Fraction

from .canonical import z_canonical
from .equivalence import (build_spectrum, check_equivalence, gpf_bose_biseries,
                          gpf_evencols_biseries)
from .partitions import check_partition
from .schur import (DistinctnessViolation, check_digits, check_schur_envelope,
                    clear_denominators, schur_bialternant, schur_int_sums)
from .series import DivisionInconsistency, gpf_definition, verify_identity
from .statistics import (UnsupportedKind, admitted_partitions, check_listing_envelope, kind_name,
                         parse_kind)
from .thermo import BracketFailure, ThermoParams, TruncationTail, evaluate, evaluate_at_target

VERIFY_ALL_KINDS = ("bose", "fermi", "hst", "even-rows", "even-cols",
                    "parafermi:1", "parafermi:2", "parafermi:3")
# The `equivalence` envelope, checked before any work: about 1 s of JSON, which
# expands both (a, q) tables (qmax^3), or of text or CSV, which compare the
# factor multisets and print the audit (about qmax^2 for either verdict).
EQUIVALENCE_MAX_QMAX = {"json": 160, "csv": 3000, "text": 3000}


def frac_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def parse_point(text: str) -> tuple[Fraction, ...]:
    try:
        return tuple(Fraction(part.strip()) for part in text.split(","))
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"bad point {text!r}: {exc}") from None


def parse_shape(text: str) -> tuple[int, ...]:
    if text.strip() in ("", "0"):
        return ()
    try:
        shape = tuple(int(part.strip()) for part in text.split(","))
    except ValueError as exc:
        raise ValueError(f"bad shape {text!r}: {exc}") from None
    check_partition(shape)
    return shape


def random_point(rng, size: int) -> tuple[Fraction, ...]:
    """Distinct positive rationals drawn with rng, a `random.Random`;
    distinctness keeps the determinant backends usable on the same point."""
    seen: list[Fraction] = []
    while len(seen) < size:
        x = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        if x not in seen:
            seen.append(x)
    return tuple(seen)


class Output(namedtuple("Output", "code record header rows lines")):
    """What a handler found, before any formatting: the exit code, the JSON
    record, the CSV header and rows, and the text lines. Only the format asked
    for is consumed: rows and lines may be generators, and the record is a
    zero-argument callable, so what only JSON prints is built only for JSON."""

    __slots__ = ()


_INDENTED_JSON = frozenset({"verify", "equivalence"})


def _cell(value) -> str:
    if isinstance(value, Fraction):
        return frac_str(value)
    return "" if value is None else str(value)


def _emit(args: argparse.Namespace, out: Output) -> int:
    """Write the output in the requested format; the only code that turns a
    result into bytes. Returns the handler's exit code."""
    if args.format == "json":
        import json  # only JSON output needs it, so other runs start without it

        indent = 2 if args.subcommand in _INDENTED_JSON else None
        text = json.dumps(out.record(), default=frac_str, indent=indent) + "\n"
    elif args.format == "csv":
        text = "".join(",".join(map(_cell, row)) + "\n" for row in (out.header, *out.rows))
    else:
        text = "".join(line + "\n" for line in out.lines)
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
        except OSError as exc:  # a usage error, not verify's exit 1
            raise ValueError(f"cannot write {args.out}: {exc.strerror}") from None
    else:
        sys.stdout.write(text)
    return out.code


def _cmd_partitions(args: argparse.Namespace) -> Output:
    max_parts = args.max_parts if args.max_parts is not None else max(args.n, 1)
    check_listing_envelope(args.kind, args.n, max_parts)
    parts = admitted_partitions(args.kind, args.n, max_parts)
    return Output(
        0, lambda: parts, ("partition",),
        (("+".join(map(str, lam)),) for lam in parts),
        (",".join(map(str, lam)) if lam else "-" for lam in parts),
    )


def _cmd_schur(args: argparse.Namespace) -> Output:
    shape = parse_shape(args.shape)
    check_schur_envelope(shape, args.point)
    scale, ys = clear_denominators(args.point)
    # a shape longer than the point has s_lam = 0 there, with no plan
    n = sum(shape)
    tab = Fraction(schur_int_sums(ys, shape, n)[-1] if len(shape) <= len(ys) else 0, scale ** n)
    try:
        alt: Fraction | None = schur_bialternant(shape, args.point)
    except DistinctnessViolation:
        alt = None
    return Output(
        0,
        lambda: {"shape": shape, "point": args.point, "tableau": tab, "bialternant": alt},
        ("backend", "value"),
        [("tableau", tab), ("bialternant", alt)],
        [f"tableau = {frac_str(tab)}",
         "bialternant = " + ("unavailable (repeated coordinates)" if alt is None
                             else frac_str(alt))],
    )


def _cmd_zn(args: argparse.Namespace) -> Output:
    check_digits(f"Z_{args.n}", args.point, args.n)
    value = z_canonical(args.kind, args.point, args.n)
    return Output(
        0,
        lambda: {"kind": kind_name(args.kind), "point": args.point, "n": args.n, "value": value},
        ("n", "value"), [(args.n, value)], [frac_str(value)],
    )


def _cmd_gpf(args: argparse.Namespace) -> Output:
    check_digits(f"the z^{args.nmax} coefficient", args.point, args.nmax)
    coeffs = gpf_definition(args.kind, args.point, args.nmax).coeffs
    return Output(
        0,
        lambda: {"kind": kind_name(args.kind), "point": args.point, "nmax": args.nmax,
                 "coeffs": coeffs},
        ("n", "coeff"), enumerate(coeffs),
        (f"{n}: {frac_str(c)}" for n, c in enumerate(coeffs)),
    )


def _cmd_verify(args: argparse.Namespace) -> Output:
    kinds = [parse_kind(k) for k in VERIFY_ALL_KINDS] if args.all else [args.kind]
    if args.point is not None:
        points = [args.point]
    else:
        import random  # only the drawn second point needs it

        points = [tuple(Fraction(p) for p in (2, 3, 5)), random_point(random.Random(args.seed), 3)]
    for point in points if args.format == "json" else ():  # only JSON prints the series
        check_digits(f"the z^{args.nmax} coefficient", point, args.nmax)
    reports = [verify_identity(kind, point, args.nmax) for kind in kinds for point in points]
    return Output(
        0 if all(r.equal for r in reports) else 1,
        lambda: [{"kind": kind_name(r.kind), "point": r.point, "nmax": r.nmax,
                  "equal": r.equal, "first_mismatch": r.first_mismatch,
                  "lhs": r.lhs.coeffs, "rhs": r.rhs.coeffs} for r in reports],
        ("kind", "point", "nmax", "equal", "first_mismatch"),
        ((kind_name(r.kind), '"{}"'.format(",".join(map(frac_str, r.point))), r.nmax,
          r.equal, r.first_mismatch) for r in reports),
        (f"{kind_name(r.kind)} @ ({', '.join(map(frac_str, r.point))}) nmax={r.nmax}: "
         + ("OK" if r.equal else f"MISMATCH at z^{r.first_mismatch}") for r in reports),
    )


def _cmd_equivalence(args: argparse.Namespace) -> Output:
    if args.qmax > (limit := EQUIVALENCE_MAX_QMAX[args.format]):
        raise ValueError(f"qmax = {args.qmax} is more than {limit} for --format {args.format}")
    report = check_equivalence(args.qmax)
    mismatch = report.first_mismatch
    return Output(
        0 if report.equal else 1,
        lambda: {"qmax": report.qmax, "equal": report.equal, "first_mismatch": mismatch,
                 "bose": gpf_bose_biseries(build_spectrum("eq1", report.qmax)),
                 "evencols": gpf_evencols_biseries(build_spectrum("eq2", report.qmax)),
                 "degeneracy_table": report.degeneracy_table,
                 "factor_audit": report.factor_audit},
        ("level_index", "energy_halfq", "degeneracy"),
        ((m, 2 * m + 3, d) for m, d in report.degeneracy_table),
        [f"qmax = {report.qmax}", f"equal = {report.equal}",
         *([] if mismatch is None else ["first mismatch at a^{} q^{}".format(*mismatch)]),
         "degeneracies: " + ",".join(str(d) for _, d in report.degeneracy_table),
         *(f"q^{t}: bose factor multiplicity {b}, pair count {c}"
           for t, b, c in report.factor_audit)],
    )


def _cmd_thermo(args: argparse.Namespace) -> Output:
    spec = build_spectrum(args.spectrum, args.qmax)
    if args.target_n is not None:
        mu, r = evaluate_at_target(args.kind, spec, args.beta, args.target_n, args.nmax)
    else:
        mu = args.mu
        r = evaluate(args.kind, spec, ThermoParams(args.beta, mu, args.nmax))
    return Output(
        0,
        lambda: {"kind": kind_name(args.kind), "spectrum": args.spectrum, "qmax": args.qmax,
                 "nmax": args.nmax, "beta_hw": args.beta, "mu_over_hw": mu, "logZ": r.logZ,
                 "mean_n": r.mean_n, "mean_e_over_hw": r.mean_e_over_hw},
        ("beta_hw", "mu_over_hw", "meanN", "meanE_over_hw", "logZ"),
        [(args.beta, mu, r.mean_n, r.mean_e_over_hw, r.logZ)],
        [f"mu_over_hw = {mu!r}", f"logZ = {r.logZ!r}", f"meanN = {r.mean_n!r}",
         f"meanE_over_hw = {r.mean_e_over_hw!r}"],
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="schurgas",
        description="Exact partition functions for partition-restricted quantum statistics.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "csv", "text"), default="text")
    common.add_argument("--out", help="write output to this file instead of stdout")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("partitions", parents=[common],
                       help="list admitted partitions of N")
    p.add_argument("n", type=int)
    p.add_argument("--max-parts", type=int)
    p.add_argument("--kind", default="hst")

    p = sub.add_parser("schur", parents=[common],
                       help="evaluate one Schur function with both backends")
    p.add_argument("--shape", required=True)
    p.add_argument("--point", required=True)

    p = sub.add_parser("zn", parents=[common],
                       help="canonical N-particle partition function")
    p.add_argument("--kind", required=True)
    p.add_argument("--point", required=True)
    p.add_argument("--n", type=int, required=True)

    p = sub.add_parser("gpf", parents=[common],
                       help="grand series coefficients from the defining sum")
    p.add_argument("--kind", required=True)
    p.add_argument("--point", required=True)
    p.add_argument("--nmax", type=int, required=True)

    p = sub.add_parser("verify", parents=[common],
                       help="check closed forms against the defining sum")
    which = p.add_mutually_exclusive_group(required=True)
    which.add_argument("--kind")
    which.add_argument("--all", action="store_true")
    p.add_argument("--point")
    p.add_argument("--nmax", type=int, default=6)
    p.add_argument("--seed", type=int, default=0, help="seeds the random second point")

    p = sub.add_parser("equivalence", parents=[common],
                       help="compare the two-spectrum grand series exactly")
    p.add_argument("--qmax", type=int, required=True)

    p = sub.add_parser("thermo", parents=[common],
                       help="numeric logZ, mean N, mean E on a named spectrum")
    p.add_argument("--kind", required=True)
    p.add_argument("--spectrum", choices=("eq1", "eq2"), required=True)
    p.add_argument("--beta", type=float, required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--mu", type=float)
    group.add_argument("--target-n", type=float)
    p.add_argument("--qmax", type=int, default=8)
    p.add_argument("--nmax", type=int, default=24)

    return parser


_HANDLERS = {
    "partitions": _cmd_partitions,
    "schur": _cmd_schur,
    "zn": _cmd_zn,
    "gpf": _cmd_gpf,
    "verify": _cmd_verify,
    "equivalence": _cmd_equivalence,
    "thermo": _cmd_thermo,
}


def run(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        if getattr(args, "kind", None) is not None:
            args.kind = parse_kind(args.kind)
        if getattr(args, "point", None) is not None:
            args.point = parse_point(args.point)
        return _emit(args, _HANDLERS[args.subcommand](args))
    except (UnsupportedKind, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (TruncationTail, BracketFailure, DivisionInconsistency) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()

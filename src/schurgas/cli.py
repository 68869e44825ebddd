"""Command-line front door.

Every computation and verification is a subcommand with machine-readable
output. Exit codes: 0 success or verified, 1 a checked identity was
falsified, 2 usage error, 3 numeric failure (truncation or bracketing).
All randomness is seeded, all arithmetic outside `thermo` exact, so a given
argv always produces byte-identical output. Rationals print as "num/den".
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from fractions import Fraction

from .canonical import z_canonical
from .equivalence import build_spectrum, check_equivalence
from .partitions import check_partition
from .schur import DistinctnessViolation, schur_bialternant, schur_tableau
from .series import (
    DivisionInconsistency,
    frac_str,
    gpf_definition,
    verify_identity,
)
from .statistics import (
    UnsupportedKind,
    admitted_partitions,
    kind_name,
    parse_kind,
)
from .thermo import (
    BracketFailure,
    ThermoParams,
    TruncationTail,
    evaluate,
    solve_mu,
    thermo_csv,
)

VERIFY_ALL_KINDS = ("bose", "fermi", "hst", "even-rows", "even-cols",
                    "parafermi:1", "parafermi:2", "parafermi:3")


def parse_point(text: str) -> tuple[Fraction, ...]:
    try:
        coords = tuple(Fraction(part.strip()) for part in text.split(","))
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"bad point {text!r}: {exc}") from None
    if not coords:
        raise ValueError("point needs at least one coordinate")
    return coords


def parse_shape(text: str) -> tuple[int, ...]:
    if text.strip() in ("", "0"):
        return ()
    try:
        shape = tuple(int(part.strip()) for part in text.split(","))
    except ValueError as exc:
        raise ValueError(f"bad shape {text!r}: {exc}") from None
    check_partition(shape)
    return shape


def random_point(rng: random.Random, size: int) -> tuple[Fraction, ...]:
    """Distinct positive rationals; distinctness keeps the determinant
    backends usable on the same point."""
    seen: list[Fraction] = []
    while len(seen) < size:
        x = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        if x not in seen:
            seen.append(x)
    return tuple(seen)


def _emit(args: argparse.Namespace, text: str) -> None:
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
        except OSError as exc:  # a usage error, not verify's exit 1
            raise ValueError(f"cannot write {args.out}: {exc.strerror}") from None
    else:
        sys.stdout.write(text)


def _partition_label(lam: tuple[int, ...]) -> str:
    return ",".join(str(p) for p in lam) if lam else "-"


def _cmd_partitions(args: argparse.Namespace) -> int:
    max_parts = args.max_parts if args.max_parts is not None else max(args.n, 1)
    parts = admitted_partitions(args.kind, args.n, max_parts)
    if args.format == "json":
        text = json.dumps([list(lam) for lam in parts]) + "\n"
    elif args.format == "csv":
        text = "partition\n" + "".join(
            ("+".join(str(p) for p in lam) if lam else "") + "\n" for lam in parts
        )
    else:
        text = "".join(_partition_label(lam) + "\n" for lam in parts)
    _emit(args, text)
    return 0


def _cmd_schur(args: argparse.Namespace) -> int:
    shape = parse_shape(args.shape)
    tab = schur_tableau(shape, args.point)
    try:
        alt: Fraction | None = schur_bialternant(shape, args.point)
    except DistinctnessViolation:
        alt = None
    if args.format == "json":
        text = json.dumps({
            "shape": list(shape),
            "point": [frac_str(x) for x in args.point],
            "tableau": frac_str(tab),
            "bialternant": frac_str(alt) if alt is not None else None,
        }) + "\n"
    elif args.format == "csv":
        text = "backend,value\ntableau,{}\nbialternant,{}\n".format(
            frac_str(tab), frac_str(alt) if alt is not None else "")
    else:
        text = f"tableau = {frac_str(tab)}\n"
        if alt is None:
            text += "bialternant = unavailable (repeated coordinates)\n"
        else:
            text += f"bialternant = {frac_str(alt)}\n"
    _emit(args, text)
    return 0


def _cmd_zn(args: argparse.Namespace) -> int:
    value = z_canonical(args.kind, args.point, args.n)
    if args.format == "json":
        text = json.dumps({
            "kind": kind_name(args.kind),
            "point": [frac_str(x) for x in args.point],
            "n": args.n,
            "value": frac_str(value),
        }) + "\n"
    elif args.format == "csv":
        text = f"n,value\n{args.n},{frac_str(value)}\n"
    else:
        text = frac_str(value) + "\n"
    _emit(args, text)
    return 0


def _cmd_gpf(args: argparse.Namespace) -> int:
    series = gpf_definition(args.kind, args.point, args.nmax)
    if args.format == "json":
        text = json.dumps({
            "kind": kind_name(args.kind),
            "point": [frac_str(x) for x in args.point],
            "nmax": args.nmax,
            "coeffs": series.json_coeffs(),
        }) + "\n"
    elif args.format == "csv":
        text = "n,coeff\n" + "".join(
            f"{n},{frac_str(c)}\n" for n, c in enumerate(series.coeffs))
    else:
        text = "".join(f"{n}: {frac_str(c)}\n" for n, c in enumerate(series.coeffs))
    _emit(args, text)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    kinds = [parse_kind(k) for k in VERIFY_ALL_KINDS] if args.all else [args.kind]
    if kinds == [None]:
        raise ValueError("verify needs --kind or --all")
    rng = random.Random(args.seed)
    if args.point is not None:
        points = [args.point]
    else:
        points = [tuple(Fraction(p) for p in (2, 3, 5)), random_point(rng, 3)]
    reports = [verify_identity(kind, point, args.nmax) for kind in kinds for point in points]
    if args.format == "json":
        text = json.dumps([r.to_json_dict() for r in reports], indent=2) + "\n"
    elif args.format == "csv":
        text = "kind,point,nmax,equal,first_mismatch\n" + "".join(
            '{},"{}",{},{},{}\n'.format(
                kind_name(r.kind),
                ",".join(frac_str(x) for x in r.point),
                r.nmax,
                r.equal,
                "" if r.first_mismatch is None else r.first_mismatch,
            ) for r in reports)
    else:
        lines = []
        for r in reports:
            where = "OK" if r.equal else f"MISMATCH at z^{r.first_mismatch}"
            pt = ", ".join(frac_str(x) for x in r.point)
            lines.append(f"{kind_name(r.kind)} @ ({pt}) nmax={r.nmax}: {where}\n")
        text = "".join(lines)
    _emit(args, text)
    return 0 if all(r.equal for r in reports) else 1


def _cmd_equivalence(args: argparse.Namespace) -> int:
    report = check_equivalence(args.qmax)
    if args.format == "json":
        text = report.to_json() + "\n"
    elif args.format == "csv":
        text = report.degeneracy_csv()
    else:
        lines = [f"qmax = {report.qmax}\n", f"equal = {report.equal}\n"]
        if report.first_mismatch:
            j, t = report.first_mismatch
            lines.append(f"first mismatch at a^{j} q^{t}\n")
        degs = ",".join(str(d) for _, d in report.degeneracy_table)
        lines.append(f"degeneracies: {degs}\n")
        for t, bose_mult, pair_mult in report.factor_audit:
            lines.append(f"q^{t}: bose factor multiplicity {bose_mult}, pair count {pair_mult}\n")
        text = "".join(lines)
    _emit(args, text)
    return 0 if report.equal else 1


def _cmd_thermo(args: argparse.Namespace) -> int:
    spec = build_spectrum(args.spectrum, args.qmax)
    if args.target_n is not None:
        mu = solve_mu(args.kind, spec, args.beta, args.target_n, args.nmax)
    else:
        mu = args.mu
    params = ThermoParams(args.beta, mu, args.nmax)
    result = evaluate(args.kind, spec, params)
    if args.format == "json":
        text = json.dumps({
            "kind": kind_name(args.kind),
            "spectrum": args.spectrum,
            "qmax": args.qmax,
            "nmax": args.nmax,
            "beta_hw": args.beta,
            "mu_over_hw": mu,
            "logZ": result.logZ,
            "mean_n": result.mean_n,
            "mean_e_over_hw": result.mean_e_over_hw,
        }) + "\n"
    elif args.format == "csv":
        text = thermo_csv([(params, result)])
    else:
        text = (
            f"mu_over_hw = {mu!r}\n"
            f"logZ = {result.logZ!r}\n"
            f"meanN = {result.mean_n!r}\n"
            f"meanE_over_hw = {result.mean_e_over_hw!r}\n"
        )
    _emit(args, text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="schurgas",
        description="Exact partition functions for partition-restricted quantum statistics.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "csv", "text"), default="text")
    common.add_argument("--out", help="write output to this file instead of stdout")
    common.add_argument("--seed", type=int, default=0)
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
    p.add_argument("--kind")
    p.add_argument("--all", action="store_true")
    p.add_argument("--point")
    p.add_argument("--nmax", type=int, default=6)

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
        return _HANDLERS[args.subcommand](args)
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

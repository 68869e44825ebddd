"""Exact partition functions for quantum statistics defined by restrictions
on integer partitions, evaluated through Schur functions.

The top level holds the calls a user starts from; everything else, the
oracles included, is imported from its module (`schurgas.schur`,
`schurgas.partitions`, ...)."""

from .canonical import z_canonical
from .equivalence import build_spectrum, check_equivalence
from .schur import DistinctnessViolation
from .series import DivisionInconsistency, gpf_closed_form, gpf_definition, verify_identity
from .statistics import UnsupportedKind, parse_kind
from .thermo import BracketFailure, ThermoParams, TruncationTail, evaluate, solve_mu

__all__ = [
    "BracketFailure",
    "DistinctnessViolation",
    "DivisionInconsistency",
    "ThermoParams",
    "TruncationTail",
    "UnsupportedKind",
    "build_spectrum",
    "check_equivalence",
    "evaluate",
    "gpf_closed_form",
    "gpf_definition",
    "parse_kind",
    "solve_mu",
    "verify_identity",
    "z_canonical",
]

__version__ = "0.1.0"

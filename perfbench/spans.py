"""Span tracing of the schurgas layers, installed from outside the package.

A layer is one module of `schurgas`. Its public functions are wrapped at
every module attribute that holds them, because `from .x import f` binds
`f` into the importing module at import time: wrapping only the defining
module would miss those callers. Spans (name, start, end, parent, request)
stay in memory and are written out when the run ends.

Hot inner functions get a counting wrapper instead of a span, so that the
tracer does not dominate the time it is measuring.
"""

from __future__ import annotations

import sys
from collections import Counter
from time import perf_counter

# layer -> public functions that get a span each
SPAN_FUNCTIONS = {
    "cli": ("run",),
    "partitions": ("gen_partitions",),
    "statistics": ("admitted_partitions",),
    "schur": ("schur_tableau", "schur_bialternant", "schur_qpoly"),
    "canonical": ("z_canonical", "z_canonical_qpoly"),
    "series": ("gpf_definition", "verify_identity", "gpf_product", "gpf_parafermi_det"),
    "equivalence": ("check_equivalence", "build_spectrum"),
    "thermo": ("evaluate", "solve_mu"),
}
# layer -> functions that are only counted
COUNT_FUNCTIONS = {
    "series": ("series_mul",),
    "qpoly": ("qp_eval_float", "qp_weighted_eval_float"),
}
# span names whose result length is recorded as the span's work
SIZED = frozenset({"gen_partitions", "admitted_partitions"})

PACKAGE = "schurgas"

NAME, START, END, PARENT, REQUEST, WORK = range(6)


class Tracer:
    """Holds the spans and counts of one process. Spans are lists
    [name, start, end, parent index or -1, request id, work]."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.request = -1
        self._stack: list[int] = []

    def span(self, name: str, fn):
        spans, stack = self.spans, self._stack
        sized = name in SIZED

        def wrapper(*args, **kwargs):
            idx = len(spans)
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, self.request, 0]
            spans.append(record)
            stack.append(idx)
            record[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[END] = perf_counter()
                stack.pop()
            if sized:
                record[WORK] = len(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def count(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def write(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("name\tstart\tend\tparent\trequest\twork\n")
            for s in self.spans:
                fh.write("\t".join(str(v) for v in s) + "\n")


def install(tracer: Tracer) -> list[str]:
    """Wrap every traced function at each schurgas module attribute bound to
    it. Returns the names that the package no longer defines; their metrics
    are reported as absent."""
    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
    missing = []
    for kinds, make in ((SPAN_FUNCTIONS, tracer.span), (COUNT_FUNCTIONS, tracer.count)):
        for layer, names in kinds.items():
            home = sys.modules.get(f"{PACKAGE}.{layer}")
            for fname in names:
                fn = getattr(home, fname, None)
                if not callable(fn):
                    missing.append(fname)
                    continue
                wrapped = make(fname, fn)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is fn:
                            setattr(module, attr, wrapped)
    return missing


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of it that its direct children
    cover (children are clipped to the parent and merged where they
    overlap)."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s[PARENT] >= 0:
            children.setdefault(s[PARENT], []).append((s[START], s[END]))
    out = []
    for idx, s in enumerate(spans):
        start, end = s[START], s[END]
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(idx, ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out.append((end - start) - covered)
    return out


LAYER_OF = {fname: layer for layer, names in SPAN_FUNCTIONS.items() for fname in names}

# per-layer metric -> (unit, the traced names it is computed from), in
# report order; a metric is absent when one of its names is missing
METRICS = {
    "cli.self_s": ("s", ("run",)),
    "partitions.generated": ("count", ("gen_partitions",)),
    "partitions.self_s": ("s", ("gen_partitions",)),
    "statistics.admitted": ("count", ("admitted_partitions",)),
    "statistics.admit_ratio": ("ratio", ("admitted_partitions", "gen_partitions")),
    "statistics.self_s": ("s", ("admitted_partitions",)),
    "schur.tableau_calls": ("count", ("schur_tableau",)),
    "schur.tableau_s": ("s", ("schur_tableau",)),
    "schur.qpoly_calls": ("count", ("schur_qpoly",)),
    "schur.qpoly_s": ("s", ("schur_qpoly",)),
    "schur.self_s": ("s", ()),
    "canonical.zq_calls": ("count", ("z_canonical_qpoly",)),
    "canonical.self_s": ("s", ()),
    "series.det_s": ("s", ("gpf_parafermi_det",)),
    "series.product_s": ("s", ("gpf_product",)),
    "series.mul_calls": ("count", ("series_mul",)),
    "series.self_s": ("s", ()),
    "equivalence.calls": ("count", ("check_equivalence",)),
    "equivalence.self_s": ("s", ()),
    "thermo.evaluate_calls": ("count", ("evaluate",)),
    "thermo.evaluate_self_s": ("s", ("evaluate",)),
    "thermo.solve_calls": ("count", ("solve_mu",)),
    "thermo.evals_per_solve": ("count", ("evaluate", "solve_mu")),
    "thermo.cache_hit_ratio": ("ratio", ("evaluate", "z_canonical_qpoly")),
    "thermo.self_s": ("s", ()),
    "qpoly.horner_calls": ("count", ("qp_eval_float", "qp_weighted_eval_float")),
}


def layer_metrics(spans: list[list], counts: Counter, missing=()) -> dict[str, float | None]:
    """Per-layer metrics of one traced run; a metric whose traced function
    is missing from the package is None (absent)."""
    selfs = self_times(spans)
    calls: Counter = Counter()
    self_by_name: Counter = Counter()
    work: Counter = Counter()
    self_by_layer: Counter = Counter()
    for s, own in zip(spans, selfs):
        name = s[NAME]
        calls[name] += 1
        self_by_name[name] += own
        work[name] += s[WORK]
        self_by_layer[LAYER_OF[name]] += own

    evals_in_solve = sum(1 for s in spans
                         if s[NAME] == "evaluate" and s[PARENT] >= 0
                         and spans[s[PARENT]][NAME] == "solve_mu")
    # A timed thermo request hits the cache when none of its evaluate calls
    # had to build the weight polynomials (no z_canonical_qpoly span inside).
    # Set-up requests (id -1) build on purpose and are left out.
    evaluating = {s[REQUEST] for s in spans if s[NAME] == "evaluate" and s[REQUEST] >= 0}
    building = {s[REQUEST] for s in spans if s[NAME] == "z_canonical_qpoly"}
    generated = work["gen_partitions"]

    values = {
        "cli.self_s": self_by_name["run"],
        "partitions.generated": generated,
        "partitions.self_s": self_by_layer["partitions"],
        "statistics.admitted": work["admitted_partitions"],
        "statistics.admit_ratio": work["admitted_partitions"] / generated if generated else 0.0,
        "statistics.self_s": self_by_layer["statistics"],
        "schur.tableau_calls": calls["schur_tableau"],
        "schur.tableau_s": self_by_name["schur_tableau"],
        "schur.qpoly_calls": calls["schur_qpoly"],
        "schur.qpoly_s": self_by_name["schur_qpoly"],
        "schur.self_s": self_by_layer["schur"],
        "canonical.zq_calls": calls["z_canonical_qpoly"],
        "canonical.self_s": self_by_layer["canonical"],
        "series.det_s": self_by_name["gpf_parafermi_det"],
        "series.product_s": self_by_name["gpf_product"],
        "series.mul_calls": counts["series_mul"],
        "series.self_s": self_by_layer["series"],
        "equivalence.calls": calls["check_equivalence"],
        "equivalence.self_s": self_by_layer["equivalence"],
        "thermo.evaluate_calls": calls["evaluate"],
        "thermo.evaluate_self_s": self_by_name["evaluate"],
        "thermo.solve_calls": calls["solve_mu"],
        "thermo.evals_per_solve": evals_in_solve / calls["solve_mu"] if calls["solve_mu"] else 0.0,
        "thermo.cache_hit_ratio": (len(evaluating - building) / len(evaluating)
                                   if evaluating else 0.0),
        "thermo.self_s": self_by_layer["thermo"],
        "qpoly.horner_calls": counts["qp_eval_float"] + counts["qp_weighted_eval_float"],
    }
    gone = set(missing)
    return {name: None if gone.intersection(sources) else values[name]
            for name, (_, sources) in METRICS.items()}

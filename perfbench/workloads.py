"""Seeded request streams for the three benchmark workloads.

A request is the argv list of one `schurgas` CLI call. A stream is an
endless sequence of rounds; every round of a workload holds the same mix
of request templates, so a run's throughput does not depend on which
rounds it happened to reach. The seed picks the free values (points,
shapes, inverse temperatures, targets) and the order; the program sees only
the generated argv.

Every value a thermo request can take comes from a grid that was run once
against the package before being written down here: at small nmax the
permissive kinds exit 3 ("beyond the truncation-feasible region") unless
the target is small, and large sizes take minutes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator

Argv = list[str]
Round = list[Argv]

# ---------------------------------------------------------------------------
# exact: Fraction-valued defining sums, closed forms and the equivalence.

# (subcommand, kind, M coordinates, nmax or n)
EXACT_TEMPLATES = (
    ("gpf", "bose", 5, 8),
    ("gpf", "fermi", 5, 8),
    ("gpf", "hst", 4, 7),
    ("gpf", "even-rows", 5, 7),
    ("gpf", "even-cols", 5, 8),
    ("gpf", "parafermi:2", 4, 8),
    ("gpf", "parafermi:3", 5, 6),
    ("gpf", "parabose:2", 4, 8),
    ("gpf", "parabose:3", 4, 6),
    ("gpf", "pq:2:3", 5, 8),
    ("zn", "bose", 4, 7),
    ("zn", "fermi", 5, 4),
    ("zn", "hst", 4, 7),
    ("zn", "even-rows", 5, 8),
    ("zn", "even-cols", 5, 8),
    ("zn", "parafermi:2", 5, 7),
    ("zn", "parafermi:3", 4, 8),
    ("zn", "parabose:2", 4, 8),
    ("zn", "parabose:3", 3, 8),
    ("zn", "pq:2:3", 4, 6),
    ("verify", "bose", 4, 8),
    ("verify", "fermi", 5, 8),
    ("verify", "hst", 5, 6),
    ("verify", "even-rows", 4, 8),
    ("verify", "even-cols", 5, 7),
    ("verify", "parafermi:2", 3, 8),
    ("verify", "parafermi:2", 5, 5),
    ("verify", "parafermi:3", 5, 6),
)
SCHUR_SHAPES = ((3, 2, 1), (4, 2), (2, 2, 1, 1), (5, 3, 1), (3, 3))
EXACT_POINT_SIZES = (3, 4, 5)
EQUIVALENCE_QMAX = (20, 40)  # inclusive range
EQUIVALENCE_PER_ROUND = 3


def random_point(rng: random.Random, size: int) -> tuple[Fraction, ...]:
    """Distinct positive rationals. Distinct as rationals, not as strings:
    2/6 and 1/3 are the same coordinate, and a repeated coordinate makes the
    determinant backends refuse the point."""
    seen: list[Fraction] = []
    while len(seen) < size:
        x = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        if x not in seen:
            seen.append(x)
    return tuple(seen)


def point_arg(point) -> str:
    return ",".join(f"{x.numerator}/{x.denominator}" for x in point)


def exact_rounds(seed: int) -> Iterator[Round]:
    rng = random.Random(f"exact:{seed}")
    while True:
        batch: Round = []
        for sub, kind, m, size in EXACT_TEMPLATES:
            flag = "--n" if sub == "zn" else "--nmax"
            batch.append([sub, "--kind", kind, "--point", point_arg(random_point(rng, m)),
                          flag, str(size)])
        for shape in SCHUR_SHAPES:
            m = max(len(shape), rng.choice(EXACT_POINT_SIZES))
            batch.append(["schur", "--shape", ",".join(map(str, shape)),
                          "--point", point_arg(random_point(rng, m))])
        for _ in range(EQUIVALENCE_PER_ROUND):
            batch.append(["equivalence", "--qmax", str(rng.randint(*EQUIVALENCE_QMAX))])
        rng.shuffle(batch)
        yield batch


# ---------------------------------------------------------------------------
# thermo-cold: every request builds its weight polynomials.

# Classes of (kind, spectrum, qmax, nmax) keys of similar cold cost,
# cheapest first; each round takes one key from every class. Restrictive
# kinds run at large nmax, permissive ones at small qmax and nmax.
def _keys(kind, *triples):
    return tuple((kind, spectrum, qmax, nmax) for spectrum, qmax, nmax in triples)


COLD_CLASSES = (
    ("restrictive", _keys(
        "fermi", ("eq2", 6, 38), ("eq2", 7, 34), ("eq1", 5, 32), ("eq2", 6, 40), ("eq2", 8, 34),
        ("eq2", 7, 36), ("eq2", 8, 32), ("eq1", 5, 34), ("eq2", 7, 38), ("eq1", 5, 36))),
    ("restrictive", _keys(
        "parafermi:2", ("eq1", 4, 40), ("eq2", 6, 36), ("eq2", 7, 24), ("eq2", 8, 24),
        ("eq2", 7, 28), ("eq2", 6, 40), ("eq1", 5, 24), ("eq2", 8, 28), ("eq1", 5, 28),
        ("eq2", 7, 32))),
    ("restrictive", _keys(
        "parafermi:3", ("eq2", 4, 28), ("eq2", 4, 32), ("eq1", 4, 24), ("eq1", 4, 28),
        ("eq2", 4, 36), ("eq1", 4, 32), ("eq1", 4, 36), ("eq2", 5, 24), ("eq2", 5, 28),
        ("eq2", 5, 32))),
    ("permissive", _keys(
        "parabose:2", ("eq1", 3, 13), ("eq2", 3, 14), ("eq2", 4, 13), ("eq2", 5, 12),
        ("eq1", 4, 12), ("eq1", 3, 14), ("eq2", 3, 15), ("eq2", 4, 14), ("eq1", 4, 13),
        ("eq1", 3, 15))),
    ("permissive", _keys(
        "parabose:3", ("eq2", 2, 12), ("eq2", 2, 13), ("eq2", 2, 14), ("eq2", 3, 12),
        ("eq2", 2, 15), ("eq1", 3, 12), ("eq2", 2, 16), ("eq2", 3, 13), ("eq2", 2, 17),
        ("eq1", 3, 13))),
    ("permissive", _keys(
        "hst", ("eq1", 2, 16), ("eq2", 2, 12), ("eq2", 2, 13), ("eq2", 2, 14), ("eq2", 2, 15),
        ("eq2", 3, 12), ("eq1", 3, 12), ("eq2", 2, 16), ("eq2", 2, 18), ("eq2", 2, 17))),
    ("permissive", _keys(
        "even-rows", ("eq2", 3, 15), ("eq1", 3, 15), ("eq2", 3, 17), ("eq2", 3, 16),
        ("eq1", 3, 17), ("eq1", 3, 16), ("eq2", 4, 15), ("eq1", 4, 15), ("eq2", 3, 18),
        ("eq1", 3, 18))),
    ("permissive", _keys(
        "even-cols", ("eq2", 4, 16), ("eq2", 4, 17), ("eq1", 4, 15), ("eq2", 5, 15),
        ("eq2", 4, 18), ("eq1", 4, 16), ("eq1", 4, 17), ("eq2", 5, 17), ("eq2", 5, 16),
        ("eq1", 4, 18))),
    ("permissive",
     _keys("pq:2:3", ("eq2", 5, 8))
     + _keys("pq:3:3", ("eq1", 5, 9), ("eq1", 5, 11))
     + _keys("pq:4:4", ("eq1", 3, 16), ("eq2", 3, 16), ("eq2", 4, 17), ("eq2", 4, 16),
             ("eq1", 4, 17), ("eq1", 4, 16), ("eq2", 5, 16))),
)
COLD_BETAS = ("1.0", "1.25", "1.5")
COLD_TARGETS = {"restrictive": ("1.0", "1.5", "2.0"), "permissive": ("0.1", "0.15", "0.2")}
COLD_PASS = 10  # rounds in one pass over every key; keys are distinct within a pass


def thermo_argv(kind, spectrum, qmax, nmax, beta, *, target=None, mu=None) -> Argv:
    argv = ["thermo", "--kind", kind, "--spectrum", spectrum, "--beta", beta,
            "--qmax", str(qmax), "--nmax", str(nmax)]
    return argv + (["--target-n", target] if target is not None else [f"--mu={mu}"])


def cold_rounds(seed: int) -> Iterator[Round]:
    """Round r of a pass gives class c its key of cost rank (r + 3c) mod 10,
    so every round mixes cheap and dear keys and no key repeats within a
    pass. The seed orders the rounds and the requests and picks beta and
    the target."""
    rng = random.Random(f"thermo-cold:{seed}")
    while True:
        order = list(range(COLD_PASS))
        rng.shuffle(order)
        for r in order:
            batch: Round = []
            for c, (regime, keys) in enumerate(COLD_CLASSES):
                batch.append(thermo_argv(*keys[(r + 3 * c) % COLD_PASS], rng.choice(COLD_BETAS),
                                         target=rng.choice(COLD_TARGETS[regime])))
            rng.shuffle(batch)
            yield batch


# ---------------------------------------------------------------------------
# thermo-warm: a small working set of keys, built during setup.

# (kind, spectrum, qmax, nmax, targets)
WARM_KEYS = (
    ("fermi", "eq2", 8, 40, ("0.5", "1.0", "2.0", "3.0", "4.0")),
    ("bose", "eq1", 4, 16, ("0.1", "0.15", "0.2", "0.3", "0.4")),
    ("parafermi:2", "eq2", 6, 32, ("0.5", "1.0", "2.0", "3.0", "4.0")),
    ("parabose:2", "eq2", 4, 16, ("0.1", "0.15", "0.2", "0.25", "0.3")),
    ("hst", "eq2", 3, 12, ("0.05", "0.1", "0.15", "0.2", "0.25")),
    ("even-rows", "eq1", 3, 16, ("0.05", "0.1", "0.125", "0.15", "0.2")),
)
WARM_BETAS = ("0.8", "1.0", "1.2", "1.4", "1.6")
TARGET_REQUESTS_PER_KEY = 3
# --mu requests only for the kinds whose grand sum is a closed product, so
# the checker can recompute mean N independently. mu = e0 - delta / beta,
# e0 being the lowest single-particle energy.
MU_DELTAS = {"fermi": ("-3.0", "-1.5", "0.0", "1.5", "3.0"), "bose": ("1.5", "2.0", "2.5", "3.0")}
MU_REQUESTS_PER_KEY = 2
LOWEST_ENERGY = {"eq1": 1.5, "eq2": 0.5}


def warm_builds() -> list[Argv]:
    """One request per key, so the weight polynomials are cached before the
    clock starts."""
    return [thermo_argv(kind, spectrum, qmax, nmax, "1.0", target=targets[0])
            for kind, spectrum, qmax, nmax, targets in WARM_KEYS]


def warm_rounds(seed: int) -> Iterator[Round]:
    rng = random.Random(f"thermo-warm:{seed}")
    while True:
        batch: Round = []
        for kind, spectrum, qmax, nmax, targets in WARM_KEYS:
            for _ in range(TARGET_REQUESTS_PER_KEY):
                batch.append(thermo_argv(kind, spectrum, qmax, nmax, rng.choice(WARM_BETAS),
                                         target=rng.choice(targets)))
            for _ in range(MU_REQUESTS_PER_KEY if kind in MU_DELTAS else 0):
                beta = rng.choice(WARM_BETAS)
                mu = LOWEST_ENERGY[spectrum] - float(rng.choice(MU_DELTAS[kind])) / float(beta)
                batch.append(thermo_argv(kind, spectrum, qmax, nmax, beta, mu=repr(mu)))
        rng.shuffle(batch)
        yield batch


# ---------------------------------------------------------------------------

# Small requests run by every workload before the clock starts. Between them
# they reach every traced layer, so a traced run reports no layer as
# exactly zero; the thermo key is in no workload's stream.
COMMON_WARMUP = (
    ["schur", "--shape", "2,1", "--point", "1/2,2/3"],
    ["verify", "--kind", "hst", "--point", "1/2,2/3", "--nmax", "3"],
    ["verify", "--kind", "parafermi:2", "--point", "1/2,2/3", "--nmax", "3"],
    ["equivalence", "--qmax", "4"],
    thermo_argv("bose", "eq2", 2, 12, "1.0", target="0.25"),
)


@dataclass(frozen=True)
class Workload:
    name: str
    rounds: Callable[[int], Iterator[Round]]
    warmup: tuple[Argv, ...]
    # rounds per pass over a key pool whose caches must be cleared before
    # the pool repeats; None when requests may share cached work
    pass_rounds: int | None
    trace_rounds: int  # rounds in a traced run; fixed so counts repeat


WORKLOADS = {
    w.name: w for w in (
        Workload(
            "exact",
            exact_rounds,
            warmup=COMMON_WARMUP,
            pass_rounds=None,
            trace_rounds=6,
        ),
        Workload(
            "thermo-cold",
            cold_rounds,
            warmup=COMMON_WARMUP,
            pass_rounds=COLD_PASS,
            trace_rounds=COLD_PASS + 2,
        ),
        Workload(
            "thermo-warm",
            warm_rounds,
            warmup=COMMON_WARMUP + tuple(warm_builds()),
            pass_rounds=None,
            trace_rounds=10,
        ),
    )
}

"""The benchmark's byte-identity gates, run as tests.

perfbench/worker.py hashes the argv and stdout of the first 100 requests of
an `exact` run; on seed 1 that digest is pinned below. These tests load
perfbench/workloads.py (without changing it): one replays the same requests
through `cli.run` and recomputes the digest, so any change to an exact
output fails here and not only in a benchmark run; the other hashes the
weight polynomials of every thermo key that builds on the Schur engine.
"""

import contextlib
import hashlib
import importlib.util
import io
import sys
from itertools import chain, islice
from pathlib import Path

import pytest

from schurgas import cli
from schurgas.equivalence import build_spectrum
from schurgas.statistics import parse_kind
from schurgas.thermo import _weight_polys

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
DIGEST_REQUESTS = 100  # as in perfbench/worker.py
EXACT_SEED_1_DIGEST = "ccaee7304d15c9bf17342ff298962706c0806ef80a2457260b6d03f216572856"
ENGINE_KEYS_DIGEST = "6fbe4511add78454f2cbb3b88bb1e02560bf863d3025579dc0357a226c6ee568"
ENGINE_KEYS = 57


@pytest.fixture
def workloads(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    # its dataclass looks its own module up by name while the class is built
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_exact_outputs_match_the_benchmark_digest(workloads):
    digest = hashlib.sha256()
    for argv in islice(chain.from_iterable(workloads.exact_rounds(1)), DIGEST_REQUESTS):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.run(argv) == 0, argv
        digest.update(("\0".join(argv) + "\n" + out.getvalue()).encode())
    assert digest.hexdigest() == EXACT_SEED_1_DIGEST


def test_engine_weight_polys_match_the_benchmark_digest(workloads):
    # Every cold key, then every warm key's (kind, spectrum, qmax, nmax), less
    # those thermo evaluates by power sums: the positive-factor kinds, and
    # parabose:p on at most p levels, which is hst there.
    digest, hashed = hashlib.sha256(), 0
    keys = chain((key for _, keys in workloads.COLD_CLASSES for key in keys),
                 (key[:4] for key in workloads.WARM_KEYS))
    for key in keys:
        kind, family, qmax, nmax = key
        kind, exps = parse_kind(kind), build_spectrum(family, qmax).qpoly_exponents()
        if kind.family in ("bose", "hst", "even-rows", "even-cols") or (
                kind.family == "parabose" and kind.p >= len(exps)):
            continue
        hashed += 1
        digest.update((repr(key) + repr(_weight_polys(kind, exps, nmax)) + "\n").encode())
    assert (hashed, digest.hexdigest()) == (ENGINE_KEYS, ENGINE_KEYS_DIGEST)

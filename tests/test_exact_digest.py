"""The `exact` benchmark's byte-identity gate, run as a test.

perfbench/worker.py hashes the argv and stdout of the first 100 requests of
an `exact` run; on seed 1 that digest is pinned below. This test loads
perfbench/workloads.py (without changing it), replays the same requests
through `cli.run` and recomputes the digest, so any change to an exact
output fails here and not only in a benchmark run.
"""

import contextlib
import hashlib
import importlib.util
import io
import sys
from itertools import chain, islice
from pathlib import Path

from schurgas import cli

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
DIGEST_REQUESTS = 100  # as in perfbench/worker.py
EXACT_SEED_1_DIGEST = "ccaee7304d15c9bf17342ff298962706c0806ef80a2457260b6d03f216572856"


def test_exact_outputs_match_the_benchmark_digest(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    # its dataclass looks its own module up by name while the class is built
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    digest = hashlib.sha256()
    for argv in islice(chain.from_iterable(workloads.exact_rounds(1)), DIGEST_REQUESTS):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.run(argv) == 0, argv
        digest.update(("\0".join(argv) + "\n" + out.getvalue()).encode())
    assert digest.hexdigest() == EXACT_SEED_1_DIGEST

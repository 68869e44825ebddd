"""One workload run in a fresh interpreter: set up, run the closed request
loop, check every output, print one JSON line of raw measurements.

Started by run.py with `src` on PYTHONPATH; not meant to be run by hand.
Requests go in-process through `schurgas.cli.run(argv)` with stdout and
stderr captured, one at a time: the next request is sent only after the
previous one returned.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import sys
import time
import traceback

from schurgas import cli

from checks import check
from spans import Tracer, install, layer_metrics
from workloads import WORKLOADS

MIN_REQUESTS = 100  # so that p90 has at least ten samples beyond it
DIGEST_REQUESTS = 100  # exact outputs hashed, for byte identity across commits
FAILURES_SHOWN = 5


def call(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run(argv)
    except Exception:  # a crash is a failed request, not a failed benchmark
        return -1, out.getvalue(), traceback.format_exc()
    return code, out.getvalue(), err.getvalue()


def clear_package_caches() -> None:
    """Empty every function cache of the package, as a fresh CLI process
    would have them."""
    for name, module in list(sys.modules.items()):
        if name == "schurgas" or name.startswith("schurgas."):
            for value in list(vars(module).values()):
                clear = getattr(value, "cache_clear", None)
                if callable(clear):
                    clear()


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--rounds", type=int, help="run exactly this many rounds")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", help="write the trace's spans to this file")
    args = parser.parse_args()

    workload = WORKLOADS[args.workload]
    stream = workload.rounds(args.seed)
    # A traced run also traces set-up; its spans carry request id -1.
    tracer = Tracer() if args.trace else None
    missing = install(tracer) if tracer else []
    for argv in workload.warmup:
        code, _, err = call(argv)
        if code != 0:
            print(f"warm-up request {argv} failed with exit {code}: {err}", file=sys.stderr)
            return 1
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    results: list[tuple[list[str], int, str, str]] = []
    latencies: list[float] = []
    rounds = 0
    start = time.perf_counter()
    deadline = start + args.seconds
    for batch in stream:
        if workload.pass_rounds and rounds and rounds % workload.pass_rounds == 0:
            clear_package_caches()
        for argv in batch:
            if tracer:
                tracer.request = len(results)
            t0 = time.perf_counter()
            code, out, err = call(argv)
            latencies.append(time.perf_counter() - t0)
            results.append((argv, code, out, err))
        rounds += 1
        if args.rounds is not None:
            if rounds == args.rounds:
                break
        elif time.perf_counter() >= deadline and len(results) >= MIN_REQUESTS:
            break
    elapsed = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    layers = None
    if tracer:
        layers = layer_metrics(tracer.spans, tracer.counts, missing)
        if args.spans:
            tracer.write(args.spans)

    failures = []
    for argv, code, out, err in results:
        reason = check(argv, code, out, err)
        if reason:
            failures.append(f"{' '.join(argv)}: {reason}")
    digest = None
    if args.workload == "exact":
        h = hashlib.sha256()
        for argv, _, out, _ in results[:DIGEST_REQUESTS]:
            h.update(("\0".join(argv) + "\n" + out).encode())
        digest = h.hexdigest()

    print(json.dumps({
        "ready": ready,
        "attempted": len(results),
        "failed": len(failures),
        "failures": failures[:FAILURES_SHOWN],
        "elapsed_s": elapsed,
        "rounds": rounds,
        "latencies_ms": [t * 1000 for t in latencies],
        "peak_rss_mb": peak_rss_mb,
        "digest": digest,
        "digest_requests": min(DIGEST_REQUESTS, len(results)),
        "layers": layers,
        "missing": missing,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""schurgas benchmark: timed CLI request workloads with output checks.

    python3 perfbench/run.py --workload exact --seed 1 --seconds 25 --trace 0

Run from the root of a checkout. Each workload run is a fresh interpreter
(perfbench/worker.py) with `src` on PYTHONPATH, so no cache carries over
between workloads. One client sends requests in a closed loop.

--trace 0 prints the end-to-end metrics: throughput_rps (requests completed
per second of the timed run), p50_ms and p90_ms (request latency over the
run), setup_s (interpreter start to first timed request, median of
SETUP_SAMPLES fresh interpreters) and peak_rss_mb. --trace 1 runs a fixed
number of rounds twice, untraced and traced, and prints the per-layer
metrics of the traced run plus trace.overhead_ratio (traced over untraced
wall time).
The last line of output is one JSON object; `--workload all` runs every
workload and prefixes the metric names with the workload's.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKER = HERE / "worker.py"

sys.path.insert(0, str(HERE))
from spans import METRICS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_SAMPLES = 5
RUN_BUDGET_S = 170  # a single-workload invocation must end within 180 s

END_TO_END = {
    "throughput_rps": "1/s",
    "p50_ms": "ms",
    "p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class BenchError(RuntimeError):
    pass


def spawn(workload: str, seed: int, deadline: float, *extra: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    env["PYTHONHASHSEED"] = "0"
    cmd = [sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed), *extra]
    started = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - started))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"{workload} worker passed the time budget") from None
    if proc.returncode != 0 or not out.strip():
        raise BenchError(f"{workload} worker exited {proc.returncode}:\n{err.strip()[-3000:]}")
    result = json.loads(out.strip().splitlines()[-1])
    result["setup_s"] = result["ready"] - started
    return result


def measure(workload: str, seed: int, seconds: float, deadline: float) -> tuple[dict, list[str]]:
    """End-to-end metrics of one workload run, and lines for a reader."""
    # Set-up samples are taken before and after the timed run, so that they
    # do not all land in one period of contention from other tenants.
    def setup_s() -> float:
        return spawn(workload, seed, deadline, "--setup-only")["setup_s"]

    setups = [setup_s() for _ in range(SETUP_SAMPLES // 2)]
    run = spawn(workload, seed, deadline, "--seconds", str(seconds))
    setups += [run["setup_s"]] + [setup_s() for _ in range(SETUP_SAMPLES - 1 - len(setups))]
    lat = run["latencies_ms"]
    values = {
        "throughput_rps": run["attempted"] / run["elapsed_s"],
        "p50_ms": statistics.median(lat),
        "p90_ms": statistics.quantiles(lat, n=10)[8],
        "setup_s": statistics.median(setups),
        "peak_rss_mb": run["peak_rss_mb"],
    }
    beyond = sum(1 for t in lat if t > values["p90_ms"])
    error_rate = run["failed"] / run["attempted"]
    lines = [
        f"{workload} seed {seed}: {run['attempted']} requests in {run['rounds']} rounds "
        f"over {run['elapsed_s']:.2f} s; {run['failed']} failed",
        *(f"  {name} = {values[name]:.6g} {unit}" for name, unit in END_TO_END.items()),
        f"  error_rate = {error_rate:.6g} (failed / attempted)",
        f"  latency samples = {len(lat)}, {beyond} beyond p90",
        *(f"  FAILED {reason}" for reason in run["failures"]),
    ]
    if run["digest"]:
        lines.append(f"  sha256 of the first {run['digest_requests']} outputs = {run['digest']}")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    return {"attempted": run["attempted"], "failed": run["failed"], "metrics": metrics}, lines


def measure_layers(workload: str, seed: int, deadline: float) -> tuple[dict, list[str]]:
    """Per-layer metrics of a fixed number of rounds, run untraced and traced."""
    rounds = str(WORKLOADS[workload].trace_rounds)
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{workload}-{seed}.tsv"
    plain = spawn(workload, seed, deadline, "--rounds", rounds)
    traced = spawn(workload, seed, deadline, "--rounds", rounds, "--trace",
                   "--spans", str(spans_path))
    values = dict(traced["layers"])
    values["trace.overhead_ratio"] = traced["elapsed_s"] / plain["elapsed_s"]
    units = {name: unit for name, (unit, _) in METRICS.items()}
    units["trace.overhead_ratio"] = "ratio"
    attempted = plain["attempted"] + traced["attempted"]
    failed = plain["failed"] + traced["failed"]
    lines = [
        f"{workload} seed {seed}: traced {traced['attempted']} requests in {rounds} rounds; "
        f"{failed} failed; untraced {plain['attempted'] / plain['elapsed_s']:.4g} req/s, "
        f"traced {traced['attempted'] / traced['elapsed_s']:.4g} req/s; spans in {spans_path}",
        *(f"  {name} = {'absent' if v is None else f'{v:.6g}'} {units[name]}"
          for name, v in values.items()),
        *(f"  FAILED {reason}" for reason in plain["failures"] + traced["failures"]),
    ]
    metrics = {name: {"value": v, "unit": units[name]} for name, v in values.items()}
    return {"attempted": attempted, "failed": failed, "metrics": metrics}, lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "schurgas" / "__init__.py").is_file():
        print(f"no schurgas package under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    if not 0 < args.seconds <= 60:
        print("--seconds must be in (0, 60]", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        deadline = time.monotonic() + RUN_BUDGET_S
        try:
            if args.trace:
                result, lines = measure_layers(name, args.seed, deadline)
            else:
                result, lines = measure(name, args.seed, args.seconds, deadline)
        except BenchError as exc:
            print(f"benchmark failed: {exc}", file=sys.stderr)
            return 1
        print("\n".join(lines), flush=True)
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        prefix = f"{name}." if args.workload == "all" else ""
        total["metrics"].update({prefix + k: v for k, v in result["metrics"].items()})
    total["correct"] = total["failed"] == 0
    print(json.dumps(total))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Tests of the benchmark itself. From the repository root:

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import itertools
import json
import random
import shutil
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

import run
import spans
import workloads
from checks import check, options
from worker import call

ROOT = Path(__file__).resolve().parents[2]


def first_rounds(name: str, seed: int, count: int):
    return list(itertools.islice(workloads.WORKLOADS[name].rounds(seed), count))


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_stream_is_deterministic_per_seed(name):
    assert first_rounds(name, 7, 3) == first_rounds(name, 7, 3)
    assert first_rounds(name, 7, 3) != first_rounds(name, 8, 3)


def test_points_are_distinct_positive_rationals():
    rng = random.Random(0)
    for _ in range(2000):
        point = workloads.random_point(rng, 5)
        assert len(set(point)) == 5 and min(point) > 0


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_every_round_has_the_same_mix(name):
    def mix(batch):
        return Counter((argv[0], options(argv).get("kind", "").split(":")[0]) for argv in batch)

    rounds = first_rounds(name, 5, 12)
    assert all(mix(batch) == mix(rounds[0]) for batch in rounds)


def test_cold_keys_are_distinct_within_a_pass():
    batches = first_rounds("thermo-cold", 3, workloads.COLD_PASS)
    keys = [tuple(options(argv)[k] for k in ("kind", "spectrum", "qmax", "nmax"))
            for batch in batches for argv in batch]
    assert len(keys) == len(set(keys)) == sum(len(k) for _, k in workloads.COLD_CLASSES)


@pytest.mark.parametrize("name,count", [
    ("exact", 2), ("thermo-cold", workloads.COLD_PASS), ("thermo-warm", 2)])
def test_generated_requests_pass(name, count):
    for argv in workloads.WORKLOADS[name].warmup:
        assert call(argv)[0] == 0
    for batch in first_rounds(name, 0, count):
        for argv in batch:
            assert check(argv, *call(argv)) is None, argv


def test_checks_reject_wrong_outputs():
    argv = ["gpf", "--kind", "parabose:2", "--point", "1/2,2/3,3", "--nmax", "3"]
    code, out, err = call(argv)
    assert check(argv, code, out, err) is None
    assert check(argv, code, out.replace("3: ", "3: 1+"), err) is not None
    assert check(argv, 2, out, "error") is not None
    argv = workloads.thermo_argv("fermi", "eq2", 4, 8, "1.0", mu="0.25")
    code, out, err = call(argv)
    assert check(argv, code, out, err) is None
    assert check(workloads.thermo_argv("fermi", "eq2", 4, 8, "1.0", mu="0.3"),
                 code, out, err) is not None
    argv = workloads.thermo_argv("fermi", "eq2", 4, 8, "1.0", target="1.5")
    code, out, err = call(argv)
    assert check(argv, code, out, err) is None
    assert check(workloads.thermo_argv("fermi", "eq2", 4, 8, "1.0", target="1.6"),
                 code, out, err) is not None


def span(name, start, end, parent=-1, request=0, work=0):
    return [name, start, end, parent, request, work]


def test_self_time_subtracts_the_union_of_children():
    tree = [
        span("run", 0.0, 10.0),
        span("evaluate", 1.0, 4.0, parent=0),
        span("solve_mu", 3.0, 6.0, parent=0),   # overlaps its sibling by 1
        span("z_canonical_qpoly", 2.0, 3.0, parent=1),
        span("evaluate", 9.0, 12.0, parent=0),  # clipped to the parent's end
    ]
    assert spans.self_times(tree) == pytest.approx([4.0, 2.0, 3.0, 1.0, 3.0])


def test_layer_metrics_on_a_synthetic_trace():
    tree = [
        span("run", 0.0, 10.0, request=0),
        span("evaluate", 1.0, 9.0, parent=0, request=0),
        span("z_canonical_qpoly", 2.0, 8.0, parent=1, request=0),
        span("admitted_partitions", 3.0, 7.0, parent=2, request=0, work=5),
        span("gen_partitions", 4.0, 6.0, parent=3, request=0, work=20),
        span("run", 10.0, 20.0, request=1),
        span("solve_mu", 11.0, 17.0, parent=5, request=1),
        span("evaluate", 12.0, 14.0, parent=6, request=1),
        span("evaluate", 14.0, 16.0, parent=6, request=1),
        span("evaluate", 17.0, 19.0, parent=5, request=1),
    ]
    m = spans.layer_metrics(tree, Counter({"qp_eval_float": 7, "qp_weighted_eval_float": 3}))
    assert m["thermo.cache_hit_ratio"] == 0.5
    assert m["thermo.evals_per_solve"] == 2
    assert m["thermo.evaluate_calls"] == 4
    assert m["thermo.evaluate_self_s"] == pytest.approx(2.0 + 2 + 2 + 2)
    assert m["thermo.self_s"] == pytest.approx(8.0 + 2)
    assert m["cli.self_s"] == pytest.approx(2.0 + 2)
    assert m["canonical.zq_calls"] == 1 and m["canonical.self_s"] == pytest.approx(2.0)
    assert m["statistics.admit_ratio"] == 0.25
    assert m["partitions.self_s"] == pytest.approx(2.0)
    assert m["qpoly.horner_calls"] == 10
    absent = spans.layer_metrics(tree, Counter(), missing=["schur_qpoly"])
    assert absent["schur.qpoly_calls"] is None and absent["schur.qpoly_s"] is None
    assert absent["thermo.evaluate_calls"] == 4


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_counts_repeat_across_traced_runs(name):
    def counts():
        deadline = time.monotonic() + 120
        layers = run.spawn(name, 11, deadline, "--rounds", "1", "--trace")["layers"]
        return {k: v for k, v in layers.items()
                if spans.METRICS[k][0] in ("count", "ratio")}

    first = counts()
    assert first == counts()
    assert any(first.values())


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        **{name: unit for name, (unit, _) in spans.METRICS.items()},
        "trace.overhead_ratio": "ratio"}


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "exact", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

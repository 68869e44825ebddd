"""Every script in demos/ runs standalone: exit 0 and the stdout recorded in
`demo_golden.json`, byte for byte.

Run as a script,

    PYTHONPATH=src python tests/test_demos.py

it lists the demos whose stdout differs from the recording and exits 1 if
any does. To record them again (only when an output is meant to change),
add `--record`.
"""

import functools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
GOLDEN = Path(__file__).with_name("demo_golden.json")


@functools.cache
def run_demo(script: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, str(script)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=60)


def test_demos_found():
    # an empty glob would leave the parametrized tests below with no cases
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_runs(script):
    proc = run_demo(script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_output_is_byte_identical(script):
    assert run_demo(script).stdout == json.loads(GOLDEN.read_text())[script.name]


def main(args: list[str]) -> int:
    if args not in ([], ["--record"]):
        print(f"usage: {Path(__file__).name} [--record]", file=sys.stderr)
        return 2
    fresh = {script.name: run_demo(script).stdout for script in DEMOS}
    if args:
        GOLDEN.write_text(json.dumps(fresh, indent=1) + "\n")
        return 0
    recorded = json.loads(GOLDEN.read_text())
    differing = [name for name, out in fresh.items() if recorded.get(name) != out]
    for name in differing:
        print(f"differs: {name}")
    print(f"{len(differing)} of {len(fresh)} demos differ")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

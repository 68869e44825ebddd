"""What a fresh `schurgas` process imports.

A CLI run is a new interpreter, so every module the package imports is
paid on each run. These tests start Python with -S (no `site`, whose `.pth`
files may preload modules of their own) and the package on PYTHONPATH, so
they see what the package itself loads.
"""

import contextlib
import io
import os
import subprocess
import sys
from pathlib import Path

from schurgas import cli

SRC = Path(__file__).resolve().parent.parent / "src"
# Not needed by `import schurgas.cli`: `dataclasses` (with `inspect`) and
# `typing` by no module, `json` only by JSON output, `random` only by a drawn
# verify point.
UNLOADED = ("dataclasses", "inspect", "typing", "json", "random")


def fresh_python(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, "-S", *args], env=env, capture_output=True,
                          text=True, timeout=60)


def test_import_loads_none_of_the_deferred_modules():
    probe = f"import schurgas.cli, sys; print(*[m for m in {UNLOADED!r} if m in sys.modules])"
    proc = fresh_python("-c", probe)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "\n"


def test_fresh_json_verify_matches_in_process_run():
    # no --point: the second point is drawn, so both deferred imports run
    argv = ["verify", "--kind", "hst", "--nmax", "3", "--format", "json"]
    proc = fresh_python("-m", "schurgas.cli", *argv)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.run(argv)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert code == 0
    assert proc.stdout == out.getvalue()

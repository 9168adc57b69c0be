"""The benchmark harness's traced smoke run: every layer the harness
requires must still be called, and every answer must match its
reference."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_traced_smoke_run_is_correct(tmp_path):
    # a copy of the engine and the harness, so the trace file the run
    # writes stays out of the checkout
    for name in ("src", "perfbench"):
        shutil.copytree(ROOT / name, tmp_path / name,
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
    # the harness refuses budget overrides and imports the engine itself
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("BURNSIDE_") and k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "smoke",
         "--seed", "0", "--seconds", "0.2", "--trace", "1"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1])["correct"] is True

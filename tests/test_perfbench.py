"""The benchmark harness's traced runs: every layer the harness requires
must still be called, and every answer must match its reference."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def traced_run(tmp_path, workload, seed):
    """The harness's last stdout line for a short traced run, from a copy
    of the engine and the harness, so the trace file the run writes stays
    out of the checkout. The run exits 2 when a traced layer records no
    call."""
    for name in ("src", "perfbench"):
        shutil.copytree(ROOT / name, tmp_path / name,
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
    # the harness refuses budget overrides and imports the engine itself
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("BURNSIDE_") and k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "0.2", "--trace", "1"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_traced_smoke_run_is_correct(tmp_path):
    assert traced_run(tmp_path, "smoke", 0)["correct"] is True


# the embedding search must still build its tables and its generating
# tuple through the traced attributes on every call
@pytest.mark.parametrize("seed", [0, 3])
def test_traced_embed_run_is_correct(tmp_path, seed):
    assert traced_run(tmp_path, "embed-q8", seed)["correct"] is True


# rewrite.knuth_bendix (calls, steps) per traced pass; on stretch, the
# rank-7 stage's full completion (1,000,002 steps) and the capped one
# that pins aaB at rank 6 (1,002 steps)
COMPLETIONS = {"tower-classical": (3, 1845), "tower-stretch": (2, 1_001_004)}


# the tower workloads traced: stretch's rank 7 forks the stage helper,
# and each layer the tracer requires of a workload must be called
@pytest.mark.parametrize("workload", ["tower-classical", "tower-stretch"])
def test_traced_tower_run_is_correct(tmp_path, workload):
    result = traced_run(tmp_path, workload, 3)
    assert result["correct"] is True
    metrics = result["metrics"]
    assert (metrics["rewrite.knuth_bendix.calls"]["value"],
            metrics["rewrite.knuth_bendix.steps"]["value"]) == \
        COMPLETIONS[workload]

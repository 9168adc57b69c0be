"""Self-test of the benchmark harness on tiny inputs.

    python3 perfbench/selftest.py

Runs the ``smoke`` workload (the B(2,2) tower with its audit, and the C4
embedding) untraced and traced, and checks that every metric declared in
BENCHMARK.json prints with its name and unit. Then checks that a wrong
pinned answer fails the run, that ``BURNSIDE_*`` variables are refused,
that a missing engine stops the run without a result, and that the
tracer reports a vanished function as absent and fails a traced run in
which a required function records no call. Exits 0 when all hold.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

import run
import tracer
import workloads

FAILURES = []


def check(ok, what):
    print(("ok    " if ok else "FAIL  ") + what)
    if not ok:
        FAILURES.append(what)


def bench(args, cwd=run.ROOT, env=None):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "smoke",
         "--seed", "0", "--seconds", "0.2", *args],
        capture_output=True, text=True, timeout=120, cwd=cwd,
        env=env if env is not None else os.environ)


def result_of(proc):
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def metrics_print(declared, trace):
    proc = bench(["--trace", str(trace)])
    result = result_of(proc)
    check(proc.returncode == 0 and result is not None,
          f"smoke --trace {trace} exits 0 with a result")
    if result is None:
        print(proc.stderr)
        return
    check(set(result) == {"correct", "attempted", "failed", "metrics"},
          "result has exactly correct, attempted, failed, metrics")
    check(result["correct"] and result["failed"] == 0
          and result["attempted"] >= 1, "smoke answers match their pins")
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in declared}
    check(got == want, f"--trace {trace} prints every declared metric "
                       "with its unit, and no other")
    check(all(isinstance(v["value"], (int, float))
              for v in result["metrics"].values()), "every value is a number")


def wrong_answer_fails():
    smoke = workloads.WORKLOADS["smoke"]
    saved = smoke.reference
    smoke.reference = json.loads(json.dumps(saved))
    smoke.reference["tower 2 2"]["order"] = 5
    try:
        result = run.measure("smoke", 0, 0.2, 0)
    finally:
        smoke.reference = saved
    check(not result["correct"] and result["failed"] > 0,
          "a wrong pinned answer gives failed_frac > 0 "
          f"({result['failed']}/{result['attempted']})")


def environment_is_pinned():
    env = dict(os.environ, BURNSIDE_KB_MAX_RULES="10")
    proc = bench(["--trace", "0"], env=env)
    check(proc.returncode == 2 and result_of(proc) is None,
          "BURNSIDE_* in the environment is refused")


def bare_directory_fails():
    run.OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT) as bare:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = bench(["--trace", "0"], cwd=bare)
    check(proc.returncode != 0 and result_of(proc) is None,
          "without the engine's source the run fails without a result")


def tracer_flags_gaps():
    tracer.TARGETS["gone.function"] = ("burnside.gone", "function", None)
    try:
        t = tracer.Tracer()
        t.install()
        t.uninstall()
    finally:
        del tracer.TARGETS["gone.function"]
    check(t.absent == ["gone.function"], "a vanished function is absent")
    # a real function the smoke passes never call stands in for one whose
    # calls go around the wrapper
    tracer.TARGETS["cosets.conjugacy_decide"] = ("burnside.cosets",
                                                 "conjugacy_decide", None)
    tracer.REQUIRED["smoke"].append("cosets.conjugacy_decide")
    try:
        run.measure("smoke", 0, 0.2, 1)
        raised = None
    except run.HarnessError as e:
        raised = str(e)
    finally:
        tracer.REQUIRED["smoke"].remove("cosets.conjugacy_decide")
        del tracer.TARGETS["cosets.conjugacy_decide"]
    check(raised is not None and "cosets.conjugacy_decide" in raised,
          "a traced run fails when a required function records no call")


def main() -> int:
    with open(run.ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    run.pin_environment()
    metrics_print(spec["end_to_end"], 0)
    metrics_print(spec["per_layer"], 1)
    wrong_answer_fails()
    environment_is_pinned()
    bare_directory_fails()
    tracer_flags_gaps()
    print("selftest: " + ("FAILED: " + "; ".join(FAILURES) if FAILURES
                          else "ok"))
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the engine is imported from ``src/``.
With ``--trace 0`` it times whole passes of the workload with nothing
installed in the engine, at a reference machine speed (``speed.py``),
and prints the end-to-end metrics. With
``--trace 1`` it times untraced passes for half the window, then traced
passes for the other half, and prints the per-layer metrics plus the
tracing overhead. The last line of standard output is the result:
``{"correct", "attempted", "failed", "metrics"}``. The exit code is 0
when every answer matched its pinned reference, 1 when one did not, and
2 when the run could not be made at all.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
import types
from pathlib import Path

import workloads
from speed import SpeedProbe
from tracer import PER_LAYER, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_PROBES = 21  # fresh processes timed per run for setup_s
SETUP_PROBE_INTERVAL_S = 0.01
PROBE_TIMEOUT_S = 60

END_TO_END = (("scaled_wall_s", "s"), ("setup_s", "s"),
              ("peak_rss_mb", "MB"))


class HarnessError(Exception):
    """The run cannot be made (as opposed to a wrong answer)."""


def pin_environment():
    pinned = sorted(k for k in os.environ if k.startswith("BURNSIDE_"))
    if pinned:
        raise HarnessError(
            "refusing to run with BURNSIDE_* set (budgets and the kernel "
            f"backend must be the defaults): {', '.join(pinned)}")
    if not (SRC / "burnside" / "__init__.py").is_file():
        raise HarnessError(f"no engine source under {SRC}; run from the "
                           "root of a checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def load_burnside():
    """Import the engine's public modules; the benchmark uses no others."""
    import burnside
    from burnside import cosets, dihedral, presentation, tower

    if not Path(burnside.__file__).resolve().is_relative_to(SRC):
        raise HarnessError(f"imported burnside from {burnside.__file__}, "
                           f"not from {SRC}")
    return types.SimpleNamespace(tower=tower, cosets=cosets,
                                 dihedral=dihedral, presentation=presentation)


def environment(bs) -> dict:
    kernels = sys.modules.get("burnside.kernels")
    return {
        "budgets": bs.tower.Budgets().to_dict(),
        "kernel_backend": getattr(kernels, "IMPLEMENTATION", "absent"),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "jobs": 1,
    }


def setup_probe(workload, seed):
    """Child side of setup_s: import the engine and build the inputs,
    timed at the reference speed. The probe samples every 10 ms: the
    whole set-up lasts under 0.1 s, and the child may run on another
    core than its parent, so only its own samples tell its speed."""
    with SpeedProbe(SETUP_PROBE_INTERVAL_S) as probe:
        bs = load_burnside()
        workloads.WORKLOADS[workload].inputs(bs, seed)
    print(repr(probe.scaled()))


def measure_setup(workload, seed) -> float:
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
            cwd=ROOT)
        if proc.returncode != 0:
            raise HarnessError("setup probe failed:\n" + proc.stderr)
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


def run_passes(bs, wl, inputs, seconds, on_pass=None) -> list:
    """Closed loop: whole passes until `seconds` have elapsed (at least
    one), each under a speed probe. Returns one record per pass."""
    records = []
    deadline = time.perf_counter() + seconds
    while True:
        gc.collect()
        run = workloads.Pass(wl.reference)
        with SpeedProbe() as probe:
            start = time.perf_counter()
            try:
                wl.run_pass(bs, inputs, run)
            except Exception:  # a raising operation is a failed operation
                traceback.print_exc()
                for op in run.unchecked():
                    run.failures.append({"op": op, "got": "raised"})
            end = time.perf_counter()
        records.append({"wall_s": end - start,
                        "scaled_s": probe.scaled(start, end),
                        "kernel_s": probe.kernel_median_s(),
                        "phases": run.phases(probe), "run": run})
        if on_pass is not None:
            on_pass()
        if time.perf_counter() >= deadline:
            return records


def summarize(wl, records) -> dict:
    runs = [r["run"] for r in records]
    attempted = len(wl.reference) * len(runs)
    failed = sum(len(run.failures) for run in runs)
    phases = sorted({p for r in records for p in r["phases"]})
    return {
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "answer_digests": sorted({run.digest() for run in runs}),
        "failures": [f for run in runs for f in run.failures][:5],
        "passes": len(runs),
        "phases_scaled_s": {p: statistics.median(r["phases"].get(p, 0.0)
                                                 for r in records)
                            for p in phases},
        "wall_s": statistics.median(r["wall_s"] for r in records),
        "kernel_s": statistics.median(r["kernel_s"] for r in records),
    }


def write_trace(tracer, path, detail, metrics):
    names = sorted(tracer.stats)
    index = {n: i for i, n in enumerate(names)}
    OUT.mkdir(exist_ok=True)
    with open(path, "w") as fh:
        json.dump({"detail": detail, "metrics": metrics, "names": names,
                   "spans": [[sid, index[name], start, end, parent]
                             for sid, name, start, end, parent
                             in tracer.spans]}, fh)


def measure(workload, seed, seconds, trace) -> dict:
    """One benchmark run; returns the result line's object."""
    if workload not in workloads.WORKLOADS:
        raise HarnessError(f"unknown workload {workload!r}; choose from "
                           f"{', '.join(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[workload]
    setup_s = measure_setup(workload, seed) if not trace else None
    bs = load_burnside()
    inputs = wl.inputs(bs, seed)
    detail = {"workload": workload, "seed": seed, "trace": trace,
              "environment": environment(bs)}

    if not trace:
        records = run_passes(bs, wl, inputs, seconds)
        summary = summarize(wl, records)
        metrics = {
            "scaled_wall_s": statistics.median(r["scaled_s"]
                                               for r in records),
            "setup_s": setup_s,
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF)
                            .ru_maxrss / 1024),
        }
        units = dict(END_TO_END)
    else:
        plain = run_passes(bs, wl, inputs, seconds / 2)
        tracer = Tracer()
        per_pass = []

        def snapshot():
            silent = tracer.silent(workload)
            if silent:
                raise HarnessError(
                    f"traced functions recorded no call on {workload}: "
                    f"{', '.join(silent)} (bound around the wrapper?)")
            per_pass.append(tracer.metrics())
            tracer.reset()

        tracer.install()
        try:
            records = run_passes(bs, wl, inputs, seconds / 2, snapshot)
        finally:
            tracer.uninstall()
        summary = summarize(wl, plain + records)
        untraced_s = statistics.median(r["scaled_s"] for r in plain)
        traced_s = statistics.median(r["scaled_s"] for r in records)
        # counts are deterministic; median_low keeps them whole numbers
        metrics = {name: (statistics.median_low if unit == "count"
                          else statistics.median)(p[name] for p in per_pass)
                   for name, unit in PER_LAYER if name in per_pass[0]}
        metrics["trace.overhead_ratio"] = traced_s / untraced_s - 1
        units = dict(PER_LAYER)
        detail["absent"] = tracer.absent
        detail.update(untraced_scaled_s=untraced_s,
                      traced_scaled_s=traced_s)
        detail["trace_file"] = str(
            (OUT / f"trace-{workload}-seed{seed}.json").relative_to(ROOT))
        write_trace(tracer, ROOT / detail["trace_file"], detail, metrics)

    detail.update({k: summary[k] for k in (
        "passes", "wall_s", "kernel_s", "phases_scaled_s", "failed_frac",
        "answer_digests", "failures")})
    print(json.dumps(detail, sort_keys=True))
    return {
        "correct": summary["failed"] == 0,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    try:
        pin_environment()
        if args.setup_probe:
            setup_probe(args.workload, args.seed)
            return 0
        result = measure(args.workload, args.seed, args.seconds, args.trace)
    except HarnessError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

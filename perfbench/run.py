#!/usr/bin/env python3
"""Run one benchmark workload of winfree and print its metrics.

    python3 perfbench/run.py --workload mc-death --seed 1 --seconds 20 --trace 0

Run it from the root of a winfree checkout; the package is imported from
src/.  After set-up the timed phase repeats the workload's fixed op list (one
"pass") until --seconds is spent, checking every op's output.  With --trace 0
the result holds the end-to-end metrics; with --trace 1 half the budget runs
untraced and half traced, and the result holds the per-layer metrics.

The last line of stdout is the result object (correct, attempted, failed,
metrics); the line before it is the run record: environment, op counts and
latencies, error rate and failure messages.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NPROC = len(os.sched_getaffinity(0))
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
# caps must be in place before numpy loads its BLAS
for _var in BLAS_VARS:
    os.environ[_var] = str(NPROC)
os.environ.pop("WINFREE_SEED", None)  # would override the seeds the workloads pass
if not (ROOT / "src" / "winfree" / "__init__.py").is_file():
    sys.exit(f"run.py: no winfree sources under {ROOT / 'src'}; run from a winfree checkout")
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 7
PROBE_TIMEOUT_S = 120
# Duration of calibrate() on the reference machine (2-vCPU Intel Xeon VM, idle host).
# Times are reported at that machine speed: each raw time is scaled by
# CALIBRATION_REFERENCE_S / (calibrate() measured next to it).  Co-tenants on a
# shared host change the speed of such a VM by up to 2x within seconds;
# the kernel slows by the same factor as the workloads, so the scaled times
# hold steady while the raw ones do not.  The raw times are in the run record.
CALIBRATION_REFERENCE_S = 0.020


def calibrate() -> float:
    """Seconds a fixed mix of small numpy calls and Python arithmetic takes right now."""
    x = np.linspace(0.0, 1.0, 50)
    acc = 0.0
    start = time.perf_counter()
    for i in range(2000):
        acc += float(np.mean(np.sin(x) * 0.5 + np.cos(x))) + i * 0.5
    return time.perf_counter() - start


def _cpu_s() -> float:
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def _git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def environment() -> dict:
    return {
        "nproc": NPROC,
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": {var: os.environ[var] for var in BLAS_VARS},
        "git_commit": _git_commit(),
    }


def probe_setup(workload: str, seed: int) -> tuple[float, float]:
    """Seconds from starting a fresh process to ready (imports, inputs, warm-up
    ops), and the speed factor from a calibration the process runs once ready."""
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--probe-setup", "--workload", workload, "--seed", str(seed)],
        capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed ({proc.returncode}): {proc.stderr.strip()[-2000:]}")
    ready, calibration = (float(x) for x in proc.stdout.split())
    return ready - start, CALIBRATION_REFERENCE_S / calibration


class Runner:
    """Issues a workload's ops in a closed loop and records each pass."""

    def __init__(self, workload):
        self.workload = workload
        self.op_id = 0
        self.calibration = calibrate()

    def run_op(self, op, tracer=None):
        if tracer is not None:
            tracer.op = self.op_id
        self.op_id += 1
        cpu0, t0 = _cpu_s(), time.perf_counter()
        try:
            raw, error = op.run(), None
        except (Exception, SystemExit) as exc:
            raw, error = None, f"{op.name}: raised {type(exc).__name__}: {exc}"
        wall, cpu = time.perf_counter() - t0, _cpu_s() - cpu0
        out = None
        if error is None:
            out = op.post(raw)
            problem = op.check(out)
            error = None if problem is None else f"{op.name}: {problem}"
        return wall, cpu, out, error

    def run_pass(self, tracer=None) -> dict:
        """One pass of the op list.  Every op is followed by a calibration; the
        mean of the two around it scales the op's times ("scaled_*")."""
        record = {"wall": 0.0, "cpu": 0.0, "scaled_wall": 0.0, "scaled_cpu": 0.0, "units": 0,
                  "op_wall": {}, "errors": [], "output_bytes": 0}
        for op in self.workload.ops:
            wall, cpu, out, error = self.run_op(op, tracer)
            after = calibrate()
            speed = CALIBRATION_REFERENCE_S / (0.5 * (self.calibration + after))
            self.calibration = after
            record["wall"] += wall
            record["cpu"] += cpu
            record["scaled_wall"] += wall * speed
            record["scaled_cpu"] += cpu * speed
            record["op_wall"][op.name] = wall
            record["output_bytes"] += getattr(out, "output_bytes", 0)
            if error is None:
                record["units"] += op.units
            else:
                record["errors"].append(error)
        return record

    def run_passes(self, budget_s: float, tracer=None) -> list:
        """Whole passes until the next one would overrun the budget; at least one."""
        start = time.perf_counter()
        passes, lengths = [], []
        while not passes or time.perf_counter() - start + statistics.median(lengths) <= budget_s:
            began = time.perf_counter()
            passes.append(self.run_pass(tracer))
            lengths.append(time.perf_counter() - began)
        return passes


def _metric_table(bench: dict, key: str, values: dict) -> dict:
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in bench[key]}


def run(args) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out_dir)
    try:
        if args.probe_setup:
            workload = workloads.build(args.workload, args.seed, workdir)
            for op in workload.warmup:
                op.run()
            ready = time.monotonic()
            print(repr(ready), repr(calibrate()))
            return 0

        setup = [probe_setup(args.workload, args.seed) for _ in range(SETUP_PROBES)]
        workload = workloads.build(args.workload, args.seed, workdir)
        for op in workload.warmup:
            op.run()
        runner = Runner(workload)
        if args.trace:
            untraced = runner.run_passes(args.seconds / 2)
            tracer = tracing.Tracer()
            tracer.install()
            try:
                passes = runner.run_passes(args.seconds / 2, tracer)
            finally:
                tracer.uninstall()
            tracer.write(out_dir / f"spans-{args.workload}-seed{args.seed}.json.gz")
            values = tracing.layer_metrics(tracer.spans, len(passes), sum(p["output_bytes"] for p in passes))
            speed = statistics.median(p["scaled_wall"] / p["wall"] for p in passes)
            for m in bench["per_layer"]:
                if m["unit"] in ("s", "us") and m["name"] in values:
                    values[m["name"]] *= speed
            traced_passes = len(passes)
            values["trace.overhead_s"] = (statistics.median(p["scaled_wall"] for p in passes)
                                          - statistics.median(p["scaled_wall"] for p in untraced))
            metrics = _metric_table(bench, "per_layer", values)
            passes = untraced + passes
        else:
            passes = runner.run_passes(args.seconds)
            traced_passes = 0
            wall_s = statistics.median(p["scaled_wall"] for p in passes)
            values = {
                "setup_s": statistics.median(t * speed for t, speed in setup),
                "wall_s": wall_s,
                "cpu_s": statistics.median(p["scaled_cpu"] for p in passes),
                # units a pass completes (failed ops excluded), at the median pass time
                "units_per_s": statistics.median(p["units"] for p in passes) / wall_s,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            metrics = _metric_table(bench, "end_to_end", values)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = len(passes) * len(workload.ops)
    errors = [e for p in passes for e in p["errors"]]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": environment(),
        "passes": len(passes),
        "ops_per_pass": len(workload.ops),
        "unit": workloads.UNITS[args.workload],
        "units_per_pass": sum(op.units for op in workload.ops),
        "error_rate": len(errors) / attempted,
        "failures": errors[:10],
        "setup_probes_s": [t for t, _ in setup],
        "raw_setup_s": statistics.median(t for t, _ in setup),
        "raw_wall_s": statistics.median(p["wall"] for p in passes),
        "traced_passes": traced_passes,
        "pass_wall_s": [p["wall"] for p in passes],
        "pass_scaled_wall_s": [p["scaled_wall"] for p in passes],
        "op_median_ms": {op.name: 1e3 * statistics.median(p["op_wall"][op.name] for p in passes)
                         for op in workload.ops},
    }
    print(json.dumps(record))
    print(json.dumps({"correct": not errors, "attempted": attempted, "failed": len(errors), "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())

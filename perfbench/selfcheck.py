#!/usr/bin/env python3
"""Show that every oracle bites.

    python3 perfbench/selfcheck.py [--seed 1] [--workloads mc-death,...]

Runs one pass of each workload, requires every genuine output to pass its
check, then feeds each op's deliberate perturbations (a surviving sample, a
dropped equilibrium, a changed regime, a non-zero exit code, ...) through the
same check.  The error rate over the perturbed outputs must be above zero for
every workload, and in fact every perturbation must be caught.  Exit status 0
means both hold.
"""

from __future__ import annotations

import argparse
import shutil
import sys
import tempfile

import run  # noqa: F401  (BLAS caps and the import path, before numpy loads)
import workloads


def check_workload(name: str, seed: int) -> bool:
    workdir = tempfile.mkdtemp(prefix=f"selfcheck-{name}-", dir=run.HERE / "out")
    try:
        workload = workloads.build(name, seed, workdir)
        genuine_failures, attempted, caught, missed = [], 0, 0, []
        for op in workload.ops:
            out = op.post(op.run())
            problem = op.check(out)
            if problem is not None:
                genuine_failures.append(f"{op.name}: {problem}")
                continue
            for label, perturb in op.perturbations:
                attempted += 1
                if op.check(perturb(out)) is None:
                    missed.append(f"{op.name}: {label}")
                else:
                    caught += 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    rate = caught / attempted if attempted else 0.0
    print(f"{name}: {len(workload.ops)} genuine outputs, {len(genuine_failures)} failed; "
          f"{attempted} perturbed outputs, error_rate {rate:.3f}")
    for line in genuine_failures:
        print(f"  genuine output failed: {line}")
    for line in missed:
        print(f"  perturbation not caught: {line}")
    return not genuine_failures and not missed and rate > 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workloads", default=",".join(workloads.WORKLOADS))
    args = parser.parse_args(argv)
    (run.HERE / "out").mkdir(exist_ok=True)
    ok = all([check_workload(name, args.seed) for name in args.workloads.split(",")])
    print("every oracle bites" if ok else "SELF-CHECK FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

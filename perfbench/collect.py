#!/usr/bin/env python3
"""Run the benchmark over several seeds, summarise it, and compare summaries.

    python3 perfbench/collect.py --seeds 1-10 --trace-seed 1 --out perfbench/results/baseline.json
    python3 perfbench/collect.py --seeds 11-20 --compare perfbench/results/baseline.json
    python3 perfbench/collect.py --second-seed

Each run is a separate `run.py` process.  For every end-to-end metric the
summary holds the values, their median and quartiles, and the spread
(q3 - q1) / median, which must stay within the metric's bound in
BENCHMARK.json.  --compare checks that no median is worse than the compared
summary's by more than the bound.

--second-seed runs every workload once on HOLDOUT_SEED, a seed not used
while the benchmark or any change was developed, and compares it with the
committed baseline (choosing-metrics section 6.3: a claim must also hold on an
unseen seed).  Exit status 1 means a metric fell outside its bound or an op
failed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BASELINE = HERE / "results" / "baseline.json"
HOLDOUT_SEED = 9_700_417
RUN_TIMEOUT_S = 900


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    record, result = (json.loads(line) for line in proc.stdout.strip().splitlines()[-2:])
    return record, result


def spread(values) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return {"values": values, "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else float("inf")}


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def collect(workloads, seeds, seconds, trace_seed) -> dict:
    summary = {"run_seconds": seconds, "seeds": seeds, "workloads": {}}
    runs = {w: [] for w in workloads}
    for seed in seeds:  # seed-major, so slow drift of the machine hits every workload alike
        for w in workloads:
            record, result = run_once(w, seed, seconds, 0)
            runs[w].append((record, result))
            values = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
            print(f"{w:>10} seed {seed:>3}: failed {result['failed']}/{result['attempted']} {values}", flush=True)
    for w in workloads:
        records = [r for r, _ in runs[w]]
        results = [r for _, r in runs[w]]
        names = list(results[0]["metrics"])
        summary["env"] = records[0]["env"]
        summary["workloads"][w] = {
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "failures": [f for r in records for f in r["failures"]][:10],
            "runs": [{"seed": r["seed"], "passes": r["passes"], "raw_setup_s": r["raw_setup_s"],
                      "raw_wall_s": r["raw_wall_s"]} for r in records],
            "units_per_pass": records[0]["units_per_pass"],
            "unit": records[0]["unit"],
            "metrics": {m: {"unit": results[0]["metrics"][m]["unit"],
                            **spread([r["metrics"][m]["value"] for r in results])} for m in names},
        }
        if trace_seed is not None:
            record, result = run_once(w, trace_seed, seconds, 1)
            summary["workloads"][w]["traced"] = {
                "seed": trace_seed, "passes": record["passes"], "traced_passes": record["traced_passes"],
                "failed": result["failed"],
                "metrics": {k: v["value"] for k, v in result["metrics"].items()},
            }
    return summary


def check_spreads(summary, bench) -> bool:
    ok = True
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    print("\nspread (q3-q1)/median per metric; bound in brackets; the target is a third of the bound")
    for w, data in summary["workloads"].items():
        cells = []
        for m, s in data["metrics"].items():
            flag = "" if s["spread"] <= bounds[m] / 3 else (" ~" if s["spread"] <= bounds[m] else " !")
            ok &= m == "setup_s" or s["spread"] <= bounds[m]
            cells.append(f"{m} {s['median']:.4g} ({s['spread']:.3f} [{bounds[m]}]){flag}")
        ok &= data["failed"] == 0
        print(f"{w:>10}: failed {data['failed']}/{data['attempted']}; " + "; ".join(cells))
    return ok


def compare(summary, base, bench) -> bool:
    """True when no median is worse than the base's by more than the metric's bound."""
    ok = True
    print("\nmedian vs base median (relative change; + is worse)")
    for w, data in summary["workloads"].items():
        if w not in base["workloads"]:
            continue
        cells = []
        for spec in bench["end_to_end"]:
            m = spec["name"]
            new, old = data["metrics"][m]["median"], base["workloads"][w]["metrics"][m]["median"]
            worse = (new - old) / old if spec["better"] == "lower" else (old - new) / old
            within = worse <= spec["bound"]
            ok &= within
            cells.append(f"{m} {old:.4g} -> {new:.4g} ({worse:+.3f}{'' if within else ' OUT'})")
        print(f"{w:>10}: " + "; ".join(cells))
    return ok


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workloads", default=",".join(names), help="comma-separated workload names")
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,7")
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace-seed", type=int, help="also make one traced run per workload on this seed")
    parser.add_argument("--compare", type=Path, help="summary to compare medians against")
    parser.add_argument("--second-seed", action="store_true",
                        help=f"run seed {HOLDOUT_SEED} once per workload and compare with {BASELINE.relative_to(ROOT)}")
    parser.add_argument("--out", type=Path, help="write the summary here")
    args = parser.parse_args(argv)

    seeds = [HOLDOUT_SEED] if args.second_seed else parse_seeds(args.seeds)
    base_path = args.compare or (BASELINE if args.second_seed else None)
    workloads = args.workloads.split(",")
    unknown = set(workloads) - set(names)
    if unknown:
        parser.error(f"unknown workloads {sorted(unknown)}")

    summary = collect(workloads, seeds, args.seconds, args.trace_seed)
    ok = all(d["failed"] == 0 for d in summary["workloads"].values())
    if len(seeds) > 1:
        ok &= check_spreads(summary, bench)
    if base_path is not None:
        ok &= compare(summary, json.loads(base_path.read_text()), bench)
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(summary, indent=1) + "\n")
    print("\nresult:", "within bounds" if ok else "OUTSIDE bounds or failed ops")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

"""Steadiness check: run every workload on ten seeds and report each
end-to-end metric's median and quartile spread against its bound.

    python3 perfbench/proof.py [--write]

A metric is steady when (Q3 - Q1) / median over the seeds stays below a
third of its bound in BENCHMARK.json (setup_s is exempt from the spread
rule).  With --write the figures, the environment, the sample counts and
the answer digest of the first seed go to perfbench/RESULTS.json; a
traced run per workload adds its per-layer metrics.
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
SEEDS = list(range(1, 11))


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900, check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    with open(HERE / "out" / f"{workload}_seed{seed}_trace{trace}.json") as f:
        result["details"] = json.load(f)
    return result


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": q2, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / q2 if q2 else float("inf")}


def main(argv=None) -> int:
    with open(ROOT / "BENCHMARK.json") as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true")
    args = parser.parse_args(argv)
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    report = {}
    environment = None
    steady = True
    for workload in (w["name"] for w in bench["workloads"]):
        runs = [run(workload, seed, seconds, 0) for seed in SEEDS]
        environment = runs[0]["details"]["environment"]
        failed = sum(r["failed"] for r in runs)
        attempted = sum(r["attempted"] for r in runs)
        row = {"seeds": SEEDS, "attempted": attempted, "failed": failed,
               "correct": all(r["correct"] for r in runs),
               "latency_samples": [r["details"]["latency_samples"]
                                   for r in runs],
               "tail_samples": runs[0]["details"]["tail_samples"],
               "tail_percentile": runs[0]["details"]["tail_percentile"],
               "answer_digest": runs[0]["details"]["answer_digest"],
               "end_to_end": {}}
        print(f"{workload}: attempted {attempted}, failed {failed}, "
              f"samples {row['latency_samples']}")
        for name, bound in bounds.items():
            stats = spread([r["metrics"][name]["value"] for r in runs])
            row["end_to_end"][name] = stats
            ok = name == "setup_s" or stats["spread"] < bound / 3.0
            steady = steady and ok
            print(f"  {name:18s} median {stats['median']:12.4f}  spread "
                  f"{stats['spread']:.4f}  (bound/3 {bound / 3:.4f})"
                  f"{'' if ok else '  UNSTEADY'}")
        if args.write:
            traced = run(workload, SEEDS[0], seconds, 1)
            row["per_layer_seed"] = SEEDS[0]
            row["per_layer"] = {k: v["value"]
                                for k, v in traced["metrics"].items()}
        report[workload] = row

    if args.write:
        results = {"environment": environment, "run_seconds": seconds,
                   "workloads": report}
        with open(HERE / "RESULTS.json", "w") as f:
            json.dump(results, f, indent=1)
            f.write("\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())

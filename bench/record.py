"""Repeat the benchmark over several seeds and summarise the spread of each metric.

    python3 bench/record.py [--seeds 10] [--out bench/BASELINE.json]

For every workload in BENCHMARK.json it runs ``run.py --trace 0`` once for
each of the seeds 1..N and ``run.py --trace 1`` once with seed 1, one run at a
time, each for the ``run_seconds`` of BENCHMARK.json. For each end-to-end metric it
prints the median, the quartiles (``statistics.quantiles(values, n=4)``) and
the spread, the interquartile distance as a share of the median, next to the
metric's bound from BENCHMARK.json. With ``--out`` it also writes every value,
the summaries, the per-layer figures and the machine facts to a JSON file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    # run.py exits with 1 after its result line when a check failed; that is recorded
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=200)
    return json.loads(done.stdout.strip().splitlines()[-1])


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "values": values}


def machine() -> dict:
    numpy_version = subprocess.run([sys.executable, "-c", "import numpy; print(numpy.__version__)"],
                                   stdout=subprocess.PIPE, text=True).stdout.strip()
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "platform": platform.platform(),
        "processor": platform.machine(),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--out", default=None, help="write the record to this JSON file")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = list(range(1, args.seeds + 1))
    record = {"machine": machine(), "run_seconds": seconds, "seeds": seeds, "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        results = [run(workload, seed, seconds, 0) for seed in seeds]
        entry = {
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "all_correct": all(r["correct"] for r in results),
            "end_to_end": {},
        }
        print(f"{workload}: {len(results)} runs, {entry['attempted']} ops, {entry['failed']} failed,"
              f" all correct: {entry['all_correct']}")
        for name, bound in bounds.items():
            s = summarise([r["metrics"][name]["value"] for r in results])
            entry["end_to_end"][name] = {"unit": results[0]["metrics"][name]["unit"], **s}
            flag = "ok" if s["spread"] <= bound else "OVER BOUND"
            print(f"  {name:12s} median {s['median']:.6g}  q1 {s['q1']:.6g}  q3 {s['q3']:.6g}"
                  f"  spread {s['spread']:.4f} (bound {bound}) {flag}")
        traced = run(workload, seeds[0], seconds, 1)
        entry["per_layer_seed"] = seeds[0]
        entry["per_layer_correct"] = traced["correct"]
        entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        print(f"  traced run, seed {seeds[0]}: correct {traced['correct']},"
              f" trace.overhead_ratio {entry['per_layer']['trace.overhead_ratio']:.3f}")
        record["workloads"][workload] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

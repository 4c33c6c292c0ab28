"""isoperim benchmark: verify-plan throughput on seeded workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``. Each run starts one worker process that runs the workload as a
closed loop with a single caller (see runner.py). With ``--trace 0`` it also
starts ``SETUP_PROBES`` short processes that only time set-up, half before the
worker and half after it, one at a time, and reports the median of their
set-up times and the worker's own. On a shared host CPU speed can drift over
tens of seconds, so the probes are spread over the run. With ``--trace 1`` it
reports per-layer figures from a traced run (see layertrace.py).

Human-readable lines go first; the last stdout line is one JSON object with
the keys correct, attempted, failed and metrics. The exit code is 1 when
``correct`` is false, after that line, and when a run fails to give a result;
it is 2 when there is no source tree. Traces and per-plan report digests are
written under ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 6
WORKER_TIMEOUT_S = 170


def metric_units(trace: int) -> dict[str, str]:
    """Name -> unit of the metrics BENCHMARK.json lists for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_worker(args: argparse.Namespace, *extra: str, timeout: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), *extra]
    env = dict(os.environ, PYTHONHASHSEED="0")
    done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, timeout=timeout)
    if done.returncode != 0:
        raise RuntimeError(f"worker exited with code {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "isoperim" / "__init__.py").is_file():
        print(f"error: no isoperim source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2

    probe_count = 0 if args.trace else SETUP_PROBES // 2
    try:
        probes = [run_worker(args, "--setup-only", timeout=60)["setup_s"] for _ in range(probe_count)]
        res = run_worker(args, timeout=WORKER_TIMEOUT_S)
        probes += [run_worker(args, "--setup-only", timeout=60)["setup_s"] for _ in range(probe_count)]
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted, failed = res["attempted"], res["failed"]
    values = res["metrics"]
    print(f"isoperim benchmark: workload {args.workload}, seed {args.seed}, trace {args.trace}")
    rounds = f"1 warm-up and {res['rounds']} paired" if args.trace else res["rounds"]
    print(f"  {rounds} rounds of {res['plans']} plans: {attempted} ops, {failed} failed,"
          f" fail_ratio = {failed / attempted:.4g} (failed / attempted ops)")
    print(f"  {res['cases']} cases; replayed {res['replayed']} witnesses in {res['replay_s']:.3f} s"
          f" (outside op timing); report digest {res['digest'][:16]}")
    trace_problems = res.get("trace_problems", [])
    for problem in res["problems"] + trace_problems:
        print(f"  FAILED {problem}")
    if args.trace:
        print(f"  traced with {res['patched']} rebound names; per-layer values are per traced round")
    else:
        samples = [res["setup_s"], *probes]
        values["setup_s"] = statistics.median(samples)
        print(f"  plan_s quantiles over {res['plan_samples']} plan ops;"
              f" setup_s median of {len(samples)} fresh processes (import isoperim {res['import_s']:.3f} s)")
    units = metric_units(args.trace)
    if set(values) != set(units):
        print(f"error: measured metrics {sorted(values)} are not those in BENCHMARK.json {sorted(units)}",
              file=sys.stderr)
        return 1
    for name, value in values.items():
        print(f"  {name} = {value:.6g} {units[name]}")

    correct = failed == 0 and attempted > 0 and not trace_problems
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

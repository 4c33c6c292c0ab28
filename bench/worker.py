"""One benchmark run in a fresh process; run.py starts it.

    python3 bench/worker.py --workload NAME --seed N --seconds S --trace 0|1 [--setup-only]

Set-up is timed from before ``import isoperim.cli``, which is what
``isoperim verify`` imports, to the last plan deserialised. ``--setup-only``
stops there. The last stdout line is JSON.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
# Rounds with distinct random inputs. A run cycles through them, so a run of
# more rounds repeats inputs, and each repeat must give the same report.
INPUT_ROUNDS = 16


def setup(workload: str, seed: int) -> tuple[list[list[str]], float, float]:
    """Import isoperim from the source tree and make the plans: (rounds, setup s, import s)."""
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import isoperim.cli

    t_import = time.perf_counter()
    if not Path(isoperim.__file__).resolve().is_relative_to(SRC.resolve()):
        sys.exit(f"isoperim was imported from {isoperim.__file__}, not from {SRC}")
    rounds = workloads.generate(workload, seed, INPUT_ROUNDS)
    for texts in rounds:
        for text in texts:
            isoperim.VerifyPlan.from_obj(json.loads(text))
    return rounds, time.perf_counter() - t0, t_import - t0


def pin_to_one_cpu() -> None:
    """Run on the lowest-numbered CPU this process may use.

    A virtual machine's CPUs need not be equally fast: on a 2-vCPU VM one CPU
    ran a fixed Python loop at 6.5 ms and the other at 8.8 ms. Left to the
    scheduler, runs land on either and their figures split into two groups.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    pin_to_one_cpu()
    rounds, setup_s, import_s = setup(args.workload, args.seed)
    result: dict = {"setup_s": setup_s, "import_s": import_s}
    if not args.setup_only:
        # runner imports isoperim, so it may only be imported after the timed set-up
        from runner import Loop, traced_run, untraced_run

        OUT_DIR.mkdir(exist_ok=True)
        loop = Loop(rounds, args.seed)
        if args.trace:
            trace_path = OUT_DIR / f"trace-{args.workload}-{args.seed}.json"
            result.update(traced_run(loop, args.seconds, trace_path))
        else:
            result.update(untraced_run(loop, args.seconds))
        with open(OUT_DIR / f"digests-{args.workload}-{args.seed}.json", "w", encoding="utf-8") as fh:
            json.dump([{"plan": t, "report_sha256": loop.digests.get(t)} for texts in rounds for t in texts],
                      fh, indent=1)
        result.update({
            "attempted": loop.attempted,
            "failed": loop.failed,
            "plans": len(rounds[0]),
            "cases": loop.cases,
            "problems": loop.problems[:20],
            "replayed": loop.replayed,
            "replay_s": loop.replay_s,
            "digest": hashlib.sha256("".join(loop.digests.get(t, "-") for r in rounds for t in r).encode()).hexdigest(),
        })
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

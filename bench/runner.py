"""The measured loop of one benchmark run, and the figures taken from it.

Each op is one plan taken through the names ``isoperim verify`` calls, as
bound in ``isoperim.cli``: ``VerifyPlan.from_obj(json.loads(text))`` ->
``run_verify`` -> ``emit_report(report, "json")``. Before each op the
``classify_*`` verdict caches are cleared, because ``isoperim verify`` starts
with them empty. The loop runs the workload's plans in order, round after round, and only whole
rounds, so every run measures the same mix; the number of rounds fills the
run's seconds and gives at least ``MIN_OPS`` ops.

Each round draws fresh random inputs (see workloads.py), so the seed's effect
averages over the rounds of a run. After an op, outside its timing, the report
is checked (see checks.py) and digested: its JSON minus ``wall_time``. When a
run cycles back to a plan it already ran, the report must have the same
digest, and witness replay runs only on a plan's first report. An untraced
run of a few rounds never cycles back, so only traced runs, whose rounds
repeat their inputs, make that comparison.

A traced run runs each op untraced and traced on the same inputs (see
``traced_run``) and reports per-layer figures per traced round, plus the
traced/untraced time ratio.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import resource
import statistics
import time
from collections import Counter, defaultdict
from pathlib import Path

from isoperim import cli

from checks import BOUNDARY_THEOREMS, check_report, replay_sample
from layertrace import Tracer, clear_verdict_caches, verdict_cache_counts

MIN_OPS = 100  # so that ten samples lie beyond the 90th percentile
REPLAY_LIMIT = 32  # witnesses replayed per plan, chosen by a seeded draw


class Loop:
    """Runs plans as ops, checks their reports and keeps the run's tallies."""

    def __init__(self, rounds: list[list[str]], seed: int):
        self.rounds = rounds
        self.plans = {text: json.loads(text) for texts in rounds for text in texts}
        self.seed = seed
        self.tracer: Tracer | None = None  # set by traced_run
        self.attempted = 0
        self.failed = 0
        self.cases = 0
        self.plan_s: list[float] = []
        self.problems: list[str] = []
        self.digests: dict[str, str] = {}  # plan text -> digest of its first report
        self.replay_problems: dict[str, list[str]] = {}
        self.replay_s = 0.0
        self.replayed = 0
        self.layer = Counter()  # per-layer counts taken outside the tracer, traced ops only

    def _track_cells(self, plan: dict) -> bool:
        return plan["theorem"] in BOUNDARY_THEOREMS and plan["mode"] == "exhaustive"

    def _op(self, text: str, op_id: int, traced: bool):
        clear_verdict_caches()

        def op():
            # attribute lookups at call time, so a traced op sees the rebound names
            report = cli.run_verify(cli.VerifyPlan.from_obj(json.loads(text)))
            return report, cli.emit_report(report, "json")

        t0 = time.perf_counter()
        if traced:
            report, out = self.tracer.run_op(op_id, self._track_cells(self.plans[text]), op)
        else:
            report, out = op()
        return time.perf_counter() - t0, report, out

    def _check(self, text: str, report, out: str) -> list[str]:
        problems = check_report(self.plans[text], report.to_obj())
        digest = hashlib.sha256(out.rsplit('"wall_time"', 1)[0].encode()).hexdigest()
        if text not in self.digests:
            self.digests[text] = digest
            t0 = time.perf_counter()
            obj = json.loads(out)
            witnesses = obj["violations"] + obj["equality_witnesses"]
            rng = random.Random(f"{self.seed}/{len(self.digests)}")
            self.replay_problems[text] = replay_sample(witnesses, rng, REPLAY_LIMIT)
            self.replayed += min(len(witnesses), REPLAY_LIMIT)
            self.replay_s += time.perf_counter() - t0
        elif digest != self.digests[text]:
            problems.append("report differs from this plan's first report")
        return problems + self.replay_problems[text]

    def round(self, r: int, modes: tuple[bool, ...] = (False,)) -> list[float]:
        """Every plan of round r in order, each run once per mode (True: traced), back to back.

        Returns the summed plan time of each mode.
        """
        totals = [0.0] * len(modes)
        for i, text in enumerate(self.rounds[r % len(self.rounds)]):
            for m, traced in enumerate(modes):
                totals[m] += self._run(i, text, traced)
        return totals

    def _run(self, i: int, text: str, traced: bool) -> float:
        """One op, checked; returns its time, or 0 if it raised."""
        op_id = self.attempted
        self.attempted += 1
        try:
            dt, report, out = self._op(text, op_id, traced)
        except Exception as exc:  # a plan that raises is a failed op; the run goes on
            self.failed += 1
            self.problems.append(f"plan {i}: {type(exc).__name__}: {exc}")
            return 0.0
        self.plan_s.append(dt)
        self.cases += report.cases_checked
        problems = self._check(text, report, out)
        if problems:
            self.failed += 1
            self.problems.append(f"plan {i}: " + "; ".join(problems))
        if traced:
            self._count_layers(self.plans[text], op_id, report, out, verdict_cache_counts())
        return dt

    def _count_layers(self, plan, op_id, report, out, cache_counts) -> None:
        layer = self.layer
        layer["report_bytes"] += len(out.encode())
        layer["witnesses"] += len(report.violations) + len(report.equality_witnesses)
        hits, misses = cache_counts
        layer["verdict_hits"] += hits
        layer["verdict_lookups"] += hits + misses
        if self._track_cells(plan):
            layer["cells_tabulated"] += self.tracer.op_calls(op_id, "boundary.verdict")
        policy = plan["generators"]
        if policy["policy"] == "random-generating":
            draws = self.tracer.op_calls(op_id, "prng.draw", parent="harness.draw_gens")
            layer["gen_attempts"] += draws // policy["count"]
            layer["gen_returned"] += self.tracer.op_calls(op_id, "harness.draw_gens")


def untraced_run(loop: Loop, seconds: float) -> dict:
    [first] = loop.round(0)
    rounds = max(math.ceil(MIN_OPS / len(loop.rounds[0])), round(seconds / first), 1)
    for r in range(1, rounds):
        loop.round(r)
    plan_s = loop.plan_s
    return {
        "rounds": rounds,
        "metrics": {
            "cases_per_s": loop.cases / sum(plan_s),
            "plan_s.p50": statistics.median(plan_s),
            "plan_s.p90": statistics.quantiles(plan_s, n=10)[8],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        },
        "plan_samples": len(plan_s),
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer, layer: Counter, rounds: int) -> dict[str, float]:
    """Per-layer figures per traced round; ratios and maxima over the whole run."""
    calls: Counter = Counter()
    self_s: Counter = Counter()
    max_s: Counter = Counter()
    for (_, _, key), (n, _, s, longest) in tracer.agg.items():
        calls[key] += n
        self_s[key] += s
        max_s[key] = max(max_s[key], longest)
    per = lambda v: v / rounds  # noqa: E731
    tally = tracer.tally
    return {
        "groups.translate_calls": per(calls["groups.translate"]),
        "groups.translate_s": per(self_s["groups.translate"]),
        "groups.translate_bits": per(tally["groups.translate"]),
        "groups.span_calls": per(calls["groups.span"]),
        "groups.span_s": per(self_s["groups.span"]),
        "groups.perm_build_s": per(self_s["groups.perm_build"]),
        "groups.element_calls": per(calls["groups.element"]),
        "groups.element_s": per(self_s["groups.element"]),
        "boundary.verdict_calls": per(calls["boundary.verdict"]),
        "boundary.verdict_s": per(self_s["boundary.verdict"]),
        "boundary.verdict_max_s": float(max_s["boundary.verdict"]),
        "boundary.verdict_cache_hit_ratio": _ratio(layer["verdict_hits"], layer["verdict_lookups"]),
        "boundary.table_use_ratio": _ratio(tally["boundary.cells_reached"], layer["cells_tabulated"]),
        "compression.context_s": per(self_s["compression.context"]),
        "compression.kernel_calls": per(calls["compression.kernel"]),
        "compression.kernel_s": per(self_s["compression.kernel"]),
        "lattice.downsets": per(tally["lattice.enumerate"]),
        "lattice.enumerate_s": per(self_s["lattice.enumerate"]),
        "lattice.weight_s": per(self_s["lattice.weight"]),
        "lattice.projection_s": per(self_s["lattice.projection"]),
        "lattice.set_build_s": per(self_s["lattice.set_build"]),
        "popular.spectrum_calls": per(calls["popular.spectrum"]),
        "popular.spectrum_s": per(self_s["popular.spectrum"]),
        "popular.threshold_s": per(self_s["popular.threshold"]),
        "popular.dim_calls": per(calls["popular.dim"]),
        "popular.dim_s": per(self_s["popular.dim"]),
        "popular.dim_repeat_ratio": _ratio(tally["popular.dim"], calls["popular.dim"]),
        "prng.draw_calls": per(calls["prng.draw"]),
        "prng.draw_s": per(self_s["prng.draw"]),
        "harness.sweep_s": per(self_s["harness.sweep"]),
        "harness.self_s": per(self_s["harness.run"] + self_s["harness.draw_gens"]),
        "harness.emit_s": per(self_s["harness.emit"]),
        "harness.report_bytes": per(layer["report_bytes"]),
        "harness.witnesses": per(layer["witnesses"]),
        "harness.gen_accept_ratio": _ratio(layer["gen_returned"], layer["gen_attempts"]),
    }


def self_time_problems(tracer) -> list[str]:
    """Ops whose layer self times add up to more than the op's traced wall time.

    Every layer frame nests inside its op's frame, so this holds by the
    tracer's construction; a failure means the frame bookkeeping is broken.
    """
    wall: dict[int, float] = {}
    layers: defaultdict[int, float] = defaultdict(float)
    for (op, _, key), (_, total, s, _) in tracer.agg.items():
        if key == "op":
            wall[op] = total
        else:
            layers[op] += s
    return [f"op {op}: layer self times {layers[op]:.6f} s exceed its wall {w:.6f} s"
            for op, w in sorted(wall.items()) if layers[op] > w + 1e-9]


def traced_run(loop: Loop, seconds: float, out_path: Path) -> dict:
    """A warm-up round, then an even number of paired rounds.

    The warm-up round is checked but not timed: it takes the process's first
    touch of memory. A paired round runs each plan untraced and traced back to
    back, so both see the same inputs and the host's drift over seconds
    cancels. The untraced op goes first in even rounds and the traced op in
    odd ones, so neither side always runs warmer. The overhead ratio is summed
    traced time over summed untraced time.
    """
    loop.tracer = tracer = Tracer()
    loop.round(0)

    def paired(r: int) -> dict[bool, float]:
        order = (False, True) if r % 2 == 0 else (True, False)
        return dict(zip(order, loop.round(r, order)))

    times = [paired(0)]
    pairs = 2 * max(round(seconds / (2 * sum(times[0].values()))), 1)
    times += [paired(r) for r in range(1, pairs)]
    metrics = layer_metrics(tracer, loop.layer, pairs)
    metrics["trace.overhead_ratio"] = sum(t[True] for t in times) / sum(t[False] for t in times)
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({
            "patched": tracer.patched_names(),
            "span_fields": ["id", "name", "start", "end", "parent", "op"],
            "spans": tracer.spans,
            "aggregate_fields": ["op", "parent", "name", "calls", "total_s", "self_s", "max_s"],
            "aggregates": [[*k, *v] for k, v in tracer.agg.items()],
        }, fh)
    return {"rounds": pairs, "metrics": metrics, "patched": len(tracer.patched_names()),
            "trace_problems": self_time_problems(tracer)}

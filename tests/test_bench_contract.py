"""The names the benchmark binds in isoperim stay bound.

The benchmark's tracer rebinds isoperim functions by name and reads the
verdict caches. A rename in the package would otherwise surface only when the
benchmark runs; here it fails the test suite. One small plan of every theorem
also runs through the tracer, so an attribute that only the tracer's tallies
read (such as ``Shifter.perm``) cannot go missing unnoticed either.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from isoperim import cli
from isoperim.harness import THEOREM_IDS

BENCH = Path(__file__).resolve().parent.parent / "bench"

TRACED_PLANS = {
    "exp234": {"group": {"moduli": [2, 2, 2]}, "mode": "sample", "sample_size": 8, "seed": 1},
    "bl-bound": {"group": {"moduli": [4, 4]}, "mode": "sample", "sample_size": 8, "seed": 2},
    "generalcase": {"group": {"moduli": [2, 8]}, "mode": "sample", "sample_size": 8, "seed": 3},
    "cosetdecomp": {
        "group": {"moduli": [2, 2, 2]}, "mode": "sample", "sample_size": 8, "seed": 4,
        "generators": {"policy": "fixed-list", "elements": [[1, 0, 0], [0, 1, 1]]},
    },
    "claims-compression": {"group": {"moduli": [2, 4]}, "mode": "sample", "sample_size": 4, "seed": 5},
    "avweight": {"box": [1, 1]},
    "lwplus": {"box": [2, 2], "mode": "sample", "sample_size": 10, "seed": 6},
    "repa": {"group": {"moduli": [2, 2, 2]}, "mode": "sample", "sample_size": 5, "seed": 7, "gammas": ["1/2"]},
}


@pytest.fixture
def layertrace(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave bench/ as checked out
    import layertrace

    return layertrace


def test_tracer_binds_every_target(layertrace):
    tracer = layertrace.Tracer()
    assert tracer.patched_names()
    layertrace.clear_verdict_caches()
    assert layertrace.verdict_cache_counts() == (0, 0)


def test_traced_plans_cover_every_theorem():
    assert sorted(TRACED_PLANS) == sorted(THEOREM_IDS)


@pytest.mark.parametrize("theorem", sorted(TRACED_PLANS))
def test_traced_op_matches_untraced(layertrace, theorem):
    text = json.dumps({"theorem": theorem, **TRACED_PLANS[theorem]})

    def op():
        # attribute lookups at call time, so the traced op sees the rebound names
        report = cli.run_verify(cli.VerifyPlan.from_obj(json.loads(text)))
        return cli.emit_report(report, "json")

    layertrace.clear_verdict_caches()
    untraced = op()
    tracer = layertrace.Tracer()
    layertrace.clear_verdict_caches()
    traced = tracer.run_op(0, False, op)
    assert traced.rsplit('"wall_time"', 1)[0] == untraced.rsplit('"wall_time"', 1)[0]
    assert tracer.op_calls(0, "op") == 1
    if theorem in ("exp234", "bl-bound", "generalcase", "cosetdecomp", "repa"):
        # sampled boundary cases and dimension searches translate masks, and the tally reads Shifter.perm
        assert tracer.op_calls(0, "groups.translate") > 0
        assert tracer.tally["groups.translate"] > 0

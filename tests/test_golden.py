"""Golden outputs: benchmark-workload reports and demo stdout, pinned by sha256.

The reports are the json, tsv and text forms (``wall_time`` zeroed) of every
plan of round 0, seed 1 of the three ``bench/workloads.py`` workloads; the
demos are the scripts under ``demos/``. Both are deterministic, so any change
to a report byte or a printed line fails here.

After a change that is meant to alter these outputs, rewrite the pinned data
with ``python tests/test_golden.py`` (``src`` on the path) and say why in the
change's notes.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import runpy
import sys
from pathlib import Path

import pytest

from isoperim import VerifyPlan, emit_report, run_verify

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
DEMOS = ROOT / "demos"
GOLDEN = Path(__file__).resolve().parent / "golden_outputs.json"
SEED = 1
FORMATS = ("json", "tsv", "text")


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _workload_plans(workload: str) -> list[str]:
    sys.path.insert(0, str(BENCH))
    try:
        import workloads
    finally:
        sys.path.remove(str(BENCH))
    return workloads.generate(workload, SEED, 1)[0]


def report_digests(plan_text: str) -> dict[str, str]:
    report = run_verify(VerifyPlan.from_obj(json.loads(plan_text)))
    report.wall_time = 0.0
    return {"plan": _sha(plan_text), **{fmt: _sha(emit_report(report, fmt)) for fmt in FORMATS}}


def demo_digest(name: str) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(DEMOS / name), run_name="__main__")
    return _sha(out.getvalue())


def _golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


WORKLOADS = ("exhaustive-small", "sample-large", "analytics-sample")
DEMO_NAMES = sorted(p.name for p in DEMOS.glob("*.py"))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_reports_match_golden(workload):
    want = _golden()["reports"][workload]
    texts = _workload_plans(workload)
    assert len(texts) == len(want)
    for i, text in enumerate(texts):
        assert report_digests(text) == want[i], f"{workload} plan {i}: {text}"


def test_demo_stdout_matches_golden():
    want = _golden()["demos"]
    assert sorted(want) == DEMO_NAMES
    for name in DEMO_NAMES:
        assert demo_digest(name) == want[name], name


def main() -> None:
    data = {
        "reports": {w: [report_digests(t) for t in _workload_plans(w)] for w in WORKLOADS},
        "demos": {name: demo_digest(name) for name in DEMO_NAMES},
    }
    GOLDEN.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()

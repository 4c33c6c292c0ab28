"""The names the benchmark binds in isoperim stay bound.

The benchmark's tracer rebinds isoperim functions by name and reads the
verdict caches. A rename in the package would otherwise surface only when the
benchmark runs; here it fails the test suite.
"""

from __future__ import annotations

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_tracer_binds_every_target(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave bench/ as checked out
    import layertrace

    tracer = layertrace.Tracer()
    assert tracer.patched_names()
    layertrace.clear_verdict_caches()
    assert layertrace.verdict_cache_counts() == (0, 0)

"""``harness.json_text`` against its oracle, ``json.dumps(obj, indent=2)``."""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isoperim import VerifyPlan, run_verify
from isoperim.harness import json_text

BENCH = Path(__file__).resolve().parent.parent / "bench"

_strings = st.one_of(
    st.text(),
    st.text(alphabet=st.sampled_from(['"', "\\", "\x00", "\x1f", "\x7f", "é", " ", "\U0001f600", "a"])),
)
_scalars = st.one_of(
    _strings,
    st.integers(min_value=-(10**60), max_value=10**60),
    st.booleans(),
    st.none(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([-0.0, 0.0, float("nan"), float("inf"), float("-inf"), 1e16, 5e-324]),
)
_keys = st.one_of(
    _strings,
    st.integers(min_value=-(10**30), max_value=10**30),
    st.floats(allow_nan=True, allow_infinity=True),
    st.booleans(),
    st.none(),
)
_values = st.recursive(
    _scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.lists(inner, max_size=5).map(tuple),
        st.dictionaries(_keys, inner, max_size=5),
        st.lists(st.lists(st.integers(-3, 3), max_size=3), max_size=4),  # rows that share cache keys
    ),
    max_leaves=20,
)


@settings(max_examples=150, deadline=None)
@given(_values)
def test_equals_json_dumps_on_nested_values(obj):
    assert json_text(obj) == json.dumps(obj, indent=2)


def test_equal_numbers_of_other_types_do_not_share_a_cached_row():
    rows = [[1, 1], [True, True], [1.0, 1.0], [1, True], [0, False], [0.0, 0]]
    for obj in (rows, [rows], {"a": [rows, rows]}, [[rows], rows, [[rows]]], (rows, tuple(map(tuple, rows)))):
        assert json_text(obj) == json.dumps(obj, indent=2)


@pytest.mark.parametrize("value", [Fraction(1, 2), {1, 2}, np.int64(3)])
def test_rejects_what_json_rejects(value):
    for obj in (value, [value], {"k": value}, [[1, 2], value]):
        with pytest.raises(TypeError):
            json.dumps(obj, indent=2)
        with pytest.raises(TypeError):
            json_text(obj)


def test_rejects_dict_keys_that_json_rejects():
    for key in ((1, 2), Fraction(1, 2)):
        with pytest.raises(TypeError, match="keys must be"):
            json_text({key: 1})


def _round_zero_plans() -> list[str]:
    sys.path.insert(0, str(BENCH))
    try:
        import workloads
    finally:
        sys.path.remove(str(BENCH))
    return [t for name in ("exhaustive-small", "sample-large", "analytics-sample") for t in workloads.generate(name, 1, 1)[0]]


def test_equals_json_dumps_on_every_plan_and_report_of_the_benchmark_round():
    for text in _round_zero_plans():
        plan = VerifyPlan.from_obj(json.loads(text))
        report = run_verify(plan).to_obj()
        for obj in (plan.to_obj(), report):
            assert json_text(obj) == json.dumps(obj, indent=2)

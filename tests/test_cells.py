"""Exhaustive runners that decide each cell once, against per-case oracles.

``avweight`` decides a downset from its (size, total weight) cell, carried by
``downset_walk``; exhaustive boundary plans share one verdict table among the
generator sets of equal length and params. Each is checked here against the
route it replaced and against closed-form counts.
"""

from __future__ import annotations

from itertools import product, zip_longest
from math import prod

import numpy as np
import pytest

from isoperim import GroupSpec, SplitMix64, VerifyPlan, enumerate_downsets, run_verify
from isoperim import harness
from isoperim.boundary import BOUNDARY_THEOREMS
from isoperim.harness import downset_walk, gray_sweep_chunks
from isoperim.lattice import weight


def _reference_chains(dims):
    """The recursive enumeration the walk replaced: its order is the witness order."""
    if not dims:
        yield frozenset()
        yield frozenset({()})
        return
    lower = sorted(_reference_chains(dims[:-1]), key=lambda s: (len(s), sorted(s)))

    def extend(level, prev, acc):
        if level > dims[-1]:
            yield frozenset(acc)
            return
        for D in lower:
            if D <= prev:
                yield from extend(level + 1, D, acc + [p + (level,) for p in D])

    yield from extend(0, lower[-1], [])


# every box of one to four axes with at most 12 cells
SMALL_BOXES = [
    box
    for axes in range(1, 5)
    for box in product(range(12), repeat=axes)
    if prod(b + 1 for b in box) <= 12
]


def test_the_walk_carries_each_downsets_size_and_weight_in_enumeration_order():
    for box in SMALL_BOXES + [(3, 2, 2)]:
        walked = zip_longest(downset_walk(box), enumerate_downsets(box), _reference_chains(box))
        for k, ((size, total, chain), A, points) in enumerate(walked):
            # the set the runner rebuilds for a record, the enumerated set and the reference agree
            assert frozenset(harness._chain_points(chain)) == A.points == points, (box, k)
            assert (size, total) == (len(A), sum(weight(a) for a in A.points)), (box, k)


def _macmahon(a: int, b: int, c: int) -> int:
    """Plane partitions inside an a x b x c box: downsets of a box of a x b x c cells."""
    num = den = 1
    for i, j, k in product(range(1, a + 1), range(1, b + 1), range(1, c + 1)):
        num *= i + j + k - 1
        den *= i + j + k - 2
    return num // den


def test_the_walk_counts_macmahons_plane_partitions():
    for box in [*product(range(3), repeat=3), (3, 2, 2), (3, 3, 2)]:
        assert sum(1 for _ in downset_walk(box)) == _macmahon(*(b + 1 for b in box)), box


# Dedekind numbers: the monotone Boolean functions of n variables, the downsets of {0,1}^n
DEDEKIND = (2, 3, 6, 20, 168, 7581)


def test_the_walk_counts_the_dedekind_numbers():
    assert [sum(1 for _ in downset_walk((1,) * n)) for n in range(1, len(DEDEKIND))] == list(DEDEKIND[1:])


# -- boundary verdict tables shared by params ---------------------------------------


def _per_set_report(plan: VerifyPlan) -> tuple[list, list, list]:
    """(classes, violations, equality witnesses) with no table shared between generator sets.

    Each case takes the registry's verdict under its own set's params, called
    once per distinct (size, boundary) cell of that set's cases.
    """
    theorem = BOUNDARY_THEOREMS[plan.theorem]
    spec = GroupSpec(plan.moduli)
    classes, violations, equalities = [], [], []
    for label, gens in harness._generator_seqs(plan, spec, SplitMix64(plan.seed)):
        params = theorem.params(spec, gens)
        tally = np.zeros(4, dtype=int)
        for masks, sizes, bounds in gray_sweep_chunks(spec, gens):
            dtots = bounds.sum(axis=0)
            stride = len(gens) * spec.order + 1
            cells, inverse = np.unique(sizes.astype(np.int64) * stride + dtots, return_inverse=True)
            decided = [harness._verdict_code(theorem.verdict(params, *divmod(c, stride))) for c in cells.tolist()]
            codes = np.array(decided)[inverse]
            tally += np.bincount(codes, minlength=4)
            for r in np.flatnonzero(np.isin(codes, list(harness._RECORDED_KINDS))).tolist():
                w = harness._boundary_witness(
                    plan.theorem, spec, gens, label, params, int(masks[r]), int(sizes[r]), int(dtots[r])
                )
                (violations if w["kind"] == "violation" else equalities).append(w)
        _, vios, vac, eqs = tally.tolist()
        cases = int(tally.sum())
        classes.append({"label": label, "cases": cases, "vacuous": vac, "violations": vios, "equalities": eqs})
    return classes, violations, equalities


SHARED_TABLE_PLANS = {
    # sequences of every length 1..8, each length with tables of its own
    "cosetdecomp-c2^3-all-subsets": {
        "theorem": "cosetdecomp", "group": {"moduli": [2, 2, 2]}, "generators": {"policy": "all-subsets"},
    },
    "cosetdecomp-c3^2-all-subsets": {
        "theorem": "cosetdecomp", "group": {"moduli": [3, 3]}, "generators": {"policy": "all-subsets"},
    },
    **{
        f"{theorem}-c2^4-five-bases": {
            "theorem": theorem, "group": {"moduli": [2, 2, 2, 2]}, "seed": 11,
            "generators": {"policy": "random-generating", "count": 4, "sets": 5},
        }
        for theorem in ("bl-bound", "exp234")
    },
}


@pytest.mark.parametrize("name", sorted(SHARED_TABLE_PLANS))
def test_shared_verdict_tables_match_the_verdicts_of_each_generator_set(name):
    plan = VerifyPlan.from_obj(SHARED_TABLE_PLANS[name])
    report = run_verify(plan)
    classes, violations, equalities = _per_set_report(plan)
    assert report.classes == classes
    assert report.violations == violations
    assert report.equality_witnesses == equalities

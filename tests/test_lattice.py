"""Lattice sets: downset detection, weights, projections, inequalities."""

from __future__ import annotations

from fractions import Fraction
from itertools import product

import pytest

from isoperim import (
    LatticeSet,
    avg_weight_bound_holds,
    enumerate_downsets,
    is_downset,
    lattice_compress_along,
    loomis_whitney_feasible,
    loomis_whitney_holds,
    lw_plus_feasible,
    lw_plus_holds,
    projection_sizes,
    weight,
    weight_stats,
)
from isoperim.lattice import box_projector
from isoperim.prng import SplitMix64
from oracles import multiset_view, split_inequality_holds


def cube(n):
    return LatticeSet(n, list(product((0, 1), repeat=n)))


def random_subset(cells, rng):
    mask = rng.nonempty_mask(len(cells))
    pts = [cells[i] for i in range(len(cells)) if (mask >> i) & 1]
    return pts


def is_downset_by_majorization(A):
    """Oracle: check every coordinate-wise dominated point explicitly."""
    pts = A.points
    for a in pts:
        for z in product(*[range(c + 1) for c in a]):
            if z not in pts:
                return False
    return True


def test_weight_examples():
    assert weight((0, 0, 0)) == 0
    assert weight((3, 0, 1)) == 2
    assert sum(weight(z) for z in product((0, 1), repeat=3)) == 12


def test_is_downset_examples():
    assert is_downset(LatticeSet(3, [(0, 0, 0)]))
    assert not is_downset(LatticeSet(2, [(0, 0), (1, 1)]))


def test_is_downset_matches_majorization_oracle():
    cells = list(product(range(3), repeat=2))
    # every subset of the box [0,2]^2
    count = 0
    for mask in range(1, 1 << len(cells)):
        pts = [cells[i] for i in range(len(cells)) if (mask >> i) & 1]
        A = LatticeSet(2, pts)
        fast = is_downset(A)
        assert fast == is_downset_by_majorization(A)
        count += fast
    assert count == 19  # 20 downsets in the box minus the empty one


def test_lattice_set_validation():
    with pytest.raises(ValueError):
        LatticeSet(2, [(0, -1)])
    with pytest.raises(ValueError):
        LatticeSet(2, [(0, 0, 0)])
    with pytest.raises(ValueError):
        LatticeSet(0, [])


def test_lattice_serialization_is_sorted():
    A = LatticeSet(2, [(2, 0), (0, 0), (1, 1)])
    obj = A.to_obj()
    assert obj["points"] == sorted(obj["points"])
    assert LatticeSet.from_obj(obj) == A


def test_avg_weight_cube_equality():
    for n in range(1, 7):
        stats = weight_stats(cube(n))
        assert stats.mean_weight == Fraction(n, 2)
        assert stats.bound_holds and stats.is_equality


def test_avg_weight_examples():
    assert avg_weight_bound_holds(LatticeSet(1, [(0,)]))
    with pytest.raises(ValueError):
        avg_weight_bound_holds(LatticeSet(2, [(0, 0), (1, 1)]))  # not a downset
    with pytest.raises(ValueError):
        avg_weight_bound_holds(LatticeSet(2, []))


def test_avg_weight_all_downsets_in_small_boxes():
    for box in [(2, 2), (1, 1, 1), (2, 2, 2)]:
        for A in enumerate_downsets(box):
            if len(A):
                assert avg_weight_bound_holds(A)


def test_projection_sizes_examples():
    assert projection_sizes(LatticeSet(2, [(0, 0)])) == (1, 1)
    assert projection_sizes(cube(2)) == (2, 2)


def set_of_mask(box, cells, mask):
    return LatticeSet(len(box), [cells[i] for i in range(len(cells)) if mask >> i & 1])


@pytest.mark.parametrize("box", [(1,), (0, 2), (1, 1), (2, 2), (1, 1, 1), (0,)])
def test_box_projector_matches_projection_sizes_on_every_mask(box):
    cells = list(product(*[range(b + 1) for b in box]))
    sizes = box_projector(box)
    for mask in range(1 << len(cells)):
        assert sizes(mask) == (projection_sizes(set_of_mask(box, cells, mask)) if mask else (0,) * len(box))


@pytest.mark.parametrize("box", [(3, 1, 2), (1, 1, 1, 1, 1), (4, 4, 4), (3, 3, 3, 3), (2, 0, 3)])
def test_box_projector_matches_projection_sizes_on_seeded_masks(box):
    cells = list(product(*[range(b + 1) for b in box]))
    sizes = box_projector(box)
    rng = SplitMix64(len(cells))
    for _ in range(300):
        # dense, uniform and sparse masks
        mask = rng.mask_bits(len(cells))
        for m in (mask | rng.mask_bits(len(cells)), mask, mask & rng.mask_bits(len(cells))):
            if m:
                assert sizes(m) == projection_sizes(set_of_mask(box, cells, m)), (box, m)


def test_box_projector_rejects_bad_boxes():
    # one check serves the projector and the downset enumeration, with one message per fault
    for reader in (box_projector, lambda box: next(enumerate_downsets(box))):
        with pytest.raises(ValueError, match="^the box needs at least one axis$"):
            reader(())
        with pytest.raises(ValueError, match="^box bounds must be non-negative$"):
            reader((1, -1))


def test_downset_hyperplane_identity():
    # for downsets, |{a : a_i > 0}| = |A| - |pi_i(A)|
    for A in enumerate_downsets((2, 2, 2)):
        if not len(A):
            continue
        proj = projection_sizes(A)
        for i in range(3):
            on_axis = sum(1 for a in A.points if a[i] > 0)
            assert on_axis == len(A) - proj[i]


def test_lw_plus_examples():
    assert lw_plus_holds(LatticeSet(3, [(0, 0, 0)]))
    # five points with all three projections of size 3 cannot exist:
    assert not lw_plus_feasible(3, 5, (3, 3, 3))
    assert 4**6 == 4096 > 3125 == 5**5
    # ... although the product inequality alone would allow it
    assert loomis_whitney_feasible(5, (3, 3, 3))


def test_loomis_whitney_examples():
    assert loomis_whitney_holds(LatticeSet(1, [(0,)]))
    A = cube(3)
    proj = projection_sizes(A)
    assert 4 * 4 * 4 == len(A) ** 2  # equality for the product structure
    assert loomis_whitney_holds(A)


def test_lw_inequalities_on_random_sets():
    cells = list(product(range(4), repeat=3))
    rng = SplitMix64(23)
    for _ in range(300):
        A = LatticeSet(3, random_subset(cells, rng))
        assert lw_plus_holds(A)
        assert loomis_whitney_holds(A)


def test_lattice_compress_along():
    down = LatticeSet(2, [(0, 0), (1, 0), (0, 1)])
    assert lattice_compress_along(down, 0) == down
    assert lattice_compress_along(down, 1) == down

    assert lattice_compress_along(LatticeSet(2, [(0, 2)]), 1) == LatticeSet(2, [(0, 0)])


def test_lattice_compress_properties_random():
    cells = list(product(range(4), repeat=3))
    rng = SplitMix64(29)
    for _ in range(100):
        A = LatticeSet(3, random_subset(cells, rng))
        proj = projection_sizes(A)
        for i in range(3):
            out = lattice_compress_along(A, i)
            assert len(out) == len(A)
            assert lattice_compress_along(out, i) == out
            out_proj = projection_sizes(out)
            assert all(out_proj[j] <= proj[j] for j in range(3))


def test_multiset_view():
    single = multiset_view(LatticeSet(1, [(0,)]))
    assert single.family_size == 1 and single.support_total == 0

    chain = multiset_view(LatticeSet(1, [(0,), (1,), (2,)]))
    assert chain.family_size == 3
    assert chain.support_total == 2

    for A in enumerate_downsets((2, 2)):
        if len(A):
            assert multiset_view(A).bound_holds == avg_weight_bound_holds(A)


def test_empty_sets_are_rejected():
    # each check defers to the function that needs a non-empty set: weight_stats or a *_feasible
    empty = LatticeSet(2, [])
    for check in (avg_weight_bound_holds, multiset_view, lw_plus_holds, loomis_whitney_holds):
        with pytest.raises(ValueError, match="empty set"):
            check(empty)
    with pytest.raises(ValueError, match="the inequality requires a non-empty set"):
        lw_plus_feasible(2, 0, (0, 0))
    with pytest.raises(ValueError, match="the inequality requires a non-empty set"):
        loomis_whitney_feasible(0, (0, 0))


def test_multiset_view_requires_downset():
    with pytest.raises(ValueError):
        multiset_view(LatticeSet(2, [(1, 1)]))


def test_split_inequality_on_rational_grid():
    # 1 + (tau/2) log2 tau <= ((tau+1)/2) log2 (tau+1) for all tau >= 1
    taus = [Fraction(a, b) for b in range(1, 7) for a in range(b, 16 * b + 1)]
    for tau in taus:
        assert split_inequality_holds(tau)
    assert split_inequality_holds(Fraction(1))  # equality end point
    with pytest.raises(ValueError):
        split_inequality_holds(Fraction(1, 2))

"""Difference spectra, popular differences, and certified dimension searches."""

from __future__ import annotations

import tracemalloc
from collections import Counter
from fractions import Fraction
from itertools import combinations
from math import prod

import pytest

from isoperim import (
    GeneratorSeq,
    GroupSet,
    GroupSpec,
    build_example,
    diff_spectrum,
    dim_dissociated,
    dim_independent,
    edge_boundary,
    is_independent,
    popular_diffs,
    popular_dim_bound_holds,
    span,
)
from isoperim import popular
from isoperim.groups import coords_span_order, min_nonzero_order, p_ranks
from isoperim.prng import SplitMix64
from oracles import count_of, is_dissociated, negate


def brute_force_spectrum(A):
    """Oracle: literal double loop over ordered pairs."""
    counts: dict[tuple, int] = {}
    for a in A:
        for b in A:
            g = (a - b).coords
            counts[g] = counts.get(g, 0) + 1
    return counts


def brute_force_dissociated(B):
    """Oracle: materialize all subset sums and compare multiset sizes."""
    elems = B.elements()
    sums = set()
    total = 0
    for r in range(len(elems) + 1):
        for combo in combinations(elems, r):
            acc = B.spec.zero()
            for g in combo:
                acc = acc + g
            sums.add(acc.coords)
            total += 1
    return len(sums) == total


def test_spectrum_singleton():
    spec = GroupSpec([2, 2])
    sp = diff_spectrum(GroupSet.from_indices(spec, [0]))
    assert sp.counts[0] == 1 and sum(sp.counts) == 1


def test_spectrum_of_subgroup():
    spec = GroupSpec([2, 4])
    H = span(GeneratorSeq(spec, (spec.element([0, 1]),)))
    sp = diff_spectrum(H)
    for r in range(spec.order):
        expected = len(H) if H.has_index(r) else 0
        assert sp.counts[r] == expected


def test_spectrum_matches_brute_force(monkeypatch):
    rng = SplitMix64(31)
    for moduli in [(2, 4), (3, 3), (2, 2, 2), (12,), (2, 3, 5), (4, 4), (3, 3, 3), (2, 8)]:
        spec = GroupSpec(moduli)
        for _ in range(20):
            A = GroupSet(spec, rng.nonempty_mask(spec.order))
            sp = diff_spectrum(A)
            oracle = brute_force_spectrum(A)
            for r in range(spec.order):
                assert sp.counts[r] == oracle.get(spec.element_at(r).coords, 0)
            with monkeypatch.context() as m:
                m.setattr(popular, "_SPECTRUM_BLOCK", 1)  # one row of differences per block
                assert diff_spectrum(A) == sp


def test_spectrum_memory_stays_bounded_on_dense_sets():
    # dense sets on C2^12 and C_4096: a whole |A| x |A| difference table peaks near 800 MB and 90 MB
    for moduli in [(2,) * 12, (4096,)]:
        spec = GroupSpec(moduli)
        A = GroupSet(spec, SplitMix64(41).mask_bits(spec.order))
        tracemalloc.start()
        try:
            sp = diff_spectrum(A)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sp.counts[0] == len(A) > 1800 and sum(sp.counts) == len(A) ** 2
        assert peak < 64 << 20


def test_spectrum_invariants():
    rng = SplitMix64(37)
    spec = GroupSpec([2, 4])
    for _ in range(30):
        A = GroupSet(spec, rng.nonempty_mask(spec.order))
        sp = diff_spectrum(A)
        assert sp.counts[0] == len(A)
        assert sum(sp.counts) == len(A) ** 2
        for r in range(spec.order):
            neg = spec.index_of(-spec.element_at(r))
            assert sp.counts[r] == sp.counts[neg]
        g = spec.element_at(rng.below(spec.order))
        assert diff_spectrum(A.translate(g)).counts == sp.counts


# -- batched counts and thresholds against the single-set spectrum -----------------

COUNT_GROUPS_EVERY_SUBSET = [(2, 2, 2, 2), (4, 4), (2, 8), (3, 5)]
# C2^6 fills a uint64 word; C3^5 and C2^10 take the int-mask route
COUNT_GROUPS_SEEDED = [(3, 3, 3), (2, 4, 4), (2,) * 6, (3,) * 5, (2,) * 10]


@pytest.mark.parametrize(
    "moduli", COUNT_GROUPS_EVERY_SUBSET + COUNT_GROUPS_SEEDED, ids=lambda m: "x".join(map(str, m))
)
def test_batched_counts_match_the_spectrum(moduli):
    spec = GroupSpec(moduli)
    if moduli in COUNT_GROUPS_EVERY_SUBSET:
        ints = list(range(1, 1 << spec.order))
    else:
        rng = SplitMix64(prod(moduli))
        ints = [(1 << spec.order) - 1] + [rng.nonempty_mask(spec.order) for _ in range(16)]
    counts = popular.diff_counts(spec, ints)
    assert counts.shape == (spec.order, len(ints))
    for mask, row in zip(ints, counts.T.tolist()):
        assert tuple(row) == diff_spectrum(GroupSet(spec, mask)).counts, mask


def reference_popular_mask(counts, gamma):
    """Reference: the threshold as a loop over exact Python-int products, |A| = r(0)."""
    return sum(1 << g for g, c in enumerate(counts) if c * gamma.denominator >= gamma.numerator * counts[0])


@pytest.mark.parametrize("moduli", [(2, 4, 4), (2,) * 6, (3,) * 5], ids=lambda m: "x".join(map(str, m)))
def test_popular_masks_match_the_threshold_loop(moduli):
    spec = GroupSpec(moduli)
    rng = SplitMix64(prod(moduli) + 1)
    ints = [1, (1 << spec.order) - 1] + [rng.nonempty_mask(spec.order) for _ in range(30)]
    counts = popular.diff_counts(spec, ints)
    # den * |A| passes 2**63 for the last two, so they are compared as Python ints, not in int64
    for gamma in (Fraction(1, 4), Fraction(1, 2), Fraction(2, 3), Fraction(1), Fraction(1, 2**62),
                  Fraction(2**62 - 1, 2**62)):
        expected = [reference_popular_mask(col, gamma) for col in counts.T.tolist()]
        assert popular.popular_masks(counts, gamma) == expected, gamma
        assert [popular_diffs(GroupSet(spec, m), gamma).mask for m in ints] == expected, gamma


def test_popular_diffs_examples():
    spec = GroupSpec([2, 2])
    A = GroupSet.from_elements(spec, [spec.element([0, 0]), spec.element([1, 0])])
    P = popular_diffs(A, Fraction(1))
    assert sorted(g.coords for g in P) == [(0, 0), (1, 0)]
    assert spec.zero() in popular_diffs(A, Fraction(1, 2))


def test_popular_diffs_monotone_and_symmetric():
    rng = SplitMix64(41)
    spec = GroupSpec([3, 3])
    gammas = [Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1)]
    for _ in range(20):
        A = GroupSet(spec, rng.nonempty_mask(spec.order))
        sets = [popular_diffs(A, g) for g in gammas]
        for small, big in zip(sets, sets[1:]):
            assert big.issubset(small)
        for P in sets:
            assert spec.zero() in P
            assert negate(P) == P


def test_popular_diffs_range_check():
    spec = GroupSpec([2, 2])
    A = GroupSet.full(spec)
    with pytest.raises(ValueError):
        popular_diffs(A, Fraction(0))
    with pytest.raises(ValueError):
        popular_diffs(A, Fraction(3, 2))


def test_example4_spectrum_and_popular_set():
    inst = build_example("ex4", m=2, n=4, k=2)
    sp = diff_spectrum(inst.subset)
    for r in inst.subset.indices():
        if r != 0:
            assert sp.counts[r] == 4
    gamma = Fraction(4, len(inst.subset))
    assert inst.subset.issubset(popular_diffs(inst.subset, gamma))


def test_is_dissociated_examples():
    spec = GroupSpec([2, 2])
    e1, e2 = spec.standard_basis()
    assert is_dissociated(GroupSet.from_elements(spec, [e1]))
    assert not is_dissociated(GroupSet.from_elements(spec, [e1, e2, e1 + e2]))
    assert not is_dissociated(GroupSet.from_indices(spec, [0]))  # 0 collides with the empty sum


def test_is_dissociated_matches_brute_force():
    for moduli in [(2, 2, 2), (3, 3)]:
        spec = GroupSpec(moduli)
        for mask in range(1, 1 << spec.order):
            B = GroupSet(spec, mask)
            if len(B) > 5:
                continue
            assert is_dissociated(B) == brute_force_dissociated(B)


def test_independent_implies_dissociated():
    for moduli in [(2, 2, 2), (3, 3)]:
        spec = GroupSpec(moduli)
        elems = [g for g in spec.elements() if not g.is_zero]
        for size in (1, 2, 3):
            for combo in combinations(elems, size):
                if is_independent(GeneratorSeq(spec, combo)):
                    assert is_dissociated(GroupSet.from_elements(spec, combo))


def test_is_dissociated_cap():
    spec = GroupSpec([2, 2, 2])
    with pytest.raises(ValueError):
        is_dissociated(GroupSet.full(spec), cap=4)


def brute_force_dim(P, predicate):
    """Oracle: scan all subsets of the candidate pool."""
    elems = [g for g in P if not g.is_zero]
    best = 0
    for r in range(1, len(elems) + 1):
        for combo in combinations(elems, r):
            if predicate(combo):
                best = max(best, r)
    return best


def test_dim_examples():
    spec = GroupSpec([2, 2])
    zero_only = GroupSet.from_indices(spec, [0])
    assert dim_independent(zero_only).value == 0
    assert dim_dissociated(zero_only).value == 0

    punctured = GroupSet.full(spec) - zero_only
    assert dim_independent(punctured).value == 2

    spec24 = GroupSpec([2, 4])
    res = dim_independent(GroupSet.full(spec24))
    assert res.value == 2
    assert is_independent(GeneratorSeq(spec24, tuple(res.witness.elements())))


def test_dim_search_matches_enumeration():
    spec = GroupSpec([2, 4])
    rng = SplitMix64(43)

    def indep(combo):
        return is_independent(GeneratorSeq(spec, combo))

    def dissoc(combo):
        return is_dissociated(GroupSet.from_elements(spec, combo))

    for mask in range(1, 1 << spec.order):
        P = GroupSet(spec, mask)
        assert dim_independent(P).value == brute_force_dim(P, indep)
        assert dim_dissociated(P).value == brute_force_dim(P, dissoc)

    spec33 = GroupSpec([3, 3])

    def indep33(combo):
        return is_independent(GeneratorSeq(spec33, combo))

    for _ in range(30):
        P = GroupSet(spec33, rng.nonempty_mask(spec33.order))
        assert dim_independent(P).value == brute_force_dim(P, indep33)


def test_dim_witnesses_pass_their_predicates():
    rng = SplitMix64(47)
    spec = GroupSpec([4, 4])
    for _ in range(50):
        P = GroupSet(spec, rng.nonempty_mask(spec.order))
        ri = dim_independent(P)
        rd = dim_dissociated(P)
        assert ri.witness.issubset(P) and rd.witness.issubset(P)
        assert len(ri.witness) == ri.value and len(rd.witness) == rd.value
        if ri.value:
            assert is_independent(GeneratorSeq(spec, tuple(ri.witness.elements())))
        if rd.value:
            assert is_dissociated(rd.witness)
        assert ri.value <= rd.value


def test_dim_cap_enforced():
    spec = GroupSpec([2, 2, 2, 2, 2])
    with pytest.raises(ValueError):
        dim_independent(GroupSet.full(spec), cap=16)


def test_dimensions_coincide_for_small_exponent():
    spec = GroupSpec([2, 2, 2])
    for mask in range(1, 1 << spec.order):
        P = GroupSet(spec, mask)
        assert dim_independent(P).value == dim_dissociated(P).value


@pytest.mark.parametrize("moduli", [(2, 2, 2, 2), (3, 3), (3, 3, 3), (2,) * 6], ids=lambda m: "x".join(map(str, m)))
def test_greedy_dissociated_search_matches_backtracking(moduli):
    # at exponent 2 and 3 a dissociated set is a linearly independent one, so the
    # greedy pass gives the backtracking search's value and witness
    spec = GroupSpec(moduli)
    if spec.order <= 16:
        masks = range(1, 1 << spec.order)
    else:
        rng = SplitMix64(prod(moduli) + 2)
        masks = [rng.nonempty_mask(spec.order) for _ in range(300)]
    upper = spec.order.bit_length() - 1
    for mask in masks:
        P = GroupSet(spec, mask)
        res = dim_dissociated(P, cap=spec.order)
        ref = popular._largest_subset(
            P, spec.order, "dissociated", upper, GroupSpec.shifter_at, popular._admit_dissociated
        )
        assert (res.value, res.witness.mask) == (ref.value, ref.witness.mask), P


@pytest.mark.parametrize("moduli", [(2, 2, 2), (3, 3)], ids=lambda m: "x".join(map(str, m)))
def test_greedy_dissociated_search_matches_enumeration(moduli):
    spec = GroupSpec(moduli)

    def dissoc(combo):
        return is_dissociated(GroupSet.from_elements(spec, combo))

    for mask in range(1, 1 << spec.order):
        P = GroupSet(spec, mask)
        assert dim_dissociated(P).value == brute_force_dim(P, dissoc), P


# -- mask searches against the per-element searches they replaced ------------------


def reference_dim_independent(P):
    """Reference: the per-element independence search, translating spans bit by bit.

    Same DFS order and early stop as ``dim_independent``, with the
    floor(log_p |G|) bound only, so it returns the same value and witness.
    """
    spec = P.spec
    cands = [r for r in P.indices() if r != 0]
    if not cands:
        return 0, 0
    p = min_nonzero_order(spec)
    upper = max(k for k in range(spec.order.bit_length() + 1) if p**k <= spec.order)
    mults = {}
    for r in cands:
        perm = spec.add_perm(spec.element_at(r))
        chain = []
        q = perm[0]
        while q != 0:
            chain.append(q)
            q = perm[q]
        mults[r] = chain
    best = [()]

    def grow(start, chosen, span_mask):
        if len(chosen) > len(best[0]):
            best[0] = chosen
        if len(best[0]) == upper or len(chosen) + (len(cands) - start) <= len(best[0]):
            return
        for j in range(start, len(cands)):
            r = cands[j]
            if any((span_mask >> q) & 1 for q in mults[r]):
                continue
            new_span = span_mask
            for q in mults[r]:
                perm = spec.add_perm(spec.element_at(q))
                new_span |= sum(1 << perm[b] for b in range(spec.order) if (span_mask >> b) & 1)
            grow(j + 1, chosen + (r,), new_span)
            if len(best[0]) == upper:
                return

    grow(0, (), 1)
    return len(best[0]), sum(1 << r for r in best[0])


def reference_dim_dissociated(P):
    """Reference: the dissociativity search over frozensets of subset sums."""
    spec = P.spec
    cands = [r for r in P.indices() if r != 0]
    if not cands:
        return 0, 0
    upper = spec.order.bit_length() - 1
    perms = {r: spec.add_perm(spec.element_at(r)) for r in cands}
    best = [()]

    def grow(start, chosen, sums):
        if len(chosen) > len(best[0]):
            best[0] = chosen
        if len(best[0]) == upper or len(chosen) + (len(cands) - start) <= len(best[0]):
            return
        for j in range(start, len(cands)):
            shifted = frozenset(perms[cands[j]][s] for s in sums)
            if not shifted.isdisjoint(sums):
                continue
            grow(j + 1, chosen + (cands[j],), sums | shifted)
            if len(best[0]) == upper:
                return

    grow(0, (), frozenset({0}))
    return len(best[0]), sum(1 << r for r in best[0])


SEARCH_GROUPS = [
    (2, 2, 2), (2, 2, 2, 2), (2, 2, 2, 2, 2), (2,) * 6, (3, 3), (3, 3, 3), (2, 4), (4, 4), (2, 4, 4),
    (2, 8), (4, 8), (6,), (2, 3), (6, 6), (12,), (2, 2, 3), (3, 9), (5, 5),
]


@pytest.mark.parametrize("moduli", SEARCH_GROUPS, ids=lambda m: "x".join(map(str, m)))
def test_dim_searches_match_the_per_element_references(moduli):
    # the full group, then dense (about 3/4) and sparse (about 1/4) popular sets
    spec = GroupSpec(moduli)
    rng = SplitMix64(prod(moduli))
    full = (1 << spec.order) - 1
    masks = [full]
    for _ in range(12):
        masks.append(rng.mask_bits(spec.order) | rng.mask_bits(spec.order))
        masks.append(rng.mask_bits(spec.order) & rng.mask_bits(spec.order))
    for mask in masks:
        P = GroupSet(spec, mask)
        ind = dim_independent(P, cap=spec.order)
        assert (ind.value, ind.witness.mask) == reference_dim_independent(P), (P, "independent")
        dis = dim_dissociated(P, cap=spec.order)
        assert (dis.value, dis.witness.mask) == reference_dim_dissociated(P), (P, "dissociated")


def test_independent_dimension_of_whole_groups_is_the_p_rank_sum():
    # C6xC6 = C2^2 + C3^2 has four independent elements; C2xC4xC4 has three,
    # although 2**5 <= 32 would allow five
    for moduli, dim in (((6, 6), 4), ((2, 4, 4), 3), ((3, 9), 2), ((12,), 2), ((2,) * 6, 6)):
        spec = GroupSpec(moduli)
        res = dim_independent(GroupSet.full(spec), cap=spec.order)
        assert res.value == dim == sum(p_ranks(spec).values())
        assert is_independent(GeneratorSeq(spec, tuple(res.witness.elements())))


def test_dim_searches_work_on_masks(monkeypatch):
    # one element lookup per candidate (filling the cyclic-closure cache), no index permutation
    calls = Counter()
    element_at, add_perm = GroupSpec.element_at, GroupSpec.add_perm

    def counted_element_at(spec, r):
        calls["element_at"] += 1
        return element_at(spec, r)

    def counted_add_perm(spec, g):
        calls["add_perm"] += 1
        return add_perm(spec, g)

    monkeypatch.setattr(GroupSpec, "element_at", counted_element_at)
    monkeypatch.setattr(GroupSpec, "add_perm", counted_add_perm)
    for search in (dim_independent, dim_dissociated):
        spec = GroupSpec([2, 4, 4])
        calls.clear()
        search(GroupSet.full(spec), cap=spec.order)
        assert calls["add_perm"] == 0
        assert calls["element_at"] <= spec.order - 1
    spec = GroupSpec([3, 3, 3])
    calls.clear()
    assert not is_dissociated(GroupSet(spec, 0b1110))
    assert calls["add_perm"] == 0 and calls["element_at"] <= 3


def _log(p, order):
    """k with p**k == order, for a subgroup order of an elementary abelian p-group."""
    k = 0
    while order > 1:
        order, rest = divmod(order, p)
        assert rest == 0
        k += 1
    return k


def _assert_ranks(spec, masks):
    """``independent_dims`` equals the search and the F_p-rank log_p |<P>| on every mask, with no search run."""
    p = spec.exponent
    searched = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(popular, "dim_independent", lambda P, cap: searched.append(P.mask))
        dims = popular.independent_dims(spec, [masks], cap=spec.order)
    assert searched == [] and dims.shape == (1, len(masks))
    coords = [spec.coords_at(r) for r in range(spec.order)]
    for mask, dim in zip(masks, dims[0].tolist()):
        P = GroupSet(spec, mask)
        rank = _log(p, coords_span_order(spec.moduli, [coords[r] for r in P.indices()]))
        assert dim == dim_independent(P, cap=spec.order).value == rank, P


@pytest.mark.parametrize("moduli", [(2, 2, 2, 2), (3, 3)], ids=lambda m: "x".join(map(str, m)))
def test_independent_dims_is_the_rank_on_every_popular_mask(moduli):
    # every set that contains 0, as every popular set does
    spec = GroupSpec(moduli)
    _assert_ranks(spec, list(range(1, 1 << spec.order, 2)))


@pytest.mark.parametrize("moduli", [(2,) * 5, (2,) * 6, (3, 3, 3), (5, 5), (7, 7)], ids=lambda m: "x".join(map(str, m)))
def test_independent_dims_is_the_rank_on_seeded_masks(moduli):
    # dense and sparse sets, with and without 0
    spec = GroupSpec(moduli)
    rng = SplitMix64(spec.order)
    masks = [1, (1 << spec.order) - 1]
    for _ in range(150):
        masks.append(rng.mask_bits(spec.order) | rng.mask_bits(spec.order))
        masks.append(rng.mask_bits(spec.order) & rng.mask_bits(spec.order) & rng.mask_bits(spec.order))
    _assert_ranks(spec, masks)


@pytest.mark.parametrize("moduli", [(2, 4, 4), (2, 2, 4), (2,) * 8], ids=lambda m: "x".join(map(str, m)))
def test_independent_dims_searches_mixed_and_large_groups_once_per_set(monkeypatch, moduli):
    spec = GroupSpec(moduli)
    rng = SplitMix64(7)
    sets = [rng.nonempty_mask(spec.order) | 1 for _ in range(20)]
    populars = [sets, sets[::-1], [1] * len(sets)]
    searched = []

    def counted(P, cap):
        searched.append(P.mask)
        return dim_independent(P, cap)

    monkeypatch.setattr(popular, "dim_independent", counted)
    memo = {}
    dims = popular.independent_dims(spec, populars, cap=spec.order, memo=memo)
    assert sorted(searched) == sorted(set(sets) | {1})
    assert dims.tolist() == [[dim_independent(GroupSet(spec, P), spec.order).value for P in row] for row in populars]
    popular.independent_dims(spec, populars, cap=spec.order, memo=memo)  # a carried memo searches nothing again
    assert len(searched) == len(set(sets) | {1})


def _first_cap_error(spec, populars, cap):
    """Reference: the message of the first search in (set, gamma) order that the cap refuses, or None."""
    for row in zip(*populars):
        for P in row:
            try:
                dim_independent(GroupSet(spec, P), cap=cap)
            except ValueError as exc:
                return str(exc)
    return None


@pytest.mark.parametrize("moduli", [(2, 2, 2, 2), (2, 4), (2,) * 8], ids=lambda m: "x".join(map(str, m)))
def test_independent_dims_refuses_the_first_set_over_the_cap(moduli):
    # every cap from 0 to the largest size: the refused set and its size move with the cap
    spec = GroupSpec(moduli)
    rng = SplitMix64(11)
    populars = [[rng.nonempty_mask(spec.order) for _ in range(12)] for _ in range(3)]
    largest = max(P.bit_count() for row in populars for P in row)
    for cap in range(largest + 1):
        expected = _first_cap_error(spec, populars, cap)
        assert (expected is None) == (cap == largest)
        if expected is None:
            popular.independent_dims(spec, populars, cap=cap)
        else:
            with pytest.raises(ValueError) as exc:
                popular.independent_dims(spec, populars, cap=cap)
            assert str(exc.value) == expected


def test_popular_dim_bound_trivial_set():
    spec = GroupSpec([2, 2])
    assert popular_dim_bound_holds(GroupSet.from_indices(spec, [0]), Fraction(1, 2))


def test_popular_dim_bound_example4():
    inst = build_example("ex4", m=2, n=4, k=2)
    gamma = Fraction(4, 7)
    P = popular_diffs(inst.subset, gamma)
    assert dim_independent(P, cap=32).value == 4
    assert popular_dim_bound_holds(inst.subset, gamma, cap=32)


def test_popular_dim_bound_random():
    rng = SplitMix64(53)
    for moduli in [(2, 2, 2), (3, 3)]:
        spec = GroupSpec(moduli)
        for _ in range(20):
            A = GroupSet(spec, rng.nonempty_mask(spec.order))
            for gamma in (Fraction(1, 4), Fraction(1, 2), Fraction(1)):
                assert popular_dim_bound_holds(A, gamma, cap=32)


def test_popular_dim_bound_gamma_range():
    spec = GroupSpec([2, 2])
    with pytest.raises(ValueError):
        popular_dim_bound_holds(GroupSet.full(spec), Fraction(0))


def test_popular_dim_bound_rejects_the_empty_set():
    # the difference spectrum is what rejects it
    with pytest.raises(ValueError, match="non-empty set"):
        popular_dim_bound_holds(GroupSet.empty(GroupSpec([2, 2])), Fraction(1, 2))


def test_popular_witness_gives_small_boundary():
    # independent S inside the gamma-popular set forces a small edge boundary
    rng = SplitMix64(59)
    spec = GroupSpec([2, 2, 2, 2])
    gamma = Fraction(1, 2)
    for _ in range(30):
        A = GroupSet(spec, rng.nonempty_mask(spec.order))
        P = popular_diffs(A, gamma)
        res = dim_independent(P, cap=32)
        if res.value == 0:
            continue
        S = GeneratorSeq(spec, tuple(res.witness.elements()))
        sp = diff_spectrum(A)
        assert all(count_of(sp, s) * gamma.denominator >= gamma.numerator * len(A) for s in S)
        stats = edge_boundary(A, S)
        assert stats.total * gamma.denominator <= (gamma.denominator - gamma.numerator) * len(S) * len(A)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_popular_kernel_verdicts_agree_with_their_sides(p):
    # ok <=> lhs >= rhs and equality <=> lhs == rhs; the bound has no slack, so nothing is vacuous
    from isoperim.boundary import power_product

    forms = [(popular.classify_popular_dim, popular.popular_dim_sides, (p,))]
    if p == 3:
        forms.append((popular.classify_popular_dim_exp3, popular.popular_dim_exp3_sides, ()))
    equalities = 0
    for kernel, sides, lead in forms:
        for gamma in map(Fraction, ("1/4", "1/2", "2/3", "1")):
            for size in range(1, 65):
                for dim in range(9):
                    v = kernel(*lead, gamma, size, dim)
                    lhs, rhs, slack = sides(*lead, gamma, size, dim)
                    lhs, rhs = power_product(lhs), power_product(rhs)
                    assert slack is None and not v.vacuous
                    assert v.ok == (lhs >= rhs) and v.equality == (lhs == rhs), (kernel, gamma, size, dim)
                    equalities += v.equality
    assert equalities > 0

"""Group arithmetic, indexing, spans, independence, cosets."""

from __future__ import annotations

from itertools import combinations, permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isoperim import (
    GeneratorSeq,
    GroupSet,
    GroupSpec,
    SpecMismatchError,
    add,
    is_independent,
    min_nonzero_order,
    order_of,
    span,
)
from isoperim.groups import (
    MAX_ORDER_ENV,
    coords_span_order,
    min_generators,
    p_ranks,
    span_order,
    translate_mask,
)
from isoperim.prng import SplitMix64
from oracles import NotASubgroupError, coset_decompose, negate
from test_compare import invariant_factor_groups


def brute_force_order(g):
    """Oracle: repeated addition until zero."""
    k = 1
    acc = g
    while not acc.is_zero:
        acc = acc + g
        k += 1
    return k


def brute_force_span(spec, gens):
    """Oracle: closure of {0} under adding generators, via plain sets."""
    seen = {spec.zero().coords}
    changed = True
    while changed:
        changed = False
        for c in list(seen):
            for s in gens:
                t = (spec.element(c) + s).coords
                if t not in seen:
                    seen.add(t)
                    changed = True
    return seen


def test_add_examples():
    spec = GroupSpec([2, 4])
    assert add(spec.element([1, 1]), spec.element([1, 3])) == spec.zero()
    g = spec.element([1, 2])
    assert g + spec.zero() == g
    assert add(spec.element([1, 2]), spec.element([0, 3])) == spec.element([1, 1])


def test_add_spec_mismatch():
    with pytest.raises(SpecMismatchError):
        add(GroupSpec([2, 2]).element([1, 0]), GroupSpec([4]).element([1]))


def test_order_of():
    spec = GroupSpec([2, 4])
    assert order_of(spec.zero()) == 1
    assert order_of(spec.element([1, 0])) == 2
    g = spec.element([1, 1])
    assert brute_force_order(g) == 4
    assert order_of(g) == 4


def test_order_of_agrees_with_brute_force_everywhere():
    for moduli in [(2, 4), (3, 3), (6,), (2, 2, 2), (2, 3)]:
        spec = GroupSpec(moduli)
        for g in spec.elements():
            assert order_of(g) == brute_force_order(g)


def test_span_examples():
    spec = GroupSpec([2, 4])
    s = span(GeneratorSeq(spec, (spec.element([1, 0]),)))
    assert sorted(g.coords for g in s) == [(0, 0), (1, 0)]

    spec33 = GroupSpec([3, 3])
    assert len(span(spec33.standard_basis())) == 9

    # (1,2) has order 2 in C_2 x C_4, so its span has exactly two elements
    g = spec.element([1, 2])
    closure = brute_force_span(spec, [g])
    s = span(GeneratorSeq(spec, (g,)))
    assert {e.coords for e in s} == closure
    assert len(s) == 2


def test_span_of_empty_sequence_is_trivial():
    spec = GroupSpec([2, 2])
    assert len(span(GeneratorSeq(spec, ()))) == 1


def test_is_independent_examples():
    spec = GroupSpec([2, 2, 2])
    assert is_independent(spec.standard_basis())

    spec22 = GroupSpec([2, 2])
    e1, e2 = spec22.standard_basis()
    assert not is_independent(GeneratorSeq(spec22, (e1, e2, e1 + e2)))

    spec24 = GroupSpec([2, 4])
    seq = GeneratorSeq(spec24, (spec24.element([1, 0]), spec24.element([0, 2])))
    assert len(span(seq)) == 4
    assert is_independent(seq)


def brute_force_independent(seq):
    """Oracle: every vanishing combination has all summands zero."""
    from itertools import product

    spec = seq.spec
    ranges = [range(order_of(s)) for s in seq]
    for ks in product(*ranges):
        total = spec.zero()
        summands = []
        for k, s in zip(ks, seq):
            part = spec.zero()
            for _ in range(k):
                part = part + s
            summands.append(part)
            total = total + part
        if total.is_zero and any(not p.is_zero for p in summands):
            return False
    return True


def test_is_independent_matches_combination_oracle():
    from itertools import combinations

    for moduli in [(2, 4), (2, 2, 2), (3, 3), (6,), (2, 2, 3), (4, 4)]:
        spec = GroupSpec(moduli)
        elems = list(spec.elements())
        for size in (1, 2, 3):
            for combo in combinations(elems, size):
                seq = GeneratorSeq(spec, combo)
                assert is_independent(seq) == brute_force_independent(seq)


def test_min_nonzero_order():
    assert min_nonzero_order(GroupSpec([3, 3])) == 3
    assert min_nonzero_order(GroupSpec([2, 4])) == 2
    spec6 = GroupSpec([6])
    assert min_nonzero_order(spec6) == 2
    assert min(brute_force_order(g) for g in spec6.elements() if not g.is_zero) == 2


def test_index_roundtrip_exhaustive():
    for moduli in [(2, 4), (3, 2, 2), (5,), (2, 3, 4)]:
        spec = GroupSpec(moduli)
        for r in range(spec.order):
            assert spec.index_of(spec.element_at(r)) == r


@given(st.lists(st.integers(min_value=2, max_value=6), min_size=1, max_size=4))
@settings(max_examples=50, deadline=None)
def test_index_roundtrip_random_specs(moduli):
    spec = GroupSpec(moduli)
    for r in range(0, spec.order, max(1, spec.order // 16)):
        assert spec.index_of(spec.element_at(r)) == r


@given(
    st.lists(st.integers(min_value=2, max_value=5), min_size=1, max_size=3),
    st.integers(min_value=0),
    st.integers(min_value=0),
    st.integers(min_value=0),
)
@settings(max_examples=100, deadline=None)
def test_group_laws(moduli, a, b, c):
    spec = GroupSpec(moduli)
    x = spec.element_at(a % spec.order)
    y = spec.element_at(b % spec.order)
    z = spec.element_at(c % spec.order)
    assert x + y == y + x
    assert (x + y) + z == x + (y + z)
    assert (x + (-x)).is_zero


def test_span_closed_under_add_and_negation():
    spec = GroupSpec([2, 4])
    for coords in [[(1, 1)], [(1, 0), (0, 2)], [(1, 2), (0, 1)]]:
        s = span(GeneratorSeq(spec, tuple(spec.element(c) for c in coords)))
        assert spec.zero() in s
        for g in s:
            assert -g in s
            for h in s:
                assert g + h in s


def test_group_size_cap(monkeypatch):
    monkeypatch.setenv(MAX_ORDER_ENV, "8")
    with pytest.raises(ValueError):
        GroupSpec([2] * 4)
    monkeypatch.setenv(MAX_ORDER_ENV, "16")
    assert GroupSpec([2] * 4).order == 16


def test_spec_rejects_bad_moduli():
    with pytest.raises(ValueError):
        GroupSpec([])
    with pytest.raises(ValueError):
        GroupSpec([1, 2])


def test_rank_only_for_homocyclic():
    assert GroupSpec([3, 3]).rank == 2
    with pytest.raises(ValueError):
        _ = GroupSpec([2, 4]).rank


def test_generator_seq_rejects_duplicates():
    spec = GroupSpec([2, 2])
    e1 = spec.element([1, 0])
    with pytest.raises(ValueError):
        GeneratorSeq(spec, (e1, e1))


def test_set_operations_and_serialization():
    spec = GroupSpec([2, 4])
    A = GroupSet.from_elements(spec, [spec.element([0, 1]), spec.element([1, 3])])
    B = GroupSet.from_indices(spec, [0, 1])
    assert len(A | B) == 4
    assert len(A & B) == 0
    assert (A | B) - A == B
    assert A.issubset(A | B)

    obj = A.to_obj()
    assert obj["group"] == {"moduli": [2, 4]}
    # canonical order is index order
    assert obj["elements"] == sorted(obj["elements"], key=lambda c: spec.index_of(spec.element(c)))
    assert GroupSet.from_obj(obj) == A

    seq = GeneratorSeq(spec, (spec.element([1, 3]), spec.element([0, 1])))
    assert GeneratorSeq.from_obj(seq.to_obj()) == seq  # order preserved


def test_translate_and_negate():
    spec = GroupSpec([3, 3])
    A = GroupSet.from_elements(spec, [spec.element([0, 0]), spec.element([1, 2])])
    g = spec.element([2, 1])
    shifted = A.translate(g)
    assert {e.coords for e in shifted} == {(2, 1), (0, 0)}
    assert {e.coords for e in negate(A)} == {(0, 0), (2, 1)}


def _negate_by_elements(A):
    """Oracle: reflect A one element at a time."""
    spec = A.spec
    return GroupSet.from_indices(spec, (spec.index_of(-spec.element_at(r)) for r in A.indices()))


def test_negate_every_mask_c3xc4():
    spec = GroupSpec([3, 4])
    for mask in range(1 << spec.order):
        A = GroupSet(spec, mask)
        assert negate(A) == _negate_by_elements(A)


@pytest.mark.parametrize("moduli", [(4,) * 7, (5, 8)])
def test_negate_seeded_masks(moduli):
    spec = GroupSpec(moduli)
    rng = SplitMix64(sum(moduli))
    for _ in range(3):
        A = GroupSet(spec, rng.mask_bits(spec.order))
        assert negate(A) == _negate_by_elements(A)
        assert negate(negate(A)) == A


def brute_force_cosets(A, H):
    """Oracle: sort members of A into cosets by pairwise difference membership."""
    buckets = []
    for a in A:
        for bucket in buckets:
            if (a - bucket[0]) in H:
                bucket.append(a)
                break
        else:
            buckets.append([a])
    return {frozenset(g.coords for g in b) for b in buckets}


def test_coset_decompose_examples():
    spec = GroupSpec([2, 2])
    G = GroupSet.full(spec)
    parts = coset_decompose(G, G)
    assert len(parts) == 1 and parts[0][1] == G

    H = span(GeneratorSeq(spec, (spec.element([1, 0]),)))
    A = GroupSet.from_elements(spec, [spec.element([0, 0]), spec.element([1, 1])])
    parts = coset_decompose(A, H)
    assert len(parts) == 2
    assert all(len(p) == 1 for _, p in parts)


def test_coset_decompose_against_oracle():
    from isoperim.prng import SplitMix64

    spec = GroupSpec([2, 4])
    H = span(GeneratorSeq(spec, (spec.element([0, 1]),)))
    rng = SplitMix64(99)
    for _ in range(50):
        A = GroupSet(spec, rng.nonempty_mask(spec.order))
        parts = coset_decompose(A, H)
        assert sum(len(p) for _, p in parts) == len(A)
        masks = [p.mask for _, p in parts]
        for i in range(len(masks)):
            for j in range(i + 1, len(masks)):
                assert masks[i] & masks[j] == 0
        for rep, part in parts:
            assert rep in part
            assert part.translate(-rep).issubset(H)
        assert {frozenset(g.coords for g in p) for _, p in parts} == brute_force_cosets(A, H)


def test_coset_decompose_rejects_non_subgroup():
    spec = GroupSpec([2, 2])
    not_subgroup = GroupSet.from_elements(spec, [spec.element([1, 0])])
    with pytest.raises(NotASubgroupError):
        coset_decompose(GroupSet.full(spec), not_subgroup)


@pytest.mark.parametrize("moduli", [(2, 4), (3, 3), (2, 2, 2)])
def test_coset_decompose_rejects_exactly_the_sets_that_are_not_their_own_span(moduli):
    spec = GroupSpec(moduli)
    A = GroupSet.full(spec)
    for mask in range(1 << spec.order):
        H = GroupSet(spec, mask)
        closed = span(GeneratorSeq(spec, H.elements())) == H
        assert closed <= H.has_index(0)
        if closed:
            assert sum(len(part) for _, part in coset_decompose(A, H)) == spec.order
        else:
            with pytest.raises(NotASubgroupError):
                coset_decompose(A, H)


# -- the roll kernel against the per-element permutation ----------------------


def assert_rolls_match_perm(spec, gs, masks):
    for g in gs:
        shifter = spec.shift_table(g)
        perm = spec.add_perm(g)
        for mask in masks:
            assert shifter.apply(mask) == translate_mask(mask, perm), (spec, g, mask)


@pytest.mark.parametrize("moduli", [(2, 3, 4), (3, 3, 3), (5, 2), (4, 2, 8)])
def test_shifter_apply_matches_add_perm(moduli):
    spec = GroupSpec(moduli)
    if spec.order <= 10:
        masks = range(1 << spec.order)
    else:
        rng = SplitMix64(spec.order)
        masks = [0, (1 << spec.order) - 1] + [rng.mask_bits(spec.order) for _ in range(40)]
    assert_rolls_match_perm(spec, list(spec.elements()), masks)


@pytest.mark.parametrize("moduli", [(2,) * 14, (4,) * 7, (2, 2, 4, 4, 4, 16)])
def test_shifter_apply_matches_add_perm_on_large_groups(moduli):
    spec = GroupSpec(moduli)
    rng = SplitMix64(len(moduli))
    gs = [spec.element_at(rng.below(spec.order)) for _ in range(8)] + [spec.zero()]
    assert_rolls_match_perm(spec, gs, [rng.mask_bits(spec.order) for _ in range(3)])


@pytest.mark.parametrize("moduli", [(2, 2, 2, 2), (4, 4), (2, 8), (2, 4, 4), (32,)])
def test_shifter_apply_array_matches_apply(moduli):
    spec = GroupSpec(moduli)
    if spec.order <= 16:
        masks = np.arange(1 << spec.order, dtype=np.uint32)
    else:
        rng = SplitMix64(7)
        masks = np.array([rng.mask_bits(spec.order) for _ in range(64)], dtype=np.uint32)
    assert_array_kernels_match_int_kernels(spec, masks)


@pytest.mark.parametrize("moduli", [(2,) * 6, (4, 4, 4), (2, 4, 8)])
def test_shifter_apply_uint64_array_matches_apply(moduli):
    # |G| = 64 fills the word: the top roll constants reach bit 63 and the array stays uint64
    spec = GroupSpec(moduli)
    rng = SplitMix64(11)
    ints = [0, (1 << 64) - 1, 1 << 63] + [rng.mask_bits(64) for _ in range(64)]
    assert_array_kernels_match_int_kernels(spec, np.array(ints, dtype=np.uint64))


def assert_array_kernels_match_int_kernels(spec, masks):
    ints = masks.tolist()
    for g in spec.elements():
        shifter = spec.shift_table(g)
        images = shifter.apply(masks)
        assert images.dtype == masks.dtype
        assert images.tolist() == [shifter.apply(m) for m in ints], g
        assert shifter.boundary(masks).tolist() == [(shifter.apply(m) & ~m).bit_count() for m in ints], g


def test_shifter_apply_array_needs_a_small_group():
    # a uint32 array cannot hold the masks of a 64-element group: the roll constants overflow it
    spec = GroupSpec([2] * 6)
    with pytest.raises(OverflowError):
        spec.shift_table(spec.element_at(1)).apply(np.arange(4, dtype=np.uint32))


def test_shifter_perm_is_the_add_perm_list():
    spec = GroupSpec([3, 4])
    g = spec.element([2, 1])
    assert spec.shift_table(g).perm is spec.add_perm(g)  # one cache: the spec's


@pytest.mark.parametrize(
    "moduli, ranks",
    [
        ((2,), {2: 1}),
        ((2, 4, 4), {2: 3}),
        ((6, 6), {2: 2, 3: 2}),
        ((12,), {2: 1, 3: 1}),
        ((2, 2, 3), {2: 2, 3: 1}),
        ((3, 9), {3: 2}),
        ((5, 5), {5: 2}),
        ((30, 10), {2: 2, 3: 1, 5: 2}),
        ((49, 7, 2), {7: 2, 2: 1}),
    ],
)
def test_p_ranks(moduli, ranks):
    spec = GroupSpec(moduli)
    assert p_ranks(spec) == ranks
    assert min_generators(spec) == max(ranks.values())


@pytest.mark.parametrize("moduli", [(2, 2, 2), (2, 4), (6,), (3, 9), (2, 3, 4), (5, 2), (7,), (4, 8)])
def test_cyclic_closure_matches_repeated_addition(moduli):
    spec = GroupSpec(moduli)
    for r in range(spec.order):
        g = spec.element_at(r)
        multiples, shifters = spec.cyclic_closure(r)
        expected, step = 0, g
        while not step.is_zero:
            expected |= 1 << step.index()
            step = step + g
        assert multiples == expected, g
        # the doubling shifters translate by g, 2g, 4g, ... and stop before 0
        doubled = [sh.g for sh in shifters]
        assert doubled[:1] == ([] if g.is_zero else [g])
        assert all(b == a + a for a, b in zip(doubled, doubled[1:]))
        assert not any(d.is_zero for d in doubled)
        if doubled:
            last = doubled[-1]
            assert len(doubled) == order_of(g).bit_length() or (last + last).is_zero
        assert spec.cyclic_closure(r) is spec.cyclic_closure(r)  # cached on the instance
    assert GroupSpec(moduli)._cyclic_cache == {}  # a new instance starts cold


@pytest.mark.parametrize("moduli", [(2, 3, 4), (4,) * 7])
def test_block_rolls_match_a_fresh_per_element_computation(moduli):
    spec = GroupSpec(moduli)
    full = (1 << spec.order) - 1
    for axis, (stride, m) in enumerate(zip(spec.strides, spec.moduli)):
        for c in range(1, m):
            # the elements whose coordinate on this axis stays below m - c
            keep = sum(1 << x for x in range(spec.order) if x // stride % m < m - c)
            roll = spec.block_roll(axis, c)
            assert roll == (keep, full ^ keep, c * stride, (m - c) * stride), (axis, c)
            assert spec.block_roll(axis, c) is roll  # cached on the instance
    g = spec.element_at(spec.order - 1)
    assert spec.shift_table(g)._rolls == tuple(spec.block_roll(i, c) for i, c in enumerate(g.coords))
    assert GroupSpec(moduli)._roll_cache == {}  # a new instance starts cold


# -- span against breadth-first closure -----------------------------------------


def bfs_span(gens):
    """Reference: breadth-first closure of {0} under the generators' index permutations."""
    spec = gens.spec
    seen = 1  # the zero element has index 0
    frontier = [0]
    perms = [spec.add_perm(s) for s in gens]
    while frontier:
        nxt = []
        for r in frontier:
            for p in perms:
                q = p[r]
                if not (seen >> q) & 1:
                    seen |= 1 << q
                    nxt.append(q)
        frontier = nxt
    return GroupSet(spec, seen)


def bounded_span(gens):
    """``span``, failing instead of looping if it translates more than ord(s).bit_length() times per s."""
    budget = [sum(order_of(s).bit_length() for s in gens)]
    shift_table = GroupSpec.shift_table

    def counted(spec, g):
        budget[0] -= 1
        assert budget[0] >= 0, "span translated more often than its doubling bound"
        return shift_table(spec, g)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(GroupSpec, "shift_table", counted)
        return span(gens)


@pytest.mark.parametrize("moduli, max_size", [((3, 3), 9), ((2, 4), 8), ((2, 2, 2, 2), 4)])
def test_span_matches_bfs_on_every_generator_set(moduli, max_size):
    # on C2^4 every set of at most d(G) = 4 elements: all 2**16 sets take seconds
    spec = GroupSpec(moduli)
    elems = list(spec.elements())
    for bits in range(1 << spec.order):
        if bits.bit_count() <= max_size:
            gens = GeneratorSeq(spec, [elems[r] for r in range(spec.order) if bits >> r & 1])
            assert bounded_span(gens) == bfs_span(gens), gens


@pytest.mark.parametrize("moduli", [(4,) * 5, (2,) * 10])
def test_span_matches_bfs_on_drawn_sequences(moduli):
    spec = GroupSpec(moduli)
    rng = SplitMix64(sum(moduli))
    for length in range(1, 7):
        for _ in range(4):
            idx = {rng.below(spec.order) for _ in range(length)}
            gens = GeneratorSeq(spec, [spec.element_at(r) for r in sorted(idx)])
            assert bounded_span(gens) == bfs_span(gens), gens


def test_span_with_the_zero_element():
    spec = GroupSpec([2, 6])
    for gens in (
        GeneratorSeq(spec, (spec.zero(),)),
        GeneratorSeq(spec, (spec.element([1, 2]), spec.zero(), spec.element([0, 3]))),
    ):
        assert bounded_span(gens) == bfs_span(gens)


@pytest.mark.parametrize("moduli", [(3, 3, 3), (5, 3), (9, 3), (7,)])
def test_span_terminates_on_odd_order_elements(moduli):
    # 2**j * s never reaches zero when ord(s) is odd, so the loop bound must stop it
    spec = GroupSpec(moduli)
    for g in spec.elements():
        gens = GeneratorSeq(spec, (g,))
        assert bounded_span(gens) == bfs_span(gens)
    pair = GeneratorSeq(spec, (spec.element_at(1), spec.element_at(spec.order - 1)))
    assert bounded_span(pair) == bfs_span(pair)


# -- span_order against the mask span -----------------------------------------------

NON_CANONICAL = [(6,), (2, 3, 4), (4, 6, 8), (12, 18)]


def drawn_sequence(spec, rng, length):
    """Up to ``length`` distinct elements in draw order; index 0 (the zero element) may be among them."""
    idx = dict.fromkeys(rng.below(spec.order) for _ in range(length))
    return GeneratorSeq(spec, [spec.element_at(r) for r in idx])


@pytest.mark.parametrize("moduli", invariant_factor_groups(16))
def test_span_order_on_every_short_sequence(moduli):
    # every ordered sequence of at most 3 distinct elements; the span depends only on the set
    spec = GroupSpec(moduli)
    elems = list(spec.elements())
    for size in range(4):
        for combo in combinations(elems, size):
            want = len(span(GeneratorSeq(spec, combo)))
            for seq in permutations(combo):
                assert span_order(GeneratorSeq(spec, seq)) == want, seq


@pytest.mark.parametrize("moduli", invariant_factor_groups(64) + NON_CANONICAL)
def test_span_order_on_drawn_sequences(moduli):
    spec = GroupSpec(moduli)
    rng = SplitMix64(spec.order + len(moduli))
    for i in range(200):
        gens = drawn_sequence(spec, rng, 1 + i % 6)
        assert span_order(gens) == len(span(gens)), gens


@pytest.mark.parametrize("moduli", [(2, 2, 2, 2), (4, 4), (2, 8), (3, 3)])
def test_is_independent_on_every_subset(moduli):
    # the mask span of each subset closes the span of the subset without its last element under that element
    spec = GroupSpec(moduli)
    elems = list(spec.elements())
    spans = [1] * (1 << spec.order)
    order_prods = [1] * (1 << spec.order)
    for bits in range(1, 1 << spec.order):
        top = bits.bit_length() - 1
        H = spans[bits ^ 1 << top]
        for sh in spec.cyclic_closure(top)[1]:
            H |= sh.apply(H)
        spans[bits] = H
        order_prods[bits] = order_prods[bits ^ 1 << top] * order_of(elems[top])
        gens = GeneratorSeq(spec, [elems[r] for r in range(top + 1) if bits >> r & 1])
        assert is_independent(gens) == (H.bit_count() == order_prods[bits]), gens


@pytest.mark.parametrize(
    "moduli", [(2,) * 14, (4,) * 7, (2, 2, 4, 4, 4, 16), (65536,)], ids=["C2^14", "C4^7", "C2^2xC4^3xC16", "C65536"]
)
def test_span_order_on_large_groups(moduli):
    spec = GroupSpec(moduli)
    rng = SplitMix64(len(moduli))
    for length in range(1, len(moduli) + 3):
        gens = drawn_sequence(spec, rng, length)
        with_zero = GeneratorSeq(spec, (spec.zero(),) + tuple(g for g in gens if not g.is_zero))
        for seq in (gens, with_zero):
            assert span_order(seq) == len(span(seq)), seq
    assert span_order(spec.standard_basis()) == spec.order


def test_coords_span_order_takes_unreduced_coordinates():
    # rows need not be reduced: (5, -1) is (1, 3) in C4 + C4
    assert coords_span_order((4, 4), [(5, -1)]) == 4
    assert coords_span_order((4, 4), [(4, 8), (0, 0)]) == 1
    assert coords_span_order((2, 4), []) == 1

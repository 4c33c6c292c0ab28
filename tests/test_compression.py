"""Compression along independent generators and the lattice embedding."""

from __future__ import annotations

import random
import tracemalloc

import numpy as np
import pytest

from isoperim import (
    CompressionContext,
    GeneratorSeq,
    GroupSet,
    GroupSpec,
    LatticeSet,
    VerifyPlan,
    compress_along,
    edge_boundary,
    full_compress,
    group_weight,
    is_compressed,
    is_downset,
    phi_embed,
    progression,
    run_verify,
    weight_stats,
)
from isoperim.groups import iter_bits, order_of, span
from isoperim.harness import draw_generating_seq
from isoperim.prng import SplitMix64
from oracles import coset_counts, drop


def make_ctx(moduli, coords=None):
    spec = GroupSpec(moduli)
    if coords is None:
        gens = spec.standard_basis()
    else:
        gens = GeneratorSeq(spec, tuple(spec.element(c) for c in coords))
    return spec, gens, CompressionContext(gens)


def brute_force_compress(A, ctx, i):
    """Oracle: per-coset restacking built from explicit progressions."""
    spec = A.spec
    s = ctx.gens[i]
    out = GroupSet.empty(spec)
    for h_idx in GroupSet(spec, ctx.sub_masks[i]).indices():
        h = spec.element_at(h_idx)
        coset = progression(h, s, order_of(s))
        count = len(A & coset)
        out = out | progression(h, s, count)
    return out


class ChainReference:
    """Oracle: the per-element coset chains that compression used before the box array.

    For every axis i it walks each <s_i>-coset h, h + s_i, ... from its member h
    in <S_i> with the ``add_perm`` permutation of s_i, recording the chain and
    the coordinate k of every element h + k*s_i.  Restacking a coset keeps the
    first ``count`` elements of its chain.
    """

    def __init__(self, gens):
        spec = gens.spec
        self.order = spec.order
        self.chains = []
        self.kcoords = []
        for i, s in enumerate(gens):
            perm = spec.add_perm(s)
            d = order_of(s)
            kcoord = [None] * spec.order
            chains = []
            for h in iter_bits(span(drop(gens, i)).mask):
                chain = []
                r = h
                for k in range(d):
                    chain.append(r)
                    kcoord[r] = k
                    r = perm[r]
                chains.append(tuple(chain))
            assert None not in kcoord, "coset chains do not cover the group"
            self.chains.append(chains)
            self.kcoords.append(kcoord)

    def _counts(self, mask, i):
        bits = [int(b) for b in reversed(format(mask, f"0{self.order}b"))]
        return [sum(bits[r] for r in chain) for chain in self.chains[i]]

    def compress(self, mask, i):
        out = [0] * self.order
        for chain, count in zip(self.chains[i], self._counts(mask, i)):
            for r in chain[:count]:
                out[r] = 1
        return int("".join(map(str, reversed(out))), 2)

    def compress_array(self, masks, i):
        out = np.zeros_like(masks)
        for chain in self.chains[i]:
            count = sum((masks >> np.uint32(r)) & np.uint32(1) for r in chain)
            for k, r in enumerate(chain):
                out |= (count > k).astype(np.uint32) << np.uint32(r)
        return out

    def coset_counts(self, mask, i):
        counts = self._counts(mask, i)
        return sum(1 for c in counts if c), sum(1 for c, chain in zip(counts, self.chains[i]) if c == len(chain))

    def point(self, r):
        return tuple(kc[r] for kc in self.kcoords)

    def weight(self, r):
        return sum(1 for c in self.point(r) if c)


def _standard(moduli):
    spec = GroupSpec(moduli)
    return pytest.param(spec, spec.standard_basis(), id=f"{spec!r}-standard")


def _bases(moduli, seed):
    """The standard basis and one drawn independent generating sequence of the group."""
    spec = GroupSpec(moduli)
    drawn = draw_generating_seq(spec, SplitMix64(seed), len(moduli), independent=True)
    return [_standard(moduli), pytest.param(spec, drawn, id=f"{spec!r}-drawn")]


def _assert_mask_kernels_match(ctx, ref, masks):
    for mask in masks:
        A = GroupSet(ctx.spec, mask)
        for i in range(len(ctx)):
            assert ctx.compress_mask(mask, i) == ref.compress(mask, i)
            assert coset_counts(A, ctx, i) == ref.coset_counts(mask, i)


def _assert_embedding_matches(ctx, ref, stacked_masks, elements):
    for mask in stacked_masks:
        assert phi_embed(GroupSet(ctx.spec, mask), ctx) == LatticeSet(len(ctx), map(ref.point, iter_bits(mask)))
    for r in elements:
        assert group_weight(ctx.spec.element_at(r), ctx) == ref.weight(r)


@pytest.mark.parametrize(
    "spec, gens",
    [basis for seed, moduli in enumerate([(2, 2, 2, 2), (4, 4), (2, 8), (3, 3), (2, 2, 3)]) for basis in _bases(moduli, seed)],
)
def test_box_kernels_match_chain_reference_on_every_mask(spec, gens):
    ctx = CompressionContext(gens)
    ref = ChainReference(gens)
    masks = np.arange(1 << spec.order, dtype=np.uint32)
    stacked = masks
    for i in range(len(gens)):
        assert np.array_equal(ctx.compress_mask(masks, i), ref.compress_array(masks, i))
        stacked = ref.compress_array(stacked, i)
    # a per-mask kernel call costs microseconds: every mask up to 12 elements,
    # a seeded 1/32 of the masks of the 16-element groups
    per_mask = masks.tolist() if spec.order <= 12 else random.Random(spec.order).sample(masks.tolist(), 1 << 11)
    _assert_mask_kernels_match(ctx, ref, per_mask)
    _assert_embedding_matches(ctx, ref, np.unique(stacked).tolist(), range(spec.order))


@pytest.mark.parametrize(
    "spec, gens",
    [_standard(m) for m in [(2,) * 14, (4,) * 7, (4096,), (256, 16)]] + _bases((2, 4, 4), 7) + _bases((3, 3, 3), 8),
)
def test_box_kernels_match_chain_reference_on_seeded_masks(spec, gens):
    ctx = CompressionContext(gens)
    ref = ChainReference(gens)
    rng = random.Random(spec.order)
    masks = [rng.getrandbits(spec.order) for _ in range(2)]
    _assert_mask_kernels_match(ctx, ref, masks)
    stacked = []
    for mask in masks:
        for i in range(len(gens)):
            mask = ref.compress(mask, i)
        stacked.append(mask)
    _assert_embedding_matches(ctx, ref, stacked, range(0, spec.order, 7))
    if spec.order <= 32:
        arr = np.array(masks, dtype=np.uint32)
        for i in range(len(gens)):
            assert np.array_equal(ctx.compress_mask(arr, i), ref.compress_array(arr, i))


@pytest.mark.parametrize("moduli", [(2,) * 16, (65536,)], ids=["C2^16", "C65536"])
def test_one_case_claims_sample_on_2_16_elements_stays_small(moduli):
    plan = VerifyPlan(theorem="claims-compression", moduli=moduli, mode="sample", sample_size=1, seed=11)
    tracemalloc.start()
    try:
        report = run_verify(plan)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.cases_checked == 1
    assert not report.violations
    assert peak < 64 << 20


def test_context_validates_inputs():
    spec = GroupSpec([2, 2])
    e1, e2 = spec.standard_basis()
    with pytest.raises(ValueError):
        CompressionContext(GeneratorSeq(spec, (e1,)))  # not generating
    with pytest.raises(ValueError):
        CompressionContext(GeneratorSeq(spec, (e1, e2, e1 + e2)))  # dependent


def test_context_direct_decomposition():
    spec, gens, ctx = make_ctx([2, 4])
    for i in range(len(gens)):
        assert GroupSet(spec, ctx.sub_masks[i]) == span(drop(gens, i))
        assert ctx.sub_masks[i].bit_count() * ctx.orders[i] == spec.order


@pytest.mark.parametrize(
    "spec, gens",
    [basis for seed, moduli in enumerate([(2, 2, 3), (2, 4, 4), (3, 3, 3), (4,) * 5, (2, 8, 16)]) for basis in _bases(moduli, seed)],
)
def test_sub_masks_are_the_spans_of_the_other_generators(spec, gens):
    # sub_masks are read off the box (the plane z_i = 0); the mask span is the oracle
    ctx = CompressionContext(gens)
    for i in range(len(gens)):
        assert GroupSet(spec, ctx.sub_masks[i]) == span(drop(gens, i)), i


def test_progression_examples():
    spec = GroupSpec([2, 4])
    v = spec.element([0, 1])
    assert len(progression(spec.zero(), v, 0)) == 0

    spec4 = GroupSpec([4])
    P = progression(spec4.zero(), spec4.element([1]), 2)
    assert sorted(g.coords for g in P) == [(0,), (1,)]

    P = progression(spec.element([1, 0]), v, 3)
    assert sorted(g.coords for g in P) == [(1, 0), (1, 1), (1, 2)]


def test_progression_rejects_overlong():
    spec = GroupSpec([4])
    with pytest.raises(ValueError):
        progression(spec.zero(), spec.element([2]), 3)  # ord = 2


def test_compress_along_example():
    spec, gens, ctx = make_ctx([2, 2])
    A = GroupSet.from_elements(spec, [spec.element([0, 0]), spec.element([1, 1])])
    out = compress_along(A, ctx, 0)
    assert sorted(g.coords for g in out) == [(0, 0), (0, 1)]


def test_compress_fixed_point_and_cardinality_exhaustive():
    spec, gens, ctx = make_ctx([2, 4])
    for mask in range(1 << spec.order):
        A = GroupSet(spec, mask)
        for i in range(len(gens)):
            out = compress_along(A, ctx, i)
            assert len(out) == len(A)
            assert out == brute_force_compress(A, ctx, i)
            assert is_compressed(out, ctx, i)
            if is_compressed(A, ctx, i):
                assert out == A


def test_is_compressed_examples():
    spec, gens, ctx = make_ctx([2, 2])
    inside = GroupSet.from_elements(spec, [spec.element([0, 0]), spec.element([0, 1])])
    assert is_compressed(inside, ctx, 0)  # subset of <S_1>
    assert not is_compressed(GroupSet.from_elements(spec, [spec.element([0, 1])]), ctx, 1)


def test_is_compressed_agrees_with_fixed_point_definition():
    spec, gens, ctx = make_ctx([2, 2, 2])
    for mask in range(1 << spec.order):
        A = GroupSet(spec, mask)
        for i in range(3):
            assert is_compressed(A, ctx, i) == (compress_along(A, ctx, i) == A)


def test_boundary_never_grows_exhaustive_c2xc4():
    spec, gens, ctx = make_ctx([2, 4])
    for mask in range(1, 1 << spec.order):
        A = GroupSet(spec, mask)
        before = edge_boundary(A, gens)
        for j in range(len(gens)):
            assert ctx.boundary_count_mask(mask, j) == before.per_generator[j]
        for i in range(len(gens)):
            after = edge_boundary(compress_along(A, ctx, i), gens)
            assert after.total <= before.total
            for j in range(len(gens)):
                assert after.per_generator[j] <= before.per_generator[j]


def test_compressedness_preserved_exhaustive_c2xc4():
    spec, gens, ctx = make_ctx([2, 4])
    for mask in range(1 << spec.order):
        A = GroupSet(spec, mask)
        for i in range(len(gens)):
            if not is_compressed(A, ctx, i):
                continue
            for j in range(len(gens)):
                assert is_compressed(compress_along(A, ctx, j), ctx, i)


def test_full_compress_examples():
    spec, gens, ctx = make_ctx([2, 2])
    A = GroupSet.from_elements(spec, [spec.element([1, 1])])
    assert sorted(g.coords for g in full_compress(A, ctx)) == [(0, 0)]

    down_image = GroupSet.from_elements(spec, [spec.element([0, 0]), spec.element([1, 0])])
    assert full_compress(down_image, ctx) == down_image


def test_full_compress_single_pass_exhaustive_c2_cubed():
    spec, gens, ctx = make_ctx([2, 2, 2])
    for mask in range(1, 1 << spec.order):
        A = GroupSet(spec, mask)
        out = full_compress(A, ctx)
        assert len(out) == len(A)
        assert all(is_compressed(out, ctx, i) for i in range(3))
        assert edge_boundary(out, gens).total <= edge_boundary(A, gens).total


def test_phi_embed_examples():
    spec, gens, ctx = make_ctx([2, 4], coords=[(1, 0), (0, 1)])
    zero_only = GroupSet.from_indices(spec, [0])
    assert sorted(phi_embed(zero_only, ctx)) == [(0, 0)]

    line = span(GeneratorSeq(spec, (spec.element([1, 0]),)))
    assert sorted(phi_embed(line, ctx)) == [(0, 0), (1, 0)]


def test_phi_embed_rejects_non_compressed():
    spec, gens, ctx = make_ctx([2, 2])
    A = GroupSet.from_elements(spec, [spec.element([1, 1])])
    with pytest.raises(ValueError):
        phi_embed(A, ctx)


def test_phi_embed_downset_and_weight_bridge_exhaustive():
    spec, gens, ctx = make_ctx([2, 4])
    for mask in range(1, 1 << spec.order):
        A = GroupSet(spec, mask)
        if not all(is_compressed(A, ctx, i) for i in range(len(gens))):
            continue
        image = phi_embed(A, ctx)
        assert len(image) == len(A)
        assert is_downset(image)
        weights_group = sorted(group_weight(g, ctx) for g in A)
        weights_lattice = sorted(sum(1 for c in p if c) for p in image)
        assert weights_group == weights_lattice
        # mean weight of a compressed set obeys the downset bound
        assert weight_stats(image).bound_holds


def test_full_compress_image_is_downset():
    spec, gens, ctx = make_ctx([2, 4])
    for mask in range(1, 1 << spec.order):
        out = full_compress(GroupSet(spec, mask), ctx)
        assert is_downset(phi_embed(out, ctx))


def test_coset_counts_examples():
    spec, gens, ctx = make_ctx([2, 4])
    G = GroupSet.full(spec)
    assert coset_counts(G, ctx, 1) == (spec.order // 4, spec.order // 4)
    zero_only = GroupSet.from_indices(spec, [0])
    assert coset_counts(zero_only, ctx, 1) == (1, 0)


def test_boundary_equals_coset_count_difference_when_compressed():
    spec, gens, ctx = make_ctx([2, 4])
    for mask in range(1, 1 << spec.order):
        A = GroupSet(spec, mask)
        if not all(is_compressed(A, ctx, i) for i in range(len(gens))):
            continue
        stats = edge_boundary(A, gens)
        for i in range(len(gens)):
            touched, full = coset_counts(A, ctx, i)
            assert stats.per_generator[i] == touched - full


def test_group_weight_examples():
    spec, gens, ctx = make_ctx([2, 4])
    assert group_weight(spec.zero(), ctx) == 0
    assert group_weight(gens[0] + gens[1], ctx) == 2


def test_weight_sum_identity_for_compressed_sets():
    # sum_i (cosets meeting A) = n|A| - total weight, for compressed A
    spec, gens, ctx = make_ctx([2, 2, 2])
    n = len(gens)
    for mask in range(1, 1 << spec.order):
        A = GroupSet(spec, mask)
        if not all(is_compressed(A, ctx, i) for i in range(n)):
            continue
        touched_sum = sum(coset_counts(A, ctx, i)[0] for i in range(n))
        total_weight = sum(group_weight(g, ctx) for g in A)
        assert touched_sum == n * len(A) - total_weight

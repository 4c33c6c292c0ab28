"""Compression of group subsets along independent generators.

Fix an independent generating sequence s_1, ..., s_n.  For each i the group
splits as <S_i> + <s_i> with S_i the other generators, so every subset can be
restacked inside each <s_i>-coset towards the coset's initial segment without
changing per-coset counts.  Restacking never increases the edge boundary, and
a set that is stacked along every generator embeds into the non-negative
integer lattice as a downset.
"""

from __future__ import annotations

import numpy as np

from .groups import (
    Element,
    GeneratorSeq,
    GroupSet,
    SpecMismatchError,
    is_independent,
    iter_bits,
    order_of,
    span,
)
from .lattice import LatticeSet


def progression(g: Element, v: Element, k: int) -> GroupSet:
    """The k-term arithmetic progression {g, g+v, ..., g+(k-1)v}.

    Requires 0 <= k <= ord(v) so that the terms are pairwise distinct.
    """
    if g.spec != v.spec:
        raise SpecMismatchError("start and difference live in different groups")
    if not 0 <= k <= order_of(v):
        raise ValueError(f"progression length {k} exceeds ord(v) = {order_of(v)}")
    out = []
    cur = g
    for _ in range(k):
        out.append(cur)
        cur = cur + v
    return GroupSet.from_elements(g.spec, out)


class CompressionContext:
    """Precomputed coset structure for compressing along one generator sequence.

    Holds, for every position i: the complementary subgroup <S_i> as a bitmask,
    the ordered <s_i>-cosets (index tuples walking g, g+s_i, ...), prefix masks
    of every coset, and the coordinate of each group element in the unique
    decomposition g = h + k*s_i.  Immutable and shareable once built.
    """

    def __init__(self, S: GeneratorSeq):
        spec = S.spec
        if len(S) == 0:
            raise ValueError("compression needs at least one generator")
        if not is_independent(S):
            raise ValueError("generator sequence must be independent")
        if len(span(S)) != spec.order:
            raise ValueError("generator sequence must generate the group")
        self.spec = spec
        self.gens = S
        self.orders = tuple(order_of(s) for s in S)

        sub_masks = []
        cosets_per_axis = []
        prefix_per_axis = []
        kcoord_per_axis = []
        for i, s in enumerate(S):
            sub = span(S.drop(i))
            d = self.orders[i]
            if len(sub) * d != spec.order:
                raise ValueError("direct decomposition failed; generators are degenerate")
            perm = spec.add_perm(s)
            kcoord = [0] * spec.order
            cosets = []
            prefixes = []
            covered = 0
            for h in iter_bits(sub.mask):
                chain = []
                r = h
                for k in range(d):
                    chain.append(r)
                    kcoord[r] = k
                    r = perm[r]
                cosets.append(tuple(chain))
                pref = [0]
                acc = 0
                for r in chain:
                    acc |= 1 << r
                    pref.append(acc)
                prefixes.append(pref)
                covered |= acc
            if covered != (1 << spec.order) - 1:
                raise ValueError("coset chains do not cover the group")
            sub_masks.append(sub.mask)
            cosets_per_axis.append(tuple(cosets))
            prefix_per_axis.append(tuple(tuple(p) for p in prefixes))
            kcoord_per_axis.append(tuple(kcoord))
        self.sub_masks = tuple(sub_masks)
        self.cosets = tuple(cosets_per_axis)
        self.prefixes = tuple(prefix_per_axis)
        self.kcoords = tuple(kcoord_per_axis)
        self._shifters = tuple(spec.shift_table(s) for s in S)
        self._full = (1 << spec.order) - 1
        self._array_prefixes: list | None = None

    def __len__(self) -> int:
        return len(self.gens)

    def _check_axis(self, i: int) -> None:
        if not 0 <= i < len(self.gens):
            raise IndexError(f"generator index {i} outside [0, {len(self.gens)})")

    # -- mask kernels (hot path of exhaustive sweeps) -------------------------

    def compress_mask(self, mask: int, i: int) -> int:
        out = 0
        for coset, pref in zip(self.cosets[i], self.prefixes[i]):
            count = 0
            for r in coset:
                count += (mask >> r) & 1
            out |= pref[count]
        return out

    def is_compressed_mask(self, mask: int, i: int) -> bool:
        # definitional form: A \ <S_i>  is contained in  A + s_i
        outside = mask & ~self.sub_masks[i]
        return outside & ~self._shifters[i].apply(mask) == 0

    def full_compress_mask(self, mask: int) -> int:
        for i in range(len(self.gens)):
            mask = self.compress_mask(mask, i)
        return mask

    def boundary_count_mask(self, mask: int, j: int) -> int:
        """|{a in mask : a + s_j not in mask}| for one generator."""
        shifted = self._shifters[j].apply(mask)
        return (shifted & ~mask).bit_count()

    # -- array kernels: many uint32 masks at once, groups of at most 32 elements --

    def _coset_prefix_arrays(self, i: int) -> list[tuple[np.uint32, np.ndarray]]:
        """(coset mask, prefix masks by count) for every <s_i>-coset, as uint32."""
        if self._array_prefixes is None:
            if self.spec.order > 32:
                raise ValueError("array kernels need a group of at most 32 elements")
            self._array_prefixes = [
                [(np.uint32(pref[-1]), np.array(pref, dtype=np.uint32)) for pref in prefixes]
                for prefixes in self.prefixes
            ]
        return self._array_prefixes[i]

    def compress_array(self, masks: np.ndarray, i: int) -> np.ndarray:
        """``compress_mask`` on every entry: count per coset, then gather that prefix."""
        out = np.zeros_like(masks)
        for coset_mask, prefix in self._coset_prefix_arrays(i):
            out |= prefix[np.bitwise_count(masks & coset_mask)]
        return out

    def is_compressed_array(self, masks: np.ndarray, i: int) -> np.ndarray:
        """``is_compressed_mask`` on every entry, as a bool array."""
        outside = np.uint32(self._full & ~self.sub_masks[i])
        return (masks & outside & ~self._shifters[i].apply_array(masks)) == 0

    def boundary_count_array(self, masks: np.ndarray, j: int) -> np.ndarray:
        """``boundary_count_mask`` on every entry, as a uint8 array."""
        return np.bitwise_count(self._shifters[j].apply_array(masks) & ~masks)

    def weight_of_index(self, r: int) -> int:
        return sum(1 for kc in self.kcoords if kc[r] != 0)


def compress_along(A: GroupSet, ctx: CompressionContext, i: int) -> GroupSet:
    """Restack A towards the beginning of every <s_i>-coset (same per-coset counts)."""
    ctx._check_axis(i)
    if A.spec != ctx.spec:
        raise SpecMismatchError("set and compression context disagree on the group")
    return GroupSet(ctx.spec, ctx.compress_mask(A.mask, i))


def is_compressed(A: GroupSet, ctx: CompressionContext, i: int) -> bool:
    """True iff A is a fixed point of compression along s_i."""
    ctx._check_axis(i)
    if A.spec != ctx.spec:
        raise SpecMismatchError("set and compression context disagree on the group")
    return ctx.is_compressed_mask(A.mask, i)


def full_compress(A: GroupSet, ctx: CompressionContext) -> GroupSet:
    """One sequential compression pass along s_1, ..., s_n.

    A single pass already yields a set compressed along every generator;
    the test suite asserts this rather than iterating to a fixed point.
    """
    if len(A) == 0:
        raise ValueError("compression of the empty set is not meaningful")
    if A.spec != ctx.spec:
        raise SpecMismatchError("set and compression context disagree on the group")
    return GroupSet(ctx.spec, ctx.full_compress_mask(A.mask))


def phi_embed(A: GroupSet, ctx: CompressionContext) -> LatticeSet:
    """Coordinates of A in the direct decomposition along the generators.

    Each a decomposes uniquely as z_1 s_1 + ... + z_n s_n with z_i in
    [0, ord(s_i)); the map a -> (z_1, ..., z_n) is injective, and on sets
    compressed along every generator the image is a downset.  Refuses
    non-compressed input because that guarantee would be lost.
    """
    if A.spec != ctx.spec:
        raise SpecMismatchError("set and compression context disagree on the group")
    for i in range(len(ctx)):
        if not ctx.is_compressed_mask(A.mask, i):
            raise ValueError(f"set is not compressed along generator {i}")
    points = [tuple(kc[r] for kc in ctx.kcoords) for r in iter_bits(A.mask)]
    return LatticeSet(len(ctx), points)


def coset_counts(A: GroupSet, ctx: CompressionContext, i: int) -> tuple[int, int]:
    """(cosets of <s_i> meeting A, cosets of <s_i> fully inside A)."""
    ctx._check_axis(i)
    if A.spec != ctx.spec:
        raise SpecMismatchError("set and compression context disagree on the group")
    touched = 0
    full = 0
    mask = A.mask
    for pref in ctx.prefixes[i]:
        coset_mask = pref[-1]
        inter = mask & coset_mask
        if inter:
            touched += 1
            if inter == coset_mask:
                full += 1
    return touched, full


def group_weight(g: Element, ctx: CompressionContext) -> int:
    """Number of non-zero coordinates of g in the generator decomposition."""
    if g.spec != ctx.spec:
        raise SpecMismatchError("element and compression context disagree on the group")
    return ctx.weight_of_index(ctx.spec.index_of(g))

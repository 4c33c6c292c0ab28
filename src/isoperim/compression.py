"""Compression of group subsets along independent generators.

Fix an independent generating sequence s_1, ..., s_n with d_i = ord(s_i).
Every element is z_1 s_1 + ... + z_n s_n for exactly one z in the box
[0, d_1) x ... x [0, d_n), so the group splits as <S_i> + <s_i> with S_i the
other generators, and the <s_i>-cosets are the lines of the box along axis i.
Compressing along s_i restacks a subset onto the initial segment of every
such line without changing per-coset counts.  Restacking never increases the
edge boundary, and a set that is stacked along every generator embeds into
the non-negative integer lattice as a downset.  ``CompressionContext`` keeps
the box as one array of element indices, and every kernel works on it and
takes either one int mask or a uint32 array of masks.
"""

from __future__ import annotations

from math import prod

import numpy as np

from .groups import (
    Element,
    GeneratorSeq,
    GroupSet,
    SpecMismatchError,
    order_of,
    span_order,
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
    """The box decomposition of the group along one independent generating sequence.

    With d_i = ord(s_i), ``box`` is the box [0, d_1) x ... x [0, d_n) stored
    flat in C order, holding at z the element index of z_1 s_1 + ... + z_n s_n,
    and ``place`` is its inverse permutation.  Viewed with shape
    (d_1*...*d_{i-1}, d_i, d_{i+1}*...*d_n), the lines of the box along the middle
    axis are the <s_i>-cosets walked h, h + s_i, ... from their member h in
    <S_i>, the span of the other generators, whose mask is ``sub_masks[i]``.
    Each mask kernel takes one int mask or, for a group of at most 32
    elements, a uint32 array of masks and answers per entry.  An int is
    unpacked into box order, counted or restacked along the middle axis, and
    packed back: O(|G|) numpy work and memory per call, whatever the generator
    orders.  Immutable and shareable once built.
    """

    def __init__(self, S: GeneratorSeq):
        spec = S.spec
        if len(S) == 0:
            raise ValueError("compression needs at least one generator")
        self.orders = tuple(order_of(s) for s in S)
        h_order = span_order(S)
        if h_order != prod(self.orders):
            raise ValueError("generator sequence must be independent")
        if h_order != spec.order:
            raise ValueError("generator sequence must generate the group")
        self.spec = spec
        self.gens = S
        self._line_shapes = tuple(
            (prod(self.orders[:i]), d, prod(self.orders[i + 1:])) for i, d in enumerate(self.orders)
        )
        # coordinate j of the element at z is sum_i z_i * s_i[j] mod m_j: one mixed-radix digit per
        # factor, summed over the axes with s_i[j] != 0 and broadcast along the others
        n = len(S)
        zs = [np.arange(d).reshape([-1 if a == i else 1 for a in range(n)]) for i, d in enumerate(self.orders)]
        box = np.zeros(self.orders, dtype=np.intp)
        for stride, m, column in zip(spec.strides, spec.moduli, zip(*(s.coords for s in S))):
            box += sum(z * c for z, c in zip(zs, column) if c) % m * stride
        self.box = box.ravel()
        self.place = np.empty_like(self.box)
        self.place[self.box] = np.arange(spec.order)
        self.box.setflags(write=False)
        self.place.setflags(write=False)
        self._nbytes = (spec.order + 7) // 8
        # 0 .. d_i - 1 down each line as np.uint, the dtype of a sum of uint8 bits, so restacking compares uncast
        self._ranks = tuple(np.arange(d, dtype=np.uint)[:, None] for d in self.orders)
        # <S_i> is the plane z_i = 0 of the box
        sub_masks = []
        for i, d in enumerate(self.orders):
            plane = np.zeros(self._line_shapes[i], dtype=np.uint8)
            plane[:, 0, :] = 1
            sub = self._pack(plane)
            if sub.bit_count() * d != spec.order:
                raise ValueError("direct decomposition failed; generators are degenerate")
            sub_masks.append(sub)
        self.sub_masks = tuple(sub_masks)
        self._shifters = tuple(spec.shift_table(s) for s in S)
        full = (1 << spec.order) - 1
        self._outside = tuple(full & ~sub for sub in self.sub_masks)  # G \ <S_i>
        self._array_prefixes: list | None = None

    def __len__(self) -> int:
        return len(self.gens)

    def _check(self, A: GroupSet, i: int | None = None) -> None:
        """Refuse a generator index outside the sequence, then a set of another group."""
        if i is not None and not 0 <= i < len(self.gens):
            raise IndexError(f"generator index {i} outside [0, {len(self.gens)})")
        if A.spec != self.spec:
            raise SpecMismatchError("set and compression context disagree on the group")

    # -- mask kernels: one int mask, or a uint32 array of masks -----------------

    def _unpack(self, mask: int) -> np.ndarray:
        """The bits of ``mask`` in box order, as a flat uint8 array."""
        raw = np.frombuffer(mask.to_bytes(self._nbytes, "little"), dtype=np.uint8)
        return np.unpackbits(raw, count=self.spec.order, bitorder="little")[self.box]

    def _pack(self, bits: np.ndarray) -> int:
        """The mask whose bits, in box order, are ``bits``; inverse of ``_unpack``."""
        out = np.packbits(bits.ravel()[self.place], bitorder="little")
        return int.from_bytes(out.tobytes(), "little")

    def _coset_sizes(self, bits: np.ndarray, i: int) -> np.ndarray:
        """Set bits of box-order ``bits`` in every <s_i>-coset, as an array of the two outer axes."""
        return np.add.reduce(bits.reshape(self._line_shapes[i]), axis=1)

    def _restack(self, bits: np.ndarray, i: int) -> np.ndarray:
        """Box-order bits restacked along axis i: each line keeps its count, at its start."""
        return self._ranks[i] < self._coset_sizes(bits, i)[:, None, :]

    def compress_mask(self, masks: int | np.ndarray, i: int) -> int | np.ndarray:
        """Restack along s_i: an int through the box, a uint32 array by coset counts and prefix masks."""
        if isinstance(masks, int):
            return self._pack(self._restack(self._unpack(masks), i))
        out = np.zeros_like(masks)
        for coset_mask, prefix in self._coset_prefix_arrays(i):
            out |= prefix[np.bitwise_count(masks & coset_mask)]
        return out

    def is_compressed_mask(self, masks: int | np.ndarray, i: int) -> bool | np.ndarray:
        # definitional form: A \ <S_i>  is contained in  A + s_i
        return masks & self._outside[i] & ~self._shifters[i].apply(masks) == 0

    def full_compress_mask(self, mask: int) -> int:
        bits = self._unpack(mask)
        for i in range(len(self.gens)):
            bits = self._restack(bits, i)
        return self._pack(bits)

    def boundary_count_mask(self, masks: int | np.ndarray, j: int) -> int | np.ndarray:
        """|{a in mask : a + s_j not in mask}| for one generator."""
        return self._shifters[j].boundary(masks)

    def _coset_prefix_arrays(self, i: int) -> list[tuple[np.uint32, np.ndarray]]:
        """(coset mask, prefix masks by count) for every <s_i>-coset, as uint32."""
        if self._array_prefixes is None:
            if self.spec.order > 32:
                raise ValueError("array kernels need a group of at most 32 elements")
            self._array_prefixes = []
            for pre, d, post in self._line_shapes:
                lines = self.box.reshape(pre, d, post).transpose(0, 2, 1).reshape(-1, d)
                prefixes = np.zeros((len(lines), d + 1), dtype=np.uint32)
                np.cumsum(np.uint32(1) << lines.astype(np.uint32), axis=1, out=prefixes[:, 1:])
                self._array_prefixes.append([(pref[-1], pref) for pref in prefixes])
        return self._array_prefixes[i]


def compress_along(A: GroupSet, ctx: CompressionContext, i: int) -> GroupSet:
    """Restack A towards the beginning of every <s_i>-coset (same per-coset counts)."""
    ctx._check(A, i)
    return GroupSet(ctx.spec, ctx.compress_mask(A.mask, i))


def is_compressed(A: GroupSet, ctx: CompressionContext, i: int) -> bool:
    """True iff A is a fixed point of compression along s_i."""
    ctx._check(A, i)
    return ctx.is_compressed_mask(A.mask, i)


def full_compress(A: GroupSet, ctx: CompressionContext) -> GroupSet:
    """One sequential compression pass along s_1, ..., s_n.

    A single pass already yields a set compressed along every generator;
    the test suite asserts this rather than iterating to a fixed point.
    """
    if len(A) == 0:
        raise ValueError("compression of the empty set is not meaningful")
    ctx._check(A)
    return GroupSet(ctx.spec, ctx.full_compress_mask(A.mask))


def phi_embed(A: GroupSet, ctx: CompressionContext) -> LatticeSet:
    """Coordinates of A in the direct decomposition along the generators.

    Each a decomposes uniquely as z_1 s_1 + ... + z_n s_n with z_i in
    [0, ord(s_i)); the map a -> (z_1, ..., z_n) is injective, and on sets
    compressed along every generator the image is a downset.  Refuses
    non-compressed input because that guarantee would be lost.
    """
    ctx._check(A)
    for i in range(len(ctx)):
        if not ctx.is_compressed_mask(A.mask, i):
            raise ValueError(f"set is not compressed along generator {i}")
    coords = np.unravel_index(np.flatnonzero(ctx._unpack(A.mask)), ctx.orders)
    return LatticeSet(len(ctx), zip(*(c.tolist() for c in coords)))


def group_weight(g: Element, ctx: CompressionContext) -> int:
    """Number of non-zero coordinates of g in the generator decomposition."""
    if g.spec != ctx.spec:
        raise SpecMismatchError("element and compression context disagree on the group")
    return sum(1 for c in np.unravel_index(ctx.place[ctx.spec.index_of(g)], ctx.orders) if c)

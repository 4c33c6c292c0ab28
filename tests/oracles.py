"""Reference forms that only tests call.

No runner, demo or CLI command needs these names; the tests keep them as
oracles and as plain statements of the paper's definitions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import prod
from typing import Callable, Sequence

import numpy as np

from isoperim import CompressionContext, Element, GeneratorSeq, GroupSet, LatticeSet, is_downset, weight_stats
from isoperim.boundary import BOUNDARY_THEOREMS, compare_powers
from isoperim.groups import SpecMismatchError, _periodic, coords_span_order
from isoperim.lattice import _box_dims
from isoperim.popular import DEFAULT_DIM_CAP, DiffSpectrum, _admit_dissociated


class NotASubgroupError(ValueError):
    """A set that must be a subgroup is not closed."""


def drop(gens: GeneratorSeq, i: int) -> GeneratorSeq:
    """The sequence with the i-th generator removed (may be empty)."""
    return GeneratorSeq(gens.spec, gens.elements[:i] + gens.elements[i + 1:])


def count_of(spectrum: DiffSpectrum, g: Element) -> int:
    """r_A(g), the number of representations of g as a difference of A."""
    return spectrum.counts[spectrum.spec.index_of(g)]


def negate(A: GroupSet) -> GroupSet:
    """The reflected set {-a : a in A}.

    Negation maps coordinate c of every factor to (m - c) mod m, so it
    reflects the blocks of each factor in turn: the blocks of coordinate 0
    stay, and the block of coordinate c moves to m - c in every period.
    """
    spec = A.spec
    mask = A.mask
    for stride, m in zip(spec.strides, spec.moduli):
        zero = _periodic((1 << stride) - 1, stride * m, spec.order // (stride * m))
        out = mask & zero
        for c in range(1, m):
            block = mask & (zero << c * stride)
            shift = (m - 2 * c) * stride
            out |= block << shift if shift >= 0 else block >> -shift
        mask = out
    return GroupSet(spec, mask)


def is_dissociated(B: GroupSet, cap: int = DEFAULT_DIM_CAP) -> bool:
    """True iff all 2**|B| subset sums are pairwise distinct; 0 in B fails, as {0} sums like the empty set."""
    if len(B) > cap:
        raise ValueError(f"set size {len(B)} exceeds the dissociativity cap {cap}")
    spec = B.spec
    sums: int | None = 1  # the empty sum
    for r in B.indices():
        sums = _admit_dissociated(spec.shifter_at(r), sums)
        if sums is None:
            return False
    return True


def coset_counts(A: GroupSet, ctx: CompressionContext, i: int) -> tuple[int, int]:
    """(cosets of <s_i> meeting A, cosets of <s_i> fully inside A)."""
    ctx._check(A, i)
    sizes = ctx._coset_sizes(ctx._unpack(A.mask), i)
    return int(np.count_nonzero(sizes)), int(np.count_nonzero(sizes == ctx.orders[i]))


def subgroup_bound_holds(A: GroupSet, S: GeneratorSeq) -> bool:
    """|A| >= |span(S)|**g for groups of exponent 2 or 3 and arbitrary non-empty S."""
    return BOUNDARY_THEOREMS["cosetdecomp"].holds(A, S)


def split_inequality_holds(tau: Fraction) -> bool:
    """Exact check of 1 + (tau/2) log2 tau <= ((tau+1)/2) log2 (tau+1) for tau >= 1.

    With tau = a/b this clears to 4**b * a**a * b**b <= (a+b)**(a+b).
    """
    if tau < 1:
        raise ValueError("the inequality is stated for tau >= 1")
    a, b = tau.numerator, tau.denominator
    return compare_powers(((a + b, a + b),), ((4, b), (a, a), (b, b))) >= 0


def coset_decompose(A: GroupSet, H: GroupSet) -> list[tuple[Element, GroupSet]]:
    """Partition of A by the cosets of the subgroup H.

    Each part's representative is its least-index member, so translating the
    part by the negated representative lands inside H.  Raises
    NotASubgroupError unless H is its own span, decided by ``coords_span_order``.
    """
    if A.spec != H.spec:
        raise SpecMismatchError("set and subgroup live in different groups")
    # H lies in <H>, so |<H>| = |H| forces H = <H>
    if not (H.has_index(0) and coords_span_order(H.spec.moduli, H.coords()) == len(H)):
        raise NotASubgroupError(f"a set of {len(H)} elements of {H.spec!r} is not a subgroup: it is not its own span")
    spec = A.spec
    parts: list[tuple[Element, GroupSet]] = []
    remaining = A.mask
    while remaining:
        r = (remaining & -remaining).bit_length() - 1
        shifter = spec.shifter_at(r)
        part = remaining & shifter.apply(H.mask)
        parts.append((shifter.g, GroupSet(spec, part)))
        remaining &= ~part
    return parts


@dataclass(frozen=True)
class MultisetFamilyView:
    """A downset read as a monotonic family of multisets over the ground set [n].

    Each lattice point is the multiplicity function of one multiset; the
    number of non-zero coordinates is the support size, so the average-weight
    bound says the mean support size is at most (1/2) log2 of the family size.
    """

    ground_size: int
    family_size: int
    support_total: int
    mean_support: Fraction
    bound_holds: bool


def multiset_view(A: LatticeSet) -> MultisetFamilyView:
    if not is_downset(A):
        raise ValueError("only downsets correspond to monotonic families")
    stats = weight_stats(A)
    return MultisetFamilyView(
        ground_size=A.dim,
        family_size=stats.size,
        support_total=stats.total_weight,
        mean_support=stats.mean_weight,
        bound_holds=stats.bound_holds,
    )


def box_projector(box: Sequence[int]) -> Callable[[int], tuple[int, ...]]:
    """|pi_i(A)| for each i, for sets A of the box prod_i [0, b_i] given as masks.

    Cell a has bit index sum_i a_i * stride_i, with stride_i = prod_{j>i} (b_j + 1),
    which is lexicographic (product) order.  pi_i(A) is read off the plane
    a_i = 0: ``popcount(plane_i & OR_c (mask >> c * stride_i))`` over
    c = 0..b_i.  The planes and shifts are built once per box; the returned
    function needs no per-point work.  ``projection_sizes`` is its oracle, and
    it is one for ``box_projections``.
    """
    dims = _box_dims(box)
    cells = prod(b + 1 for b in dims)
    folds = []
    stride = cells
    for b in dims:
        period = stride
        stride //= b + 1
        # a_i = 0 in the first stride bits of every period of (b_i + 1) * stride bits
        plane = ((1 << cells) - 1) // ((1 << period) - 1) * ((1 << stride) - 1)
        folds.append((plane, tuple(c * stride for c in range(1, b + 1))))

    def sizes(mask: int) -> tuple[int, ...]:
        out = []
        for plane, shifts in folds:
            fold = mask
            for shift in shifts:
                fold |= mask >> shift
            out.append((fold & plane).bit_count())
        return tuple(out)

    return sizes

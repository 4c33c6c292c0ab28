"""Downsets in the non-negative integer lattice: weights, projections, bounds.

A downset is closed under coordinate-wise domination from below.  The central
estimate is that the average number of non-zero coordinates over a non-empty
downset A is at most (1/2) log2 |A|; all log-flavoured inequalities here are
cleared of their logarithms into comparisons of products of integer powers,
which ``boundary.compare_powers`` decides exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import prod
from typing import Callable, Iterable, Iterator, Sequence

from .boundary import Powers, cleared_verdict, compare_powers


class LatticeSet:
    """A finite subset of Z^n with non-negative coordinates (immutable)."""

    __slots__ = ("dim", "points")

    def __init__(self, dim: int, points: Iterable[Sequence[int]]):
        if dim < 1:
            raise ValueError("lattice dimension must be at least 1")
        pts = frozenset(tuple(int(c) for c in p) for p in points)
        for p in pts:
            if len(p) != dim:
                raise ValueError(f"point {p} does not have dimension {dim}")
            if any(c < 0 for c in p):
                raise ValueError(f"point {p} has a negative coordinate")
        self.dim = dim
        self.points = pts

    def __len__(self) -> int:
        return len(self.points)

    def __contains__(self, p: tuple[int, ...]) -> bool:
        return tuple(p) in self.points

    def __iter__(self) -> Iterator[tuple[int, ...]]:
        return iter(sorted(self.points))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, LatticeSet) and self.dim == other.dim and self.points == other.points

    def __hash__(self) -> int:
        return hash((self.dim, self.points))

    def __repr__(self) -> str:
        return f"LatticeSet(dim={self.dim}, {sorted(self.points)})"

    def to_obj(self) -> dict:
        return {"dim": self.dim, "points": [list(p) for p in sorted(self.points)]}

    @classmethod
    def from_obj(cls, obj: dict) -> LatticeSet:
        return cls(obj["dim"], obj["points"])


def weight(z: Sequence[int]) -> int:
    """Number of non-zero coordinates."""
    return sum(1 for c in z if c != 0)


def is_downset(A: LatticeSet) -> bool:
    """True iff A contains every point dominated by one of its points.

    Checking one-step predecessors a - e_i suffices: iterating single steps
    reaches every dominated point.
    """
    pts = A.points
    for a in pts:
        for i, c in enumerate(a):
            if c > 0 and a[:i] + (c - 1,) + a[i + 1:] not in pts:
                return False
    return True


@dataclass(frozen=True)
class WeightStats:
    """Total and mean coordinate weight of a set, with the exact bound verdict.

    The bound (1/2) log2 |A| is never evaluated in floating point; the verdict
    fields come from the exact comparison of size**size with 4**total.
    """

    size: int
    total_weight: int
    mean_weight: Fraction
    bound_holds: bool
    is_equality: bool


def avg_weight_sides(size: int, total: int) -> tuple[Powers, Powers]:
    """total / size <= (1/2) log2 size cleared to size**size >= 4**total."""
    return ((size, size),), ((4, total),)


def weight_stats(A: LatticeSet) -> WeightStats:
    if len(A) == 0:
        raise ValueError("weight statistics are undefined for the empty set")
    total = sum(weight(a) for a in A.points)
    size = len(A)
    v = cleared_verdict(*avg_weight_sides(size, total))
    return WeightStats(size, total, Fraction(total, size), v.ok, v.equality)


def avg_weight_bound_holds(A: LatticeSet) -> bool:
    """Mean weight <= (1/2) log2 |A| for a non-empty downset, decided exactly."""
    if not is_downset(A):
        raise ValueError("the bound applies to downsets only")
    return weight_stats(A).bound_holds


def projection_sizes(A: LatticeSet) -> tuple[int, ...]:
    """|pi_i(A)| for each i, where pi_i zeroes coordinate i."""
    out = []
    for i in range(A.dim):
        out.append(len({a[:i] + (0,) + a[i + 1:] for a in A.points}))
    return tuple(out)


def _box_dims(box: Sequence[int]) -> tuple[int, ...]:
    """The bounds b_i of a box prod_i [0, b_i] as ints: at least one, each non-negative."""
    dims = tuple(int(b) for b in box)
    if not dims:
        raise ValueError("the box needs at least one axis")
    if min(dims) < 0:
        raise ValueError("box bounds must be non-negative")
    return dims


def box_projector(box: Sequence[int]) -> Callable[[int], tuple[int, ...]]:
    """|pi_i(A)| for each i, for sets A of the box prod_i [0, b_i] given as masks.

    Cell a has bit index sum_i a_i * stride_i, with stride_i = prod_{j>i} (b_j + 1),
    which is lexicographic (product) order.  pi_i(A) is read off the plane
    a_i = 0: ``popcount(plane_i & OR_c (mask >> c * stride_i))`` over
    c = 0..b_i.  The planes and shifts are built once per box; the returned
    function needs no per-point work.  ``projection_sizes`` is its oracle.
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


def lw_plus_sides(dim: int, size: int, projections: Sequence[int]) -> tuple[Powers, Powers]:
    """n|A| <= sum|pi_i(A)| + (1/2)|A| log2 |A| cleared to 4**sum * size**size >= 4**(n*size)."""
    return ((4, sum(projections)), (size, size)), ((4, dim * size),)


def lw_plus_feasible(dim: int, size: int, projections: Sequence[int]) -> bool:
    """Exact form of n|A| <= sum|pi_i(A)| + (1/2)|A| log2 |A| on raw counts."""
    if size < 1:
        raise ValueError("the inequality requires a non-empty set")
    return compare_powers(*lw_plus_sides(dim, size, projections)) >= 0


def lw_plus_holds(A: LatticeSet) -> bool:
    """The projection-sum inequality for any finite non-empty set (downset not required)."""
    return lw_plus_feasible(A.dim, len(A), projection_sizes(A))


def loomis_whitney_sides(size: int, projections: Sequence[int]) -> tuple[Powers, Powers]:
    """prod|pi_i(A)| >= |A|**(n-1) as power terms."""
    return tuple((p, 1) for p in projections), ((size, len(projections) - 1),)


def loomis_whitney_feasible(size: int, projections: Sequence[int]) -> bool:
    """Exact form of prod|pi_i(A)| >= |A|**(n-1) on raw counts."""
    if size < 1:
        raise ValueError("the inequality requires a non-empty set")
    return compare_powers(*loomis_whitney_sides(size, projections)) >= 0


def loomis_whitney_holds(A: LatticeSet) -> bool:
    return loomis_whitney_feasible(len(A), projection_sizes(A))


def lattice_compress_along(A: LatticeSet, i: int) -> LatticeSet:
    """Restack A inside every line parallel to e_i onto positions 0..count-1.

    Preserves cardinality and never increases any projection size; downsets
    are fixed points.
    """
    if not 0 <= i < A.dim:
        raise IndexError(f"axis {i} outside [0, {A.dim})")
    lines: dict[tuple[int, ...], int] = {}
    for a in A.points:
        key = a[:i] + a[i + 1:]
        lines[key] = lines.get(key, 0) + 1
    pts = []
    for key, count in lines.items():
        for k in range(count):
            pts.append(key[:i] + (k,) + key[i:])
    return LatticeSet(A.dim, pts)

"""Edge boundaries in directed abelian Cayley graphs and the size bounds they force.

The edge boundary of A with respect to S counts pairs (a, s) in A x S with
a + s outside A.  Every bound here clears to one inequality between two
products of integer powers, and ``compare_powers`` decides it: from rigorous
log2 bounds when the two sides are far apart, from the exact big integers
near equality (and whenever the operands are small), so an equality is always
decided exactly and a verdict near one never flips because of floating point.

``BOUNDARY_THEOREMS`` gives each bound one entry: a hypothesis check run once
per generator sequence, the sides of its cleared inequality with its slack,
and the classify_* kernel that ``_kernel`` derives from those sides.  The
verification runners, the *_holds predicates and witness replay all read it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import log2
from typing import Callable, NamedTuple

from .groups import (
    GeneratorSeq,
    GroupSet,
    GroupSpec,
    SpecMismatchError,
    is_independent,
    order_of,
    span_order,
)


class Verdict(NamedTuple):
    """Outcome of one exact bound check."""

    ok: bool
    vacuous: bool
    equality: bool


# -- exact power comparisons ------------------------------------------------------
#
# A side of a cleared inequality is a product of integer powers, written as a
# tuple of (base, exponent) pairs with base, exponent >= 0.  Its bit length
# grows like exponent * log2(base), which for the boundary bounds is about
# |S| * |A| * log|A|, so the sides are multiplied out only where the float
# logs cannot tell them apart.

Powers = tuple[tuple[int, int], ...]

# operands of fewer bits (both sides together) are multiplied out outright: at
# that size the integers cost about what the two float log sums cost
_EXACT_BITS = 4096
# relative error margin of the float log2 sums, far above their worst case
_LOG2_MARGIN = 2.0**-40

# entries per classify_* cache: over ten times the distinct keys of the largest
# exhaustive table (1,256 cells), so no plan of that size ever evicts
VERDICT_CACHE_SIZE = 1 << 14


def power_product(terms: Powers) -> int:
    """The side prod base**exponent, multiplied out."""
    out = 1
    for base, exp in terms:
        out *= base**exp
    return out


def _log2_sum(terms: Powers) -> float | None:
    """sum exponent * log2(base) in floats, or None when the product is 0."""
    total = 0.0
    for base, exp in terms:
        if exp:
            if not base:
                return None
            total += exp * log2(base)
    return total


def log2_sign(lhs: Powers, rhs: Powers) -> int | None:
    """The sign of prod lhs - prod rhs from float log2 sums, or None inside the margin.

    ``math.log2`` of a positive int is within a few units in the last place of
    log2(base) (the int rounds once to a double, or is split exactly by frexp,
    and libm log2 adds under one more), each product with the exponent and
    each addition round once more, and every term is non-negative.  So each
    float sum is within (k + 5) * 2**-53 of its true value relative to it, for
    k terms.  A difference beyond 2**-40 * (|l| + |r| + 1) therefore has the
    true sign; within it the answer is left to the exact integers.
    """
    left = _log2_sum(lhs)
    right = _log2_sum(rhs)
    if left is None or right is None:
        return (left is not None) - (right is not None)
    diff = left - right
    margin = _LOG2_MARGIN * (left + right + 1.0)
    if diff > margin:
        return 1
    if diff < -margin:
        return -1
    return None


def compare_powers(lhs: Powers, rhs: Powers) -> int:
    """The sign (-1, 0 or 1) of prod lhs - prod rhs, decided exactly.

    Operands under ``_EXACT_BITS`` bits are multiplied out.  Larger ones are
    decided by ``log2_sign`` and multiplied out only inside its margin, so an
    equality always comes from the exact integers.
    """
    bits = 0
    for base, exp in lhs:
        bits += exp * base.bit_length()
    for base, exp in rhs:
        bits += exp * base.bit_length()
    if bits >= _EXACT_BITS:
        sign = log2_sign(lhs, rhs)
        if sign is not None:
            return sign
    left, right = power_product(lhs), power_product(rhs)
    return (left > right) - (left < right)


def cleared_verdict(lhs: Powers, rhs: Powers) -> Verdict:
    """The verdict of the cleared inequality prod lhs >= prod rhs."""
    sign = compare_powers(lhs, rhs)
    return Verdict(sign >= 0, False, sign == 0)


@dataclass(frozen=True)
class BoundaryStats:
    """Exact edge-boundary counts for one (A, S) pair.

    ``gamma`` is the slack 1 - boundary/(|S||A|); ``gamma_rank`` uses a
    caller-supplied rank in place of |S| and is None when no rank was given.
    """

    total: int
    per_generator: tuple[int, ...]
    size: int
    gen_count: int
    gamma: Fraction
    gamma_rank: Fraction | None = None

    def to_obj(self) -> dict:
        return {
            "total": self.total,
            "per_generator": list(self.per_generator),
            "size": self.size,
            "gen_count": self.gen_count,
            "gamma": str(self.gamma),
            "gamma_rank": None if self.gamma_rank is None else str(self.gamma_rank),
        }


def boundary_counts(A: GroupSet, S: GeneratorSeq) -> tuple[int, ...]:
    """Per-generator counts |{a in A : a + s not in A}|, each by ``Shifter.boundary``."""
    if A.spec != S.spec:
        raise SpecMismatchError("set and generators live in different groups")
    return tuple(A.spec.shift_table(s).boundary(A.mask) for s in S)


def edge_boundary(A: GroupSet, S: GeneratorSeq, rank: int | None = None) -> BoundaryStats:
    """Exact boundary statistics; raises on empty A (gamma is undefined there)."""
    if len(A) == 0:
        raise ValueError("edge boundary slack is undefined for the empty set")
    if len(S) == 0:
        raise ValueError("at least one generator is required")
    if rank is not None and rank < 1:
        raise ValueError("rank must be positive")
    counts = boundary_counts(A, S)
    total = sum(counts)
    size = len(A)
    gamma = gamma_star(total, len(S), size)
    gamma_rank = None if rank is None else gamma_star(total, rank, size)
    return BoundaryStats(total, counts, size, len(S), gamma, gamma_rank)


def gamma_star(boundary: int, n: int, size: int) -> Fraction:
    """Maximal slack admitted by the counts: 1 - boundary/(n*size)."""
    return Fraction(n * size - boundary, n * size)


# -- exact verdict kernels ------------------------------------------------------
#
# Each bound clears to one inequality lhs >= rhs between products of powers.
# Its *_sides function is the one place that inequality and its vacuity are
# written: it returns (lhs, rhs, slack), the slack None when the bound has
# none, and ``_kernel`` makes the cached classify_* verdict of those sides.
# The kernels work on plain integers so that exhaustive sweeps can tabulate
# them; BOUNDARY_THEOREMS below adds the hypothesis checks.

_VACUOUS = Verdict(True, True, False)


def _kernel(sides: Callable[..., tuple[Powers, Powers, Fraction | None]]) -> Callable[..., Verdict]:
    """The verdict of ``sides(*args)``, cached: vacuous when the slack's numerator is at most 0."""

    @lru_cache(maxsize=VERDICT_CACHE_SIZE)
    def kernel(*args) -> Verdict:
        lhs, rhs, slack = sides(*args)
        if slack is not None and slack.numerator <= 0:
            return _VACUOUS
        return cleared_verdict(lhs, rhs)

    return kernel


def _root_sides(size: int, base: int, exponent: Fraction, gamma: Fraction) -> tuple[Powers, Powers, Fraction]:
    """Sides of size >= base**exponent cleared of its root; (size, 0) when gamma <= 0 asks nothing."""
    if gamma <= 0:
        return ((size, 1),), ((0, 1),), gamma
    return ((size, exponent.denominator),), ((base, exponent.numerator),), gamma


def log_lower_bound_sides(m: int, order: int, size: int, boundary: int) -> tuple[Powers, Powers, None]:
    """boundary >= size * log_m(order/size) as m**boundary * size**size >= order**size."""
    return ((m, boundary), (size, size)), ((order, size),), None


def small_exponent_sides(order: int, rank: int, size: int, boundary: int) -> tuple[Powers, Powers, Fraction]:
    """size >= order**g for the maximal admissible slack g."""
    g = gamma_star(boundary, rank, size)
    return _root_sides(size, order, g, g)


def independence_bound_sides(d: int, n: int, size: int, boundary: int) -> tuple[Powers, Powers, Fraction]:
    """size >= 4**((1 - 1/d) * g * n) with g the maximal admissible slack."""
    g = gamma_star(boundary, n, size)
    return _root_sides(size, 4, Fraction(d - 1, d) * g * n, g)


def subgroup_bound_sides(
    h_order: int, h_rank: int, size: int, boundary: int
) -> tuple[Powers, Powers, Fraction | None]:
    """size >= h_order**g where g is the slack measured against rank(H)."""
    if h_order == 1:
        # S = {0}: the spanned subgroup is trivial and the bound is immediate.
        return ((size, 1),), ((1, 1),), None
    g = gamma_star(boundary, h_rank, size)
    return _root_sides(size, h_order, g, g)


classify_log_lower_bound = _kernel(log_lower_bound_sides)
classify_small_exponent = _kernel(small_exponent_sides)
classify_independence_bound = _kernel(independence_bound_sides)
classify_subgroup_bound = _kernel(subgroup_bound_sides)


# -- hypotheses and the theorem registry -----------------------------------------


def _require_generating_small_exponent(check: str, spec: GroupSpec, gens: GeneratorSeq) -> None:
    if not spec.is_homocyclic or spec.exponent not in (2, 3, 4):
        raise ValueError(f"{check} needs a homocyclic group of exponent 2, 3 or 4")
    if span_order(gens) != spec.order:
        raise ValueError(f"{check} needs a generating sequence")


def log_lower_bound_params(spec: GroupSpec, gens: GeneratorSeq) -> tuple[int, int]:
    _require_generating_small_exponent("bl-bound", spec, gens)
    return spec.exponent, spec.order


def small_exponent_params(spec: GroupSpec, gens: GeneratorSeq) -> tuple[int, int]:
    _require_generating_small_exponent("exp234", spec, gens)
    return spec.order, spec.rank


def independence_bound_params(spec: GroupSpec, gens: GeneratorSeq) -> tuple[int, int]:
    """(d, n): the least order in S and |S|."""
    if not is_independent(gens):
        raise ValueError("generalcase needs an independent sequence")
    return min(order_of(s) for s in gens), len(gens)


def subgroup_rank(h_order: int, p: int) -> int:
    """Rank of a subgroup of order h_order in a group of prime exponent p."""
    r = 0
    o = h_order
    while o > 1:
        if o % p:
            raise ValueError(f"order {h_order} is not a power of {p}")
        o //= p
        r += 1
    return r


def subgroup_bound_params(spec: GroupSpec, gens: GeneratorSeq) -> tuple[int, int]:
    """(|H|, rank(H)) for H = span(S), computed once per sequence."""
    if spec.exponent not in (2, 3):
        raise ValueError("cosetdecomp needs group exponent 2 or 3")
    if len(gens) == 0:
        raise ValueError("cosetdecomp needs a non-empty sequence")
    h_order = span_order(gens)
    return h_order, subgroup_rank(h_order, spec.exponent)


_NAMESPACE = globals()


class BoundaryTheorem(NamedTuple):
    """One edge-boundary bound: its hypotheses, cleared sides and verdict kernel.

    ``params(spec, gens)`` checks the hypotheses and returns the kernel's
    leading arguments; ``sides(*params, size, boundary)`` returns (lhs, rhs,
    slack) of the cleared inequality lhs >= rhs, each side as power terms for
    ``compare_powers`` and ``power_product``; ``kernel`` names the
    module-level classify_* function.  The kernel is looked up in the module
    namespace at each call, so a rebound module attribute (the benchmark's
    tracer) sees every verdict.
    """

    params: Callable[[GroupSpec, GeneratorSeq], tuple[int, int]]
    sides: Callable[..., tuple[Powers, Powers, Fraction | None]]
    kernel: str

    def verdict(self, params: tuple[int, int], size: int, boundary: int) -> Verdict:
        return _NAMESPACE[self.kernel](*params, size, boundary)

    def holds(self, A: GroupSet, S: GeneratorSeq) -> bool:
        if A.spec != S.spec:
            raise SpecMismatchError("set and generators live in different groups")
        if len(A) == 0:
            raise ValueError("bound is undefined for the empty set")
        return self.verdict(self.params(A.spec, S), len(A), sum(boundary_counts(A, S))).ok


BOUNDARY_THEOREMS = {
    "bl-bound": BoundaryTheorem(log_lower_bound_params, log_lower_bound_sides, "classify_log_lower_bound"),
    "exp234": BoundaryTheorem(small_exponent_params, small_exponent_sides, "classify_small_exponent"),
    "generalcase": BoundaryTheorem(independence_bound_params, independence_bound_sides, "classify_independence_bound"),
    "cosetdecomp": BoundaryTheorem(subgroup_bound_params, subgroup_bound_sides, "classify_subgroup_bound"),
}


def log_lower_bound_holds(A: GroupSet, S: GeneratorSeq) -> bool:
    """Exact check of boundary >= |A| log_m(|G|/|A|) for generating S, exp(G) <= 4."""
    return BOUNDARY_THEOREMS["bl-bound"].holds(A, S)


def small_exponent_bound_holds(A: GroupSet, S: GeneratorSeq) -> bool:
    """|A| >= |G|**g for homocyclic G of exponent 2, 3 or 4 and generating S.

    g is the largest slack compatible with the measured boundary; when the
    boundary is too large for any positive slack the check is vacuously true.
    """
    return BOUNDARY_THEOREMS["exp234"].holds(A, S)


def independence_bound_holds(A: GroupSet, S: GeneratorSeq) -> bool:
    """|A| >= 4**((1-1/d) g n) for independent S, n = |S|, d = min order in S."""
    return BOUNDARY_THEOREMS["generalcase"].holds(A, S)

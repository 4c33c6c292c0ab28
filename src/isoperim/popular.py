"""Difference spectra, popular-difference sets, and exact additive dimensions.

r_A(g) counts ordered pairs of elements of A differing by g; the g-popular
set at threshold gamma keeps the elements with at least gamma*|A| such
representations.  The dimension searches below return certified maxima: the
backtracking is exhaustive and only uses sound prunes.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .boundary import Verdict
from .groups import Element, GroupSet, GroupSpec, min_nonzero_order

DEFAULT_DIM_CAP = 24


@dataclass(frozen=True)
class DiffSpectrum:
    """Exact difference-representation counts r_A(g) for every group element."""

    spec: GroupSpec
    size: int
    counts: tuple[int, ...]

    def count_of(self, g: Element) -> int:
        return self.counts[self.spec.index_of(g)]

    def popular(self, gamma: Fraction) -> GroupSet:
        """Elements with at least gamma*|A| representations (exact threshold)."""
        gamma = Fraction(gamma)
        if not 0 < gamma <= 1:
            raise ValueError(f"threshold must lie in (0, 1], got {gamma}")
        num, den = gamma.numerator, gamma.denominator
        bar = num * self.size
        mask = 0
        for r, c in enumerate(self.counts):
            if c * den >= bar:
                mask |= 1 << r
        return GroupSet(self.spec, mask)


def diff_spectrum(A: GroupSet) -> DiffSpectrum:
    """All difference counts at once, via vectorized mixed-radix arithmetic."""
    if len(A) == 0:
        raise ValueError("the difference spectrum requires a non-empty set")
    spec = A.spec
    idx = np.fromiter(A.indices(), dtype=np.int64)
    coords = np.empty((len(idx), spec.n_factors), dtype=np.int64)
    r = idx.copy()
    for i, m in enumerate(spec.moduli):
        r, coords[:, i] = np.divmod(r, m)
    moduli = np.asarray(spec.moduli, dtype=np.int64)
    strides = np.asarray(spec.strides, dtype=np.int64)
    diffs = (coords[:, None, :] - coords[None, :, :]) % moduli
    ranks = (diffs * strides).sum(axis=2).ravel()
    counts = np.bincount(ranks, minlength=spec.order)
    return DiffSpectrum(spec, len(idx), tuple(int(c) for c in counts))


def popular_diffs(A: GroupSet, gamma: Fraction) -> GroupSet:
    return diff_spectrum(A).popular(gamma)


@dataclass(frozen=True)
class DimensionResult:
    """A certified maximum subset size with one witness attaining it."""

    value: int
    witness: GroupSet
    kind: str


def is_dissociated(B: GroupSet, cap: int = DEFAULT_DIM_CAP) -> bool:
    """True iff all 2**|B| subset sums are pairwise distinct."""
    if len(B) > cap:
        raise ValueError(f"set size {len(B)} exceeds the dissociativity cap {cap}")
    spec = B.spec
    sums = {0}
    for r in B.indices():
        perm = spec.add_perm(spec.element_at(r))
        shifted = {perm[s] for s in sums}
        if not shifted.isdisjoint(sums):
            return False
        sums |= shifted
    return True


def _max_power_below(base: int, limit: int) -> int:
    """Largest k with base**k <= limit."""
    k = 0
    acc = base
    while acc <= limit:
        k += 1
        acc *= base
    return k


def dim_independent(P: GroupSet, cap: int = DEFAULT_DIM_CAP) -> DimensionResult:
    """Size of the largest independent subset of P, by exhaustive backtracking.

    Zero never participates: it contributes order 1 and is excluded from the
    candidate pool.  Prunes are sound (candidate count, and the structural
    bound prod(ord) <= |G|), so the maximum is certified, and the search stops
    early only once a set matching the structural bound has been found.
    """
    if len(P) > cap:
        raise ValueError(f"set size {len(P)} exceeds the search cap {cap}")
    spec = P.spec
    cands = [r for r in P.indices() if r != 0]
    if not cands:
        return DimensionResult(0, GroupSet.empty(spec), "independent")
    upper = _max_power_below(min_nonzero_order(spec), spec.order)
    # non-zero multiples of each candidate, for the trivial-intersection test
    mults: dict[int, list[int]] = {}
    for r in cands:
        perm = spec.add_perm(spec.element_at(r))
        chain = []
        q = perm[0]
        while q != 0:
            chain.append(q)
            q = perm[q]
        mults[r] = chain

    best_size = 0
    best: tuple[int, ...] = ()

    def grow(start: int, chosen: tuple[int, ...], span_mask: int) -> None:
        nonlocal best_size, best
        if len(chosen) > best_size:
            best_size, best = len(chosen), chosen
        if best_size == upper or len(chosen) + (len(cands) - start) <= best_size:
            return
        for j in range(start, len(cands)):
            r = cands[j]
            chain = mults[r]
            # <r> meets the current span only in 0  <=>  extension stays independent
            if any((span_mask >> q) & 1 for q in chain):
                continue
            new_span = span_mask
            for q in chain:
                perm = spec.add_perm(spec.element_at(q))
                shifted = 0
                m = span_mask
                while m:
                    lsb = m & -m
                    shifted |= 1 << perm[lsb.bit_length() - 1]
                    m ^= lsb
                new_span |= shifted
            grow(j + 1, chosen + (r,), new_span)
            if best_size == upper:
                return

    grow(0, (), 1)
    return DimensionResult(best_size, GroupSet.from_indices(spec, best), "independent")


def dim_dissociated(P: GroupSet, cap: int = DEFAULT_DIM_CAP) -> DimensionResult:
    """Size of the largest dissociated subset of P, by exhaustive backtracking."""
    if len(P) > cap:
        raise ValueError(f"set size {len(P)} exceeds the search cap {cap}")
    spec = P.spec
    cands = [r for r in P.indices() if r != 0]
    if not cands:
        return DimensionResult(0, GroupSet.empty(spec), "dissociated")
    upper = _max_power_below(2, spec.order)
    perms = {r: spec.add_perm(spec.element_at(r)) for r in cands}

    best_size = 0
    best: tuple[int, ...] = ()

    def grow(start: int, chosen: tuple[int, ...], sums: frozenset[int]) -> None:
        nonlocal best_size, best
        if len(chosen) > best_size:
            best_size, best = len(chosen), chosen
        if best_size == upper or len(chosen) + (len(cands) - start) <= best_size:
            return
        for j in range(start, len(cands)):
            r = cands[j]
            perm = perms[r]
            shifted = frozenset(perm[s] for s in sums)
            if not shifted.isdisjoint(sums):
                continue
            grow(j + 1, chosen + (r,), sums | shifted)
            if best_size == upper:
                return

    grow(0, (), frozenset({0}))
    return DimensionResult(best_size, GroupSet.from_indices(spec, best), "dissociated")


# -- popular-difference dimension bound -----------------------------------------


@lru_cache(maxsize=None)
def classify_popular_dim(p: int, gamma: Fraction, size: int, dim: int) -> Verdict:
    """dim <= (2(1-1/p))**-1 gamma**-1 log2(size), cleared to integers."""
    a, b = gamma.numerator, gamma.denominator
    lhs = 4 ** ((p - 1) * a * dim)
    rhs = size ** (p * b)
    return Verdict(lhs <= rhs, False, lhs == rhs)


@lru_cache(maxsize=None)
def classify_popular_dim_exp3(gamma: Fraction, size: int, dim: int) -> Verdict:
    """Sharper exponent-3 form: dim <= gamma**-1 log3(size)."""
    a, b = gamma.numerator, gamma.denominator
    lhs = 3 ** (a * dim)
    rhs = size**b
    return Verdict(lhs <= rhs, False, lhs == rhs)


def popular_dim_verdict(spec: GroupSpec, gamma: Fraction, size: int, dim: int) -> Verdict:
    """The exponent-3 form when exp(G) = 3, else the general form with p the least non-zero order."""
    if spec.exponent == 3:
        return classify_popular_dim_exp3(gamma, size, dim)
    return classify_popular_dim(min_nonzero_order(spec), gamma, size, dim)


def popular_dim_bound_holds(A: GroupSet, gamma: Fraction, cap: int = DEFAULT_DIM_CAP) -> bool:
    """Exact verdict for the independent-dimension bound on the popular set.

    Uses the exponent-3 form when exp(G) = 3 and the general form otherwise,
    with p the smallest order of a non-zero group element.
    """
    gamma = Fraction(gamma)
    if not 0 < gamma <= 1:
        raise ValueError(f"threshold must lie in (0, 1], got {gamma}")
    if len(A) == 0:
        raise ValueError("the bound requires a non-empty set")
    P = popular_diffs(A, gamma)
    dim = dim_independent(P, cap=cap).value
    return popular_dim_verdict(A.spec, gamma, len(A), dim).ok

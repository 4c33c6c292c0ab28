"""Difference spectra, popular-difference sets, and exact additive dimensions.

r_A(g) counts ordered pairs of elements of A differing by g; the g-popular
set at threshold gamma keeps the elements with at least gamma*|A| such
representations.  The dimension searches below return certified maxima: the
backtracking is exhaustive and only uses sound prunes.  They run on masks:
a span or a family of subset sums is a bitmask over element indices, grown by
the cached translators of ``GroupSpec.cyclic_closure``, so the test "<r> meets
the span" is one AND with the mask of the non-zero multiples of r and no step
of a search works element by element.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .boundary import VERDICT_CACHE_SIZE, Verdict, cleared_verdict
from .groups import Element, GroupSet, GroupSpec, min_nonzero_order, p_ranks

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
    if B.has_index(0):
        return False  # the empty sum and {0} both sum to 0
    spec = B.spec
    sums = 1  # the empty sum
    for r in B.indices():
        shifted = spec.cyclic_closure(r)[1][0].apply(sums)
        if shifted & sums:
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
    candidate pool.  Prunes are sound (candidate count), and the search stops
    early only once a set matching the structural bound has been found: the
    smaller of floor(log_p |G|), from prod(ord) <= |G| with p the least
    non-zero order, and the p-rank sum of G, since every non-trivial cyclic
    summand of an independent set adds at least 1 to some p-rank of the
    subgroup it spans, and no p-rank of a subgroup exceeds r_p(G).
    """
    if len(P) > cap:
        raise ValueError(f"set size {len(P)} exceeds the search cap {cap}")
    spec = P.spec
    cands = [r for r in P.indices() if r != 0]
    if not cands:
        return DimensionResult(0, GroupSet.empty(spec), "independent")
    upper = min(_max_power_below(min_nonzero_order(spec), spec.order), sum(p_ranks(spec).values()))
    # non-zero multiples of each candidate and the doubling shifters of <r>
    closures = [spec.cyclic_closure(r) for r in cands]

    best_size = 0
    best: tuple[int, ...] = ()

    def grow(start: int, chosen: tuple[int, ...], span_mask: int) -> None:
        nonlocal best_size, best
        if len(chosen) > best_size:
            best_size, best = len(chosen), chosen
        if best_size == upper or len(chosen) + (len(cands) - start) <= best_size:
            return
        for j in range(start, len(cands)):
            multiples, shifters = closures[j]
            # <r> meets the current span only in 0  <=>  extension stays independent
            if span_mask & multiples:
                continue
            new_span = span_mask
            for sh in shifters:
                new_span |= sh.apply(new_span)
            grow(j + 1, chosen + (cands[j],), new_span)
            if best_size == upper:
                return

    grow(0, (), 1)
    return DimensionResult(best_size, GroupSet.from_indices(spec, best), "independent")


def dim_dissociated(P: GroupSet, cap: int = DEFAULT_DIM_CAP) -> DimensionResult:
    """Size of the largest dissociated subset of P, by exhaustive backtracking.

    Subset sums are a mask; adding r keeps the set dissociated iff the sums
    translated by r miss the sums.
    """
    if len(P) > cap:
        raise ValueError(f"set size {len(P)} exceeds the search cap {cap}")
    spec = P.spec
    cands = [r for r in P.indices() if r != 0]
    if not cands:
        return DimensionResult(0, GroupSet.empty(spec), "dissociated")
    upper = _max_power_below(2, spec.order)
    # the first doubling shifter of <r> translates by r itself
    shifters = [spec.cyclic_closure(r)[1][0] for r in cands]

    best_size = 0
    best: tuple[int, ...] = ()

    def grow(start: int, chosen: tuple[int, ...], sums: int) -> None:
        nonlocal best_size, best
        if len(chosen) > best_size:
            best_size, best = len(chosen), chosen
        if best_size == upper or len(chosen) + (len(cands) - start) <= best_size:
            return
        for j in range(start, len(cands)):
            shifted = shifters[j].apply(sums)
            if shifted & sums:
                continue
            grow(j + 1, chosen + (cands[j],), sums | shifted)
            if best_size == upper:
                return

    grow(0, (), 1)
    return DimensionResult(best_size, GroupSet.from_indices(spec, best), "dissociated")


# -- popular-difference dimension bound -----------------------------------------


@lru_cache(maxsize=VERDICT_CACHE_SIZE)
def classify_popular_dim(p: int, gamma: Fraction, size: int, dim: int) -> Verdict:
    """dim <= (2(1-1/p))**-1 gamma**-1 log2(size), cleared to size**(p*b) >= 4**((p-1)*a*dim)."""
    a, b = gamma.numerator, gamma.denominator
    return cleared_verdict(((size, p * b),), ((4, (p - 1) * a * dim),))


@lru_cache(maxsize=VERDICT_CACHE_SIZE)
def classify_popular_dim_exp3(gamma: Fraction, size: int, dim: int) -> Verdict:
    """Sharper exponent-3 form: dim <= gamma**-1 log3(size), cleared to size**b >= 3**(a*dim)."""
    a, b = gamma.numerator, gamma.denominator
    return cleared_verdict(((size, b),), ((3, a * dim),))


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

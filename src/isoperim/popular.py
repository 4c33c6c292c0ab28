"""Difference spectra, popular-difference sets, and exact additive dimensions.

r_A(g) counts ordered pairs of elements of A differing by g; the g-popular
set at threshold gamma keeps the elements with at least gamma*|A| such
representations.  The spectrum of one set takes every difference a - b by
mixed-radix arithmetic in numpy, one block of rows a at a time, so its time
grows like |A|**2 * n while each block holds about ``_SPECTRUM_BLOCK`` int64
entries.  ``diff_counts`` takes many sets at once on the mask kernel instead,
r_A(g) = |A & (A + g)|, one translation per g over a whole uint64 array of
sets (or per int mask past 64 elements); it serves the ``repa`` runner, and
the single-set spectrum stays as its pairwise oracle.  ``popular_masks``
holds the one threshold test for both.

Both dimension searches are one exhaustive backtracking routine with sound
prunes, so they return certified maxima.  Each supplies only its admit rule
on a mask state: a span, grown by the doubling translators of
``GroupSpec.cyclic_closure`` and met by <r> iff it meets the mask of the
non-zero multiples of r, or a family of subset sums, which r keeps
dissociated iff their translate by r misses them.  Where the admitted sets
are the independent sets of a matroid (linear independence over F_p: any
independence in an elementary abelian group, dissociativity at exponent 2
or 3) the search's first branch, the greedy pass, is its result, and only
that branch runs.

``independent_dims`` serves the ``repa`` runner a batch of popular sets at
once.  On an elementary abelian group C_p^n with |G| <= 64 the dimension is
the F_p-rank of P, n - log_p |P^perp| by annihilator duality: the kernel of
each character x -> a.x mod p is one uint64 mask, every P counts the kernels
that hold it, and an exact table of the powers of p gives the rank, with no
search.  Mixed groups and larger groups search each distinct set once, and
``dim_independent`` stays the oracle and the single-set route.  The runner
keeps one verdict table per threshold over the (size, dim) cells its cases
reach.

Each form of the dimension bound writes its cleared inequality once, in
``popular_dim_sides`` or ``popular_dim_exp3_sides``, and ``boundary._kernel``
derives its classify_* verdict from those sides.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .boundary import Powers, Verdict, _kernel
from .groups import GroupSet, GroupSpec, Shifter, min_nonzero_order, p_ranks

DEFAULT_DIM_CAP = 24
# int64 entries per block of the difference table, about 8 MB
_SPECTRUM_BLOCK = 1 << 20


@dataclass(frozen=True)
class DiffSpectrum:
    """Exact difference-representation counts r_A(g) for every group element."""

    spec: GroupSpec
    size: int
    counts: tuple[int, ...]

    def popular(self, gamma: Fraction) -> GroupSet:
        """Elements with at least gamma*|A| representations (exact threshold)."""
        (mask,) = popular_masks(np.array(self.counts)[:, None], gamma)
        return GroupSet(self.spec, mask)


def diff_spectrum(A: GroupSet) -> DiffSpectrum:
    """All difference counts at once, via vectorized mixed-radix arithmetic on blocks of rows."""
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
    counts = np.zeros(spec.order, dtype=np.int64)
    rows = max(1, _SPECTRUM_BLOCK // coords.size)
    for lo in range(0, len(idx), rows):
        diffs = (coords[lo:lo + rows, None, :] - coords[None, :, :]) % moduli
        counts += np.bincount((diffs * strides).sum(axis=2).ravel(), minlength=spec.order)
    return DiffSpectrum(spec, len(idx), tuple(counts.tolist()))


def diff_counts(spec: GroupSpec, masks: Sequence[int]) -> np.ndarray:
    """r_A(g) = |A & (A + g)| for every set A of ``masks`` and every g, as a (|G|, sets) int64 array.

    When |G| <= 64 the sets go in one uint64 array, taken with one translation
    and one popcount per g; above that they stay ints, one translation per set
    and g.  Row 0 holds the sizes |A|.  ``diff_spectrum`` is its pairwise oracle.
    """
    words = np.array(masks, dtype=np.uint64) if spec.order <= 64 else None
    counts = np.empty((spec.order, len(masks)), dtype=np.int64)
    for g in range(spec.order):
        sh = spec.shifter_at(g)
        if words is None:
            counts[g] = [(m & sh.apply(m)).bit_count() for m in masks]
        else:
            counts[g] = np.bitwise_count(words & sh.apply(words))
    return counts


def popular_masks(counts: np.ndarray, gamma: Fraction) -> list[int]:
    """The gamma-popular set of each column of a (|G|, sets) count array whose row 0 holds |A|, as int masks.

    Bit g is set iff r(g) * den >= num * |A| for gamma = num/den, an exact
    integer test; a threshold outside (0, 1] raises ``ValueError``.
    """
    gamma = Fraction(gamma)
    if not 0 < gamma <= 1:
        raise ValueError(f"threshold must lie in (0, 1], got {gamma}")
    num, den = gamma.numerator, gamma.denominator
    if den * int(counts[0].max()) >= 1 << 63:  # r(g) <= |A|, so below this both products fit in int64
        counts = counts.astype(object)
    hits = np.asarray(counts * den >= num * counts[0], dtype=bool)
    if len(hits) <= 64:
        return _words(hits.T).tolist()
    return [int.from_bytes(col.tobytes(), "little") for col in np.packbits(hits, axis=0, bitorder="little").T]


def _words(rows: np.ndarray) -> np.ndarray:
    """Each row of a bool array of at most 64 columns as the uint64 mask with bit i set iff column i is."""
    packed = np.packbits(rows, axis=1, bitorder="little")
    words = np.zeros((len(rows), 8), dtype=np.uint8)
    words[:, : packed.shape[1]] = packed
    return words.view("<u8").ravel()


def popular_diffs(A: GroupSet, gamma: Fraction) -> GroupSet:
    return diff_spectrum(A).popular(gamma)


@dataclass(frozen=True)
class DimensionResult:
    """A certified maximum subset size with one witness attaining it."""

    value: int
    witness: GroupSet
    kind: str


def _admit_independent(closure: tuple[int, tuple[Shifter, ...]], span_mask: int) -> int | None:
    """Span masks: <r> must meet the span only in 0, and the span grows to span + <r>."""
    multiples, shifters = closure
    if span_mask & multiples:
        return None
    for sh in shifters:
        span_mask |= sh.apply(span_mask)
    return span_mask


def _admit_dissociated(shifter: Shifter, sums: int) -> int | None:
    """Subset-sum masks: the sums translated by r must miss the sums, and both families join."""
    shifted = shifter.apply(sums)
    return None if shifted & sums else sums | shifted


def _candidates(P: GroupSet, cap: int) -> list[int]:
    """The non-zero elements of P in index order, once P is within the search cap."""
    if len(P) > cap:
        raise ValueError(f"set size {len(P)} exceeds the search cap {cap}")
    return [r for r in P.indices() if r != 0]


def _first_branch(P: GroupSet, cap: int, kind: str, upper: int, prepare: Callable, admit: Callable) -> DimensionResult:
    """The first branch of ``_largest_subset``: each candidate in index order joins if it can, up to ``upper``.

    When the admitted sets are the independent sets of a matroid, every set
    this pass cannot extend is a largest one, so the backtracking search
    finds nothing larger after it: this pass gives its value and its witness.
    """
    spec = P.spec
    chosen: list[int] = []
    state = 1
    for r in _candidates(P, cap):
        if len(chosen) == upper:
            break
        grown = admit(prepare(spec, r), state)
        if grown is not None:
            chosen.append(r)
            state = grown
    return DimensionResult(len(chosen), GroupSet.from_indices(spec, chosen), kind)


def _largest_subset(P: GroupSet, cap: int, kind: str, upper: int, prepare: Callable, admit: Callable) -> DimensionResult:
    """The largest set of non-zero elements of P that ``admit`` accepts, by exhaustive backtracking.

    ``prepare(spec, r)`` is computed once per candidate r, and
    ``admit(datum, state)`` takes the mask state of a chosen subset to the
    state with that candidate added, or to None when it cannot join.
    Candidates are tried in index order from the state 1 (the mask of {0}).
    A branch is cut only when its remaining candidates cannot beat the best
    set found, and the search stops once a set of the structural bound
    ``upper`` has been found, so the result is a certified maximum and its
    witness the first maximal set in that order.
    """
    spec = P.spec
    cands = _candidates(P, cap)
    data = [prepare(spec, r) for r in cands]
    best_size = 0
    best: tuple[int, ...] = ()

    def grow(start: int, chosen: tuple[int, ...], state: int) -> None:
        nonlocal best_size, best
        if len(chosen) > best_size:
            best_size, best = len(chosen), chosen
        if best_size == upper or len(chosen) + (len(cands) - start) <= best_size:
            return
        for j in range(start, len(cands)):
            grown = admit(data[j], state)
            if grown is None:
                continue
            grow(j + 1, chosen + (cands[j],), grown)
            if best_size == upper:
                return

    grow(0, (), 1)
    return DimensionResult(best_size, GroupSet.from_indices(spec, best), kind)


def dim_independent(P: GroupSet, cap: int = DEFAULT_DIM_CAP) -> DimensionResult:
    """Size of the largest independent subset of P, by the greedy pass on elementary groups, else backtracking.

    Zero never participates: it contributes order 1 and is excluded from the
    candidate pool.  The structural bound is the p-rank sum of G, since every
    non-trivial cyclic summand of an independent set adds at least 1 to some
    p-rank of the subgroup it spans, and no p-rank of a subgroup exceeds
    r_p(G).  It is at most floor(log_p |G|) for the least prime p, as the
    elements of prime order span a subgroup of order prod p**r_p(G).
    """
    ranks = p_ranks(P.spec)
    # in an elementary abelian group independence is linear independence over F_p, a matroid
    search = _first_branch if P.spec.exponent in ranks else _largest_subset
    return search(P, cap, "independent", sum(ranks.values()), GroupSpec.cyclic_closure, _admit_independent)


def dim_dissociated(P: GroupSet, cap: int = DEFAULT_DIM_CAP) -> DimensionResult:
    """Size of the largest dissociated subset of P, by the greedy pass at exponent 2 or 3, else backtracking.

    Its 2**k subset sums are distinct elements, so k <= floor(log2 |G|).
    """
    upper = P.spec.order.bit_length() - 1
    # for p = 2, 3 the coefficients {-1, 0, 1} cover F_p, so dissociated means linearly independent
    search = _first_branch if P.spec.exponent in (2, 3) else _largest_subset
    return search(P, cap, "dissociated", upper, GroupSpec.shifter_at, _admit_dissociated)


def independent_dims(
    spec: GroupSpec, populars: Sequence[Sequence[int]], cap: int = DEFAULT_DIM_CAP, memo: dict[int, int] | None = None
) -> np.ndarray:
    """``dim_independent(P).value`` for every mask P of ``populars[j][s]``, as a (gammas, sets) int64 array.

    The first mask in (s, j) order with more than ``cap`` elements raises the
    search's ``ValueError``.  On an elementary abelian group C_p^n with
    |G| <= 64 the dimension is the F_p-rank of P, read by annihilator
    duality as n - log_p |P^perp|: the characters x -> a.x mod p that vanish
    on all of P are counted with one mask test per a against the kernel of
    each.  Elsewhere each distinct mask is searched once, its value kept in
    ``memo`` (a dict the caller may carry between calls), and the batch is
    read back through it in one pass.
    """
    words = np.array(populars, dtype=np.uint64) if spec.order <= 64 else None
    if words is not None:
        sizes = np.bitwise_count(words)
    else:
        sizes = np.array([[m.bit_count() for m in row] for row in populars], dtype=np.int64)
    over = (sizes > cap).T
    if over.any():
        s, j = divmod(int(over.argmax()), len(populars))
        raise ValueError(f"set size {sizes[j, s]} exceeds the search cap {cap}")
    if words is not None and spec.exponent in p_ranks(spec):
        p, n = spec.exponent, spec.n_factors
        coords = np.array(GroupSet.full(spec).coords(), dtype=np.int64)
        kernels = _words(coords @ coords.T % p == 0)  # row a: the elements x with a.x = 0 mod p
        dual = np.zeros(words.shape, dtype=np.uint8)  # |P^perp| <= |G| <= 64
        for kernel in kernels:
            dual += (words & ~kernel) == 0
        log = np.full(spec.order + 1, -1, dtype=np.int64)
        log[[p**k for k in range(n + 1)]] = range(n + 1)
        k = log[dual]
        if (k < 0).any():
            raise RuntimeError(f"an annihilator of a set in {spec!r} has an order that is not a power of {p}")
        return n - k
    memo = {} if memo is None else memo
    flat = words.ravel().tolist() if words is not None else [P for row in populars for P in row]
    for P in dict.fromkeys(flat):
        if P not in memo:
            memo[P] = dim_independent(GroupSet(spec, P), cap=cap).value
    return np.fromiter(map(memo.__getitem__, flat), dtype=np.int64, count=len(flat)).reshape(sizes.shape)


# -- popular-difference dimension bound: sides and verdict kernels ------------


def popular_dim_sides(p: int, gamma: Fraction, size: int, dim: int) -> tuple[Powers, Powers, None]:
    """dim <= (2(1-1/p))**-1 gamma**-1 log2(size), cleared to size**(p*b) >= 4**((p-1)*a*dim)."""
    a, b = gamma.numerator, gamma.denominator
    return ((size, p * b),), ((4, (p - 1) * a * dim),), None


def popular_dim_exp3_sides(gamma: Fraction, size: int, dim: int) -> tuple[Powers, Powers, None]:
    """Sharper exponent-3 form: dim <= gamma**-1 log3(size), cleared to size**b >= 3**(a*dim)."""
    a, b = gamma.numerator, gamma.denominator
    return ((size, b),), ((3, a * dim),), None


classify_popular_dim = _kernel(popular_dim_sides)
classify_popular_dim_exp3 = _kernel(popular_dim_exp3_sides)


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
    P = popular_diffs(A, gamma)  # which rejects an empty set and a threshold outside (0, 1]
    dim = dim_independent(P, cap=cap).value
    return popular_dim_verdict(A.spec, gamma, len(A), dim).ok

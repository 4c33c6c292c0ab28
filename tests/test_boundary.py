"""Edge-boundary counting and the exact size-bound predicates."""

from __future__ import annotations

from fractions import Fraction
from itertools import product

import pytest

from isoperim import (
    GeneratorSeq,
    GroupSet,
    GroupSpec,
    VerifyPlan,
    draw_generating_seq,
    edge_boundary,
    independence_bound_holds,
    log_lower_bound_holds,
    run_verify,
    small_exponent_bound_holds,
    span,
    subgroup_bound_holds,
)
from isoperim.boundary import (
    BOUNDARY_THEOREMS,
    classify_log_lower_bound,
    classify_small_exponent,
    boundary_counts,
)
from isoperim.harness import GeneratorPolicy
from isoperim.prng import SplitMix64


def brute_force_boundary(A, S):
    """Oracle: literal pair count over A x S using element arithmetic."""
    return sum(1 for a in A for s in S if (a + s) not in A)


def box_set(spec, t):
    return GroupSet.from_elements(
        spec, (spec.element(c) for c in product(*[range(t)] * spec.n_factors))
    )


def test_whole_group_has_no_boundary():
    spec = GroupSpec([3, 3])
    stats = edge_boundary(GroupSet.full(spec), spec.standard_basis())
    assert stats.total == 0
    assert stats.gamma == 1


def test_singleton_boundary():
    spec = GroupSpec([2, 2])
    stats = edge_boundary(GroupSet.from_indices(spec, [0]), spec.standard_basis())
    assert stats.total == 2
    assert stats.per_generator == (1, 1)


def test_box_boundary_closed_form():
    # boundary of the box [0, t-1]^n under the standard basis is n * t**(n-1)
    spec = GroupSpec([3, 3])
    stats = edge_boundary(box_set(spec, 2), spec.standard_basis())
    assert stats.total == 4
    spec = GroupSpec([5, 5, 5])
    stats = edge_boundary(box_set(spec, 2), spec.standard_basis())
    assert stats.total == 3 * 2**2


def test_edge_boundary_matches_brute_force():
    rng = SplitMix64(1)
    for moduli in [(2, 4), (3, 3), (2, 2, 2)]:
        spec = GroupSpec(moduli)
        basis = spec.standard_basis()
        for _ in range(40):
            A = GroupSet(spec, rng.nonempty_mask(spec.order))
            S_mask = rng.nonempty_mask(spec.order)
            S = GeneratorSeq(spec, tuple(GroupSet(spec, S_mask).elements()))
            stats = edge_boundary(A, S)
            assert stats.total == brute_force_boundary(A, S)
            assert stats.total == sum(stats.per_generator)
            assert 0 <= stats.total <= len(S) * len(A)
            assert stats.gamma == 1 - Fraction(stats.total, len(S) * len(A))
            assert edge_boundary(A, basis).total == brute_force_boundary(A, basis)


def test_translation_invariance():
    spec = GroupSpec([2, 4])
    rng = SplitMix64(2)
    basis = spec.standard_basis()
    for _ in range(30):
        A = GroupSet(spec, rng.nonempty_mask(spec.order))
        g = spec.element_at(rng.below(spec.order))
        assert edge_boundary(A, basis).total == edge_boundary(A.translate(g), basis).total


def test_zero_boundary_forces_coset_union():
    spec = GroupSpec([2, 4])
    s = spec.element([0, 1])
    S = GeneratorSeq(spec, (s,))
    H = span(S)
    for mask in range(1, 1 << spec.order):
        A = GroupSet(spec, mask)
        if edge_boundary(A, S).total == 0:
            assert len(A) >= len(H)
            assert A.translate(s) == A  # union of <S>-cosets


def test_empty_set_rejected():
    spec = GroupSpec([2, 2])
    with pytest.raises(ValueError):
        edge_boundary(GroupSet.empty(spec), spec.standard_basis())


def test_gamma_rank_field():
    spec = GroupSpec([2, 2])
    A = GroupSet.from_indices(spec, [0])
    basis = spec.standard_basis()
    assert edge_boundary(A, basis).gamma_rank is None
    assert edge_boundary(A, basis, rank=2).gamma_rank == 1 - Fraction(2, 2 * 1)


# -- the generating-set logarithmic lower bound -----------------------------------


def test_log_lower_bound_whole_group():
    spec = GroupSpec([2, 2, 2])
    assert log_lower_bound_holds(GroupSet.full(spec), spec.standard_basis())


def test_log_lower_bound_singleton_equality():
    spec = GroupSpec([2, 2, 2])
    A = GroupSet.from_indices(spec, [0])
    assert edge_boundary(A, spec.standard_basis()).total == 3
    v = classify_log_lower_bound(2, 8, 1, 3)
    assert v.ok and v.equality  # 2**3 == 8**1


def test_log_lower_bound_exhaustive_c2_cubed():
    spec = GroupSpec([2, 2, 2])
    basis = spec.standard_basis()
    for mask in range(1, 1 << spec.order):
        assert log_lower_bound_holds(GroupSet(spec, mask), basis)


def test_log_lower_bound_requires_generating_set():
    spec = GroupSpec([2, 2])
    S = GeneratorSeq(spec, (spec.element([1, 0]),))
    with pytest.raises(ValueError):
        log_lower_bound_holds(GroupSet.full(spec), S)


def test_log_lower_bound_requires_small_exponent():
    spec = GroupSpec([5, 5])
    with pytest.raises(ValueError):
        log_lower_bound_holds(GroupSet.full(spec), spec.standard_basis())


# -- the homocyclic small-exponent bound ------------------------------------------


def test_small_exponent_whole_group():
    spec = GroupSpec([4, 4])
    assert small_exponent_bound_holds(GroupSet.full(spec), spec.standard_basis())


def test_small_exponent_singleton_vacuous():
    spec = GroupSpec([3, 3])
    A = GroupSet.from_indices(spec, [0])
    assert edge_boundary(A, spec.standard_basis()).total == 2
    v = classify_small_exponent(9, 2, 1, 2)
    assert v.ok and v.vacuous
    assert small_exponent_bound_holds(A, spec.standard_basis())


def test_small_exponent_exhaustive_small_groups():
    for moduli in [(2, 2, 2), (3, 3)]:
        spec = GroupSpec(moduli)
        basis = spec.standard_basis()
        for mask in range(1, 1 << spec.order):
            assert small_exponent_bound_holds(GroupSet(spec, mask), basis)


def test_small_exponent_on_union_of_subgroups():
    # the two-subgroup union in C_2^4 satisfies the bound with real slack
    from isoperim import build_example

    inst = build_example("ex2", m=2, n=4, k=2)
    assert small_exponent_bound_holds(inst.subset, inst.gens)
    assert log_lower_bound_holds(inst.subset, inst.gens)


def test_small_exponent_uses_rank_not_set_size():
    # an oversized generating sequence must still be measured against rank
    spec = GroupSpec([2, 2])
    extra = GeneratorSeq(
        spec, (spec.element([1, 0]), spec.element([0, 1]), spec.element([1, 1]))
    )
    A = GroupSet.from_indices(spec, [0, 1])
    stats = edge_boundary(A, extra)
    v = classify_small_exponent(spec.order, spec.rank, len(A), stats.total)
    assert v.ok == small_exponent_bound_holds(A, extra)


# -- the independent-generators bound ----------------------------------------------


def test_independence_bound_tight_on_c2_squared():
    spec = GroupSpec([2, 2])
    A = GroupSet.full(spec)
    basis = spec.standard_basis()
    assert independence_bound_holds(A, basis)
    # gamma = 1, d = 2, n = 2: the bound is 4**1 = 4 = |A|, an equality case
    from isoperim.boundary import classify_independence_bound

    v = classify_independence_bound(2, 2, 4, 0)
    assert v.ok and v.equality


def test_independence_bound_on_boxes():
    for m, n in [(5, 2), (5, 3), (3, 3)]:
        spec = GroupSpec([m] * n)
        A = box_set(spec, 2)
        assert independence_bound_holds(A, spec.standard_basis())


def test_independence_bound_rejects_dependent_sets():
    spec = GroupSpec([2, 2])
    e1, e2 = spec.standard_basis()
    with pytest.raises(ValueError):
        independence_bound_holds(GroupSet.full(spec), GeneratorSeq(spec, (e1, e2, e1 + e2)))


def test_independence_bound_exhaustive_c2xc4():
    spec = GroupSpec([2, 4])
    S = GeneratorSeq(spec, (spec.element([1, 0]), spec.element([0, 1])))
    for mask in range(1, 1 << spec.order):
        assert independence_bound_holds(GroupSet(spec, mask), S)


# -- the spanned-subgroup bound ------------------------------------------------------


def test_subgroup_bound_trivial_span():
    spec = GroupSpec([3, 3])
    S = GeneratorSeq(spec, (spec.zero(),))
    assert subgroup_bound_holds(GroupSet.from_indices(spec, [0, 4]), S)


def test_subgroup_bound_tight_on_spanned_subgroup():
    spec = GroupSpec([3, 3])
    S = GeneratorSeq(spec, (spec.element([1, 0]),))
    H = span(S)
    assert subgroup_bound_holds(H, S)


def test_subgroup_bound_exhaustive_c3_squared_single_generator():
    spec = GroupSpec([3, 3])
    S = GeneratorSeq(spec, (spec.element([1, 0]),))
    for mask in range(1, 1 << spec.order):
        assert subgroup_bound_holds(GroupSet(spec, mask), S)


def test_subgroup_bound_rejects_exponent_four():
    spec = GroupSpec([4])
    with pytest.raises(ValueError):
        subgroup_bound_holds(GroupSet.full(spec), spec.standard_basis())


def test_boundary_counts_spec_mismatch():
    with pytest.raises(Exception):
        boundary_counts(GroupSet.full(GroupSpec([2, 2])), GroupSpec([3, 3]).standard_basis())


# -- the theorem registry -----------------------------------------------------------

REGISTRY_GROUPS = [(2, 2), (2, 2, 2), (2, 2, 2, 2), (3, 3), (4, 4), (2, 4), (2, 8)]
HOLDS = {
    "bl-bound": log_lower_bound_holds,
    "exp234": small_exponent_bound_holds,
    "generalcase": independence_bound_holds,
    "cosetdecomp": subgroup_bound_holds,
}


def registry_sequences(check, spec):
    """The standard basis, a few drawn sequences and, for cosetdecomp, spans short of G."""
    seqs = [spec.standard_basis()]
    for seed, extra in ((1, 0), (2, 1), (3, 1)):
        seqs.append(draw_generating_seq(spec, SplitMix64(seed), len(spec.moduli) + extra, check == "generalcase"))
    if check == "cosetdecomp":
        seqs += [GeneratorSeq(spec, (spec.element_at(1),)), GeneratorSeq(spec, (spec.element_at(0),))]
    return seqs


@pytest.mark.parametrize("moduli", REGISTRY_GROUPS)
@pytest.mark.parametrize("check", sorted(BOUNDARY_THEOREMS))
def test_kernel_verdicts_agree_with_their_sides(check, moduli):
    # ok <=> lhs >= rhs, equality <=> lhs == rhs, and the integer vacuity
    # shortcut of the kernel <=> a slack of at most 0 in the sides
    theorem = BOUNDARY_THEOREMS[check]
    spec = GroupSpec(moduli)
    cells = 0
    for gens in registry_sequences(check, spec):
        try:
            params = theorem.params(spec, gens)
        except ValueError:
            continue  # the hypotheses exclude this sequence
        for size in range(1, spec.order + 1):
            for b in range(len(gens) * size + 1):
                v = theorem.verdict(params, size, b)
                lhs, rhs, gamma = theorem.sides(*params, size, b)
                assert v.ok == (lhs >= rhs) and v.equality == (lhs == rhs), (gens, size, b)
                assert v.vacuous == (gamma is not None and gamma <= 0), (gens, size, b)
                cells += 1
    excluded = (check in ("bl-bound", "exp234") and len(set(moduli)) > 1) or (
        check == "cosetdecomp" and max(moduli) > 3
    )
    assert cells > 0 or excluded


HYPOTHESIS_VIOLATIONS = {
    "bl-bound": ((2, 4), ((1, 0), (0, 1))),  # not homocyclic
    "exp234": ((2, 2), ((1, 0),)),  # does not generate
    "generalcase": ((2, 2), ((1, 0), (0, 1), (1, 1))),  # not independent
    "cosetdecomp": ((4, 4), ((1, 0),)),  # exponent 4
}


@pytest.mark.parametrize("check", sorted(HYPOTHESIS_VIOLATIONS))
def test_hypothesis_violations_raise_from_runner_and_wrapper(check):
    moduli, coords = HYPOTHESIS_VIOLATIONS[check]
    plan = VerifyPlan(theorem=check, moduli=moduli, generators=GeneratorPolicy(kind="fixed-list", elements=coords))
    with pytest.raises(ValueError):
        run_verify(plan)
    spec = GroupSpec(moduli)
    gens = GeneratorSeq(spec, tuple(spec.element(c) for c in coords))
    with pytest.raises(ValueError):
        HOLDS[check](GroupSet.full(spec), gens)

"""The exact-comparison core: float log2 decisions against multiplied-out integers."""

from __future__ import annotations

import math
import random
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isoperim import boundary
from isoperim.boundary import (
    BOUNDARY_THEOREMS,
    compare_power_rows,
    compare_powers,
    log2_sign,
    power_product,
)
from isoperim.groups import GroupSpec
from isoperim.lattice import loomis_whitney_sides, lw_plus_sides


def exact_sign(lhs, rhs):
    left, right = power_product(lhs), power_product(rhs)
    return (left > right) - (left < right)


def invariant_factor_groups(limit):
    """Every abelian group of order <= limit once, as moduli m1 | m2 | ... | mk."""
    out = []

    def grow(moduli, order):
        if moduli:
            out.append(moduli)
        last = moduli[-1] if moduli else 1
        m = last if moduli else 2
        while order * m <= limit:
            grow(moduli + (m,), order * m)
            m += last

    grow((), 1)
    return out


GROUPS_UP_TO_64 = invariant_factor_groups(64)


def registry_cells():
    """(check, moduli, params, size, boundary) for every cell a standard-basis table holds."""
    for check, theorem in sorted(BOUNDARY_THEOREMS.items()):
        for moduli in GROUPS_UP_TO_64:
            spec = GroupSpec(moduli)
            gens = spec.standard_basis()
            try:
                params = theorem.params(spec, gens)
            except ValueError:
                continue  # the hypotheses exclude this group
            for size in range(1, spec.order + 1):
                for b in range(len(gens) * size + 1):
                    yield check, moduli, params, size, b


def partitions(e, largest=None):
    largest = e if largest is None else largest
    return 1 if e == 0 else sum(partitions(e - j, j) for j in range(1, min(e, largest) + 1))


def abelian_group_count(n):
    """prod over p**e exactly dividing n of the partitions of e."""
    count, p = 1, 2
    while n > 1:
        e = 0
        while n % p == 0:
            n, e = n // p, e + 1
        count *= partitions(e)
        p += 1
    return count


def test_invariant_factor_groups_are_the_abelian_groups_up_to_64():
    assert len(set(GROUPS_UP_TO_64)) == len(GROUPS_UP_TO_64) == sum(abelian_group_count(n) for n in range(2, 65))
    assert all(b % a == 0 for g in GROUPS_UP_TO_64 for a, b in zip(g, g[1:]))
    assert (2, 2, 2, 2, 2, 2) in GROUPS_UP_TO_64 and (4, 4, 4) in GROUPS_UP_TO_64 and (64,) in GROUPS_UP_TO_64


def test_float_decision_agrees_with_the_integers_on_every_registry_cell():
    cells = decided = 0
    checks = set()
    for check, moduli, params, size, b in registry_cells():
        lhs, rhs, _ = BOUNDARY_THEOREMS[check].sides(*params, size, b)
        exact = exact_sign(lhs, rhs)
        fast = log2_sign(lhs, rhs)
        assert fast in (None, exact), (check, moduli, size, b)
        assert compare_powers(lhs, rhs) == exact, (check, moduli, size, b)
        cells += 1
        decided += fast is not None
        checks.add(check)
    assert checks == set(BOUNDARY_THEOREMS)
    assert cells > 100_000 and decided > 0.9 * cells


def near_equal_pairs():
    """((a, x),) against ((a**k + delta, y),) with y*k within one of x."""
    return st.builds(
        lambda a, k, delta, y, e: (((a, y * k + e),), ((a**k + delta, y),)),
        st.integers(2, 1000),
        st.integers(1, 6),
        st.integers(-1, 1),
        st.integers(1, 3000),
        st.integers(-1, 1),
    ).filter(lambda pair: pair[1][0][0] >= 1)


@settings(max_examples=300, deadline=None)
@given(near_equal_pairs())
def test_near_equal_powers_match_the_integers(pair):
    lhs, rhs = pair
    exact = exact_sign(lhs, rhs)
    assert compare_powers(lhs, rhs) == exact
    assert compare_powers(rhs, lhs) == -exact
    assert log2_sign(lhs, rhs) in (None, exact)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(2, 50),
    st.integers(2, 50),
    st.integers(1, 400),
    st.integers(1, 400),
    st.integers(-1, 1),
)
def test_near_equal_products_match_the_integers(a, c, x, z, delta):
    # (a*c)**x against a**x * c**x (+-) one factor of a smaller power
    lhs = ((a * c, x),)
    rhs = ((a, x), (c, x), (2, delta % 2))
    assert compare_powers(lhs, rhs) == exact_sign(lhs, rhs)
    rhs = ((a, x + delta), (c, x), (1, z))
    assert compare_powers(lhs, rhs) == exact_sign(lhs, rhs)


def large_inputs():
    """Operands past the small-operand cut-off: exp234, bl-bound and generalcase cells at |G| = 2^14, near-equal powers."""
    order, n = 1 << 14, 14
    for size in (2, 3, 1000, 1 << 13, (1 << 13) + 1, order - 1, order):
        for b in sorted({0, 1, size, n * size // 3, n * size // 2, n * size - 1}):
            yield boundary.small_exponent_sides(order, n, size, b)[:2]
            yield boundary.log_lower_bound_sides(2, order, size, b)[:2]
            yield boundary.independence_bound_sides(2, n, size, b)[:2]
    for a in (2, 3, 10, 999):
        for k in (1, 2, 5):
            for delta in (-1, 0, 1):
                for y in (1000, 5000):
                    for e in (-1, 0, 1):
                        yield ((a, y * k + e),), ((a**k + delta, y),)
    yield ((2, 10**6),), ((2, 10**6 - 1), (3, 1))


def test_perturbed_logs_change_no_result(monkeypatch):
    inputs = list(large_inputs())
    before = [compare_powers(lhs, rhs) for lhs, rhs in inputs]
    assert before == [exact_sign(lhs, rhs) for lhs, rhs in inputs]
    decided = sum(log2_sign(lhs, rhs) is not None for lhs, rhs in inputs)
    assert decided > len(inputs) // 2  # the float path decides most of them
    for scale in (1 + 2.0**-44, 1 - 2.0**-44):
        monkeypatch.setattr(boundary, "log2", lambda x, scale=scale: math.log2(x) * scale)
        assert [compare_powers(lhs, rhs) for lhs, rhs in inputs] == before, scale


def test_far_apart_operands_never_build_integers(monkeypatch):
    def refuse(terms):
        raise AssertionError(f"multiplied out {terms}")

    monkeypatch.setattr(boundary, "power_product", refuse)
    assert compare_powers(((3, 10**9),), ((2, 10**9),)) == 1
    assert compare_powers(((2, 10**9),), ((3, 10**9),)) == -1
    assert boundary.classify_small_exponent.__wrapped__(1 << 16, 16, (1 << 15) + 1, 174775).ok


def test_zero_and_empty_products():
    assert compare_powers(((5, 1),), ((0, 1),)) == 1
    assert compare_powers(((0, 3),), ((0, 1),)) == 0
    assert compare_powers(((0, 0),), ()) == 0  # 0**0 is the empty product 1
    assert log2_sign(((0, 7),), ((9, 10**6),)) == -1
    assert log2_sign(((0, 7),), ((0, 1),)) == 0


def subcube_mask(k):
    # the elements of C2^n with coordinates only in the first k factors have indices below 2**k
    return (1 << (1 << k)) - 1


@pytest.mark.parametrize("n", [14, 20])
@pytest.mark.parametrize("check", ["exp234", "bl-bound"])
def test_subcube_equalities_take_the_exact_path(monkeypatch, check, n):
    # a k-dimensional subcube of C2^n meets both bounds with equality
    spec = GroupSpec([2] * n)
    theorem = BOUNDARY_THEOREMS[check]
    params = theorem.params(spec, spec.standard_basis())
    built = []
    real = boundary.power_product
    monkeypatch.setattr(boundary, "power_product", lambda terms: built.append(terms) or real(terms))
    for k in (1, n // 2, n - 1):
        size, b = 1 << k, (n - k) << k
        lhs, rhs, _ = theorem.sides(*params, size, b)
        assert log2_sign(lhs, rhs) is None
        built.clear()
        v = getattr(boundary, theorem.kernel).__wrapped__(*params, size, b)
        assert v == boundary.Verdict(True, False, True)
        assert built == [lhs, rhs]


# -- the row form -------------------------------------------------------------------


def row_of(side, r):
    return tuple((b if isinstance(b, int) else int(b[r]), e if isinstance(e, int) else int(e[r])) for b, e in side)


def assert_rows_match(lhs, rhs):
    """compare_power_rows against compare_powers on each row; returns the signs."""
    signs = compare_power_rows(lhs, rhs)
    rows = len(signs)
    assert signs.dtype == np.int64
    assert signs.tolist() == [compare_powers(row_of(lhs, r), row_of(rhs, r)) for r in range(rows)]
    return signs


def as_rows(cases):
    """Scalar (lhs, rhs) cases of one shape as sides of int64 arrays, row r being case r."""
    lhs, rhs = cases[0]

    def side(k, terms):
        column = lambda t, j: np.array([case[k][t][j] for case in cases], dtype=np.int64)
        return tuple((column(t, 0), column(t, 1)) for t in range(len(terms)))

    return side(0, lhs), side(1, rhs)


def mixed_cases():
    """2**a * 3**b against 6**c, near-equal powers inside the margin, zero bases and exponents, random rows."""
    cases = []
    for a, b, c in product([0, 1, 7, 2000, 3001], repeat=3):
        cases.append((((2, a), (3, b)), ((6, c),)))
    big = (1 << 60) + 1
    for y in (1, 70, 100, 1000):
        # within 2**-40 of each other relative to their logs, past 4,096 bits from y = 70
        cases.append((((big, y), (1, 0)), ((2, 60 * y),)))
        cases.append((((2, 60 * y), (1, 5)), ((big, y),)))
        cases.append((((2, 60 * y), (big, 0)), ((4, 30 * y),)))
    cases += [
        (((0, 0), (7, 3)), ((343, 1),)),
        (((0, 2), (7, 3)), ((1, 0),)),
        (((5, 0), (0, 0)), ((1, 5),)),
        (((0, 3), (2, 9000)), ((0, 1),)),
        (((3, 5000), (2, 1)), ((0, 0),)),
    ]
    rng = random.Random(7)
    for _ in range(300):
        cases.append((((rng.randint(1, 1000), rng.randint(0, 3000)), (rng.randint(1, 50), rng.randint(0, 3000))),
                      ((rng.randint(1, 1000), rng.randint(0, 3000)),)))
    return cases


def test_row_form_matches_compare_powers_on_every_row():
    cases = mixed_cases()
    signs = assert_rows_match(*as_rows(cases))
    assert signs.tolist() == [exact_sign(*case) for case in cases]
    assert {-1, 0, 1} <= set(signs.tolist())


def test_row_form_takes_int_terms_and_the_lattice_sides():
    # the cube {0,1}^n meets lwplus and Loomis-Whitney with equality; one point fewer keeps its projections
    for n in range(1, 13):
        sizes = np.array([1 << n, (1 << n) - 1, 1], dtype=np.int64)
        proj = np.array([[1 << n - 1, 1 << n - 1, 1]] * n, dtype=np.int64)
        lw_plus = assert_rows_match(*lw_plus_sides(n, sizes, proj))
        loomis_whitney = assert_rows_match(*loomis_whitney_sides(sizes, proj))
        assert lw_plus[0] == loomis_whitney[0] == 0
    assert_rows_match(((2, np.array([10**6, 1], dtype=np.int64)),), ((3, np.array([10**6, 1], dtype=np.int64)),))


def test_row_form_rows_within_the_margin_take_the_exact_path(monkeypatch):
    built = []
    real = boundary.compare_powers
    monkeypatch.setattr(boundary, "compare_powers", lambda lhs, rhs: built.append((lhs, rhs)) or real(lhs, rhs))
    big = (1 << 60) + 1
    lhs = ((np.array([big, 3, 2], dtype=np.int64), np.array([100, 10**6, 6000], dtype=np.int64)),)
    rhs = ((2, 6000),)
    assert compare_power_rows(lhs, rhs).tolist() == [1, 1, 0]
    assert built == [(((big, 100),), ((2, 6000),)), (((2, 6000),), ((2, 6000),))]


def test_row_form_perturbed_logs_change_no_result(monkeypatch):
    lhs, rhs = as_rows(mixed_cases())
    before = compare_power_rows(lhs, rhs).tolist()
    for scale in (1 + 2.0**-44, 1 - 2.0**-44):
        monkeypatch.setattr(boundary, "log2", lambda x, scale=scale: math.log2(x) * scale)
        assert compare_power_rows(lhs, rhs).tolist() == before, scale

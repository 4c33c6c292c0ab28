"""Correctness checks on verify reports, with outside oracles from the literature.

A plan op fails if it raises, reports zero cases, reports a violation, misses
an expected case count, fails an oracle below, or has an emitted witness that
does not replay. The oracles are closed forms, not the program's own code:

* Harper (1964): in C2^n with a generating sequence of n elements (a basis),
  edge-boundary equality holds exactly on the subcubes, so an exhaustive
  ``bl-bound`` class has 3^n equality witnesses.
* MacMahon's box formula counts the downsets of a 3-axis box; the Dedekind
  numbers count the downsets of {0,1}^n. ``avweight`` must enumerate exactly
  that many.
* The average-weight bound is tight exactly on the cubes {0,1}^I, so an
  ``avweight`` run over an n-axis box has 2^n equality witnesses, one per I.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import product
from math import prod

from isoperim import replay_witness

BOUNDARY_THEOREMS = ("exp234", "bl-bound", "generalcase", "cosetdecomp")

# Downsets of the Boolean lattice {0,1}^n, n = 0..5 (Dedekind numbers).
DEDEKIND = (2, 3, 6, 20, 168, 7581)


def macmahon(box) -> int:
    """Downsets of [0,a] x [0,b] x [0,c]: plane partitions in an (a+1) x (b+1) x (c+1) box."""
    a, b, c = (n + 1 for n in box)
    count = Fraction(1)
    for i, j, k in product(range(1, a + 1), range(1, b + 1), range(1, c + 1)):
        count *= Fraction(i + j + k - 1, i + j + k - 2)
    return int(count)


def expected_downsets(box) -> int | None:
    if len(box) == 3:
        return macmahon(box)
    if all(b == 1 for b in box) and len(box) < len(DEDEKIND):
        return DEDEKIND[len(box)]
    return None


def _class_count(plan: dict, order: int) -> int:
    policy = plan["generators"]
    if policy["policy"] == "random-generating":
        return policy["sets"]
    if policy["policy"] == "all-subsets":
        return (1 << order) - 1
    return 1


def _generator_count(plan: dict, n_factors: int) -> int | None:
    policy = plan["generators"]
    if policy["policy"] == "standard-basis":
        return n_factors
    if policy["policy"] == "random-generating":
        return policy["count"]
    return None


def _cube_support(points: list[list[int]]) -> frozenset | None:
    """The support I if the points are exactly the cube {0,1}^I, else None."""
    support = sorted({i for p in points for i, c in enumerate(p) if c})
    cube = set()
    for bits in product((0, 1), repeat=len(support)):
        corner = [0] * len(points[0])
        for i, bit in zip(support, bits):
            corner[i] = bit
        cube.add(tuple(corner))
    return frozenset(support) if {tuple(p) for p in points} == cube else None


def check_report(plan: dict, report: dict) -> list[str]:
    """Problems found in one report (``VerifyReport.to_obj()``); empty means it passed."""
    problems = []
    theorem = plan["theorem"]
    cases = report["cases_checked"]
    if cases <= 0:
        problems.append("zero cases checked")
    if report["violations"] or report["status"] != "PASS":
        problems.append(f"{len(report['violations'])} violations")
    classes = report["classes"]

    if theorem in BOUNDARY_THEOREMS or theorem == "claims-compression":
        moduli = plan["group"]["moduli"]
        order = prod(moduli)
        want_classes = _class_count(plan, order)
        if len(classes) != want_classes:
            problems.append(f"{len(classes)} generator classes, expected {want_classes}")
        per_class = (1 << order) - 1 if plan["mode"] == "exhaustive" else plan["sample_size"]
        if any(c["cases"] != per_class for c in classes):
            problems.append(f"a class did not check {per_class} cases")
        n = len(moduli)
        if (theorem == "bl-bound" and plan["mode"] == "exhaustive" and set(moduli) == {2}
                and _generator_count(plan, n) == n):
            if any(c["equalities"] != 3**n for c in classes):
                problems.append(f"Harper: a class has {[c['equalities'] for c in classes]}"
                                f" equality witnesses, expected {3**n} subcubes")
    elif theorem == "repa":
        want = plan["sample_size"] * len(plan["gammas"])
        if cases != want:
            problems.append(f"{cases} cases, expected {want}")
    elif theorem == "lwplus":
        if cases != plan["sample_size"]:
            problems.append(f"{cases} cases, expected {plan['sample_size']}")
    elif theorem == "avweight":
        box = plan["box"]
        enumerated = report["details"]["downsets_enumerated"]
        want = expected_downsets(box)
        if want is not None and enumerated != want:
            problems.append(f"{enumerated} downsets enumerated, closed form gives {want}")
        if cases != enumerated - 1:
            problems.append(f"{cases} non-empty downsets checked of {enumerated}")
        supports = [_cube_support(w["set"]["points"]) for w in report["equality_witnesses"]]
        if None in supports or len(set(supports)) != len(supports) or len(supports) != 2 ** len(box):
            problems.append(f"{len(supports)} equality witnesses, expected the {2 ** len(box)} cubes")
    return problems


def replay_sample(witnesses: list[dict], rng: random.Random, limit: int) -> list[str]:
    """Replay up to ``limit`` witnesses chosen by ``rng``; problems for those that fail."""
    chosen = witnesses if len(witnesses) <= limit else rng.sample(witnesses, limit)
    return [f"witness {w['kind']}/{w['check']} does not replay" for w in chosen if not replay_witness(w)]

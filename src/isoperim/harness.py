"""Verification plans: exhaustive and sampled sweeps over set families.

A plan names a bound to check, a group (or lattice box), an enumeration mode
and a generator policy; running it produces a report with exact counts,
violation witnesses and equality witnesses.  Reports are deterministic given
the plan (including the seed) up to the recorded wall time, and every witness
carries enough data to be re-verified from its serialization alone.

Exhaustive subset sweeps walk the group-subset bitmasks in binary-reflected
Gray-code order.  The runners take the whole family in numpy chunks
(``gray_sweep_chunks``); ``gray_subset_sweep`` walks the same order one mask
at a time and serves as its oracle.

Each check has one witness function that builds its whole record from the
values a case was decided on, and decides from them whether the case is
recorded at all.  The runners file what it returns; ``replay_witness``
recomputes those values from the record's inputs and requires the rebuilt
record to equal the serialized one.
Plans reject unknown keys, and a sample plan must draw at least one case.
"""

from __future__ import annotations

import operator
import time
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product as _cartesian
from math import prod
from typing import Callable, Iterator, Sequence

import numpy as np

from .boundary import BOUNDARY_THEOREMS, Verdict, boundary_counts, cleared_verdict, edge_boundary, power_product
from .compression import CompressionContext
from .groups import (
    Element,
    GeneratorSeq,
    GroupSet,
    GroupSpec,
    coords_order,
    coords_span_order,
    iter_bits,
    min_generators,
    min_nonzero_order,
    p_ranks,
    span,
)
from .lattice import (
    LatticeSet,
    WeightStats,
    box_projector,
    loomis_whitney_sides,
    lw_plus_sides,
    projection_sizes,
    weight_stats,
)
from .popular import diff_spectrum, dim_independent, popular_diffs, popular_dim_verdict
from .prng import SplitMix64

EXHAUSTIVE_ORDER_LIMIT = 16  # subset space of at most 2**16 masks
ALL_SUBSETS_ORDER_LIMIT = 10
DOWNSET_CELL_BUDGET = 1 << 20
GENERATOR_DRAW_LIMIT = 1 << 16  # rejection-sampling attempts per generator sequence

# masks per numpy chunk of a whole-family sweep
_SWEEP_CHUNK = 1 << 16


_PLAN_KEYS = ("theorem", "group", "mode", "sample_size", "seed", "generators", "gammas", "box", "allow_large", "dim_cap")


def _reject_unknown_keys(what: str, obj: dict, known: Sequence[str]) -> None:
    unknown = sorted(set(obj) - set(known))
    if unknown:
        raise ValueError(f"unknown {what} keys {unknown}; expected some of {list(known)}")


@dataclass(frozen=True)
class GeneratorPolicy:
    """How a plan obtains its generator sequences.

    kinds: "standard-basis", "fixed-list" (uses ``elements``),
    "random-generating" (draws ``sets`` sequences of ``count`` distinct
    elements, rejecting until they generate and, if requested, are
    independent), and "all-subsets" (every non-empty subset in index order).
    """

    kind: str = "standard-basis"
    count: int = 0
    sets: int = 1
    independent: bool = False
    elements: tuple[tuple[int, ...], ...] | None = None

    def __post_init__(self) -> None:
        if self.kind == "random-generating" and self.sets < 1:
            raise ValueError(f"a random-generating policy needs sets >= 1, got {self.sets}")

    def to_obj(self) -> dict:
        obj: dict = {"policy": self.kind}
        if self.kind == "fixed-list":
            obj["elements"] = [list(c) for c in (self.elements or ())]
        if self.kind == "random-generating":
            obj["count"] = self.count
            obj["sets"] = self.sets
            obj["independent"] = self.independent
        return obj

    @classmethod
    def from_obj(cls, obj: dict) -> GeneratorPolicy:
        _reject_unknown_keys("generator policy", obj, ("policy", "count", "sets", "independent", "elements"))
        kind = obj["policy"]
        return cls(
            kind=kind,
            count=int(obj.get("count", 0)),
            sets=int(obj.get("sets", 1)),
            independent=bool(obj.get("independent", False)),
            elements=tuple(tuple(c) for c in obj["elements"]) if "elements" in obj else None,
        )


@dataclass(frozen=True)
class VerifyPlan:
    """A single verification run: what to check, over which family, how."""

    theorem: str
    moduli: tuple[int, ...] | None = None
    mode: str = "exhaustive"
    sample_size: int = 0
    seed: int = 0
    generators: GeneratorPolicy = field(default_factory=GeneratorPolicy)
    gammas: tuple[Fraction, ...] = ()
    box: tuple[int, ...] = ()
    allow_large: bool = False
    dim_cap: int = 24

    def __post_init__(self) -> None:
        if self.mode not in ("exhaustive", "sample"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.mode == "sample" and self.sample_size < 1:
            raise ValueError(f"a sample plan needs sample_size >= 1, got {self.sample_size}")

    def to_obj(self) -> dict:
        obj: dict = {"theorem": self.theorem, "mode": self.mode}
        if self.moduli is not None:
            obj["group"] = {"moduli": list(self.moduli)}
        obj["sample_size"] = self.sample_size
        obj["seed"] = self.seed
        obj["generators"] = self.generators.to_obj()
        if self.gammas:
            obj["gammas"] = [str(g) for g in self.gammas]
        if self.box:
            obj["box"] = list(self.box)
        obj["allow_large"] = self.allow_large
        obj["dim_cap"] = self.dim_cap
        return obj

    @classmethod
    def from_obj(cls, obj: dict) -> VerifyPlan:
        _reject_unknown_keys("plan", obj, _PLAN_KEYS)
        if "group" in obj:
            _reject_unknown_keys("group", obj["group"], ("moduli",))
        return cls(
            theorem=obj["theorem"],
            moduli=tuple(obj["group"]["moduli"]) if "group" in obj else None,
            mode=obj.get("mode", "exhaustive"),
            sample_size=int(obj.get("sample_size", 0)),
            seed=int(obj.get("seed", 0)),
            generators=GeneratorPolicy.from_obj(obj.get("generators", {"policy": "standard-basis"})),
            gammas=tuple(Fraction(g) for g in obj.get("gammas", ())),
            box=tuple(int(b) for b in obj.get("box", ())),
            allow_large=bool(obj.get("allow_large", False)),
            dim_cap=int(obj.get("dim_cap", 24)),
        )


@dataclass
class VerifyReport:
    """Outcome of one plan: counts, witnesses, and per-class summaries."""

    theorem: str
    cases_checked: int = 0
    vacuous: int = 0
    violations: list[dict] = field(default_factory=list)
    equality_witnesses: list[dict] = field(default_factory=list)
    classes: list[dict] = field(default_factory=list)
    details: dict = field(default_factory=dict)
    wall_time: float = 0.0

    @property
    def passed(self) -> bool:
        return not self.violations

    def to_obj(self) -> dict:
        return {
            "theorem": self.theorem,
            "status": "PASS" if self.passed else "FAIL",
            "cases_checked": self.cases_checked,
            "vacuous": self.vacuous,
            "violations": self.violations,
            "equality_witnesses": self.equality_witnesses,
            "classes": self.classes,
            "details": self.details,
            "wall_time": self.wall_time,
        }


# -- enumeration engines -----------------------------------------------------


def gray_subset_sweep(
    spec: GroupSpec, gens: GeneratorSeq
) -> Iterator[tuple[int, int, int, list[int]]]:
    """Yield (mask, size, total_boundary, per_generator) for every non-empty subset.

    Subsets appear in binary-reflected Gray-code order; a step toggles one
    element and patches the boundary counts in O(|S|).  The per-generator
    list is reused between steps: consume, do not mutate or store it.
    """
    order = spec.order
    if order > 24:
        raise ValueError(f"subset sweep over 2**{order} masks is not feasible")
    perms = [spec.add_perm(s) for s in gens]
    iperms = [spec.add_perm(-s) for s in gens]
    active = [(k, perms[k], iperms[k]) for k, s in enumerate(gens) if not s.is_zero]
    d = [0] * len(gens)
    mask = 0
    size = 0
    dtot = 0
    for t in range(1, 1 << order):
        x = (t & -t).bit_length() - 1
        bit = 1 << x
        if mask & bit:
            mask ^= bit
            size -= 1
            for k, p, ip in active:
                if not (mask >> p[x]) & 1:
                    d[k] -= 1
                    dtot -= 1
                if (mask >> ip[x]) & 1:
                    d[k] += 1
                    dtot += 1
        else:
            mask |= bit
            size += 1
            for k, p, ip in active:
                if not (mask >> p[x]) & 1:
                    d[k] += 1
                    dtot += 1
                if (mask >> ip[x]) & 1:
                    d[k] -= 1
                    dtot -= 1
        yield mask, size, dtot, d


def gray_sweep_chunks(
    spec: GroupSpec, gens: GeneratorSeq
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Yield (masks, sizes, boundaries) for every non-empty subset, one chunk at a time.

    The masks are ``t ^ (t >> 1)`` for t = 1 .. 2**|G| - 1, the order of
    ``gray_subset_sweep``, as uint32 arrays of at most ``_SWEEP_CHUNK``
    entries.  ``boundaries[k]`` holds each mask's boundary count along
    ``gens[k]``, taken with that generator's block rolls (``Shifter.boundary``)
    on the whole chunk.
    """
    order = spec.order
    if order > 24:
        raise ValueError(f"subset sweep over 2**{order} masks is not feasible")
    shifters = [spec.shift_table(s) for s in gens]
    end = 1 << order
    for start in range(1, end, _SWEEP_CHUNK):
        t = np.arange(start, min(start + _SWEEP_CHUNK, end), dtype=np.uint32)
        masks = t ^ (t >> 1)
        yield masks, np.bitwise_count(masks), np.stack([sh.boundary(masks) for sh in shifters])


def enumerate_downsets(box: Sequence[int]) -> Iterator[LatticeSet]:
    """Every downset inside the box [0, box[0]] x ... x [0, box[-1]], once each.

    Recursive generation by slicing along the last axis: a downset is a
    weakly decreasing chain of lower-dimensional downsets, so nothing is
    filtered and the empty set appears exactly once.
    """
    dims = tuple(int(b) for b in box)
    if not dims:
        raise ValueError("the box needs at least one axis")
    if any(b < 0 for b in dims):
        raise ValueError("box bounds must be non-negative")
    cells = prod(b + 1 for b in dims)
    if cells > DOWNSET_CELL_BUDGET:
        raise ValueError(f"box holds {cells} lattice points, over the {DOWNSET_CELL_BUDGET} budget")
    for pts in _downset_chains(dims):
        yield LatticeSet(len(dims), pts)


def _downset_point_sets(dims: tuple[int, ...]) -> list[frozenset]:
    return list(_downset_chains(dims))


def _downset_chains(dims: tuple[int, ...]) -> Iterator[frozenset]:
    if not dims:
        yield frozenset()
        yield frozenset({()})
        return
    lower = sorted(_downset_point_sets(dims[:-1]), key=lambda s: (len(s), sorted(s)))
    top = dims[-1]
    base_full = lower[-1]

    def extend(level: int, prev: frozenset, acc: list) -> Iterator[frozenset]:
        if level > top:
            yield frozenset(acc)
            return
        for D in lower:
            if D <= prev:
                yield from extend(level + 1, D, acc + [p + (level,) for p in D])

    yield from extend(0, base_full, [])


# -- sampling ------------------------------------------------------------------


def draw_generating_seq(
    spec: GroupSpec, rng: SplitMix64, count: int, independent: bool = False
) -> GeneratorSeq:
    """Rejection-sample ``count`` distinct elements until they generate the group.

    Raises ValueError for a count below the fewest generators of the group,
    for an independent count above the p-rank sum plus one (at most one entry
    may be zero, and the non-zero entries of an independent sequence are at
    most the p-rank sum), and after ``GENERATOR_DRAW_LIMIT`` rejected attempts.
    """
    if count < 1:
        raise ValueError("generator count must be positive")
    need = min_generators(spec)
    if count < need:
        raise ValueError(f"{count} elements cannot generate {spec!r}, which needs {need}")
    rank_sum = sum(p_ranks(spec).values())
    if independent and count > rank_sum + 1:
        raise ValueError(
            f"no independent generating sequence of {count} elements of {spec!r}: its p-ranks sum to {rank_sum}"
        )
    for _ in range(GENERATOR_DRAW_LIMIT):
        idxs = [rng.below(spec.order) for _ in range(count)]
        if len(set(idxs)) != count:
            continue
        rows = [spec.coords_at(r) for r in idxs]
        h_order = coords_span_order(spec.moduli, rows)
        if h_order != spec.order:
            continue
        # S generates G, so S is independent iff prod ord(s) = |<S>| = |G|
        if independent and prod(coords_order(spec.moduli, row) for row in rows) != h_order:
            continue
        return GeneratorSeq(spec, tuple(Element(spec, row) for row in rows))
    kind = "independent generating" if independent else "generating"
    raise ValueError(f"no {kind} sequence of {count} elements of {spec!r} in {GENERATOR_DRAW_LIMIT} draws")


def _generator_seqs(plan: VerifyPlan, spec: GroupSpec, rng: SplitMix64) -> list[tuple[str, GeneratorSeq]]:
    pol = plan.generators
    if pol.kind == "standard-basis":
        return [("standard-basis", spec.standard_basis())]
    if pol.kind == "fixed-list":
        if not pol.elements:
            raise ValueError("fixed-list policy needs explicit elements")
        seq = GeneratorSeq(spec, tuple(spec.element(c) for c in pol.elements))
        return [("fixed-list", seq)]
    if pol.kind == "random-generating":
        out = []
        for i in range(pol.sets):
            seq = draw_generating_seq(spec, rng, pol.count, pol.independent)
            out.append((f"random-{i}", seq))
        return out
    if pol.kind == "all-subsets":
        if spec.order > ALL_SUBSETS_ORDER_LIMIT and not plan.allow_large:
            raise ValueError(f"all-subsets policy over |G| = {spec.order} requires allow_large")
        out = []
        for smask in range(1, 1 << spec.order):
            seq = GeneratorSeq(spec, tuple(spec.element_at(r) for r in iter_bits(smask)))
            out.append((f"S#{smask}", seq))
        return out
    raise ValueError(f"unknown generator policy {pol.kind!r}")


# -- witness records: one function per check, shared by its runner and replay ---


def _recorded_kind(ok: bool, vacuous: bool, equality: bool) -> str | None:
    """The record kind for a ``Verdict``'s fields in ``_verdict_code`` precedence; None records nothing."""
    if not ok:
        return "violation"
    return "equality" if equality and not vacuous else None


def _coords_of_mask(spec: GroupSpec, mask: int) -> list[list[int]]:
    return [list(spec.coords_at(r)) for r in iter_bits(mask)]


def _boundary_witness(
    check: str, spec: GroupSpec, gens: GeneratorSeq, label: str, params: tuple[int, int],
    mask: int, size: int, boundary: int,
) -> dict | None:
    """The record of a boundary case, with the (lhs, rhs, slack) of its cleared inequality.

    The sides are multiplied out only for a recorded case, so a verdict far
    from equality never builds their integers.
    """
    theorem = BOUNDARY_THEOREMS[check]
    kind = _recorded_kind(*theorem.verdict(params, size, boundary))
    if kind is None:
        return None
    lhs, rhs, gamma = theorem.sides(*params, size, boundary)
    return {
        "kind": kind,
        "check": check,
        "label": label,
        "group": spec.to_obj(),
        "generators": [list(s.coords) for s in gens],
        "set": _coords_of_mask(spec, mask),
        "size": size,
        "boundary": boundary,
        "gamma_star": None if gamma is None else str(gamma),
        "lhs": str(power_product(lhs)),
        "rhs": str(power_product(rhs)),
    }


def _claims_witness(spec: GroupSpec, gens: GeneratorSeq, label: str, mask: int, problems: list[str]) -> dict | None:
    """The record of a set that fails the compression claims ``problems``; None if it fails none."""
    if not problems:
        return None
    return {
        "kind": "violation",
        "check": "claims-compression",
        "label": label,
        "group": spec.to_obj(),
        "generators": [list(s.coords) for s in gens],
        "set": _coords_of_mask(spec, mask),
        "problems": problems,
    }


def _repa_witness(spec: GroupSpec, mask: int, gamma: Fraction, size: int, popular_size: int, dim: int) -> dict | None:
    """The record of a popular-difference case: a set, its gamma-popular set's size and dimension."""
    kind = _recorded_kind(*popular_dim_verdict(spec, gamma, size, dim))
    if kind is None:
        return None
    return {
        "kind": kind,
        "check": "repa",
        "group": spec.to_obj(),
        "set": _coords_of_mask(spec, mask),
        "gamma": str(Fraction(gamma)),
        "size": size,
        "popular_size": popular_size,
        "dim_independent": dim,
        "variant": "exp3" if spec.exponent == 3 else f"general-p{min_nonzero_order(spec)}",
    }


def _avweight_witness(A: LatticeSet, stats: WeightStats) -> dict | None:
    """The record of a downset and its weight statistics."""
    kind = _recorded_kind(stats.bound_holds, False, stats.is_equality)
    if kind is None:
        return None
    return {
        "kind": kind,
        "check": "avweight",
        "set": A.to_obj(),
        "size": stats.size,
        "total_weight": stats.total_weight,
    }


def _projection_witness(
    check: str, dim: int, cells: Sequence[tuple[int, ...]], mask: int, proj: Sequence[int]
) -> dict | None:
    """The lwplus or Loomis-Whitney record of the lattice set {cells[i] : bit i of mask}.

    ``proj`` holds its projection sizes; the set is built only for a record.
    """
    size = mask.bit_count()
    sides = lw_plus_sides(dim, size, proj) if check == "lwplus" else loomis_whitney_sides(size, proj)
    kind = _recorded_kind(*cleared_verdict(*sides))
    if kind is None:
        return None
    return {
        "kind": kind,
        "check": check,
        "set": LatticeSet(dim, [cells[i] for i in iter_bits(mask)]).to_obj(),
        "size": size,
        "projections": list(proj),
    }


def _file_witness(report: VerifyReport, witness: dict | None) -> None:
    """Add a witness to the report's list for its kind: a violation, or else an equality case."""
    if witness is not None:
        (report.violations if witness["kind"] == "violation" else report.equality_witnesses).append(witness)


def _add_class(report: VerifyReport, label: str, cases: int, vacuous: int, violations: int, equalities: int) -> None:
    """Close one case class: add its counts to the report's totals and its summary row."""
    report.cases_checked += cases
    report.vacuous += vacuous
    report.classes.append(
        {"label": label, "cases": cases, "vacuous": vacuous, "violations": violations, "equalities": equalities}
    )


# -- theorem runners -----------------------------------------------------------


# codes of the exhaustive verdict table, in the precedence the runners apply
_PASS, _VIOLATION, _VACUOUS, _EQUALITY = range(4)


def _verdict_code(v: Verdict) -> int:
    if not v.ok:
        return _VIOLATION
    if v.vacuous:
        return _VACUOUS
    return _EQUALITY if v.equality else _PASS


def _group_of(plan: VerifyPlan) -> tuple[GroupSpec, SplitMix64]:
    """The plan's group, checked against the exhaustive size cap, and its seeded generator."""
    if plan.moduli is None:
        raise ValueError(f"{plan.theorem} needs a group")
    spec = GroupSpec(plan.moduli)
    if plan.mode == "exhaustive" and spec.order > EXHAUSTIVE_ORDER_LIMIT and not plan.allow_large:
        raise ValueError(f"exhaustive sweep over |G| = {spec.order} requires allow_large")
    return spec, SplitMix64(plan.seed)


def _run_boundary_theorem(plan: VerifyPlan, report: VerifyReport) -> None:
    spec, rng = _group_of(plan)
    check = plan.theorem
    theorem = BOUNDARY_THEOREMS[check]
    for label, gens in _generator_seqs(plan, spec, rng):
        params = theorem.params(spec, gens)
        tally = [0] * 4  # cases per verdict code

        def record(mask: int, size: int, dtot: int) -> None:
            _file_witness(report, _boundary_witness(check, spec, gens, label, params, mask, size, dtot))

        if plan.mode == "exhaustive":
            n = len(gens)
            table = np.zeros((spec.order + 1, n * spec.order + 1), dtype=np.uint8)
            for size in range(1, spec.order + 1):
                table[size, : n * size + 1] = [_verdict_code(theorem.verdict(params, size, b)) for b in range(n * size + 1)]
            for masks, sizes, bounds in gray_sweep_chunks(spec, gens):
                dtots = bounds.sum(axis=0, dtype=np.uint16)
                codes = table[sizes, dtots]
                tally = [t + c for t, c in zip(tally, np.bincount(codes, minlength=4).tolist())]
                for r in np.flatnonzero((codes == _VIOLATION) | (codes == _EQUALITY)).tolist():
                    record(int(masks[r]), int(sizes[r]), int(dtots[r]))
        else:
            shifters = [spec.shift_table(s) for s in gens]
            for _ in range(plan.sample_size):
                mask = rng.nonempty_mask(spec.order)
                size = mask.bit_count()
                dtot = sum(sh.boundary(mask) for sh in shifters)
                code = _verdict_code(theorem.verdict(params, size, dtot))
                tally[code] += 1
                if code in (_VIOLATION, _EQUALITY):
                    record(mask, size, dtot)
        _, vios, vac, eqs = tally
        _add_class(report, label, sum(tally), vac, vios, eqs)


def _claims_checks(
    ctx: CompressionContext, masks: int | np.ndarray, sizes: int | np.ndarray, bounds: Sequence[int] | np.ndarray
) -> Iterator[tuple[str, int, int | None, bool | np.ndarray]]:
    """Yield (message, i, j, failed) for every compression claim, in report order.

    ``masks`` is an int mask or a uint32 array of masks, with set sizes
    ``sizes`` and boundary counts ``bounds[j]`` along generator j; ``failed`` is
    a bool or a bool array, and ``message.format(i=i, j=j)`` names the claim.
    Exhaustive plans check a chunk as an array, then each flagged mask as an int.
    """
    scalar = isinstance(masks, int)
    popcount = int.bit_count if scalar else np.bitwise_count
    negate = operator.not_ if scalar else np.logical_not
    axes = range(len(ctx))
    step = []
    for i in axes:
        ci = ctx.compress_mask(masks, i)
        step.append(ci)
        yield "cardinality changed along {i}", i, None, popcount(ci) != sizes
        yield "output not compressed along its own axis {i}", i, None, negate(ctx.is_compressed_mask(ci, i))
        for j in axes:
            grew = ctx.boundary_count_mask(ci, j) > bounds[j]
            yield "boundary grew for generator {j} after compressing along {i}", i, j, grew
    for i in axes:
        was_compressed = ctx.is_compressed_mask(masks, i)
        if scalar and not was_compressed:
            continue  # only a set compressed along i can lose it
        for j in axes:
            failed = was_compressed & negate(ctx.is_compressed_mask(step[j], i))
            yield "compression along {j} destroyed compressedness along {i}", i, j, failed
    full = step[0]
    for i in range(1, len(ctx)):
        full = ctx.compress_mask(full, i)
    for i in axes:
        yield "single pass left the set non-compressed along {i}", i, None, negate(ctx.is_compressed_mask(full, i))


def _claims_problems(ctx: CompressionContext, mask: int, size: int, d: Sequence[int]) -> list[str]:
    """Every compression claim that fails on one int mask, in report order; ``d`` as ``bounds``."""
    return [message.format(i=i, j=j) for message, i, j, failed in _claims_checks(ctx, mask, size, d) if failed]


def _run_claims(plan: VerifyPlan, report: VerifyReport) -> None:
    spec, rng = _group_of(plan)
    for label, gens in _generator_seqs(plan, spec, rng):
        ctx = CompressionContext(gens)
        cases = vios = 0
        if plan.mode == "exhaustive":
            for masks, sizes, bounds in gray_sweep_chunks(spec, gens):
                cases += len(masks)
                flagged = np.zeros(len(masks), dtype=bool)
                for _, _, _, failed in _claims_checks(ctx, masks, sizes, bounds):
                    flagged |= failed
                for r in np.flatnonzero(flagged).tolist():
                    mask = int(masks[r])
                    bad = _claims_problems(ctx, mask, int(sizes[r]), bounds[:, r].tolist())
                    if not bad:
                        raise RuntimeError(
                            f"compression kernels disagree: the array checks flag {_coords_of_mask(spec, mask)}"
                            " but the per-mask checks pass it"
                        )
                    vios += len(bad)
                    _file_witness(report, _claims_witness(spec, gens, label, mask, bad))
        else:
            for _ in range(plan.sample_size):
                mask = rng.nonempty_mask(spec.order)
                d = [ctx.boundary_count_mask(mask, j) for j in range(len(gens))]
                cases += 1
                bad = _claims_problems(ctx, mask, mask.bit_count(), d)
                vios += len(bad)
                _file_witness(report, _claims_witness(spec, gens, label, mask, bad))
        _add_class(report, label, cases, 0, vios, 0)


def _run_repa(plan: VerifyPlan, report: VerifyReport) -> None:
    spec, rng = _group_of(plan)
    if not plan.gammas:
        raise ValueError("repa needs at least one gamma threshold")
    if plan.mode == "sample":
        masks = [rng.nonempty_mask(spec.order) for _ in range(plan.sample_size)]
    else:
        masks = range(1, 1 << spec.order)
    dims: dict[int, int] = {}  # popular-set mask -> dimension; the gammas of one set often give the same P
    cases = 0
    for mask in masks:
        A = GroupSet(spec, mask)
        spectrum = diff_spectrum(A)
        size = len(A)
        for gamma in plan.gammas:
            P = spectrum.popular(gamma)
            dim = dims.get(P.mask)
            if dim is None:
                dim = dims[P.mask] = dim_independent(P, cap=plan.dim_cap).value
            cases += 1
            _file_witness(report, _repa_witness(spec, mask, gamma, size, len(P), dim))
    _add_class(report, "sampled-sets", cases, 0, len(report.violations), len(report.equality_witnesses))


def _run_avweight(plan: VerifyPlan, report: VerifyReport) -> None:
    if not plan.box:
        raise ValueError("avweight needs a bounding box")
    if plan.mode != "exhaustive":
        raise ValueError("avweight runs in exhaustive mode")
    total = 0
    cases = 0
    for A in enumerate_downsets(plan.box):
        total += 1
        if len(A) == 0:
            continue
        cases += 1
        _file_witness(report, _avweight_witness(A, weight_stats(A)))
    report.details["downsets_enumerated"] = total
    report.details["downsets_checked"] = cases
    label = "box-" + "x".join(map(str, plan.box))
    _add_class(report, label, cases, 0, len(report.violations), len(report.equality_witnesses))


def _run_lwplus(plan: VerifyPlan, report: VerifyReport) -> None:
    if not plan.box:
        raise ValueError("lwplus needs a bounding box")
    if plan.mode != "sample":
        raise ValueError("lwplus runs in sample mode")
    dims = tuple(int(b) for b in plan.box)
    cells = list(_cartesian(*[range(b + 1) for b in dims]))
    projections = box_projector(dims)
    rng = SplitMix64(plan.seed)
    for _ in range(plan.sample_size):
        mask = rng.nonempty_mask(len(cells))
        proj = projections(mask)
        for check in ("lwplus", "loomis-whitney"):
            _file_witness(report, _projection_witness(check, len(dims), cells, mask, proj))
    label = "box-" + "x".join(map(str, dims))
    _add_class(report, label, plan.sample_size, 0, len(report.violations), len(report.equality_witnesses))


_RUNNERS: dict[str, Callable[[VerifyPlan, VerifyReport], None]] = {
    "exp234": _run_boundary_theorem,
    "cosetdecomp": _run_boundary_theorem,
    "generalcase": _run_boundary_theorem,
    "avweight": _run_avweight,
    "lwplus": _run_lwplus,
    "repa": _run_repa,
    "claims-compression": _run_claims,
    "bl-bound": _run_boundary_theorem,
}
THEOREM_IDS = tuple(_RUNNERS)


def run_verify(plan: VerifyPlan) -> VerifyReport:
    """Execute a plan and return its report (deterministic given the plan)."""
    if plan.theorem not in THEOREM_IDS:
        raise ValueError(f"unknown theorem id {plan.theorem!r}; expected one of {THEOREM_IDS}")
    report = VerifyReport(theorem=plan.theorem)
    t0 = time.perf_counter()
    _RUNNERS[plan.theorem](plan, report)
    report.wall_time = time.perf_counter() - t0
    return report


# -- witness replay --------------------------------------------------------------


def replay_witness(witness: dict) -> bool:
    """Rebuild a serialized witness from the inputs it names and compare the whole record.

    The inputs are the group, generators, set, label and gamma the record
    names.  Replay recomputes the values its check decides on (boundary counts,
    the popular set and its dimension, weight statistics, projection sizes or
    the compression problems) and calls the check's witness function, so any
    altered or added field fails, and so does a case that records nothing.
    """
    check = witness["check"]
    if check in ("avweight", "lwplus", "loomis-whitney"):
        A = LatticeSet.from_obj(witness["set"])
        if check == "avweight":
            return _avweight_witness(A, weight_stats(A)) == witness
        # the set's own points as the cells, every cell in the mask
        return _projection_witness(check, A.dim, list(A), (1 << len(A)) - 1, projection_sizes(A)) == witness
    if check not in BOUNDARY_THEOREMS and check not in ("repa", "claims-compression"):
        raise ValueError(f"cannot replay witness for check {check!r}")
    spec = GroupSpec.from_obj(witness["group"])
    A = GroupSet.from_elements(spec, (spec.element(c) for c in witness["set"]))
    if check == "repa":
        gamma = Fraction(witness["gamma"])
        P = popular_diffs(A, gamma)
        rebuilt = _repa_witness(spec, A.mask, gamma, len(A), len(P), dim_independent(P, cap=len(P)).value)
    else:
        gens = GeneratorSeq(spec, tuple(spec.element(c) for c in witness["generators"]))
        label = witness["label"]
        if check == "claims-compression":
            ctx = CompressionContext(gens)
            d = [ctx.boundary_count_mask(A.mask, j) for j in range(len(gens))]
            rebuilt = _claims_witness(spec, gens, label, A.mask, _claims_problems(ctx, A.mask, len(A), d))
        else:
            params = BOUNDARY_THEOREMS[check].params(spec, gens)
            rebuilt = _boundary_witness(check, spec, gens, label, params, A.mask, len(A), sum(boundary_counts(A, gens)))
    return rebuilt == witness


# -- report emission --------------------------------------------------------------


def emit_report(report: VerifyReport, fmt: str = "text") -> str:
    """Render a report as json, tsv (one row per case class) or text."""
    import json as _json

    if fmt == "json":
        return _json.dumps(report.to_obj(), indent=2)
    if fmt == "tsv":
        lines = ["theorem\tclass\tcases\tvacuous\tviolations\tequalities"]
        for c in report.classes:
            lines.append(
                f"{report.theorem}\t{c['label']}\t{c['cases']}\t{c['vacuous']}\t{c['violations']}\t{c['equalities']}"
            )
        return "\n".join(lines) + "\n"
    if fmt == "text":
        lines = []
        if report.passed:
            lines.append(
                f"PASS {report.theorem}: {report.cases_checked} cases"
                f" ({report.vacuous} vacuous, {len(report.equality_witnesses)} equality witnesses)"
            )
        else:
            lines.append(f"FAIL {report.theorem}: {len(report.violations)} violations in {report.cases_checked} cases")
            for w in report.violations[:20]:
                lines.append("  violation: " + _json.dumps(w, sort_keys=True))
        for c in report.classes:
            lines.append(
                f"  class {c['label']}: cases={c['cases']} vacuous={c['vacuous']}"
                f" violations={c['violations']} equalities={c['equalities']}"
            )
        if report.details:
            lines.append("  details: " + _json.dumps(report.details, sort_keys=True))
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown report format {fmt!r}")


# -- worked example builders -------------------------------------------------------


@dataclass(frozen=True)
class ExampleInstance:
    """A constructed instance together with its closed-form statistics.

    ``expected`` holds the closed forms, ``computed`` the values measured on
    the instance; construction fails if they disagree.
    """

    example_id: str
    params: dict
    spec: GroupSpec
    subset: GroupSet
    gens: GeneratorSeq
    expected: dict
    computed: dict


def _self_check(instance: ExampleInstance) -> ExampleInstance:
    for key, want in instance.expected.items():
        got = instance.computed.get(key)
        if got != want:
            raise RuntimeError(
                f"example {instance.example_id} self-check failed on {key}: computed {got}, expected {want}"
            )
    return instance


def _build_subgroup_union(spec: GroupSpec, m: int, n: int, k: int) -> GroupSet:
    """Union of the k blockwise coordinate subgroups, each of rank n//k."""
    d = n // k
    basis = spec.standard_basis()
    out = GroupSet.empty(spec)
    for i in range(k):
        block = GeneratorSeq(spec, basis.elements[i * d : (i + 1) * d])
        out = out | span(block)
    return out


def _example_subgroup_times_basis(m: int, k: int, n: int) -> ExampleInstance:
    if not (m >= 2 and 1 <= k <= n):
        raise ValueError("need m >= 2 and 1 <= k <= n")
    spec = GroupSpec([m] * n)
    basis = spec.standard_basis()
    A = span(GeneratorSeq(spec, basis.elements[:k]))
    gens = GeneratorSeq(spec, tuple(A.elements()) + basis.elements[k:])
    stats = edge_boundary(A, gens)
    expected = {
        "set_size": m**k,
        "gen_count": m**k + n - k,
        "boundary": (n - k) * m**k,
        "gamma": Fraction(m**k, m**k + n - k),
    }
    computed = {
        "set_size": len(A),
        "gen_count": len(gens),
        "boundary": stats.total,
        "gamma": stats.gamma,
    }
    return _self_check(
        ExampleInstance("ex1", {"m": m, "k": k, "n": n}, spec, A, gens, expected, computed)
    )


def _example_union_of_subgroups(m: int, n: int, k: int) -> ExampleInstance:
    if not (m >= 2 and k >= 1 and n >= 1 and n % k == 0):
        raise ValueError("need m >= 2 and k | n")
    spec = GroupSpec([m] * n)
    d = n // k
    A = _build_subgroup_union(spec, m, n, k)
    gens = spec.standard_basis()
    stats = edge_boundary(A, gens)
    expected = {
        "set_size": k * (m**d - 1) + 1,
        "boundary": (m**d - 1) * (k - 1) * n,
    }
    computed = {"set_size": len(A), "boundary": stats.total}
    if k >= 2:
        # boundary stays strictly below (1 - 1/k) n |A|
        expected["strict_slack"] = True
        computed["strict_slack"] = stats.total * k < (k - 1) * n * len(A)
    return _self_check(
        ExampleInstance("ex2", {"m": m, "n": n, "k": k}, spec, A, gens, expected, computed)
    )


def _example_box(m: int, t: int, n: int) -> ExampleInstance:
    if not (2 <= t < m and n >= 1):
        raise ValueError("need 2 <= t < m and n >= 1")
    spec = GroupSpec([m] * n)
    A = GroupSet.from_elements(
        spec, (spec.element(c) for c in _cartesian(*[range(t)] * n))
    )
    gens = spec.standard_basis()
    stats = edge_boundary(A, gens)
    expected = {
        "set_size": t**n,
        "boundary": n * t ** (n - 1),
        "gamma": Fraction(t - 1, t),
    }
    computed = {"set_size": len(A), "boundary": stats.total, "gamma": stats.gamma}
    return _self_check(
        ExampleInstance("ex3", {"m": m, "t": t, "n": n}, spec, A, gens, expected, computed)
    )


def _example_popular_family(m: int, n: int, k: int) -> ExampleInstance:
    if not (m >= 2 and k >= 1 and n >= 1 and n % k == 0):
        raise ValueError("need m >= 2 and k | n")
    spec = GroupSpec([m] * n)
    d = n // k
    A = _build_subgroup_union(spec, m, n, k)
    gens = spec.standard_basis()
    spectrum = diff_spectrum(A)
    r_values = {spectrum.counts[r] for r in A.indices() if r != 0}
    gamma = Fraction(m**d, len(A))
    P = spectrum.popular(gamma)
    expected = {
        "set_size": k * (m**d - 1) + 1,
        "r_nonzero": {m**d},
        "gamma": Fraction(m**d, k * (m**d - 1) + 1),
        "popular_contains_set": True,
    }
    computed = {
        "set_size": len(A),
        "r_nonzero": r_values,
        "gamma": gamma,
        "popular_contains_set": A.issubset(P),
    }
    return _self_check(
        ExampleInstance("ex4", {"m": m, "n": n, "k": k}, spec, A, gens, expected, computed)
    )


_EXAMPLES: dict[str, Callable[..., ExampleInstance]] = {
    "ex1": _example_subgroup_times_basis,
    "ex2": _example_union_of_subgroups,
    "ex3": _example_box,
    "ex4": _example_popular_family,
}


def build_example(example_id: str, **params) -> ExampleInstance:
    """Construct a worked example and verify its closed-form statistics.

    ids: ex1 (subgroup together with extra basis vectors as generators),
    ex2 (union of k blockwise subgroups), ex3 (a box inside C_m^n),
    ex4 (the ex2 family read through its difference spectrum).
    """
    if example_id not in _EXAMPLES:
        raise ValueError(f"unknown example id {example_id!r}; expected one of {sorted(_EXAMPLES)}")
    return _EXAMPLES[example_id](**params)

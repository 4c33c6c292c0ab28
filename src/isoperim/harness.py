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

import json
import operator
import time
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product as _cartesian
from json.encoder import encode_basestring_ascii as _quote
from math import inf, prod
from typing import Callable, Iterator, Sequence

import numpy as np

from .boundary import BOUNDARY_THEOREMS, Powers, Verdict, boundary_counts, cleared_verdict, edge_boundary, power_product
from .compression import CompressionContext
from .groups import (
    Element,
    GeneratorSeq,
    GroupSet,
    GroupSpec,
    converted,
    coords_order,
    coords_span_order,
    iter_bits,
    listed,
    min_generators,
    min_nonzero_order,
    p_ranks,
    span,
)
from .lattice import (
    LatticeSet,
    WeightStats,
    _box_dims,
    avg_weight_sides,
    box_projector,
    loomis_whitney_sides,
    lw_plus_sides,
    projection_sizes,
    weight_stats,
)
from .popular import (
    DEFAULT_DIM_CAP,
    diff_counts,
    diff_spectrum,
    dim_independent,
    independent_dims,
    popular_diffs,
    popular_dim_verdict,
    popular_masks,
)
from .prng import SplitMix64

EXHAUSTIVE_ORDER_LIMIT = 16  # subset space of at most 2**16 masks
ALL_SUBSETS_ORDER_LIMIT = 10
DOWNSET_CELL_BUDGET = 1 << 20
GENERATOR_DRAW_LIMIT = 1 << 16  # rejection-sampling attempts per generator sequence

# masks per numpy chunk of a whole-family sweep
_SWEEP_CHUNK = 1 << 16
_SWEEP_ORDER_LIMIT = 24  # a whole-family sweep walks at most 2**24 masks


_PLAN_KEYS = ("theorem", "group", "mode", "sample_size", "seed", "generators", "gammas", "box", "allow_large", "dim_cap")


def _reject_unknown_keys(what: str, obj: dict, known: Sequence[str]) -> None:
    if not isinstance(obj, dict):
        raise ValueError(f"{what} must be an object, got {obj!r}")
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
        elements = None
        if "elements" in obj:
            elements = tuple(tuple(listed("elements", c)) for c in listed("elements", obj["elements"]))
        return cls(
            kind=kind,
            count=converted("count", int, obj.get("count", 0)),
            sets=converted("sets", int, obj.get("sets", 1)),
            independent=bool(obj.get("independent", False)),
            elements=elements,
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
    dim_cap: int = DEFAULT_DIM_CAP

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
            moduli=tuple(listed("moduli", obj["group"]["moduli"])) if "group" in obj else None,
            mode=obj.get("mode", "exhaustive"),
            sample_size=converted("sample_size", int, obj.get("sample_size", 0)),
            seed=converted("seed", int, obj.get("seed", 0)),
            generators=GeneratorPolicy.from_obj(obj.get("generators", {"policy": "standard-basis"})),
            gammas=tuple(converted("gammas", Fraction, g) for g in listed("gammas", obj.get("gammas", ()))),
            box=tuple(converted("box", int, b) for b in listed("box", obj.get("box", ()))),
            allow_large=bool(obj.get("allow_large", False)),
            dim_cap=converted("dim_cap", int, obj.get("dim_cap", DEFAULT_DIM_CAP)),
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
    if order > _SWEEP_ORDER_LIMIT:
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
        mask ^= 1 << x
        step = 1 if (mask >> x) & 1 else -1  # x joins or leaves
        size += step
        for k, p, ip in active:
            # x's own edge x -> x + s, and the edge x - s -> x into it
            delta = step * ((not (mask >> p[x]) & 1) - ((mask >> ip[x]) & 1))
            d[k] += delta
            dtot += delta
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
    if order > _SWEEP_ORDER_LIMIT:
        raise ValueError(f"subset sweep over 2**{order} masks is not feasible")
    shifters = [spec.shift_table(s) for s in gens]
    end = 1 << order
    for start in range(1, end, _SWEEP_CHUNK):
        t = np.arange(start, min(start + _SWEEP_CHUNK, end), dtype=np.uint32)
        masks = t ^ (t >> 1)
        yield masks, np.bitwise_count(masks), np.stack([sh.boundary(masks) for sh in shifters])


def enumerate_downsets(box: Sequence[int]) -> Iterator[LatticeSet]:
    """Every downset inside the box [0, box[0]] x ... x [0, box[-1]], once each.

    The sets of ``downset_walk``, in its order, each built as a ``LatticeSet``.
    """
    dims = _box_dims(box)
    for _, _, chain in downset_walk(dims):
        yield LatticeSet(len(dims), _chain_points(chain))


def downset_walk(box: Sequence[int]) -> Iterator[tuple[int, int, list[frozenset]]]:
    """Yield (size, total weight, chain) for every downset inside the box, once each.

    A downset is a weakly decreasing chain D_0 >= D_1 >= ... of downsets of
    the box without its last axis, D_l its slice at last coordinate l, so
    nothing is filtered and the empty set appears exactly once.  The walk
    picks each D_l among the subsets of D_(l-1) in (size, sorted points)
    order, and carries the cell by addition: D_l adds |D_l| to the size and
    w(D_l) + [l > 0] * |D_l| to the weight.  ``chain`` lists the slices; it is
    reused between steps: consume, do not mutate or store it.
    """
    dims = _box_dims(box)
    cells = prod(b + 1 for b in dims)
    if cells > DOWNSET_CELL_BUDGET:
        raise ValueError(f"box holds {cells} lattice points, over the {DOWNSET_CELL_BUDGET} budget")
    return _chain_walk(dims)


def _chain_points(chain: Sequence[frozenset]) -> list[tuple[int, ...]]:
    """The points of the downset whose slice at last coordinate l is chain[l]."""
    return [p + (level,) for level, D in enumerate(chain) for p in D]


def _slices(dims: tuple[int, ...]) -> list[tuple[frozenset, int, int]]:
    """(points, size, weight) of every downset of the box over ``dims``, in (size, sorted points) order."""
    if not dims:
        return [(frozenset(), 0, 0), (frozenset({()}), 1, 0)]
    walk = ((frozenset(_chain_points(chain)), size, weight) for size, weight, chain in _chain_walk(dims))
    return sorted(walk, key=lambda t: (t[1], sorted(t[0])))


def _chain_walk(dims: tuple[int, ...]) -> Iterator[tuple[int, int, list[frozenset]]]:
    slices = _slices(dims[:-1])
    top = dims[-1]
    chain: list[frozenset] = [frozenset()] * (top + 1)
    below: dict[int, list[int]] = {}  # slice index -> the indices of its subsets, in slice order

    def subsets(j: int) -> list[int]:
        out = below.get(j)
        if out is None:
            # a subset is no larger, and sorts first among sets of its size
            out = below[j] = [i for i in range(j + 1) if slices[i][0] <= slices[j][0]]
        return out

    def extend(level: int, prev: int, size: int, weight: int) -> Iterator[tuple[int, int, list[frozenset]]]:
        lift = level > 0
        for i in subsets(prev):
            D, d_size, d_weight = slices[i]
            chain[level] = D
            s, w = size + d_size, weight + d_weight + lift * d_size
            if level == top:
                yield s, w, chain
            else:
                yield from extend(level + 1, i, s, w)

    return extend(0, len(slices) - 1, 0, 0)


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


# codes of the exhaustive verdict table, in the precedence the runners apply
_PASS, _VIOLATION, _VACUOUS, _EQUALITY = range(4)


def _verdict_code(v: Verdict) -> int:
    if not v.ok:
        return _VIOLATION
    if v.vacuous:
        return _VACUOUS
    return _EQUALITY if v.equality else _PASS


_RECORDED_KINDS = {_VIOLATION: "violation", _EQUALITY: "equality"}
_UNDECIDED = 255  # a cell of a lazily filled code table that no case has reached yet


def _gather_codes(
    table: np.ndarray, rows: np.ndarray, cols: np.ndarray, verdict: Callable[[int, int], Verdict]
) -> np.ndarray:
    """``table[rows, cols]``, after deciding by ``verdict`` each reached cell still ``_UNDECIDED``."""
    missing = table[rows, cols] == _UNDECIDED
    reached = np.zeros(table.shape, dtype=bool)
    reached[rows[missing], cols[missing]] = True
    for r, c in zip(*(axis.tolist() for axis in np.nonzero(reached))):
        table[r, c] = _verdict_code(verdict(r, c))
    return table[rows, cols]


def _recorded_kind(v: Verdict) -> str | None:
    """The record kind of a verdict's ``_verdict_code``: "violation", "equality", or None to record nothing."""
    return _RECORDED_KINDS.get(_verdict_code(v))


# a witness side is written in decimal up to this many bits (under 640 digits, the least
# int-to-str limit CPython allows) and as its exact power terms beyond
_DECIMAL_SIDE_BITS = 2000


def _side_text(terms: Powers) -> str:
    """A witness side: its product in decimal, or past ``_DECIMAL_SIDE_BITS`` its terms as ``base^exp*...``."""
    value = power_product(terms)
    return str(value) if value.bit_length() <= _DECIMAL_SIDE_BITS else "*".join(f"{b}^{e}" for b, e in terms)


def _boundary_witness(
    check: str, spec: GroupSpec, gens: GeneratorSeq, label: str, params: tuple[int, int],
    mask: int, size: int, boundary: int,
) -> dict | None:
    """The record of a boundary case, with the (lhs, rhs, slack) of its cleared inequality.

    The sides are multiplied out only for a recorded case, so a verdict far
    from equality never builds their integers, and ``_side_text`` writes them.
    """
    theorem = BOUNDARY_THEOREMS[check]
    kind = _recorded_kind(theorem.verdict(params, size, boundary))
    if kind is None:
        return None
    lhs, rhs, gamma = theorem.sides(*params, size, boundary)
    return {
        "kind": kind,
        "check": check,
        "label": label,
        "group": spec.to_obj(),
        "generators": [list(s.coords) for s in gens],
        "set": GroupSet(spec, mask).coords(),
        "size": size,
        "boundary": boundary,
        "gamma_star": None if gamma is None else str(gamma),
        "lhs": _side_text(lhs),
        "rhs": _side_text(rhs),
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
        "set": GroupSet(spec, mask).coords(),
        "problems": problems,
    }


def _repa_witness(spec: GroupSpec, mask: int, gamma: Fraction, size: int, popular_size: int, dim: int) -> dict | None:
    """The record of a popular-difference case: a set, its gamma-popular set's size and dimension."""
    kind = _recorded_kind(popular_dim_verdict(spec, gamma, size, dim))
    if kind is None:
        return None
    return {
        "kind": kind,
        "check": "repa",
        "group": spec.to_obj(),
        "set": GroupSet(spec, mask).coords(),
        "gamma": str(Fraction(gamma)),
        "size": size,
        "popular_size": popular_size,
        "dim_independent": dim,
        "variant": "exp3" if spec.exponent == 3 else f"general-p{min_nonzero_order(spec)}",
    }


def _avweight_witness(A: LatticeSet, stats: WeightStats) -> dict | None:
    """The record of a downset and its weight statistics."""
    kind = _recorded_kind(Verdict(stats.bound_holds, False, stats.is_equality))
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
    kind = _recorded_kind(cleared_verdict(*sides))
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


def _group_of(plan: VerifyPlan) -> tuple[GroupSpec, SplitMix64]:
    """The plan's group, checked against the exhaustive size cap, and its seeded generator."""
    if plan.moduli is None:
        raise ValueError(f"{plan.theorem} needs a group")
    spec = GroupSpec(plan.moduli)
    if plan.mode == "exhaustive" and spec.order > EXHAUSTIVE_ORDER_LIMIT and not plan.allow_large:
        raise ValueError(f"exhaustive sweep over |G| = {spec.order} requires allow_large")
    return spec, SplitMix64(plan.seed)


def _run_boundary_theorem(plan: VerifyPlan, report: VerifyReport) -> None:
    """Exhaustive plans read verdicts from one table per (|S|, params), filled once per plan.

    A verdict depends only on the theorem's params, |A| and the boundary, so
    generator sets with equal params and length share a table, and each cell
    is decided once per plan.
    """
    spec, rng = _group_of(plan)
    check = plan.theorem
    theorem = BOUNDARY_THEOREMS[check]
    tables: dict[tuple, np.ndarray] = {}  # (|S|, params) -> verdict codes by (size, boundary)
    for label, gens in _generator_seqs(plan, spec, rng):
        params = theorem.params(spec, gens)
        tally = [0] * 4  # cases per verdict code

        def record(mask: int, size: int, dtot: int) -> None:
            _file_witness(report, _boundary_witness(check, spec, gens, label, params, mask, size, dtot))

        if plan.mode == "exhaustive":
            n = len(gens)
            table = tables.get((n, params))
            if table is None:
                table = tables[n, params] = np.zeros((spec.order + 1, n * spec.order + 1), dtype=np.uint8)
                for size in range(1, spec.order + 1):
                    table[size, : n * size + 1] = [
                        _verdict_code(theorem.verdict(params, size, b)) for b in range(n * size + 1)
                    ]
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
                            f"compression kernels disagree: the array checks flag {GroupSet(spec, mask).coords()}"
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
        label, batches = "sampled-sets", [[rng.nonempty_mask(spec.order) for _ in range(plan.sample_size)]]
    else:
        end = 1 << spec.order
        label, batches = "all-sets", (range(lo, min(lo + _SWEEP_CHUNK, end)) for lo in range(1, end, _SWEEP_CHUNK))
    # per gamma, the verdict code of each (size, dim) cell once a case reaches it
    cells = (spec.order + 1, sum(p_ranks(spec).values()) + 1)
    tables = [np.full(cells, _UNDECIDED, dtype=np.uint8) for _ in plan.gammas]
    searched: dict[int, int] = {}  # popular-set mask -> dimension, where the dimension is searched
    cases = 0
    for masks in batches:
        counts = diff_counts(spec, masks)
        sizes = counts[0]
        populars = [popular_masks(counts, gamma) for gamma in plan.gammas]
        dims = independent_dims(spec, populars, plan.dim_cap, searched)
        codes = np.empty(dims.shape, dtype=np.uint8)
        for j, (gamma, table) in enumerate(zip(plan.gammas, tables)):
            codes[j] = _gather_codes(table, sizes, dims[j], lambda s, d: popular_dim_verdict(spec, gamma, s, d))
        cases += codes.size
        # the recorded cases in (set, gamma) order
        for i in np.flatnonzero((codes.T == _VIOLATION) | (codes.T == _EQUALITY)).tolist():
            r, j = divmod(i, len(plan.gammas))
            size, popular_size, dim = int(sizes[r]), populars[j][r].bit_count(), int(dims[j, r])
            _file_witness(report, _repa_witness(spec, masks[r], plan.gammas[j], size, popular_size, dim))
    _add_class(report, label, cases, 0, len(report.violations), len(report.equality_witnesses))


def _box_of(plan: VerifyPlan, mode: str) -> tuple[tuple[int, ...], str]:
    """The bounds of the plan's box and its class label, for a lattice check that runs only in ``mode``."""
    if not plan.box:
        raise ValueError(f"{plan.theorem} needs a bounding box")
    if plan.mode != mode:
        raise ValueError(f"{plan.theorem} runs in {mode} mode")
    dims = _box_dims(plan.box)
    return dims, "box-" + "x".join(map(str, dims))


def _run_avweight(plan: VerifyPlan, report: VerifyReport) -> None:
    """Decide each (size, total weight) cell of the walk once per plan, and build a downset only to record it."""
    dims, label = _box_of(plan, "exhaustive")
    codes: dict[tuple[int, int], int] = {}  # cell -> verdict code
    total = 0
    cases = 0
    for size, weight, chain in downset_walk(dims):
        total += 1
        if not size:
            continue
        cases += 1
        code = codes.get((size, weight))
        if code is None:
            code = codes[size, weight] = _verdict_code(cleared_verdict(*avg_weight_sides(size, weight)))
        if code in _RECORDED_KINDS:
            A = LatticeSet(len(dims), _chain_points(chain))
            _file_witness(report, _avweight_witness(A, weight_stats(A)))
    report.details["downsets_enumerated"] = total
    report.details["downsets_checked"] = cases
    _add_class(report, label, cases, 0, len(report.violations), len(report.equality_witnesses))


def _run_lwplus(plan: VerifyPlan, report: VerifyReport) -> None:
    dims, label = _box_of(plan, "sample")
    cells = list(_cartesian(*[range(b + 1) for b in dims]))
    projections = box_projector(dims)
    rng = SplitMix64(plan.seed)
    for _ in range(plan.sample_size):
        mask = rng.nonempty_mask(len(cells))
        proj = projections(mask)
        for check in ("lwplus", "loomis-whitney"):
            _file_witness(report, _projection_witness(check, len(dims), cells, mask, proj))
    _add_class(report, label, plan.sample_size, 0, len(report.violations), len(report.equality_witnesses))


_RUNNERS: dict[str, Callable[[VerifyPlan, VerifyReport], None]] = {
    **dict.fromkeys(BOUNDARY_THEOREMS, _run_boundary_theorem),
    "avweight": _run_avweight,
    "lwplus": _run_lwplus,
    "repa": _run_repa,
    "claims-compression": _run_claims,
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


def _scalar_text(o: object) -> str | None:
    """A str, None, bool, int or float as json writes it, tested in json's order; None for anything else."""
    if isinstance(o, str):
        return _quote(o)
    if o is None or o is True or o is False:
        return "null" if o is None else "true" if o else "false"
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float):
        return "NaN" if o != o else "Infinity" if o == inf else "-Infinity" if o == -inf else float.__repr__(o)
    return None


def _key_text(key: object) -> str:
    """A dict key as json writes it: a quoted str, or a quoted scalar text (such as "1" or "true")."""
    text = _scalar_text(key)
    if text is None:
        raise TypeError(f"keys must be str, int, float, bool or None, not {key.__class__.__name__}")
    return text if isinstance(key, str) else '"' + text + '"'


def json_text(obj: object) -> str:
    """``json.dumps(obj, indent=2)``, byte for byte; every report and CLI print is written here.

    With ``indent`` set json takes its pure-Python encoder. This one appends to
    one list, and renders a list of exact ints (``bool`` excluded, since
    True == 1 would share its key) in one join, cached for this call by
    (items, depth): the coordinate rows that thousands of witnesses repeat
    become dict lookups, and a list of such rows joins their texts. Other
    types raise ``TypeError``, as in json; circular input is not detected.
    """
    out: list[str] = []
    put = out.append
    rows: dict[tuple[tuple[int, ...], int], str] = {}

    # pad is "\n" + "  " * depth, built once per container
    def int_row(items: list | tuple, pad: str) -> str | None:
        if not items:
            return "[]"
        for x in items:
            if type(x) is not int:
                return None
        key = (tuple(items), len(pad))
        text = rows.get(key)
        if text is None:
            inner = pad + "  "
            text = rows[key] = "[" + inner + ("," + inner).join(map(int.__repr__, items)) + pad + "]"
        return text

    def render(o: object, pad: str) -> None:
        text = _scalar_text(o)
        if text is None and isinstance(o, (list, tuple)):
            inner = pad + "  "
            text = int_row(o, pad)
            if text is None:
                texts = [int_row(v, inner) if type(v) is list else None for v in o]
                if None not in texts:
                    text = "[" + inner + ("," + inner).join(texts) + pad + "]"
            if text is None:
                lead, sep = "[" + inner, "," + inner
                for v in o:
                    put(lead)
                    lead = sep
                    render(v, inner)
                text = pad + "]"
        elif text is None and isinstance(o, dict):
            inner = pad + "  "
            lead, sep = "{" + inner, "," + inner
            for k, v in o.items():
                head = lead + (_quote(k) if type(k) is str else _key_text(k)) + ": "
                lead = sep
                # the common values of a report, without a call
                if type(v) is str:
                    put(head + _quote(v))
                elif type(v) is int:
                    put(head + int.__repr__(v))
                else:
                    put(head)
                    render(v, inner)
            text = pad + "}" if o else "{}"
        elif text is None:
            raise TypeError(f"Object of type {o.__class__.__name__} is not JSON serializable")
        put(text)

    render(obj, "\n")
    del render  # its closure holds it: break the cycle so the pieces and rows go on return, not at a gc pass
    return "".join(out)


def emit_report(report: VerifyReport, fmt: str = "text") -> str:
    """Render a report as json (``json_text``), tsv (one row per case class) or text."""
    if fmt == "json":
        return json_text(report.to_obj())
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
                lines.append("  violation: " + json.dumps(w, sort_keys=True))
        for c in report.classes:
            lines.append(
                f"  class {c['label']}: cases={c['cases']} vacuous={c['vacuous']}"
                f" violations={c['violations']} equalities={c['equalities']}"
            )
        if report.details:
            lines.append("  details: " + json.dumps(report.details, sort_keys=True))
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


# what each builder returns: (spec, subset, gens, expected, computed)
_ExampleParts = tuple[GroupSpec, GroupSet, GeneratorSeq, dict, dict]


def _example_subgroup_times_basis(m: int, k: int, n: int) -> _ExampleParts:
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
    return spec, A, gens, expected, computed


def _example_union_of_subgroups(m: int, n: int, k: int) -> _ExampleParts:
    if not (m >= 2 and k >= 1 and n >= 1 and n % k == 0):
        raise ValueError("need m >= 2 and k | n")
    spec = GroupSpec([m] * n)
    d = n // k
    gens = spec.standard_basis()
    # the union of the k blockwise coordinate subgroups, each of rank d
    A = GroupSet.empty(spec)
    for i in range(k):
        A = A | span(GeneratorSeq(spec, gens.elements[i * d : (i + 1) * d]))
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
    return spec, A, gens, expected, computed


def _example_box(m: int, t: int, n: int) -> _ExampleParts:
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
    return spec, A, gens, expected, computed


def _example_popular_family(m: int, n: int, k: int) -> _ExampleParts:
    spec, A, gens, _, _ = _example_union_of_subgroups(m, n, k)
    d = n // k
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
    return spec, A, gens, expected, computed


_EXAMPLES: dict[str, Callable[..., _ExampleParts]] = {
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
    return _self_check(ExampleInstance(example_id, params, *_EXAMPLES[example_id](**params)))

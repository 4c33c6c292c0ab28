"""Whole-family numpy sweeps against the per-mask Gray sweep and a closed form."""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest

from isoperim import (
    CompressionContext,
    GeneratorSeq,
    GroupSpec,
    SplitMix64,
    Verdict,
    VerifyPlan,
    VerifyReport,
    gray_subset_sweep,
    run_verify,
)
from isoperim import boundary, harness
from isoperim.boundary import BOUNDARY_THEOREMS
from isoperim.harness import GeneratorPolicy, gray_sweep_chunks


def assert_same_list(got: list, want: list, *context) -> None:
    """got == want, failing at the first differing entry instead of diffing the whole lists."""
    for i, (g, w) in enumerate(zip(got, want)):
        assert g == w, (i, g, w, *context)
    assert len(got) == len(want), (len(got), len(want), *context)


def kernel_tuples(spec, gens):
    for masks, sizes, bounds in gray_sweep_chunks(spec, gens):
        assert masks.dtype == np.uint32 and len(masks) <= harness._SWEEP_CHUNK
        for r in range(len(masks)):
            yield int(masks[r]), int(sizes[r]), [int(b) for b in bounds[:, r]]


def oracle_tuples(spec, gens):
    for mask, size, dtot, d in gray_subset_sweep(spec, gens):
        assert dtot == sum(d)
        yield mask, size, list(d)


def _gens(spec, *coords):
    return GeneratorSeq(spec, tuple(spec.element(c) for c in coords))


SWEEP_CASES = [
    ((2, 2, 2), None),
    ((2, 2, 2, 2), None),
    ((4, 4), None),
    ((3, 3), None),
    ((2, 8), None),
    ((4, 4), ((1, 1), (0, 3), (2, 1))),
    ((2, 2, 2), ((0, 0, 0), (1, 0, 0), (1, 1, 1))),  # the zero generator
]


@pytest.mark.parametrize("moduli,coords", SWEEP_CASES)
@pytest.mark.parametrize("chunk", [None, 100])
def test_chunks_match_gray_subset_sweep(monkeypatch, moduli, coords, chunk):
    if chunk is not None:
        monkeypatch.setattr(harness, "_SWEEP_CHUNK", chunk)
    spec = GroupSpec(moduli)
    gens = spec.standard_basis() if coords is None else _gens(spec, *coords)
    got = list(kernel_tuples(spec, gens))
    assert len(got) == (1 << spec.order) - 1
    assert_same_list(got, list(oracle_tuples(spec, gens)))


def test_sweep_rejects_infeasible_orders():
    spec = GroupSpec((5, 5))
    with pytest.raises(ValueError):
        next(gray_sweep_chunks(spec, spec.standard_basis()))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_minimum_boundary_matches_harper_closed_form(n):
    # Harper (1964), Hart (1976): in the n-cube the least edge boundary of a
    # k-set is n*k - 2 * sum_{j<k} popcount(j), attained by initial segments.
    spec = GroupSpec((2,) * n)
    best = np.full(spec.order + 1, np.iinfo(np.int64).max)
    for masks, sizes, bounds in gray_sweep_chunks(spec, spec.standard_basis()):
        np.minimum.at(best, sizes, bounds.sum(axis=0).astype(np.int64))
    for k in range(1, spec.order + 1):
        assert best[k] == n * k - 2 * sum(j.bit_count() for j in range(k))


# -- runner reports against per-mask reference loops --------------------------------


def reference_boundary_report(plan: VerifyPlan) -> VerifyReport:
    """The exhaustive boundary runner written as one loop over gray_subset_sweep."""
    spec = GroupSpec(plan.moduli)
    theorem = BOUNDARY_THEOREMS[plan.theorem]
    report = VerifyReport(theorem=plan.theorem)
    for label, gens in harness._generator_seqs(plan, spec, SplitMix64(plan.seed)):
        params = theorem.params(spec, gens)
        cases = vac = eqs = vios = 0
        for mask, size, dtot, _ in gray_subset_sweep(spec, gens):
            cases += 1
            v = theorem.verdict(params, size, dtot)
            if not v.ok:
                vios += 1
                report.violations.append(
                    harness._boundary_witness(plan.theorem, spec, gens, label, params, mask, size, dtot)
                )
            elif v.vacuous:
                vac += 1
            elif v.equality:
                eqs += 1
                report.equality_witnesses.append(
                    harness._boundary_witness(plan.theorem, spec, gens, label, params, mask, size, dtot)
                )
        report.cases_checked += cases
        report.vacuous += vac
        report.classes.append(
            {"label": label, "cases": cases, "vacuous": vac, "violations": vios, "equalities": eqs}
        )
    return report


def reference_claims_report(plan: VerifyPlan) -> VerifyReport:
    """The exhaustive claims runner as one loop of the per-mask check over gray_subset_sweep."""
    spec = GroupSpec(plan.moduli)
    report = VerifyReport(theorem=plan.theorem)
    for label, gens in harness._generator_seqs(plan, spec, SplitMix64(plan.seed)):
        ctx = CompressionContext(gens)
        cases = vios = 0
        for mask, size, _, d in gray_subset_sweep(spec, gens):
            cases += 1
            bad = harness._claims_problems(ctx, mask, size, d)
            if bad:
                vios += len(bad)
                report.violations.append(harness._claims_witness(spec, gens, label, mask, bad))
        report.cases_checked += cases
        report.classes.append({"label": label, "cases": cases, "vacuous": 0, "violations": vios, "equalities": 0})
    return report


def report_entries(report: VerifyReport) -> list[str]:
    """The report's JSON but for its wall time, one string per field and per list entry, in order."""
    obj = report.to_obj()
    obj.pop("wall_time")
    out = []
    for key, value in obj.items():
        if isinstance(value, list):
            out.append(f"{key}: {len(value)} entries")
            out.extend(f"{key}[{i}]: {json.dumps(entry)}" for i, entry in enumerate(value))
        else:
            out.append(f"{key}: {json.dumps(value)}")
    return out


def same_report(plan: VerifyPlan, reference) -> None:
    assert_same_list(report_entries(run_verify(plan)), report_entries(reference(plan)))


def _random(count, sets=2, independent=False):
    return GeneratorPolicy(kind="random-generating", count=count, sets=sets, independent=independent)


BOUNDARY_PLANS = [
    VerifyPlan(theorem="bl-bound", moduli=(2, 2, 2)),
    VerifyPlan(theorem="bl-bound", moduli=(2, 2, 2, 2)),
    VerifyPlan(theorem="bl-bound", moduli=(4, 4), generators=_random(3), seed=11),
    VerifyPlan(theorem="exp234", moduli=(3, 3), generators=_random(3), seed=5),
    VerifyPlan(theorem="exp234", moduli=(4, 4)),
    VerifyPlan(theorem="generalcase", moduli=(2, 8)),
    VerifyPlan(theorem="generalcase", moduli=(2, 8), generators=_random(2, independent=True), seed=2),
    VerifyPlan(
        theorem="cosetdecomp",
        moduli=(2, 2, 2, 2),
        generators=GeneratorPolicy(kind="fixed-list", elements=((1, 1, 0, 0), (0, 1, 1, 1))),
    ),
    VerifyPlan(theorem="cosetdecomp", moduli=(3, 3), generators=GeneratorPolicy(kind="all-subsets")),
]


@pytest.mark.parametrize("plan", BOUNDARY_PLANS, ids=lambda p: f"{p.theorem}-{p.moduli}-{p.generators.kind}")
def test_boundary_runner_matches_reference_loop(plan):
    same_report(plan, reference_boundary_report)


def test_allow_large_lifts_the_exhaustive_cap():
    # C17 has 2**17 - 1 non-empty subsets, two chunks at the real sweep chunk size
    plan = VerifyPlan(theorem="generalcase", moduli=(17,))
    assert harness._SWEEP_CHUNK < (1 << 17) - 1 <= 2 * harness._SWEEP_CHUNK
    with pytest.raises(ValueError, match="requires allow_large"):
        run_verify(plan)
    same_report(dataclasses.replace(plan, allow_large=True), reference_boundary_report)


@pytest.mark.parametrize("theorem", ["bl-bound", "generalcase"])
def test_boundary_runner_matches_reference_with_every_verdict_kind(monkeypatch, theorem):
    # the bounds hold, so no real plan reaches the violation branch; a made-up
    # verdict table reaches all four codes, across chunk edges
    def fake_kernel(param0, param1, size, b):
        return Verdict(ok=(size + b) % 3 != 0, vacuous=b % 5 == 0, equality=size % 2 == 0)

    monkeypatch.setattr(boundary, BOUNDARY_THEOREMS[theorem].kernel, fake_kernel)
    monkeypatch.setattr(harness, "_SWEEP_CHUNK", 100)
    plan = VerifyPlan(theorem=theorem, moduli=(2, 4) if theorem == "generalcase" else (2, 2, 2))
    report = run_verify(plan)
    assert report.violations and report.equality_witnesses and report.vacuous
    same_report(plan, reference_boundary_report)


def test_boundary_witness_follows_the_verdict_precedence(monkeypatch):
    # as in the runners' verdict table, a vacuous verdict records nothing even with its equality flag set
    spec = GroupSpec((2, 2))
    gens = spec.standard_basis()
    theorem = BOUNDARY_THEOREMS["bl-bound"]
    params = theorem.params(spec, gens)
    for fields, kind in [
        ((False, True, True), "violation"),
        ((True, True, True), None),
        ((True, False, True), "equality"),
        ((True, False, False), None),
    ]:
        monkeypatch.setattr(boundary, theorem.kernel, lambda *args, fields=fields: Verdict(*fields))
        witness = harness._boundary_witness("bl-bound", spec, gens, "standard-basis", params, 0b11, 2, 2)
        assert (witness and witness["kind"]) == kind, fields


CLAIMS_PLANS = [
    VerifyPlan(theorem="claims-compression", moduli=(2, 2, 2)),
    VerifyPlan(theorem="claims-compression", moduli=(2, 4)),
    VerifyPlan(theorem="claims-compression", moduli=(3, 3)),
    VerifyPlan(theorem="claims-compression", moduli=(2, 2, 3)),
    VerifyPlan(theorem="claims-compression", moduli=(3, 3), generators=_random(2, independent=True), seed=4),
]


@pytest.mark.parametrize("plan", CLAIMS_PLANS, ids=lambda p: f"{p.moduli}-{p.generators.kind}")
def test_claims_runner_matches_reference_loop(monkeypatch, plan):
    monkeypatch.setattr(harness, "_SWEEP_CHUNK", 50)
    same_report(plan, reference_claims_report)


def test_claims_flagged_masks_get_the_per_mask_problems(monkeypatch):
    # with compression made the identity on int masks and on arrays alike, both
    # paths must report the same problems for the same masks, in Gray order
    monkeypatch.setattr(CompressionContext, "compress_mask", lambda self, masks, i: masks)
    monkeypatch.setattr(harness, "_SWEEP_CHUNK", 50)
    plan = VerifyPlan(theorem="claims-compression", moduli=(2, 4))
    report = run_verify(plan)
    assert report.violations
    same_report(plan, reference_claims_report)


def test_claims_reports_every_kind_of_problem(monkeypatch):
    # a constant compression output, one element outside every <S_i>, breaks each
    # claim on some mask; the array and int forms must report them alike
    spec = GroupSpec((2, 4))
    single = 1 << spec.index_of(spec.element((1, 1)))
    monkeypatch.setattr(
        CompressionContext,
        "compress_mask",
        lambda self, masks, i: single if isinstance(masks, int) else np.full_like(masks, single),
    )
    monkeypatch.setattr(harness, "_SWEEP_CHUNK", 50)
    plan = VerifyPlan(theorem="claims-compression", moduli=(2, 4))
    problems = {p for w in run_verify(plan).violations for p in w["problems"]}
    kinds = ("cardinality changed", "output not compressed", "boundary grew", "destroyed compressedness", "single pass")
    for kind in kinds:
        assert any(kind in p for p in problems), kind
    same_report(plan, reference_claims_report)


def test_claims_kernel_disagreement_raises(monkeypatch):
    # compression made the identity on arrays only: the array form flags masks
    # that the exact per-mask check passes
    real = CompressionContext.compress_mask
    monkeypatch.setattr(
        CompressionContext,
        "compress_mask",
        lambda self, masks, i: real(self, masks, i) if isinstance(masks, int) else masks.copy(),
    )
    with pytest.raises(RuntimeError, match="disagree"):
        run_verify(VerifyPlan(theorem="claims-compression", moduli=(2, 2)))


def _kernel_bases():
    """A fixed basis of C2 x C4, then the standard and one drawn basis of four more groups."""
    out = [_gens(GroupSpec((2, 4)), (1, 2), (0, 1))]
    for seed, moduli in enumerate([(2, 2, 2, 2), (4, 4), (3, 3), (2, 2, 3)]):
        spec = GroupSpec(moduli)
        out.append(spec.standard_basis())
        out.append(harness.draw_generating_seq(spec, SplitMix64(seed), len(moduli), independent=True))
    return out


def test_compression_array_kernels_match_scalar_forms():
    # the array form on every mask; the int form, microseconds a call, on every
    # mask up to 12 elements and on a seeded 1/32 of the masks of 16 elements
    for gens in _kernel_bases():
        ctx = CompressionContext(gens)
        masks = np.arange(1, 1 << gens.spec.order, dtype=np.uint32)
        picks = np.arange(len(masks))
        if gens.spec.order > 12:
            picks = np.random.default_rng(len(ctx)).choice(picks, 1 << 11, replace=False)
        ints = masks[picks].tolist()
        for i in range(len(ctx)):
            assert ctx.compress_mask(masks, i).dtype == np.uint32
            for kernel in (ctx.compress_mask, ctx.is_compressed_mask, ctx.boundary_count_mask):
                got = kernel(masks, i)[picks].tolist()
                assert_same_list(got, [kernel(m, i) for m in ints], gens, i, kernel.__name__)

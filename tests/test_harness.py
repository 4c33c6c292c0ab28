"""Verification plans, sweeps, sampling, example builders, reports."""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import product
from math import prod

import pytest

from isoperim import (
    CompressionContext,
    GeneratorSeq,
    GroupSet,
    GroupSpec,
    LatticeSet,
    SplitMix64,
    VerifyPlan,
    build_example,
    draw_generating_seq,
    emit_report,
    enumerate_downsets,
    gray_subset_sweep,
    is_downset,
    is_independent,
    loomis_whitney_feasible,
    lw_plus_feasible,
    projection_sizes,
    replay_witness,
    run_verify,
    span,
)
from isoperim import harness
from isoperim import popular as popular_module
from isoperim.harness import THEOREM_IDS, GeneratorPolicy
from isoperim.groups import min_nonzero_order
from isoperim.popular import dim_independent, popular_diffs, popular_dim_verdict


def test_splitmix64_reference_vectors():
    # canonical first outputs for seed 0
    rng = SplitMix64(0)
    assert [rng.next_u64() for _ in range(3)] == [
        0xE220A8397B1DCDAF,
        0x6E789E6AA1B965F4,
        0x06C45D188009454F,
    ]


def test_splitmix64_determinism_and_masks():
    a, b = SplitMix64(42), SplitMix64(42)
    assert [a.next_u64() for _ in range(5)] == [b.next_u64() for _ in range(5)]

    rng = SplitMix64(7)
    mask = rng.mask_bits(100)
    assert 0 <= mask < (1 << 100)
    # first word fills the low 64 bits
    check = SplitMix64(7)
    w0 = check.next_u64()
    w1 = check.next_u64()
    assert mask == (w0 | (w1 << 64)) & ((1 << 100) - 1)
    assert SplitMix64(7).mask_bits(100) == mask

    assert SplitMix64(3).nonempty_mask(9) != 0


def test_splitmix64_below_rejects_bad_bound():
    with pytest.raises(ValueError):
        SplitMix64(0).below(0)


def test_gray_sweep_visits_every_nonempty_subset_once():
    spec = GroupSpec([2, 4])
    seen = set()
    for mask, size, dtot, d in gray_subset_sweep(spec, spec.standard_basis()):
        assert mask not in seen
        seen.add(mask)
        assert size == mask.bit_count()
    assert len(seen) == 2**spec.order - 1


def test_gray_sweep_boundary_counts_match_direct_recount():
    from isoperim.boundary import boundary_counts

    spec = GroupSpec([2, 4])
    gens = GeneratorSeq(spec, (spec.element([1, 0]), spec.element([0, 1]), spec.element([1, 2])))
    for mask, size, dtot, d in gray_subset_sweep(spec, gens):
        direct = boundary_counts(GroupSet(spec, mask), gens)
        assert tuple(d) == direct
        assert dtot == sum(direct)


def test_gray_sweep_handles_zero_generator():
    spec = GroupSpec([2, 2])
    gens = GeneratorSeq(spec, (spec.zero(), spec.element([1, 0])))
    for mask, size, dtot, d in gray_subset_sweep(spec, gens):
        assert d[0] == 0


def test_enumerate_downsets_counts():
    assert sum(1 for _ in enumerate_downsets((1,))) == 3
    assert sum(1 for _ in enumerate_downsets((1, 1))) == 6
    assert sum(1 for _ in enumerate_downsets((2, 2))) == 20


def test_enumerate_downsets_contract():
    seen = set()
    for A in enumerate_downsets((2, 1)):
        assert is_downset(A) or len(A) == 0
        assert A not in seen
        seen.add(A)
    assert len(seen) == sum(1 for _ in enumerate_downsets((2, 1)))


def test_enumerate_downsets_budget():
    with pytest.raises(ValueError):
        list(enumerate_downsets((1,) * 21))
    with pytest.raises(ValueError):
        list(enumerate_downsets(()))


def test_draw_generating_seq():
    spec = GroupSpec([4, 4])
    rng = SplitMix64(5)
    for _ in range(10):
        seq = draw_generating_seq(spec, rng, 2)
        assert len(span(seq)) == spec.order
    seq = draw_generating_seq(spec, rng, 2, independent=True)
    assert is_independent(seq)
    # same seed, same draws
    again = draw_generating_seq(GroupSpec([4, 4]), SplitMix64(5), 2)
    first = draw_generating_seq(GroupSpec([4, 4]), SplitMix64(5), 2)
    assert again == first


def test_run_verify_exp234_exhaustive_case_count():
    plan = VerifyPlan(theorem="exp234", moduli=(2, 2, 2), mode="exhaustive")
    report = run_verify(plan)
    assert report.cases_checked == 255
    assert report.passed
    assert report.classes[0]["label"] == "standard-basis"


def test_run_verify_claims_compression_small():
    plan = VerifyPlan(theorem="claims-compression", moduli=(2, 2), mode="exhaustive")
    report = run_verify(plan)
    assert report.passed and report.cases_checked == 15


def test_run_verify_rejects_trivial_group():
    plan = VerifyPlan(theorem="exp234", moduli=(), mode="exhaustive")
    with pytest.raises(ValueError):
        run_verify(plan)


def test_run_verify_rejects_unknown_theorem():
    with pytest.raises(ValueError):
        run_verify(VerifyPlan(theorem="nonsense", moduli=(2, 2)))


def test_run_verify_exhaustive_cap():
    plan = VerifyPlan(theorem="exp234", moduli=(2,) * 5, mode="exhaustive")
    with pytest.raises(ValueError):
        run_verify(plan)


def test_all_subsets_policy_over_more_than_ten_elements_requires_allow_large():
    plan = VerifyPlan(theorem="cosetdecomp", moduli=(11,), generators=GeneratorPolicy(kind="all-subsets"))
    with pytest.raises(ValueError, match=r"all-subsets policy over \|G\| = 11 requires allow_large"):
        run_verify(plan)


def test_run_verify_hypothesis_validation():
    # exp234 requires exponent <= 4; generalcase requires independence
    with pytest.raises(ValueError):
        run_verify(VerifyPlan(theorem="exp234", moduli=(5,), mode="exhaustive"))
    bad = VerifyPlan(
        theorem="generalcase",
        moduli=(2, 2),
        mode="exhaustive",
        generators=GeneratorPolicy(kind="fixed-list", elements=((1, 0), (0, 1), (1, 1))),
    )
    with pytest.raises(ValueError):
        run_verify(bad)


def test_reports_are_deterministic():
    plan = VerifyPlan(
        theorem="bl-bound",
        moduli=(3, 3),
        mode="exhaustive",
        generators=GeneratorPolicy(kind="random-generating", count=2, sets=3),
        seed=1234,
    )
    a = run_verify(plan).to_obj()
    b = run_verify(plan).to_obj()
    a.pop("wall_time")
    b.pop("wall_time")
    assert json.dumps(a) == json.dumps(b)


def test_sample_mode_is_seeded():
    plan = VerifyPlan(theorem="generalcase", moduli=(2, 4), mode="sample", sample_size=200, seed=9)
    a = run_verify(plan).to_obj()
    b = run_verify(plan).to_obj()
    a.pop("wall_time")
    b.pop("wall_time")
    assert a == b
    assert a["cases_checked"] == 200


def test_equality_witnesses_replay():
    plan = VerifyPlan(theorem="bl-bound", moduli=(2, 2, 2), mode="exhaustive")
    report = run_verify(plan)
    assert report.equality_witnesses
    for w in report.equality_witnesses:
        # replay must work from the serialized form alone
        assert replay_witness(json.loads(json.dumps(w)))
    # a corrupted witness must fail replay
    broken = dict(report.equality_witnesses[0])
    broken["boundary"] += 1
    assert not replay_witness(broken)


def test_avweight_plan_details():
    plan = VerifyPlan(theorem="avweight", box=(1, 1))
    report = run_verify(plan)
    assert report.passed
    assert report.details["downsets_enumerated"] == 6
    assert report.details["downsets_checked"] == 5
    for w in report.equality_witnesses:
        assert replay_witness(w)


def test_avweight_runs_only_exhaustive():
    # the downset enumeration has no sampled form; a sample plan would enumerate anyway
    plan = VerifyPlan(theorem="avweight", box=(1, 1), mode="sample", sample_size=3)
    with pytest.raises(ValueError, match="avweight runs in exhaustive mode"):
        run_verify(plan)


def test_lwplus_plan():
    plan = VerifyPlan(theorem="lwplus", box=(2, 2), mode="sample", sample_size=50, seed=4)
    report = run_verify(plan)
    assert report.passed and report.cases_checked == 50


def reference_lwplus_report(plan):
    """Reference: the lwplus runner as a loop that builds a LatticeSet for every sampled mask."""
    dims = tuple(plan.box)
    cells = list(product(*[range(b + 1) for b in dims]))
    rng = SplitMix64(plan.seed)
    violations, equalities = [], []
    for _ in range(plan.sample_size):
        mask = rng.nonempty_mask(len(cells))
        A = LatticeSet(len(dims), [cells[i] for i in range(len(cells)) if mask >> i & 1])
        n, size, proj = A.dim, len(A), projection_sizes(A)
        verdicts = {
            "lwplus": (lw_plus_feasible(n, size, proj), 4 ** (n * size) == 4 ** sum(proj) * size**size),
            "loomis-whitney": (loomis_whitney_feasible(size, proj), prod(proj) == size ** (n - 1)),
        }
        for check, (ok, equality) in verdicts.items():
            if not ok or equality:
                witness = {
                    "kind": "violation" if not ok else "equality",
                    "check": check,
                    "set": A.to_obj(),
                    "size": size,
                    "projections": list(proj),
                }
                (violations if not ok else equalities).append(witness)
    label = "box-" + "x".join(map(str, dims))
    classes = [{"label": label, "cases": plan.sample_size, "vacuous": 0,
                "violations": len(violations), "equalities": len(equalities)}]
    return violations, equalities, classes


@pytest.mark.parametrize("box", [(1,), (1, 1), (0, 2), (1, 1, 1), (2, 2), (2, 0, 1)])
def test_lwplus_runner_matches_the_per_set_loop(box):
    # small boxes are witness-heavy: tens to hundreds of equality cases per plan
    for seed in (1, 2, 3):
        plan = VerifyPlan(theorem="lwplus", box=box, mode="sample", sample_size=400, seed=seed)
        report = run_verify(plan)
        violations, equalities, classes = reference_lwplus_report(plan)
        assert report.violations == violations
        assert report.equality_witnesses == equalities
        assert report.classes == classes and report.cases_checked == plan.sample_size
    assert equalities
    for w in report.equality_witnesses:
        assert replay_witness(w)


def test_lwplus_rejects_negative_box_bounds():
    # an empty box would leave the non-empty sampler drawing forever
    plan = VerifyPlan(theorem="lwplus", box=(2, -1), mode="sample", sample_size=3)
    with pytest.raises(ValueError, match="non-negative"):
        run_verify(plan)


def test_repa_plan_equality_replay():
    plan = VerifyPlan(
        theorem="repa",
        moduli=(2, 2),
        mode="exhaustive",
        gammas=(Fraction(1, 2), Fraction(1)),
        dim_cap=16,
    )
    report = run_verify(plan)
    assert report.passed
    for w in report.violations + report.equality_witnesses:
        assert replay_witness(w)


@pytest.mark.parametrize("mode, label, cases", [("exhaustive", "all-sets", 15), ("sample", "sampled-sets", 4)])
def test_repa_class_label_names_the_mode(mode, label, cases):
    plan = VerifyPlan(
        theorem="repa", moduli=(2, 2), mode=mode, sample_size=4 if mode == "sample" else 0, gammas=(Fraction(1, 2),)
    )
    report = run_verify(plan)
    assert [(c["label"], c["cases"]) for c in report.classes] == [(label, cases)]


def reference_repa_report(plan):
    """Reference: the repa runner as a loop that searches the dimension of every popular set it meets."""
    spec = GroupSpec(plan.moduli)
    if plan.mode == "sample":
        rng = SplitMix64(plan.seed)
        masks = [rng.nonempty_mask(spec.order) for _ in range(plan.sample_size)]
    else:
        masks = range(1, 1 << spec.order)
    variant = "exp3" if spec.exponent == 3 else f"general-p{min_nonzero_order(spec)}"
    violations, equalities, popular = [], [], []
    for mask in masks:
        A = GroupSet(spec, mask)
        for gamma in plan.gammas:
            P = popular_diffs(A, gamma)
            popular.append(P.mask)
            dim = dim_independent(P, cap=plan.dim_cap).value
            v = popular_dim_verdict(spec, gamma, len(A), dim)
            if not v.ok or v.equality:
                witness = {
                    "kind": "violation" if not v.ok else "equality",
                    "check": "repa",
                    "group": spec.to_obj(),
                    "set": [list(e.coords) for e in A.elements()],
                    "gamma": str(Fraction(gamma)),
                    "size": len(A),
                    "popular_size": len(P),
                    "dim_independent": dim,
                    "variant": variant,
                }
                (violations if not v.ok else equalities).append(witness)
    return violations, equalities, popular


@pytest.mark.parametrize(
    "moduli, mode",
    [
        ((2,) * 5, "sample"),
        ((3,) * 3, "sample"),
        ((2, 4, 4), "sample"),
        ((2, 2, 2), "exhaustive"),
        ((3, 3), "exhaustive"),
        ((2, 4), "exhaustive"),
        ((2,) * 6, "sample"),
        ((2,) * 8, "sample"),
    ],
)
def test_repa_searches_each_popular_set_once(monkeypatch, moduli, mode):
    plan = VerifyPlan(
        theorem="repa", moduli=moduli, mode=mode, sample_size=30 if mode == "sample" else 0, seed=5,
        gammas=(Fraction(1, 4), Fraction(1, 2), Fraction(1)), dim_cap=prod(moduli),
    )
    violations, equalities, popular = reference_repa_report(plan)
    searched = []

    def counted(P, cap):
        searched.append(P.mask)
        return dim_independent(P, cap)

    monkeypatch.setattr(popular_module, "dim_independent", counted)
    monkeypatch.setattr(harness, "_SWEEP_CHUNK", 7)  # an exhaustive plan spans many chunks
    report = run_verify(plan)
    assert report.violations == violations and report.equality_witnesses == equalities
    assert report.cases_checked == len(popular)
    if len(set(moduli)) == 1 and moduli[0] in (2, 3) and prod(moduli) <= 64:
        # elementary abelian: the dimension is the F_p-rank, counted from annihilating characters
        assert searched == []
    else:
        # one search per distinct popular set, and the sets repeat
        assert sorted(searched) == sorted(set(popular)) and len(searched) < len(popular)


def test_plan_json_roundtrip():
    plan = VerifyPlan(
        theorem="generalcase",
        moduli=(2, 4, 4),
        mode="sample",
        sample_size=1000,
        seed=77,
        generators=GeneratorPolicy(kind="fixed-list", elements=((1, 0, 0), (0, 1, 0), (0, 0, 1))),
        gammas=(Fraction(1, 2),),
    )
    again = VerifyPlan.from_obj(plan.to_obj())
    assert again == plan

    rnd = VerifyPlan(
        theorem="exp234",
        moduli=(3, 3),
        generators=GeneratorPolicy(kind="random-generating", count=2, sets=5),
        seed=3,
    )
    assert VerifyPlan.from_obj(rnd.to_obj()) == rnd


def test_emit_report_formats():
    plan = VerifyPlan(theorem="exp234", moduli=(2, 2), mode="exhaustive")
    report = run_verify(plan)
    text = emit_report(report, "text")
    assert text.startswith("PASS")
    tsv = emit_report(report, "tsv")
    lines = tsv.strip().splitlines()
    assert lines[0].split("\t") == ["theorem", "class", "cases", "vacuous", "violations", "equalities"]
    assert len(lines) == 1 + len(report.classes)
    obj = json.loads(emit_report(report, "json"))
    assert obj["status"] == "PASS"
    with pytest.raises(ValueError):
        emit_report(report, "yaml")


def test_all_subsets_policy_guard():
    plan = VerifyPlan(
        theorem="cosetdecomp",
        moduli=(2, 2, 2, 2),
        mode="exhaustive",
        generators=GeneratorPolicy(kind="all-subsets"),
    )
    with pytest.raises(ValueError):
        run_verify(plan)


# -- worked examples -----------------------------------------------------------------


def test_example_subgroup_times_basis():
    inst = build_example("ex1", m=2, k=2, n=6)
    assert inst.computed["gen_count"] == 8
    assert inst.computed["boundary"] == 16
    assert inst.computed["gamma"] == Fraction(1, 2)


def test_example_union_of_subgroups():
    inst = build_example("ex2", m=2, n=4, k=2)
    assert inst.computed["set_size"] == 7
    assert inst.computed["boundary"] == 12
    inst = build_example("ex2", m=3, n=4, k=2)
    assert inst.computed["set_size"] == 17
    assert inst.computed["boundary"] == 32


def test_example_box():
    inst = build_example("ex3", m=5, t=2, n=3)
    assert inst.computed["set_size"] == 8
    assert inst.computed["boundary"] == 12
    assert inst.computed["gamma"] == Fraction(1, 2)


def test_example_popular_family():
    inst = build_example("ex4", m=2, n=4, k=2)
    assert inst.computed["r_nonzero"] == {4}
    assert inst.computed["gamma"] == Fraction(4, 7)
    assert inst.computed["popular_contains_set"]


def test_example_validation():
    with pytest.raises(ValueError):
        build_example("ex9", m=2, n=2, k=1)
    with pytest.raises(ValueError):
        build_example("ex2", m=2, n=5, k=2)  # k does not divide n
    with pytest.raises(ValueError):
        build_example("ex3", m=3, t=3, n=2)  # t must stay below m


def test_draw_generating_seq_rejects_too_few_generators():
    # C2^2 needs two generators; one draw could never generate it, nor can none
    for count in (1, 0, -1):
        with pytest.raises(ValueError, match="needs 2"):
            draw_generating_seq(GroupSpec([2, 2]), SplitMix64(0), count)
    with pytest.raises(ValueError, match="needs 3"):
        draw_generating_seq(GroupSpec([2, 4, 6]), SplitMix64(0), 2)
    # C2 x C3 is cyclic, so one element can generate it
    assert len(draw_generating_seq(GroupSpec([2, 3]), SplitMix64(0), 1)) == 1


def test_draw_generating_seq_gives_up_after_the_attempt_limit():
    # a 4-element sequence of C2^2 is the whole group in some order, and its
    # element orders multiply to 8 > 4, so none is independent
    with pytest.raises(ValueError, match="no independent generating sequence"):
        draw_generating_seq(GroupSpec([2, 2]), SplitMix64(0), 4, independent=True)
    # more distinct elements than the group has
    with pytest.raises(ValueError, match="draws"):
        draw_generating_seq(GroupSpec([2, 2]), SplitMix64(0), 5)


def test_draw_generating_seq_rejects_independent_counts_above_the_p_rank_sum():
    # an independent sequence holds at most one zero and at most sum_p r_p(G)
    # non-zero entries; rejection sampling would spin through every attempt
    for moduli, count in (((4, 4), 4), ((2, 2, 2), 5), ((6, 6), 6), ((3, 9), 4)):
        rng = SplitMix64(0)
        with pytest.raises(ValueError, match="p-ranks sum to"):
            draw_generating_seq(GroupSpec(moduli), rng, count, independent=True)
        assert rng.next_u64() == SplitMix64(0).next_u64()  # nothing was drawn
    # the largest feasible count needs the zero element
    spec = GroupSpec([4, 4])
    seq = draw_generating_seq(spec, SplitMix64(3), 3, independent=True)
    assert spec.zero() in seq.elements and is_independent(seq) and len(span(seq)) == spec.order


def test_draw_generating_seq_consumes_the_rng_like_plain_rejection():
    # the checks added in front of the loop draw nothing, so seeded plans keep their sets
    def plain(spec, rng, count, independent):
        while True:
            idxs = [rng.below(spec.order) for _ in range(count)]
            if len(set(idxs)) != count:
                continue
            seq = GeneratorSeq(spec, tuple(spec.element_at(r) for r in idxs))
            if len(span(seq)) == spec.order and (not independent or is_independent(seq)):
                return seq

    for moduli, count, independent in (
        ((2, 8), 2, True), ((4, 4), 3, False), ((2, 2, 2, 2), 4, False), ((4, 4), 3, True), ((2, 2, 3), 4, True),
    ):
        spec = GroupSpec(moduli)
        a, b = SplitMix64(17), SplitMix64(17)
        for _ in range(5):
            assert draw_generating_seq(spec, a, count, independent) == plain(spec, b, count, independent)
        assert a.next_u64() == b.next_u64()


def test_plans_reject_unknown_keys():
    obj = VerifyPlan(theorem="exp234", moduli=(2, 2), mode="sample", sample_size=5).to_obj()
    with pytest.raises(ValueError, match="unknown plan keys"):
        VerifyPlan.from_obj({**obj, "sample-size": 5})
    policy = {"policy": "random-generating", "count": 2, "sets": 1, "independant": True}
    with pytest.raises(ValueError, match="unknown generator policy keys"):
        VerifyPlan.from_obj({**obj, "generators": policy})
    # a misspelt key inside the group would otherwise run the plan on C2^2
    with pytest.raises(ValueError, match="unknown group keys"):
        VerifyPlan.from_obj({**obj, "group": {"moduli": [2, 2], "modulii": [3]}})


def test_sample_plans_need_cases():
    # a sample plan that draws nothing would pass with 0 cases
    for obj in (
        {"theorem": "exp234", "group": {"moduli": [2, 2]}, "mode": "sample"},
        {"theorem": "exp234", "group": {"moduli": [2, 2]}, "mode": "sample", "sample_size": 0},
    ):
        with pytest.raises(ValueError, match="sample_size"):
            VerifyPlan.from_obj(obj)
    with pytest.raises(ValueError, match="unknown mode"):
        VerifyPlan(theorem="exp234", moduli=(2, 2), mode="sampled", sample_size=5)


def test_random_policies_need_sets():
    for sets in (0, -2):
        with pytest.raises(ValueError, match="sets"):
            GeneratorPolicy(kind="random-generating", count=2, sets=sets)
        with pytest.raises(ValueError, match="sets"):
            GeneratorPolicy.from_obj({"policy": "random-generating", "count": 2, "sets": sets})


@pytest.mark.parametrize("theorem", ["bl-bound", "exp234"])
def test_boundary_replay_checks_the_recorded_sides(theorem):
    report = run_verify(VerifyPlan(theorem=theorem, moduli=(2, 2, 2)))
    w = report.equality_witnesses[-1]
    assert replay_witness(w)
    fields = {"lhs": str(int(w["lhs"]) + 1), "rhs": str(int(w["rhs"]) * 2)}
    if w["gamma_star"] is not None:
        fields["gamma_star"] = str(Fraction(w["gamma_star"]) / 2)
    for key, value in fields.items():
        assert not replay_witness(dict(w, **{key: value})), key


# the fields a witness names as its case; replay recomputes every other field
WITNESS_INPUTS = {"check", "group", "generators", "set", "label", "gamma"}
LWPLUS_PLAN = VerifyPlan(theorem="lwplus", box=(1, 1), mode="sample", sample_size=20, seed=1)
TAMPER_PLANS = {
    "bl-bound": VerifyPlan(theorem="bl-bound", moduli=(2, 2, 2)),
    "exp234": VerifyPlan(theorem="exp234", moduli=(2, 2, 2)),
    "generalcase": VerifyPlan(theorem="generalcase", moduli=(2, 4)),
    "cosetdecomp": VerifyPlan(
        theorem="cosetdecomp", moduli=(3, 3), generators=GeneratorPolicy(kind="fixed-list", elements=((1, 0),))
    ),
    "claims-compression": VerifyPlan(theorem="claims-compression", moduli=(2, 4)),
    "repa": VerifyPlan(theorem="repa", moduli=(2, 2), gammas=(Fraction(1, 2),), dim_cap=4),
    "avweight": VerifyPlan(theorem="avweight", box=(1, 1)),
    "lwplus": LWPLUS_PLAN,
    "loomis-whitney": LWPLUS_PLAN,
}


def _tampered(value):
    """A different value of the same shape."""
    if value in ("violation", "equality"):
        return "equality" if value == "violation" else "violation"
    if isinstance(value, int):
        return value + 1
    if isinstance(value, list):
        return value[:-1] + [_tampered(value[-1])] if value else ["made up"]
    if value is None:
        return "1/2"
    try:
        return str(Fraction(value) + 1)
    except ValueError:
        return value + "x"


def test_tamper_plans_cover_every_check():
    assert sorted(TAMPER_PLANS) == sorted([*THEOREM_IDS, "loomis-whitney"])


@pytest.mark.parametrize("check", sorted(TAMPER_PLANS))
def test_replay_rejects_every_tampered_field(monkeypatch, check):
    if check == "claims-compression":
        # no real plan fails a claim: with compression made the identity, sets that are not compressed stay so
        monkeypatch.setattr(CompressionContext, "compress_mask", lambda self, masks, i: masks)
    report = run_verify(TAMPER_PLANS[check])
    w = next(w for w in report.violations + report.equality_witnesses if w["check"] == check)
    assert replay_witness(json.loads(json.dumps(w)))
    recorded = sorted(set(w) - WITNESS_INPUTS)
    assert "kind" in recorded and len(recorded) >= 2
    for key in recorded:
        assert not replay_witness(dict(w, **{key: _tampered(w[key])})), key
    assert not replay_witness(dict(w, note="not a field of any record"))


def test_claims_replay_checks_the_recorded_problems(monkeypatch):
    # no real plan has a violation: with compression made the identity on int
    # masks and on arrays alike, sets that are not compressed stay so
    monkeypatch.setattr(CompressionContext, "compress_mask", lambda self, masks, i: masks)
    report = run_verify(VerifyPlan(theorem="claims-compression", moduli=(2, 4)))
    assert report.violations
    for w in report.violations:
        assert replay_witness(json.loads(json.dumps(w)))
    w = report.violations[0]
    assert not replay_witness(dict(w, problems=["made up"]))
    assert not replay_witness(dict(w, problems=w["problems"][1:]))


def test_witness_sides_switch_from_decimal_to_power_terms_past_2000_bits():
    assert harness._side_text(((2, 1999),)) == str(2**1999)
    assert harness._side_text(((2, 2000),)) == "2^2000"
    assert harness._side_text(((3, 5), (7, 2))) == str(3**5 * 7**2)
    assert harness._side_text(((2, 8192), (8192, 8192))) == "2^8192*8192^8192"


def test_large_subcube_equality_witness_builds_replays_and_emits():
    # A = span(e1..e13) in C2^14: |A| = 8192 and boundary 8192, so bl-bound holds with
    # equality at 2^8192 * 8192^8192 = 16384^8192, a side of 114,689 bits
    spec = GroupSpec((2,) * 14)
    gens = spec.standard_basis()
    A = span(GeneratorSeq(spec, gens.elements[:13]))
    params = harness.BOUNDARY_THEOREMS["bl-bound"].params(spec, gens)
    w = harness._boundary_witness("bl-bound", spec, gens, "standard-basis", params, A.mask, len(A), 8192)
    assert w["kind"] == "equality" and w["size"] == 8192 == w["boundary"]
    assert (w["lhs"], w["rhs"]) == ("2^8192*8192^8192", "16384^8192")
    assert replay_witness(w)
    for side, value in (("lhs", "2^8193*8192^8192"), ("lhs", "2^8192*8192^8191"), ("rhs", "16384^8191")):
        assert not replay_witness(dict(w, **{side: value})), (side, value)
    report = harness.VerifyReport("bl-bound", cases_checked=1, equality_witnesses=[w])
    assert replay_witness(json.loads(emit_report(report, "json"))["equality_witnesses"][0])
    assert emit_report(report, "tsv").splitlines()[0].startswith("theorem\t")
    assert emit_report(report, "text").startswith("PASS bl-bound: 1 cases")
    # a violation record of that size is written out in the text form too
    failed = harness.VerifyReport("bl-bound", cases_checked=1, violations=[dict(w, kind="violation")])
    assert '"lhs": "2^8192*8192^8192"' in emit_report(failed, "text")

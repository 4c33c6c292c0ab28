"""Command-line interface: subcommands, formats, exit codes."""

from __future__ import annotations

import json

import pytest

from isoperim.cli import main


@pytest.fixture
def c24_files(tmp_path):
    group = tmp_path / "G.json"
    group.write_text(json.dumps({"moduli": [2, 4]}))
    subset = tmp_path / "A.json"
    subset.write_text(
        json.dumps({"group": {"moduli": [2, 4]}, "elements": [[0, 0], [1, 0], [0, 1]]})
    )
    gens = tmp_path / "S.json"
    gens.write_text(json.dumps({"group": {"moduli": [2, 4]}, "elements": [[1, 0], [0, 1]]}))
    return group, subset, gens


def test_boundary_command(capsys, c24_files):
    group, subset, gens = c24_files
    rc = main(["boundary", "--group", str(group), "--set", str(subset), "--gens", str(gens)])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["total"] == sum(out["per_generator"])
    assert "/" in out["gamma"] or out["gamma"].isdigit()


def test_boundary_command_with_rank(capsys, c24_files):
    group, subset, gens = c24_files
    rc = main(
        ["boundary", "--group", str(group), "--set", str(subset), "--gens", str(gens), "--rank", "2"]
    )
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["gamma_rank"] is not None


def test_compress_command(capsys, c24_files):
    group, subset, gens = c24_files
    rc = main(["compress", "--group", str(group), "--gens", str(gens), "--set", str(subset)])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert len(out["set"]) == 3
    assert out["after"]["total"] <= out["before"]["total"]


def test_compress_single_step(capsys, c24_files):
    group, subset, gens = c24_files
    rc = main(
        ["compress", "--group", str(group), "--gens", str(gens), "--set", str(subset), "--step", "1"]
    )
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert len(out["set"]) == 3


def test_downset_check_command(capsys, tmp_path):
    ok = tmp_path / "down.json"
    ok.write_text(json.dumps({"dim": 2, "points": [[0, 0], [0, 1], [1, 0], [1, 1]]}))
    rc = main(["downset-check", "--set", str(ok), "--check", "avg-weight"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["holds"] and out["equality"]

    for check in ("lw-plus", "loomis-whitney"):
        rc = main(["downset-check", "--set", str(ok), "--check", check])
        assert rc == 0

    bad = tmp_path / "notdown.json"
    bad.write_text(json.dumps({"dim": 2, "points": [[1, 1]]}))
    rc = main(["downset-check", "--set", str(bad), "--check", "avg-weight"])
    assert rc == 2  # precondition failure: not a downset


def test_popdiff_command(capsys, c24_files):
    group, subset, _ = c24_files
    rc = main(
        [
            "popdiff",
            "--group",
            str(group),
            "--set",
            str(subset),
            "--gamma",
            "1/3",
            "--dim",
            "independent",
        ]
    )
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["gamma"] == "1/3"
    assert [0, 0] in out["popular"]
    assert out["dimension"]["kind"] == "independent"
    assert len(out["dimension"]["witness"]) == out["dimension"]["value"]


def test_verify_command_pass_and_formats(capsys, tmp_path):
    plan = tmp_path / "plan.json"
    plan.write_text(
        json.dumps(
            {
                "theorem": "exp234",
                "group": {"moduli": [2, 2, 2]},
                "mode": "exhaustive",
                "generators": {"policy": "standard-basis"},
            }
        )
    )
    rc = main(["verify", "--plan", str(plan), "--format", "text"])
    assert rc == 0
    assert capsys.readouterr().out.startswith("PASS")

    rc = main(["verify", "--plan", str(plan), "--format", "json"])
    assert rc == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["cases_checked"] == 255


def test_verify_command_usage_error(capsys, tmp_path):
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps({"theorem": "exp234", "group": {"moduli": [5]}}))
    rc = main(["verify", "--plan", str(plan)])
    assert rc == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "extra",
    [
        {"sample-size": 5},
        {},
        {"sample_size": 0},
        {"sample_size": 5, "generators": {"policy": "standard-basis", "cuont": 2}},
        {"sample_size": 5, "group": {"moduli": [2, 2], "modulii": [3]}},
    ],
)
def test_verify_command_rejects_plans_that_would_pass_vacuously(capsys, tmp_path, extra):
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps({"theorem": "exp234", "group": {"moduli": [2, 2, 2]}, "mode": "sample", **extra}))
    assert main(["verify", "--plan", str(plan)]) == 2
    captured = capsys.readouterr()
    assert "PASS" not in captured.out and "error" in captured.err


@pytest.mark.parametrize("theorem", ["exp234", "claims-compression"])
@pytest.mark.parametrize("sets", [0, -1])
def test_verify_command_rejects_random_policies_without_sets(capsys, tmp_path, theorem, sets):
    # a random-generating policy of no sequences would pass with 0 cases
    plan = tmp_path / "plan.json"
    policy = {"policy": "random-generating", "count": 2, "sets": sets}
    plan.write_text(json.dumps({"theorem": theorem, "group": {"moduli": [2, 2]}, "generators": policy}))
    assert main(["verify", "--plan", str(plan)]) == 2
    captured = capsys.readouterr()
    assert "PASS" not in captured.out and "sets" in captured.err


@pytest.mark.parametrize(
    "plan_obj, message",
    [
        # C4^2 has p-rank sum 2, so no independent sequence has more than 3 entries
        ({"theorem": "exp234", "group": {"moduli": [4, 4]}, "mode": "sample", "sample_size": 5,
          "generators": {"policy": "random-generating", "count": 4, "independent": True}}, "p-ranks"),
        ({"theorem": "lwplus", "box": [2, -1], "mode": "sample", "sample_size": 5}, "non-negative"),
        ({"theorem": "avweight", "box": [2, -1]}, "non-negative"),
    ],
)
def test_verify_command_rejects_infeasible_plans_at_once(capsys, tmp_path, plan_obj, message):
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps(plan_obj))
    assert main(["verify", "--plan", str(plan)]) == 2
    assert message in capsys.readouterr().err


def test_example_command(capsys):
    rc = main(["example", "--id", "ex3", "--params", "m=5,t=2,n=3"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["expected"]["set_size"] == 8
    assert out["computed"]["boundary"] == 12


def test_example_command_bad_params(capsys):
    rc = main(["example", "--id", "ex2", "--params", "m=2,n=5,k=2"])
    assert rc == 2


def test_enumerate_downsets_command(capsys):
    rc = main(["enumerate-downsets", "--box", "2,2,2"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["count"] == 980

    rc = main(["enumerate-downsets", "--box", "1,1", "--list"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["count"] == 6
    assert [[0, 0]] in out["downsets"]


def test_enumerate_downsets_counts_without_building_sets(capsys, monkeypatch):
    from isoperim import LatticeSet

    def refuse(*args, **kwargs):
        raise AssertionError("a count-only run built a LatticeSet")

    monkeypatch.setattr(LatticeSet, "__init__", refuse)
    assert main(["enumerate-downsets", "--box", "3,3,3"]) == 0
    assert capsys.readouterr().out == '{\n  "box": [\n    3,\n    3,\n    3\n  ],\n  "count": 232848\n}\n'


@pytest.mark.parametrize("box", [(2, 2, 2), (3, 2, 2)])
def test_enumerate_downsets_lists_without_building_sets(capsys, monkeypatch, box):
    from isoperim import LatticeSet, enumerate_downsets

    expected = [A.to_obj()["points"] for A in enumerate_downsets(box)]

    def refuse(*args, **kwargs):
        raise AssertionError("a listing built a LatticeSet")

    monkeypatch.setattr(LatticeSet, "__init__", refuse)
    assert main(["enumerate-downsets", "--box", ",".join(map(str, box)), "--list"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out == {"box": list(box), "count": len(expected), "downsets": expected}


@pytest.mark.parametrize("box", [(2, 2, 2), (3, 2, 2)])
def test_enumerate_downsets_streams_the_held_payload_text(capsys, box):
    from isoperim import enumerate_downsets
    from isoperim.harness import json_text

    listed = [A.to_obj()["points"] for A in enumerate_downsets(box)]
    held = json_text({"box": list(box), "count": len(listed), "downsets": listed})
    assert main(["enumerate-downsets", "--box", ",".join(map(str, box)), "--list"]) == 0
    assert capsys.readouterr().out == held + "\n"


def test_every_print_is_json_dumps_with_indent_2(capsys, tmp_path, c24_files):
    group, subset, gens = c24_files
    down = tmp_path / "down.json"
    down.write_text(json.dumps({"dim": 2, "points": [[0, 0], [0, 1], [1, 0], [1, 1]]}))
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps({"theorem": "exp234", "group": {"moduli": [2, 2, 2]}}))
    inputs = ["--group", str(group), "--set", str(subset)]
    for argv in (
        ["boundary", *inputs, "--gens", str(gens), "--rank", "2"],
        ["compress", *inputs, "--gens", str(gens)],
        ["downset-check", "--set", str(down), "--check", "avg-weight"],
        ["downset-check", "--set", str(down), "--check", "lw-plus"],
        ["popdiff", *inputs, "--gamma", "1/3", "--dim", "dissociated"],
        ["verify", "--plan", str(plan), "--format", "json"],
        ["example", "--id", "ex4", "--params", "m=3,n=2,k=1"],
        ["enumerate-downsets", "--box", "1,1", "--list"],
    ):
        assert main(argv) == 0, argv
        out = capsys.readouterr().out
        assert out == json.dumps(json.loads(out), indent=2) + ("\n" if argv[0] != "verify" else ""), argv


def test_usage_errors_exit_two(capsys):
    assert main(["boundary"]) == 2  # missing required flags
    assert main(["downset-check", "--set", "nope.json", "--check", "avg-weight"]) == 2


def test_internal_errors_exit_three(capsys, monkeypatch, tmp_path):
    from isoperim import CompressionContext, harness

    # the array form of the compression kernel flags sets that the per-mask check passes
    real = CompressionContext.compress_mask
    monkeypatch.setattr(
        CompressionContext,
        "compress_mask",
        lambda self, masks, i: real(self, masks, i) if isinstance(masks, int) else masks.copy(),
    )
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps({"theorem": "claims-compression", "group": {"moduli": [2, 2]}}))
    assert main(["verify", "--plan", str(plan)]) == 3
    assert "internal error" in capsys.readouterr().err

    # a worked example whose computed statistics miss its closed form
    def broken_box(m, t, n):
        spec, subset, gens, expected, computed = harness._example_box(m, t, n)
        return spec, subset, gens, dict(expected, boundary=expected["boundary"] + 1), computed

    monkeypatch.setitem(harness._EXAMPLES, "ex3", broken_box)
    assert main(["example", "--id", "ex3", "--params", "m=5,t=2,n=3"]) == 3
    assert "self-check failed" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["boundary", "compress", "popdiff"])
def test_input_files_must_agree_with_the_group_file(capsys, tmp_path, c24_files, command):
    group, subset, gens = c24_files
    other = tmp_path / "G8.json"
    other.write_text(json.dumps({"moduli": [8]}))
    argv = [command, "--group", str(other), "--set", str(subset)]
    argv += ["--gamma", "1/2"] if command == "popdiff" else ["--gens", str(gens)]
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: set/generator files disagree with the group file\n"
    if command != "popdiff":
        # a generator file of another group fails alike
        gens8 = tmp_path / "S8.json"
        gens8.write_text(json.dumps({"group": {"moduli": [8]}, "elements": [[1]]}))
        assert main([command, "--group", str(group), "--set", str(subset), "--gens", str(gens8)]) == 2
        assert "disagree with the group file" in capsys.readouterr().err


_EXP234 = {"theorem": "exp234", "group": {"moduli": [2, 2]}}
_REPA = {"theorem": "repa", "group": {"moduli": [2, 2]}}


# (plan, the field its error names)
_MALFORMED_PLANS = [
    ({**_EXP234, "group": {"moduli": 5}}, "'moduli'"),
    ({**_EXP234, "group": None}, "group"),
    ({**_EXP234, "seed": None}, "'seed'"),
    ({"theorem": "avweight", "box": 3}, "'box'"),
    ({**_REPA, "gammas": 5}, "'gammas'"),
    ({**_EXP234, "generators": {"policy": "fixed-list", "elements": [5]}}, "'elements'"),
    ({**_REPA, "gammas": ["1/0"]}, "'gammas'"),
    ({**_EXP234, "generators": {"policy": "fixed-list", "elements": 5}}, "'elements'"),
]


@pytest.mark.parametrize(
    "plan_obj, named", _MALFORMED_PLANS, ids=[f"plan_obj{i}" for i in range(len(_MALFORMED_PLANS))]
)
def test_malformed_plans_are_usage_errors(capsys, tmp_path, plan_obj, named):
    # exit 1 means "violations found": a malformed plan exits 2 with one error line,
    # which names the field when a list field holds something else
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps(plan_obj))
    assert main(["verify", "--plan", str(plan)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert named in captured.err


@pytest.mark.parametrize("gamma", ["3/2", "0", "-1/2"])
def test_repa_plans_with_a_threshold_outside_the_unit_interval_are_usage_errors(capsys, tmp_path, gamma):
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps({**_REPA, "gammas": ["1/2", gamma]}))
    assert main(["verify", "--plan", str(plan)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: threshold must lie in (0, 1], got {gamma}\n"


@pytest.mark.parametrize(
    "elements, gamma, named",
    [(5, "1/2", "'elements'"), ([[0, 0], [1, 0]], "1/0", "'--gamma'")],
    ids=["5-1/2", "elements1-1/0"],
)
def test_malformed_popdiff_inputs_are_usage_errors(capsys, tmp_path, c24_files, elements, gamma, named):
    group, _, _ = c24_files
    subset = tmp_path / "bad.json"
    subset.write_text(json.dumps({"group": {"moduli": [2, 4]}, "elements": elements}))
    assert main(["popdiff", "--group", str(group), "--set", str(subset), "--gamma", gamma]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert named in captured.err

"""Command-line interface.

Subcommands: boundary, compress, downset-check, popdiff, verify, example,
enumerate-downsets.  Exit codes: 0 on success/PASS, 1 when a verification
finds violations (or a checked inequality fails), 2 on usage errors, 3 on an
internal error (a failed example self-check or disagreeing kernels).
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .boundary import edge_boundary
from .compression import CompressionContext, compress_along, full_compress
from .groups import GeneratorSeq, GroupSet, GroupSpec, converted
from .harness import _EXAMPLES, VerifyPlan, _chain_points, build_example, downset_walk, emit_report, json_text, run_verify
from .lattice import LatticeSet, avg_weight_bound_holds, loomis_whitney_holds, lw_plus_holds, weight_stats, projection_sizes
from .popular import DEFAULT_DIM_CAP, diff_spectrum, dim_dissociated, dim_independent


def _load_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _parse_params(text: str) -> dict[str, int]:
    out = {}
    for part in text.split(","):
        if not part:
            continue
        key, _, value = part.partition("=")
        if not value:
            raise ValueError(f"parameter {part!r} is not of the form key=value")
        out[key.strip()] = int(value)
    return out


def _load_inputs(args: argparse.Namespace) -> tuple[GroupSet, GeneratorSeq | None]:
    """The --set file and the --gens file of a command that takes one, each checked against the --group file."""
    spec = GroupSpec.from_obj(_load_json(args.group))
    A = GroupSet.from_obj(_load_json(args.set))
    S = GeneratorSeq.from_obj(_load_json(args.gens)) if "gens" in args else None
    if A.spec != spec or (S is not None and S.spec != spec):
        raise ValueError("set/generator files disagree with the group file")
    return A, S


def _cmd_boundary(args: argparse.Namespace) -> int:
    A, S = _load_inputs(args)
    stats = edge_boundary(A, S, rank=args.rank)
    print(json_text(stats.to_obj()))
    return 0


def _cmd_compress(args: argparse.Namespace) -> int:
    A, S = _load_inputs(args)
    ctx = CompressionContext(S)
    before = edge_boundary(A, S)
    out = compress_along(A, ctx, args.step) if args.step is not None else full_compress(A, ctx)
    after = edge_boundary(out, S)
    print(json_text({"set": out.coords(), "before": before.to_obj(), "after": after.to_obj()}))
    return 0


def _cmd_downset_check(args: argparse.Namespace) -> int:
    A = LatticeSet.from_obj(_load_json(args.set))
    if args.check == "avg-weight":
        holds = avg_weight_bound_holds(A)
        stats = weight_stats(A)
        payload = {
            "check": args.check,
            "holds": holds,
            "size": stats.size,
            "total_weight": stats.total_weight,
            "mean_weight": str(stats.mean_weight),
            "equality": stats.is_equality,
        }
    else:
        holds = lw_plus_holds(A) if args.check == "lw-plus" else loomis_whitney_holds(A)
        payload = {
            "check": args.check,
            "holds": holds,
            "size": len(A),
            "projections": list(projection_sizes(A)),
        }
    print(json_text(payload))
    return 0 if holds else 1


def _cmd_popdiff(args: argparse.Namespace) -> int:
    A, _ = _load_inputs(args)
    gamma = converted("--gamma", Fraction, args.gamma)
    spectrum = diff_spectrum(A)
    P = spectrum.popular(gamma)
    payload: dict = {
        "size": len(A),
        "gamma": str(gamma),
        "popular": P.coords(),
        "popular_size": len(P),
        "spectrum_max_nonzero": max(
            (c for r, c in enumerate(spectrum.counts) if r != 0), default=0
        ),
    }
    if args.dim:
        search = dim_independent if args.dim == "independent" else dim_dissociated
        result = search(P, cap=args.cap)
        payload["dimension"] = {
            "kind": result.kind,
            "value": result.value,
            "witness": result.witness.coords(),
        }
    print(json_text(payload))
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    plan = VerifyPlan.from_obj(_load_json(args.plan))
    report = run_verify(plan)
    print(emit_report(report, args.format), end="")
    return 0 if report.passed else 1


def _cmd_example(args: argparse.Namespace) -> int:
    params = _parse_params(args.params)
    instance = build_example(args.id, **params)

    def jsonable(value):
        if isinstance(value, Fraction):
            return str(value)
        if isinstance(value, (set, frozenset)):
            return sorted(value)
        return value

    payload = {
        "id": instance.example_id,
        "params": instance.params,
        "group": instance.spec.to_obj(),
        "set": instance.subset.coords(),
        "generators": instance.gens.to_obj()["elements"],
        "expected": {k: jsonable(v) for k, v in instance.expected.items()},
        "computed": {k: jsonable(v) for k, v in instance.computed.items()},
    }
    print(json_text(payload))
    return 0


def _cmd_enumerate_downsets(args: argparse.Namespace) -> int:
    box = tuple(int(b) for b in args.box.split(","))
    # the walk carries each downset as a chain of slices, so neither form builds a LatticeSet
    if args.list:
        listed = [[list(p) for p in sorted(_chain_points(chain))] for _, _, chain in downset_walk(box)]
        payload: dict = {"box": list(box), "count": len(listed), "downsets": listed}
    else:
        payload = {"box": list(box), "count": sum(1 for _ in downset_walk(box))}
    print(json_text(payload))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="isoperim", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("boundary", help="edge-boundary statistics for a set")
    p.add_argument("--group", required=True)
    p.add_argument("--set", required=True)
    p.add_argument("--gens", required=True)
    p.add_argument("--rank", type=int, default=None)
    p.set_defaults(fn=_cmd_boundary)

    p = sub.add_parser("compress", help="compress a set along the generators")
    p.add_argument("--group", required=True)
    p.add_argument("--gens", required=True)
    p.add_argument("--set", required=True)
    p.add_argument("--step", type=int, default=None, help="compress along one generator index only")
    p.set_defaults(fn=_cmd_compress)

    p = sub.add_parser("downset-check", help="check a lattice-set inequality")
    p.add_argument("--set", required=True)
    p.add_argument("--check", required=True, choices=["avg-weight", "lw-plus", "loomis-whitney"])
    p.set_defaults(fn=_cmd_downset_check)

    p = sub.add_parser("popdiff", help="difference spectrum and popular differences")
    p.add_argument("--group", required=True)
    p.add_argument("--set", required=True)
    p.add_argument("--gamma", required=True, help="threshold as p/q")
    p.add_argument("--dim", choices=["independent", "dissociated"], default=None)
    p.add_argument("--cap", type=int, default=DEFAULT_DIM_CAP)
    p.set_defaults(fn=_cmd_popdiff)

    p = sub.add_parser("verify", help="run a verification plan")
    p.add_argument("--plan", required=True)
    p.add_argument("--format", choices=["json", "tsv", "text"], default="text")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("example", help="build a worked example and check its closed forms")
    p.add_argument("--id", required=True, choices=sorted(_EXAMPLES))
    p.add_argument("--params", required=True, help="comma-separated key=value integers")
    p.set_defaults(fn=_cmd_example)

    p = sub.add_parser("enumerate-downsets", help="enumerate downsets inside a box")
    p.add_argument("--box", required=True, help="comma-separated upper bounds, e.g. 2,2,2")
    p.add_argument("--list", action="store_true", help="also list the downsets")
    p.set_defaults(fn=_cmd_enumerate_downsets)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on usage errors; keep that contract
        return int(exc.code or 0)
    try:
        return args.fn(args)
    # malformed inputs: a field check or bad JSON raises ValueError; the rest covers input no check reads
    except (ValueError, OSError, KeyError, IndexError, TypeError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

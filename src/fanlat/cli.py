"""Command-line front end.

Reads fan files, prints JSON reports to stdout (optionally mirrored to
a file via --json). Exit codes: 0 success, 1 semantic failure, 2 usage
or parse error, 3 internal invariant breach.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from .corpus import catalog, catalog_entry
from .errors import (FanFileError, FanValidationError, InternalCheckError,
                     NotSimplicialError)
from .fan import Fan, is_complete, localize
from .fanio import (REPORT_VERSION, dump_report, enc_basis, enc_depth, enc_int,
                    enc_vector, fan_to_dict, load_fan, save_fan)
from .filtration import check_generation, depth, filtration, local_decompose
from .intlin import member_by_enumeration
from .lattices import SupportPolicy, class_group, ray_lattice, rel_lattice, rel_lattice_localized
from .refine import conjecture_scan, refinement_injection, stellar_subdivide


def _parse_vector(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.replace(" ", "").split(",") if x != "")
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a comma-separated integer list, got {text!r}")


def _count(text: str) -> int:
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if n < 0:
        raise argparse.ArgumentTypeError(f"expected a nonnegative count, got {n}")
    return n


def _policies(choice: str) -> list[SupportPolicy]:
    if choice == "both":
        return [SupportPolicy.INCLUSIVE, SupportPolicy.EXCLUSIVE]
    return [SupportPolicy(choice)]


def _fan_summary(fan: Fan) -> dict:
    return {
        "name": fan.name,
        "rank": fan.rank,
        "num_rays": len(fan.rays),
        "rays": enc_basis(fan.rays),
        "validation": fan.validation,
    }


def _completeness(fan: Fan):
    try:
        return is_complete(fan)
    except NotSimplicialError:
        return "unknown"


def _filtration_block(fan: Fan, policy: SupportPolicy, basis, max_coeff: Optional[int]) -> dict:
    profile = filtration(fan, policy)
    gen = check_generation(fan, policy)
    depths = []
    for r in basis:
        d = profile.depth_of(r)
        entry = {"relation": enc_vector(r), "depth": enc_depth(d)}
        if max_coeff is not None and d is not None:
            found = member_by_enumeration(r, profile.levels[d].basis_rows, max_coeff)
            agrees_below = True
            if d > 0:
                below = member_by_enumeration(r, profile.levels[d - 1].basis_rows, max_coeff)
                if below:
                    raise InternalCheckError(
                        "brute-force oracle found a membership below the reported depth")
                agrees_below = not below
            entry["oracle_confirmed"] = bool(found and agrees_below)
        depths.append(entry)
    return {
        "policy": policy.value,
        "level_ranks": list(profile.level_ranks),
        "generated_at_penultimate": gen.generated_at_penultimate,
        "generated_at_top": gen.generated_at_top,
        "violates_local_generation": gen.violates_local_generation,
        "depths": depths,
    }


def cmd_validate(args) -> tuple[dict, int]:
    report = {"version": REPORT_VERSION, "command": "validate", "path": args.path}
    try:
        fan = load_fan(args.path, trust=args.trust)
    except FanValidationError as exc:
        report["valid"] = False
        report["findings"] = [str(exc)]
        return report, 1
    report["valid"] = True
    findings = [f"validation: {fan.validation}"]
    findings.extend(fan.warnings)
    report["findings"] = findings
    report["fan"] = _fan_summary(fan)
    return report, 0


def cmd_report(args) -> tuple[dict, int]:
    fan = load_fan(args.path, trust=args.trust)
    rl = ray_lattice(fan)
    rel = rel_lattice(fan)
    basis = rel.basis_rows
    report = {
        "version": REPORT_VERSION,
        "command": "report",
        "fan": _fan_summary(fan),
        "complete": _completeness(fan),
        "ray_lattice": {
            "rank": rl.rank,
            "index": enc_int(rl.index_in_ambient),
            "basis": enc_basis(rl.sublattice.basis_rows),
        },
        "relation_lattice": {
            "rank": rel.rank,
            "basis": enc_basis(basis),
        },
    }
    try:
        cg = class_group(fan)
        report["class_group"] = {"free_rank": cg.free_rank,
                                 "torsion": enc_vector(cg.torsion)}
    except FanValidationError as exc:
        report["class_group"] = {"error": str(exc)}
    policies = _policies(args.policy)
    report["filtration"] = {
        p.value: _filtration_block(fan, p, basis, args.max_coeff) for p in policies
    }
    if len(policies) == 2:
        discrepancies = []
        inc_profile = filtration(fan, SupportPolicy.INCLUSIVE)
        exc_profile = filtration(fan, SupportPolicy.EXCLUSIVE)
        for r in basis:
            d_inc = inc_profile.depth_of(r)
            d_exc = exc_profile.depth_of(r)
            if d_inc != d_exc:
                discrepancies.append({
                    "relation": enc_vector(r),
                    "inclusive_depth": enc_depth(d_inc),
                    "exclusive_depth": enc_depth(d_exc),
                    "note": ("support policies disagree: inclusive counts every star ray, "
                             "exclusive drops the cone's own rays"),
                })
        report["discrepancies"] = discrepancies
    return report, 0


def cmd_relations(args) -> tuple[dict, int]:
    fan = load_fan(args.path, trust=args.trust)
    rel = rel_lattice(fan)
    return {
        "version": REPORT_VERSION,
        "command": "relations",
        "fan": _fan_summary(fan),
        "relation_lattice": {"rank": rel.rank, "basis": enc_basis(rel.basis_rows)},
    }, 0


def cmd_filtration(args) -> tuple[dict, int]:
    fan = load_fan(args.path, trust=args.trust)
    out = {"version": REPORT_VERSION, "command": "filtration", "fan": _fan_summary(fan),
           "filtration": {}}
    for policy in _policies(args.policy):
        profile = filtration(fan, policy)
        levels = []
        for k, level in enumerate(profile.levels):
            levels.append({
                "codim": k,
                "rank": level.rank,
                "basis": enc_basis(level.basis_rows),
                "contributing": [
                    {"cone": list(cone.ray_indices), "rank": rank}
                    for cone, rank in profile.contributing[k]
                ],
            })
        out["filtration"][policy.value] = {
            "level_ranks": list(profile.level_ranks),
            "levels": levels,
        }
    return out, 0


def cmd_depth(args) -> tuple[dict, int]:
    fan = load_fan(args.path, trust=args.trust)
    depth(fan, args.relation, SupportPolicy.INCLUSIVE)  # raises on zero / non-relations
    out = {"version": REPORT_VERSION, "command": "depth", "fan": _fan_summary(fan),
           "relation": enc_vector(args.relation), "results": {}}
    for policy in _policies(args.policy):
        block = _filtration_block(fan, policy, [args.relation], args.max_coeff)
        out["results"][policy.value] = block["depths"][0]
    return out, 0


def cmd_decompose(args) -> tuple[dict, int]:
    fan = load_fan(args.path, trust=args.trust)
    relations = [args.relation] if args.relation else list(rel_lattice(fan).basis_rows)
    ray_mat = fan.ray_matrix()
    results = []
    for r in relations:
        dec = local_decompose(fan, r)
        pieces = [{"ray": i, "vector": enc_vector(vec)} for i, vec in sorted(dec.pieces.items())]
        total = [0] * len(fan.rays)
        for vec in dec.pieces.values():
            total = [a + b for a, b in zip(total, vec)]
        results.append({
            "relation": enc_vector(r),
            "pieces": pieces,
            "checks": {
                "sum_matches": tuple(total) == tuple(dec.relation),
                "pieces_are_relations": all(
                    not any(ray_mat.mul_vector(vec)) for vec in dec.pieces.values()),
            },
        })
    return {"version": REPORT_VERSION, "command": "decompose",
            "fan": _fan_summary(fan), "results": results}, 0


def cmd_localize(args) -> tuple[dict, int]:
    fan = load_fan(args.path, trust=args.trust)
    tau = fan.cone(args.cone)
    q = localize(fan, tau)
    local = rel_lattice_localized(fan, tau)
    return {
        "version": REPORT_VERSION,
        "command": "localize",
        "fan": _fan_summary(fan),
        "cone": list(tau.ray_indices),
        "quotient_rank": q.quotient_rank,
        "projection": enc_basis(q.projection.entries),
        "quotient_rays": [
            {"origin": origin, "image": enc_vector(img)}
            for origin, img in zip(q.ray_origin, q.rays)
        ],
        "warnings": list(q.warnings),
        "localized_relations": {
            "rank": local.rank,
            "basis": enc_basis(local.basis_rows),
            "ray_labels": list(local.ray_labels),
        },
    }, 0


def cmd_subdivide(args) -> tuple[dict, int]:
    fan = load_fan(args.path, trust=args.trust)
    sigma = fan.cone(args.cone)
    basis = rel_lattice(fan).basis_rows
    policies = _policies(args.policy)
    # Depths before the subdivision first, so the refined fan starts from
    # the star kernels they built.
    before = {p: [filtration(fan, p).depth_of(r) for r in basis] for p in policies}
    refined = stellar_subdivide(fan, sigma, args.ray)
    records = []
    for policy in policies:
        after = filtration(refined, policy)
        for r, d in zip(basis, before[policy]):
            padded = refinement_injection(fan, refined, r)
            records.append({
                "relation": enc_vector(r),
                "policy": policy.value,
                "depth_before": enc_depth(d),
                "depth_after": enc_depth(after.depth_of(padded)),
            })
    if args.out:
        save_fan(refined, args.out)
    return {
        "version": REPORT_VERSION,
        "command": "subdivide",
        "fan": _fan_summary(fan),
        "cone": list(sigma.ray_indices),
        "new_ray": enc_vector(refined.rays[-1]),
        "after_fan": fan_to_dict(refined),
        "records": records,
    }, 0


def cmd_conjecture(args) -> tuple[dict, int]:
    fan = load_fan(args.path, trust=args.trust)
    policy = SupportPolicy(args.policy)
    traces = conjecture_scan(fan, policy, args.trials, args.seed)
    out_traces = []
    violations = 0
    for tr in traces:
        violations += tr.violations
        out_traces.append({
            "trial": tr.trial_index,
            "cone": list(tr.subdivided_cone.ray_indices),
            "new_ray": enc_vector(tr.new_ray),
            "records": [
                {
                    "relation": enc_vector(rec.relation),
                    "depth_before": enc_depth(rec.depth_before),
                    "depth_after": enc_depth(rec.depth_after),
                    "comparable": rec.comparable,
                    "violation": rec.violation,
                }
                for rec in tr.records
            ],
        })
    return {
        "version": REPORT_VERSION,
        "command": "conjecture",
        "fan": _fan_summary(fan),
        "policy": policy.value,
        "trials": args.trials,
        "seed": args.seed,
        "completed_trials": len(traces),
        "violations": violations,
        "traces": out_traces,
    }, 0


def cmd_classgroup(args) -> tuple[dict, int]:
    fan = load_fan(args.path, trust=args.trust)
    cg = class_group(fan)
    return {
        "version": REPORT_VERSION,
        "command": "classgroup",
        "fan": _fan_summary(fan),
        "class_group": {"free_rank": cg.free_rank, "torsion": enc_vector(cg.torsion)},
    }, 0


def cmd_catalog(args, parser) -> tuple[dict, int]:
    if args.action is None:
        return {
            "version": REPORT_VERSION,
            "command": "catalog",
            "entries": [e.name for e in catalog()],
        }, 0
    if args.action == "export":
        if not args.name:
            parser.error("catalog export requires an entry name")
        try:
            entry = catalog_entry(args.name)
        except KeyError as exc:
            raise FanFileError(str(exc)) from exc
        return fan_to_dict(entry.fan), 0
    parser.error(f"unknown catalog action {args.action!r}")
    raise AssertionError  # parser.error raises SystemExit


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fanlat",
        description="Exact lattice invariants of rational fans.")
    sub = parser.add_subparsers(dest="command", required=True)

    def fan_command(name, help_text, needs_policy=False, policy_default="both"):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("path", help="fan file (JSON)")
        p.add_argument("--trust", action="store_true",
                       help="take the fan on trust: skip the exact check that "
                            "the cones form a fan")
        p.add_argument("--json", dest="json_path", metavar="PATH",
                       help="also write the report to PATH")
        if needs_policy:
            p.add_argument("--policy", choices=["inclusive", "exclusive", "both"],
                           default=policy_default)
        return p

    fan_command("validate", "check a fan file against the fan axioms")
    p = fan_command("report", "full invariant report", needs_policy=True)
    p.add_argument("--max-coeff", type=int, default=None, metavar="B",
                   help="confirm depths with the brute-force oracle at this bound")
    fan_command("relations", "relation lattice basis")
    fan_command("filtration", "filtration levels and contributing cones", needs_policy=True)
    p = fan_command("depth", "filtration depth of one relation", needs_policy=True)
    p.add_argument("--relation", type=_parse_vector, required=True)
    p.add_argument("--max-coeff", type=int, default=None, metavar="B")
    p = fan_command("decompose", "split a relation into star-supported pieces")
    p.add_argument("--relation", type=_parse_vector, default=None)
    p = fan_command("localize", "quotient fan and localized relations at a cone")
    p.add_argument("--cone", type=_parse_vector, required=True)
    p = fan_command("subdivide", "stellar subdivision with depth records",
                    needs_policy=True)
    p.add_argument("--cone", type=_parse_vector, required=True)
    p.add_argument("--ray", type=_parse_vector, required=True)
    p.add_argument("--out", metavar="PATH", help="write the refined fan file here")
    p = fan_command("conjecture", "seeded monotonicity scan", needs_policy=True,
                    policy_default="inclusive")
    p.add_argument("--trials", type=_count, default=100)
    p.add_argument("--seed", type=int, default=0)
    fan_command("classgroup", "divisor class group from the dual ray map")
    p = sub.add_parser("catalog", help="list or export the built-in fans")
    p.add_argument("action", nargs="?", choices=["export"])
    p.add_argument("name", nargs="?")
    p.add_argument("--json", dest="json_path", metavar="PATH")
    return parser


_HANDLERS = {
    "validate": cmd_validate,
    "report": cmd_report,
    "relations": cmd_relations,
    "filtration": cmd_filtration,
    "depth": cmd_depth,
    "decompose": cmd_decompose,
    "localize": cmd_localize,
    "subdivide": cmd_subdivide,
    "conjecture": cmd_conjecture,
    "classgroup": cmd_classgroup,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    if args.command == "conjecture" and args.policy == "both":
        print("conjecture scans compare depths within one policy; pick one", file=sys.stderr)
        return 2
    try:
        if args.command == "catalog":
            try:
                report, code = cmd_catalog(args, parser)
            except SystemExit as exc:
                return int(exc.code) if exc.code else 0
        else:
            report, code = _HANDLERS[args.command](args)
    except FanFileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (FanValidationError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except InternalCheckError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    text = dump_report(report)
    sys.stdout.write(text)
    json_path = getattr(args, "json_path", None)
    if json_path:
        with open(json_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    return code


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()

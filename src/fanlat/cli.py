"""Command-line front end.

Reads fan files, prints JSON reports to stdout (optionally mirrored to
a file via --json). Exit codes: 0 success, 1 semantic failure, 2 usage
or parse error, 3 internal invariant breach or any other exception,
which is a bug: it prints one line and no traceback.

main is the one pipeline of the analysis commands: it loads the fan,
writes the version, command and fan header, and merges in the body that
the handler cmd_x(fan, args) returns. validate, which reports a fan that
fails to load, and catalog build their whole reports.
"""

from __future__ import annotations

import argparse
import functools
import sys
from typing import Optional, Sequence

from .corpus import catalog, catalog_entry
from .errors import (EnumerationLimitError, FanFileError, FanValidationError,
                     InternalCheckError, NotSimplicialError)
from .fan import Fan, is_complete, localize
from .fanio import (REPORT_VERSION, SharedList, dump_report, enc_basis, enc_depth,
                    enc_int, enc_vector, fan_to_dict, load_fan)
from .filtration import FiltrationProfile, check_generation, depth, filtration, local_decompose
from .intlin import member_by_enumeration
from .lattices import SupportPolicy, class_group, quotient_rel_lattice, ray_lattice, rel_lattice
from .refine import compare_depths, conjecture_scan, stellar_subdivide


def _parse_vector(text: str) -> tuple[int, ...]:
    """A comma-separated integer list; the empty string is the empty vector, an empty item an error."""
    items = text.replace(" ", "")
    try:
        return tuple(map(int, items.split(","))) if items else ()
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a comma-separated integer list, got {text!r}")


_VECTOR_OPTIONS = ("--relation", "--cone", "--ray")


def _join_vector_values(argv: Sequence[str]) -> list[str]:
    """argv with each vector option joined by "=" to a following integer list like -1,0.

    argparse would read such a value as an option; joined, it is read as
    meant. Anything else, and anything after a "--", stays as it is.
    """
    args = []
    for token in argv:
        if (args and args[-1] in _VECTOR_OPTIONS and "--" not in args
                and token.startswith("-") and _is_vector(token)):
            args[-1] += "=" + token
        else:
            args.append(token)
    return args


def _is_vector(text: str) -> bool:
    try:
        _parse_vector(text)
    except argparse.ArgumentTypeError:
        return False
    return True


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


def _depth_entry(profile: FiltrationProfile, r, d: Optional[int],
                 max_coeff: Optional[int]) -> dict:
    """The report entry of relation r at depth d, checked by the brute-force oracle if asked.

    The oracle reads levels d and d - 1, so it builds no level above d.
    """
    entry = {"relation": enc_vector(r), "depth": enc_depth(d)}
    if max_coeff is not None and d is not None:
        found = member_by_enumeration(r, profile.level(d).basis_rows, max_coeff)
        if d and member_by_enumeration(r, profile.level(d - 1).basis_rows, max_coeff):
            raise InternalCheckError(
                "brute-force oracle found a membership below the reported depth")
        entry["oracle_confirmed"] = bool(found)
    return entry


def _filtration_block(fan: Fan, policy: SupportPolicy, basis, max_coeff: Optional[int]) -> dict:
    profile = filtration(fan, policy)
    gen = check_generation(fan, policy)
    return {
        "policy": policy.value,
        "level_ranks": list(profile.level_ranks),
        "generated_at_penultimate": gen.generated_at_penultimate,
        "generated_at_top": gen.generated_at_top,
        "violates_local_generation": gen.violates_local_generation,
        "depths": [_depth_entry(profile, r, profile.depth_of(r), max_coeff) for r in basis],
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


def cmd_report(fan: Fan, args) -> dict:
    rl = ray_lattice(fan)
    rel = rel_lattice(fan)
    basis = rel.basis_rows
    report = {
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
        blocks = report["filtration"]
        for inc, exc in zip(blocks["inclusive"]["depths"], blocks["exclusive"]["depths"]):
            if inc["depth"] != exc["depth"]:
                discrepancies.append({
                    "relation": inc["relation"],
                    "inclusive_depth": inc["depth"],
                    "exclusive_depth": exc["depth"],
                    "note": ("support policies disagree: inclusive counts every star ray, "
                             "exclusive drops the cone's own rays"),
                })
        report["discrepancies"] = discrepancies
    return report


def cmd_relations(fan: Fan, args) -> dict:
    rel = rel_lattice(fan)
    return {"relation_lattice": {"rank": rel.rank, "basis": enc_basis(rel.basis_rows)}}


def cmd_filtration(fan: Fan, args) -> dict:
    out = {"filtration": {}}
    for policy in _policies(args.policy):
        profile = filtration(fan, policy)
        contributing = profile.contributing
        levels = []
        for k, level in enumerate(profile.levels):
            levels.append({
                "codim": k,
                "rank": level.rank,
                "basis": enc_basis(level.basis_rows),
                "contributing": [
                    {"cone": list(cone.ray_indices), "rank": rank}
                    for cone, rank in contributing[k]
                ],
            })
        out["filtration"][policy.value] = {
            "level_ranks": list(profile.level_ranks),
            "levels": levels,
        }
    return out


def cmd_depth(fan: Fan, args) -> dict:
    results = {}
    for policy in _policies(args.policy):
        # depth() raises on the zero vector and on non-relations.
        d = depth(fan, args.relation, policy)
        results[policy.value] = _depth_entry(
            filtration(fan, policy), args.relation, d, args.max_coeff)
    return {"relation": enc_vector(args.relation), "results": results}


def cmd_decompose(fan: Fan, args) -> dict:
    """One result per relation, with the pieces local_decompose returned.

    The checks are the outcome of the library check: local_decompose
    raises InternalCheckError (exit 3, no report) unless its pieces are
    relations that sum to the relation, so a written report has both true.
    """
    relations = ([args.relation] if args.relation is not None
                 else list(rel_lattice(fan).basis_rows))
    results = []
    for r in relations:
        dec = local_decompose(fan, r)
        pieces = [{"ray": i, "vector": enc_vector(vec)} for i, vec in sorted(dec.pieces.items())]
        results.append({
            "relation": enc_vector(r),
            "pieces": pieces,
            "checks": {"sum_matches": True, "pieces_are_relations": True},
        })
    return {"results": results}


def cmd_localize(fan: Fan, args) -> dict:
    tau = fan.cone(args.cone)
    q = localize(fan, tau)
    local = quotient_rel_lattice(q)
    return {
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
    }


def cmd_subdivide(fan: Fan, args) -> dict:
    """Per policy, the scan's depth records of one subdivision, without comparable and violation."""
    sigma = fan.cone(args.cone)
    basis = rel_lattice(fan).basis_rows
    policies = _policies(args.policy)
    before = {p: [filtration(fan, p).depth_of(r) for r in basis] for p in policies}
    refined = stellar_subdivide(fan, sigma, args.ray)
    return {
        "cone": list(sigma.ray_indices),
        "new_ray": enc_vector(refined.rays[-1]),
        "after_fan": fan_to_dict(refined),
        "records": [
            {
                "relation": enc_vector(rec.relation),
                "policy": rec.policy.value,
                "depth_before": enc_depth(rec.depth_before),
                "depth_after": enc_depth(rec.depth_after),
            }
            for p in policies for rec in compare_depths(fan, refined, p, before[p])[1]
        ],
    }


def cmd_conjecture(fan: Fan, args) -> dict:
    """The scan report: one trace per completed trial.

    Every trial of one draw shares that draw's refined fan, cone, new
    ray and records (conjecture_scan). So the cone, the new ray and the
    records of each distinct draw are encoded once, as SharedLists that
    dump_report writes once, and a repeated trial adds only its trial
    index and its violation count.
    """
    policy = SupportPolicy(args.policy)
    traces = conjecture_scan(fan, policy, args.trials, args.seed)
    out_traces = []
    violations = 0
    encoded = {}  # id of a draw's refined fan -> (cone, new ray, records, violations)
    for tr in traces:
        draw = encoded.get(id(tr.after))
        if draw is None:
            draw = encoded[id(tr.after)] = (
                SharedList(tr.subdivided_cone.ray_indices),
                SharedList(enc_vector(tr.new_ray)),
                SharedList(
                    {
                        "relation": enc_vector(rec.relation),
                        "depth_before": enc_depth(rec.depth_before),
                        "depth_after": enc_depth(rec.depth_after),
                        "comparable": rec.comparable,
                        "violation": rec.violation,
                    }
                    for rec in tr.records
                ),
                tr.violations,
            )
        cone, new_ray, records, count = draw
        violations += count
        out_traces.append({"trial": tr.trial_index, "cone": cone, "new_ray": new_ray,
                           "records": records})
    return {
        "policy": policy.value,
        "trials": args.trials,
        "seed": args.seed,
        "completed_trials": len(traces),
        "violations": violations,
        "traces": out_traces,
    }


def cmd_classgroup(fan: Fan, args) -> dict:
    cg = class_group(fan)
    return {"class_group": {"free_rank": cg.free_rank, "torsion": enc_vector(cg.torsion)}}


def cmd_catalog(args, parser) -> dict:
    """The entry list, or with the export action (argparse allows no other) one entry's fan."""
    if args.action is None:
        return {
            "version": REPORT_VERSION,
            "command": "catalog",
            "entries": [e.name for e in catalog()],
        }
    if not args.name:
        parser.error("catalog export requires an entry name")
    try:
        entry = catalog_entry(args.name)
    except KeyError as exc:
        raise FanFileError(str(exc)) from exc
    return fan_to_dict(entry.fan)


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
    p.add_argument("--max-coeff", type=_count, default=None, metavar="B",
                   help="confirm depths with the brute-force oracle at this bound")
    fan_command("relations", "relation lattice basis")
    fan_command("filtration", "filtration levels and contributing cones", needs_policy=True)
    p = fan_command("depth", "filtration depth of one relation", needs_policy=True)
    p.add_argument("--relation", type=_parse_vector, required=True)
    p.add_argument("--max-coeff", type=_count, default=None, metavar="B")
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
    p.add_argument("--seed", type=_count, default=0)
    fan_command("classgroup", "divisor class group from the dual ray map")
    p = sub.add_parser("catalog", help="list or export the built-in fans")
    p.add_argument("action", nargs="?", choices=["export"])
    p.add_argument("name", nargs="?")
    p.add_argument("--json", dest="json_path", metavar="PATH")
    return parser


_HANDLERS = {
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


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of build_parser, built on first use and shared by every main call.

    Parsing leaves the parser unchanged, so one instance serves any
    number of invocations in a process.
    """
    return build_parser()


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(_join_vector_values(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    if args.command == "conjecture" and args.policy == "both":
        print("conjecture scans compare depths within one policy; pick one", file=sys.stderr)
        return 2
    code = 0
    try:
        if args.command == "catalog":
            try:
                report = cmd_catalog(args, parser)
            except SystemExit as exc:
                return int(exc.code) if exc.code else 0
        elif args.command == "validate":
            report, code = cmd_validate(args)
        else:
            fan = load_fan(args.path, trust=args.trust)
            report = {"version": REPORT_VERSION, "command": args.command,
                      "fan": _fan_summary(fan), **_HANDLERS[args.command](fan, args)}
        text = dump_report(report)
        # The mirror first, so that a path that cannot be written leaves no
        # report on stdout; then the refined fan of subdivide --out, so that
        # a failed mirror leaves no fan file either.
        files = [(args.json_path, text)]
        if getattr(args, "out", None):
            files.append((args.out, dump_report(report["after_fan"])))
    except FanFileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (FanValidationError, EnumerationLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except InternalCheckError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # a bug: one line, no traceback, no report
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 3
    for path, content in files:
        if path:
            try:
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(content)
            except OSError as exc:
                print(f"error: cannot write {path}: {exc}", file=sys.stderr)
                return 2
    sys.stdout.write(text)
    return code


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()

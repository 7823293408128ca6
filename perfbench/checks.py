"""Output checkers for the benchmark ops.

Each checker parses one op's stdout and compares it with answers the
oracle derives from the fan file alone, never with fanlat's own
answers. The `validation` field is not checked: it reports how fanlat
validated its input, which may legitimately change. A checker returns
(problems, findings): problems make the op fail; findings (scan
violations) are recorded verbatim and are not failures.
"""

from __future__ import annotations

import json

from oracle import FanFacts, mat_vec, primitive_of, refine, solve_unique


def _dec(v) -> list:
    return [int(x) for x in v]


def _depth(d):
    return "unreachable" if d is None else d


def _fan_summary(out, facts: FanFacts, name, problems) -> None:
    fan = out.get("fan", {})
    if fan.get("name") != name:
        problems.append(f"fan.name {fan.get('name')!r} != {name!r}")
    if fan.get("rank") != facts.rank or fan.get("num_rays") != facts.m:
        problems.append("fan rank or ray count differs from the fan file")
    if [tuple(_dec(r)) for r in fan.get("rays", [])] != facts.rays:
        problems.append("fan.rays differ from the fan file")


def check_report(text: str, op) -> tuple:
    problems = []
    out = json.loads(text)
    facts = FanFacts(op.fan)
    if out.get("command") != "report" or out.get("version") != "fanlat-report/1":
        problems.append("wrong command or version tag")
    _fan_summary(out, facts, op.name, problems)
    if out.get("complete") is not op.complete:
        problems.append(f"complete={out.get('complete')!r}, fan is complete={op.complete}")
    rank, index, basis = facts.ray_lattice()
    rl = out.get("ray_lattice", {})
    want_index = "infinite" if index is None else str(index)
    if (rl.get("rank"), rl.get("index")) != (rank, want_index) or \
            [tuple(_dec(r)) for r in rl.get("basis", [])] != list(basis):
        problems.append("ray lattice differs")
    relation = out.get("relation_lattice", {})
    basis_rel = [tuple(_dec(r)) for r in relation.get("basis", [])]
    if tuple(basis_rel) != facts.relations.canonical():
        problems.append("relation basis is not the canonical basis of the relation lattice")
    if relation.get("rank") != facts.relations.rank:
        problems.append("relation lattice rank differs")
    cg = facts.class_group()
    got_cg = out.get("class_group", {})
    if cg is None:
        if "error" not in got_cg:
            problems.append("class group reported for rays that do not span")
    elif (got_cg.get("free_rank"), tuple(_dec(got_cg.get("torsion", [])))) != cg:
        problems.append(f"class group {got_cg} != {cg}")
    depths = {}
    full = facts.relations.canonical()
    for policy in ("inclusive", "exclusive"):
        block = out.get("filtration", {}).get(policy, {})
        levels = facts.levels(policy)
        n = facts.rank
        if block.get("level_ranks") != [lv.rank for lv in levels]:
            problems.append(f"{policy} level ranks {block.get('level_ranks')} differ")
        pen = levels[n - 1] if n >= 1 else levels[0]
        pen_ok = pen.canonical() == full
        top_ok = levels[n].canonical() == full
        if (block.get("generated_at_penultimate"), block.get("generated_at_top"),
                block.get("violates_local_generation")) != (pen_ok, top_ok, op.complete and not pen_ok):
            problems.append(f"{policy} generation flags differ")
        got = [(tuple(_dec(e["relation"])), e["depth"]) for e in block.get("depths", [])]
        want = [(r, _depth(facts.depth(r, policy))) for r in basis_rel]
        if got != want:
            problems.append(f"{policy} depths differ")
        depths[policy] = dict(want)
    want_disc = [(r, depths["inclusive"][r], depths["exclusive"][r]) for r in basis_rel
                 if depths["inclusive"][r] != depths["exclusive"][r]]
    got_disc = [(tuple(_dec(d["relation"])), d["inclusive_depth"], d["exclusive_depth"])
                for d in out.get("discrepancies", [])]
    if got_disc != want_disc:
        problems.append("discrepancies differ")
    return problems, []


def check_decompose(text: str, op) -> tuple:
    problems = []
    out = json.loads(text)
    facts = FanFacts(op.fan)
    if out.get("command") != "decompose":
        problems.append("wrong command")
    _fan_summary(out, facts, op.name, problems)
    results = out.get("results", [])
    if [tuple(_dec(res["relation"])) for res in results] != list(facts.relations.canonical()):
        problems.append("results are not the canonical relation basis, row by row")
    stars = [facts.star_rays((i,)) for i in range(facts.m)]
    for res in results:
        r = _dec(res["relation"])
        total = [0] * facts.m
        for piece in res["pieces"]:
            i, vec = piece["ray"], _dec(piece["vector"])
            if not 0 <= i < facts.m or len(vec) != facts.m:
                problems.append(f"piece at ray {i} is malformed")
                continue
            if any(mat_vec(facts.rays, vec)):
                problems.append(f"piece at ray {i} of {r} is not a relation")
            if any(x and j not in stars[i] for j, x in enumerate(vec)):
                problems.append(f"piece at ray {i} of {r} leaves the star of ray {i}")
            total = [a + b for a, b in zip(total, vec)]
        if total != r:
            problems.append(f"pieces of {r} do not sum to it")
        if res.get("checks") != {"sum_matches": True, "pieces_are_relations": True}:
            problems.append(f"self-checks of {r} are not both true")
    return problems, []


def check_conjecture(text: str, op, refined_cache: dict) -> tuple:
    problems, findings = [], []
    out = json.loads(text)
    facts = FanFacts(op.fan)
    trials = int(op.argv_tail[op.argv_tail.index("--trials") + 1])
    seed = int(op.argv_tail[op.argv_tail.index("--seed") + 1])
    if (out.get("command"), out.get("policy"), out.get("trials"), out.get("seed")) != \
            ("conjecture", "inclusive", trials, seed):
        problems.append("command, policy, trials or seed differ from the invocation")
    _fan_summary(out, facts, op.name.split("#")[0], problems)
    traces = out.get("traces", [])
    if out.get("completed_trials") != len(traces) or len(traces) > trials:
        problems.append("completed_trials disagrees with the traces")
    indices = [t["trial"] for t in traces]
    if indices != sorted(set(indices)) or any(not 0 <= t < trials for t in indices):
        problems.append("trial indices are not increasing within range")
    basis = facts.relations.canonical()
    before = {r: facts.depth(r, "inclusive") for r in basis}
    cones = set(facts.cones)
    violations = 0
    for tr in traces:
        cone, w = tuple(tr["cone"]), tuple(_dec(tr["new_ray"]))
        if cone not in cones or len(cone) < 2:
            problems.append(f"trial {tr['trial']}: {cone} is not a face of dim >= 2")
            continue
        coeffs = solve_unique([facts.rays[i] for i in cone], w)
        if w in facts.rays or primitive_of(w) != w or coeffs is None or min(coeffs) <= 0:
            problems.append(f"trial {tr['trial']}: {w} is not a new primitive interior ray")
            continue
        key = (op.file, cone, w)
        if key not in refined_cache:
            refined_cache[key] = FanFacts(refine(op.fan, cone, w))
        after = refined_cache[key]
        recs = tr["records"]
        if [tuple(_dec(rec["relation"])) for rec in recs] != list(basis):
            problems.append(f"trial {tr['trial']}: records do not cover the relation basis")
            continue
        for r, rec in zip(basis, recs):
            d0 = before[r]
            d1 = after.depth(list(r) + [0], "inclusive")
            comparable = d0 is not None
            violation = comparable and (d1 is None or d1 > d0)
            got = (rec["depth_before"], rec["depth_after"], rec["comparable"], rec["violation"])
            if got != (_depth(d0), _depth(d1), comparable, violation):
                problems.append(f"trial {tr['trial']}: record for {r} is {got}")
            if violation:
                violations += 1
                findings.append({"op": op.name, "trial": tr["trial"], "cone": tr["cone"],
                                 "new_ray": tr["new_ray"], "record": rec})
    if out.get("violations") != violations:
        problems.append(f"violations={out.get('violations')} but records show {violations}")
    return problems, findings


def check(command: str, text: str, op, cache: dict) -> tuple:
    try:
        if command == "report":
            return check_report(text, op)
        if command == "decompose":
            return check_decompose(text, op)
        return check_conjecture(text, op, cache)
    except (ValueError, KeyError, TypeError, IndexError, AttributeError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"], []

"""fanlat benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload report|scan|decompose --seed N \
        --seconds S --trace 0|1

Builds the workload's fan files from the seed, then drives
`fanlat.cli.main(argv)` in this process, one op after another (a closed
loop with one caller), for about S seconds, and checks every output
against an independent oracle. With --trace 0 it prints the end-to-end
metrics; with --trace 1 it runs one untraced and one traced pass and
prints the per-layer metrics. The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}, where attempted and failed
count ops (an op fails if any of its executions fails), so they do not
depend on how many passes fit in S seconds. Details of the run (per-op
times, findings, the corpus record, spans) go under .perfbench/ at the
repository root.

A failed op (nonzero exit or failed check) is charged the time of the
slowest op of the run, so turning a success into a fast failure never
makes a time metric read better (see charged()).
"""

import sys

sys.dont_write_bytecode = True

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
# Never read cached bytecode either: every fanlat import compiles from
# source, whether or not a __pycache__ exists in the checkout.
sys.pycache_prefix = os.path.join(ROOT, ".perfbench", "no-bytecode")

import checks  # noqa: E402
import corpus  # noqa: E402
from reference import NOMINAL_S, Reference  # noqa: E402

WORKLOADS = ("report", "scan", "decompose")
SETUP_REPEATS = 9
E2E_UNITS = {"wall_s": "s", "op_p50_s": "s", "ok_frac": "frac", "setup_s": "s"}


class OpRun:
    """One execution of one op; stdout is kept only when asked for."""

    __slots__ = ("code", "seconds", "stdout", "stderr", "crash", "digest")

    def __init__(self, code, seconds, stdout, stderr, crash, keep):
        self.code, self.seconds, self.stderr, self.crash = code, seconds, stderr, crash
        self.stdout = stdout if keep else None
        self.digest = hashlib.sha256(repr((code, stdout, crash)).encode()).hexdigest()


def import_fanlat():
    """Import fanlat afresh from src/ and return its cli module.

    Every fanlat module already imported is dropped from sys.modules
    first, so each call imports the whole package from source and no
    module keeps objects of an earlier import.
    """
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "fanlat", "cli.py")):
        raise SystemExit(f"error: no fanlat sources under {src}")
    if src not in sys.path:
        sys.path.insert(0, src)
    for name in [m for m in sys.modules if m == "fanlat" or m.startswith("fanlat.")]:
        del sys.modules[name]
    return importlib.import_module("fanlat.cli")


def setup(workload: str, seed: int, workdir: str, reference):
    """Import fanlat, build the corpus and write its files, SETUP_REPEATS times.

    Returns (cli module, ops, raw seconds, scaled seconds): the median
    time of one repeat, and the median of each repeat's time divided by
    the slowdown of the reference chunk timed right after it. Set-up
    lasts about a second, so the slowdown of that moment fits it better
    than the run's slowdown does. Every repeat must produce
    byte-identical files.
    """
    times, scaled, digests = [], [], set()
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        cli = import_fanlat()
        ops = corpus.build(workload, seed)
        digests.add(corpus.write(ops, workdir))
        times.append(time.perf_counter() - t0)
        reference.tick(force=True)
        scaled.append(times[-1] * NOMINAL_S / reference.seconds[-1])
    if len(digests) != 1:
        raise SystemExit("error: the corpus generator is not deterministic")
    return cli, ops, statistics.median(times), statistics.median(scaled)


def run_op(cli, argv, keep=True) -> OpRun:
    out, err = io.StringIO(), io.StringIO()
    crash = None
    code = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except Exception:  # a traceback out of the CLI is a failure, not a crash of the bench
        crash = traceback.format_exc()
    return OpRun(code, time.perf_counter() - start, out.getvalue(), err.getvalue(), crash, keep)


def pass_order(n: int, k: int) -> list:
    """Op order of pass k: forward, reverse, then seeded shuffles.

    Varying the order spreads each op's repeats over different moments
    of the run, so a slow spell of the machine hits different ops in
    different passes and the per-op median discards it.
    """
    order = list(range(n))
    if k == 1:
        order.reverse()
    elif k > 1:
        random.Random(k).shuffle(order)
    return order


def run_pass(cli, ops, workdir, reference, k=0, tracer=None):
    """Run every op once, in pass k's order, with reference ticks between ops.

    Results are indexed by op. Only pass 0 keeps the ops' stdout; later
    passes keep a digest to compare with it.
    """
    runs = [None] * len(ops)
    for i in pass_order(len(ops), k):
        if tracer is not None:
            tracer.op = i
        runs[i] = run_op(cli, ops[i].argv(workdir), keep=k == 0)
        reference.tick()
    return runs


def judge(ops, passes):
    """Check outputs: pass 0 against the oracle, later passes byte for byte.

    Returns (ok[pass][op], problems per op, findings, incorrect ops).
    """
    cache = {}
    ok = [[False] * len(ops) for _ in passes]
    problems = [[] for _ in ops]
    findings = []
    incorrect = set()
    for i, op in enumerate(ops):
        first = passes[0][i]
        if first.crash is not None:
            problems[i].append("uncaught exception:\n" + first.crash)
            incorrect.add(i)
        elif first.code != 0:
            problems[i].append(f"exit {first.code}: {first.stderr.strip()[:300]}")
        else:
            bad, found = checks.check(op.argv_tail[0], first.stdout, op, cache)
            problems[i].extend(bad)
            findings.extend(found)
            if bad:
                incorrect.add(i)
        ok[0][i] = not problems[i]
        for k in range(1, len(passes)):
            again = passes[k][i]
            same = again.digest == first.digest
            if not same:
                problems[i].append(f"pass {k} output differs from pass 0")
                incorrect.add(i)
            ok[k][i] = ok[0][i] and same
    return ok, problems, findings, incorrect


def failed_ops(ok) -> int:
    """Ops with a failed execution in any pass.

    Counted per op, not per execution, so the count does not depend on
    how many passes fit in the run's time: a seed gives the same count
    on every run of the same code.
    """
    return sum(1 for i in range(len(ok[0])) if not all(row[i] for row in ok))


def charged(seconds, ok):
    """Per-op seconds; a failed op is charged the slowest op of the run.

    A failure is priced at least like the success it replaces, unless
    that success would have been the slowest op of the run; then it is
    priced like the next slowest op. So turning a success into a fast
    failure cannot lower wall_s or op_p50_s, except by the gap between
    the two slowest ops when the slowest is the one that fails.
    """
    slowest = max(seconds)
    return [t if good else slowest for t, good in zip(seconds, ok)]


def execution_seconds(ops, passes, ok, per_op) -> list:
    """Seconds of every execution of every op; a failed op's are charged as in per_op."""
    failed = [not all(row[i] for row in ok) for i in range(len(ops))]
    return [per_op[i] if failed[i] else p[i].seconds for p in passes for i in range(len(ops))]


def validation_levels(ops, runs) -> dict:
    levels = {}
    for op, r in zip(ops, runs):
        if r.code == 0 and r.crash is None:
            try:
                level = json.loads(r.stdout)["fan"]["validation"]
            except (ValueError, KeyError, TypeError):
                continue
            key = f"{'grown' if op.name.split('#')[0] not in corpus.CATALOG else 'catalog'}:{level}"
            levels[key] = levels.get(key, 0) + 1
    return levels


def environment() -> dict:
    return {"python": platform.python_version(), "implementation": platform.python_implementation(),
            "host": platform.node(), "machine": platform.machine(), "nproc": os.cpu_count()}


def op_seconds(ops, passes, ok):
    """Per-op median seconds over the passes, failed ops charged (see charged())."""
    return charged([statistics.median(p[i].seconds for p in passes) for i in range(len(ops))],
                   [all(row[i] for row in ok) for i in range(len(ops))])


def e2e_metrics(ops, passes, ok, setup, slowdown):
    """End-to-end metrics, and the raw times they were scaled from.

    wall_s is one pass over all ops priced at per-op medians; op_p50_s
    is the median over every execution of every op. Op times are
    divided by the run's reference slowdown (see reference.py); setup
    is (raw, scaled) seconds from setup().
    """
    per_op = op_seconds(ops, passes, ok)
    raw = {"wall_s": sum(per_op),
           "op_p50_s": statistics.median(execution_seconds(ops, passes, ok, per_op)),
           "op_max_s": max(per_op)}
    values = {k: v / slowdown for k, v in raw.items()}  # op_max_s is reported, not gated
    raw["setup_s"], values["setup_s"] = setup
    values["ok_frac"] = 1.0 - failed_ops(ok) / len(ops)
    return {k: (values[k], unit) for k, unit in E2E_UNITS.items()}, values, raw, per_op


def layer_metrics(tracer, traced_wall, untraced_wall) -> dict:
    c, t, st, k = tracer.calls, tracer.total, tracer.self_time, tracer.counters
    untrusted = k["fan.build_fan.untrusted"]
    out = {}
    for name in ("intlin.hnf", "intlin.snf"):
        out[f"{name}.calls"] = (c[name], "count")
        out[f"{name}.self_s"] = (st[name], "s")
    out["intlin.hnf.max_bits"] = (k["intlin.hnf.max_bits"], "bits")
    for name in ("intlin.Sublattice", "intlin.lattice_sum", "intlin.integer_kernel",
                 "intlin.solve_columns", "filtration.filtration", "fan.is_complete", "fan.star",
                 "lattices.rel_lattice_star", "fan.build_fan", "qsolve.cone_pair_proper",
                 "qsolve.in_simplicial_cone", "refine.stellar_subdivide",
                 "filtration.local_decompose", "cli.main"):
        out[f"{name}.calls"] = (c[name], "count")
        out[f"{name}.s"] = (t[name], "s")
    out["filtration.check_generation.calls"] = (c["filtration.check_generation"], "count")
    out["lattices.rel_lattice.calls"] = (c["lattices.rel_lattice"], "count")
    out["fan.build_fan.exact_frac"] = (k["fan.build_fan.full"] / untrusted if untrusted else 0.0, "frac")
    out["qsolve.fm_guard_trips"] = (k["qsolve.fm_guard_trips"], "count")
    out["qsolve.fm_wasted_s"] = (k["qsolve.fm_wasted_s"], "s")
    out["filtration.local_decompose.routing_errors"] = (
        k["filtration.local_decompose.routing_errors"], "count")
    out["refine.conjecture_scan.s"] = (t["refine.conjecture_scan"], "s")
    out["refine.conjecture_scan.trials_completed"] = (
        k["refine.conjecture_scan.trials_completed"], "count")
    out["fanio.load_fan.s"] = (t["fanio.load_fan"], "s")
    out["fanio.dump_report.s"] = (t["fanio.dump_report"], "s")
    out["fanio.dump_report.bytes"] = (k["fanio.dump_report.bytes"], "bytes")
    out["trace_overhead_frac"] = (traced_wall / untraced_wall - 1.0, "frac")
    return out


def run(workload: str, seed: int, seconds: float, trace: bool, outdir: str) -> dict:
    workdir = os.path.join(outdir, f"{workload}-s{seed}")
    reference = Reference()
    cli, ops, setup_raw, setup_scaled = setup(workload, seed, workdir, reference)
    run_op(cli, ops[0].argv(workdir))  # warm-up, not measured
    rss_floor = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    passes = []
    tracer = None
    if trace:
        from spans import Tracer
        passes.append(run_pass(cli, ops, workdir, reference))
        tracer = Tracer()
        tracer.install()
        try:
            passes.append(run_pass(cli, ops, workdir, reference, 1, tracer))
        finally:
            tracer.uninstall()
    else:
        start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            passes.append(run_pass(cli, ops, workdir, reference, len(passes)))
            last = time.perf_counter() - t0
            if time.perf_counter() - start + last > seconds:
                break
    rss_peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    ok, problems, findings, incorrect = judge(ops, passes)
    attempted, failed = len(ops), failed_ops(ok)
    walls = [sum(r.seconds for r in runs) for runs in passes]
    slowdown = reference.slowdown()
    if trace:
        per_op = op_seconds(ops, passes[:1], ok[:1])
        metrics = layer_metrics(tracer, walls[1], walls[0])
        metrics["cli.main.max_s"] = (max(per_op), "s")
        raw = op_max = None
    else:
        metrics, scaled, raw, per_op = e2e_metrics(ops, passes, ok, (setup_raw, setup_scaled),
                                                   slowdown)
        op_max = scaled["op_max_s"]
    detail = {
        "workload": workload, "seed": seed, "trace": trace, "seconds": seconds,
        "environment": environment(), "passes": len(passes), "ops_per_pass": len(ops),
        "setup_s": {"raw": setup_raw, "scaled": setup_scaled}, "pass_elapsed_s": walls,
        "rss_kb": {"floor": rss_floor, "peak": rss_peak},
        "reference": {"slowdown": slowdown, "ticks": len(reference.seconds),
                      "median_s": statistics.median(reference.seconds)},
        "raw_times_s": raw, "op_max_s": op_max,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "findings": {
            "nonzero_exit_ops": sum(1 for r in passes[0] if r.code not in (0, None)),
            "exit_codes": sorted({r.code for r in passes[0] if r.code not in (0, None)}),
            "scan_violations": findings,
            "validation_levels": validation_levels(ops, passes[0]),
        },
        "ops": [op.record() | {
            "args": list(op.argv_tail), "exit": passes[0][i].code,
            "seconds": [p[i].seconds for p in passes],
            "charged_s": per_op[i],
            "ok": all(row[i] for row in ok), "problems": problems[i]}
            for i, op in enumerate(ops)],
    }
    name = f"{workload}-s{seed}-{'trace' if trace else 'e2e'}"
    if trace:
        slowest = max(range(len(ops)), key=lambda i: passes[1][i].seconds)
        by_op = tracer.op_profiles()
        profiles = [by_op.get(i, {}) for i in range(len(ops))]
        detail["trace"] = {
            "slowest_op": {"op": ops[slowest].name, "seconds": passes[1][slowest].seconds,
                           "layers": profiles[slowest]},
            "calls_per_op": {layer: sorted({p.get(layer, {"calls": 0})["calls"] for p in profiles})
                             for layer in ("filtration.filtration", "fan.is_complete")},
        }
        tracer.dump(os.path.join(outdir, name + "-spans.jsonl"),
                    {"workload": workload, "seed": seed,
                     "ops": [op.name for op in ops], "pass_elapsed_s": walls[1]})
    with open(os.path.join(outdir, name + ".json"), "w", encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1)
        fh.write("\n")
    return {"correct": not incorrect, "attempted": attempted, "failed": failed,
            "metrics": metrics, "detail": detail}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    outdir = os.path.join(ROOT, ".perfbench")
    os.makedirs(outdir, exist_ok=True)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), outdir)
    d = result["detail"]
    env = d["environment"]
    print(f"# fanlat benchmark: workload={args.workload} seed={args.seed} trace={args.trace} "
          f"python={env['python']} host={env['host']} nproc={env['nproc']}")
    print(f"# {d['ops_per_pass']} ops per pass, {d['passes']} passes, "
          f"{result['attempted']} ops attempted, {result['failed']} failed, "
          f"correct={result['correct']}, findings={json.dumps(d['findings'], default=str)[:400]}")
    print(f"# reference slowdown {d['reference']['slowdown']!r} over {d['reference']['ticks']} "
          f"ticks; unscaled seconds: {json.dumps(d['raw_times_s'])}")
    rss = d["rss_kb"]
    print(f"# memory (reported, not gated): peak_rss_mb {rss['peak'] / 1024.0!r} MB, "
          f"rss_growth_mb {(rss['peak'] - rss['floor']) / 1024.0!r} MB over the "
          f"{rss['floor'] / 1024.0!r} MB held after set-up and the warm-up op")
    if d["op_max_s"] is not None:
        print(f"# op_p50_s is over {d['ops_per_pass'] * d['passes']} executions "
              f"({d['ops_per_pass']} ops x "
              f"{d['passes']} passes); slowest op (reported, not gated): "
              f"op_max_s {d['op_max_s']!r} s")
    for key, (value, unit) in result["metrics"].items():
        print(f"{key} {value!r} {unit}")
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in result["metrics"].items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Medians and quartiles of benchmark runs, per workload and metric.

    python3 perfbench/summarize.py .perfbench/*-e2e.json [--json]

Reads the run-detail files that run.py writes and prints, for each
workload and metric, the median, the quartiles, the spread
(interquartile range over median) and the number of runs. Use it to
compare a parent commit's runs with a change's runs made with the same
benchmark code and seeds.
"""

import json
import statistics
import sys
from collections import defaultdict


def summarize(paths) -> dict:
    values = defaultdict(lambda: defaultdict(list))
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            detail = json.load(fh)
        for name, m in detail["metrics"].items():
            values[detail["workload"]][name].append(m["value"])
    out = {}
    for workload, metrics in values.items():
        out[workload] = {}
        for name, vals in metrics.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else vals * 3
            out[workload][name] = {"median": med, "q1": q1, "q3": q3, "runs": len(vals),
                                   "spread": (q3 - q1) / med if med else 0.0}
    return out


def main(argv) -> int:
    as_json = "--json" in argv
    table = summarize([a for a in argv if a != "--json"])
    if as_json:
        print(json.dumps(table, indent=1))
        return 0
    for workload, metrics in sorted(table.items()):
        for name, s in metrics.items():
            print(f"{workload:10s} {name:44s} median {s['median']:<12.6g} "
                  f"q1 {s['q1']:<12.6g} q3 {s['q3']:<12.6g} spread {s['spread']:.3f} "
                  f"runs {s['runs']}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

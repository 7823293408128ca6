"""Seeded fan corpus for the benchmark workloads.

The generator does not import fanlat: a seed has to produce the same
fan files before and after any change to the library, so the inputs
are built here from the frozen catalog definitions and a local copy of
the stellar-subdivision join. Growth is trusted (a stellar subdivision
of a fan is again a fan), so nothing here validates geometry.

A corpus is a list of ops; each op is one `fanlat` CLI invocation on
one fan file. Every generated fan is kept, whatever it costs the
program and whether or not the program handles it.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
from dataclasses import dataclass
from itertools import combinations

# Frozen catalog fans: (rank, rays, maximal cones, complete).
CATALOG = {
    "p2": (2, [(1, 0), (0, 1), (-1, -1)], [(0, 1), (1, 2), (0, 2)], True),
    "p1xp1": (2, [(1, 0), (0, 1), (-1, 0), (0, -1)],
              [(0, 1), (1, 2), (2, 3), (0, 3)], True),
    "p3": (3, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)],
           [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)], True),
    "p2xp1": (3, [(1, 0, 0), (0, 1, 0), (-1, -1, 0), (0, 0, 1), (0, 0, -1)],
              [(0, 1, 3), (1, 2, 3), (0, 2, 3), (0, 1, 4), (1, 2, 4), (0, 2, 4)], True),
    "blowup_p2": (2, [(1, 0), (0, 1), (-1, -1), (1, 1)],
                  [(1, 3), (0, 3), (0, 2), (1, 2)], True),
    "halfplane2": (2, [(1, 1), (1, -1)], [(0, 1)], False),
    "sigma_c": (3, [(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1), (0, 0, -1)],
                [(0, 1, 2), (0, 2, 3), (0, 1, 4), (1, 2, 4), (2, 3, 4), (0, 3, 4)], True),
}
COMPLETE_CATALOG = ["p2", "p3", "p2xp1", "blowup_p2", "sigma_c"]


def projective(n: int):
    """P^n: the standard basis plus minus their sum, every n-subset a cone."""
    rays = [tuple(1 if i == j else 0 for j in range(n)) for i in range(n)]
    rays.append(tuple([-1] * n))
    return n, rays, list(combinations(range(n + 1), n)), True


def base_fan(name: str):
    if name in CATALOG:
        return CATALOG[name]
    if name in ("p4", "p5"):
        return projective(int(name[1]))
    raise KeyError(name)


# Grown fans per workload: (base, number of rays, copies). Report sizes stop
# at 20 rays on rank 3 (16 for sigma_c), decompose at 16, and scan grows
# one 11-ray fan: see perfbench/README.md.
GROWTH = {
    "report": [(b, n, 6) for n in (12, 16) for b in ("p3", "p2xp1", "sigma_c")]
              + [(b, 20, 2) for b in ("p3", "p2xp1")]
              + [("p4", 12, 2), ("p4", 16, 2), ("p5", 10, 2)],
    "scan": [("p2xp1", 11, 1)],
    "decompose": [(b, n, 4) for n in (12, 14, 16) for b in ("p3", "p2xp1", "sigma_c")]
                 + [("p4", 12, 4), ("p4", 14, 4)],
}
SCAN_CATALOG_OPS = 3  # conjecture ops per complete catalog fan
# Trials per catalog op, sized so that every catalog op costs about the
# same (0.4-0.6 s on the baseline machine): the median op time then draws
# on the executions of all five fans, not on the few ops of one fan.
SCAN_CATALOG_TRIALS = {"p2": 240, "blowup_p2": 180, "p3": 75, "p2xp1": 50, "sigma_c": 30}
SCAN_GROWN_TRIALS = 1


def primitive(v):
    g = 0
    for x in v:
        g = math.gcd(g, abs(x))
    return tuple(x // g for x in v)


def faces(maximal, min_dim: int):
    """Faces of a simplicial fan with at least min_dim rays, sorted by (dim, rays)."""
    out = set()
    for c in maximal:
        for k in range(min_dim, len(c) + 1):
            out.update(combinations(c, k))
    return sorted(out, key=lambda f: (len(f), f))


def stellar_join(maximal, cone, new_index: int):
    """Maximal cones after inserting ray new_index interior to cone."""
    sig = set(cone)
    out = []
    for mc in maximal:
        m = set(mc)
        if sig <= m:
            out.extend(tuple(sorted((m - {r}) | {new_index})) for r in sorted(sig))
        else:
            out.append(tuple(mc))
    return out


def grow(rank, rays, maximal, nrays: int, rng: random.Random):
    """Seeded stellar subdivisions until the fan has nrays rays.

    Each step picks a face of dimension >= 2 uniformly and a new ray that
    is a weighted sum of its rays with weights drawn from {1, 2, 3}.
    """
    rays = [tuple(v) for v in rays]
    maximal = [tuple(sorted(c)) for c in maximal]
    known = set(rays)
    while len(rays) < nrays:
        cone = rng.choice(faces(maximal, 2))
        coeffs = [rng.choice((1, 2, 3)) for _ in cone]
        w = primitive([sum(c * rays[i][j] for c, i in zip(coeffs, cone))
                       for j in range(rank)])
        if w in known:
            continue
        maximal = stellar_join(maximal, cone, len(rays))
        rays.append(w)
        known.add(w)
    return rays, maximal


@dataclass(frozen=True)
class Op:
    """One CLI invocation on one fan file, with what is known about the fan."""

    name: str
    file: str
    argv_tail: tuple
    fan: dict
    complete: bool
    base: str

    def argv(self, workdir: str) -> list:
        return [self.argv_tail[0], os.path.join(workdir, self.file), *self.argv_tail[1:]]

    def record(self) -> dict:
        rays = self.fan["rays"]
        return {"op": self.name, "base": self.base, "rank": self.fan["rank"],
                "rays": len(rays), "maximal_cones": len(self.fan["maximal_cones"]),
                "max_abs_entry": max(abs(x) for r in rays for x in r)}


def fan_dict(name, rank, rays, maximal) -> dict:
    return {"rank": rank, "rays": [list(v) for v in rays],
            "maximal_cones": [list(c) for c in maximal], "metadata": {"name": name}}


def build(workload: str, seed: int) -> list:
    """The ops of one workload for one seed; same seed, same ops."""
    if workload not in GROWTH:
        raise KeyError(f"unknown workload {workload!r}")
    master = random.Random(f"fanlat-bench:{workload}:{seed}")
    fans = []  # (name, fan dict, complete, base)
    if workload == "report":
        for name, (rank, rays, maximal, complete) in CATALOG.items():
            fans.append((name, fan_dict(name, rank, rays, maximal), complete, name))
    for base, nrays, copies in GROWTH[workload]:
        rank, rays, maximal, complete = base_fan(base)
        for k in range(copies):
            grown_rays, grown_max = grow(rank, rays, maximal, nrays,
                                         random.Random(master.getrandbits(64)))
            name = f"{base}-r{nrays}-{k}"
            fans.append((name, fan_dict(name, rank, grown_rays, grown_max), complete, base))

    ops = []
    if workload in ("report", "decompose"):
        tail = (("report", "--policy", "both", "--trust") if workload == "report"
                else ("decompose", "--trust"))
        for i, (name, fan, complete, base) in enumerate(fans):
            ops.append(Op(name, f"{i:03d}-{name}.json", tail, fan, complete, base))
    else:
        def scan_op(name, file, fan, base, trials, k):
            tail = ("conjecture", "--policy", "inclusive", "--trials", str(trials),
                    "--seed", str(master.getrandbits(32)))
            return Op(f"{name}#{k}", file, tail, fan, True, base)
        for name in COMPLETE_CATALOG:
            rank, rays, maximal, _ = CATALOG[name]
            fan = fan_dict(name, rank, rays, maximal)
            for k in range(SCAN_CATALOG_OPS):
                ops.append(scan_op(name, f"c-{name}.json", fan, name,
                                   SCAN_CATALOG_TRIALS[name], k))
        for i, (name, fan, _, base) in enumerate(fans):
            ops.append(scan_op(name, f"{i:03d}-{name}.json", fan, base, SCAN_GROWN_TRIALS, 0))
    return ops


def fan_file_bytes(fan: dict) -> bytes:
    return (json.dumps(fan, indent=2) + "\n").encode("utf-8")


def write(ops, workdir: str) -> str:
    """Write every fan file (and a manifest) under workdir; return a digest."""
    os.makedirs(workdir, exist_ok=True)
    digest = hashlib.sha256()
    written = {}
    for op in ops:
        if op.file not in written:
            data = fan_file_bytes(op.fan)
            with open(os.path.join(workdir, op.file), "wb") as fh:
                fh.write(data)
            written[op.file] = data
        digest.update(op.file.encode() + b"\0" + written[op.file] + b"\0"
                      + json.dumps(op.argv_tail).encode())
    manifest = [op.record() | {"file": op.file, "args": list(op.argv_tail)} for op in ops]
    with open(os.path.join(workdir, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=1)
        fh.write("\n")
    return digest.hexdigest()

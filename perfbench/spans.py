"""Span tracing around fanlat's public functions, from outside the package.

Tracer.install() replaces each traced function, in every fanlat module
that imported it, by a wrapper that records a span (id, name, start,
end, parent id, op, self seconds) and per-name counters; uninstall()
puts the originals back. Spans stay in memory until dump() writes them
out at the end of a run.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter

# (module, attribute) pairs; "Class.method" wraps a method on the class.
TRACED = [
    ("cli", "main"),
    ("fanio", "load_fan"), ("fanio", "dump_report"),
    ("fan", "build_fan"), ("fan", "star"), ("fan", "is_complete"),
    ("qsolve", "cone_pair_proper"), ("qsolve", "fm_feasible"), ("qsolve", "in_simplicial_cone"),
    ("intlin", "hnf"), ("intlin", "snf"), ("intlin", "integer_kernel"),
    ("intlin", "lattice_sum"), ("intlin", "solve_columns"), ("intlin", "Sublattice.__init__"),
    ("lattices", "rel_lattice"), ("lattices", "rel_lattice_star"), ("lattices", "class_group"),
    ("filtration", "filtration"), ("filtration", "check_generation"),
    ("filtration", "local_decompose"),
    ("refine", "stellar_subdivide"), ("refine", "conjecture_scan"),
]
MAX_SPANS = 400_000


def _max_bits(*matrices) -> int:
    return max((abs(x).bit_length() for m in matrices for row in m.entries for x in row),
               default=0)


class Tracer:
    def __init__(self):
        self.names = []          # span name per name id
        self.spans = []          # (id, name id, start, end, parent id, op, self seconds)
        self.next_id = 0
        self.dropped = 0
        self.calls = {}
        self.total = {}
        self.self_time = {}
        self.counters = {"intlin.hnf.max_bits": 0, "fan.build_fan.untrusted": 0,
                         "fan.build_fan.full": 0, "qsolve.fm_guard_trips": 0,
                         "qsolve.fm_wasted_s": 0.0, "filtration.local_decompose.routing_errors": 0,
                         "refine.conjecture_scan.trials_completed": 0,
                         "fanio.dump_report.bytes": 0}
        self.op = None
        self.per_op = {}         # (op, name) -> [calls, seconds, self seconds]
        self._stack = []         # [span id, child seconds] of the open spans
        self._patched = []

    def _wrap(self, name, fn, after):
        name_id = len(self.names)
        self.names.append(name)
        self.calls[name] = 0
        self.total[name] = 0.0
        self.self_time[name] = 0.0
        stack, spans = self._stack, self.spans

        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else -1
            frame = [self.next_id, 0.0]
            self.next_id += 1
            stack.append(frame)
            result = exc = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                end = perf_counter()
                stack.pop()
                dur = end - start
                if stack:
                    stack[-1][1] += dur
                own = dur - frame[1]
                self.calls[name] += 1
                self.total[name] += dur
                self.self_time[name] += own
                agg = self.per_op.setdefault((self.op, name), [0, 0.0, 0.0])
                agg[0] += 1
                agg[1] += dur
                agg[2] += own
                if len(spans) < MAX_SPANS:
                    spans.append((frame[0], name_id, start, end, parent, self.op, own))
                else:
                    self.dropped += 1
                if after is not None:
                    after(self, args, kwargs, result, exc, dur)

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        import fanlat  # noqa: F401  (loads every submodule)
        modules = [m for k, m in sys.modules.items() if k == "fanlat" or k.startswith("fanlat.")]
        for mod_name, attr in TRACED:
            mod = sys.modules[f"fanlat.{mod_name}"]
            name = f"{mod_name}.{attr.replace('.__init__', '')}"
            after = AFTER.get(name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                orig = cls.__dict__[meth]
                setattr(cls, meth, self._wrap(name, orig, after))
                self._patched.append((cls, meth, orig))
                continue
            orig = getattr(mod, attr)
            wrapped = self._wrap(name, orig, after)
            for m in modules:
                for key, val in list(vars(m).items()):
                    if val is orig:
                        setattr(m, key, wrapped)
                        self._patched.append((m, key, orig))

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._patched):
            setattr(owner, key, orig)
        self._patched.clear()

    def op_profiles(self) -> dict:
        """Per op: calls, inclusive and self seconds for each span name."""
        out = {}
        for (op, name), (c, t, o) in self.per_op.items():
            out.setdefault(op, {})[name] = {"calls": c, "s": t, "self_s": o}
        return out

    def dump(self, path: str, extra: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names,
                       "span_fields": ["id", "name", "start", "end", "parent", "op", "self_s"],
                       "dropped_spans": self.dropped, "calls": self.calls, "seconds": self.total,
                       "self_seconds": self.self_time, "counters": self.counters, **extra}, fh)
            fh.write("\n")
            for span in self.spans:
                fh.write(json.dumps(span))
                fh.write("\n")


def _hnf_after(tr, args, kwargs, result, exc, dur):
    if result is not None:
        bits = _max_bits(*result)
        if bits > tr.counters["intlin.hnf.max_bits"]:
            tr.counters["intlin.hnf.max_bits"] = bits


def _build_fan_after(tr, args, kwargs, result, exc, dur):
    if not kwargs.get("trust", False):
        tr.counters["fan.build_fan.untrusted"] += 1
        if result is not None and result.validation == "full":
            tr.counters["fan.build_fan.full"] += 1


def _fm_after(tr, args, kwargs, result, exc, dur):
    if exc is not None and type(exc).__name__ == "FMSizeExceeded":
        tr.counters["qsolve.fm_guard_trips"] += 1


def _pair_after(tr, args, kwargs, result, exc, dur):
    if exc is not None and type(exc).__name__ == "FMSizeExceeded":
        tr.counters["qsolve.fm_wasted_s"] += dur


def _decompose_after(tr, args, kwargs, result, exc, dur):
    if exc is not None and type(exc).__name__ == "RoutingError":
        tr.counters["filtration.local_decompose.routing_errors"] += 1


def _scan_after(tr, args, kwargs, result, exc, dur):
    if result is not None:
        tr.counters["refine.conjecture_scan.trials_completed"] += len(result)


def _dump_after(tr, args, kwargs, result, exc, dur):
    if result is not None:
        tr.counters["fanio.dump_report.bytes"] += len(result.encode("utf-8"))


AFTER = {
    "intlin.hnf": _hnf_after, "fan.build_fan": _build_fan_after,
    "qsolve.fm_feasible": _fm_after, "qsolve.cone_pair_proper": _pair_after,
    "filtration.local_decompose": _decompose_after, "refine.conjecture_scan": _scan_after,
    "fanio.dump_report": _dump_after,
}

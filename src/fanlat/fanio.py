"""Fan file schema and report serialization.

Fan files are plain JSON:

    { "rank": n, "rays": [[...], ...], "maximal_cones": [[...], ...],
      "cones": [[...], ...]?,
      "metadata": {"name"?: string, "assert_complete"?: bool, "trust"?: bool}? }

Schema problems, and files that cannot be read or written, raise
FanFileError (CLI exit 2); geometric validation problems surface from
build_fan as FanValidationError (exit 1). Reports serialize unbounded
integers (matrix entries, lattice indices) as decimal strings so
round-trips are lossless through any JSON parser; the strings are exact
past the interpreter's int/str digit limit too, which is left as it is.

Every JSON file fanlat writes, reports and fan files alike, goes through
dump_report. Its text is exactly `json.dumps(obj, indent=2)` plus a
newline, for the values reports hold: str, int, bool, None, lists,
tuples and dicts. Anything else, floats included, raises TypeError. A
SharedList that appears many times in one report is written once per
indent and its text reused.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii as _encode_str
from typing import Optional

from .errors import FanFileError
from .fan import Fan, build_fan

REPORT_VERSION = "fanlat-report/1"


def _expect_int(x, what: str) -> int:
    if isinstance(x, bool) or not isinstance(x, int):
        raise FanFileError(f"{what} must be an integer, got {x!r}")
    return x


def _expect_vector(x, rank: int, what: str) -> tuple[int, ...]:
    if not isinstance(x, list) or len(x) != rank:
        raise FanFileError(f"{what} must be a list of {rank} integers, got {x!r}")
    return tuple(_expect_int(v, what) for v in x)


def _expect_cone(x, nrays: int, what: str) -> tuple[int, ...]:
    if not isinstance(x, list):
        raise FanFileError(f"{what} must be a list of ray indices, got {x!r}")
    idxs = tuple(_expect_int(i, what) for i in x)
    for i in idxs:
        if not 0 <= i < nrays:
            raise FanFileError(f"{what}: ray index {i} out of range (have {nrays} rays)")
    return idxs


def fan_from_dict(data: dict, trust: bool = False) -> Fan:
    if not isinstance(data, dict):
        raise FanFileError("fan file must be a JSON object")
    for key in ("rank", "rays", "maximal_cones"):
        if key not in data:
            raise FanFileError(f"fan file is missing the {key!r} field")
    rank = _expect_int(data["rank"], "rank")
    if rank < 0:
        raise FanFileError("rank must be nonnegative")
    if not isinstance(data["rays"], list):
        raise FanFileError("rays must be a list of integer vectors")
    rays = [_expect_vector(v, rank, "ray") for v in data["rays"]]
    if not isinstance(data["maximal_cones"], list):
        raise FanFileError("maximal_cones must be a list of index lists")
    maximal = [_expect_cone(c, len(rays), "maximal cone") for c in data["maximal_cones"]]
    cones = None
    if data.get("cones") is not None:
        if not isinstance(data["cones"], list):
            raise FanFileError("cones must be a list of index lists")
        cones = [_expect_cone(c, len(rays), "cone") for c in data["cones"]]
    meta = data.get("metadata") or {}
    if not isinstance(meta, dict):
        raise FanFileError("metadata must be an object")
    for key, kind, what in (("trust", bool, "a boolean"),
                            ("assert_complete", bool, "a boolean"),
                            ("name", str, "a string")):
        if key in meta and not isinstance(meta[key], kind):
            raise FanFileError(f"metadata {key} must be {what}, got {meta[key]!r}")
    return build_fan(rank, rays, maximal, cones=cones,
                     trust=trust or meta.get("trust", False),
                     name=meta.get("name"),
                     assert_complete=meta.get("assert_complete"))


def load_fan(path: str, trust: bool = False) -> Fan:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise FanFileError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise FanFileError(f"{path} is not valid JSON: {exc}") from exc
    except ValueError as exc:  # an integer beyond the int/str digit limit, or bad UTF-8
        raise FanFileError(f"cannot read {path}: {exc}") from exc
    return fan_from_dict(data, trust=trust)


def fan_to_dict(fan: Fan) -> dict:
    data = {
        "rank": fan.rank,
        "rays": [list(v) for v in fan.rays],
        "maximal_cones": [list(c.ray_indices) for c in fan.maximal_cones],
    }
    if not fan.simplicial:
        data["cones"] = [list(c.ray_indices) for c in fan.cones]
    meta = {}
    if fan.name is not None:
        meta["name"] = fan.name
    if fan.asserted_complete is not None:
        meta["assert_complete"] = fan.asserted_complete
    if not fan.simplicial:
        meta["trust"] = True
    if meta:
        data["metadata"] = meta
    return data


def save_fan(fan: Fan, path: str) -> None:
    text = dump_report(fan_to_dict(fan))
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise FanFileError(f"cannot write {path}: {exc}") from exc


# Report encoding helpers: unbounded integers go out as decimal strings.

_PIECE_DIGITS = 640  # the lowest int/str digit limit Python allows
_PIECE = 10 ** _PIECE_DIGITS


def _decimal(x: int) -> str:
    """The exact decimal text of x, however many digits it has.

    str(x) refuses an int with more digits than the interpreter's
    process-wide limit (sys.get_int_max_str_digits()). Past it, x is
    written in pieces of 640 digits, which every allowed limit admits.
    """
    try:
        return str(x)
    except ValueError:
        pass
    sign, x = ("-", -x) if x < 0 else ("", x)
    pieces = []
    while x >= _PIECE:
        x, low = divmod(x, _PIECE)
        pieces.append(str(low).zfill(_PIECE_DIGITS))
    return sign + str(x) + "".join(reversed(pieces))


def enc_int(x: Optional[int]) -> str:
    return "infinite" if x is None else _decimal(x)


def enc_vector(v) -> list[str]:
    return [_decimal(x) for x in v]


def enc_basis(rows) -> list[list[str]]:
    return [enc_vector(r) for r in rows]


def enc_depth(d: Optional[int]):
    return "unreachable" if d is None else d


class SharedList(list):
    """A list that dump_report writes once per indent and then reuses.

    A report that holds one value many times, such as the cone, new ray
    and records that every trial of one conjecture draw repeats, puts
    one SharedList in each place, and its text is built once per call.
    """


def dump_report(report: dict) -> str:
    """`json.dumps(report, indent=2)` plus a newline, byte for byte.

    Strings go through `json.encoder.encode_basestring_ascii`, ints
    (bools aside) through `int.__repr__`; True, False and None are
    `true`, `false` and `null`. Lists and tuples are arrays, and empty
    containers are written `[]` and `{}`. Dict keys are strings, or
    int, bool and None keys written as json writes them ("1", "true",
    "false", "null"). Any other value raises TypeError: a float, a set
    or any other object. So does any other key, a float key included.
    A container that holds itself is not detected as such; it ends in
    RecursionError.

    A SharedList is the shared-object marker: the first time one object
    is written at a given indent, its text is kept for the rest of this
    call, and every later occurrence of the same object at the same
    indent reuses that text. So a SharedList must not change while the
    report is written. No other container is cached.
    """
    chunks = []
    put = chunks.append
    shared = {}  # (id of a SharedList, newline + indent) -> its text

    def write(o, nl):
        # nl is the newline and indent of the line o starts on.
        if isinstance(o, str):
            put(_encode_str(o))
        elif o is None:
            put("null")
        elif o is True:
            put("true")
        elif o is False:
            put("false")
        elif isinstance(o, int):
            put(int.__repr__(o))
        elif isinstance(o, (list, tuple)):
            if not o:
                put("[]")
                return
            if type(o) is SharedList:
                key = (id(o), nl)
                text = shared.get(key)
                if text is not None:
                    put(text)
                    return
                start = len(chunks)
            inner = nl + "  "
            sep, comma = "[" + inner, "," + inner
            for item in o:
                put(sep)
                write(item, inner)
                sep = comma
            put(nl + "]")
            if type(o) is SharedList:
                text = shared[key] = "".join(chunks[start:])
                chunks[start:] = [text]
        elif isinstance(o, dict):
            if not o:
                put("{}")
                return
            inner = nl + "  "
            sep, comma = "{" + inner, "," + inner
            for k, v in o.items():
                if isinstance(k, str):
                    pass
                elif k is True:
                    k = "true"
                elif k is False:
                    k = "false"
                elif k is None:
                    k = "null"
                elif isinstance(k, int):
                    k = int.__repr__(k)
                else:
                    raise TypeError(f"keys must be str, int, bool or None, "
                                    f"not {type(k).__name__}")
                put(sep + _encode_str(k) + ": ")
                write(v, inner)
                sep = comma
            put(nl + "}")
        else:
            raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")

    write(report, "\n")
    put("\n")
    return "".join(chunks)

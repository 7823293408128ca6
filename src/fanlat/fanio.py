"""Fan file schema and report serialization.

Fan files are plain JSON:

    { "rank": n, "rays": [[...], ...], "maximal_cones": [[...], ...],
      "cones": [[...], ...]?,
      "metadata": {"name"?: string, "assert_complete"?: bool, "trust"?: bool}? }

Schema problems raise FanFileError (CLI exit 2); geometric validation
problems surface from build_fan as FanValidationError (exit 1). Reports
serialize unbounded integers (matrix entries, lattice indices) as
decimal strings so round-trips are lossless through any JSON parser.
"""

from __future__ import annotations

import json
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
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(fan_to_dict(fan), fh, indent=2)
        fh.write("\n")


# Report encoding helpers: unbounded integers go out as decimal strings.

def enc_int(x: Optional[int]) -> str:
    return "infinite" if x is None else str(x)


def enc_vector(v) -> list[str]:
    return [str(x) for x in v]


def enc_basis(rows) -> list[list[str]]:
    return [enc_vector(r) for r in rows]


def enc_depth(d: Optional[int]):
    return "unreachable" if d is None else d


def dump_report(report: dict) -> str:
    return json.dumps(report, indent=2) + "\n"

"""Mutated catalog fan files end with a documented exit code, never with an escaped exception.

Each case is a catalog fan file with one to three random edits: a junk or
extreme value, a deleted, repeated or reshaped ray or cone, a dropped
key, trust or completeness claimed in the metadata, or broken JSON text.
The seed is fixed, so the cases are the same on every run. An exception
that is not a package error is a bug and exits 3 with one line.
"""

import copy
import json
import math
import random

import pytest

import fanlat.cli as cli_module
import fanlat.lattices as lattices_module
from fanlat.cli import main
from fanlat.corpus import catalog, catalog_entry
from fanlat.fanio import fan_to_dict

SEED = 20261019
CASES = 300
COMMANDS = (("report", "--policy", "both"), ("decompose",), ("validate",))
JUNK = (None, True, 1.5, "1", [], {}, [1])
EXTREME = (0, 2 ** 70, -(2 ** 70), 3 ** 41)


def _value(rng, valid):
    """A junk value one time in four, else one of valid or an extreme integer."""
    if rng.random() < 0.25:
        return rng.choice(JUNK)
    return rng.choice(tuple(valid) + EXTREME)


def _edit_vector(v, rng):
    kind = rng.randrange(6)
    if kind < 4 and v:
        v[rng.randrange(len(v))] = _value(rng, range(-5, 6))
    elif kind == 4 and rng.random() < 0.5:
        v.append(rng.randint(-3, 3))
    elif kind == 4:
        v.pop()
    else:
        v[:] = [rng.choice((-1, 1)) * rng.randint(0, 3) for _ in v]


def _drop_ray(data, i):
    """Delete ray i and renumber the cones, which drop it too."""
    del data["rays"][i]
    data["maximal_cones"] = [[j - (j > i) for j in cone if j != i]
                             for cone in data["maximal_cones"]]


def _mutate(data, rng):
    """One random edit of a fan dict, in place."""
    kind = rng.randrange(10)
    rays, cones = data["rays"], data["maximal_cones"]
    if kind == 0:
        _edit_vector(rng.choice(rays), rng)
    elif kind == 1:
        _drop_ray(data, rng.randrange(len(rays)))
    elif kind == 2:
        ray = rng.choice(rays)
        rays.append(rng.choice(([2 * x for x in ray], [-x for x in ray], list(ray))))
    elif kind == 3:
        cone = rng.choice(cones)
        cone.append(rng.choice((len(rays), -1, cone[0]) + tuple(range(len(rays)))))
    elif kind == 4:
        cone = rng.choice(cones)
        if cone:
            del cone[rng.randrange(len(cone))]
    elif kind == 5:
        cone = cones.pop(rng.randrange(len(cones)))
        cones.extend(rng.choice(([], [cone, cone], [cone, []])))
    elif kind == 6:
        data["rank"] = _value(rng, (data["rank"] + 1, data["rank"] - 1))
    elif kind == 7:
        key = rng.choice(("rank", "rays", "maximal_cones", "metadata"))
        if rng.random() < 0.5:
            data.pop(key, None)
        else:
            data[key] = _value(rng, ())
    elif kind == 8:
        meta = data.setdefault("metadata", {})
        key = rng.choice(("trust", "assert_complete", "name"))
        meta[key] = rng.choice(JUNK) if rng.random() < 0.25 else rng.choice((True, False, "x"))
    else:
        data["cones"] = rng.choice((
            copy.deepcopy(cones) + [[i] for i in range(len(rays))] + [[]],
            [[0, 1]], _value(rng, ())))


def _cases():
    rng = random.Random(SEED)
    bases = [fan_to_dict(entry.fan) for entry in catalog()]
    for _ in range(CASES):
        data = copy.deepcopy(rng.choice(bases))
        for _ in range(rng.randint(1, 3)):
            try:
                _mutate(data, rng)
            except (IndexError, TypeError, AttributeError, KeyError, ValueError):
                pass  # an earlier edit removed what this one would change
        text = json.dumps(data)
        if rng.random() < 0.05:
            text = text[:rng.randrange(len(text))]
        yield text


def test_mutated_fan_files_exit_with_documented_codes(tmp_path, capsys):
    seen = set()
    for i, text in enumerate(_cases()):
        path = tmp_path / f"case{i}.json"
        path.write_text(text)
        for command in COMMANDS:
            code = main([command[0], str(path), *command[1:]])
            out, err = capsys.readouterr()
            assert code in (0, 1, 2), (command, text, err)
            assert "Traceback" not in err, (command, text)
            # Only a success, or validate's verdict on a fan it could read, writes a report.
            reported = code == 0 or (code, command[0]) == (1, "validate")
            assert bool(out) == reported, (command, text)
            seen.add(code)
    # The cases reach every documented outcome.
    assert seen == {0, 1, 2}


def _raise(exc):
    def fail(*args, **kwargs):
        raise exc
    return fail


@pytest.mark.parametrize("module, name, exc", [
    (lattices_module, "_kernel_basis", ValueError("ambient rank mismatch")),
    (lattices_module, "_kernel_basis", TypeError("unsupported operand")),
    (lattices_module, "_kernel_basis", KeyError("kernel")),
    (cli_module, "dump_report", TypeError("not serializable")),
])
def test_internal_exceptions_exit_3_with_one_line(tmp_path, capsys, monkeypatch,
                                                  module, name, exc):
    path = tmp_path / "p2.json"
    path.write_text(json.dumps(fan_to_dict(catalog_entry("p2").fan)))
    monkeypatch.setattr(module, name, _raise(exc))
    assert main(["relations", str(path)]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"internal error: {exc!r}\n"


# Trusted non-simplicial input whose full cone list holds the maximal cones only,
# so no ray has its 1-cone; ray 4 lies inside the cone (0, 1).
NO_RAY_CONES = {"rank": 2, "rays": [[1, 0], [0, 1], [-1, 0], [0, -1], [1, 1]],
                "maximal_cones": [[0, 4, 1], [1, 2], [2, 3], [3, 0]],
                "cones": [[0, 4, 1], [1, 2], [2, 3], [3, 0]],
                "metadata": {"trust": True, "assert_complete": True}}


@pytest.mark.parametrize("command", ["report", "decompose", "relations"])
def test_full_cone_list_without_a_ray_cone_exits_1(tmp_path, capsys, command):
    path = tmp_path / "fan.json"
    path.write_text(json.dumps(NO_RAY_CONES))
    assert main([command, str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: 1-cone of ray 0 missing from the full cone list\n"


def test_full_cone_list_names_the_first_ray_without_its_cone(tmp_path, capsys):
    data = copy.deepcopy(NO_RAY_CONES)
    data["cones"] += [[0], [1], [2], [3]]
    path = tmp_path / "fan.json"
    path.write_text(json.dumps(data))
    assert main(["validate", str(path)]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["findings"] == ["1-cone of ray 4 missing from the full cone list"]
    # With every 1-cone listed, the trusted fan loads.
    data["cones"].append([4])
    path.write_text(json.dumps(data))
    assert main(["relations", str(path)]) == 0


# Trusted input that is not a fan: one "cone" spanned by a whole plane, so
# rays 0 and 2 span a line. Only non-simplicial input can put a star ray
# outside a cone into the cone's span.
PLANE_AS_CONE = {"rank": 2, "rays": [[1, 0], [0, 1], [-1, 0], [0, -1]],
                 "maximal_cones": [[0, 1, 2, 3]],
                 "cones": [[0], [1], [2], [3], [0, 1, 2, 3]],
                 "metadata": {"trust": True}}


def test_localize_on_trusted_input_that_is_not_a_fan_exits_1(tmp_path, capsys):
    path = tmp_path / "fan.json"
    path.write_text(json.dumps(PLANE_AS_CONE))
    assert main(["localize", str(path), "--cone", "0"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: star ray 2 lies in the span of the cone (0,): not a fan\n"


# Python refuses int/str conversions past sys.get_int_max_str_digits() digits
# (4,300 by default); json.load and str() both hit that limit.


def _parse_decimal(text):
    """The int of a decimal string of any length, read in pieces under the digit limit."""
    digits = text.lstrip("-")
    value = 0
    for i in range(0, len(digits), 600):
        piece = digits[i:i + 600]
        value = value * 10 ** len(piece) + int(piece)
    return -value if text.startswith("-") else value


@pytest.mark.parametrize("text", [
    # A 5,000-digit ray entry, which json.load refuses to convert.
    b'{"rank": 2, "rays": [[1' + b"0" * 4999 + b', 0], [0, 1], [-1, -1]], '
    b'"maximal_cones": [[0, 1], [1, 2], [2, 0]]}',
    # Bytes that are not UTF-8.
    b'{"rank": 2, "rays": [[1, 0]], "maximal_cones": [], "metadata": {"name": "\xff"}}',
], ids=["digit-limit", "not-utf8"])
def test_fan_file_that_json_cannot_decode_exits_2(tmp_path, capsys, text):
    path = tmp_path / "fan.json"
    path.write_bytes(text)
    assert main(["relations", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: cannot read {path}: ")
    assert err.count("\n") == 1


def test_relation_beyond_the_digit_limit_is_written_exactly(tmp_path, capsys):
    rng = random.Random(1)
    a, b, c, d = (rng.getrandbits(8000) | 1 for _ in range(4))
    rays = [(a, b), (-c, d), (-1, -1)]
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"rank": 2, "rays": [list(v) for v in rays],
                                "maximal_cones": [[0, 1], [1, 2], [2, 0]]}))
    assert main(["relations", str(path), "--trust"]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    (row,) = json.loads(out)["relation_lattice"]["basis"]
    assert max(len(x.lstrip("-")) for x in row) > 4300
    relation = [_parse_decimal(x) for x in row]
    assert not any(x.startswith(("0", "-0")) for x in row)
    assert all(sum(x * v[i] for x, v in zip(relation, rays)) == 0 for i in range(2))
    # The relations of three vectors in the plane are the multiples of one
    # primitive vector, the cross product of the rows divided by its gcd.
    cross = (c + d, a - b, a * d + b * c)
    g = math.gcd(*cross)
    assert relation in ([x // g for x in cross], [-x // g for x in cross])

"""dump_report against `json.dumps(indent=2)`, and save_fan's bytes."""

import json
import random

import pytest

import fanlat.cli as cli
import fanlat.fanio as fanio
from fanlat.corpus import catalog
from fanlat.fanio import SharedList, dump_report, fan_to_dict, save_fan
from fanlat.lattices import rel_lattice
from fanlat.refine import stellar_subdivide


def reference(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def catalog_reports(monkeypatch, capsys, tmp_path):
    """Every report the CLI writes for the catalog fans, as dicts."""
    reports = []

    def keep(report):
        reports.append(report)
        return dump_report(report)

    monkeypatch.setattr(cli, "dump_report", keep)
    assert cli.main(["catalog"]) == 0
    for entry in catalog():
        assert cli.main(["catalog", "export", entry.name]) == 0
        path = tmp_path / f"{entry.name}.json"
        path.write_text(capsys.readouterr().out)
        fan = entry.fan
        cone = ",".join(map(str, fan.maximal_cones[0].ray_indices))
        ray = ",".join(str(sum(fan.rays[i][j] for i in fan.maximal_cones[0].ray_indices))
                       for j in range(fan.rank))
        runs = [["validate"], ["report", "--policy", "both", "--max-coeff", "2"],
                ["relations"], ["filtration", "--policy", "both"], ["decompose"],
                ["localize", "--cone", "0"], ["classgroup"],
                ["subdivide", "--cone", cone, "--ray", ray, "--policy", "both"],
                ["conjecture", "--policy", "inclusive", "--trials", "20", "--seed", "1"],
                ["conjecture", "--policy", "exclusive", "--trials", "20", "--seed", "1"]]
        for r in rel_lattice(fan).basis_rows[:1]:
            runs.append(["depth", "--relation", ",".join(map(str, r)), "--policy", "both"])
        for command, *extra in runs:
            cli.main([command, str(path), *extra])
        capsys.readouterr()
    return reports


def test_every_catalog_report(monkeypatch, capsys, tmp_path):
    reports = catalog_reports(monkeypatch, capsys, tmp_path)
    commands = {r.get("command", "export") for r in reports}
    assert commands == {"catalog", "export", "validate", "report", "relations", "filtration",
                        "decompose", "localize", "classgroup", "subdivide", "conjecture",
                        "depth"}
    for report in reports:
        assert dump_report(report) == reference(report)


# Quotes, escapes, control characters, non-ASCII text, a surrogate pair's
# worth of astral plane, and lone surrogates.
ALPHABET = ("ab\"\\/ \t\n\r\b\f\x00\x01\x1f\x7f\x80\u00e9\u00ff\u2028\u4e2d\ufeff"
            "\U0001f600\ud800\udbff\udfff")


def random_str(rng):
    return "".join(rng.choice(ALPHABET) for _ in range(rng.randrange(6)))


def random_int(rng):
    return rng.choice([0, 1, -1, rng.randrange(-10**6, 10**6),
                       rng.randrange(-10**300, 10**300 + 1)])


def random_key(rng):
    return rng.choice([random_str(rng), random_str(rng), random_int(rng), True, False, None])


def random_value(rng, depth):
    kind = rng.randrange(9 if depth < 4 else 5)
    if kind == 0:
        return random_str(rng)
    if kind == 1:
        return random_int(rng)
    if kind == 2:
        return rng.choice([True, False])
    if kind == 3:
        return None
    if kind == 4:
        return rng.choice([[], {}, ()])
    items = [random_value(rng, depth + 1) for _ in range(rng.randrange(1, 5))]
    if kind == 5:
        return items
    if kind == 6:
        return tuple(items)
    return {random_key(rng): v for v in items}


def test_seeded_random_values():
    rng = random.Random(20261019)
    for _ in range(2000):
        value = random_value(rng, 0)
        assert dump_report(value) == reference(value)


def test_shared_list_at_one_and_two_indents():
    shared = SharedList([{"relation": ["1", "-1"], "depth": 2}, "x", [], True])
    report = {"one": shared, "two": shared, "deep": {"three": shared},
              "list": [shared, [shared]], "empty": SharedList()}
    assert dump_report(report) == reference(report)


@pytest.mark.parametrize("bad", [1.5, {1, 2}, object(), {"k": [0.0]}, {1.5: "v"},
                                 {(1, 2): "v"}])
def test_type_error(bad):
    with pytest.raises(TypeError):
        dump_report(bad)


def test_shared_text_built_once_per_indent(monkeypatch):
    calls = []

    def spy(s):
        calls.append(s)
        return json.encoder.encode_basestring_ascii(s)

    monkeypatch.setattr(fanio, "_encode_str", spy)
    shared = SharedList([{"mark": "shared"}])
    plain = [{"mark": "plain"}]
    report = {"a": shared, "b": shared, "c": shared, "d": plain, "e": plain,
              "deeper": {"f": shared, "g": shared}}
    assert dump_report(report) == reference(report)
    assert calls.count("shared") == 2  # once at each of its two indents
    assert calls.count("plain") == 2  # a plain list is written every time


def refined_fan():
    fan = next(e.fan for e in catalog() if e.name == "p2xp1")
    return stellar_subdivide(fan, fan.maximal_cones[0], (1, 1, 1))


@pytest.mark.parametrize("fan", [e.fan for e in catalog()] + [refined_fan()],
                         ids=[e.name for e in catalog()] + ["p2xp1-refined"])
def test_save_fan_bytes_unchanged(tmp_path, fan):
    expected = tmp_path / "expected.json"
    with open(expected, "w", encoding="utf-8") as fh:
        json.dump(fan_to_dict(fan), fh, indent=2)
        fh.write("\n")
    saved = tmp_path / "saved.json"
    save_fan(fan, str(saved))
    assert saved.read_bytes() == expected.read_bytes()


def test_integers_beyond_the_digit_limit_encode_exactly():
    """enc_int and enc_vector write any int exactly, without raising the process-wide limit."""
    limit = 10 ** 640
    values = [0, 7, -7, limit - 1, limit, -limit, limit + 1, 10 ** 1280 + 3, -(10 ** 9000),
              3 ** 20000, -(7 ** 12000) - 1, 10 ** 5000 * (10 ** 640 - 1)]
    for x in values:
        text = fanio.enc_int(x)
        digits = text.lstrip("-")
        assert text.startswith("-") == (x < 0)
        assert digits == "0" or not digits.startswith("0")
        # Compare in pieces of 600 digits, each within every allowed limit.
        value = 0
        for i in range(0, len(digits), 600):
            value = value * 10 ** len(digits[i:i + 600]) + int(digits[i:i + 600])
        assert value == abs(x), len(digits)
    assert fanio.enc_vector(values) == [fanio.enc_int(x) for x in values]
    assert fanio.enc_vector((1, -2)) == ["1", "-2"]

import importlib
import json
import time
from collections import Counter

import pytest

from fanlat import cli as cli_module
from fanlat.cli import main
from fanlat.corpus import catalog_entry
from fanlat.fan import star
from fanlat.fanio import fan_to_dict, load_fan, save_fan
from fanlat.lattices import rel_lattice
from fanlat.refine import stellar_subdivide


@pytest.fixture
def p2_file(tmp_path):
    path = tmp_path / "p2.json"
    path.write_text(json.dumps(fan_to_dict(catalog_entry("p2").fan)))
    return str(path)


@pytest.fixture
def p2xp1_file(tmp_path):
    path = tmp_path / "p2xp1.json"
    path.write_text(json.dumps(fan_to_dict(catalog_entry("p2xp1").fan)))
    return str(path)


@pytest.fixture
def p2_refined_file(tmp_path):
    path = tmp_path / "p2_refined.json"
    path.write_text(json.dumps({
        "rank": 2,
        "rays": [[1, 0], [0, 1], [-1, -1], [3, 1], [-2, -1], [-6, -1], [-1, 0]],
        "maximal_cones": [[0, 2], [0, 3], [1, 3], [1, 6], [2, 4], [4, 5], [5, 6]],
    }))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out) if out else None, err


def _spy(monkeypatch, module, name):
    """Replace module.name by a wrapper that logs (first arg, other args); return the log."""
    module = importlib.import_module(module)
    real = getattr(module, name)
    calls = []

    def recorder(fan, *args):
        calls.append((fan, args))
        return real(fan, *args)

    monkeypatch.setattr(module, name, recorder)
    return calls


class TestValidate:
    def test_exported_catalog_fan(self, capsys, p2_file):
        code, report, _ = run_json(capsys, "validate", p2_file)
        assert code == 0
        assert report["valid"] is True
        assert report["version"] == "fanlat-report/1"

    def test_duplicate_ray_semantic_failure(self, capsys, tmp_path):
        path = tmp_path / "dup.json"
        path.write_text(json.dumps({
            "rank": 2, "rays": [[1, 2], [2, 4], [1, 0]],
            "maximal_cones": [[0, 2], [1, 2]],
        }))
        code, report, _ = run_json(capsys, "validate", str(path))
        assert code == 1
        assert report["valid"] is False
        assert any("duplicate" in f for f in report["findings"])

    def test_out_of_range_index_is_parse_error(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({
            "rank": 2, "rays": [[1, 0], [0, 1]], "maximal_cones": [[0, 7]],
        }))
        code, _, err = run(capsys, "validate", str(path))
        assert code == 2
        assert "out of range" in err

    def test_broken_json(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{nope")
        code, _, err = run(capsys, "validate", str(path))
        assert code == 2

    @pytest.mark.parametrize("metadata", [
        {"trust": "no"}, {"assert_complete": "no"}, {"name": ["p2"]},
    ])
    def test_metadata_types_checked(self, capsys, tmp_path, metadata):
        data = fan_to_dict(catalog_entry("p2").fan)
        data["metadata"] = metadata
        path = tmp_path / "bad_metadata.json"
        path.write_text(json.dumps(data))
        code, out, err = run(capsys, "validate", str(path))
        assert code == 2
        assert out == ""
        assert f"metadata {next(iter(metadata))} must be" in err


class TestReport:
    def test_p2(self, capsys, p2_file):
        code, report, _ = run_json(capsys, "report", p2_file)
        assert code == 0
        assert report["relation_lattice"]["basis"] == [["1", "1", "1"]]
        inc = report["filtration"]["inclusive"]
        assert inc["depths"][0]["depth"] == 1
        assert report["complete"] is True
        assert report["class_group"] == {"free_rank": 1, "torsion": []}

    def test_p2xp1_policy_both_discrepancy(self, capsys, p2xp1_file):
        code, report, _ = run_json(capsys, "report", p2xp1_file, "--policy", "both",
                                   "--max-coeff", "3")
        assert code == 0
        inc = {tuple(d["relation"]): d["depth"] for d in report["filtration"]["inclusive"]["depths"]}
        exc = {tuple(d["relation"]): d["depth"] for d in report["filtration"]["exclusive"]["depths"]}
        r1 = ("1", "1", "1", "0", "0")
        assert inc[r1] == 1
        assert exc[r1] == 2
        assert any(tuple(d["relation"]) == r1 for d in report["discrepancies"])
        for block in report["filtration"].values():
            for entry in block["depths"]:
                if entry["depth"] != "unreachable":
                    assert entry["oracle_confirmed"] is True

    def test_halfplane(self, capsys, tmp_path):
        path = tmp_path / "halfplane2.json"
        path.write_text(json.dumps(fan_to_dict(catalog_entry("halfplane2").fan)))
        code, report, _ = run_json(capsys, "report", str(path))
        assert code == 0
        assert report["ray_lattice"]["index"] == "2"
        assert report["complete"] is False

    def test_trusted_folded_fan_not_complete(self, capsys, tmp_path):
        path = tmp_path / "folded.json"
        path.write_text(json.dumps({
            "rank": 2, "rays": [[1, 0], [0, 1], [1, 1]],
            "maximal_cones": [[0, 1], [1, 2], [0, 2]],
        }))
        code, out, _ = run(capsys, "report", str(path), "--trust")
        assert code == 0
        assert '"complete": false' in out


class TestDepthCommand:
    def test_oracle_confirmed(self, capsys, p2_file):
        code, report, _ = run_json(capsys, "depth", p2_file,
                                   "--relation", "1,1,1", "--max-coeff", "3")
        assert code == 0
        assert report["results"]["inclusive"]["depth"] == 1
        assert report["results"]["inclusive"]["oracle_confirmed"] is True
        assert report["results"]["exclusive"]["depth"] == "unreachable"

    def test_non_relation(self, capsys, p2_file):
        code, _, err = run(capsys, "depth", p2_file, "--relation", "1,0,0")
        assert code == 1
        assert "not a relation" in err

    @pytest.mark.parametrize("name, relation, inclusive, exclusive, built", [
        # Level 0 of a simplicial fan is zero, so a nonzero relation never
        # builds it alone. Inclusive depth 1 is certified by a codim-1 star
        # support; an unreachable exclusive depth needs every level.
        ("p3", "1,1,1,1", 1, "unreachable", {"inclusive": set(), "exclusive": {0, 1, 2, 3}}),
        # The exclusive level 1 rejects the relation; depth 2 is certified.
        ("p2xp1", "1,1,1,0,0", 1, 2, {"inclusive": set(), "exclusive": {0, 1}}),
        ("p2xp1", "0,0,0,1,1", 1, 1, {"inclusive": set(), "exclusive": set()}),
        ("sigma_c", "1,0,1,0,2", 1, 2, {"inclusive": set(), "exclusive": {0, 1}}),
    ])
    def test_levels_built(self, capsys, tmp_path, monkeypatch, name, relation,
                          inclusive, exclusive, built):
        levels = _spy(monkeypatch, "fanlat.filtration", "_build_level")
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(fan_to_dict(catalog_entry(name).fan)))
        code, report, _ = run_json(capsys, "depth", str(path), "--relation", relation,
                                   "--policy", "both")
        assert code == 0
        assert report["results"] == {"inclusive": {"relation": relation.split(","),
                                                   "depth": inclusive},
                                     "exclusive": {"relation": relation.split(","),
                                                   "depth": exclusive}}
        got = {"inclusive": set(), "exclusive": set()}
        for _, (policy, k) in levels:
            got[policy.value].add(k)
        assert got == built

    def test_oracle_builds_the_levels_it_reads(self, capsys, p2xp1_file, monkeypatch):
        levels = _spy(monkeypatch, "fanlat.filtration", "_build_level")
        code, report, _ = run_json(capsys, "depth", p2xp1_file, "--relation", "1,1,1,0,0",
                                   "--policy", "inclusive", "--max-coeff", "2")
        assert code == 0
        assert report["results"]["inclusive"]["oracle_confirmed"] is True
        assert sorted(k for _, (_, k) in levels) == [0, 1]

    @pytest.mark.parametrize("command, options", [
        ("depth", ("--relation", "1,1,1,0,0")),
        ("report", ()),
    ])
    def test_negative_max_coeff_is_a_usage_error(self, capsys, p2xp1_file, command, options):
        code, out, err = run(capsys, command, p2xp1_file, *options, "--max-coeff", "-1")
        assert (code, out) == (2, "")
        assert "nonnegative" in err

    def test_oversized_oracle_search_exits_1(self, capsys, p2xp1_file):
        code, out, err = run(capsys, "depth", p2xp1_file, "--relation", "1,1,1,0,0",
                             "--max-coeff", "10000")
        assert (code, out) == (1, "")
        assert err == "error: enumeration space too large for the brute-force check\n"

    def test_errors_come_from_the_first_policy(self, capsys, p2xp1_file, monkeypatch):
        levels = _spy(monkeypatch, "fanlat.filtration", "_build_level")
        for relation, message in (("0,0,0,0,0", "zero relation"),
                                  ("1,0,0,0,0", "is not a relation"),
                                  ("1,1", "does not match")):
            code, out, err = run(capsys, "depth", p2xp1_file, "--relation", relation,
                                 "--policy", "exclusive")
            assert (code, out) == (1, "")
            assert message in err and err.count("\n") == 1
        assert levels == []


class TestDecompose:
    def test_single_relation(self, capsys, p2_file):
        code, report, _ = run_json(capsys, "decompose", p2_file, "--relation", "1,1,1")
        assert code == 0
        result = report["results"][0]
        assert len(result["pieces"]) == 1
        assert result["checks"] == {"sum_matches": True, "pieces_are_relations": True}

    def test_defaults_to_basis(self, capsys, p2xp1_file):
        code, report, _ = run_json(capsys, "decompose", p2xp1_file)
        assert code == 0
        assert len(report["results"]) == 2
        for result in report["results"]:
            assert result["checks"]["sum_matches"] is True
            assert result["checks"]["pieces_are_relations"] is True

    def test_non_relation(self, capsys, p2_file):
        code, _, err = run(capsys, "decompose", p2_file, "--relation", "1,0,0")
        assert code == 1
        assert "not a relation" in err

    def test_non_complete(self, capsys, tmp_path):
        path = tmp_path / "halfplane2.json"
        path.write_text(json.dumps(fan_to_dict(catalog_entry("halfplane2").fan)))
        code, _, err = run(capsys, "decompose", str(path), "--relation", "0,0")
        assert code == 1

    @pytest.mark.parametrize("name, message", [
        ("p2", "vector length 0 does not match 3 rays"),
        ("halfplane2", "local decomposition requires a complete fan"),
    ])
    def test_empty_relation_is_a_relation_argument(self, capsys, tmp_path, name, message):
        # An empty --relation is the length-0 vector, not a request for the basis.
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(fan_to_dict(catalog_entry(name).fan)))
        code, out, err = run(capsys, "decompose", str(path), "--relation", "")
        assert (code, out) == (1, "")
        assert err == f"error: {message}\n"

    def test_p2_refinement_decomposes(self, capsys, p2_refined_file):
        code, report, _ = run_json(capsys, "decompose", p2_refined_file,
                                   "--relation", "1,0,0,0,0,0,1")
        assert code == 0
        assert report["results"][0]["checks"] == {"sum_matches": True,
                                                  "pieces_are_relations": True}

    def test_wrong_solve_stops_at_the_library_check(self, capsys, monkeypatch, p2_refined_file):
        # The report's checks are the outcome of local_decompose's own
        # check, so a solve that returns a wrong coefficient vector stops
        # the command with no report.
        filtration_module = importlib.import_module("fanlat.filtration")
        real = filtration_module.solve_factored

        def wrong(factor, target):
            coeffs = real(factor, target)
            return (coeffs[0] + 1,) + coeffs[1:]

        monkeypatch.setattr(filtration_module, "solve_factored", wrong)
        code, out, err = run(capsys, "decompose", p2_refined_file)
        assert (code, out) == (3, "")
        assert err == "internal error: pieces do not sum to the relation\n"

    def test_parser_reuse_keeps_calls_apart(self, capsys, p2xp1_file):
        code, report, _ = run_json(capsys, "decompose", p2xp1_file, "--relation", "0,0,0,1,1")
        assert code == 0
        assert [r["relation"] for r in report["results"]] == [["0", "0", "0", "1", "1"]]
        code, report, _ = run_json(capsys, "decompose", p2xp1_file)
        assert code == 0
        basis = [[str(x) for x in r] for r in rel_lattice(load_fan(p2xp1_file)).basis_rows]
        assert len(basis) == 2
        assert [r["relation"] for r in report["results"]] == basis
        code, _, err = run(capsys, "decompose", p2xp1_file, "--relation", "x")
        assert code == 2
        assert "comma-separated integer list" in err
        code, report, err = run_json(capsys, "decompose", p2xp1_file)
        assert code == 0 and err == ""
        assert [r["relation"] for r in report["results"]] == basis

    def test_not_locally_generated_exits_1(self, capsys, tmp_path):
        path = tmp_path / "hexagon.json"
        path.write_text(json.dumps({
            "rank": 2,
            "rays": [[-2, -1], [-1, -2], [1, -2], [1, 0], [1, 2], [-1, 2]],
            "maximal_cones": [[0, 1], [1, 2], [2, 3], [3, 4], [4, 5], [0, 5]],
        }))
        code, out, err = run(capsys, "decompose", str(path), "--relation", "2,0,0,1,2,-1")
        assert code == 1
        assert out == ""
        assert "outside inclusive filtration level 1" in err


class TestLocalize:
    def test_codim_one_cone(self, capsys, p2xp1_file):
        code, report, _ = run_json(capsys, "localize", p2xp1_file, "--cone", "0,3")
        assert code == 0
        assert report["quotient_rank"] == 1
        assert report["localized_relations"]["basis"] == [["1", "1"]]

    def test_missing_cone(self, capsys, p2xp1_file):
        # rays 3 and 4 are the two poles; no cone contains both
        code, _, err = run(capsys, "localize", p2xp1_file, "--cone", "3,4")
        assert code == 1

    def test_zero_cone(self, capsys, p2xp1_file):
        code, report, _ = run_json(capsys, "localize", p2xp1_file, "--cone", "")
        assert code == 0
        assert report["quotient_rank"] == 3
        assert report["localized_relations"]["rank"] == 2

    def test_one_run_builds_the_quotient_fan_once(self, capsys, monkeypatch, p2xp1_file):
        real = importlib.import_module("fanlat.fan").localize
        calls = []

        def recorder(fan, tau):
            calls.append(tau.ray_indices)
            return real(fan, tau)

        for module in ("fanlat.cli", "fanlat.lattices"):
            monkeypatch.setattr(importlib.import_module(module), "localize", recorder)
        code, report, _ = run_json(capsys, "localize", p2xp1_file, "--cone", "3")
        assert code == 0
        assert report["localized_relations"]["ray_labels"] == [0, 1, 2]
        assert calls == [(3,)]


class TestSubdivide:
    def test_blowup(self, capsys, p2_file, tmp_path):
        out_path = str(tmp_path / "after.json")
        code, report, _ = run_json(capsys, "subdivide", p2_file,
                                   "--cone", "0,1", "--ray", "1,1", "--out", out_path)
        assert code == 0
        assert report["after_fan"]["rays"] == [[1, 0], [0, 1], [-1, -1], [1, 1]]
        for rec in report["records"]:
            if rec["depth_before"] != "unreachable" and rec["depth_after"] != "unreachable":
                assert rec["depth_after"] <= rec["depth_before"]
        saved = json.loads(open(out_path).read())
        assert saved == report["after_fan"]

    def test_existing_ray(self, capsys, p2_file):
        code, _, err = run(capsys, "subdivide", p2_file, "--cone", "0,1", "--ray", "1,0")
        assert code == 1

    @pytest.mark.parametrize("ray", ["1,1,1", "1"])
    def test_wrong_length_ray(self, capsys, p2_file, ray):
        code, out, err = run(capsys, "subdivide", p2_file, "--cone", "0,1", "--ray", ray)
        assert code == 1
        assert out == ""
        assert "does not have length 2" in err

    def test_zero_ray(self, capsys, p2_file):
        code, out, err = run(capsys, "subdivide", p2_file, "--cone", "0,1", "--ray", "0,0")
        assert code == 1
        assert out == ""
        assert err == "error: zero ray\n"


class TestVectorOptions:
    """--relation, --cone and --ray read a negative value after a space, and no empty item."""

    @pytest.mark.parametrize("argv", [
        ["subdivide", "{p2}", "--cone", "1,2", "--policy", "both", "--ray", "-1,0"],
        ["depth", "{p2}", "--relation", "-1,-1,-1"],
        ["decompose", "{p2}", "--relation", "-1,-1,-1"],
        ["localize", "{p2}", "--cone", "-1,0"],
    ])
    def test_space_form_prints_what_the_equals_form_prints(self, capsys, p2_file, argv):
        spaced = [a.format(p2=p2_file) for a in argv]
        joined = spaced[:-2] + [f"{spaced[-2]}={spaced[-1]}"]
        code, out, err = run(capsys, *spaced)
        assert (code, out, err) == run(capsys, *joined)
        assert "expected one argument" not in err
        assert out or err.startswith("error: ")

    def test_space_form_runs_the_subdivision(self, capsys, p2_file):
        code, report, _ = run_json(capsys, "subdivide", p2_file, "--cone", "1,2", "--ray", "-1,0")
        assert code == 0
        assert report["after_fan"]["rays"][-1] == [-1, 0]

    @pytest.mark.parametrize("value", ["-1,x", "-x", "-1,,1"])
    def test_a_value_that_is_no_integer_list_stays_an_option(self, capsys, p2_file, value):
        code, out, err = run(capsys, "depth", p2_file, "--relation", value)
        assert code == 2
        assert out == ""
        assert err.endswith("error: argument --relation: expected one argument\n")

    def test_nothing_after_a_double_dash_is_joined(self):
        assert cli_module._join_vector_values(["--ray", "-1,0", "--", "--ray", "-1,0"]) == [
            "--ray=-1,0", "--", "--ray", "-1,0"]

    @pytest.mark.parametrize("value", ["1,,1,1", "1,1,", ",1,1,1", ","])
    def test_an_empty_item_is_a_usage_error(self, capsys, p2_file, value):
        code, out, err = run(capsys, "depth", p2_file, f"--relation={value}")
        assert code == 2
        assert out == ""
        assert err.endswith(f"error: argument --relation: expected a comma-separated integer "
                            f"list, got {value!r}\n")
        assert "Traceback" not in err


class TestUnwritableOutput:
    @pytest.mark.parametrize("argv", [["relations", "{fan}"], ["report", "{fan}"],
                                      ["catalog", "export", "p2"]])
    def test_json_mirror(self, capsys, p2_file, tmp_path, argv):
        target = tmp_path / "missing" / "x.json"
        code, out, err = run(capsys, *[a.format(fan=p2_file) for a in argv],
                             "--json", str(target))
        assert code == 2
        assert out == ""  # no report when its mirror cannot be written
        assert err.startswith(f"error: cannot write {target}: ")
        assert err.count("\n") == 1

    def test_subdivide_out(self, capsys, p2_file, tmp_path):
        target = tmp_path / "missing" / "y.json"
        code, out, err = run(capsys, "subdivide", p2_file, "--cone", "0,1", "--ray", "1,1",
                             "--out", str(target))
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: cannot write {target}: ")
        assert err.count("\n") == 1

    def test_subdivide_out_is_not_written_when_the_mirror_fails(self, capsys, p2_file,
                                                                 tmp_path):
        out_path = tmp_path / "after.json"
        target = tmp_path / "missing" / "x.json"
        code, out, err = run(capsys, "subdivide", p2_file, "--cone", "0,1", "--ray", "1,1",
                             "--out", str(out_path), "--json", str(target))
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: cannot write {target}: ")
        assert not out_path.exists()

    def test_subdivide_out_matches_save_fan(self, capsys, p2_file, tmp_path):
        out_path = tmp_path / "after.json"
        mirror = tmp_path / "mirror.json"
        code, out, _ = run(capsys, "subdivide", p2_file, "--cone", "0,1", "--ray", "1,1",
                           "--out", str(out_path), "--json", str(mirror))
        assert code == 0
        assert mirror.read_text() == out
        fan = load_fan(p2_file)
        expected = tmp_path / "expected.json"
        save_fan(stellar_subdivide(fan, fan.cone((0, 1)), (1, 1)), str(expected))
        assert out_path.read_bytes() == expected.read_bytes()

    def test_json_mirror_matches_stdout(self, capsys, p2_file, tmp_path):
        target = tmp_path / "mirror.json"
        code, out, _ = run(capsys, "conjecture", p2_file, "--trials", "40", "--seed", "2",
                           "--json", str(target))
        assert code == 0
        assert target.read_text() == out


class TestConjecture:
    def test_deterministic_bytes(self, capsys, p2xp1_file):
        args = ("conjecture", p2xp1_file, "--policy", "exclusive",
                "--trials", "100", "--seed", "7")
        code1, out1, _ = run(capsys, *args)
        code2, out2, _ = run(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_zero_trials(self, capsys, p2_file):
        code, report, _ = run_json(capsys, "conjecture", p2_file, "--trials", "0")
        assert code == 0
        assert report["completed_trials"] == 0
        assert report["traces"] == []

    def test_policy_both_rejected(self, capsys, p2_file):
        code, _, err = run(capsys, "conjecture", p2_file, "--policy", "both")
        assert code == 2

    def test_negative_trials_rejected(self, capsys, p2_file):
        code, out, err = run(capsys, "conjecture", p2_file, "--trials", "-3")
        assert code == 2
        assert out == ""
        assert "nonnegative" in err

    @pytest.mark.parametrize("seed", [("--seed", "-7"), ("--seed=-7",)])
    def test_negative_seed_rejected(self, capsys, p2_file, seed):
        # random.Random seeds from abs(seed): -7 would print the scan of 7.
        code, out, err = run(capsys, "conjecture", p2_file, "--trials", "20", *seed)
        assert (code, out) == (2, "")
        assert "nonnegative" in err


class TestClassgroupAndRelations:
    def test_classgroup_torsion(self, capsys, tmp_path):
        path = tmp_path / "halfplane2.json"
        path.write_text(json.dumps(fan_to_dict(catalog_entry("halfplane2").fan)))
        code, report, _ = run_json(capsys, "classgroup", str(path))
        assert code == 0
        assert report["class_group"] == {"free_rank": 0, "torsion": ["2"]}

    def test_relations(self, capsys, p2xp1_file):
        code, report, _ = run_json(capsys, "relations", p2xp1_file)
        assert code == 0
        assert report["relation_lattice"]["rank"] == 2

    def test_filtration_command(self, capsys, p2_file):
        code, report, _ = run_json(capsys, "filtration", p2_file, "--policy", "inclusive")
        assert code == 0
        assert report["filtration"]["inclusive"]["level_ranks"] == [0, 1, 1]


class TestCatalog:
    def test_list(self, capsys):
        code, report, _ = run_json(capsys, "catalog")
        assert code == 0
        assert "p2xp1" in report["entries"]

    def test_export_round_trip(self, capsys, tmp_path):
        code, exported, _ = run_json(capsys, "catalog", "export", "p2")
        assert code == 0
        path = tmp_path / "exported.json"
        path.write_text(json.dumps(exported))
        code, report, _ = run_json(capsys, "validate", str(path))
        assert code == 0
        assert report["valid"] is True

    def test_export_unknown(self, capsys):
        code, _, err = run(capsys, "catalog", "export", "nope")
        assert code == 2

    def test_usage_error_exit_code(self, capsys):
        assert main(["no-such-command"]) == 2


class TestOneAnalysisPerFan:
    """Star kernels are computed once per fan, however many commands read them."""

    @pytest.fixture
    def kernel_supports(self, monkeypatch):
        lattices = importlib.import_module("fanlat.lattices")
        real = lattices._embedded_kernel
        supports = []

        def spy(fan, support):
            supports.append(tuple(support))
            return real(fan, support)

        monkeypatch.setattr(lattices, "_embedded_kernel", spy)
        return supports

    def test_report_computes_each_star_kernel_once(self, capsys, p2xp1_file,
                                                    kernel_supports):
        code, _, _ = run(capsys, "report", "--policy", "both", "--trust", p2xp1_file)
        assert code == 0
        fan = load_fan(p2xp1_file, trust=True)
        expected = Counter()
        for cone in fan.cones:
            if cone.ray_indices:
                ray_set = star(fan, cone)[1]
                expected[ray_set] += 1  # inclusive
                expected[tuple(i for i in ray_set if i not in cone.ray_indices)] += 1
        assert kernel_supports
        assert Counter(kernel_supports) <= expected

    def test_decompose_computes_each_ray_kernel_once(self, capsys, p2_refined_file,
                                                     kernel_supports):
        code, report, _ = run_json(capsys, "decompose", p2_refined_file)
        assert code == 0
        assert len(report["results"]) == 5
        fan = load_fan(p2_refined_file)
        # The relation lattice is the kernel over every ray; each ray's star
        # kernel is built at most once, however many rays share its star.
        expected = Counter({tuple(range(len(fan.rays))),
                            *(star(fan, fan.cone((i,)))[1] for i in range(len(fan.rays)))})
        assert kernel_supports
        assert Counter(kernel_supports) <= expected


class TestScanBuildsOnlyWhatItReads:
    """A scan builds only what its depths need, and never a star."""

    def test_conjecture_on_p3(self, capsys, tmp_path, monkeypatch):
        kernels = _spy(monkeypatch, "fanlat.lattices", "_embedded_kernel")
        levels = _spy(monkeypatch, "fanlat.filtration", "_build_level")
        compared = _spy(monkeypatch, "fanlat.refine", "compare_depths")
        stars = _spy(monkeypatch, "fanlat.fan", "_star")
        path = tmp_path / "p3.json"
        path.write_text(json.dumps(fan_to_dict(catalog_entry("p3").fan)))
        code, report, _ = run_json(capsys, "conjecture", str(path), "--trials", "20")
        assert code == 0
        assert report["completed_trials"] == 20
        assert all(rec["depth_after"] == 1 for tr in report["traces"] for rec in tr["records"])
        # Every depth is 1, certified by the support of a codim-1 star, and
        # level 0 holds no nonzero relation: no fan builds a level or a
        # star kernel. The one kernel is the base fan's relation lattice,
        # whose basis the scan draws relations from.
        assert [(fan.name, args) for fan, args in kernels] == [("p3", ((0, 1, 2, 3),))]
        assert levels == []
        # One refined fan per distinct draw; the scan repeats some draws.
        draws = {(tuple(tr["cone"]), tuple(tr["new_ray"])) for tr in report["traces"]}
        refined = {id(args[0]) for _, args in compared}
        assert len(compared) == len(refined) == len(draws) < report["completed_trials"]
        # The certificates read the star-set tables, which a simplicial fan
        # fills from its maximal cones without building a single star.
        assert stars == []


def _projective_space_file(tmp_path, n):
    """A fan file of P^n: the unit vectors and minus their sum, any n of them a maximal cone."""
    rays = [[int(i == j) for j in range(n)] for i in range(n)] + [[-1] * n]
    maximal = [[j for j in range(n + 1) if j != i] for i in range(n + 1)]
    path = tmp_path / f"p{n}.json"
    path.write_text(json.dumps({"rank": n, "rays": rays, "maximal_cones": maximal}))
    return str(path)


class TestFacesOnDemand:
    """Commands that read only the maximal cones and star sets never list a fan's faces.

    P^n has 2^n faces per maximal cone, so listing them at load made
    these commands exponential in the rank. localize and subdivide look
    one cone up, in the star-set table of its codimension.
    """

    @pytest.mark.parametrize("n", [20, 22])
    def test_projective_space(self, capsys, tmp_path, monkeypatch, n):
        path = _projective_space_file(tmp_path, n)
        loaded = []

        def recording_load_fan(*args, **kwargs):
            loaded.append(load_fan(*args, **kwargs))
            return loaded[-1]

        monkeypatch.setattr(cli_module, "load_fan", recording_load_fan)
        reports = {}
        ray = ",".join(["1", "1"] + ["0"] * (n - 2))
        for command, *options in (("relations",), ("classgroup",), ("validate",), ("decompose",),
                                  ("report", "--policy", "inclusive"), ("localize", "--cone", "0"),
                                  ("subdivide", "--cone", "0,1", "--ray", ray,
                                   "--policy", "inclusive")):
            start = time.perf_counter()
            code, reports[command], err = run_json(capsys, command, path, *options)
            assert time.perf_counter() - start < 5, command
            assert code == 0, (command, err)
        assert "validation: full" in reports["validate"]["findings"]
        assert len(reports["localize"]["quotient_rays"]) == n
        # The n - 1 maximal cones holding (0, 1) each split in two.
        assert len(reports["subdivide"]["after_fan"]["maximal_cones"]) == 2 * n
        assert len(loaded) == 7
        assert all("faces" not in fan._cones.memo for fan in loaded)


def test_report_computes_each_depth_once(capsys, p2xp1_file, monkeypatch):
    filtration_module = importlib.import_module("fanlat.filtration")
    real = filtration_module.FiltrationProfile.depth_of
    asked = Counter()

    def depth_of(profile, relation):
        asked[profile.policy, tuple(relation)] += 1
        return real(profile, relation)

    monkeypatch.setattr(filtration_module.FiltrationProfile, "depth_of", depth_of)
    code, report, _ = run_json(capsys, "report", p2xp1_file, "--policy", "both")
    assert code == 0
    assert report["discrepancies"] == [{
        "relation": ["1", "1", "1", "0", "0"], "inclusive_depth": 1, "exclusive_depth": 2,
        "note": ("support policies disagree: inclusive counts every star ray, "
                 "exclusive drops the cone's own rays")}]
    assert len(asked) == 2 * report["relation_lattice"]["rank"]
    assert set(asked.values()) == {1}


def test_json_flag_mirrors_stdout(capsys, p2_file, tmp_path):
    mirror = tmp_path / "report.json"
    code, out, _ = run(capsys, "report", p2_file, "--json", str(mirror))
    assert code == 0
    assert mirror.read_text() == out

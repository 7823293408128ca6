import importlib
import json
from collections import Counter

import pytest

from fanlat.cli import main
from fanlat.corpus import catalog_entry
from fanlat.fan import star
from fanlat.fanio import fan_to_dict, load_fan


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

    def test_p2_refinement_decomposes(self, capsys, p2_refined_file):
        code, report, _ = run_json(capsys, "decompose", p2_refined_file,
                                   "--relation", "1,0,0,0,0,0,1")
        assert code == 0
        assert report["results"][0]["checks"] == {"sum_matches": True,
                                                  "pieces_are_relations": True}

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
        expected = Counter(star(fan, fan.cone((i,)))[1] for i in range(len(fan.rays)))
        assert kernel_supports
        assert Counter(kernel_supports) <= expected


class TestScanBuildsOnlyWhatItReads:
    """A scan builds only the star kernels its depths need, and reuses untouched ones."""

    def test_conjecture_on_p3(self, capsys, tmp_path, monkeypatch):
        lattices = importlib.import_module("fanlat.lattices")
        real = lattices._star_kernel
        built = []

        def spy(fan, tau, policy):
            built.append((fan, tau))
            return real(fan, tau, policy)

        monkeypatch.setattr(lattices, "_star_kernel", spy)
        path = tmp_path / "p3.json"
        path.write_text(json.dumps(fan_to_dict(catalog_entry("p3").fan)))
        code, report, _ = run_json(capsys, "conjecture", str(path), "--trials", "20")
        assert code == 0
        assert report["completed_trials"] == 20
        assert all(rec["depth_after"] == 1 for tr in report["traces"] for rec in tr["records"])
        # Every depth is 1: no codim-0 (maximal) or codim-2 (ray) kernel is needed.
        assert built and all(tau.codim == 1 for _, tau in built)
        parents = [fan for fan, _ in built if len(fan.rays) == 4]
        assert len(parents) == len({tau for fan, tau in built if len(fan.rays) == 4}) == 6
        refined = [(fan, tau) for fan, tau in built if len(fan.rays) == 5]
        assert len({id(fan) for fan, _ in refined}) == 20
        for fan, tau in refined:
            # The new ray is last; a star without it is the parent's.
            assert len(fan.rays) - 1 in star(fan, tau)[1], tau


def test_json_flag_mirrors_stdout(capsys, p2_file, tmp_path):
    mirror = tmp_path / "report.json"
    code, out, _ = run(capsys, "report", p2_file, "--json", str(mirror))
    assert code == 0
    assert mirror.read_text() == out

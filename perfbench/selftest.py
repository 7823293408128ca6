"""Self-tests of the benchmark harness (not of fanlat).

    python3 perfbench/selftest.py

Checks that every metric named in BENCHMARK.json is emitted with its
unit, that tampered outputs are caught as failures, that one seed gives
byte-identical fan files, and that the oracle reproduces the catalog's
frozen invariants. Uses shrunken corpora, so it runs in well under a
minute.
"""

import sys

sys.dont_write_bytecode = True

import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import unittest  # noqa: E402
from unittest import mock  # noqa: E402

import run  # noqa: E402  (puts perfbench/ and src/ on sys.path)
import checks  # noqa: E402
import corpus  # noqa: E402
from oracle import FanFacts  # noqa: E402

OUT = os.path.join(run.ROOT, ".perfbench", "selftest")
TINY = {"GROWTH": {"report": [("p3", 8, 1)], "scan": [("p2xp1", 7, 1)],
                   "decompose": [("p2xp1", 8, 1)]},
        "SCAN_CATALOG_OPS": 1, "SCAN_CATALOG_TRIALS": dict.fromkeys(corpus.COMPLETE_CATALOG, 3)}


def tiny():
    return mock.patch.multiple(corpus, **TINY)


def fresh(name):
    path = os.path.join(OUT, name)
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def execute(op, workdir):
    cli = run.import_fanlat()
    corpus.write([op], workdir)
    result = run.run_op(cli, op.argv(workdir))
    assert result.code == 0 and result.crash is None, result.stderr
    return result.stdout


def catalog_op(name, args):
    rank, rays, maximal, complete = corpus.CATALOG[name]
    return corpus.Op(name, f"{name}.json", args, corpus.fan_dict(name, rank, rays, maximal),
                     complete, name)


class Metrics(unittest.TestCase):
    def test_every_metric_is_emitted_with_its_unit(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            spec = json.load(fh)
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            want = {m["name"]: m["unit"] for m in spec[key]}
            for workload in run.WORKLOADS:
                with tiny():
                    result = run.run(workload, 7, 0.0, trace, fresh(f"metrics-{workload}-{trace}"))
                got = {name: unit for name, (value, unit) in result["metrics"].items()}
                self.assertEqual(got, want, (workload, key))
                for name, (value, unit) in result["metrics"].items():
                    self.assertIsInstance(value, (int, float), name)
                    self.assertNotIsInstance(value, bool, name)
                    self.assertTrue(math.isfinite(value), name)
                self.assertTrue(result["correct"], workload)
                self.assertGreaterEqual(result["attempted"], 1)

    def test_failure_count_does_not_depend_on_passes(self):
        one = [[True, False, True, False]]
        self.assertEqual(run.failed_ops(one), 2)
        self.assertEqual(run.failed_ops(one * 3), 2)
        self.assertEqual(run.failed_ops([[True] * 4, [True, True, False, True]]), 1)

    def test_failed_op_is_charged_the_slowest_op_of_the_run(self):
        got = run.charged([1.0, 3.0, 0.1, 2.0, 0.2], [True, True, False, True, False])
        self.assertEqual(got, [1.0, 3.0, 3.0, 2.0, 3.0])

    def test_failed_executions_are_charged_like_their_op(self):
        passes = [[run.OpRun(0, t, "", "", None, False) for t in ts]
                  for ts in ([0.5, 0.1, 2.0], [0.7, 0.2, 1.0])]
        ok = [[True, False, True], [True, False, True]]
        per_op = run.op_seconds([None] * 3, passes, ok)
        self.assertEqual(per_op, [0.6, 1.5, 1.5])
        self.assertEqual(run.execution_seconds([None] * 3, passes, ok, per_op),
                         [0.5, 1.5, 2.0, 0.7, 1.5, 1.0])

    def test_fast_failure_never_lowers_time_metrics(self):
        # One op per fan file (report, decompose): each op's success time
        # is replaced by a fast failure in turn, the slowest op included.
        success = [0.4, 2.5, 0.9, 1.7, 0.6]
        for i in range(len(success)):
            seconds = list(success)
            seconds[i] = 0.01
            ok = [j != i for j in range(len(success))]
            got = run.charged(seconds, ok)
            runner_up = sorted(success)[-2]
            self.assertGreaterEqual(got[i], min(success[i], runner_up), i)
            self.assertGreaterEqual(sum(got), sum(success) - (success[i] - runner_up), i)
            if success[i] != max(success):
                self.assertGreaterEqual(sum(got), sum(success), i)
                self.assertGreaterEqual(statistics.median(got), statistics.median(success), i)


class Tampering(unittest.TestCase):
    def assertCaught(self, command, op, text, mutate):
        ok, _ = checks.check(command, text, op, {})
        self.assertEqual(ok, [], "untampered output must pass")
        out = json.loads(text)
        mutate(out)
        bad, _ = checks.check(command, json.dumps(out), op, {})
        self.assertTrue(bad, "tampered output was not caught")

    def test_report(self):
        op = catalog_op("p2xp1", ("report", "--policy", "both", "--trust"))
        text = execute(op, fresh("tamper-report"))

        def wrong_relation(out):
            out["relation_lattice"]["basis"][0][0] = "2"

        def wrong_depth(out):
            out["filtration"]["exclusive"]["depths"][0]["depth"] = 1

        def wrong_class_group(out):
            out["class_group"]["torsion"] = ["2"]

        def wrong_level_rank(out):
            out["filtration"]["inclusive"]["level_ranks"][1] += 1

        for mutate in (wrong_relation, wrong_depth, wrong_class_group, wrong_level_rank):
            with self.subTest(mutate.__name__):
                self.assertCaught("report", op, text, mutate)

    def test_validation_field_is_not_checked(self):
        op = catalog_op("p3", ("report", "--policy", "both", "--trust"))
        out = json.loads(execute(op, fresh("tamper-validation")))
        out["fan"]["validation"] = "partial"
        self.assertEqual(checks.check("report", json.dumps(out), op, {})[0], [])

    def test_decompose(self):
        rank, rays, maximal, _ = corpus.base_fan("p3")
        grown, grown_max = corpus.grow(rank, rays, maximal, 10, random.Random(5))
        fan = corpus.fan_dict("p3-grown", rank, grown, grown_max)
        facts = FanFacts(fan)
        op = corpus.Op("p3-grown", "p3-grown.json", ("decompose", "--trust"), fan, True, "p3")
        text = execute(op, fresh("tamper-decompose"))
        self.assertEqual(len(json.loads(text)["results"]), facts.m - facts.rank)

        def piece_outside_star(out):
            for res in out["results"]:
                for piece in res["pieces"]:
                    support = {j for j, x in enumerate(piece["vector"]) if x != "0"}
                    for i in range(facts.m):
                        if not support <= facts.star_rays((i,)):
                            piece["ray"] = i
                            return
            raise AssertionError("every piece fits in every star; pick another fan")

        def wrong_piece_entry(out):
            vec = out["results"][0]["pieces"][0]["vector"]
            vec[0] = str(int(vec[0]) + 1)

        def dropped_piece(out):
            out["results"][-1]["pieces"].pop()

        def other_relation(out):
            out["results"][0]["relation"][0] = str(int(out["results"][0]["relation"][0]) + 1)

        def dropped_relation(out):
            out["results"].pop()

        for mutate in (piece_outside_star, wrong_piece_entry, dropped_piece, other_relation,
                       dropped_relation):
            with self.subTest(mutate.__name__):
                self.assertCaught("decompose", op, text, mutate)

    def test_conjecture(self):
        op = catalog_op("p2xp1", ("conjecture", "--policy", "inclusive", "--trials", "4",
                                  "--seed", "5"))
        text = execute(op, fresh("tamper-conjecture"))

        def wrong_depth_after(out):
            rec = out["traces"][0]["records"][0]
            rec["depth_after"] = 2 if rec["depth_after"] != 2 else 1

        def ray_outside_cone(out):
            out["traces"][0]["new_ray"] = ["5", "-7", "1"]

        def wrong_violation_count(out):
            out["violations"] += 1

        for mutate in (wrong_depth_after, ray_outside_cone, wrong_violation_count):
            with self.subTest(mutate.__name__):
                self.assertCaught("conjecture", op, text, mutate)


class Corpus(unittest.TestCase):
    def files(self, path):
        out = {}
        for name in sorted(os.listdir(path)):
            with open(os.path.join(path, name), "rb") as fh:
                out[name] = fh.read()
        return out

    def test_same_seed_same_bytes(self):
        for workload in run.WORKLOADS:
            a, b = fresh(f"corpus-{workload}-a"), fresh(f"corpus-{workload}-b")
            da = corpus.write(corpus.build(workload, 11), a)
            db = corpus.write(corpus.build(workload, 11), b)
            self.assertEqual(da, db)
            self.assertEqual(self.files(a), self.files(b))
            other = corpus.write(corpus.build(workload, 12), fresh(f"corpus-{workload}-c"))
            self.assertNotEqual(da, other)

    def test_grown_fans_are_recorded(self):
        ops = corpus.build("decompose", 3)
        for op in ops:
            rec = op.record()
            self.assertEqual(rec["rays"], int(op.name.split("-r")[1].split("-")[0]))
            self.assertGreaterEqual(rec["max_abs_entry"], 1)
        # one op per fan file, asking for all basis relations
        self.assertEqual(len({op.file for op in ops}), len(ops))
        self.assertTrue(all(op.argv_tail == ("decompose", "--trust") for op in ops))


class Oracle(unittest.TestCase):
    def test_catalog_invariants(self):
        run.import_fanlat()
        from fanlat.corpus import catalog  # frozen, independently cross-checked values
        for entry in catalog():
            known = entry.known
            rank, rays, maximal, complete = corpus.CATALOG[entry.name]
            facts = FanFacts(corpus.fan_dict(entry.name, rank, rays, maximal))
            self.assertEqual(complete, known["complete"])
            self.assertEqual(facts.relations.canonical(), known["relation_basis"])
            self.assertEqual(facts.ray_lattice()[1], known["ray_lattice_index"])
            self.assertEqual(facts.class_group(), known["class_group"])
            for policy, depths in known["depths"].items():
                for relation, want in depths.items():
                    self.assertEqual(facts.depth(relation, policy), want,
                                     (entry.name, policy, relation))


if __name__ == "__main__":
    unittest.main()

import random

import pytest

import oracles
from fanlat.corpus import catalog, catalog_entry
from fanlat.errors import FanValidationError, NotARelationError
from fanlat.fan import build_fan, is_complete, star
from fanlat.filtration import filtration
from fanlat.lattices import SupportPolicy, rel_lattice, rel_lattice_star
from fanlat.refine import (conjecture_scan, random_stellar_draw,
                           refinement_injection, stellar_subdivide)

INC = SupportPolicy.INCLUSIVE
EXC = SupportPolicy.EXCLUSIVE


class TestStellarSubdivide:
    def test_p2_blowup(self):
        fan = catalog_entry("p2").fan
        refined = stellar_subdivide(fan, fan.cone((0, 1)), (1, 1))
        assert len(refined.rays) == 4
        assert len(refined.maximal_cones) == 4
        assert is_complete(refined)

    def test_existing_ray_rejected(self):
        fan = catalog_entry("p2").fan
        with pytest.raises(FanValidationError, match="already a ray"):
            stellar_subdivide(fan, fan.cone((0, 1)), (1, 0))

    def test_boundary_point_rejected(self):
        fan = catalog_entry("p3").fan
        # (1, 1, 0) sits on a proper face of the cone over rays 0, 1, 2
        with pytest.raises(FanValidationError, match="relative interior"):
            stellar_subdivide(fan, fan.cone((0, 1, 2)), (1, 1, 0))

    def test_outside_point_rejected(self):
        fan = catalog_entry("p2").fan
        with pytest.raises(FanValidationError, match="relative interior"):
            stellar_subdivide(fan, fan.cone((0, 1)), (-1, -2))

    def test_p3_maximal_cone_counts(self):
        fan = catalog_entry("p3").fan
        refined = stellar_subdivide(fan, fan.cone((0, 1, 2)), (1, 1, 1))
        assert len(refined.rays) == 5
        assert len(refined.maximal_cones) == 6
        assert is_complete(refined)

    def test_wrong_length_ray_rejected(self):
        fan = catalog_entry("p2").fan
        for w in ((1, 1, 1), (1,)):
            with pytest.raises(FanValidationError, match="does not have length 2"):
                stellar_subdivide(fan, fan.cone((0, 1)), w)

    def test_refined_fan_has_its_own_cache(self):
        fan = build_fan(2, [(1, 0), (0, 1), (-1, -1)], [(0, 1), (1, 2), (0, 2)])
        before = filtration(fan, INC)
        refined = stellar_subdivide(fan, fan.cone((0, 1)), (1, 1))
        after = filtration(refined, INC)
        assert after is not before
        assert after.relation_lattice.sublattice.ambient_rank == 4
        assert after.level_ranks == (0, 2, 2)
        assert rel_lattice(refined).rank == 2

    def test_input_ray_normalized(self):
        fan = catalog_entry("p2").fan
        refined = stellar_subdivide(fan, fan.cone((0, 1)), (2, 2))
        assert refined.rays[-1] == (1, 1)

    def test_validation_carried_over_from_full(self):
        fan = catalog_entry("p2").fan
        refined = stellar_subdivide(fan, fan.cone((0, 1)), (1, 1))
        assert refined.validation == "full"
        assert refined.warnings == ()

    def test_validation_carried_over_from_trusted(self):
        fan = build_fan(2, [(1, 0), (0, 1), (-1, -1)],
                        [(0, 1), (1, 2), (0, 2)], trust=True)
        refined = stellar_subdivide(fan, fan.cone((0, 1)), (1, 1))
        assert refined.validation == "trusted"

    def test_validation_carried_over_from_rank_five(self):
        rays = [(1, 0, 0, 0, 0), (0, 1, 0, 0, 0), (0, 0, 1, 0, 0),
                (0, 0, 0, 1, 0), (0, 0, 0, 0, 1), (-1, -1, -1, -1, -1)]
        maximal = [tuple(j for j in range(6) if j != i) for i in range(6)]
        fan = build_fan(5, rays, maximal)
        refined = stellar_subdivide(fan, fan.cone((0, 1)), (1, 1, 0, 0, 0))
        assert refined.validation == "full"
        assert refined.warnings == ()

    def test_completeness_preserved_across_catalog(self):
        rng = random.Random(99)
        for entry in catalog():
            draw = random_stellar_draw(entry.fan, rng)
            if draw is None:
                continue
            cone, w = draw
            refined = stellar_subdivide(entry.fan, cone, w)
            if entry.known["complete"]:
                assert is_complete(refined), entry.name


def _fresh_copy(fan):
    """The same fan built from nothing, with an empty cache."""
    return build_fan(fan.rank, fan.rays, [mc.ray_indices for mc in fan.maximal_cones],
                     trust=True)


class TestSeededSubdivision:
    """A refined fan starts from its parent's untouched star data; that must be exact."""

    def test_seeded_refinement_matches_fresh_build(self):
        rng = random.Random(2026)
        seeded_entries = 0
        for entry in catalog():
            if not entry.known["complete"]:
                continue
            fan = _fresh_copy(entry.fan)
            # Chained draws: each parent is the previous seeded refinement,
            # whose cache the comparisons below have filled.
            for _ in range(10):
                for policy in (INC, EXC):
                    filtration(fan, policy).levels
                draw = random_stellar_draw(fan, rng)
                assert draw is not None
                seeded = stellar_subdivide(fan, *draw)
                seeded_entries += sum(1 for key in seeded._memo
                                      if key[0] == "rel_lattice_star")
                fresh = _fresh_copy(seeded)
                assert fresh == seeded
                for cone in fresh.cones:
                    if not cone.ray_indices:
                        continue
                    assert star(seeded, cone) == star(fresh, cone), (entry.name, cone)
                    for policy in (INC, EXC):
                        assert (rel_lattice_star(seeded, cone, policy)
                                == rel_lattice_star(fresh, cone, policy)), (entry.name, cone)
                for policy in (INC, EXC):
                    a, b = filtration(seeded, policy), filtration(fresh, policy)
                    assert a.levels == b.levels, (entry.name, policy)
                    assert a.contributing == b.contributing, (entry.name, policy)
                fan = seeded
        assert seeded_entries > 0

    def test_touched_stars_are_not_seeded(self):
        fan = catalog_entry("p3").fan
        parent = _fresh_copy(fan)
        for cone in parent.cones[1:]:
            rel_lattice_star(parent, cone, INC)
        refined = stellar_subdivide(parent, parent.cone((0, 1)), (1, 1, 0))
        seeded = {key[1] for key in refined._memo if key[0] == "rel_lattice_star"}
        # (0, 1) lies in both replaced maximal cones (0, 1, 2) and (0, 1, 3);
        # only cones outside them keep their stars.
        assert seeded == {(2, 3), (0, 2, 3), (1, 2, 3)}


class TestRefinementInjection:
    def test_zero_padding(self):
        fan = catalog_entry("p2").fan
        refined = stellar_subdivide(fan, fan.cone((0, 1)), (1, 1))
        assert refinement_injection(fan, refined, (1, 1, 1)) == (1, 1, 1, 0)

    def test_zero_maps_to_zero(self):
        fan = catalog_entry("p2").fan
        refined = stellar_subdivide(fan, fan.cone((0, 1)), (1, 1))
        assert refinement_injection(fan, refined, (0, 0, 0)) == (0, 0, 0, 0)

    def test_image_annihilates_refined_rays(self):
        rng = random.Random(4)
        for name in ("p2xp1", "p1xp1", "sigma_c"):
            fan = catalog_entry(name).fan
            cone, w = random_stellar_draw(fan, rng)
            refined = stellar_subdivide(fan, cone, w)
            ray_rows = [list(v) for v in refined.rays]
            for r in rel_lattice(fan).basis_rows:
                padded = refinement_injection(fan, refined, r)
                assert not any(oracles.matmul([list(padded)], ray_rows)[0])

    def test_ray_mismatch_rejected(self):
        p2 = catalog_entry("p2").fan
        p1xp1 = catalog_entry("p1xp1").fan
        with pytest.raises(FanValidationError):
            refinement_injection(p2, p1xp1, (1, 1, 1))

    def test_non_relation_rejected(self):
        fan = catalog_entry("p2").fan
        refined = stellar_subdivide(fan, fan.cone((0, 1)), (1, 1))
        with pytest.raises(NotARelationError):
            refinement_injection(fan, refined, (1, 0, 0))

    def test_rank_grows_by_new_rays(self):
        rng = random.Random(12)
        for entry in catalog():
            draw = random_stellar_draw(entry.fan, rng)
            if draw is None:
                continue
            refined = stellar_subdivide(entry.fan, *draw)
            assert (rel_lattice(refined).rank
                    == rel_lattice(entry.fan).rank + 1), entry.name


def test_iterated_subdivisions_keep_invariants():
    from fanlat.filtration import check_generation

    rng = random.Random(31)
    fan = catalog_entry("p2xp1").fan
    base_rank = rel_lattice(fan).rank
    for step in range(1, 4):
        draw = random_stellar_draw(fan, rng)
        assert draw is not None
        fan = stellar_subdivide(fan, *draw)
        assert is_complete(fan)
        assert rel_lattice(fan).rank == base_rank + step
        report = check_generation(fan, INC)
        assert report.generated_at_penultimate
        assert not report.violates_local_generation


class TestConjectureScan:
    def test_p2_monotone(self):
        fan = catalog_entry("p2").fan
        traces = conjecture_scan(fan, INC, 10, seed=1)
        assert traces, "all trials were skipped"
        for tr in traces:
            for rec in tr.records:
                assert rec.depth_before == 1
                assert not rec.violation
                assert rec.depth_after is not None
                assert rec.depth_after <= rec.depth_before

    def test_zero_trials(self):
        assert conjecture_scan(catalog_entry("p2").fan, INC, 0, seed=3) == []

    def test_deterministic_given_seed(self):
        fan = catalog_entry("p2xp1").fan
        def snapshot(traces):
            return [
                (tr.trial_index, tr.subdivided_cone.ray_indices, tr.new_ray,
                 tuple((rec.relation, rec.depth_before, rec.depth_after,
                        rec.comparable, rec.violation) for rec in tr.records))
                for tr in traces
            ]
        a = snapshot(conjecture_scan(fan, EXC, 12, seed=7))
        b = snapshot(conjecture_scan(fan, EXC, 12, seed=7))
        assert a == b

    def test_unreachable_before_is_incomparable(self):
        traces = conjecture_scan(catalog_entry("p3").fan, EXC, 5, seed=2)
        assert traces
        for tr in traces:
            for rec in tr.records:
                assert rec.depth_before is None
                assert not rec.comparable
                assert not rec.violation

    def test_requires_complete_fan(self):
        from fanlat.errors import NotCompleteError
        with pytest.raises(NotCompleteError):
            conjecture_scan(catalog_entry("halfplane2").fan, INC, 1, seed=0)

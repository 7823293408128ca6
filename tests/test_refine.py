import random

import pytest

import fanlat.refine as refine_module
import oracles
from fanlat.corpus import catalog, catalog_entry
from fanlat.errors import FanValidationError, NotARelationError
from fanlat.fan import build_fan, is_complete, primitive, star, star_sets
from fanlat.filtration import _star_masks, filtration, local_decompose
from fanlat.lattices import SupportPolicy, rel_lattice, rel_lattice_star
from fanlat.refine import (DepthRecord, compare_depths, conjecture_scan, random_stellar_draw,
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

    def test_zero_ray_rejected(self):
        fan = catalog_entry("p2").fan
        with pytest.raises(FanValidationError, match="^zero ray$"):
            stellar_subdivide(fan, fan.cone((0, 1)), (0, 0))

    def test_refined_fan_has_its_own_cache(self):
        fan = build_fan(2, [(1, 0), (0, 1), (-1, -1)], [(0, 1), (1, 2), (0, 2)])
        before = filtration(fan, INC)
        before.levels
        assert _kernel_keys(fan)
        refined = stellar_subdivide(fan, fan.cone((0, 1)), (1, 1))
        # The parent's star kernels stay with the parent.
        assert not _kernel_keys(refined)
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


def _kernel_keys(fan):
    return {key for key in fan._memo if key[0] == "kernel"}


def _fresh_copy(fan):
    """The same fan built from nothing, with an empty cache."""
    return build_fan(fan.rank, fan.rays, [mc.ray_indices for mc in fan.maximal_cones],
                     trust=True)


class TestSeededSubdivision:
    """Refined fans from seeded draws must match the same fans built from nothing."""

    def test_chained_refinements_match_fresh_builds(self):
        rng = random.Random(2026)
        for entry in catalog():
            if not entry.known["complete"]:
                continue
            fan = _fresh_copy(entry.fan)
            # Chained draws: each parent is the previous refinement, whose
            # cache the comparisons below have filled.
            for _ in range(10):
                for policy in (INC, EXC):
                    filtration(fan, policy).levels
                draw = random_stellar_draw(fan, rng)
                assert draw is not None
                refined = stellar_subdivide(fan, *draw)
                fresh = _fresh_copy(refined)
                assert fresh == refined
                for cone in fresh.cones:
                    if not cone.ray_indices:
                        continue
                    assert star(refined, cone) == star(fresh, cone), (entry.name, cone)
                    for policy in (INC, EXC):
                        assert (rel_lattice_star(refined, cone, policy)
                                == rel_lattice_star(fresh, cone, policy)), (entry.name, cone)
                for policy in (INC, EXC):
                    a, b = filtration(refined, policy), filtration(fresh, policy)
                    assert a.levels == b.levels, (entry.name, policy)
                    assert a.contributing == b.contributing, (entry.name, policy)
                fan = refined

    def test_only_stars_in_replaced_cones_gain_the_new_ray(self):
        fan = catalog_entry("p3").fan
        parent = _fresh_copy(fan)
        refined = stellar_subdivide(parent, parent.cone((0, 1)), (1, 1, 0))
        # (0, 1) lies in both replaced maximal cones (0, 1, 2) and (0, 1, 3):
        # a cone inside one of them has the new ray 4 in its refined star,
        # and every other cone keeps its parent's star.
        replaced = [{0, 1, 2}, {0, 1, 3}]
        for cone in refined.cones[1:]:
            if 4 in cone.ray_indices:
                continue
            touched = any(set(cone.ray_indices) <= mset for mset in replaced)
            assert (4 in star(refined, cone)[1]) is touched, cone
            if not touched:
                assert star(refined, cone)[1] == star(parent, cone)[1], cone

    def test_decomposition_factor_is_not_inherited(self):
        # Seven-ray refinement of p2 whose basis relations need several stars.
        parent = build_fan(2, [(1, 0), (0, 1), (-1, -1), (3, 1), (-2, -1), (-6, -1), (-1, 0)],
                           [(0, 2), (0, 3), (1, 3), (1, 6), (2, 4), (4, 5), (5, 6)])
        for r in rel_lattice(parent).basis_rows:
            local_decompose(parent, r)
        assert "ray_star_system" in parent._memo
        for cone in parent.cones[1:]:
            if cone.dim >= 2:
                refined = stellar_subdivide(parent, cone, [sum(col) for col in zip(
                    *(parent.rays[i] for i in cone.ray_indices))])
                assert "ray_star_system" not in refined._memo
                fresh = _fresh_copy(refined)
                for r in rel_lattice(refined).basis_rows:
                    assert local_decompose(refined, r) == local_decompose(fresh, r)
                assert "ray_star_system" in refined._memo


class TestSubdivisionSkeleton:
    """A subdivision's face map, which does not depend on the new ray, is shared; nothing else is."""

    @staticmethod
    def _assert_matches_fresh(refined):
        fresh = _fresh_copy(refined)
        assert fresh == refined
        for cone in fresh.cones[1:]:
            for policy in (INC, EXC):
                assert (rel_lattice_star(refined, cone, policy)
                        == rel_lattice_star(fresh, cone, policy)), (refined.rays[-1], cone)
        for policy in (INC, EXC):
            assert filtration(refined, policy).levels == filtration(fresh, policy).levels

    @pytest.mark.parametrize("cone, rays", [
        ((0, 1), [(1, 1, 0), (1, 2, 0)]),
        ((0, 1, 2), [(1, 1, 1), (3, 2, 1)]),
    ])
    def test_two_rays_in_one_cone_match_fresh_builds(self, cone, rays):
        for order in (rays, rays[::-1]):
            parent = _fresh_copy(catalog_entry("p3").fan)
            for policy in (INC, EXC):
                filtration(parent, policy).levels
            first = stellar_subdivide(parent, parent.cone(cone), order[0])
            for policy in (INC, EXC):  # fills the first refined fan's own cache
                filtration(first, policy).levels
            second = stellar_subdivide(parent, parent.cone(cone), order[1])
            assert first.rays[-1] != second.rays[-1]
            self._assert_matches_fresh(first)
            self._assert_matches_fresh(second)

    def test_one_skeleton_per_cone_never_inherited(self):
        parent = _fresh_copy(catalog_entry("p3").fan)
        for policy in (INC, EXC):
            filtration(parent, policy).levels
        draws = [((0, 1), (1, 1, 0)), ((0, 1), (2, 1, 0)), ((0, 1, 2), (1, 1, 1)),
                 ((0, 1), (1, 1, 0)), ((1, 2, 3), (-1, 0, 0))]
        children = [stellar_subdivide(parent, parent.cone(c), w) for c, w in draws]
        # The skeletons live on the parent's face map, one per subdivided cone.
        assert sorted(_skeleton_keys(parent)) == [
            ("subdivision", (0, 1)), ("subdivision", (0, 1, 2)), ("subdivision", (1, 2, 3))]
        assert not any(key[0] == "subdivision" for key in parent._memo)
        child = children[0]
        assert not any(_skeleton_keys(c) for c in children)
        grandchild = stellar_subdivide(child, child.cone((0, 4)), (2, 1, 0))
        assert _skeleton_keys(child) == [("subdivision", (0, 4))]
        assert not _skeleton_keys(grandchild)
        self._assert_matches_fresh(grandchild)


def _skeleton_keys(fan):
    return [key for key in fan._cones.memo if key[0] == "subdivision"]


_GEOMETRIC = ("kernel", "level", "maximal_dets", "ray_star_system")


def _geometric_keys(fan):
    return [key for key in fan._memo
            if (key[0] if isinstance(key, tuple) else key) in _GEOMETRIC]


class TestSharedFaceMap:
    """Subdivisions of one cone share one face-map cache and nothing that reads the rays."""

    @pytest.mark.parametrize("name, cone, rays, tau", [
        ("p2", (0, 1), [(1, 1), (2, 1), (1, 2)], (1, 2)),
        ("p3", (0, 1), [(1, 1, 0), (2, 1, 0), (1, 2, 0)], (2, 3)),
        ("p3", (0, 1, 2), [(1, 1, 1), (3, 2, 1)], (2, 3)),
        ("p2xp1", (0, 3), [(1, 0, 1), (2, 0, 1), (1, 0, 2)], (1, 2)),
    ])
    def test_siblings_share_the_combinatorial_cache(self, name, cone, rays, tau):
        parent = _fresh_copy(catalog_entry(name).fan)
        siblings = []
        for w in rays:
            refined = stellar_subdivide(parent, parent.cone(cone), w)
            assert _geometric_keys(refined) == [], w
            # Fill this sibling's own cache before the next one is built.
            assert is_complete(refined)
            for policy in (INC, EXC):
                filtration(refined, policy).levels
            # The relation lattice is the star kernel of every ray.
            full = ("kernel", tuple(range(len(refined.rays))))
            assert {"maximal_dets", full} <= set(refined._memo)
            siblings.append(refined)
        assert len({id(fan._cones) for fan in siblings}) == 1
        assert siblings[0]._cones is not parent._cones
        for refined in siblings:
            keys = [c.ray_indices for c in refined.cones]
            fresh = build_fan(refined.rank, refined.rays, oracles.maximal_bruteforce(keys))
            assert fresh._cones is not refined._cones
            assert refined.cones == fresh.cones
            assert refined.maximal_cones == fresh.maximal_cones
            for k in range(refined.rank + 1):
                assert star_sets(refined, k) == star_sets(fresh, k), (refined.rays[-1], k)
                for policy in (INC, EXC):
                    assert (_star_masks(refined, policy, k)
                            == _star_masks(fresh, policy, k)), (refined.rays[-1], policy, k)
        # Refining two siblings at one cone again gives two fans on one face map.
        w2 = tuple(map(sum, zip(*(parent.rays[i] for i in tau))))
        grandchildren = [stellar_subdivide(s, s.cone(tau), w2) for s in siblings[:2]]
        assert grandchildren[0]._cones is grandchildren[1]._cones
        for grandchild in grandchildren:
            assert _geometric_keys(grandchild) == []
            fresh = _fresh_copy(grandchild)
            for policy in (INC, EXC):
                assert filtration(grandchild, policy).levels == filtration(fresh, policy).levels


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

    def test_scan_checks_each_basis_relation_once(self, monkeypatch):
        real = refine_module._require_relation
        checked = []

        def spy(fan, v):
            checked.append(tuple(v))
            return real(fan, v)

        monkeypatch.setattr(refine_module, "_require_relation", spy)
        fan = catalog_entry("p2xp1").fan
        traces = conjecture_scan(fan, INC, 12, 5)
        assert len(traces) == 12
        assert checked == list(rel_lattice(fan).basis_rows)
        for tr in traces:  # the hoisted padding agrees with the public injection
            assert tr.ray_map == tuple(tr.after.rays.index(v) for v in fan.rays)
            for rec in tr.records:
                padded = refinement_injection(fan, tr.after, rec.relation)
                assert rec.depth_after == filtration(tr.after, INC).depth_of(padded)

    def test_depths_of_the_wrong_length_are_rejected(self):
        fan = catalog_entry("p2xp1").fan
        refined = stellar_subdivide(fan, fan.cone((0, 3)), (1, 0, 1))
        basis = rel_lattice(fan).basis_rows
        assert len(basis) == 2
        for depths in ([1], [1, 1, 1], []):
            with pytest.raises(ValueError, match="basis relations"):
                compare_depths(fan, refined, INC, depths)
        ray_map, records = compare_depths(fan, refined, INC, [1, 1])
        assert [rec.relation for rec in records] == list(basis)

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

    @pytest.mark.parametrize("name", ["p2", "blowup_p2"])
    @pytest.mark.parametrize("policy", [INC, EXC])
    def test_repeated_draws_match_fresh_builds(self, name, policy):
        fan = catalog_entry(name).fan
        traces = conjecture_scan(fan, policy, 120, seed=11)
        assert [tr.trial_index for tr in traces] == list(range(120))
        fresh_before = filtration(_fresh_copy(fan), policy)
        first_after = {}
        for tr in traces:
            draw = (tr.subdivided_cone.ray_indices, tr.new_ray)
            assert first_after.setdefault(draw, tr.after) is tr.after
            fresh = _fresh_copy(tr.after)
            fresh_after = filtration(fresh, policy)
            expected = []
            for r in rel_lattice(fan).basis_rows:
                before = fresh_before.depth_of(r)
                after = fresh_after.depth_of(refinement_injection(fan, fresh, r))
                expected.append(DepthRecord(
                    relation=r, depth_before=before, depth_after=after, policy=policy,
                    comparable=before is not None,
                    violation=before is not None and (after is None or after > before)))
            assert tr.records == tuple(expected), (name, tr.trial_index)
        assert len(first_after) < len(traces)

    def test_skipped_trials_are_not_remembered(self, monkeypatch, caplog):
        fan = catalog_entry("p2").fan
        monkeypatch.setattr(refine_module, "random_stellar_draw",
                            lambda f, rng: (f.cone((0, 1)), (1, -1)))
        real = refine_module.stellar_subdivide
        calls = []

        def spy(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(refine_module, "stellar_subdivide", spy)
        with caplog.at_level("WARNING", logger="fanlat.refine"):
            assert conjecture_scan(fan, INC, 3, seed=0) == []
        assert len(calls) == 3
        assert [rec.getMessage().split(":")[0] for rec in caplog.records] == [
            "trial 0", "trial 1", "trial 2"]
        assert all("subdivision rejected" in rec.getMessage() for rec in caplog.records)

    def test_negative_seed_rejected(self):
        # random.Random seeds from abs(seed), so -7 would repeat the scan of 7.
        with pytest.raises(ValueError, match="nonnegative"):
            conjecture_scan(catalog_entry("p2").fan, INC, 1, seed=-7)

    def test_repeats_share_the_first_trace_of_their_draw(self, monkeypatch):
        real = refine_module.compare_depths
        compared = []

        def spy(before, after, *args):
            compared.append(after)
            return real(before, after, *args)

        monkeypatch.setattr(refine_module, "compare_depths", spy)
        fan = catalog_entry("p2").fan
        traces = conjecture_scan(fan, INC, 240, seed=2)
        assert len(traces) == 240
        first = {}
        for tr in traces:
            f = first.setdefault((tr.subdivided_cone.ray_indices, tr.new_ray), tr)
            assert tr.before is fan
            for name in ("after", "subdivided_cone", "new_ray", "ray_map", "records"):
                assert getattr(tr, name) is getattr(f, name), (tr.trial_index, name)
        # One depth comparison per distinct draw, on that draw's refined fan.
        assert compared == [f.after for f in first.values()]
        assert len(first) < len(traces)

    def test_requires_complete_fan(self):
        from fanlat.errors import NotCompleteError
        with pytest.raises(NotCompleteError):
            conjecture_scan(catalog_entry("halfplane2").fan, INC, 1, seed=0)


def _reference_draw(fan, rng):
    """random_stellar_draw written out plainly: the coefficients first, then one sum per coordinate."""
    candidates = [c for c in fan.cones if c.dim >= 2]
    if not candidates:
        return None
    cone = rng.choice(candidates)
    for _ in range(refine_module._DRAW_RETRIES):
        coeffs = [rng.choice((1, 2, 3)) for _ in cone.ray_indices]
        vec = tuple(sum(c * fan.rays[i][j] for c, i in zip(coeffs, cone.ray_indices))
                    for j in range(fan.rank))
        w = primitive(vec)
        if w not in fan.rays:
            return cone, w
    return None


def _assert_draws_follow_the_reference(fan, seeds):
    """Same draw and the same generator state after it."""
    for seed in seeds:
        rng, ref_rng = random.Random(seed), random.Random(seed)
        assert random_stellar_draw(fan, rng) == _reference_draw(fan, ref_rng), (fan, seed)
        assert rng.getstate() == ref_rng.getstate()


@pytest.mark.parametrize("name", ["p2", "p3", "p2xp1", "sigma_c", "blowup_p2"])
def test_draws_follow_the_reference_stream(name):
    chain_rng = random.Random(name)
    fan = catalog_entry(name).fan
    for _ in range(4):  # the catalog fan and a grown chain
        _assert_draws_follow_the_reference(fan, range(60))
        fan = stellar_subdivide(fan, *random_stellar_draw(fan, chain_rng))


def test_retried_draws_follow_the_reference_stream(monkeypatch):
    # On a fan no sum lands on a ray; on this trusted overlap, ray 2 lies
    # inside cone (0, 1), so equal weights there make the draw retry.
    fan = build_fan(2, [(1, 0), (0, 1), (1, 1), (-1, -1)], [(0, 1), (1, 2), (0, 3), (1, 3)],
                    trust=True)
    sums = []
    monkeypatch.setattr(refine_module, "primitive", lambda v: sums.append(v) or primitive(v))
    _assert_draws_follow_the_reference(fan, range(200))
    assert len(sums) > 200

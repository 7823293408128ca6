import pytest

import fanlat.fan as fan_module
from fanlat.corpus import catalog, catalog_entry
from fanlat.errors import FanValidationError, NotSimplicialError
from fanlat.fan import (apply_unimodular, build_fan, is_complete, localize,
                        primitive, star)
from fanlat.intlin import IntMatrix, Sublattice, hnf, sublattice_index
from fanlat.qsolve import cone_pair_proper, fm_feasible

P5_RAYS = [(1, 0, 0, 0, 0), (0, 1, 0, 0, 0), (0, 0, 1, 0, 0),
           (0, 0, 0, 1, 0), (0, 0, 0, 0, 1), (-1, -1, -1, -1, -1)]
P5_MAXIMAL = [tuple(j for j in range(6) if j != i) for i in range(6)]
TWICE_WOUND_RAYS = [(1, 0), (-4, 3), (1, -3), (1, 3), (-4, -3)]
TWICE_WOUND_MAXIMAL = [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]


def quad_cone_fan():
    """Single non-simplicial cone over a square, taken on trust."""
    rays = [(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1)]
    full = [(), (0,), (1,), (2,), (3,), (0, 1), (1, 2), (2, 3), (0, 3), (0, 1, 2, 3)]
    return build_fan(3, rays, [(0, 1, 2, 3)], cones=full, trust=True)


class TestPrimitive:
    @pytest.mark.parametrize("vec,expected", [
        ((2, 4), (1, 2)),
        ((-3, 0, 6), (-1, 0, 2)),
        ((0, 0, -5), (0, 0, -1)),
    ])
    def test_examples(self, vec, expected):
        assert primitive(vec) == expected

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            primitive((0, 0))


class TestBuildFan:
    def test_p2_shape(self):
        fan = catalog_entry("p2").fan
        assert fan.rank == 2
        assert len(fan.rays) == 3
        assert len(fan.maximal_cones) == 3
        assert fan.has_cone(())
        assert len(fan.cones) == 7  # zero + 3 rays + 3 two-cones

    def test_p2xp1_shape(self):
        fan = catalog_entry("p2xp1").fan
        assert len(fan.rays) == 5
        assert len(fan.maximal_cones) == 6

    def test_ray_normalized(self):
        fan = build_fan(2, [(2, 4), (1, 0)], [(0, 1)])
        assert fan.rays[0] == (1, 2)

    def test_duplicate_after_normalization(self):
        with pytest.raises(FanValidationError, match="duplicate"):
            build_fan(2, [(1, 2), (2, 4), (1, 0)], [(0, 2), (1, 2)])

    def test_zero_ray(self):
        with pytest.raises(FanValidationError, match="zero"):
            build_fan(2, [(0, 0), (1, 0)], [(0, 1)])

    def test_dependent_rays_need_cone_list(self):
        with pytest.raises(FanValidationError, match="non-simplicial"):
            build_fan(2, [(1, 0), (-1, 0)], [(0, 1)])

    def test_overlapping_cones_detected(self):
        # cone(e1, e2) strictly contains cone(e1, e1+e2): not a fan
        with pytest.raises(FanValidationError, match="intersect"):
            build_fan(2, [(1, 0), (0, 1), (1, 1)], [(0, 1), (0, 2)])

    def test_trusted_non_simplicial(self):
        fan = quad_cone_fan()
        assert not fan.simplicial
        assert fan.validation == "trusted"
        assert fan.cone((0, 1, 2, 3)).dim == 3

    def test_unused_ray_rejected(self):
        with pytest.raises(FanValidationError, match="no maximal cone"):
            build_fan(2, [(1, 0), (0, 1), (1, 1)], [(0, 1)])

    def test_rank_five_validated_exactly(self):
        fan = build_fan(5, P5_RAYS, P5_MAXIMAL)
        assert fan.validation == "full"
        assert fan.warnings == ()

    def test_rank_five_non_complete_validated_exactly(self):
        fan = build_fan(5, P5_RAYS, P5_MAXIMAL[1:])
        assert fan.validation == "full"
        assert fan.warnings == ()
        assert not is_complete(fan)

    def test_rank_five_nested_cones_detected(self):
        rays = P5_RAYS[:5] + [(1, 1, 1, 1, 1)]
        with pytest.raises(FanValidationError, match="intersect"):
            build_fan(5, rays, [(0, 1, 2, 3, 4), (0, 1, 2, 3, 5)])

    def test_twice_wound_cycle_rejected(self):
        # Passes the ridge test, fails the cover point, and is then
        # caught by the pairwise check.
        with pytest.raises(FanValidationError, match="intersect"):
            build_fan(2, TWICE_WOUND_RAYS, TWICE_WOUND_MAXIMAL)

    def test_trust_skips_validation(self):
        fan = build_fan(2, [(1, 0), (0, 1), (-1, -1)],
                        [(0, 1), (1, 2), (2, 0)], trust=True)
        assert fan.validation == "trusted"

    def test_face_closure(self):
        fan = catalog_entry("p2xp1").fan
        for cone in fan.cones:
            idx = cone.ray_indices
            for drop in range(len(idx)):
                assert fan.has_cone(idx[:drop] + idx[drop + 1:])


class TestStar:
    def test_p2_ray_star(self):
        fan = catalog_entry("p2").fan
        cones, ray_set = star(fan, fan.cone((0,)))
        assert ray_set == (0, 1, 2)
        assert {c.ray_indices for c in cones} == {(0,), (0, 1), (0, 2)}

    def test_p2xp1_ray_star_sees_everything(self):
        fan = catalog_entry("p2xp1").fan
        _, ray_set = star(fan, fan.cone((0,)))
        assert ray_set == (0, 1, 2, 3, 4)

    def test_maximal_cone_star_is_itself(self):
        fan = catalog_entry("p2").fan
        cones, ray_set = star(fan, fan.cone((0, 1)))
        assert [c.ray_indices for c in cones] == [(0, 1)]
        assert ray_set == (0, 1)

    def test_zero_cone_star_is_everything(self):
        fan = catalog_entry("p2").fan
        cones, ray_set = star(fan, fan.zero_cone)
        assert len(cones) == len(fan.cones)
        assert ray_set == (0, 1, 2)


class TestIsComplete:
    def test_catalog_flags(self):
        for name, expected in [("p2", True), ("p1xp1", True), ("p3", True),
                               ("p2xp1", True), ("blowup_p2", True),
                               ("halfplane2", False), ("sigma_c", True)]:
            assert is_complete(catalog_entry(name).fan) is expected, name

    def test_single_cone_not_complete(self):
        fan = build_fan(2, [(1, 0), (0, 1)], [(0, 1)])
        assert not is_complete(fan)

    def test_non_simplicial_needs_assertion(self):
        fan = quad_cone_fan()
        with pytest.raises(NotSimplicialError):
            is_complete(fan)

    def test_non_simplicial_asserted(self):
        rays = [(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1)]
        full = [(), (0,), (1,), (2,), (3,), (0, 1), (1, 2), (2, 3), (0, 3), (0, 1, 2, 3)]
        fan = build_fan(3, rays, [(0, 1, 2, 3)], cones=full, trust=True,
                        assert_complete=False)
        assert is_complete(fan) is False

    def test_non_spanning_rays_not_complete(self):
        fan = build_fan(2, [(1, 0)], [(0,)])
        assert not is_complete(fan)

    def test_trusted_folded_triangle_not_complete(self):
        # Across ridges (0,) and (1,) both opposite rays lie on one side.
        fan = build_fan(2, [(1, 0), (0, 1), (1, 1)], [(0, 1), (1, 2), (0, 2)],
                        trust=True)
        assert is_complete(fan) is False

    def test_trusted_twice_wound_not_complete(self):
        # Five cones wind twice around the origin: every ridge is proper,
        # but each generic point is covered twice.
        fan = build_fan(2, TWICE_WOUND_RAYS, TWICE_WOUND_MAXIMAL, trust=True)
        assert is_complete(fan) is False


class TestLocalize:
    def test_p2_at_ray(self):
        fan = catalog_entry("p2").fan
        q = localize(fan, fan.cone((0,)))
        assert q.quotient_rank == 1
        assert sorted(q.rays) == [(-1,), (1,)]
        assert q.ray_origin == (1, 2)

    def test_projection_kills_cone_rays(self):
        fan = catalog_entry("p2xp1").fan
        tau = fan.cone((0, 3))
        q = localize(fan, tau)
        for i in tau.ray_indices:
            assert not any(q.projection.mul_vector(fan.rays[i]))

    def test_projection_surjective(self):
        fan = catalog_entry("p2xp1").fan
        for cone in fan.cones:
            q = localize(fan, cone)
            col_span = Sublattice(q.quotient_rank,
                                  [q.projection.column(j) for j in range(q.projection.cols)])
            assert sublattice_index(col_span) == 1 or q.quotient_rank == 0

    def test_maximal_cone_gives_trivial_quotient(self):
        fan = catalog_entry("p2").fan
        q = localize(fan, fan.cone((0, 1)))
        assert q.quotient_rank == 0
        assert q.rays == ()

    def test_p2xp1_codim_one(self):
        fan = catalog_entry("p2xp1").fan
        q = localize(fan, fan.cone((0, 3)))
        assert q.quotient_rank == 1
        assert sorted(q.rays) == [(-1,), (1,)]

    def test_zero_cone_identity_localization(self):
        fan = catalog_entry("p2").fan
        q = localize(fan, fan.zero_cone)
        assert q.quotient_rank == 2
        assert len(q.rays) == 3


class TestApplyUnimodular:
    def test_identity(self):
        fan = catalog_entry("p2").fan
        assert apply_unimodular(fan, IntMatrix.identity(2)) == fan

    def test_shear_preserves_combinatorics(self):
        fan = catalog_entry("p2").fan
        u = IntMatrix([[1, 1], [0, 1]])
        image = apply_unimodular(fan, u)
        assert image.rays == tuple(u.mul_vector(v) for v in fan.rays)
        assert {c.ray_indices for c in image.cones} == {c.ray_indices for c in fan.cones}
        for v in image.rays:
            assert v == primitive(v)

    def test_rejects_non_unimodular(self):
        fan = catalog_entry("p2").fan
        with pytest.raises(ValueError, match="unimodular"):
            apply_unimodular(fan, IntMatrix([[2, 0], [0, 1]]))


RANK3_RAYS = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1), (1, 1, 1),
              (1, 1, 0), (0, 0, -1)]
RANK4_RAYS = [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1),
              (-1, -1, -1, -1), (1, 1, 0, 0), (0, 0, 0, -1)]


def test_pairwise_check_accepts_shared_face_pairs():
    # Split a quadrant repeatedly; adjacent pieces share exactly one ray.
    rays = [(1, 0), (3, 1), (1, 1), (1, 3), (0, 1)]
    for a, b in [((0, 1), (1, 2)), ((1, 2), (2, 3)), ((2, 3), (3, 4))]:
        assert cone_pair_proper(rays, a, b)
    # Non-adjacent pieces share nothing and meet only at the origin.
    assert cone_pair_proper(rays, (0, 1), (3, 4))
    # Neighbouring maximal cones of P^3 and P^4 share a facet.
    assert cone_pair_proper(RANK3_RAYS, (0, 1, 2), (0, 1, 3))
    assert cone_pair_proper(RANK4_RAYS, (0, 1, 2, 3), (0, 1, 2, 4))


def test_pairwise_check_rejects_overlaps():
    rays = [(1, 0), (0, 1), (1, 1), (2, 1)]
    assert not cone_pair_proper(rays, (0, 1), (0, 2))  # nested cones
    assert not cone_pair_proper(rays, (0, 2), (3, 1))  # crossing interiors
    assert not cone_pair_proper(rays, (0, 1), (2, 3))  # contained in first
    # cone(e1, e2, e1+e2+e3) lies inside cone(e1, e2, e3).
    assert not cone_pair_proper(RANK3_RAYS, (0, 1, 2), (0, 1, 4))
    # The two cones share only ray e1 but meet in the 2-cone cone(e1, e1+e2).
    assert not cone_pair_proper(RANK3_RAYS, (0, 1, 2), (0, 5, 6))
    # They share e1 and e3 but meet in the 3-cone cone(e1, e1+e2, e3).
    assert not cone_pair_proper(RANK4_RAYS, (0, 1, 2, 3), (0, 2, 5, 6))


@pytest.mark.parametrize("rows,num_vars,feasible", [
    ([], 2, True),
    ([((0, 0), 1)], 2, False),  # 0 >= 1
    ([((0, 0), -1)], 2, True),
    ([((1,), 1), ((-1,), 0)], 1, False),  # x >= 1 and x <= 0
    ([((3,), 2), ((2,), -2), ((-2,), 0), ((-3,), 0)], 1, False),  # needs the ratio test
    ([((1, 1), 1), ((1, -1), 1), ((-1, 0), -1)], 2, True),  # only x = 1, y = 0
    ([((1, 1), 1), ((1, -1), 1), ((-1, 0), -1), ((0, 1), 1)], 2, False),
    ([((1, 0, 0), 0), ((-1, 0, 0), 0), ((0, 3, -2), 5), ((0, -1, 1), 7)], 3, True),
])
def test_feasibility_is_exact(rows, num_vars, feasible):
    assert fm_feasible(rows, num_vars) is feasible


@pytest.fixture
def pairwise_spy(monkeypatch):
    """Installs counters on the pairwise path and on cone_pair_proper."""
    def install():
        calls = {"pairwise": 0, "pairs": 0}
        real_validate, real_pair = fan_module._validate_pairwise, fan_module.cone_pair_proper

        def validate(fan):
            calls["pairwise"] += 1
            return real_validate(fan)

        def pair(*args):
            calls["pairs"] += 1
            return real_pair(*args)

        monkeypatch.setattr(fan_module, "_validate_pairwise", validate)
        monkeypatch.setattr(fan_module, "cone_pair_proper", pair)
        return calls
    return install


def _rebuild(fan):
    return build_fan(fan.rank, fan.rays, [mc.ray_indices for mc in fan.maximal_cones])


def test_complete_fans_skip_the_pairwise_check(pairwise_spy):
    complete = [e.fan for e in catalog() if e.known["complete"]]
    assert len(complete) == 6
    calls = pairwise_spy()
    for fan in complete:
        assert _rebuild(fan).validation == "full"
    assert build_fan(5, P5_RAYS, P5_MAXIMAL).validation == "full"
    assert calls == {"pairwise": 0, "pairs": 0}


def test_non_complete_fans_take_the_pairwise_check(pairwise_spy):
    halfplane = catalog_entry("halfplane2").fan
    calls = pairwise_spy()
    assert _rebuild(halfplane).validation == "full"
    assert calls == {"pairwise": 1, "pairs": 0}  # one cone, no pairs
    build_fan(5, P5_RAYS, P5_MAXIMAL[1:])
    assert calls == {"pairwise": 2, "pairs": 10}
    with pytest.raises(FanValidationError, match="intersect"):
        build_fan(2, [(1, 0), (0, 1), (1, 1)], [(0, 1), (0, 2)])
    assert calls == {"pairwise": 3, "pairs": 11}


def test_complete_fans_have_spanning_rays():
    for name in ("p2", "p1xp1", "p3", "p2xp1", "blowup_p2", "sigma_c"):
        fan = catalog_entry(name).fan
        h, _ = hnf(fan.ray_matrix())
        rank = sum(1 for row in h.entries if any(row))
        assert rank == fan.rank

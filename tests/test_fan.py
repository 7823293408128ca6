import hashlib
import math
import random
from fractions import Fraction
from itertools import combinations

import pytest

import fanlat.fan as fan_module
import fanlat.refine as refine_module
import oracles
from fanlat.corpus import catalog, catalog_entry
from fanlat.errors import FanValidationError, NotSimplicialError
from fanlat.fan import (apply_unimodular, build_fan, is_complete, localize,
                        primitive, star, star_sets)
from fanlat.intlin import IntMatrix, Sublattice, hnf, sublattice_index
from fanlat.lattices import rel_lattice_localized
from fanlat.qsolve import cone_pair_proper, det, fm_feasible, solve_unique

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

    @pytest.mark.parametrize("entry", [1.0, 0.5, "1", None])
    def test_non_integer_ray_entry(self, entry):
        with pytest.raises(FanValidationError, match="non-integer"):
            build_fan(2, [(1, 0), (0, entry), (-1, -1)], [(0, 1), (1, 2), (0, 2)])

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


# The generator lists the catalog fans are built from, written out here
# so that the face-list oracle reads nothing of the fan under test.
CATALOG_GENERATORS = {
    "p2": [(0, 1), (1, 2), (2, 0)],
    "p1xp1": [(0, 1), (1, 2), (2, 3), (3, 0)],
    "p3": [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)],
    "p2xp1": [(0, 1, 3), (1, 2, 3), (2, 0, 3), (0, 1, 4), (1, 2, 4), (2, 0, 4)],
    # p2 subdivided at (0, 1) by the ray (1, 1), whose index is 3.
    "blowup_p2": [(1, 2), (2, 0), (1, 3), (0, 3)],
    "halfplane2": [(0, 1)],
    "sigma_c": [(0, 1, 2), (0, 2, 3), (0, 1, 4), (1, 2, 4), (2, 3, 4), (0, 3, 4)],
}


def _cone_keys(fan):
    return [c.ray_indices for c in fan.cones]


def _stellar_generators(generators, sigma, new_index):
    """The generators after ray new_index is inserted into cone sigma.

    Each generator that holds sigma gives way to its joins with the new
    ray over the facets of sigma; the others stay.
    """
    out = []
    for g in generators:
        if set(sigma) <= set(g):
            out.extend(tuple(sorted(set(g) - {rho} | {new_index})) for rho in sigma)
        else:
            out.append(tuple(g))
    return out


def _assert_stars_and_maximal_match_oracles(fan):
    keys = [c.ray_indices for c in fan.cones]
    assert [c.ray_indices for c in fan.maximal_cones] == oracles.maximal_bruteforce(keys)
    for cone in fan.cones:
        members, ray_set = star(fan, cone)
        expected_members, expected_rays = oracles.star_bruteforce(keys, cone.ray_indices)
        assert [c.ray_indices for c in members] == expected_members, (fan, cone)
        assert list(ray_set) == expected_rays, (fan, cone)


def complete_by_ridge_solves(fan):
    """Oracle: the is_complete criterion with one Cramer solve per ridge.

    Maximal cones come from the brute-force oracle and every determinant
    from oracles.det, so nothing is shared with the orientation signs of
    is_complete. Ridge R with opposite rays a and b is proper iff b has a
    negative coefficient on a over the columns (R, a).
    """
    keys = [c.ray_indices for c in fan.cones]
    maximal = [c for c in oracles.maximal_bruteforce(keys) if c]
    n = fan.rank
    if not maximal:
        return n == 0
    if any(len(mc) != n for mc in maximal):
        return False
    opposite = {}
    for mc in maximal:
        for a in mc:
            opposite.setdefault(tuple(j for j in mc if j != a), []).append(a)
    for ridge, rays in opposite.items():
        if len(rays) != 2:
            return False
        a, b = rays
        columns = [fan.rays[i] for i in ridge]
        if oracles.det(columns + [fan.rays[b]]) / oracles.det(columns + [fan.rays[a]]) >= 0:
            return False
    x = [sum(entries) for entries in zip(*(fan.rays[i] for i in maximal[0]))]
    for mc in maximal[1:]:
        columns = [fan.rays[i] for i in mc]
        d = oracles.det(columns)
        if all(oracles.det(columns[:j] + [x] + columns[j + 1:]) / d >= 0 for j in range(n)):
            return False
    return True


def _assert_star_sets_match_oracle(fan):
    keys = [c.ray_indices for c in fan.cones]
    for k in range(fan.rank + 1):
        expected = [(c.ray_indices, tuple(oracles.star_bruteforce(keys, c.ray_indices)[1]))
                    for c in fan.cones if c.ray_indices and c.codim == k]
        assert list(star_sets(fan, k).items()) == expected, (fan, k)


def _chained_subdivisions(name, seed, steps):
    """A catalog fan and the fans of a chain of seeded stellar subdivisions of it."""
    rng = random.Random(seed)
    fans = [catalog_entry(name).fan]
    for _ in range(steps):
        draw = refine_module.random_stellar_draw(fans[-1], rng)
        assert draw is not None
        fans.append(refine_module.stellar_subdivide(fans[-1], *draw))
    return fans


class TestIncidenceIndex:
    """Cone lists, stars, star sets and maximal cones, checked by brute force."""

    @pytest.mark.parametrize("entry", catalog(), ids=lambda e: e.name)
    def test_catalog_fans(self, entry):
        assert _cone_keys(entry.fan) == oracles.faces_bruteforce(CATALOG_GENERATORS[entry.name])
        _assert_stars_and_maximal_match_oracles(entry.fan)

    def test_chained_stellar_subdivisions(self):
        # Every refinement builds its stars afresh from its own cones, and
        # lists the faces of the generators the chain works out here.
        for name, seed in [("p2xp1", 909), ("sigma_c", 31), ("p3", 7)]:
            rng = random.Random(seed)
            fan, generators = catalog_entry(name).fan, CATALOG_GENERATORS[name]
            for step in range(20):
                draw = refine_module.random_stellar_draw(fan, rng)
                assert draw is not None
                generators = _stellar_generators(generators, draw[0].ray_indices, len(fan.rays))
                fan = refine_module.stellar_subdivide(fan, *draw)
                assert _cone_keys(fan) == oracles.faces_bruteforce(generators), (name, step)
                _assert_stars_and_maximal_match_oracles(fan)

    def test_star_sets_match_bruteforce(self):
        fans = [entry.fan for entry in catalog()]
        fans += _chained_subdivisions("p2xp1", 909, 20)[1:]
        fans += [quad_cone_fan(), build_fan(0, [], [()])]
        for fan in fans:
            _assert_star_sets_match_oracle(fan)

    def test_trusted_non_simplicial_square(self):
        fan = quad_cone_fan()
        _assert_stars_and_maximal_match_oracles(fan)
        assert [c.ray_indices for c in fan.maximal_cones] == [(0, 1, 2, 3)]
        members, ray_set = star(fan, fan.cone((0,)))
        assert [c.ray_indices for c in members] == [(0,), (0, 1), (0, 3), (0, 1, 2, 3)]
        assert ray_set == (0, 1, 2, 3)

    def test_rank_zero_fan(self):
        fan = build_fan(0, [], [()])
        assert _cone_keys(fan) == oracles.faces_bruteforce([()]) == [()]
        _assert_stars_and_maximal_match_oracles(fan)
        assert fan.maximal_cones == (fan.zero_cone,)
        assert star(fan, fan.zero_cone) == ((fan.zero_cone,), ())

    @pytest.mark.parametrize("base", ["p2", "p3", "p2xp1", "sigma_c"])
    def test_seeded_grown_fans(self, base):
        for seed in range(4):
            rng = random.Random(seed)
            fan = catalog_entry(base).fan
            for _ in range(8):
                fan = refine_module.stellar_subdivide(
                    fan, *refine_module.random_stellar_draw(fan, rng))
            _assert_stars_and_maximal_match_oracles(fan)
            _assert_stars_and_maximal_match_oracles(_rebuild(fan))

    @pytest.mark.parametrize("rank,rays,generators,maximal", [
        # A generator that is a face of another generator.
        (2, [(1, 0), (0, 1), (-1, -1)], [[0, 1], [1, 2], [0, 2], [0]],
         [(0, 1), (0, 2), (1, 2)]),
        # The same generator twice, in two orders.
        (2, [(1, 0), (0, 1)], [[0, 1], [1, 0]], [(0, 1)]),
        # A non-pure fan: a ray that lies in no 2-cone comes first in cones order.
        (2, [(1, 0), (0, 1), (-1, -1)], [[0, 1], [2]], [(2,), (0, 1)]),
        (3, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, 0), (0, 0, -1)],
         [[0, 1, 2], [3, 4], [1], [2, 1, 0]], [(3, 4), (0, 1, 2)]),
    ])
    def test_unusual_generator_lists(self, rank, rays, generators, maximal):
        for trust in (False, True):
            fan = build_fan(rank, rays, generators, trust=trust)
            assert _cone_keys(fan) == oracles.faces_bruteforce(generators)
            _assert_stars_and_maximal_match_oracles(fan)
            assert [c.ray_indices for c in fan.maximal_cones] == maximal
            assert is_complete(fan) is complete_by_ridge_solves(fan)
            assert set(fan._memo["maximal_dets"]) == {c for c in maximal if len(c) == rank}


class TestMaximalOf:
    """maximal_of against the brute-force oracle, on the equal-size path and the containment pass."""

    @staticmethod
    def _check(keys, rank=4):
        refs = [fan_module.ConeRef(key, len(key), rank - len(key)) for key in keys]
        got = fan_module.maximal_of(refs)
        expected = sorted(set(oracles.maximal_bruteforce(keys)), key=lambda key: (len(key), key))
        assert [c.ray_indices for c in got] == expected, keys
        assert all(any(c is ref for ref in refs) for c in got)

    @staticmethod
    def _subset(rng, rays, size):
        return tuple(sorted(rng.sample(rays, size)))

    def test_equal_size_generators_with_duplicates(self):
        rng = random.Random(41)
        for _ in range(200):
            size = rng.randint(1, 4)
            keys = [self._subset(rng, range(6), size) for _ in range(rng.randint(1, 8))]
            keys += rng.choices(keys, k=rng.randint(1, 3))
            keys += [()] * rng.randint(0, 2)
            rng.shuffle(keys)
            self._check(keys)

    def test_mixed_sizes_with_a_face_of_a_generator(self):
        rng = random.Random(43)
        for _ in range(200):
            keys = [self._subset(rng, range(7), rng.randint(2, 4))
                    for _ in range(rng.randint(1, 6))]
            outer = rng.choice(keys)
            keys.append(self._subset(rng, outer, rng.randint(1, len(outer) - 1)))
            keys += rng.choices(keys, k=rng.randint(0, 2)) + [()] * rng.randint(0, 1)
            rng.shuffle(keys)
            self._check(keys)

    @pytest.mark.parametrize("keys", [[], [()], [(), ()]])
    def test_zero_cone_alone(self, keys):
        self._check(keys)

    def test_rank_zero(self):
        self._check([()], rank=0)
        fan = build_fan(0, [], [()])
        assert [c.ray_indices for c in fan.maximal_cones] == [()]


class TestConeLookup:
    """cone, has_cone, zero_cone and cones agree with brute-force faces, on fresh fans.

    A simplicial fan looks a cone up in the star-set table of its
    codimension and keeps no dict of its faces; only trusted
    non-simplicial input stores its cone list.
    """

    @staticmethod
    def _cases():
        """(fresh fan, its cones in cones order as (ray indices, dim)) for every fan under test."""
        cases = []
        for entry in catalog():
            faces = oracles.faces_bruteforce(CATALOG_GENERATORS[entry.name])
            cases.append((_rebuild(entry.fan), [(face, len(face)) for face in faces]))
        for name, seed in (("p2xp1", 11), ("sigma_c", 12), ("p3", 13)):
            rng = random.Random(seed)
            fan, generators = catalog_entry(name).fan, CATALOG_GENERATORS[name]
            for _ in range(6):
                draw = refine_module.random_stellar_draw(fan, rng)
                generators = _stellar_generators(generators, draw[0].ray_indices, len(fan.rays))
                fan = refine_module.stellar_subdivide(fan, *draw)
            faces = oracles.faces_bruteforce(generators)
            cases.append((_rebuild(fan), [(face, len(face)) for face in faces]))
        cases.append((build_fan(0, [], [()]), [((), 0)]))
        square = [(), (0,), (1,), (2,), (3,), (0, 1), (0, 3), (1, 2), (2, 3), (0, 1, 2, 3)]
        cases.append((quad_cone_fan(), [(c, min(len(c), 3)) for c in square]))
        return cases

    def test_lookups_match_bruteforce_faces(self):
        non_faces = 0
        for fan, expected in self._cases():
            # Cones are looked up before anything lists them.
            n, m = fan.rank, len(fan.rays)
            dims = dict(expected)
            for size in range(min(m, n + 1) + 1):
                for key in combinations(range(m), size):
                    found = fan.has_cone(key[::-1])
                    assert found is (key in dims), (fan, key)
                    if found:
                        d = dims[key]
                        assert fan.cone(key[::-1]) == fan_module.ConeRef(key, d, n - d)
                    else:
                        non_faces += 1
                        with pytest.raises(FanValidationError, match="no cone"):
                            fan.cone(key)
            # An out-of-range index, a negative one, a repeated index and
            # more rays than the rank.
            for key in ((m,), (-1,), (0, 0), tuple(range(m)) + (m,), tuple(range(n + 1))):
                if key not in dims:
                    assert not fan.has_cone(key), (fan, key)
                    with pytest.raises(FanValidationError, match="no cone"):
                        fan.cone(key)
            assert fan.zero_cone == fan_module.ConeRef((), 0, n) == fan.cone(())
            assert [(c.ray_indices, c.dim, c.codim) for c in fan.cones] == [
                (key, d, n - d) for key, d in expected], fan
            assert ("faces" in fan._cones.memo) is not fan.simplicial
        assert non_faces

    def test_equality_and_hash_read_the_cones(self):
        fan = catalog_entry("p2xp1").fan
        again = _rebuild(fan)
        assert again == fan and hash(again) == hash(fan)
        # The same rays with one maximal cone left out.
        other = build_fan(fan.rank, fan.rays,
                          [c.ray_indices for c in fan.maximal_cones[1:]], trust=True)
        assert other != fan


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


def _perturbed(fan, rng):
    """The maximal cones over randomly moved rays, on trust; None if build_fan rejects them."""
    rays = [[x + rng.randint(-2, 2) for x in v] for v in fan.rays]
    try:
        return build_fan(fan.rank, rays, [c.ray_indices for c in fan.maximal_cones], trust=True)
    except FanValidationError:
        return None


def _polygon(rng, turns):
    """Trusted rank-2 fan whose 2-cones wind `turns` times around the origin, or None."""
    angles, t = [], 0.0
    while t < 2 * math.pi * turns - 0.5:
        angles.append(t)
        t += rng.uniform(0.3, 2.5)
    rays = [primitive((round(40 * math.cos(a)), round(40 * math.sin(a)))) for a in angles]
    k = len(rays)
    cones = [(i, (i + 1) % k) for i in range(k)]
    # Every consecutive pair, the closing one included, must turn left by less than pi.
    if len(set(rays)) < k or any(
            rays[i][0] * rays[j][1] - rays[i][1] * rays[j][0] <= 0 for i, j in cones):
        return None
    return build_fan(2, rays, cones, trust=True)


class TestCompletenessOracle:
    """is_complete reads the signs of maximal-cone determinants; check it by ridge solves."""

    def fans(self):
        rng = random.Random(12)
        grown = []
        for entry in catalog():
            grown.append(entry.fan)
            if not entry.known["complete"]:
                continue
            for seed in range(3):
                chain_rng = random.Random(seed)
                fan = entry.fan
                for _ in range(6):
                    fan = refine_module.stellar_subdivide(
                        fan, *refine_module.random_stellar_draw(fan, chain_rng))
                    grown.append(fan)
        yield from grown
        perturbed = 0
        while perturbed < 450:
            fan = _perturbed(rng.choice(grown), rng)
            if fan is not None:
                perturbed += 1
                yield fan
        for turns in (1, 2) * 200:
            fan = _polygon(rng, turns)
            if fan is not None:
                yield fan
        yield build_fan(2, [(1, 0), (0, 1), (1, 1)], [(0, 1), (1, 2), (0, 2)], trust=True)
        yield build_fan(2, TWICE_WOUND_RAYS, TWICE_WOUND_MAXIMAL, trust=True)

    def test_verdicts_match_ridge_solves(self):
        verdicts = {True: 0, False: 0}
        for fan in self.fans():
            expected = complete_by_ridge_solves(fan)
            assert is_complete(fan) is expected, fan.rays
            verdicts[expected] += 1
        assert sum(verdicts.values()) >= 800 and min(verdicts.values()) >= 150, verdicts

    def test_built_fans_reuse_the_determinants_of_the_simplicial_check(self, monkeypatch):
        fan = _rebuild(catalog_entry("p2xp1").fan)
        assert set(fan._memo["maximal_dets"]) == {c.ray_indices for c in fan.maximal_cones}
        calls = []
        real_det = fan_module.det
        monkeypatch.setattr(fan_module, "det", lambda rows: calls.append(rows) or real_det(rows))
        assert is_complete(fan)
        assert calls == []

    def test_other_fans_compute_one_determinant_per_maximal_cone(self, monkeypatch):
        parent = _rebuild(catalog_entry("p3").fan)
        assert is_complete(parent)
        refined = refine_module.stellar_subdivide(parent, parent.cone((0, 1)), (1, 1, 0))
        image = apply_unimodular(parent, IntMatrix([[1, 1, 0], [0, 1, 0], [0, 0, 1]]))
        # A subdivision and a unimodular image start with an empty cache.
        assert "maximal_dets" not in refined._memo and "maximal_dets" not in image._memo
        calls = []
        real_det = fan_module.det
        monkeypatch.setattr(fan_module, "det", lambda rows: calls.append(rows) or real_det(rows))
        for fan in (refined, image):
            calls.clear()
            assert is_complete(fan)
            assert len(calls) == len(fan.maximal_cones)
            for mc in fan.maximal_cones:
                assert fan._memo["maximal_dets"][mc.ray_indices] == oracles.det(
                    [fan.rays[i] for i in mc.ray_indices])


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

    def test_projection_is_the_hermite_basis_of_the_annihilator(self):
        fan = catalog_entry("p2xp1").fan  # ray 3 is (0, 0, 1)
        q = localize(fan, fan.cone((3,)))
        assert q.projection.entries == ((1, 0, 0), (0, 1, 0))
        assert q.rays == ((1, 0), (0, 1), (-1, -1))

    def test_zero_cone_identity_localization(self):
        fan = catalog_entry("p2").fan
        q = localize(fan, fan.zero_cone)
        assert q.quotient_rank == 2
        assert len(q.rays) == 3

    def test_projection_is_the_canonical_annihilator_on_every_cone(self):
        # Every cone of the catalog fans and of two seeded grown fans. The
        # digest of the localized relation bases was recorded when the
        # projection was read off a Smith transform: the relations do not
        # depend on the basis chosen for the quotient.
        fans = [entry.fan for entry in catalog()]
        for base, seed in (("p2xp1", 1), ("sigma_c", 2)):
            rng, fan = random.Random(seed), catalog_entry(base).fan
            for _ in range(8):
                fan = refine_module.stellar_subdivide(
                    fan, *refine_module.random_stellar_draw(fan, rng))
            fans.append(fan)
        digest = hashlib.sha256()
        for fan in fans:
            for cone in fan.cones:
                q = localize(fan, cone)
                assert oracles.is_hnf([list(row) for row in q.projection.entries])
                assert q.quotient_rank == q.projection.rows == fan.rank - cone.dim
                for i in cone.ray_indices:
                    assert not any(q.projection.mul_vector(fan.rays[i]))
                lat = rel_lattice_localized(fan, cone)
                digest.update(repr((lat.ray_labels, lat.basis_rows)).encode())
        assert digest.hexdigest() == (
            "4827437b0b10ae7b600062d02c3376905d365f7f390f6eaa99b03d6899e16142")


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

    def test_image_shares_the_face_map_cache_only(self):
        fan = _rebuild(catalog_entry("p2xp1").fan)
        tables = [star_sets(fan, k) for k in range(fan.rank + 1)]
        assert is_complete(fan)
        image = apply_unimodular(fan, IntMatrix([[1, 1, 0], [0, 1, 0], [0, 0, 1]]))
        assert image._cones is fan._cones
        assert image.cones is fan.cones and image.maximal_cones is fan.maximal_cones
        assert all(star_sets(image, k) is table for k, table in enumerate(tables))
        # Completeness and the determinants read the rays: the image has its own.
        assert "complete" not in image._memo and "maximal_dets" not in image._memo
        assert is_complete(image)
        assert image._memo["maximal_dets"] is not fan._memo["maximal_dets"]


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


def test_feasibility_with_tied_minimum_ratio():
    # x >= 1 and 2x >= 2: the first pivot column has ratios 1/1 and 2/2, and
    # Bland's rule lets the lower basic variable leave.
    assert fm_feasible([((1,), 1), ((2,), 2)], 1) is True
    assert fm_feasible([((1,), 1), ((2,), 2), ((-1,), 0)], 1) is False
    assert fm_feasible([((1, 1), 2), ((2, 2), 4), ((3, -1), 1), ((-1, 0), -3)], 2) is True


def cramer(columns, target):
    """Oracle: Cramer's rule on the first nonsingular k x k row subset.

    Returns the solution as Fractions, None when it misses a row, and
    "dependent" when every k x k minor vanishes.
    """
    k, n = len(columns), len(target)
    rows = [[col[i] for col in columns] for i in range(n)]
    for pick in combinations(range(n), k):
        sub = [rows[i] for i in pick]
        d = oracles.det(sub)
        if d:
            x = [oracles.det([[target[i] if c == j else row[c] for c in range(k)]
                              for i, row in zip(pick, sub)]) / d for j in range(k)]
            if all(sum(x[c] * row[c] for c in range(k)) == t for row, t in zip(rows, target)):
                return x
            return None
    return "dependent"


class TestSolveUnique:
    def solve(self, columns, target):
        try:
            solution = solve_unique(columns, target)
        except ValueError:
            return "dependent"
        if solution is None:
            return None
        nums, den = solution
        assert den > 0 and all(isinstance(x, int) for x in nums)
        return [Fraction(x, den) for x in nums]

    @pytest.mark.parametrize("bound", [3, 10 ** 6, 10 ** 30])
    def test_matches_cramer(self, bound):
        rng = random.Random(bound)
        kinds = {"solved": 0, None: 0, "dependent": 0}
        for _ in range(300):
            k = rng.randint(1, 4)
            n = rng.randint(k, k + 2)  # square and tall
            columns = [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(k)]
            if k > 1 and rng.random() < 0.2:
                columns[-1] = [3 * a - b for a, b in zip(columns[0], columns[1])]
            if rng.random() < 0.5:
                hidden = [rng.randint(-bound, bound) for _ in range(k)]
                target = [sum(x * col[i] for x, col in zip(hidden, columns)) for i in range(n)]
            else:
                target = [rng.randint(-bound, bound) for _ in range(n)]
            expected = cramer(columns, target)
            assert self.solve(columns, target) == expected, (columns, target)
            kinds[expected if expected in (None, "dependent") else "solved"] += 1
        assert all(kinds.values()), kinds

    def test_known_instances(self):
        assert solve_unique([(2, 0), (0, 4)], (1, 1)) == ([4, 2], 8)  # Cramer: det 8
        assert solve_unique([(0, -1), (1, 0)], (3, 5)) == ([-5, 3], 1)
        assert solve_unique([(1, 1, 0)], (2, 2, 1)) is None  # inconsistent tall system
        with pytest.raises(ValueError):
            solve_unique([(1, 2), (2, 4)], (1, 2))
        with pytest.raises(ValueError):
            solve_unique([(1, 0), (0, 1), (1, 1)], (1, 1))  # more columns than rows


class TestDet:
    def test_empty_matrix(self):
        assert det([]) == 1

    @pytest.mark.parametrize("bound", [3, 10 ** 6, 2 ** 200])
    def test_matches_oracle(self, bound):
        rng = random.Random(bound)
        kinds = {"singular": 0, "swap": 0, "negative": 0}
        for _ in range(300):
            n = rng.randint(1, 5)
            rows = [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(n)]
            if n > 2 and rng.random() < 0.25:
                i, j, k = rng.sample(range(n), 3)
                rows[i] = [2 * a - 3 * b for a, b in zip(rows[j], rows[k])]
            if n > 1 and rng.random() < 0.3:
                rows[0][0] = 0  # the first pivot needs a row swap
            expected = oracles.det(rows)
            assert det(rows) == expected, rows
            kinds["singular"] += expected == 0
            kinds["swap"] += n > 1 and rows[0][0] == 0 and expected != 0
            kinds["negative"] += expected < 0
        assert all(kinds.values()), kinds

    def test_known_instances(self):
        assert det([[7]]) == 7
        assert det([[0, 1], [1, 0]]) == -1  # one swap
        assert det([[0, 0, 1], [0, 1, 0], [1, 0, 0]]) == -1
        assert det([[0, 1, 0], [0, 0, 1], [1, 0, 0]]) == 1  # two swaps
        assert det([[1, 2], [2, 4]]) == 0
        assert det([[0, 0], [1, 1]]) == 0  # a column with no pivot
        big = 2 ** 200
        assert det([[big, 1], [1, big]]) == big * big - 1
        assert det([[-big, big], [big, big]]) == -2 * big * big
        rows = ((2, 1), (1, 3))
        assert det(rows) == 5 and rows == ((2, 1), (1, 3))  # input left unchanged
        with pytest.raises(ValueError):
            det([[1, 2]])


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

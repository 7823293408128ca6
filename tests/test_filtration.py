import dataclasses
import hashlib
import importlib
import itertools
import random

import pytest

import oracles
from fanlat.corpus import catalog, catalog_entry
from fanlat.errors import (FanValidationError, InternalCheckError, NotARelationError,
                           NotCompleteError, NotLocallyGeneratedError)
from fanlat.fan import build_fan, star, star_sets
from fanlat.filtration import (check_generation, depth, filtration,
                               local_decompose)
from fanlat.intlin import IntMatrix, Sublattice, integer_kernel, lattice_equal, member
from fanlat.lattices import (SupportPolicy, class_group, rel_lattice,
                             rel_lattice_star, star_support)
from fanlat.refine import random_stellar_draw, stellar_subdivide

fan_module = importlib.import_module("fanlat.fan")
filtration_module = importlib.import_module("fanlat.filtration")

INC = SupportPolicy.INCLUSIVE
EXC = SupportPolicy.EXCLUSIVE

COMPLETE_NAMES = ("p2", "p1xp1", "p3", "p2xp1", "blowup_p2", "sigma_c")


def p2_refinement_fan():
    """Seven-ray refinement of p2 whose relations need many stars."""
    return build_fan(2, [(1, 0), (0, 1), (-1, -1), (3, 1), (-2, -1), (-6, -1), (-1, 0)],
                     [(0, 2), (0, 3), (1, 3), (1, 6), (2, 4), (4, 5), (5, 6)],
                     name="p2-refined")


def hexagon_fan():
    """Complete rank-2 fan with a relation outside inclusive level 1."""
    rays = [(-2, -1), (-1, -2), (1, -2), (1, 0), (1, 2), (-1, 2)]
    return build_fan(2, rays, [(i, (i + 1) % 6) for i in range(6)], name="hexagon")


def diamond_fan():
    """Complete non-smooth rank-2 fan whose stars never see all rays."""
    return build_fan(2, [(1, 1), (-1, 1), (-1, -1), (1, -1)],
                     [(0, 1), (1, 2), (2, 3), (3, 0)], name="diamond")


class TestFiltrationLevels:
    def test_p2_inclusive_generated_at_one(self):
        fan = catalog_entry("p2").fan
        profile = filtration(fan, INC)
        assert profile.level_ranks == (0, 1, 1)
        assert lattice_equal(profile.levels[1], rel_lattice(fan).sublattice)

    def test_p2_exclusive_all_trivial(self):
        profile = filtration(catalog_entry("p2").fan, EXC)
        assert profile.level_ranks == (0, 0, 0)

    def test_p2xp1_exclusive_levels(self):
        fan = catalog_entry("p2xp1").fan
        profile = filtration(fan, EXC)
        assert lattice_equal(profile.levels[1], Sublattice(5, [(0, 0, 0, 1, 1)]))
        assert lattice_equal(profile.levels[2], rel_lattice(fan).sublattice)

    def test_chain_property(self):
        for entry in catalog():
            for policy in (INC, EXC):
                profile = filtration(entry.fan, policy)
                for k in range(len(profile.levels) - 1):
                    for row in profile.levels[k].basis_rows:
                        assert member(row, profile.levels[k + 1])

    def test_levels_inside_relation_lattice(self):
        for entry in catalog():
            rel = rel_lattice(entry.fan).sublattice
            for policy in (INC, EXC):
                profile = filtration(entry.fan, policy)
                for level in profile.levels:
                    for row in level.basis_rows:
                        assert member(row, rel)

    def test_contributing_records(self):
        fan = catalog_entry("p2xp1").fan
        profile = filtration(fan, EXC)
        level1 = profile.contributing[1]
        assert all(cone.codim == 1 and rank > 0 for cone, rank in level1)
        assert any(cone.ray_indices == (0, 1) for cone, _ in level1)


def _spy(monkeypatch, name):
    """Wrap fanlat.fan's function name so that each call logs (fan, other args); return the log."""
    real = getattr(fan_module, name)
    calls = []

    def recorder(fan, *args):
        calls.append((fan, args))
        return real(fan, *args)

    monkeypatch.setattr(fan_module, name, recorder)
    return calls


def _built_levels(fan, policy):
    return {key[2] for key in fan._memo if key[0] == "level" and key[1] is policy}


class TestLevelsOnDemand:
    def test_depth_of_stops_at_the_first_level_containing_the_relation(self):
        # (1, 1, 1, 1) is supported on the star of every codim-1 cone of p3,
        # so its depth is certified: level 1 and its star kernels are never
        # built, and neither is the zero level 0.
        fan = build_fan(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)],
                        [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)])
        assert filtration(fan, INC).depth_of((1, 1, 1, 1)) == 1
        assert _built_levels(fan, INC) == set()
        assert not any(key[0] == "kernel" for key in fan._memo)
        # Without a certificate, depth_of builds exactly the levels up to the depth.
        fan = p2_refinement_fan()
        assert filtration(fan, INC).depth_of((1, 0, 0, 0, 0, 0, 1)) == 1
        assert _built_levels(fan, INC) == {0, 1}
        kernels = {key[1] for key in fan._memo if key[0] == "kernel"}
        # Level 1 reads the relation lattice and the kernels of the rays'
        # stars, which are seven distinct ray sets, in ray order until their
        # sum is the relation lattice: the first six reach it.
        stars = [star_support(fan, fan.cone((i,)), INC) for i in range(7)]
        assert len(set(stars)) == 7
        assert kernels == {tuple(range(7)), *stars[:6]}
        fan = hexagon_fan()
        assert filtration(fan, INC).depth_of((2, 0, 0, 1, 2, -1)) is None
        assert _built_levels(fan, INC) == {0, 1, 2}

    def test_level_without_generators_is_the_level_below(self):
        for entry in catalog():
            for policy in (INC, EXC):
                profile = filtration(entry.fan, policy)
                n = entry.fan.rank
                assert profile.contributing[n] == ()
                assert profile.levels[n] is profile.levels[n - 1]
                if entry.fan.simplicial:
                    assert profile.contributing[0] == ()

    def test_non_simplicial_codim0_star_still_contributes(self):
        # A square pyramid: one full-dimensional cone on four extremal rays.
        rays = [(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1)]
        full = [(0, 1, 2, 3), (0, 1), (1, 2), (2, 3), (0, 3), (0,), (1,), (2,), (3,)]
        fan = build_fan(3, rays, [(0, 1, 2, 3)], cones=full, trust=True)
        assert not fan.simplicial
        cone = fan.cone((0, 1, 2, 3))
        assert filtration(fan, INC).contributing[0] == ((cone, 1),)

    def test_profile_is_immutable(self):
        profile = filtration(catalog_entry("p2").fan, INC)
        with pytest.raises(dataclasses.FrozenInstanceError):
            profile.levels = ()
        with pytest.raises(dataclasses.FrozenInstanceError):
            profile.policy = EXC


def cube_fan():
    """Trusted non-simplicial complete fan: the cones over the faces of a cube."""
    rays = list(itertools.product((1, -1), repeat=3))
    squares = [[i for i, v in enumerate(rays) if v[axis] == sign]
               for axis in range(3) for sign in (1, -1)]
    edges = [(i, j) for i, j in itertools.combinations(range(8), 2)
             if sum(a != b for a, b in zip(rays[i], rays[j])) == 1]
    cones = squares + edges + [(i,) for i in range(8)]
    return build_fan(3, rays, squares, cones=cones, trust=True, name="cube")


def _fresh(fan):
    """The same fan built again from its cones, with an empty cache."""
    return build_fan(fan.rank, fan.rays, [mc.ray_indices for mc in fan.maximal_cones],
                     cones=[c.ray_indices for c in fan.cones], trust=True)


def _subdivision_chain(name, seed, steps=3):
    """Fans of a chain of seeded stellar subdivisions of a catalog fan."""
    fan, rng, chain = catalog_entry(name).fan, random.Random(seed), []
    for _ in range(steps):
        fan = stellar_subdivide(fan, *random_stellar_draw(fan, rng))
        chain.append(fan)
    return chain


def _probe_vectors(fan, rng):
    """Zero, the basis relations, random sums of them, and the unit vectors."""
    basis = rel_lattice(fan).basis_rows
    m = len(fan.rays)
    vectors = [(0,) * m, *basis]
    for _ in range(4):
        coeffs = [rng.randint(-2, 2) for _ in basis]
        vectors.append(tuple(sum(c * row[j] for c, row in zip(coeffs, basis)) for j in range(m)))
    return vectors + [tuple(int(i == j) for j in range(m)) for i in range(m)]


def _non_pure_fan():
    """Trusted simplicial rank-3 fan with a maximal cone of each dimension 1, 2 and 3."""
    rays = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, 0), (0, -1, -1)]
    return build_fan(3, rays, [(0, 1, 2), (2, 3), (4,)], trust=True)


class TestStarSetTable:
    """Level building reads every codim-k star set of a simplicial fan from one table."""

    @staticmethod
    def _fans():
        fans = [_fresh(entry.fan) for entry in catalog() if entry.fan.simplicial]
        for name, seed in (("p2", 3), ("p3", 4), ("p2xp1", 5), ("blowup_p2", 6)):
            fans.extend(_fresh(fan) for fan in _subdivision_chain(name, seed, steps=4))
        return fans + [_non_pure_fan()]

    def test_table_matches_stars(self):
        for fan in self._fans():
            for k in range(fan.rank + 1):
                expected = [(c.ray_indices, star(fan, c)[1]) for c in fan.cones
                            if c.ray_indices and c.codim == k]
                assert list(star_sets(fan, k).items()) == expected, (fan, k)

    def test_levels_sum_the_star_kernels_of_their_cones(self):
        for fan in self._fans():
            m = len(fan.rays)
            for policy in (INC, EXC):
                profile = filtration(_fresh(fan), policy)
                for k in range(fan.rank + 1):
                    rows = [row for c in fan.cones if c.ray_indices and c.codim <= k
                            for row in rel_lattice_star(fan, c, policy).basis_rows]
                    assert profile.levels[k] == Sublattice(m, rows), (fan, policy, k)
                    assert [cone.ray_indices for cone, _ in profile.contributing[k]] == [
                        c.ray_indices for c in fan.cones if c.ray_indices and c.codim == k
                        and rel_lattice_star(fan, c, policy).rank], (fan, policy, k)

    def test_levels_and_depth_queries_share_one_table_and_build_no_star(self, monkeypatch):
        stars = _spy(monkeypatch, "_star")
        tables = _spy(monkeypatch, "_star_sets")
        fan = _fresh(catalog_entry("p2xp1").fan)
        for policy in (INC, EXC):
            for r in rel_lattice(fan).basis_rows:
                filtration(fan, policy).depth_of(r)
            filtration(fan, policy).levels
        assert stars == []
        # One table per codimension, whichever policy or query asks first.
        # Both policies reach the relation lattice at level 2, so level 3
        # reads no table (codim 3 has no nonzero cone anyway). _fresh lists
        # the catalog fan's cones, which reads that fan's tables, so only
        # the calls on the fan under test count.
        assert sorted(args for f, args in tables if f is fan) == [(1,), (2,)]
        assert "faces" not in fan._cones.memo
        assert star_sets(fan, 3) == {}


class TestDepthBySupportCertificate:
    """depth_of on a fan without levels agrees with the depth read from built levels."""

    @staticmethod
    def _check_against_levels(fan, seed):
        """Compare every probe vector under both policies; count the certified depths."""
        certified = 0
        vectors = _probe_vectors(fan, random.Random(seed))
        for policy in (INC, EXC):
            levels = filtration(_fresh(fan), policy).levels
            for r in vectors:
                expected = next((k for k, level in enumerate(levels) if member(r, level)), None)
                fresh = _fresh(fan)
                got = filtration(fresh, policy).depth_of(r)
                assert got == expected, (fan, policy, r)
                # The fan as given answers in sequence, its cache filling up as a scan's does.
                assert filtration(fan, policy).depth_of(r) == expected, (fan, policy, r)
                certified += bool(got) and got not in _built_levels(fresh, policy)
        return certified

    def test_catalog_fans(self):
        assert sum(self._check_against_levels(_fresh(entry.fan), 7) for entry in catalog())

    @pytest.mark.parametrize("name", ["p2", "p3", "p2xp1"])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_subdivision_chains(self, name, seed):
        chain = _subdivision_chain(name, seed)
        assert sum(self._check_against_levels(fan, seed) for fan in chain)

    def test_trusted_non_simplicial_fan(self):
        fan = cube_fan()
        assert not fan.simplicial
        # Its codim-0 stars contribute, so level 0 is built and read, never certified.
        assert filtration(_fresh(fan), INC).contributing[0]
        self._check_against_levels(fan, 5)

    @staticmethod
    def _answers(fan, order):
        """Depths of every basis relation and every level's basis, per policy, in one call order.

        depth-first answers every depth on a fresh fan before it builds a
        level; levels-first builds every level first; report reads the
        relation lattice, then per policy the level ranks, check_generation
        and the depths, as the report command does.
        """
        basis = rel_lattice(_fresh(fan)).basis_rows
        fresh = _fresh(fan)
        profiles = [filtration(fresh, policy) for policy in (INC, EXC)]
        depths = {}
        if order == "depth-first":
            depths = {p.policy: tuple(map(p.depth_of, basis)) for p in profiles}
        elif order == "levels-first":
            for p in profiles:
                p.levels
        else:
            rel_lattice(fresh)
            for p in profiles:
                p.level_ranks
                check_generation(fresh, p.policy)
                depths[p.policy] = tuple(map(p.depth_of, basis))
        return {p.policy: (depths.get(p.policy) or tuple(map(p.depth_of, basis)),
                           tuple(level.basis_rows for level in p.levels)) for p in profiles}

    @pytest.mark.parametrize("fans", [
        lambda: [entry.fan for entry in catalog()],
        lambda: _subdivision_chain("p2xp1", 8, steps=4),
        lambda: _subdivision_chain("p3", 4, steps=4),
    ], ids=["catalog", "p2xp1-chain", "p3-chain"])
    def test_answers_do_not_depend_on_call_order(self, fans):
        for fan in fans():
            first = self._answers(fan, "depth-first")
            assert self._answers(fan, "levels-first") == first, fan
            assert self._answers(fan, "report") == first, fan
            for policy in (INC, EXC):
                assert first[policy][0] == tuple(
                    depth(_fresh(fan), r, policy) for r in rel_lattice(fan).basis_rows), fan
        fan = _fresh(catalog_entry("p2xp1").fan)
        for policy in (INC, EXC):
            filtration(fan, policy).depth_of((1, 1, 1, 0, 0))
            depth(fan, (0, 0, 0, 1, 1), policy)
        assert filtration(fan, INC).levels == filtration(_fresh(fan), INC).levels

    def test_relation_lattice_is_the_kernel_of_a_star_holding_every_ray(self):
        # Every ray of p2 has all three rays in its star, whichever is asked first.
        for star_first in (True, False):
            fan = _fresh(catalog_entry("p2").fan)
            stars = [rel_lattice_star(fan, fan.cone((i,)), INC) for i in range(3) if star_first]
            rel = rel_lattice(fan)
            assert all(rel is rel_lattice_star(fan, fan.cone((i,)), INC) for i in range(3))
            assert all(s is rel for s in stars)
        found = 0
        for entry in catalog():
            fan = _fresh(entry.fan)
            for cone in fan.cones[1:]:
                for policy in (INC, EXC):
                    if star_support(fan, cone, policy) == tuple(range(len(fan.rays))):
                        assert rel_lattice_star(fan, cone, policy) is rel_lattice(fan)
                        found += 1
        assert found

    def test_relation_outside_every_codim1_star(self):
        # p2xp1's base relation fits no exclusive codim-1 star, so level 1 is
        # built and rejects it; its depth 2 is then certified at codim 2.
        fan = _fresh(catalog_entry("p2xp1").fan)
        assert filtration(fan, EXC).depth_of((1, 1, 1, 0, 0)) == 2
        assert _built_levels(fan, EXC) == {0, 1}

    def test_non_relation_fitting_a_star_gets_none(self):
        fan = _fresh(catalog_entry("p3").fan)
        for v in ((1, 0, 0, 0), (1, 1, 1, 0), (1, 1, 1, 2)):
            assert filtration(fan, INC).depth_of(v) is None
        assert _built_levels(fan, INC) == set()

    def test_certificate_reads_each_distinct_support_once(self, monkeypatch):
        stars = _spy(monkeypatch, "_star")
        for name in ("p3", "p2xp1"):
            fan = _fresh(catalog_entry(name).fan)
            keys = [c.ray_indices for c in fan.cones]
            for policy in (INC, EXC):
                for r in _probe_vectors(fan, random.Random(11)):
                    filtration(fan, policy).depth_of(r)
                for k in range(1, fan.rank):
                    supports = []
                    for c in fan.cones:
                        if c.ray_indices and c.codim == k:
                            rays = oracles.star_bruteforce(keys, c.ray_indices)[1]
                            if policy is EXC:
                                rays = [i for i in rays if i not in c.ray_indices]
                            supports.append(sum(1 << i for i in rays))
                    masks = filtration_module._star_masks(fan, policy, k)
                    assert masks == tuple(dict.fromkeys(supports)), (name, policy, k)
        assert stars == []

    def test_zero_vector_has_depth_zero(self):
        for entry in catalog():
            for policy in (INC, EXC):
                fan = _fresh(entry.fan)
                assert filtration(fan, policy).depth_of((0,) * len(fan.rays)) == 0


def _kernel_rows(fan, support):
    """A basis of the relations supported on support, zero-extended to every ray, by integer_kernel."""
    columns = [fan.rays[i] for i in support]
    rows = []
    for row in integer_kernel(IntMatrix.from_columns(columns, height=fan.rank)).basis_rows:
        vec = [0] * len(fan.rays)
        for i, x in zip(support, row):
            vec[i] = x
        rows.append(vec)
    return rows


def _oracle_supports(fan, policy, k):
    """(cone, star support) of every nonzero codim-k cone, in cones order, from brute-force stars."""
    keys = [c.ray_indices for c in fan.cones]
    out = []
    for c in fan.cones:
        if c.ray_indices and c.codim == k:
            rays = oracles.star_bruteforce(keys, c.ray_indices)[1]
            if policy is EXC:
                rays = [i for i in rays if i not in c.ray_indices]
            out.append((c, tuple(rays)))
    return out


class TestLevelsStopAtTheRelationLattice:
    """Levels read no star kernel once their sum reaches the relation lattice."""

    @staticmethod
    def _check(fan, reads):
        """Check the kernels each level reads against an oracle.

        Returns how many supports went unread above the first level equal
        to the relation lattice, and in how many levels the running sum
        stopped early.
        """
        m = len(fan.rays)
        rel = rel_lattice(fan).sublattice
        above = inside = 0
        for policy in (INC, EXC):
            fresh = _fresh(fan)
            rel_lattice(fresh)
            profile = filtration(fresh, policy)
            below = Sublattice(m)
            for k in range(fan.rank + 1):
                reads.clear()
                level = profile.level(k)
                supports = []
                if k or not fan.simplicial:
                    supports = list(dict.fromkeys(s for _, s in _oracle_supports(fan, policy, k)))
                expected, rows = [], list(below.basis_rows)
                if below != rel:
                    for support in supports:
                        expected.append(support)
                        rows += _kernel_rows(fan, support)
                        if Sublattice(m, rows) == rel:
                            break
                assert [s for f, s in reads if f is fresh] == expected, (fan, policy, k)
                full = [row for support in supports for row in _kernel_rows(fan, support)]
                assert level == Sublattice(m, list(below.basis_rows) + full), (fan, policy, k)
                if below == rel:
                    above += len(supports)
                else:
                    inside += len(expected) < len(supports)
                below = level
            # The contributing cones read the rank of each cone's star
            # kernel, in cones order, and build no level.
            reads.clear()
            levels = {key for key in fresh._memo if key[0] == "level"}
            profile.contributing
            assert [s for f, s in reads if f is fresh] == [
                s for k in range(fan.rank + 1) if k or not fan.simplicial
                for _, s in _oracle_supports(fan, policy, k)], (fan, policy)
            assert {key for key in fresh._memo if key[0] == "level"} == levels, (fan, policy)
        return above, inside

    @pytest.fixture
    def reads(self, monkeypatch):
        """Log (fan, support) for every star kernel that level building reads."""
        real = filtration_module._star_kernel
        log = []

        def spy(fan, support):
            log.append((fan, support))
            return real(fan, support)

        monkeypatch.setattr(filtration_module, "_star_kernel", spy)
        return log

    def test_catalog(self, reads):
        counts = [self._check(entry.fan, reads) for entry in catalog()]
        assert all(map(sum, zip(*counts)))

    def test_grown_chain(self, reads):
        chain = _subdivision_chain("p2xp1", 8, steps=20)
        assert len(chain[-1].rays) == 25
        counts = [self._check(fan, reads) for fan in chain[::4] + chain[-1:]]
        assert all(map(sum, zip(*counts)))


class TestContributingRanks:
    """Contributing ranks, read without kernels, are the star kernels' ranks."""

    @staticmethod
    def _fans():
        return ([entry.fan for entry in catalog()] + _subdivision_chain("p3", 2, steps=6)
                + [cube_fan(), _non_pure_fan()])

    def test_ranks_match_integer_kernel_and_brute_force(self):
        brute = 0
        for fan in self._fans():
            for warm in (False, True):
                for policy in (INC, EXC):
                    f = _fresh(fan)
                    if warm:
                        # Levels cache the kernels below the relation lattice,
                        # so some ranks are read from kernels and some are not.
                        filtration(f, INC).levels
                        filtration(f, EXC).levels
                    got = filtration(f, policy).contributing
                    for k in range(fan.rank + 1):
                        expected = []
                        for cone, support in (_oracle_supports(fan, policy, k)
                                              if k or not fan.simplicial else []):
                            columns = [fan.rays[i] for i in support]
                            kernel = integer_kernel(
                                IntMatrix.from_columns(columns, height=fan.rank))
                            rank = kernel.rank
                            # The box holds a kernel basis, so the kernel
                            # vectors found in it span a lattice of its rank.
                            bound = max((abs(x) for row in kernel.basis_rows for x in row),
                                        default=1)
                            if len(support) <= 4 and bound <= 3:
                                found = oracles.kernel_vectors_bruteforce(columns, bound)
                                assert Sublattice(len(support), found).rank == rank, support
                                brute += 1
                            if rank:
                                expected.append((cone, rank))
                        assert got[k] == tuple(expected), (fan, warm, policy, k)
        assert brute > 100


def _relabelled(fan, perm):
    """The fan whose ray i is ray perm[i] of fan, built afresh from its relabelled cones."""
    label = {old: new for new, old in enumerate(perm)}

    def relabel(rays):
        return sorted(label[i] for i in rays)

    return build_fan(fan.rank, [fan.rays[i] for i in perm],
                     [relabel(mc.ray_indices) for mc in fan.maximal_cones],
                     cones=[relabel(c.ray_indices) for c in fan.cones], trust=True)


def _class_group_or_none(fan):
    try:
        return class_group(fan)
    except FanValidationError:
        return None


class TestRayRelabelling:
    """Relabelling the rays changes no invariant, though every kernel reads its vectors in order."""

    def test_level_ranks_depths_and_class_group(self):
        fans = [entry.fan for entry in catalog()]
        for name, seed in (("p2", 11), ("p3", 12), ("p2xp1", 13), ("blowup_p2", 14)):
            fans.extend(_subdivision_chain(name, seed, steps=6))
        rng = random.Random(2026)
        for fan in map(_fresh, fans):
            basis = rel_lattice(fan).basis_rows
            expected = {policy: (filtration(fan, policy).level_ranks,
                                 [filtration(fan, policy).depth_of(r) for r in basis])
                        for policy in (INC, EXC)}
            group = _class_group_or_none(fan)
            for _ in range(3):
                perm = list(range(len(fan.rays)))
                rng.shuffle(perm)
                image = _relabelled(fan, perm)
                for policy, (ranks, depths) in expected.items():
                    profile = filtration(image, policy)
                    assert profile.level_ranks == ranks, (fan, perm, policy)
                    assert [profile.depth_of([r[i] for i in perm]) for r in basis] == depths, (
                        fan, perm, policy)
                assert _class_group_or_none(image) == group, (fan, perm)


def test_member_agrees_with_oracle_on_catalog():
    # Exhaustive coefficient search (bound 3) against every filtration
    # level; must agree with exact membership on every catalog instance.
    for entry in catalog():
        fan = entry.fan
        rel = rel_lattice(fan)
        for policy in (INC, EXC):
            profile = filtration(fan, policy)
            for r in rel.basis_rows:
                for level in profile.levels:
                    fast = member(r, level)
                    slow = oracles.member_bruteforce(r, level.basis_rows, 3)
                    assert fast == slow, (entry.name, policy, r)


class TestDepth:
    def test_p2_inclusive(self):
        assert depth(catalog_entry("p2").fan, (1, 1, 1), INC) == 1

    def test_p2xp1_exclusive_split(self):
        fan = catalog_entry("p2xp1").fan
        assert depth(fan, (1, 1, 1, 0, 0), EXC) == 2
        assert depth(fan, (0, 0, 0, 1, 1), EXC) == 1

    def test_p2xp1_inclusive_discrepancy(self):
        # The inclusive reading already reaches the base relation at level 1.
        assert depth(catalog_entry("p2xp1").fan, (1, 1, 1, 0, 0), INC) == 1

    def test_unreachable(self):
        assert depth(catalog_entry("p2").fan, (1, 1, 1), EXC) is None

    def test_non_relation_rejected(self):
        with pytest.raises(NotARelationError):
            depth(catalog_entry("p2").fan, (1, 0, 0), INC)

    def test_zero_rejected(self):
        with pytest.raises(NotARelationError):
            depth(catalog_entry("p2").fan, (0, 0, 0), INC)

    def test_sign_invariance(self):
        for name in COMPLETE_NAMES:
            fan = catalog_entry(name).fan
            for r in rel_lattice(fan).basis_rows:
                neg = tuple(-x for x in r)
                for policy in (INC, EXC):
                    assert depth(fan, r, policy) == depth(fan, neg, policy)

    def test_inclusive_no_deeper_than_exclusive(self):
        for name in COMPLETE_NAMES:
            fan = catalog_entry(name).fan
            for r in rel_lattice(fan).basis_rows:
                d_inc = depth(fan, r, INC)
                d_exc = depth(fan, r, EXC)
                if d_inc is not None and d_exc is not None:
                    assert d_inc <= d_exc


class TestCheckGeneration:
    def test_complete_catalog_inclusive(self):
        for name in COMPLETE_NAMES:
            report = check_generation(catalog_entry(name).fan, INC)
            assert report.complete
            assert report.generated_at_penultimate, name
            assert report.generated_at_top, name
            assert not report.violates_local_generation

    def test_p3_exclusive_violates(self):
        report = check_generation(catalog_entry("p3").fan, EXC)
        assert report.level_ranks[-1] == 0
        assert report.relation_rank == 1
        assert report.violates_local_generation

    def test_non_complete_reports_only(self):
        report = check_generation(catalog_entry("halfplane2").fan, INC)
        assert not report.complete
        assert not report.violates_local_generation
        assert report.relation_rank == 0


class TestLocalDecompose:
    def verify(self, fan, r, dec):
        total = [0] * len(fan.rays)
        ray_rows = [list(v) for v in fan.rays]
        for i, piece in dec.pieces.items():
            image = oracles.matmul([list(piece)], ray_rows)[0]
            assert not any(image), f"piece at {i} is not a relation"
            _, ray_set = star(fan, fan.cone((i,)))
            for j, x in enumerate(piece):
                assert x == 0 or j in ray_set, f"piece at {i} leaves its star"
            total = [a + b for a, b in zip(total, piece)]
        assert tuple(total) == tuple(r)

    def test_p2_single_piece_at_first_ray(self):
        fan = catalog_entry("p2").fan
        dec = local_decompose(fan, (1, 1, 1))
        assert dec.pieces == {0: (1, 1, 1)}

    def test_zero_relation_empty(self):
        dec = local_decompose(catalog_entry("p2").fan, (0, 0, 0))
        assert dec.pieces == {}

    def test_p2xp1_combined_relation(self):
        fan = catalog_entry("p2xp1").fan
        r = (1, 1, 1, 1, 1)
        dec = local_decompose(fan, r)
        assert len(dec.pieces) >= 1
        self.verify(fan, r, dec)

    def test_forced_routing_p1xp1(self):
        fan = catalog_entry("p1xp1").fan
        r = (1, 1, 1, 1)
        dec = local_decompose(fan, r)
        assert len(dec.pieces) >= 2  # no single star supports all four rays
        self.verify(fan, r, dec)

    def test_forced_routing_blowup(self):
        fan = catalog_entry("blowup_p2").fan
        r = (2, 2, 1, -1)
        dec = local_decompose(fan, r)
        assert len(dec.pieces) >= 2
        self.verify(fan, r, dec)

    def test_forced_routing_non_smooth(self):
        fan = diamond_fan()
        r = (1, 1, 1, 1)
        dec = local_decompose(fan, r)
        assert len(dec.pieces) >= 2
        self.verify(fan, r, dec)

    def test_every_catalog_basis_relation(self):
        for name in COMPLETE_NAMES:
            fan = catalog_entry(name).fan
            for r in rel_lattice(fan).basis_rows:
                self.verify(fan, r, local_decompose(fan, r))

    def test_random_relations_on_random_refinements(self):
        import random
        from fanlat.refine import random_stellar_draw, stellar_subdivide

        rng = random.Random(2718)
        for name in COMPLETE_NAMES:
            fan = catalog_entry(name).fan
            draw = random_stellar_draw(fan, rng)
            if draw is not None:
                fan = stellar_subdivide(fan, *draw)
            basis = rel_lattice(fan).basis_rows
            for _ in range(6):
                coeffs = [rng.randint(-3, 3) for _ in basis]
                r = tuple(sum(c * row[j] for c, row in zip(coeffs, basis))
                          for j in range(len(fan.rays)))
                if not any(r):
                    continue
                self.verify(fan, r, local_decompose(fan, r))

    def test_p2_refinement_every_relation(self):
        fan = p2_refinement_fan()
        basis = rel_lattice(fan).basis_rows
        assert basis[0] == (1, 0, 0, 0, 0, 0, 1)
        assert depth(fan, basis[0], INC) == 1
        for row in basis:
            self.verify(fan, row, local_decompose(fan, row))

    def test_one_solve_per_multi_star_relation(self, monkeypatch):
        # the package exports the function filtration under the module's name
        filtration_module = importlib.import_module("fanlat.filtration")
        factored, solved = [], []
        real_factor, real_solve = filtration_module.factor_columns, filtration_module.solve_factored

        def counting_factor(*args):
            factored.append(args)
            return real_factor(*args)

        def counting_solve(factor, target):
            solved.append(target)
            return real_solve(factor, target)

        monkeypatch.setattr(filtration_module, "factor_columns", counting_factor)
        monkeypatch.setattr(filtration_module, "solve_factored", counting_solve)
        fan = p2_refinement_fan()
        ray_stars = [set(star(fan, fan.cone((i,)))[1]) for i in range(len(fan.rays))]
        multi_star = []
        for r in rel_lattice(fan).basis_rows:
            self.verify(fan, r, local_decompose(fan, r))
            support = {j for j, x in enumerate(r) if x}
            if not any(support <= s for s in ray_stars):
                multi_star.append(r)
        assert len(multi_star) >= 2
        assert len(factored) == 1
        assert solved == multi_star
        local_decompose(fan, multi_star[0])  # the factorization is reused
        local_decompose(catalog_entry("p2").fan, (1, 1, 1))  # one star holds it
        local_decompose(fan, (0,) * 7)
        assert len(factored) == 1
        assert len(solved) == len(multi_star) + 1

    # Grown fans (catalog fan, chain seed, subdivisions) of 12-14 rays whose
    # multi-star relations go through the factorization of the stacked
    # ray-star kernels, with 5-11 xgcd steps in each; no catalog fan does.
    GROWN = (("p3", 1, 10), ("p3", 2, 9), ("p2xp1", 1, 9), ("p2xp1", 2, 7),
             ("sigma_c", 1, 9), ("sigma_c", 2, 8))

    def test_grown_fan_pieces_are_pinned(self, monkeypatch):
        intlin_module = importlib.import_module("fanlat.intlin")
        real_factor, real_xgcd = filtration_module.factor_columns, intlin_module.xgcd
        xgcd_steps = []

        def counting_factor(*args):
            calls = []
            monkeypatch.setattr(intlin_module, "xgcd", lambda a, b: calls.append(1) or real_xgcd(a, b))
            try:
                return real_factor(*args)
            finally:
                monkeypatch.setattr(intlin_module, "xgcd", real_xgcd)
                xgcd_steps.append(len(calls))

        monkeypatch.setattr(filtration_module, "factor_columns", counting_factor)
        digest = hashlib.sha256()
        for name, seed, steps in self.GROWN:
            fan = _subdivision_chain(name, seed, steps)[-1]
            for r in rel_lattice(fan).basis_rows:
                dec = local_decompose(fan, r)
                self.verify(fan, r, dec)
                digest.update(repr((name, seed, r, sorted(dec.pieces.items()))).encode())
        assert len(xgcd_steps) == len(self.GROWN) and min(xgcd_steps) >= 5
        assert digest.hexdigest() == (
            "58897d845c2dfcb906656e8cb51c52ee75d4df3857dfc382e4357bc862c92234")

    def test_relation_outside_penultimate_level(self):
        fan = hexagon_fan()
        r = (2, 0, 0, 1, 2, -1)
        assert check_generation(fan, INC).violates_local_generation
        with pytest.raises(NotLocallyGeneratedError):
            local_decompose(fan, r)

    def test_requires_complete_fan(self):
        with pytest.raises(NotCompleteError):
            local_decompose(catalog_entry("halfplane2").fan, (0, 0))

    def test_rejects_non_relation(self):
        with pytest.raises(NotARelationError):
            local_decompose(catalog_entry("p2").fan, (1, 0, 0))

    @pytest.mark.parametrize("name, r, pieces, message", [
        ("p2", (1, 1, 1), {0: (1, 0, 0)}, "piece at ray 0 is not a relation"),
        # p1xp1's rays 0 and 2 are opposite, so the star of ray 0 misses ray 2.
        ("p1xp1", (1, 0, 1, 0), {0: (1, 0, 1, 0)}, "piece at ray 0 leaves its star support"),
        ("p2", (1, 1, 1), {0: (1, 1, 1), 1: (1, 1, 1)}, "pieces do not sum to the relation"),
    ])
    def test_post_check_rejects_bad_pieces(self, name, r, pieces, message):
        fan = catalog_entry(name).fan
        with pytest.raises(InternalCheckError, match=message):
            filtration_module._verify_decomposition(
                r, pieces, star_sets(fan, fan.rank - 1), fan.ray_matrix())

import json
import math
import random

import pytest

import oracles
from fanlat import intlin as intlin_module
from fanlat import lattices as lattices_module
from fanlat.cli import main
from fanlat.corpus import catalog, catalog_entry
from fanlat.errors import FanValidationError
from fanlat.fan import apply_unimodular, build_fan, primitive
from fanlat.fanio import fan_to_dict
from fanlat.filtration import filtration
from fanlat.intlin import IntMatrix, Sublattice, hnf, lattice_equal, member, snf
from fanlat.lattices import (SupportPolicy, class_group, ray_lattice,
                             rel_lattice, rel_lattice_internal,
                             rel_lattice_localized, rel_lattice_star, star_support)

INC = SupportPolicy.INCLUSIVE
EXC = SupportPolicy.EXCLUSIVE


class TestRayLattice:
    def test_p2(self):
        rl = ray_lattice(catalog_entry("p2").fan)
        assert rl.rank == 2
        assert rl.index_in_ambient == 1

    def test_halfplane_index_two(self):
        rl = ray_lattice(catalog_entry("halfplane2").fan)
        assert rl.rank == 2
        assert rl.index_in_ambient == 2

    def test_single_ray_infinite_index(self):
        fan = build_fan(2, [(1, 0)], [(0,)])
        rl = ray_lattice(fan)
        assert rl.rank == 1
        assert rl.index_in_ambient is None


class TestRelLattice:
    def test_p2(self):
        assert rel_lattice(catalog_entry("p2").fan).basis_rows == ((1, 1, 1),)

    def test_p2xp1(self):
        rel = rel_lattice(catalog_entry("p2xp1").fan)
        assert rel.rank == 2
        expected = Sublattice(5, [(1, 1, 1, 0, 0), (0, 0, 0, 1, 1)])
        assert lattice_equal(rel.sublattice, expected)

    def test_p3_circuit(self):
        assert rel_lattice(catalog_entry("p3").fan).basis_rows == ((1, 1, 1, 1),)


class TestRelLatticeStar:
    def test_p2xp1_inclusive_codim1(self):
        fan = catalog_entry("p2xp1").fan
        lat = rel_lattice_star(fan, fan.cone((0, 3)), INC)
        assert lat.basis_rows == ((1, 1, 1, 0, 0),)

    def test_p2xp1_exclusive_codim1_trivial(self):
        fan = catalog_entry("p2xp1").fan
        assert rel_lattice_star(fan, fan.cone((0, 3)), EXC).rank == 0

    def test_p2xp1_exclusive_sees_fiber_relation(self):
        fan = catalog_entry("p2xp1").fan
        lat = rel_lattice_star(fan, fan.cone((0, 1)), EXC)
        assert lat.basis_rows == ((0, 0, 0, 1, 1),)

    def test_zero_cone_rejected(self):
        fan = catalog_entry("p2").fan
        with pytest.raises(FanValidationError):
            rel_lattice_star(fan, fan.zero_cone, INC)
        with pytest.raises(FanValidationError):
            star_support(fan, fan.zero_cone, EXC)


class TestCanonicalKernelRows:
    """Zero-extended kernels skip the HNF; their rows must already be canonical."""

    def test_star_kernels_match_public_constructor(self):
        for entry in catalog():
            fan = entry.fan
            m = len(fan.rays)
            for cone in fan.cones:
                if not cone.ray_indices:
                    continue
                for policy in (INC, EXC):
                    lat = rel_lattice_star(fan, cone, policy).sublattice
                    assert lat == Sublattice(m, lat.basis_rows), (entry.name, cone, policy)

    def test_internal_kernels_match_public_constructor(self):
        rays = [(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1)]
        full = [(), (0,), (1,), (2,), (3,), (0, 1), (1, 2), (2, 3), (0, 3),
                (0, 1, 2, 3)]
        fans = [entry.fan for entry in catalog()]
        fans.append(build_fan(3, rays, [(0, 1, 2, 3)], cones=full, trust=True))
        for fan in fans:
            for cone in fan.cones:
                lat = rel_lattice_internal(fan, cone).sublattice
                assert lat == Sublattice(len(fan.rays), lat.basis_rows)


class TestRelLatticeInternal:
    def test_simplicial_cone_trivial(self):
        fan = catalog_entry("p2xp1").fan
        for cone in fan.cones:
            assert rel_lattice_internal(fan, cone).rank == 0

    def test_zero_cone_trivial(self):
        fan = catalog_entry("p2").fan
        assert rel_lattice_internal(fan, fan.zero_cone).rank == 0

    def test_non_simplicial_square_cone(self):
        rays = [(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1)]
        full = [(), (0,), (1,), (2,), (3,), (0, 1), (1, 2), (2, 3), (0, 3),
                (0, 1, 2, 3)]
        fan = build_fan(3, rays, [(0, 1, 2, 3)], cones=full, trust=True)
        lat = rel_lattice_internal(fan, fan.cone((0, 1, 2, 3)))
        assert lat.basis_rows == ((1, -1, 1, -1),)


class TestRelLatticeLocalized:
    def test_p2_at_ray(self):
        fan = catalog_entry("p2").fan
        lat = rel_lattice_localized(fan, fan.cone((0,)))
        assert lat.basis_rows == ((1, 1),)
        assert lat.ray_labels == (1, 2)

    def test_maximal_cone_trivial(self):
        fan = catalog_entry("p2").fan
        lat = rel_lattice_localized(fan, fan.cone((0, 1)))
        assert lat.rank == 0
        assert lat.ray_labels == ()

    def test_p2xp1_codim1(self):
        fan = catalog_entry("p2xp1").fan
        lat = rel_lattice_localized(fan, fan.cone((0, 3)))
        assert lat.basis_rows == ((1, 1),)


class TestClassGroup:
    def test_p2(self):
        cg = class_group(catalog_entry("p2").fan)
        assert (cg.free_rank, cg.torsion) == (1, ())

    def test_p2xp1(self):
        cg = class_group(catalog_entry("p2xp1").fan)
        assert (cg.free_rank, cg.torsion) == (2, ())

    def test_halfplane_torsion(self):
        cg = class_group(catalog_entry("halfplane2").fan)
        assert (cg.free_rank, cg.torsion) == (0, (2,))

    def test_non_spanning_rejected(self):
        fan = build_fan(2, [(1, 0)], [(0,)])
        with pytest.raises(FanValidationError, match="span"):
            class_group(fan)

    @staticmethod
    def _full_matrix_class_group(fan):
        """(free rank, torsion) from the Smith form of the whole m x n ray matrix; None if rank-deficient."""
        s, _, _ = snf(IntMatrix(fan.rays, cols=fan.rank))
        diag = [s.entries[i][i] for i in range(min(s.rows, s.cols))]
        rank = sum(1 for d in diag if d)
        if rank < fan.rank:
            return None
        return len(fan.rays) - rank, tuple(d for d in diag if d > 1)

    def test_matches_the_full_matrix_smith_form(self):
        # Rays drawn from a lattice of rank at most n, so that some sets do
        # not span; each ray is its own cone, and class_group reads only rays.
        rng = random.Random(2024)
        deficient = 0
        for _ in range(300):
            n = rng.randint(1, 4)
            span = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(rng.randint(1, n))]
            rays = set()
            for _ in range(rng.randint(0, 7)):
                v = [sum(rng.randint(-3, 3) * b[j] for b in span) for j in range(n)]
                if any(v):
                    rays.add(primitive(v))
            rays = sorted(rays)
            fan = build_fan(n, rays, [(i,) for i in range(len(rays))], trust=True)
            expected = self._full_matrix_class_group(fan)
            if expected is None:
                deficient += 1
                with pytest.raises(FanValidationError, match="span"):
                    class_group(fan)
            else:
                cg = class_group(fan)
                assert (cg.free_rank, cg.torsion) == expected, rays
        assert 0 < deficient < 300

    def test_smith_form_is_taken_of_an_n_by_n_matrix(self, monkeypatch, tmp_path, capsys):
        rays = sorted([(1, k) for k in range(-9, 10)] + [(-1, k) for k in range(-9, 10)]
                      + [(0, 1), (0, -1)], key=lambda v: math.atan2(v[1], v[0]))
        fan = build_fan(2, rays, [(i, (i + 1) % 40) for i in range(40)])
        shapes = []

        def recording_snf(m):
            shapes.append((m.rows, m.cols))
            return snf(m)

        monkeypatch.setattr(lattices_module, "snf", recording_snf)
        cg = class_group(fan)
        assert (cg.free_rank, cg.torsion) == (38, ())
        assert shapes == [(2, 2)]
        # A report brings the ray matrix to Hermite form once, for the ray
        # lattice, whose basis class_group reads.
        ray_rows = [list(v) for v in rays]
        real_hermite = intlin_module._hermite
        of_the_rays = []

        def recording_hermite(rows, width, log=None):
            of_the_rays.append(rows == ray_rows)
            return real_hermite(rows, width, log)

        monkeypatch.setattr(intlin_module, "_hermite", recording_hermite)
        path = tmp_path / "fan.json"
        path.write_text(json.dumps(fan_to_dict(fan)))
        assert main(["report", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["class_group"] == {
            "free_rank": 38, "torsion": []}
        assert of_the_rays.count(True) == 1


class TestStructuralInvariants:
    def test_rank_nullity_over_catalog(self):
        for entry in catalog():
            fan = entry.fan
            assert (rel_lattice(fan).rank + ray_lattice(fan).rank
                    == len(fan.rays)), entry.name

    def test_relation_bases_annihilate(self):
        for entry in catalog():
            fan = entry.fan
            ray_rows = [list(v) for v in fan.rays]
            for r in rel_lattice(fan).basis_rows:
                image = oracles.matmul([list(r)], ray_rows)[0]
                assert not any(image), (entry.name, r)

    def test_relation_lattices_saturated(self):
        from fanlat.intlin import saturation
        for entry in catalog():
            rel = rel_lattice(entry.fan).sublattice
            assert lattice_equal(saturation(rel), rel), entry.name

    def test_inclusion_chain(self):
        for entry in catalog():
            fan = entry.fan
            rel = rel_lattice(fan).sublattice
            for cone in fan.cones:
                if not cone.ray_indices:
                    continue
                internal = rel_lattice_internal(fan, cone).sublattice
                inclusive = rel_lattice_star(fan, cone, INC).sublattice
                exclusive = rel_lattice_star(fan, cone, EXC).sublattice
                for row in internal.basis_rows:
                    assert member(row, inclusive)
                for row in exclusive.basis_rows:
                    assert member(row, inclusive)
                for row in inclusive.basis_rows:
                    assert member(row, rel)

    def test_functoriality_bit_exact(self):
        rng = random.Random(77)
        for entry in catalog():
            fan = entry.fan
            before = rel_lattice(fan)
            for _ in range(5):
                u = IntMatrix(oracles.random_unimodular(rng, fan.rank))
                after = rel_lattice(apply_unimodular(fan, u))
                assert after.basis_rows == before.basis_rows, entry.name


def _random_columns(rng, n, k, bound=3):
    """k columns of length n, entries up to bound, with zero, repeated and dependent columns."""
    rank = rng.randint(0, n) if rng.random() < 0.3 else n
    span = [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(rank)]
    columns = []
    for _ in range(k):
        kind = rng.random()
        if kind < 0.1 or not span:
            col = [0] * n
        elif kind < 0.2 and columns:
            col = list(rng.choice(columns))
        elif kind < 0.35 and len(columns) >= 2:
            a, b = rng.sample(columns, 2)
            s, t = rng.choice([-2, -1, 1, 2]), rng.choice([-2, -1, 1, 2])
            col = [s * x + t * y for x, y in zip(a, b)]
        elif rank < n:
            coeffs = [rng.randint(-2, 2) for _ in span]
            col = [sum(c * v[i] for c, v in zip(coeffs, span)) for i in range(n)]
        else:
            col = [rng.randint(-bound, bound) for _ in range(n)]
        columns.append(tuple(col))
    return columns


def _box_points(basis, k, bound):
    """The points of the lattice spanned by at most one vector with every entry in [-bound, bound]."""
    if not basis:
        return {(0,) * k}
    (v,) = basis
    return {tuple(t * x for x in v) for t in range(-bound, bound + 1)
            if all(abs(t * x) <= bound for x in v)}


def _two_step_kernel(columns, n):
    """The kernel reference of run_random_property_suite.

    The rows of u that hnf(m^T) sends to zero, put through Sublattice.
    """
    h, u = hnf(IntMatrix.from_columns(columns, height=n).transpose())
    return Sublattice(len(columns), [u.row(i) for i in range(h.rows) if not any(h.row(i))])


class TestCorankOneKernel:
    """_kernel_basis, the one kernel routine, against the two-step reference.

    Named for the closed form of corank one that the sweep replaced;
    its inputs now also reach several pivots and pivots above 1.
    """

    def test_matches_the_two_step_reference_and_brute_force(self):
        rng = random.Random(1312)
        seen = {0: 0, 1: 0, 2: 0}
        coarse = brute = 0
        for trial in range(3000):
            n = rng.randint(1, 5)
            k = rng.randint(0, n + 6)
            bound = rng.choice((3, 3, 10 ** 6, 10 ** 30))
            columns = _random_columns(rng, n, k, bound)
            basis = intlin_module._kernel_basis(columns, n)
            kernel = _two_step_kernel(columns, n)
            # Bit for bit: the same rows, in the same canonical form.
            assert tuple(basis) == kernel.basis_rows, columns
            seen[min(len(basis), 2)] += 1
            coarse += any(row[intlin_module._pivot(row)] > 1 for row in basis)
            if len(basis) < 2 and k <= n + 1 and trial % 2 == 0:
                box = 2 if k <= 4 else 1
                found = set(oracles.kernel_vectors_bruteforce(columns, box))
                assert found == _box_points(basis, k, box), columns
                brute += 1
        assert min(seen.values()) > 300, seen
        assert coarse > 300
        assert brute > 500

    def test_known_kernels(self):
        kernel = intlin_module._kernel_basis
        assert kernel([], 2) == []
        assert kernel([(0, 0)], 2) == [(1,)]
        assert kernel([(1, 0), (0, 1)], 2) == []
        assert kernel([(1, 0), (0, 1), (-1, -1)], 2) == [(1, 1, 1)]
        assert kernel([(2, 4), (-1, -2)], 2) == [(1, 2)]
        assert kernel([(0, 1), (0, 0), (1, 0)], 2) == [(0, 1, 0)]
        # Rank 2: 3 v_2 lies in the span of v_3, and v_1 itself in that of v_2, v_3.
        assert kernel([(1, 0), (2, 0), (3, 0)], 2) == [(1, 1, -1), (0, 3, -2)]
        # 2 v_1 is the least multiple of v_1 in the span of v_2, v_3.
        assert kernel([(1,), (0,), (2,)], 1) == [(2, 0, -1), (0, 1, 0)]
        assert kernel([(3, 0), (0, 2), (2, 0), (0, 3)], 2) == [(2, 0, -3, 0), (0, 3, 0, -2)]

    def test_star_and_whole_fan_kernels_run_no_hermite_elimination(self, monkeypatch):
        entry = catalog_entry("p2xp1").fan
        fan = build_fan(entry.rank, entry.rays, [c.ray_indices for c in entry.maximal_cones])
        calls = []
        real = intlin_module._hermite
        monkeypatch.setattr(intlin_module, "_hermite",
                            lambda rows, width, log=None: calls.append(width) or real(rows, width, log))
        small = rel_lattice_star(fan, fan.cone((0, 3)), INC)
        assert small.basis_rows == ((1, 1, 1, 0, 0),)
        # The star of ray 0 has all five rays, more than rank + 1.
        whole = rel_lattice_star(fan, fan.cone((0,)), INC)
        assert whole.rank == 2
        assert rel_lattice(fan).basis_rows == whole.basis_rows
        assert calls == []


class TestStarKernelSharing:
    """A star kernel is cached by its support, whatever cone or policy names it."""

    def test_equal_star_sets_share_one_kernel(self):
        fan = catalog_entry("p2").fan
        # Every ray of p2 has all three rays in its star.
        first = rel_lattice_star(fan, fan.cone((0,)), INC)
        assert first is rel_lattice_star(fan, fan.cone((1,)), INC)
        assert first is rel_lattice_star(fan, fan.cone((2,)), INC)
        assert first is fan._memo["kernel", (0, 1, 2)]

    def test_exclusive_and_inclusive_supports_that_coincide_share_one_kernel(self):
        fan = catalog_entry("p2").fan
        # Ray 0's star minus ray 0 is the maximal cone (1, 2), its own star.
        exclusive = rel_lattice_star(fan, fan.cone((0,)), EXC)
        assert exclusive is rel_lattice_star(fan, fan.cone((1, 2)), INC)
        assert exclusive is fan._memo["kernel", (1, 2)]

    def test_levels_build_one_kernel_per_support(self):
        for entry in catalog():
            fan = build_fan(entry.fan.rank, entry.fan.rays,
                            [c.ray_indices for c in entry.fan.maximal_cones],
                            cones=[c.ray_indices for c in entry.fan.cones], trust=True)
            for policy in (INC, EXC):
                filtration(fan, policy).levels
            supports = {star_support(fan, cone, policy)
                        for cone in fan.cones if cone.ray_indices and (cone.codim or not fan.simplicial)
                        for policy in (INC, EXC)}
            # The relation lattice is the kernel over every ray, which the
            # levels stop at.
            supports.add(tuple(range(len(fan.rays))))
            # Levels stop at the relation lattice, so they build a kernel for
            # some supports only, each one under its support's key; the
            # contributing cones read the rank of every support's kernel,
            # and build the rest under the same keys.
            built = {key[1] for key in fan._memo if key[0] == "kernel"}
            assert built <= supports, entry.name
            for policy in (INC, EXC):
                filtration(fan, policy).contributing
            assert {key[1] for key in fan._memo if key[0] == "kernel"} == supports, entry.name
            for cone in fan.cones[1:]:
                for policy in (INC, EXC):
                    assert (rel_lattice_star(fan, cone, policy)
                            is fan._memo["kernel", star_support(fan, cone, policy)])

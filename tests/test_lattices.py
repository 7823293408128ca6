import random

import pytest

import oracles
from fanlat import lattices as lattices_module
from fanlat.corpus import catalog, catalog_entry
from fanlat.errors import FanValidationError
from fanlat.fan import apply_unimodular, build_fan
from fanlat.intlin import IntMatrix, Sublattice, lattice_equal, member
from fanlat.lattices import (SupportPolicy, class_group, ray_lattice,
                             rel_lattice, rel_lattice_internal,
                             rel_lattice_localized, rel_lattice_star)

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


class TestCanonicalKernelRows:
    """Zero-extended and padded kernels skip the HNF; their rows must already be canonical."""

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
                    padded = lattices_module._pad_rel_lattice(
                        rel_lattice_star(fan, cone, policy)).sublattice
                    rows = [row + (0,) for row in lat.basis_rows]
                    assert padded == Sublattice(m + 1, rows), (entry.name, cone, policy)

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

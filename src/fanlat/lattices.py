"""Canonical global and star-local lattice invariants of a fan.

The relation lattice is the integer kernel of the map sending the basis
vector of a ray to its primitive vector. Star variants restrict that
map to a star's ray set; the support policy decides whether the rays of
the defining cone participate (inclusive) or not (exclusive). Local
lattices are re-embedded into the global ray coordinates by extension
with zeros, so they can be compared and summed there.

A cone's support under a policy is its entry in star_supports, one
table per policy and codimension: the fan's star-set table of that
codimension (fan.star_sets) under the inclusive policy, and that table
with each cone's own rays dropped under the exclusive one, cached on the
fan's face map. A star kernel depends on its
support alone, the sorted rays it may touch, and not on the cone or the
policy that named it. So it is cached on the fan under ("kernel",
support): cones with equal star sets share one kernel, and so do the two
policies where their supports coincide. The relation lattice is the
star kernel of every ray, the star of the zero cone, and the relations
among a cone's own rays are the kernel of its rays, so they are cached
under the same kind of key; every relation lattice over a sorted set of
the fan's rays has one entry. The kernel of a support's rays comes from
intlin's one kernel routine, a sweep over the rays from last to first,
and is zero-extended to the fan's rays, which the kernel of every ray
needs no more. Kernels are cached per fan only: a stellar subdivision is
a new fan and builds its own.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import FanValidationError
from .fan import ConeRef, Fan, QuotientFan, localize, star_sets
from .intlin import IntMatrix, Sublattice, _kernel_basis, integer_kernel, snf, sublattice_index


class SupportPolicy(enum.Enum):
    """Which rays a star-supported relation may touch.

    INCLUSIVE takes the kernel over every ray of the star; EXCLUSIVE
    drops the rays of the cone itself first. The two readings genuinely
    disagree on some fans, so both are first-class and reports can
    compare them.
    """

    INCLUSIVE = "inclusive"
    EXCLUSIVE = "exclusive"


@dataclass(frozen=True)
class RayLattice:
    """Sublattice of the ambient lattice generated by the ray vectors."""

    sublattice: Sublattice
    index_in_ambient: Optional[int]  # None means infinite (rank deficient)

    @property
    def rank(self) -> int:
        return self.sublattice.rank


@dataclass(frozen=True)
class RelLattice:
    """Lattice of integer relations among labeled rays.

    ray_labels name the coordinates of the ambient free group; for
    star/internal lattices these are global ray indices, for localized
    lattices they are the base-ray origins of the quotient rays.
    """

    ray_labels: tuple
    sublattice: Sublattice

    @property
    def rank(self) -> int:
        return self.sublattice.rank

    @property
    def basis_rows(self):
        return self.sublattice.basis_rows


@dataclass(frozen=True)
class ClassGroup:
    free_rank: int
    torsion: tuple[int, ...]


def ray_lattice(fan: Fan) -> RayLattice:
    """The sublattice the rays generate, computed once per fan and cached on it."""
    def build():
        sub = Sublattice(fan.rank, fan.rays)
        return RayLattice(sublattice=sub, index_in_ambient=sublattice_index(sub))
    return fan._cached("ray_lattice", build)


def rel_lattice(fan: Fan) -> RelLattice:
    """Kernel of the full ray matrix, labeled by the fan's ray indices.

    It is the star kernel of every ray, the star of the zero cone, and
    shares that kernel's cache entry on the fan.
    """
    return _star_kernel(fan, tuple(range(len(fan.rays))))


def _embedded_kernel(fan: Fan, support: Sequence[int]) -> Sublattice:
    """Kernel over the given ray subset, zero-extended to global coordinates.

    support is sorted, so the zero-extension of the kernel's canonical
    basis keeps every pivot order and is itself canonical. Over every
    ray the kernel is in global coordinates already.
    """
    m = len(fan.rays)
    rows = _kernel_basis([fan.rays[i] for i in support], fan.rank)
    if len(support) == m:
        return Sublattice._from_canonical(m, rows)
    gens = []
    for row in rows:
        vec = [0] * m
        for i, x in zip(support, row):
            vec[i] = x
        gens.append(vec)
    return Sublattice._from_canonical(m, gens)


def rel_lattice_star(fan: Fan, tau: ConeRef, policy: SupportPolicy) -> RelLattice:
    """Relations supported on the star of tau, in global ray coordinates.

    The star kernel of star_support(fan, tau, policy), shared through
    the fan's cache by every cone and policy with that support.
    """
    return _star_kernel(fan, star_support(fan, tau, policy))


def star_support(fan: Fan, tau: ConeRef, policy: SupportPolicy) -> tuple[int, ...]:
    """The sorted rays a relation supported on the star of tau may touch.

    Those are the star's rays under the inclusive policy and the star's
    rays outside tau under the exclusive one: tau's entry in
    star_supports of its codimension. The zero cone, which the
    filtration never reads, has none.
    """
    if not tau.ray_indices:
        raise FanValidationError("the zero cone has no star-supported relation lattice")
    tau = fan.cone(tau.ray_indices)
    return star_supports(fan, policy, tau.codim)[tau.ray_indices]


def star_supports(fan: Fan, policy: SupportPolicy, k: int) -> dict:
    """The star support of every nonzero codim-k cone under policy, keyed by its ray indices.

    The keys come in cones order. Under the inclusive policy a support
    is the cone's star set, so the table is star_sets(fan, k) itself.
    The exclusive table drops each cone's own rays from its star set;
    it is derived once and cached on the fan's face map, like the star
    sets, so every fan built on that face map shares it.
    """
    sets = star_sets(fan, k)
    if policy is SupportPolicy.INCLUSIVE:
        return sets
    return fan._face_cached(("star_supports", policy, k), lambda: {
        key: tuple(i for i in rays if i not in key) for key, rays in sets.items()})


def _star_kernel(fan: Fan, support: tuple[int, ...]) -> RelLattice:
    """Relations supported on the sorted ray tuple support, cached on the fan."""
    return fan._cached(("kernel", support), lambda: RelLattice(
        ray_labels=tuple(range(len(fan.rays))), sublattice=_embedded_kernel(fan, support)))


def rel_lattice_internal(fan: Fan, tau: ConeRef) -> RelLattice:
    """Relations among tau's own rays, in global ray coordinates: the star kernel of tau's rays."""
    return _star_kernel(fan, fan.cone(tau.ray_indices).ray_indices)


def rel_lattice_localized(fan: Fan, tau: ConeRef) -> RelLattice:
    """Relation lattice of the localized (quotient) fan at tau."""
    return quotient_rel_lattice(localize(fan, tau))


def quotient_rel_lattice(q: QuotientFan) -> RelLattice:
    """Relation lattice of a quotient fan, as localize builds it.

    Coordinates are the quotient rays; labels carry the base-ray index
    each quotient ray came from.
    """
    cols = IntMatrix.from_columns(q.rays, height=q.quotient_rank)
    return RelLattice(ray_labels=q.ray_origin, sublattice=integer_kernel(cols))


def class_group(fan: Fan) -> ClassGroup:
    """Cokernel of the dual ray map, as free rank plus invariant factors.

    The map sends a dual vector to its pairings with every ray, so its
    matrix is the m x n matrix of the rays as rows. A unimodular row
    transform keeps its invariant factors, so the Smith normal form is
    taken of the canonical basis of the ray lattice (ray_lattice), the
    nonzero rows of that matrix's Hermite form: n rows when the rays
    span rationally, which the class group requires. The torsion of
    Cl is that of Z^n modulo the ray lattice.
    """
    n = fan.rank
    basis = ray_lattice(fan).sublattice.basis
    if basis.rows < n:
        raise FanValidationError("rays do not span the ambient lattice rationally")
    s, _, _ = snf(basis)
    torsion = tuple(d for d in (s.entries[i][i] for i in range(n)) if d > 1)
    return ClassGroup(free_rank=len(fan.rays) - n, torsion=torsion)

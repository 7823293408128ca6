"""Canonical global and star-local lattice invariants of a fan.

The relation lattice is the integer kernel of the map sending the basis
vector of a ray to its primitive vector. Star variants restrict that
map to a star's ray set; the support policy decides whether the rays of
the defining cone participate (inclusive) or not (exclusive). Local
lattices are re-embedded into the global ray coordinates by extension
with zeros, so they can be compared and summed there.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import FanValidationError
from .fan import ConeRef, Fan, localize, star
from .intlin import IntMatrix, Sublattice, integer_kernel, snf, sublattice_index


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
    sub = Sublattice(fan.rank, fan.rays)
    return RayLattice(sublattice=sub, index_in_ambient=sublattice_index(sub))


def rel_lattice(fan: Fan) -> RelLattice:
    """Kernel of the full ray matrix, labeled by the fan's ray indices.

    Computed once per fan and cached on it.
    """
    return fan._cached("rel_lattice", lambda: RelLattice(
        ray_labels=tuple(range(len(fan.rays))),
        sublattice=integer_kernel(fan.ray_matrix())))


def _embedded_kernel(fan: Fan, support: Sequence[int]) -> Sublattice:
    """Kernel over the given ray subset, zero-extended to global coordinates.

    support is sorted, so the zero-extension of the kernel's canonical
    basis keeps every pivot order and is itself canonical.
    """
    m = len(fan.rays)
    kernel = integer_kernel(IntMatrix._of([fan.rays[i] for i in support], fan.rank).transpose())
    gens = []
    for row in kernel.basis_rows:
        vec = [0] * m
        for pos, i in enumerate(support):
            vec[i] = row[pos]
        gens.append(vec)
    return Sublattice._from_canonical(m, gens)


def _pad_rel_lattice(rel: RelLattice) -> RelLattice:
    """The same relations over one more ray, placed last with coefficient zero.

    A trailing zero column keeps a canonical basis canonical.
    """
    m = len(rel.ray_labels) + 1
    return RelLattice(ray_labels=tuple(range(m)), sublattice=Sublattice._from_canonical(
        m, [row + (0,) for row in rel.basis_rows]))


def _seed_untouched_stars(entries, replaced: Sequence[set]) -> dict:
    """The entries of a parent's cache that a stellar subdivision keeps.

    entries are (key, value) items of the parent's cache, and replaced
    holds the ray sets of the parent's maximal cones that the
    subdivision replaces. A cone tau in none of them has only unchanged
    maximal cones around it, and no new cone contains it, so its star
    is the parent's and its star kernels are the parent's padded with a
    zero for the new ray, which is last. The result holds those stars
    and padded kernels under their keys; it does not depend on the new
    ray, so one result serves every subdivision of the same cone.
    """
    seeds = {}
    for key, value in entries:
        if not (isinstance(key, tuple) and key[0] in ("star", "rel_lattice_star")):
            continue
        if any(set(key[1]) <= mset for mset in replaced):
            continue
        seeds[key] = value if key[0] == "star" else _pad_rel_lattice(value)
    return seeds


def rel_lattice_star(fan: Fan, tau: ConeRef, policy: SupportPolicy) -> RelLattice:
    """Relations supported on the star of tau, in global ray coordinates.

    Computed once per (cone, policy) and cached on the fan.
    """
    if not tau.ray_indices:
        raise FanValidationError("the zero cone has no star-supported relation lattice")
    return fan._cached(("rel_lattice_star", tuple(sorted(tau.ray_indices)), policy),
                       lambda: _star_kernel(fan, tau, policy))


def star_support(fan: Fan, tau: ConeRef, policy: SupportPolicy) -> list[int]:
    """The sorted rays a relation supported on the star of tau may touch.

    Those are the star's rays under the inclusive policy and the star's
    rays outside tau under the exclusive one.
    """
    _, ray_set = star(fan, tau)
    if policy is SupportPolicy.EXCLUSIVE:
        return [i for i in ray_set if i not in tau.ray_indices]
    return list(ray_set)


def _star_kernel(fan: Fan, tau: ConeRef, policy: SupportPolicy) -> RelLattice:
    return RelLattice(ray_labels=tuple(range(len(fan.rays))),
                      sublattice=_embedded_kernel(fan, star_support(fan, tau, policy)))


def rel_lattice_internal(fan: Fan, tau: ConeRef) -> RelLattice:
    """Relations among tau's own rays, in global ray coordinates."""
    tau = fan.cone(tau.ray_indices)
    return RelLattice(ray_labels=tuple(range(len(fan.rays))),
                      sublattice=_embedded_kernel(fan, list(tau.ray_indices)))


def rel_lattice_localized(fan: Fan, tau: ConeRef) -> RelLattice:
    """Relation lattice of the localized (quotient) fan at tau.

    Coordinates are the quotient rays; labels carry the base-ray index
    each quotient ray came from.
    """
    q = localize(fan, tau)
    cols = IntMatrix.from_columns(q.rays, height=q.quotient_rank)
    return RelLattice(ray_labels=q.ray_origin, sublattice=integer_kernel(cols))


def class_group(fan: Fan) -> ClassGroup:
    """Cokernel of the dual ray map, as free rank plus invariant factors.

    The map sends a dual vector to its pairings with every ray; its
    cokernel is computed from the Smith normal form. Requires the rays
    to span rationally.
    """
    m = len(fan.rays)
    a = IntMatrix(fan.rays, cols=fan.rank)  # m x n, rows pair dual vectors with rays
    s, _, _ = snf(a)
    diag = [s.entries[i][i] for i in range(min(s.rows, s.cols))]
    rank = sum(1 for d in diag if d)
    if rank < fan.rank:
        raise FanValidationError("rays do not span the ambient lattice rationally")
    torsion = tuple(d for d in diag if d > 1)
    return ClassGroup(free_rank=m - rank, torsion=torsion)

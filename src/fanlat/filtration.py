"""Codimension filtration of the relation lattice and its generation check.

Level k of the filtration is the sublattice generated by star-supported
relations of all nonzero cones of codimension at most k. The depth of a
relation is the smallest level containing it (None when no level does,
which happens on non-complete fans, under the exclusive policy, and on
some complete fans whose relations are not all locally generated).

Levels are built on demand, each from the one below, and cached on the
fan, so a depth query builds only the levels up to the answer. Every
star support comes from the table of its policy and codimension
(lattices.star_supports, which is the fan's star-set table under the
inclusive policy), and each star kernel is asked by its support, so
cones and policies with one support share one kernel. A level reads the
supports alone and looks up no cone, so on a simplicial fan it never
lists the faces; only the contributing cones are looked up, and only
those that are reported. Five exact shortcuts
skip work: on a simplicial fan a codim-0 cone's star kernel is zero
(the cone is its own star and its rays are independent); level 0 of a
simplicial fan is therefore zero, so a depth query for a nonzero vector
starts at level 1 and does not build level 0; a level that
gains no generator is the level below it, which makes level n always
level n-1; a level stops at the relation lattice L_rel; and a depth
query answers k without reading level k when the relation lies in no
level below k and its support fits the star set of a codim-k cone (the
star's rays under the inclusive policy, those outside the cone under
the exclusive one). The star kernel of
that cone is every relation supported on its star set, and it lies
inside level k, so the support certificate is exact.

Every level lies inside L_rel, so a level equal to it is every level
above it. Canonical bases are unique (Cohen, *A Course in Computational
Algebraic Number Theory*, section 2.4), so equality is a comparison of
bases. A level whose level below equals L_rel is that level, and reads
no star set or kernel. Otherwise each distinct support's kernel enters
a running Hermite sum, and the level is L_rel as soon as that sum is;
the supports after it are not read. L_rel is the star kernel of every
ray (lattices.rel_lattice), so building any level computes it. What an
earlier call left cached changes no step: a level and a depth take one
path, whichever call comes first. The contributing cones of a level
are kept apart from it: a cone's
star-kernel rank is the rank of its support's cached kernel, so listing
them builds no level.

local_decompose writes a global relation as a sum of pieces, one per
ray, each a relation supported inside that ray's star. Inclusive level
n-1 is the sum of the rays' star-kernel lattices, so this is one exact
integer solve over their concatenated bases; a relation with no
solution provably lies outside level n-1 and is reported as such. The
concatenated matrix is factored once per fan and cached on it, so each
further relation costs one back-substitution.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import (InternalCheckError, NotARelationError, NotCompleteError,
                     NotLocallyGeneratedError, NotSimplicialError)
from .fan import ConeRef, Fan, is_complete, star_sets
from .intlin import (ColumnFactor, Sublattice, _hermite, factor_columns,
                     lattice_equal, member, solve_factored)
from .lattices import RelLattice, SupportPolicy, _star_kernel, rel_lattice, star_supports


@dataclass(frozen=True)
class FiltrationProfile:
    """Filtration levels 0..n of a fan under one policy, built on demand.

    contributing[k] lists (cone, star-kernel rank) for the cones of
    codimension exactly k whose star kernel is nonzero; it is not
    cached, but the kernels it reads are. Each level is built on first
    use from the level below it, stops at the relation lattice and is
    cached on the fan: levels and level_ranks build every level, each
    one above the first that equals the relation lattice for free;
    level(k) builds the levels up to k, while depth_of stops at the
    first level that contains the relation. On a simplicial fan level 0
    is zero, so depth_of starts a nonzero vector at level 1 and does
    not build level 0 for it (building level 1 builds level 0 below
    it). At each k >= 1, before it reads level k, depth_of tests the
    relation's support against the distinct star supports of the
    codim-k cones (int bitmasks, cached on the fan's face map per
    policy and k); a fit answers k for a relation and None for a vector
    that is not one, and level k is not read. It takes these steps
    whichever levels are cached already.
    """

    fan: Fan
    policy: SupportPolicy

    @property
    def levels(self) -> tuple[Sublattice, ...]:
        return tuple(self.level(k) for k in range(self.fan.rank + 1))

    def level(self, k: int) -> Sublattice:
        return _level(self.fan, self.policy, k)

    @property
    def contributing(self) -> tuple[tuple[tuple[ConeRef, int], ...], ...]:
        return tuple(_contributing(self.fan, self.policy, k) for k in range(self.fan.rank + 1))

    @property
    def relation_lattice(self) -> RelLattice:
        return rel_lattice(self.fan)

    def depth_of(self, relation: Sequence[int]) -> Optional[int]:
        fan, policy = self.fan, self.policy
        support = sum(1 << i for i, x in enumerate(relation) if x)
        # Level 0 of a simplicial fan is zero, so a nonzero vector starts at
        # level 1; level 0 of another fan is read without a certificate.
        start = 1 if support and fan.simplicial else 0
        for k in range(start, fan.rank + 1):
            if k and any(support | mask == mask for mask in _star_masks(fan, policy, k)):
                # Every level lies in the relation lattice, so a vector
                # that is not a relation is in none of them.
                return None if any(fan.ray_matrix().mul_vector(relation)) else k
            if member(relation, self.level(k)):
                return k
        return None

    @property
    def level_ranks(self) -> tuple[int, ...]:
        return tuple(level.rank for level in self.levels)


@dataclass(frozen=True)
class Decomposition:
    """A relation written as a sum of star-supported relations.

    pieces maps a ray index to the piece assigned to its star; pieces
    sum to the relation, each annihilates the ray matrix, and each is
    supported inside its star's ray set.
    """

    relation: tuple[int, ...]
    pieces: dict[int, tuple[int, ...]]


@dataclass(frozen=True)
class GenerationReport:
    policy: SupportPolicy
    complete: bool
    relation_rank: int
    level_ranks: tuple[int, ...]
    generated_at_penultimate: bool
    generated_at_top: bool
    violates_local_generation: bool


def filtration(fan: Fan, policy: SupportPolicy) -> FiltrationProfile:
    """The filtration of the fan under the given policy.

    The profile is a view: its levels are built the first time a caller
    reads them and are cached on the fan, so every profile of one fan
    and policy shares them.
    """
    return FiltrationProfile(fan, policy)


def _level(fan: Fan, policy: SupportPolicy, k: int) -> Sublattice:
    """Level k, built from level k-1 and cached."""
    return fan._cached(("level", policy, k), lambda: _build_level(fan, policy, k))


def _build_level(fan: Fan, policy: SupportPolicy, k: int) -> Sublattice:
    """Level k-1 plus the star kernels of the codim-k cones, stopping at L_rel."""
    m = len(fan.rays)
    below = _level(fan, policy, k - 1) if k else Sublattice(m)
    # Levels lie inside the relation lattice, so one that equals it is
    # every level above it.
    target = rel_lattice(fan).sublattice
    if below == target:
        return below
    # A running canonical sum, which stops reading kernels once it is the
    # relation lattice; canonical bases are unique, so the sum is the one
    # lattice_sum would give.
    rows, grown = list(below.basis_rows), False
    for support in dict.fromkeys(_level_supports(fan, policy, k).values()):
        kernel = _star_kernel(fan, support).sublattice
        if kernel.rank:
            rows = [row for row in _hermite(rows + list(kernel.basis_rows), m) if any(row)]
            grown = True
            if len(rows) == target.rank and tuple(map(tuple, rows)) == target.basis_rows:
                return target
    return Sublattice._from_canonical(m, rows) if grown else below


def _contributing(fan: Fan, policy: SupportPolicy, k: int) -> tuple[tuple[ConeRef, int], ...]:
    """(cone, star-kernel rank) for the codim-k cones with a nonzero star kernel.

    Each rank is that of the support's star kernel, cached on the fan
    and shared with the levels. Only a cone it reports is looked up.
    """
    found = []
    for key, support in _level_supports(fan, policy, k).items():
        rank = _star_kernel(fan, support).rank
        if rank:
            found.append((fan.cone(key), rank))
    return tuple(found)


def _level_supports(fan: Fan, policy: SupportPolicy, k: int) -> dict:
    """The star supports whose kernels level k adds: star_supports(fan, policy, k).

    The star of a codim-0 cone of a simplicial fan is the cone alone,
    whose rays are independent, so its kernel is zero under both
    policies and no support is listed.
    """
    return {} if not k and fan.simplicial else star_supports(fan, policy, k)


def _star_masks(fan: Fan, policy: SupportPolicy, k: int) -> tuple[int, ...]:
    """The distinct star supports of the nonzero codim-k cones as ray bitmasks.

    They depend on the cones alone, so they are cached on the fan's face map.
    """
    return fan._face_cached(("star_masks", policy, k), lambda: tuple(
        sum(1 << i for i in support)
        for support in dict.fromkeys(star_supports(fan, policy, k).values())))


def _require_relation(fan: Fan, r: Sequence[int]) -> tuple[int, ...]:
    """r as a tuple, or NotARelationError if it is not an integer relation of the fan.

    L_rel is the whole integer kernel of the ray matrix, so the test builds no lattice.
    """
    r = tuple(r)
    if len(r) != len(fan.rays):
        raise NotARelationError(
            f"vector length {len(r)} does not match {len(fan.rays)} rays")
    if not all(isinstance(x, int) for x in r) or any(fan.ray_matrix().mul_vector(r)):
        raise NotARelationError(f"{r} is not a relation of this fan")
    return r


def depth(fan: Fan, r: Sequence[int], policy: SupportPolicy) -> Optional[int]:
    """Smallest filtration level containing r; None if unreachable."""
    r = _require_relation(fan, r)
    if not any(r):
        raise NotARelationError("depth of the zero relation is undefined")
    return filtration(fan, policy).depth_of(r)


def check_generation(fan: Fan, policy: SupportPolicy) -> GenerationReport:
    """Compare the top filtration levels against the full relation lattice.

    On complete fans local generation asks the inclusive policy to
    generate everything by codimension n-1; the report says whether the
    chosen policy actually did (some complete fans violate it).
    """
    profile = filtration(fan, policy)
    rel = profile.relation_lattice.sublattice
    n = fan.rank
    penult = profile.levels[n - 1] if n >= 1 else profile.levels[0]
    pen_ok = lattice_equal(penult, rel)
    top_ok = lattice_equal(profile.levels[n], rel)
    try:
        complete = is_complete(fan)
    except NotSimplicialError:
        complete = False
    return GenerationReport(
        policy=policy, complete=complete, relation_rank=rel.rank,
        level_ranks=profile.level_ranks,
        generated_at_penultimate=pen_ok, generated_at_top=top_ok,
        violates_local_generation=complete and not pen_ok)


def local_decompose(fan: Fan, r: Sequence[int]) -> Decomposition:
    """Split a global relation into star-supported relation pieces.

    A cone containing ray i has its star inside the star of i, so
    inclusive level n-1 is the sum of the rays' star-kernel lattices.
    One integer solve writes r over the concatenated kernel bases of
    every ray, against the factorization of that matrix that the fan
    caches for all its relations; piece i collects ray i's share, so
    each piece is a relation supported inside that ray's star by
    construction. A relation inside a single star is returned whole at
    the first such ray. Complete fans are required. When the solve has
    no integer solution, that is a certificate that r lies outside
    inclusive level n-1, and NotLocallyGeneratedError is raised.
    """
    if not is_complete(fan):
        raise NotCompleteError("local decomposition requires a complete fan")
    r = _require_relation(fan, r)
    if not any(r):
        return Decomposition(relation=r, pieces={})

    m = len(fan.rays)
    # A ray is a codim-(n-1) cone, so its inclusive star support is its star set.
    stars = star_sets(fan, fan.rank - 1)
    support = [i for i in range(m) if r[i]]

    # A relation inside a single star is already a valid one-piece answer.
    for i in range(m):
        if all(j in stars[(i,)] for j in support):
            return Decomposition(relation=r, pieces={i: r})

    owners, columns, factor = fan._cached("ray_star_system", lambda: _ray_star_system(fan))
    coeffs = solve_factored(factor, r)
    if coeffs is None:
        raise NotLocallyGeneratedError(
            f"{r} lies outside inclusive filtration level {fan.rank - 1}: "
            "it is not a sum of relations supported on ray stars")

    sums = [[0] * m for _ in range(m)]
    for i, c, col in zip(owners, coeffs, columns):
        if c:
            sums[i] = [a + c * b for a, b in zip(sums[i], col)]
    pieces = {i: tuple(piece) for i, piece in enumerate(sums) if any(piece)}

    _verify_decomposition(r, pieces, stars, fan.ray_matrix())
    return Decomposition(relation=r, pieces=pieces)


def _ray_star_system(fan: Fan) -> tuple[list[int], list[tuple[int, ...]], ColumnFactor]:
    """Every ray's inclusive star-kernel basis as columns, with owners, factored once."""
    owners, columns = [], []
    stars = star_sets(fan, fan.rank - 1)
    for i in range(len(fan.rays)):
        local = _star_kernel(fan, stars[(i,)])
        owners.extend([i] * local.rank)
        columns.extend(local.basis_rows)
    return owners, columns, factor_columns(columns, len(fan.rays))


def _verify_decomposition(r, pieces, stars, ray_mat) -> None:
    total = [0] * len(r)
    for i, piece in pieces.items():
        if any(ray_mat.mul_vector(piece)):
            raise InternalCheckError(f"piece at ray {i} is not a relation")
        if any(piece[j] and j not in stars[(i,)] for j in range(len(piece))):
            raise InternalCheckError(f"piece at ray {i} leaves its star support")
        total = [a + b for a, b in zip(total, piece)]
    if tuple(total) != tuple(r):
        raise InternalCheckError("pieces do not sum to the relation")

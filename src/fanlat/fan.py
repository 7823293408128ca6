"""Rational fan data model.

Cones are stored combinatorially as sorted tuples of ray indices;
geometry is reconstructed from the primitive ray vectors on demand.
Simplicial input is validated exactly on one path: the ridge
certificate of is_complete accepts a complete fan at once, and any other
simplicial input is checked with one exact separating-hyperplane
feasibility problem per pair of maximal cones. A fan's validation is
"full" when it was checked and "trusted" when it was taken on trust.
Stellar subdivisions (refine.stellar_subdivide) are fans by construction
and inherit the validation level of the fan they refine. Non-simplicial
input is accepted only with an explicit full cone list and trust=True.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Optional, Sequence

from .errors import FanValidationError, InternalCheckError, NotSimplicialError
from .intlin import IntMatrix, hnf_basis, matrix_rank, snf
from .qsolve import cone_pair_proper, in_simplicial_cone, solve_unique


def primitive(v: Sequence[int]) -> tuple[int, ...]:
    """v divided by the (positive) gcd of its entries; direction kept."""
    if not any(v):
        raise ValueError("zero vector has no primitive form")
    g = 0
    for x in v:
        g = math.gcd(g, abs(x))
    return tuple(x // g for x in v)


@dataclass(frozen=True)
class ConeRef:
    """A cone of a fan: sorted ray indices plus cached dimension data."""

    ray_indices: tuple[int, ...]
    dim: int
    codim: int

    def sort_key(self):
        return (self.dim, self.ray_indices)


@dataclass(frozen=True)
class QuotientFan:
    """Image of a star in the quotient modulo the saturated span of tau.

    rays are the primitive images of the star rays outside tau, one per
    base ray (two base rays may share an image; they stay distinct here,
    with a warning recorded). ray_origin maps quotient ray index back to
    the base ray index.
    """

    base: "Fan"
    tau: ConeRef
    quotient_rank: int
    projection: IntMatrix
    rays: tuple[tuple[int, ...], ...]
    ray_origin: tuple[int, ...]
    cones: frozenset
    warnings: tuple[str, ...]


class Fan:
    """Validated rational fan: primitive rays plus a face-closed cone set.

    Nothing changes rays or the cone set after construction (stellar
    subdivision and unimodular images build new fans), so every
    invariant derived from them is computed once and kept in the fan's
    private cache: the sorted and maximal cones, completeness, the
    relation lattice, stars, star kernels and filtration levels. A new
    fan starts with an empty cache, except that a stellar subdivision
    is seeded with the stars and star kernels it leaves unchanged.
    """

    __slots__ = ("rank", "rays", "simplicial", "name", "asserted_complete",
                 "validation", "warnings", "_cones", "_memo")

    def __init__(self, rank, rays, cones, simplicial, name=None,
                 asserted_complete=None, validation="full", warnings=()):
        self.rank = rank
        self.rays = tuple(tuple(v) for v in rays)
        self._cones = dict(cones)
        self.simplicial = simplicial
        self.name = name
        self.asserted_complete = asserted_complete
        self.validation = validation
        self.warnings = tuple(warnings)
        self._memo = {}

    def _cached(self, key, build):
        """The value cached under key, built by build() on first use."""
        try:
            return self._memo[key]
        except KeyError:
            value = self._memo[key] = build()
            return value

    @property
    def cones(self) -> tuple[ConeRef, ...]:
        return self._cached("cones", lambda: tuple(
            sorted(self._cones.values(), key=ConeRef.sort_key)))

    @property
    def maximal_cones(self) -> tuple[ConeRef, ...]:
        return self._cached("maximal", self._find_maximal)

    def _find_maximal(self) -> tuple[ConeRef, ...]:
        keys = list(self._cones)
        maximal = []
        for k in keys:
            sk = set(k)
            if not any(sk < set(other) for other in keys):
                maximal.append(self._cones[k])
        return tuple(sorted(maximal, key=ConeRef.sort_key))

    @property
    def zero_cone(self) -> ConeRef:
        return self._cones[()]

    def cone(self, ray_indices: Iterable[int]) -> ConeRef:
        key = tuple(sorted(ray_indices))
        try:
            return self._cones[key]
        except KeyError:
            raise FanValidationError(f"no cone with ray indices {key}") from None

    def has_cone(self, ray_indices: Iterable[int]) -> bool:
        return tuple(sorted(ray_indices)) in self._cones

    def ray_matrix(self) -> IntMatrix:
        """rank x nrays matrix whose columns are the primitive ray vectors."""
        return IntMatrix.from_columns(self.rays, height=self.rank)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Fan):
            return NotImplemented
        return (self.rank == other.rank and self.rays == other.rays
                and set(self._cones) == set(other._cones))

    def __hash__(self) -> int:
        return hash((self.rank, self.rays, frozenset(self._cones)))

    def __repr__(self) -> str:
        label = f" {self.name!r}" if self.name else ""
        return (f"Fan{label}(rank {self.rank}, {len(self.rays)} rays, "
                f"{len(self._cones)} cones)")


def simplicial_faces(rank: int, maximal_cones: Sequence[tuple[int, ...]]) -> dict:
    """Face map of a simplicial fan: every subset of a maximal cone, by sorted key."""
    cone_map = {(): ConeRef((), 0, rank)}
    for c in maximal_cones:
        for size in range(1, len(c) + 1):
            for face in combinations(c, size):
                cone_map.setdefault(face, ConeRef(face, size, rank - size))
    return cone_map


def _cone_dim(ray_vectors, idxs) -> int:
    if not idxs:
        return 0
    return matrix_rank(IntMatrix([ray_vectors[i] for i in idxs]))


def build_fan(rank: int, ray_vectors: Sequence[Sequence[int]],
              maximal_cones: Sequence[Iterable[int]], *,
              cones: Optional[Sequence[Iterable[int]]] = None,
              trust: bool = False, name: Optional[str] = None,
              assert_complete: Optional[bool] = None) -> Fan:
    """Validate input data and construct a Fan.

    Rays are normalized to primitive vectors (a duplicate after
    normalization is an error). For simplicial input every subset of a
    maximal cone becomes a face, and unless trust is set the cones are
    checked exactly to form a fan: input that passes the ridge
    certificate of is_complete is a complete fan, and any other input
    goes through cone_pair_proper on every pair of maximal cones. The
    validation is then "full", or "trusted" with trust=True.
    Non-simplicial input needs an explicit full cone list and
    trust=True.
    """
    if rank < 0:
        raise FanValidationError("rank must be nonnegative")
    rays = []
    for v in ray_vectors:
        v = tuple(v)
        if len(v) != rank:
            raise FanValidationError(f"ray {v} does not have length {rank}")
        if not any(v):
            raise FanValidationError("zero ray")
        p = primitive(v)
        if p in rays:
            raise FanValidationError(f"duplicate ray after primitivization: {p}")
        rays.append(p)

    gens = []
    for c in maximal_cones:
        key = tuple(sorted(c))
        if len(set(key)) != len(key):
            raise FanValidationError(f"repeated ray index in cone {key}")
        for i in key:
            if not 0 <= i < len(rays):
                raise FanValidationError(f"ray index {i} out of range")
        gens.append(key)
    used = {i for c in gens for i in c}
    if used != set(range(len(rays))):
        missing = sorted(set(range(len(rays))) - used)
        raise FanValidationError(f"rays {missing} appear in no maximal cone")

    simplicial = all(_cone_dim(rays, c) == len(c) for c in gens)

    if simplicial:
        fan = Fan(rank, rays, simplicial_faces(rank, gens), True, name=name,
                  asserted_complete=assert_complete,
                  validation="trusted" if trust else "full")
        if not trust and not is_complete(fan):
            _validate_pairwise(fan)
        return fan

    # Non-simplicial path.
    if cones is None or not trust:
        raise FanValidationError(
            "non-simplicial input requires an explicit full cone list and trust=True")
    cone_map = {(): ConeRef((), 0, rank)}
    for c in cones:
        key = tuple(sorted(c))
        for i in key:
            if not 0 <= i < len(rays):
                raise FanValidationError(f"ray index {i} out of range in cone list")
        d = _cone_dim(rays, key)
        cone_map.setdefault(key, ConeRef(key, d, rank - d))
    for c in gens:
        if c not in cone_map:
            raise FanValidationError(f"maximal cone {c} missing from the full cone list")
    return Fan(rank, rays, cone_map, False, name=name,
               asserted_complete=assert_complete, validation="trusted",
               warnings=("non-simplicial fan accepted on trust",))


def _validate_pairwise(fan: Fan) -> None:
    """Exact check that every two maximal cones meet in their common face.

    For simplicial fans it suffices to test maximal pairs: faces are
    generator subsets, so proper maximal intersections force proper
    intersections everywhere.
    """
    maximal = [c.ray_indices for c in fan.maximal_cones if c.ray_indices]
    for s1, s2 in combinations(maximal, 2):
        if not cone_pair_proper(fan.rays, s1, s2):
            raise FanValidationError(
                f"cones {s1} and {s2} intersect outside their common face")


def star(fan: Fan, tau: ConeRef) -> tuple[tuple[ConeRef, ...], tuple[int, ...]]:
    """All cones having tau as a face, plus the union of their ray indices."""
    key = tuple(sorted(tau.ray_indices))
    if not fan.has_cone(key):
        raise FanValidationError(f"cone {tau.ray_indices} is not in the fan")
    return fan._cached(("star", key), lambda: _star(fan, set(key)))


def _star(fan: Fan, t: set) -> tuple[tuple[ConeRef, ...], tuple[int, ...]]:
    members = [c for c in fan.cones if t <= set(c.ray_indices)]
    ray_set = sorted({i for c in members for i in c.ray_indices})
    return tuple(members), tuple(ray_set)


def is_complete(fan: Fan) -> bool:
    """Exact completeness test for simplicial fans.

    The maximal cones form a complete fan iff every maximal cone is
    full-dimensional, every ridge lies in exactly two maximal cones,
    the two rays opposite each ridge lie on opposite sides of it, and
    the ray sum of the first maximal cone lies in no other maximal
    cone. The criterion is exact (De Loera-Rambau-Santos,
    *Triangulations*, ch. 4): the first three conditions keep the
    number of cones covering a generic point unchanged across every
    ridge, so that number is the same everywhere, and the last one
    fixes it at one around an interior point of the first cone. It
    assumes no pairwise validation, so trusted input that is not a fan
    is answered False, and a True verdict also certifies that the cones
    form a fan, which build_fan relies on. The verdict is cached on the
    fan. Non-simplicial fans are only handled through an explicit
    completeness assertion in their metadata.
    """
    if not fan.simplicial:
        if fan.asserted_complete is not None:
            return fan.asserted_complete
        raise NotSimplicialError(
            "completeness is only decided for simplicial fans; "
            "assert it via metadata for non-simplicial input")
    return fan._cached("complete", lambda: _covers_once(fan))


def _covers_once(fan: Fan) -> bool:
    maximal = [c.ray_indices for c in fan.maximal_cones if c.ray_indices]
    if not maximal:
        return fan.rank == 0
    if any(len(mc) != fan.rank for mc in maximal):
        return False
    opposite = {}
    for mc in maximal:
        for i in mc:
            opposite.setdefault(tuple(j for j in mc if j != i), []).append(i)
    for ridge, rays in opposite.items():
        if len(rays) != 2:
            return False
        a, b = rays
        coeffs = solve_unique([fan.rays[i] for i in ridge + (a,)], fan.rays[b])
        if coeffs[-1] >= 0:
            return False
    x = tuple(map(sum, zip(*(fan.rays[i] for i in maximal[0]))))
    return not any(in_simplicial_cone([fan.rays[i] for i in mc], x)
                   for mc in maximal[1:])


def localize(fan: Fan, tau: ConeRef) -> QuotientFan:
    """The star of tau pushed to the quotient modulo tau's saturated span.

    The projection is read off the Smith normal form of the matrix of
    tau's ray vectors: the rows of the left transform past the rank
    form a basis of the maps vanishing on the saturated span.
    """
    tau = fan.cone(tau.ray_indices)
    tmat = IntMatrix.from_columns([fan.rays[i] for i in tau.ray_indices], height=fan.rank)
    s, u, _ = snf(tmat)
    d = sum(1 for i in range(min(s.rows, s.cols)) if s.entries[i][i])
    proj = IntMatrix([u.row(i) for i in range(d, fan.rank)], cols=fan.rank)
    for i in tau.ray_indices:
        if any(proj.mul_vector(fan.rays[i])):
            raise InternalCheckError("projection does not vanish on the cone's rays")
    star_cones, star_rays = star(fan, tau)
    outside = [i for i in star_rays if i not in tau.ray_indices]
    warnings = []
    images = []
    for i in outside:
        img = proj.mul_vector(fan.rays[i])
        if not any(img):
            raise InternalCheckError(
                f"star ray {i} outside the cone projects to zero")
        images.append(primitive(img))
    if len(set(images)) < len(images):
        warnings.append("distinct star rays share a primitive image; "
                        "kept as distinct labeled quotient rays")
    pos = {ray: k for k, ray in enumerate(outside)}
    qcones = frozenset(
        tuple(sorted(pos[i] for i in c.ray_indices if i in pos)) for c in star_cones)
    return QuotientFan(
        base=fan, tau=tau, quotient_rank=fan.rank - d, projection=proj,
        rays=tuple(images), ray_origin=tuple(outside), cones=qcones,
        warnings=tuple(warnings))


def apply_unimodular(fan: Fan, u: IntMatrix) -> Fan:
    """Image fan with rays u @ v; combinatorics are untouched."""
    if u.rows != fan.rank or u.cols != fan.rank:
        raise ValueError(f"transform must be {fan.rank}x{fan.rank}")
    if hnf_basis(u) != IntMatrix.identity(fan.rank):
        raise ValueError("matrix is not unimodular")
    new_rays = []
    for v in fan.rays:
        w = u.mul_vector(v)
        if w != primitive(w):
            raise InternalCheckError("unimodular image of a primitive ray is imprimitive")
        new_rays.append(w)
    return Fan(fan.rank, new_rays, fan._cones, fan.simplicial, name=fan.name,
               asserted_complete=fan.asserted_complete, validation=fan.validation,
               warnings=fan.warnings)

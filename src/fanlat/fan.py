"""Rational fan data model.

Cones are stored combinatorially as sorted tuples of ray indices;
geometry is reconstructed from the primitive ray vectors on demand. A
simplicial fan stores only its maximal cones, the generators that lie in
no other. Its other faces are the keys of its star-set tables, one per
codimension (star_sets), so a cone is looked up in the table of its
codimension and no dict of every face is built. Trusted non-simplicial
input keeps its explicit cone list.
Simplicial input is validated exactly on one path: the ridge
certificate of is_complete accepts a complete fan at once, and any other
simplicial input is checked with one exact separating-hyperplane
feasibility problem per pair of maximal cones. A generator with as many
rays as the rank is simplicial iff the determinant of its rays is
nonzero; build_fan keeps those determinants, and the ridge certificate
reads from their signs which side of each ridge a ray lies on. A fan's
validation is "full" when it was checked and "trusted" when it was
taken on trust.
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
from .intlin import IntMatrix, hnf_basis, integer_kernel, matrix_rank
from .qsolve import _echelon, cone_pair_proper, det, in_simplicial_cone


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
    warnings: tuple[str, ...]


class FaceMap:
    """A fan's maximal cones, with the cache of what the cones alone determine.

    A simplicial fan is fixed by its maximal cones (Cox-Little-Schenck,
    *Toric Varieties*, ch. 3), so they are all a face map stores: the
    cones of the given list that lie in no other, in cones order
    (maximal_of). Everything else lives in memo and is built on first
    use. A simplicial fan's other cones are the keys of its star-set
    tables, so there is no dict of every face; only trusted
    non-simplicial input stores one ("faces"), its explicit cone list by
    sorted ray indices, at construction. The sorted cones, the star sets
    of each codimension, the exclusive star supports of each
    codimension (the inclusive ones are the star sets), the distinct
    star supports of each codimension per support policy as ray
    bitmasks, the cones a random stellar draw picks from and the face
    map of each stellar subdivision are other entries. They depend
    on the cones and not on the ray vectors, so every fan built on one
    face map shares them: the stellar subdivisions of one cone, whatever
    their new ray, and the unimodular images of a fan. Nothing changes a
    face map once a fan holds it.
    """

    __slots__ = ("maximal", "memo")

    def __init__(self, cones: Iterable[ConeRef], faces: Optional[dict] = None):
        self.maximal = maximal_of(cones)
        self.memo = {} if faces is None else {"faces": faces}


def maximal_of(cones: Iterable[ConeRef]) -> tuple[ConeRef, ...]:
    """The cones of the list that lie in no other cone of it, once each, in cones order.

    Ray indices are sorted, so distinct keys are distinct ray sets. When
    every nonzero cone has the same number of rays, as in a pure fan
    file and in every stellar subdivision of a pure fan, no two distinct
    ones contain each other: the result is the distinct nonzero cones,
    and the containment pass is skipped. Otherwise, from the most rays
    down, a cone is kept iff no kept cone holding its first ray contains
    it. A kept cone is filed under each of its rays and under the empty
    key that the zero cone looks up, so the zero cone is kept only if
    nothing else is.
    """
    cones = list(cones)
    if len({len(c.ray_indices) for c in cones} - {0}) == 1:
        distinct = {c.ray_indices: c for c in cones if c.ray_indices}
        return tuple(distinct[key] for key in sorted(distinct))
    filed = {}  # (ray,), or () for the zero cone -> ray sets of kept cones
    kept = []
    for c in sorted(cones, key=lambda c: len(c.ray_indices), reverse=True):
        key = c.ray_indices
        if not any(ray_set.issuperset(key) for ray_set in filed.get(key[:1], ())):
            ray_set = frozenset(key)
            for first in [()] + [(i,) for i in key]:
                filed.setdefault(first, []).append(ray_set)
            kept.append(c)
    return tuple(sorted(kept, key=ConeRef.sort_key))


def simplicial_face_map(rank: int, generators: Iterable[tuple[int, ...]]) -> FaceMap:
    """The face map of the simplicial fan whose cones are the faces of the generators."""
    return FaceMap(ConeRef(c, len(c), rank - len(c)) for c in ((), *generators))


class Fan:
    """Validated rational fan: primitive rays plus the maximal cones of a face-closed cone set.

    Nothing changes rays or cones after construction (stellar
    subdivision and unimodular images build new fans), so the
    invariants derived from them are computed once and kept in one of
    two caches. What the cones alone determine (the sorted cones that
    == and hash() read, the star sets of each codimension, whose keys
    are the cones that cone(), has_cone() and cones read on a simplicial
    fan, the exclusive star supports of each codimension, the distinct
    star supports per policy as ray bitmasks, the draw candidates and
    the face map of each subdivided cone) lives on the fan's FaceMap and
    is shared by every fan built on it. The maximal cones themselves are
    the face map's, so reading them builds nothing. What also reads the rays
    lives in the fan's private cache: the ray matrix, the determinant
    of the sorted rays of each full-dimensional maximal cone (read by
    is_complete), completeness, the ray lattice, star kernels (keyed by
    their sorted support, so cones and policies with one support share
    one kernel, and the relation lattice is the kernel of every ray),
    filtration levels (which stop at the relation lattice) and the
    factored ray-star system that local_decompose solves against. Other
    modules reach the two caches through _cached and _face_cached
    alone. A new fan's private cache starts empty, except that
    build_fan stores the determinants of its simplicial check. A
    stellar subdivision's starts empty too; it is built on the one face
    map of its subdivided cone, which its siblings at that cone share,
    and a unimodular image on its fan's face map.
    """

    __slots__ = ("rank", "rays", "simplicial", "name", "asserted_complete",
                 "validation", "warnings", "_cones", "_memo")

    def __init__(self, rank, rays, face_map: FaceMap, simplicial, name=None,
                 asserted_complete=None, validation="full", warnings=()):
        self.rank = rank
        self.rays = tuple(tuple(v) for v in rays)
        self._cones = face_map
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

    def _face_cached(self, key, build):
        """The value cached on the face map under key, built by build() on first use."""
        memo = self._cones.memo
        try:
            return memo[key]
        except KeyError:
            value = memo[key] = build()
            return value

    def _find(self, key: tuple[int, ...]) -> Optional[ConeRef]:
        """The cone with the sorted ray indices key, or None.

        A nonzero cone of a simplicial fan with d rays is a key of the
        star-set table of codimension rank - d, which is empty when d
        exceeds the rank.
        """
        if not self.simplicial:
            return self._cones.memo["faces"].get(key)
        d = len(key)
        if d and key not in star_sets(self, self.rank - d):
            return None
        return ConeRef(key, d, self.rank - d)

    @property
    def cones(self) -> tuple[ConeRef, ...]:
        """Every cone in cones order: by dimension, then by ray indices."""
        return self._face_cached("cones", self._sorted_cones)

    def _sorted_cones(self) -> tuple[ConeRef, ...]:
        if not self.simplicial:
            return tuple(sorted(self._cones.memo["faces"].values(), key=ConeRef.sort_key))
        n = self.rank
        return (self.zero_cone, *(ConeRef(key, n - k, k) for k in range(n - 1, -1, -1)
                                  for key in star_sets(self, k)))

    @property
    def maximal_cones(self) -> tuple[ConeRef, ...]:
        return self._cones.maximal

    @property
    def zero_cone(self) -> ConeRef:
        return ConeRef((), 0, self.rank)

    def cone(self, ray_indices: Iterable[int]) -> ConeRef:
        key = tuple(sorted(ray_indices))
        found = self._find(key)
        if found is None:
            raise FanValidationError(f"no cone with ray indices {key}")
        return found

    def has_cone(self, ray_indices: Iterable[int]) -> bool:
        return self._find(tuple(sorted(ray_indices))) is not None

    def ray_matrix(self) -> IntMatrix:
        """rank x nrays matrix whose columns are the primitive ray vectors."""
        return self._cached("ray_matrix", lambda: IntMatrix._of(self.rays, self.rank).transpose())

    def __eq__(self, other) -> bool:
        if not isinstance(other, Fan):
            return NotImplemented
        return (self.rank == other.rank and self.rays == other.rays
                and self.cones == other.cones)

    def __hash__(self) -> int:
        return hash((self.rank, self.rays, self.cones))

    def __repr__(self) -> str:
        label = f" {self.name!r}" if self.name else ""
        return (f"Fan{label}(rank {self.rank}, {len(self.rays)} rays, "
                f"{len(self.maximal_cones)} maximal cones)")


def _independent(rank: int, ray_vectors, key: tuple[int, ...], dets: dict) -> bool:
    """Whether the rays of key are independent; the determinant of rank rays is kept in dets."""
    pivots, sign, scale = _echelon([list(ray_vectors[i]) for i in key], rank)
    if len(key) == rank:
        dets[key] = sign * scale if len(pivots) == rank else 0
    return len(pivots) == len(key)


def build_fan(rank: int, ray_vectors: Sequence[Sequence[int]],
              maximal_cones: Sequence[Iterable[int]], *,
              cones: Optional[Sequence[Iterable[int]]] = None,
              trust: bool = False, name: Optional[str] = None,
              assert_complete: Optional[bool] = None) -> Fan:
    """Validate input data and construct a Fan.

    Ray entries must be ints, and rays are normalized to primitive
    vectors (a duplicate after normalization is an error). For
    simplicial input the fan keeps the generators that lie in no other
    as its maximal cones; every subset of one is a face, and a face is
    looked up in the star-set table of its codimension. Unless trust is
    set the cones are checked exactly to form a fan:
    input that passes the ridge certificate of is_complete is a complete
    fan, and any other input goes through cone_pair_proper on every pair
    of maximal cones. The validation is then "full", or "trusted" with
    trust=True. Non-simplicial input needs an explicit full cone list
    and trust=True.
    """
    if rank < 0:
        raise FanValidationError("rank must be nonnegative")
    rays, seen = [], set()
    for v in ray_vectors:
        v = tuple(v)
        if len(v) != rank:
            raise FanValidationError(f"ray {v} does not have length {rank}")
        if not all(isinstance(x, int) for x in v):
            raise FanValidationError(f"ray {v} has a non-integer entry")
        if not any(v):
            raise FanValidationError("zero ray")
        p = primitive(v)
        if p in seen:
            raise FanValidationError(f"duplicate ray after primitivization: {p}")
        seen.add(p)
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

    dets = {}
    if all(_independent(rank, rays, c, dets) for c in gens):
        fan = Fan(rank, rays, simplicial_face_map(rank, gens), True, name=name,
                  asserted_complete=assert_complete,
                  validation="trusted" if trust else "full")
        # Every generator of rank rays is a maximal cone, and every
        # full-dimensional maximal cone is a generator.
        fan._memo["maximal_dets"] = dets
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
        d = matrix_rank(IntMatrix._of([rays[i] for i in key], rank))
        cone_map.setdefault(key, ConeRef(key, d, rank - d))
    for c in gens:
        if c not in cone_map:
            raise FanValidationError(f"maximal cone {c} missing from the full cone list")
    for i in range(len(rays)):
        if (i,) not in cone_map:
            raise FanValidationError(f"1-cone of ray {i} missing from the full cone list")
    return Fan(rank, rays, FaceMap(cone_map.values(), cone_map), False, name=name,
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
    return _star(fan, key)


def _star(fan: Fan, key: tuple[int, ...]) -> tuple[tuple[ConeRef, ...], tuple[int, ...]]:
    t = set(key)
    members = tuple(c for c in fan.cones if t.issubset(c.ray_indices))
    return members, tuple(sorted({i for c in members for i in c.ray_indices}))


def star_sets(fan: Fan, k: int) -> dict:
    """The sorted star rays of every nonzero codim-k cone, keyed by its ray indices.

    The keys come in cones order (the codim-k cones share one
    dimension, so that is sorted order). Every cone containing a face
    lies in a maximal cone containing it, so on a simplicial fan the
    star set of a face is the union of the maximal cones holding it, and
    one pass over the maximal cones adds each one's rays to each of its
    faces with rank - k rays. Any other fan reads each cone's star. The
    table is cached on the fan's face map per k. On a simplicial fan the
    keys of these tables are its nonzero cones: cone(), has_cone() and
    cones read them, and no other list of faces is kept.
    """
    return fan._face_cached(("star_sets", k), lambda: _star_sets(fan, k))


def _star_sets(fan: Fan, k: int) -> dict:
    if not fan.simplicial:
        return {c.ray_indices: _star(fan, c.ray_indices)[1] for c in fan.cones
                if c.ray_indices and c.codim == k}
    dim = fan.rank - k
    sets = {}
    if dim > 0:
        for mc in fan.maximal_cones:
            for face in combinations(mc.ray_indices, dim):
                rays = sets.get(face)
                if rays is None:
                    sets[face] = set(mc.ray_indices)
                else:
                    rays.update(mc.ray_indices)
    return {face: tuple(sorted(sets[face])) for face in sorted(sets)}


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
    fixes it at one around an interior point of the first cone.

    The sides are read from one determinant per maximal cone. For the
    ridge R = M - {a} of a maximal cone M, a lies on the side of R given
    by the sign of det(R, a) = (-1)^(n-1-p) det(M), where M's rays are
    in sorted order and p is the position of a among them. The rays
    opposite R lie on opposite sides iff those signs differ, which is
    Cramer's rule for the coefficient of one ray when the other is
    written over R and it; the criterion itself is the one above. The
    determinants are cached on the fan (build_fan stores those of its
    simplicial check).

    The test assumes no pairwise validation, so trusted input that is
    not a fan is answered False, and a True verdict also certifies that
    the cones form a fan, which build_fan relies on. The verdict is
    cached on the fan. Non-simplicial fans are only handled through an
    explicit completeness assertion in their metadata.
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
    n = fan.rank
    if any(len(mc) != n for mc in maximal):
        return False
    dets = fan._cached("maximal_dets", lambda: {
        mc: det([fan.rays[i] for i in mc]) for mc in maximal})
    sides = {}
    for mc in maximal:
        d = dets[mc]
        if not d:  # a maximal cone that is not full-dimensional
            return False
        for p in range(n):
            sides.setdefault(mc[:p] + mc[p + 1:], []).append((d > 0) ^ ((n - 1 - p) & 1))
    for signs in sides.values():
        if len(signs) != 2 or signs[0] == signs[1]:
            return False
    x = tuple(map(sum, zip(*(fan.rays[i] for i in maximal[0]))))
    return not any(in_simplicial_cone([fan.rays[i] for i in mc], x)
                   for mc in maximal[1:])


def localize(fan: Fan, tau: ConeRef) -> QuotientFan:
    """The star of tau pushed to the quotient modulo tau's saturated span.

    The projection's rows are the canonical HNF basis of the characters
    vanishing on tau, {y in Z^n : y . v = 0 for every ray v of tau}:
    the integer kernel of the matrix with tau's rays as rows, that is
    the relations among their coordinate vectors. That lattice is
    saturated and its orthogonal complement is tau's saturated span, so
    the projection maps Z^n onto Z^(n - dim tau), and it depends on no
    elimination order. A star ray outside tau that projects to zero
    lies in tau's span, which only trusted input that is not a fan can
    hold: that input is rejected. The star rays of a nonzero tau are its
    entry in the star-set table of its codimension, and those of the
    zero cone are every ray, so no cone of the star is listed.
    """
    tau = fan.cone(tau.ray_indices)
    proj = integer_kernel(IntMatrix._of([fan.rays[i] for i in tau.ray_indices], fan.rank)).basis
    for i in tau.ray_indices:
        if any(proj.mul_vector(fan.rays[i])):
            raise InternalCheckError("projection does not vanish on the cone's rays")
    star_rays = (star_sets(fan, tau.codim)[tau.ray_indices] if tau.ray_indices
                 else range(len(fan.rays)))
    outside = [i for i in star_rays if i not in tau.ray_indices]
    warnings = []
    images = []
    for i in outside:
        img = proj.mul_vector(fan.rays[i])
        if not any(img):
            raise FanValidationError(
                f"star ray {i} lies in the span of the cone {tau.ray_indices}: not a fan")
        images.append(primitive(img))
    if len(set(images)) < len(images):
        warnings.append("distinct star rays share a primitive image; "
                        "kept as distinct labeled quotient rays")
    return QuotientFan(
        base=fan, tau=tau, quotient_rank=proj.rows, projection=proj,
        rays=tuple(images), ray_origin=tuple(outside), warnings=tuple(warnings))


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

"""Stellar subdivision, the refinement injection, and the depth scanner.

A stellar subdivision inserts a new ray interior to a cone and replaces
every cone containing it by joins with the new ray; all old rays
survive, so relations of the coarse fan embed into the refined one by
zero padding. The scanner performs seeded random subdivisions and
records how filtration depths move, flagging any record where
refinement raised a depth.
"""

from __future__ import annotations

import logging
import random
from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import FanValidationError, NotARelationError, NotCompleteError, NotSimplicialError
from .fan import ConeRef, FaceMap, Fan, is_complete, primitive, simplicial_face_map
from .filtration import _require_relation, filtration
from .intlin import IntMatrix
from .lattices import SupportPolicy, rel_lattice
from .qsolve import solve_unique

log = logging.getLogger(__name__)

_COEFF_CHOICES = (1, 2, 3)
_DRAW_RETRIES = 8


@dataclass(frozen=True)
class DepthRecord:
    relation: tuple[int, ...]
    depth_before: Optional[int]
    depth_after: Optional[int]
    policy: SupportPolicy
    comparable: bool
    violation: bool


@dataclass(frozen=True)
class SubdivisionTrace:
    """One subdivision with the depth comparison of every basis relation."""

    trial_index: int
    before: Fan
    after: Fan
    new_ray: tuple[int, ...]
    subdivided_cone: ConeRef
    ray_map: tuple[int, ...]  # old ray index -> index in the refined fan
    records: tuple[DepthRecord, ...]

    @property
    def violations(self) -> int:
        return sum(1 for rec in self.records if rec.violation)


def stellar_subdivide(fan: Fan, sigma: ConeRef, w: Sequence[int]) -> Fan:
    """Refine the fan by the ray w interior to sigma.

    w must be nonzero and is primitivized; it must be a strictly
    positive rational combination of sigma's rays (exact check) and must
    not duplicate an existing ray. Every maximal cone containing sigma
    is replaced by its joins with w over the facets of sigma.

    A stellar subdivision of a fan is a fan (Cox-Little-Schenck, *Toric
    Varieties*, 11.1), so the refined fan is not validated again: it is
    built straight from its maximal cones (the new ray is primitive,
    and each new cone stays simplicial because w has a nonzero
    coefficient on the ray it replaces) and carries over the input's
    validation level and warnings. Its other faces are the keys of its
    star-set tables. Like any new fan it starts with an empty private
    cache.

    The refined face map depends on sigma and not on w. It is worked out
    once per sigma and cached on the input's face map under
    ("subdivision", sigma's ray indices), so every subdivision of sigma,
    whatever its new ray, is built on that one face map and shares its
    combinatorial cache (maximal cones, sorted cones, star sets, star
    masks, draw candidates). Nothing that reads the rays is
    shared: the refined fan's determinants, relation lattice, kernels
    and levels are its own.
    """
    if not fan.simplicial:
        raise NotSimplicialError("stellar subdivision requires a simplicial fan")
    sigma = fan.cone(sigma.ray_indices)
    if not sigma.ray_indices:
        raise FanValidationError("cannot subdivide the zero cone")
    w = tuple(w)
    if len(w) != fan.rank:
        raise FanValidationError(f"ray {w} does not have length {fan.rank}")
    if not any(w):
        raise FanValidationError("zero ray")
    w = primitive(w)
    if w in fan.rays:
        raise FanValidationError(f"{w} is already a ray of the fan")
    solution = solve_unique([fan.rays[i] for i in sigma.ray_indices], w)
    if solution is None or any(c <= 0 for c in solution[0]):
        raise FanValidationError(
            f"{w} is not in the relative interior of cone {sigma.ray_indices}")
    faces = fan._face_cached(("subdivision", sigma.ray_indices),
                             lambda: _refined_faces(fan, sigma))
    return Fan(fan.rank, fan.rays + (w,), faces, True,
               name=f"{fan.name}/stellar" if fan.name else None,
               asserted_complete=fan.asserted_complete, validation=fan.validation,
               warnings=fan.warnings)


def _refined_faces(fan: Fan, sigma: ConeRef) -> FaceMap:
    """The face map of the subdivision of fan at sigma, whose new ray is index len(fan.rays).

    Its maximal cones are fan's maximal cones that do not hold sigma,
    and the joins of the new ray with the facets of sigma in each one
    that holds sigma.
    """
    new_index = len(fan.rays)
    sig = set(sigma.ray_indices)
    maximal = []
    for mc in fan.maximal_cones:
        mset = set(mc.ray_indices)
        if sig <= mset:
            for rho in sorted(sig):
                maximal.append(tuple(sorted((mset - {rho}) | {new_index})))
        else:
            maximal.append(mc.ray_indices)
    return simplicial_face_map(fan.rank, maximal)


def refinement_injection(before: Fan, after: Fan, r: Sequence[int]) -> tuple[int, ...]:
    """Zero-padded image of a relation of `before` over `after`'s rays.

    Requires every ray vector of `before` to appear among `after`'s
    rays; the padded vector is verified to annihilate the refined ray
    matrix exactly.
    """
    positions, ray_mat = _injection_map(before, after)
    return _pad_relation(positions, ray_mat, _require_relation(before, r))


def _injection_map(before: Fan, after: Fan) -> tuple[tuple[int, ...], IntMatrix]:
    """The refined position of each coarse ray, and the refined ray matrix."""
    after_pos = {v: i for i, v in enumerate(after.rays)}
    for v in before.rays:
        if v not in after_pos:
            raise FanValidationError(f"ray {v} of the coarse fan is missing from the refinement")
    return tuple(after_pos[v] for v in before.rays), after.ray_matrix()


def _pad_relation(positions: Sequence[int], ray_mat: IntMatrix,
                  r: tuple[int, ...]) -> tuple[int, ...]:
    padded = [0] * ray_mat.cols
    for p, x in zip(positions, r):
        padded[p] = x
    if any(ray_mat.mul_vector(padded)):
        raise NotARelationError("padded vector fails to annihilate the refined rays")
    return tuple(padded)


def compare_depths(before: Fan, after: Fan, policy: SupportPolicy,
                   depths_before: Sequence[Optional[int]]
                   ) -> tuple[tuple[int, ...], tuple[DepthRecord, ...]]:
    """The refined position of each coarse ray, and a DepthRecord per basis relation.

    A record sets depths_before[j], the depth of `before`'s j-th basis
    relation, against the depth of its padded image in `after`. An
    unreachable before-depth is incomparable, never a violation; a
    finite depth that becomes unreachable is one. depths_before must
    hold one depth per basis relation, or ValueError is raised.
    """
    basis = rel_lattice(before).basis_rows
    if len(depths_before) != len(basis):
        raise ValueError(f"{len(depths_before)} depths given for "
                         f"{len(basis)} basis relations")
    ray_map, ray_mat = _injection_map(before, after)
    profile = filtration(after, policy)
    records = []
    for r, depth_before in zip(basis, depths_before):
        depth_after = profile.depth_of(_pad_relation(ray_map, ray_mat, r))
        comparable = depth_before is not None
        records.append(DepthRecord(
            relation=r, depth_before=depth_before, depth_after=depth_after,
            policy=policy, comparable=comparable,
            violation=comparable and (depth_after is None or depth_after > depth_before)))
    return ray_map, tuple(records)


def random_stellar_draw(fan: Fan, rng: random.Random) -> Optional[tuple[ConeRef, tuple[int, ...]]]:
    """Pick a cone of dim >= 2 and an interior primitive ray, or None.

    Coefficients are drawn from {1, 2, 3}, one rng.choice per ray of the
    cone in ray order; the draw retries a bounded number of times when
    the weighted sum lands on an existing ray. The candidate cones
    depend on the cones alone and are cached on the fan's face map.
    """
    candidates = fan._face_cached("draw_candidates", lambda: tuple(
        c for c in fan.cones if c.dim >= 2))
    if not candidates:
        return None
    cone = rng.choice(candidates)
    vectors = [fan.rays[i] for i in cone.ray_indices]
    for _ in range(_DRAW_RETRIES):
        vec = [0] * fan.rank
        for v in vectors:
            c = rng.choice(_COEFF_CHOICES)
            vec = [a + c * x for a, x in zip(vec, v)]
        w = primitive(vec)
        if w not in fan.rays:
            return cone, w
    return None


def conjecture_scan(fan: Fan, policy: SupportPolicy, trials: int,
                    seed: int) -> list[SubdivisionTrace]:
    """Seeded random subdivisions with depth monotonicity bookkeeping.

    Each trial independently subdivides the input fan once and compares
    the depth of every basis relation before and after the injection
    (compare_depths). Deterministic for a given seed: per-trial
    generators are seeded up front, so execution order cannot matter.
    The seed must be nonnegative, or ValueError is raised: random.Random
    seeds from the absolute value of an int, so -s would repeat the scan
    of s.

    The draw space is small, so trials often repeat a draw. The first
    trial of each draw (cone, new ray) subdivides and computes the
    depths; a later trial with the same draw gets a trace of its own
    trial index whose refined fan, cone, new ray, ray map and records
    are the very objects of the first trace, so it does no lattice work
    and a writer can encode each draw once. Skipped trials are not
    remembered, and each one logs its own warning.
    """
    if seed < 0:
        raise ValueError(f"the scan seed must be nonnegative, got {seed}")
    if not fan.simplicial:
        raise NotSimplicialError("the scanner requires a simplicial fan")
    if not is_complete(fan):
        raise NotCompleteError("the scanner requires a complete fan")
    master = random.Random(seed)
    trial_seeds = [master.getrandbits(64) for _ in range(trials)]
    basis = rel_lattice(fan).basis_rows
    for r in basis:  # trial-invariant: checked once, not once per trial
        _require_relation(fan, r)
    profile_before = filtration(fan, policy)
    depths_before = [profile_before.depth_of(r) for r in basis]
    traces = []
    first_of_draw = {}  # (cone ray indices, new ray) -> first trace of that draw
    for t, tseed in enumerate(trial_seeds):
        draw = random_stellar_draw(fan, random.Random(tseed))
        if draw is None:
            log.warning("trial %d: no usable subdivision draw; skipped", t)
            continue
        cone, w = draw
        first = first_of_draw.get((cone.ray_indices, w))
        if first is not None:
            traces.append(SubdivisionTrace(t, fan, first.after, first.new_ray,
                                           first.subdivided_cone, first.ray_map, first.records))
            continue
        try:
            refined = stellar_subdivide(fan, cone, w)
        except FanValidationError as exc:
            log.warning("trial %d: subdivision rejected (%s); skipped", t, exc)
            continue
        ray_map, records = compare_depths(fan, refined, policy, depths_before)
        trace = first_of_draw[cone.ray_indices, w] = SubdivisionTrace(
            trial_index=t, before=fan, after=refined, new_ray=w,
            subdivided_cone=cone, ray_map=ray_map, records=records)
        traces.append(trace)
    return traces

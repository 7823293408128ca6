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
from .fan import ConeRef, Fan, build_fan, is_complete, primitive
from .filtration import filtration
from .intlin import member
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

    w is primitivized; it must be a strictly positive rational
    combination of sigma's rays (exact check) and must not duplicate an
    existing ray. Every maximal cone containing sigma is replaced by its
    joins with w over the facets of sigma.

    A stellar subdivision of a fan is a fan (Cox-Little-Schenck, *Toric
    Varieties*, 11.1), so the refined fan is not validated again: it
    carries over the input's validation level and warnings.
    """
    if not fan.simplicial:
        raise NotSimplicialError("stellar subdivision requires a simplicial fan")
    sigma = fan.cone(sigma.ray_indices)
    if not sigma.ray_indices:
        raise FanValidationError("cannot subdivide the zero cone")
    w = primitive(tuple(w))
    if w in fan.rays:
        raise FanValidationError(f"{w} is already a ray of the fan")
    coeffs = solve_unique([fan.rays[i] for i in sigma.ray_indices], w)
    if coeffs is None or any(c <= 0 for c in coeffs):
        raise FanValidationError(
            f"{w} is not in the relative interior of cone {sigma.ray_indices}")
    new_index = len(fan.rays)
    sig = set(sigma.ray_indices)
    new_maximal = []
    for mc in fan.maximal_cones:
        mset = set(mc.ray_indices)
        if sig <= mset:
            for rho in sorted(sig):
                new_maximal.append(tuple(sorted((mset - {rho}) | {new_index})))
        else:
            new_maximal.append(mc.ray_indices)
    refined = build_fan(fan.rank, list(fan.rays) + [w], new_maximal, trust=True,
                        name=f"{fan.name}/stellar" if fan.name else None,
                        assert_complete=fan.asserted_complete)
    refined.validation = fan.validation
    refined.warnings = fan.warnings
    return refined


def refinement_injection(before: Fan, after: Fan, r: Sequence[int]) -> tuple[int, ...]:
    """Zero-padded image of a relation of `before` over `after`'s rays.

    Requires every ray vector of `before` to appear among `after`'s
    rays; the padded vector is verified to annihilate the refined ray
    matrix exactly.
    """
    positions = {}
    after_pos = {v: i for i, v in enumerate(after.rays)}
    for i, v in enumerate(before.rays):
        if v not in after_pos:
            raise FanValidationError(f"ray {v} of the coarse fan is missing from the refinement")
        positions[i] = after_pos[v]
    r = tuple(r)
    if not member(r, rel_lattice(before).sublattice):
        raise NotARelationError(f"{r} is not a relation of the coarse fan")
    padded = [0] * len(after.rays)
    for i, x in enumerate(r):
        padded[positions[i]] = x
    if any(after.ray_matrix().mul_vector(padded)):
        raise NotARelationError("padded vector fails to annihilate the refined rays")
    return tuple(padded)


def random_stellar_draw(fan: Fan, rng: random.Random) -> Optional[tuple[ConeRef, tuple[int, ...]]]:
    """Pick a cone of dim >= 2 and an interior primitive ray, or None.

    Coefficients are drawn from {1, 2, 3}; the draw retries a bounded
    number of times when the weighted sum lands on an existing ray.
    """
    candidates = [c for c in fan.cones if c.dim >= 2]
    if not candidates:
        return None
    cone = rng.choice(candidates)
    for _ in range(_DRAW_RETRIES):
        coeffs = [rng.choice(_COEFF_CHOICES) for _ in cone.ray_indices]
        vec = tuple(
            sum(c * fan.rays[i][j] for c, i in zip(coeffs, cone.ray_indices))
            for j in range(fan.rank))
        w = primitive(vec)
        if w not in fan.rays:
            return cone, w
    return None


def conjecture_scan(fan: Fan, policy: SupportPolicy, trials: int,
                    seed: int) -> list[SubdivisionTrace]:
    """Seeded random subdivisions with depth monotonicity bookkeeping.

    Each trial independently subdivides the input fan once and compares
    the depth of every basis relation before and after the injection.
    Records with an unreachable before-depth are marked incomparable and
    never count as violations; a finite depth that becomes unreachable
    does. Deterministic for a given seed: per-trial generators are
    seeded up front, so execution order cannot matter.
    """
    if not fan.simplicial:
        raise NotSimplicialError("the scanner requires a simplicial fan")
    if not is_complete(fan):
        raise NotCompleteError("the scanner requires a complete fan")
    master = random.Random(seed)
    trial_seeds = [master.getrandbits(64) for _ in range(trials)]
    basis = rel_lattice(fan).basis_rows
    profile_before = filtration(fan, policy)
    depths_before = [profile_before.depth_of(r) for r in basis]
    traces = []
    for t, tseed in enumerate(trial_seeds):
        draw = random_stellar_draw(fan, random.Random(tseed))
        if draw is None:
            log.warning("trial %d: no usable subdivision draw; skipped", t)
            continue
        cone, w = draw
        try:
            refined = stellar_subdivide(fan, cone, w)
        except FanValidationError as exc:
            log.warning("trial %d: subdivision rejected (%s); skipped", t, exc)
            continue
        profile_after = filtration(refined, policy)
        ray_map = tuple(refined.rays.index(v) for v in fan.rays)
        records = []
        for r, before_depth in zip(basis, depths_before):
            padded = refinement_injection(fan, refined, r)
            after_depth = profile_after.depth_of(padded)
            comparable = before_depth is not None
            if not comparable:
                violation = False
            elif after_depth is None:
                violation = True
            else:
                violation = after_depth > before_depth
            records.append(DepthRecord(
                relation=tuple(r), depth_before=before_depth,
                depth_after=after_depth, policy=policy,
                comparable=comparable, violation=violation))
        traces.append(SubdivisionTrace(
            trial_index=t, before=fan, after=refined, new_ray=w,
            subdivided_cone=cone, ray_map=ray_map, records=tuple(records)))
    return traces

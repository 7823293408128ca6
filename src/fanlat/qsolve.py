"""Exact linear solves, determinants and linear feasibility in integer arithmetic.

Backs the geometric validation: cone membership, relative-interior
tests, the orientation signs of the completeness test, and the pairwise
cone-intersection check. All of it pivots fraction-free (Bareiss,
Edmonds): every entry kept is an integer minor of the input, so each
division is exact and no rational number is ever formed. Solves and
determinants share one elimination loop, _echelon, which also gives
the package its column ranks and small kernels. Solutions come back
as integer numerators over one positive common denominator, so callers
decide signs on integers; the feasibility test is a phase-I simplex
under Bland's rule, so it always ends with an exact verdict.
"""

from __future__ import annotations

from typing import Optional, Sequence


def _echelon(rows: list[list[int]], k: int,
             reduce_above: bool = False) -> tuple[list[int], int, int]:
    """Fraction-free elimination of the first k columns of rows, in place.

    Bareiss, *Math. Comp.* 22 (1968): each step scales by the new pivot
    and divides exactly by the previous one, so the last pivot is the
    determinant of the pivot columns in the pivot rows. A column without
    a pivot below the rows already used is skipped. Rows above each
    pivot are cleared too when reduce_above is set (Gauss-Jordan).
    Returns (pivot columns, swap sign, last pivot); the pivot rows are
    the first ones, and the column rank of the k columns is the number
    of pivot columns.
    """
    n = len(rows)
    pivots, scale, sign, r = [], 1, 1, 0
    for c in range(k):
        for piv in range(r, n):
            if rows[piv][c]:
                break
        else:
            continue
        if piv != r:
            rows[r], rows[piv] = rows[piv], rows[r]
            sign = -sign
        prow = rows[r]
        pivot = prow[c]
        for i in range(0 if reduce_above else r + 1, n):
            if i != r:
                f = rows[i][c]
                rows[i] = [(pivot * a - f * b) // scale for a, b in zip(rows[i], prow)]
        pivots.append(c)
        scale = pivot
        r += 1
    return pivots, sign, scale


def det(rows: Sequence[Sequence[int]]) -> int:
    """Exact determinant of a square integer matrix; 1 for the 0 x 0 one."""
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("determinant needs a square matrix")
    pivots, sign, scale = _echelon([list(row) for row in rows], n)
    return sign * scale if len(pivots) == n else 0


def solve_unique(columns: Sequence[Sequence[int]],
                 target: Sequence[int]) -> Optional[tuple[list[int], int]]:
    """Solve sum_j x_j * columns[j] = target for independent columns.

    Returns (nums, den) with den > 0 and x_j = nums[j] / den for the
    unique rational solution, or None if the system is inconsistent.
    Raises ValueError if the columns are dependent. Gauss-Jordan through
    _echelon: every pivot row ends with the same diagonal entry, the
    determinant of the pivot rows, and its last column holds the Cramer
    numerators.
    """
    k = len(columns)
    n = len(target)
    rows = [[columns[j][i] for j in range(k)] + [target[i]] for i in range(n)]
    pivots, _, scale = _echelon(rows, k, True)
    if len(pivots) < k:
        raise ValueError("columns are linearly dependent")
    if any(rows[i][k] for i in range(k, n)):
        return None
    sign = -1 if scale < 0 else 1
    return [sign * rows[c][k] for c in range(k)], sign * scale


def in_simplicial_cone(ray_vectors: Sequence[Sequence[int]], x: Sequence[int]) -> bool:
    """Exact membership of x in the cone spanned by independent rays."""
    if not ray_vectors:
        return not any(x)
    solution = solve_unique(ray_vectors, x)
    return solution is not None and all(c >= 0 for c in solution[0])


def fm_feasible(rows: Sequence[tuple[Sequence[int], int]], num_vars: int) -> bool:
    """Feasibility of {z : coeffs . z >= const for every row} over Q.

    Phase I of the simplex method. With z = p - q and one surplus
    t_i >= 0 per row, row i reads a_i.p - a_i.q - t_i = c_i, negated
    when c_i < 0 so that every right-hand side is nonnegative, and one
    artificial variable per row forms the starting basis. The system is
    feasible iff pivoting drives the sum of the artificials to zero.
    Pivots are fraction-free (Edmonds): every entry of the tableau is
    kept as an integer minor of the input, scaled by the last pivot, so
    each division is exact. Bland's rule (the lowest column with a
    positive reduced cost enters; among tied ratios the lowest basic
    variable leaves) rules out cycling, so the loop ends without any
    size or step bound.

    The name is kept from the Fourier-Motzkin routine this replaced
    because the benchmark tracer (perfbench/spans.py) wraps it by name.
    """
    m = len(rows)
    tab = []
    for i, (coeffs, const) in enumerate(rows):
        sign = -1 if const < 0 else 1
        surplus = [0] * m
        surplus[i] = -sign
        tab.append([sign * a for a in coeffs] + [-sign * a for a in coeffs]
                   + surplus + [sign * const])
    ncols = 2 * num_vars + m
    # Reduced costs of the artificial sum; the last entry is that sum.
    cost = [sum(row[j] for row in tab) for j in range(ncols + 1)]
    basis = list(range(ncols, ncols + m))  # artificial i has index ncols + i
    scale = 1
    while cost[-1]:
        enter = next((j for j in range(ncols) if cost[j] > 0), None)
        if enter is None:
            return False
        candidates = [i for i in range(m) if tab[i][enter] > 0]
        leave = candidates[0]
        for i in candidates[1:]:
            # Ratios compared by cross-multiplying: both denominators are positive.
            lhs, rhs = tab[i][-1] * tab[leave][enter], tab[leave][-1] * tab[i][enter]
            if lhs < rhs or (lhs == rhs and basis[i] < basis[leave]):
                leave = i
        prow = tab[leave]
        pivot = prow[enter]
        for row in tab + [cost]:
            if row is not prow:
                f = row[enter]
                row[:] = [(pivot * x - f * y) // scale for x, y in zip(row, prow)]
        scale = pivot
        basis[leave] = enter
    return True


def cone_pair_proper(ray_vectors: Sequence[Sequence[int]], s1: Sequence[int],
                     s2: Sequence[int]) -> bool:
    """Exact check that cone(s1) and cone(s2) meet in cone(s1 & s2).

    Both cones must be simplicial. By the separation lemma (Cox-Little-
    Schenck, Lemma 1.2.13) they meet in their common face iff some m has
    m.s = 0 on the shared rays, m.a >= 1 on the other rays of s1 and
    m.b <= -1 on the other rays of s2: such an m is nonnegative on
    cone(s1), nonpositive on cone(s2), and zero on either cone only
    along cone(s1 & s2). One exact feasibility problem decides it.
    """
    shared = set(s1) & set(s2)
    rows = []
    for i in shared:
        rows += [(ray_vectors[i], 0), ([-x for x in ray_vectors[i]], 0)]
    rows += [(ray_vectors[i], 1) for i in s1 if i not in shared]
    rows += [([-x for x in ray_vectors[i]], 1) for i in s2 if i not in shared]
    return fm_feasible(rows, len(ray_vectors[s1[0]]))

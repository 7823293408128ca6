"""Exact rational linear solves and linear feasibility.

Backs the geometric validation: cone membership, relative-interior
tests, and the pairwise cone-intersection check. Solves use Fractions;
the feasibility test is a phase-I simplex with fraction-free integer
pivots and Bland's rule, so it always ends with an exact verdict.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence


def solve_unique(columns: Sequence[Sequence[int]], target: Sequence[int]) -> Optional[list[Fraction]]:
    """Solve sum_j x_j * columns[j] = target for independent columns.

    Returns the unique rational solution, or None if the system is
    inconsistent. Raises ValueError if the columns are dependent.
    """
    k = len(columns)
    n = len(target)
    rows = [[Fraction(columns[j][i]) for j in range(k)] + [Fraction(target[i])] for i in range(n)]
    pivot_rows = []
    r = 0
    for c in range(k):
        piv = next((i for i in range(r, n) if rows[i][c]), None)
        if piv is None:
            raise ValueError("columns are linearly dependent")
        rows[r], rows[piv] = rows[piv], rows[r]
        pr = rows[r]
        for i in range(n):
            if i != r and rows[i][c]:
                f = rows[i][c] / pr[c]
                rows[i] = [a - f * b for a, b in zip(rows[i], pr)]
        pivot_rows.append((r, c))
        r += 1
    for i in range(r, n):
        if rows[i][k]:
            return None
    sol = [Fraction(0)] * k
    for i, c in pivot_rows:
        sol[c] = rows[i][k] / rows[i][c]
    return sol


def in_simplicial_cone(ray_vectors: Sequence[Sequence[int]], x: Sequence[int]) -> bool:
    """Exact membership of x in the cone spanned by independent rays."""
    if not ray_vectors:
        return not any(x)
    coeffs = solve_unique(ray_vectors, x)
    return coeffs is not None and all(c >= 0 for c in coeffs)


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
        leave = min((i for i in range(m) if tab[i][enter] > 0),
                    key=lambda i: (Fraction(tab[i][-1], tab[i][enter]), basis[i]))
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

"""Independent oracles used to cross-check the library.

Everything here works on plain lists of ints, implemented from scratch
(Fraction elimination for determinants, exhaustive coefficient search
for membership), so the checks do not share code with the paths they
verify.
"""

from fractions import Fraction
from itertools import product


def matmul(a, b):
    """Plain list-of-lists matrix product."""
    if not a:
        return []
    inner = len(a[0])
    assert inner == len(b)
    width = len(b[0]) if b else 0
    return [[sum(a[i][k] * b[k][j] for k in range(inner)) for j in range(width)]
            for i in range(len(a))]


def det(rows):
    """Exact determinant by fraction-free-enough Gaussian elimination."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("determinant needs a square matrix")
    a = [[Fraction(x) for x in row] for row in rows]
    result = Fraction(1)
    for c in range(n):
        piv = next((i for i in range(c, n) if a[i][c]), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            result = -result
        result *= a[c][c]
        for i in range(c + 1, n):
            if a[i][c]:
                f = a[i][c] / a[c][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    return result


def is_unimodular(rows):
    return abs(det(rows)) == 1


def is_hnf(rows):
    """Row HNF shape: positive pivots moving right, reduced above, zeros below."""
    seen_zero = False
    prev = -1
    pivots = []
    for i, row in enumerate(rows):
        nz = next((j for j, x in enumerate(row) if x), None)
        if nz is None:
            seen_zero = True
            continue
        if seen_zero or nz <= prev or row[nz] <= 0:
            return False
        prev = nz
        pivots.append((i, nz))
    for i, p in pivots:
        piv = rows[i][p]
        for k in range(len(rows)):
            if k < i and not 0 <= rows[k][p] < piv:
                return False
            if k > i and rows[k][p] != 0:
                return False
    return True


def is_snf(rows):
    """Diagonal, nonnegative, divisibility chain, zeros trailing."""
    height = len(rows)
    width = len(rows[0]) if rows else 0
    diag = []
    for i in range(height):
        for j in range(width):
            if i != j and rows[i][j] != 0:
                return False
        if i < width:
            diag.append(rows[i][i])
    if any(d < 0 for d in diag):
        return False
    for a, b in zip(diag, diag[1:]):
        if a == 0 and b != 0:
            return False
        if a != 0 and b % a != 0:
            return False
    return True


def member_bruteforce(v, generators, bound, max_combos=10_000_000):
    """Exhaustive membership search with coefficients in [-bound, bound]."""
    gens = []
    for g in generators:
        g = tuple(g)
        if any(g) and g not in gens:
            gens.append(g)
    if not gens:
        return not any(v)
    if (2 * bound + 1) ** len(gens) > max_combos:
        raise ValueError("oracle search space too large")
    width = len(gens[0])
    for coeffs in product(range(-bound, bound + 1), repeat=len(gens)):
        if all(sum(c * g[j] for c, g in zip(coeffs, gens)) == v[j] for j in range(width)):
            return True
    return False


def kernel_vectors_bruteforce(columns, bound, max_combos=10_000_000):
    """All x with entries in [-bound, bound] and sum_j x_j * columns[j] = 0."""
    k = len(columns)
    if (2 * bound + 1) ** k > max_combos:
        raise ValueError("oracle search space too large")
    height = len(columns[0]) if columns else 0
    out = []
    for x in product(range(-bound, bound + 1), repeat=k):
        if all(sum(x[j] * columns[j][i] for j in range(k)) == 0 for i in range(height)):
            out.append(x)
    return out


def random_unimodular(rng, n, steps=14):
    """Random unimodular matrix as a product of elementary operations."""
    m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(steps):
        op = rng.randrange(3)
        i = rng.randrange(n)
        j = rng.randrange(n)
        if op == 0 and i != j:
            c = rng.choice([-3, -2, -1, 1, 2, 3])
            m[j] = [a + c * b for a, b in zip(m[j], m[i])]
        elif op == 1 and i != j:
            m[i], m[j] = m[j], m[i]
        elif op == 2:
            m[i] = [-a for a in m[i]]
    return m


def star_bruteforce(cones, tau):
    """Cones of the list that contain tau, in list order, and the union of their rays.

    cones and tau are plain tuples of ray indices; every cone is tested
    as a set against tau.
    """
    t = set(tau)
    members = [c for c in cones if t <= set(c)]
    rays = set()
    for c in members:
        rays |= set(c)
    return members, sorted(rays)


def maximal_bruteforce(cones):
    """Cones of the list that lie strictly inside no other cone of the list, in list order."""
    return [c for c in cones if not any(set(c) < set(other) for other in cones)]


def faces_bruteforce(generators):
    """Every subset of a generator, the empty one included, once each, in cones order.

    generators are plain lists of ray indices. A subset is kept as a
    sorted tuple, and the list is ordered by size and then
    lexicographically, which is cones order on a simplicial fan.
    """
    faces = {()}
    for g in generators:
        rays = sorted(set(g))
        for mask in range(1 << len(rays)):
            faces.add(tuple(i for k, i in enumerate(rays) if mask >> k & 1))
    return sorted(faces, key=lambda face: (len(face), face))

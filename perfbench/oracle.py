"""Independent exact arithmetic for checking fanlat's answers.

Nothing here imports fanlat. Lattices are kept as echelon row bases
built by inserting one generator at a time (no unimodular transform is
formed), and reduced to the same canonical row Hermite normal form the
library promises: positive pivots, entries above a pivot in [0, pivot),
zero rows dropped. Two lattices are equal iff their canonical bases are.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations


def xgcd(a: int, b: int):
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q = a // b
        a, b = b, a - q * b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if a < 0:
        a, x0, y0 = -a, -x0, -y0
    return a, x0, y0


class Echelon:
    """Integer row echelon basis of a lattice, keyed by pivot column."""

    def __init__(self, width: int, gens=()):
        self.width = width
        self.rows = {}
        for g in gens:
            self.insert(g)

    def copy(self) -> "Echelon":
        e = Echelon(self.width)
        e.rows = dict(self.rows)
        return e

    def insert(self, v) -> None:
        v = list(v)
        c = 0
        while True:
            while c < self.width and not v[c]:
                c += 1
            if c == self.width:
                return
            row = self.rows.get(c)
            if row is None:
                self.rows[c] = tuple(-x for x in v) if v[c] < 0 else tuple(v)
                return
            a, b = row[c], v[c]
            if b % a == 0:
                q = b // a
                v = [t - q * s for s, t in zip(row, v)]
            else:
                g, x, y = xgcd(a, b)
                p, q = a // g, b // g
                self.rows[c] = tuple(x * s + y * t for s, t in zip(row, v))
                v = [p * t - q * s for s, t in zip(row, v)]
            c += 1

    @property
    def rank(self) -> int:
        return len(self.rows)

    def canonical(self) -> tuple:
        pivots = sorted(self.rows)
        rows = [list(self.rows[p]) for p in pivots]
        for j in range(1, len(rows)):
            pj, rj = pivots[j], rows[j]
            for i in range(j):
                q = rows[i][pj] // rj[pj]
                if q:
                    rows[i] = [a - q * b for a, b in zip(rows[i], rj)]
        return tuple(tuple(r) for r in rows)

    def contains(self, v) -> bool:
        w = list(v)
        for p in sorted(self.rows):
            row = self.rows[p]
            if any(w[:p]):
                return False
            q, r = divmod(w[p], row[p])
            if r:
                return False
            if q:
                w = [a - q * b for a, b in zip(w, row)]
        return not any(w)


def kernel(columns, height: int) -> Echelon:
    """Integer kernel of the map x -> sum_j x_j * columns[j], as an Echelon.

    Rows (A^T e_j, e_j) span the graph of the map; in an echelon basis of
    that graph, the rows whose pivot lies past the first `height`
    coordinates are exactly a basis of the kernel.
    """
    s = len(columns)
    graph = Echelon(height + s)
    for j, col in enumerate(columns):
        graph.insert(list(col) + [1 if k == j else 0 for k in range(s)])
    return Echelon(s, [row[height:] for p, row in graph.rows.items() if p >= height])


def primitive_of(v) -> tuple:
    g = 0
    for x in v:
        g = _gcd(g, x)
    return tuple(x // g for x in v) if g else tuple(v)


def mat_vec(rays, x) -> tuple:
    rank = len(rays[0]) if rays else 0
    return tuple(sum(c * r[i] for c, r in zip(x, rays)) for i in range(rank))


def determinant(m) -> int:
    """Bareiss fraction-free determinant."""
    n = len(m)
    a = [list(r) for r in m]
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1] if n else 1


def invariant_factors(square) -> list:
    """Smith invariants of a small nonsingular square matrix via minors."""
    n = len(square)
    divisors = [1]
    for k in range(1, n + 1):
        g = 0
        for rs in combinations(range(n), k):
            for cs in combinations(range(n), k):
                g = _gcd(g, determinant([[square[r][c] for c in cs] for r in rs]))
        divisors.append(g)
    return [divisors[k] // divisors[k - 1] for k in range(1, n + 1)]


def _gcd(a: int, b: int) -> int:
    while b:
        a, b = b, a % b
    return abs(a)


def solve_unique(columns, target):
    """Rational x with sum x_j columns[j] = target for independent columns, or None."""
    k, n = len(columns), len(target)
    rows = [[Fraction(columns[j][i]) for j in range(k)] + [Fraction(target[i])]
            for i in range(n)]
    r = 0
    pivots = []
    for c in range(k):
        piv = next((i for i in range(r, n) if rows[i][c]), None)
        if piv is None:
            return None
        rows[r], rows[piv] = rows[piv], rows[r]
        for i in range(n):
            if i != r and rows[i][c]:
                f = rows[i][c] / rows[r][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append((r, c))
        r += 1
    if any(rows[i][k] for i in range(r, n)):
        return None
    return [rows[i][k] / rows[i][c] for i, c in pivots]


class FanFacts:
    """Everything the checkers need about one simplicial fan, from its file."""

    def __init__(self, fan: dict):
        self.rank = fan["rank"]
        self.rays = [tuple(v) for v in fan["rays"]]
        self.maximal = [tuple(sorted(c)) for c in fan["maximal_cones"]]
        self.m = len(self.rays)
        cones = set()
        for c in self.maximal:
            for k in range(1, len(c) + 1):
                cones.update(combinations(c, k))
        self.cones = sorted(cones, key=lambda c: (len(c), c))
        self._relations = None
        self._levels = {}
        self._kernels = {}

    def star_rays(self, cone) -> frozenset:
        s = set(cone)
        return frozenset(i for mc in self.maximal if s <= set(mc) for i in mc)

    def embedded_kernel(self, support) -> list:
        support = tuple(sorted(support))
        hit = self._kernels.get(support)
        if hit is None:
            k = kernel([self.rays[i] for i in support], self.rank)
            hit = []
            for row in k.rows.values():
                vec = [0] * self.m
                for pos, i in enumerate(support):
                    vec[i] = row[pos]
                hit.append(vec)
            self._kernels[support] = hit
        return hit

    @property
    def relations(self) -> Echelon:
        if self._relations is None:
            self._relations = kernel(self.rays, self.rank)
        return self._relations

    def levels(self, policy: str) -> list:
        """Filtration levels 0..rank: star kernels of cones of codim <= k."""
        if policy not in self._levels:
            current = Echelon(self.m)
            out = []
            for k in range(self.rank + 1):
                current = current.copy()
                for cone in self.cones:
                    if self.rank - len(cone) != k:
                        continue
                    support = self.star_rays(cone)
                    if policy == "exclusive":
                        support = support - set(cone)
                    for g in self.embedded_kernel(support):
                        current.insert(g)
                out.append(current)
            self._levels[policy] = out
        return self._levels[policy]

    def depth(self, relation, policy: str):
        for k, level in enumerate(self.levels(policy)):
            if level.contains(relation):
                return k
        return None

    def ray_lattice(self):
        lat = Echelon(self.rank, self.rays)
        basis = lat.canonical()
        index = None
        if lat.rank == self.rank:
            index = 1
            for i, row in enumerate(basis):
                index *= row[i]
        return lat.rank, index, basis

    def class_group(self):
        """(free rank, torsion) of the cokernel of the dual ray map, or None."""
        rank, _, basis = self.ray_lattice()
        if rank < self.rank:
            return None
        torsion = tuple(d for d in invariant_factors(basis) if d > 1)
        return self.m - rank, torsion


def refine(fan: dict, cone, new_ray) -> dict:
    """The stellar subdivision of a fan file at cone by new_ray."""
    k = len(fan["rays"])
    sig = set(cone)
    maximal = []
    for mc in fan["maximal_cones"]:
        m = set(mc)
        if sig <= m:
            maximal.extend(sorted((m - {r}) | {k}) for r in sorted(sig))
        else:
            maximal.append(list(mc))
    return {"rank": fan["rank"], "rays": [list(v) for v in fan["rays"]] + [list(new_ray)],
            "maximal_cones": maximal}

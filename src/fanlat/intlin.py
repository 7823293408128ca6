"""Exact integer linear algebra on arbitrary-precision integers.

Hermite and Smith normal forms with their unimodular transforms, integer
kernels, saturation, and canonical sublattice arithmetic. The row-style
HNF used here (positive pivots, entries above each pivot reduced into
[0, pivot), zero rows trailing) is the single canonical form of the
package: two sublattices are equal iff their canonical bases are
identical tuples.

No floats and no rationals enter this module. Membership tests run by
exact back-substitution against the HNF basis.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, x, y) with g = gcd(a, b) >= 0 and g == x*a + y*b."""
    x0, x1 = 1, 0
    y0, y1 = 0, 1
    while b:
        q = a // b
        a, b = b, a - q * b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if a < 0:
        a, x0, y0 = -a, -x0, -y0
    return a, x0, y0


class IntMatrix:
    """Immutable dense matrix of Python ints, row-major."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries: Iterable[Sequence[int]], cols: Optional[int] = None):
        body = []
        for row in entries:
            r = tuple(row)
            for x in r:
                if not isinstance(x, int):
                    raise TypeError(f"integer entry required, got {type(x).__name__}")
            body.append(r)
        if body:
            width = len(body[0])
            if any(len(r) != width for r in body):
                raise ValueError("ragged rows")
            if cols is not None and cols != width:
                raise ValueError(f"cols={cols} does not match row length {width}")
        else:
            width = 0 if cols is None else cols
        self.rows = len(body)
        self.cols = width
        self.entries = tuple(body)

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)], cols=n)

    @classmethod
    def zero(cls, rows: int, cols: int) -> "IntMatrix":
        return cls([[0] * cols for _ in range(rows)], cols=cols)

    @classmethod
    def from_columns(cls, columns: Sequence[Sequence[int]], height: Optional[int] = None) -> "IntMatrix":
        cols = [tuple(c) for c in columns]
        if cols:
            height = len(cols[0])
            if any(len(c) != height for c in cols):
                raise ValueError("ragged columns")
        elif height is None:
            height = 0
        return cls([[c[i] for c in cols] for i in range(height)], cols=len(cols))

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i]

    def column(self, j: int) -> tuple[int, ...]:
        return tuple(r[j] for r in self.entries)

    def transpose(self) -> "IntMatrix":
        return IntMatrix(
            [[self.entries[i][j] for i in range(self.rows)] for j in range(self.cols)],
            cols=self.rows,
        )

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch: {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        ot = [other.column(j) for j in range(other.cols)]
        return IntMatrix(
            [[sum(a * b for a, b in zip(row, col)) for col in ot] for row in self.entries],
            cols=other.cols,
        )

    def mul_vector(self, v: Sequence[int]) -> tuple[int, ...]:
        if len(v) != self.cols:
            raise ValueError(f"vector length {len(v)} does not match {self.cols} columns")
        return tuple(sum(a * b for a, b in zip(row, v)) for row in self.entries)

    def is_zero(self) -> bool:
        return all(all(x == 0 for x in row) for row in self.entries)

    def __eq__(self, other) -> bool:
        if not isinstance(other, IntMatrix):
            return NotImplemented
        return self.cols == other.cols and self.entries == other.entries

    def __hash__(self) -> int:
        return hash((self.cols, self.entries))

    def __repr__(self) -> str:
        return f"IntMatrix({list(map(list, self.entries))!r})"


def hnf(m: IntMatrix) -> tuple[IntMatrix, IntMatrix]:
    """Row Hermite normal form: returns (h, u) with u unimodular, h = u @ m.

    h has positive pivots in strictly increasing columns, entries above a
    pivot reduced into [0, pivot), and zero rows trailing. The algorithm
    is deterministic, so equal inputs give identical outputs.
    """
    h = [list(row) for row in m.entries]
    u = [[1 if i == j else 0 for j in range(m.rows)] for i in range(m.rows)]
    r = 0
    for c in range(m.cols):
        if r == m.rows:
            break
        piv = next((i for i in range(r, m.rows) if h[i][c]), None)
        if piv is None:
            continue
        if piv != r:
            h[r], h[piv] = h[piv], h[r]
            u[r], u[piv] = u[piv], u[r]
        for i in range(r + 1, m.rows):
            if h[i][c]:
                a, b = h[r][c], h[i][c]
                if b % a == 0:
                    # plain shear keeps the pivot row intact
                    q = b // a
                    h[i] = [t - q * s for s, t in zip(h[r], h[i])]
                    u[i] = [t - q * s for s, t in zip(u[r], u[i])]
                else:
                    g, x, y = xgcd(a, b)
                    p, q = a // g, b // g
                    for row_pair in (h, u):
                        rr, ri = row_pair[r], row_pair[i]
                        for j in range(len(rr)):
                            s, t = rr[j], ri[j]
                            rr[j] = x * s + y * t
                            ri[j] = -q * s + p * t
        if h[r][c] < 0:
            h[r] = [-x for x in h[r]]
            u[r] = [-x for x in u[r]]
        for i in range(r):
            q = h[i][c] // h[r][c]
            if q:
                h[i] = [a - q * b for a, b in zip(h[i], h[r])]
                u[i] = [a - q * b for a, b in zip(u[i], u[r])]
        r += 1
    return IntMatrix(h, cols=m.cols), IntMatrix(u, cols=m.rows)


def snf(m: IntMatrix) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Smith normal form: returns (s, u, w) with s = u @ m @ w.

    s is diagonal with nonnegative entries d_1 | d_2 | ...; u and w are
    unimodular.
    """
    R, C = m.rows, m.cols
    s = [list(row) for row in m.entries]
    u = [[1 if i == j else 0 for j in range(R)] for i in range(R)]
    w = [[1 if i == j else 0 for j in range(C)] for i in range(C)]

    def clear_row_entry(t, i):
        # Zero s[i][t] against the pivot s[t][t]; shear when divisible so
        # the pivot row is untouched, else a gcd step that shrinks the pivot.
        a, b = s[t][t], s[i][t]
        if b % a == 0:
            q = b // a
            for tgt in (s, u):
                tgt[i] = [ti - q * tt for tt, ti in zip(tgt[t], tgt[i])]
        else:
            g, x, y = xgcd(a, b)
            p, q = a // g, b // g
            for tgt in (s, u):
                rt, ri = tgt[t], tgt[i]
                for k in range(len(rt)):
                    va, vb = rt[k], ri[k]
                    rt[k] = x * va + y * vb
                    ri[k] = -q * va + p * vb

    def clear_col_entry(t, j):
        a, b = s[t][t], s[t][j]
        if b % a == 0:
            q = b // a
            for tgt in (s, w):
                for row in tgt:
                    row[j] -= q * row[t]
        else:
            g, x, y = xgcd(a, b)
            p, q = a // g, b // g
            for tgt in (s, w):
                for row in tgt:
                    va, vb = row[t], row[j]
                    row[t] = x * va + y * vb
                    row[j] = -q * va + p * vb

    def clear_at(t):
        while True:
            col_dirty = any(s[i][t] for i in range(t + 1, R))
            if col_dirty:
                for i in range(t + 1, R):
                    if s[i][t]:
                        clear_row_entry(t, i)
            row_dirty = any(s[t][j] for j in range(t + 1, C))
            if row_dirty:
                for j in range(t + 1, C):
                    if s[t][j]:
                        clear_col_entry(t, j)
            if not col_dirty and not row_dirty:
                return

    limit = min(R, C)
    t = 0
    while t < limit:
        piv = None
        for i in range(t, R):
            for j in range(t, C):
                if s[i][j]:
                    piv = (i, j)
                    break
            if piv:
                break
        if piv is None:
            break
        pi, pj = piv
        if pi != t:
            s[t], s[pi] = s[pi], s[t]
            u[t], u[pi] = u[pi], u[t]
        if pj != t:
            for tgt in (s, w):
                for row in tgt:
                    row[t], row[pj] = row[pj], row[t]
        clear_at(t)
        t += 1

    changed = True
    while changed:
        changed = False
        for i in range(limit):
            if s[i][i] < 0:
                s[i] = [-x for x in s[i]]
                u[i] = [-x for x in u[i]]
        for i in range(limit - 1):
            a, b = s[i][i], s[i + 1][i + 1]
            if a != 0 and b % a != 0:
                for row in s:
                    row[i] += row[i + 1]
                for row in w:
                    row[i] += row[i + 1]
                clear_at(i)
                changed = True
                break
    return IntMatrix(s, cols=C), IntMatrix(u, cols=R), IntMatrix(w, cols=C)


def matrix_rank(m: IntMatrix) -> int:
    h, _ = hnf(m)
    return sum(1 for row in h.entries if any(row))


class Sublattice:
    """A sublattice of Z^ambient_rank held as a canonical HNF row basis.

    The constructor accepts any generating set; the stored basis is the
    canonical HNF of the generators with zero rows dropped, so equal
    sublattices have bit-identical bases.
    """

    __slots__ = ("ambient_rank", "basis", "_pivots")

    def __init__(self, ambient_rank: int, generators: Iterable[Sequence[int]] = ()):
        if ambient_rank < 0:
            raise ValueError("ambient_rank must be nonnegative")
        gens = IntMatrix(generators, cols=ambient_rank)
        if gens.cols != ambient_rank:
            raise ValueError(f"generators have length {gens.cols}, ambient rank is {ambient_rank}")
        h, _ = hnf(gens)
        body = [row for row in h.entries if any(row)]
        self.ambient_rank = ambient_rank
        self.basis = IntMatrix(body, cols=ambient_rank)
        self._pivots = tuple(next(j for j, x in enumerate(row) if x) for row in body)

    @property
    def rank(self) -> int:
        return self.basis.rows

    @property
    def basis_rows(self) -> tuple[tuple[int, ...], ...]:
        return self.basis.entries

    def __eq__(self, other) -> bool:
        if not isinstance(other, Sublattice):
            return NotImplemented
        return self.ambient_rank == other.ambient_rank and self.basis == other.basis

    def __hash__(self) -> int:
        return hash((self.ambient_rank, self.basis))

    def __repr__(self) -> str:
        return f"Sublattice(rank {self.rank} in Z^{self.ambient_rank})"


def _reduce_against(rows, pivots, v):
    """Back-substitute v against HNF rows; return (coeffs, residue)."""
    w = list(v)
    coeffs = []
    for row, p in zip(rows, pivots):
        q, r = divmod(w[p], row[p])
        if r:
            return None, w
        if q:
            w = [a - q * b for a, b in zip(w, row)]
        coeffs.append(q)
    return coeffs, w


def coefficients_in(v: Sequence[int], lattice: Sublattice) -> Optional[tuple[int, ...]]:
    """Integer coefficients of v over the canonical basis, or None."""
    if len(v) != lattice.ambient_rank:
        raise ValueError(f"vector length {len(v)} does not match ambient rank {lattice.ambient_rank}")
    coeffs, residue = _reduce_against(lattice.basis_rows, lattice._pivots, v)
    if coeffs is None or any(residue):
        return None
    return tuple(coeffs)


def member(v: Sequence[int], lattice: Sublattice) -> bool:
    """True iff v is an integer combination of the lattice's basis rows."""
    return coefficients_in(v, lattice) is not None


def integer_kernel(m: IntMatrix) -> Sublattice:
    """Kernel of m as a map from Z^cols to Z^rows, as a canonical sublattice.

    Derived from the HNF transform of the transpose: rows of u that
    annihilate m span the kernel, which is automatically saturated.
    """
    h, u = hnf(m.transpose())
    gens = [u.row(i) for i in range(h.rows) if not any(h.row(i))]
    return Sublattice(m.cols, gens)


def lattice_sum(parts: Iterable[Sublattice], ambient_rank: Optional[int] = None) -> Sublattice:
    """Canonical sublattice generated by the union of the parts' bases."""
    parts = list(parts)
    if not parts:
        if ambient_rank is None:
            raise ValueError("ambient_rank required for an empty sum")
        return Sublattice(ambient_rank)
    ambient = parts[0].ambient_rank
    if ambient_rank is not None and ambient_rank != ambient:
        raise ValueError("ambient_rank disagrees with parts")
    gens = []
    for p in parts:
        if p.ambient_rank != ambient:
            raise ValueError("ambient rank mismatch in lattice_sum")
        gens.extend(p.basis_rows)
    return Sublattice(ambient, gens)


def lattice_equal(a: Sublattice, b: Sublattice) -> bool:
    if a.ambient_rank != b.ambient_rank:
        raise ValueError("ambient rank mismatch")
    return a.basis == b.basis


def saturation(lattice: Sublattice) -> Sublattice:
    """Smallest sublattice containing this one with torsion-free quotient.

    Computed as the double orthogonal kernel, which preserves the rank
    and reuses the canonical kernel machinery.
    """
    orth = integer_kernel(lattice.basis)
    sat = integer_kernel(orth.basis)
    return Sublattice(lattice.ambient_rank, sat.basis_rows)


def sublattice_index(lattice: Sublattice) -> Optional[int]:
    """Index [Z^n : L] when finite (full rank), else None.

    The HNF basis of a full-rank sublattice is upper triangular with
    positive pivots, so the index is just the pivot product.
    """
    if lattice.rank < lattice.ambient_rank:
        return None
    idx = 1
    for i, row in enumerate(lattice.basis_rows):
        idx *= row[i]
    return idx


def member_by_enumeration(v: Sequence[int], generators: Sequence[Sequence[int]],
                          bound: int, max_combos: int = 10_000_000) -> bool:
    """Brute-force membership: search coefficients in [-bound, bound].

    Exhaustive over the (deduplicated) generator list, so a True answer
    is a certificate; a False answer only rules out small coefficients.
    Used by the CLI's oracle mode to cross-check member().
    """
    from itertools import product

    gens = []
    for g in generators:
        g = tuple(g)
        if any(g) and g not in gens:
            gens.append(g)
    if not gens:
        return not any(v)
    if (2 * bound + 1) ** len(gens) > max_combos:
        raise ValueError("enumeration space too large for the brute-force check")
    width = len(gens[0])
    for coeffs in product(range(-bound, bound + 1), repeat=len(gens)):
        if all(sum(c * g[j] for c, g in zip(coeffs, gens)) == v[j] for j in range(width)):
            return True
    return False


def solve_columns(m: IntMatrix, target: Sequence[int]) -> Optional[tuple[int, ...]]:
    """An integer x with m @ x = target, or None if no integer solution.

    Deterministic: the particular solution comes from back-substitution
    against the HNF of the transpose followed by the transform rows.
    """
    if len(target) != m.rows:
        raise ValueError(f"target length {len(target)} does not match {m.rows} rows")
    h, u = hnf(m.transpose())
    body = [row for row in h.entries if any(row)]
    pivots = [next(j for j, x in enumerate(row) if x) for row in body]
    coeffs, residue = _reduce_against(body, pivots, target)
    if coeffs is None or any(residue):
        return None
    padded = coeffs + [0] * (h.rows - len(coeffs))
    return tuple(
        sum(c * u.entries[i][j] for i, c in enumerate(padded))
        for j in range(u.cols)
    )

"""Exact integer linear algebra on arbitrary-precision integers.

Hermite and Smith normal forms, integer kernels, saturation, and
canonical sublattice arithmetic. snf always returns its unimodular
transforms; hnf returns the row transform, and hnf_basis runs the same
elimination without building it, for callers (Sublattice, lattice_sum)
that only read the form; matrix_rank counts the pivots of qsolve's
fraction-free echelon and needs no HNF. The row-style HNF used here
(positive pivots, entries above each pivot reduced into [0, pivot),
zero rows trailing) is the single canonical form of the package: two
sublattices are equal iff their canonical bases are identical tuples.
An integer kernel is two eliminations: the row HNF of [m^T | I] over
the columns of m^T leaves a kernel basis in the identity part of its
rows that vanish on m^T, and an HNF of those parts alone makes that
basis canonical.

Entries are type-checked where they enter, in the public IntMatrix and
Sublattice constructors and IntMatrix.from_columns; every matrix derived
inside the package is built unchecked by IntMatrix._of.

No floats and no rationals enter this module, nor any other module of
the package: qsolve pivots fraction-free as well. Membership tests and
integer solves run by exact back-substitution against an HNF basis;
factor_columns keeps the HNF with transform of one matrix so that
solve_factored can reuse it for every right-hand side.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Optional, Sequence

from .errors import EnumerationLimitError
from .qsolve import _echelon


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
    """Immutable dense matrix of Python ints, row-major.

    The constructor checks every entry and the row lengths; IntMatrix._of
    does not, for rows the package derived from checked ones.
    """

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
    def _of(cls, rows: Iterable[Sequence[int]], cols: int) -> "IntMatrix":
        """A matrix of trusted rows: ints, each of length cols, not re-checked."""
        m = cls.__new__(cls)
        m.entries = tuple(map(tuple, rows))
        m.rows = len(m.entries)
        m.cols = cols
        return m

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)], cols=n)

    @classmethod
    def zero(cls, rows: int, cols: int) -> "IntMatrix":
        return cls([[0] * cols for _ in range(rows)], cols=cols)

    @classmethod
    def from_columns(cls, columns: Sequence[Sequence[int]], height: Optional[int] = None) -> "IntMatrix":
        cols = [tuple(c) for c in columns]
        if height is None:
            height = len(cols[0]) if cols else 0
        if any(len(c) != height for c in cols):
            raise ValueError(f"columns must all have length {height}")
        return cls([[c[i] for c in cols] for i in range(height)], cols=len(cols))

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i]

    def column(self, j: int) -> tuple[int, ...]:
        return tuple(r[j] for r in self.entries)

    def transpose(self) -> "IntMatrix":
        return IntMatrix._of(zip(*self.entries) if self.rows else [()] * self.cols, self.rows)

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch: {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        ot = [other.column(j) for j in range(other.cols)]
        return IntMatrix._of(
            [[sum(a * b for a, b in zip(row, col)) for col in ot] for row in self.entries],
            other.cols,
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


def _with_identity(rows: Iterable[Sequence[int]], n: int) -> list[list[int]]:
    """The rows of [a | I], for the n rows of a."""
    return [list(row) + [1 if i == j else 0 for j in range(n)] for i, row in enumerate(rows)]


def _hermite(rows: list[list[int]], width: int) -> list[list[int]]:
    """The one HNF elimination loop, in place on rows, over their first width columns.

    Pivots are searched and every multiplier is computed in those
    columns only, so columns past width (an appended identity) are
    carried along without changing the form of the first width.
    """
    height = len(rows)
    r = 0
    for c in range(width):
        if r == height:
            break
        for piv in range(r, height):
            if rows[piv][c]:
                break
        else:
            continue
        if piv != r:
            rows[r], rows[piv] = rows[piv], rows[r]
        pivot_row = rows[r]
        for i in range(r + 1, height):
            row = rows[i]
            b = row[c]
            if b:
                a = pivot_row[c]
                if b % a == 0:
                    # plain shear keeps the pivot row intact
                    q = b // a
                    rows[i] = [t - q * s for s, t in zip(pivot_row, row)]
                else:
                    g, x, y = xgcd(a, b)
                    p, q = a // g, b // g
                    rows[i] = [p * t - q * s for s, t in zip(pivot_row, row)]
                    pivot_row = [x * s + y * t for s, t in zip(pivot_row, row)]
        if pivot_row[c] < 0:
            pivot_row = [-x for x in pivot_row]
        rows[r] = pivot_row
        a = pivot_row[c]
        for i in range(r):
            q = rows[i][c] // a
            if q:
                rows[i] = [s - q * t for s, t in zip(rows[i], pivot_row)]
        r += 1
    return rows


def hnf(m: IntMatrix) -> tuple[IntMatrix, IntMatrix]:
    """Row Hermite normal form: returns (h, u) with u unimodular, h = u @ m.

    h has positive pivots in strictly increasing columns, entries above a
    pivot reduced into [0, pivot), and zero rows trailing. The algorithm
    is deterministic, so equal inputs give identical outputs.
    """
    rows = _hermite(_with_identity(m.entries, m.rows), m.cols)
    return (IntMatrix._of([row[:m.cols] for row in rows], m.cols),
            IntMatrix._of([row[m.cols:] for row in rows], m.rows))


def hnf_basis(m: IntMatrix) -> IntMatrix:
    """The h of hnf(m), bit-identical, without building the transform."""
    return IntMatrix._of(_hermite([list(row) for row in m.entries], m.cols), m.cols)


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
    return IntMatrix._of(s, C), IntMatrix._of(u, R), IntMatrix._of(w, C)


def matrix_rank(m: IntMatrix) -> int:
    """Rank of m: its number of pivot columns in one fraction-free echelon, without an HNF."""
    return len(_echelon([list(row) for row in m.entries], m.cols)[0])


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
        self._set_basis(ambient_rank, hnf_basis(IntMatrix(generators, cols=ambient_rank)).entries)

    @classmethod
    def _from_canonical(cls, ambient_rank: int, rows: Sequence[Sequence[int]]) -> "Sublattice":
        """The sublattice whose canonical basis is rows, without an elimination.

        For internal callers only: rows must already be a canonical HNF
        of trusted entries, as integer_kernel and lattice_sum produce
        them, or one zero-extended along a sorted coordinate map. Zero
        rows are dropped.
        """
        lattice = cls.__new__(cls)
        lattice._set_basis(ambient_rank, rows)
        return lattice

    def _set_basis(self, ambient_rank: int, rows: Sequence[Sequence[int]]) -> None:
        self.ambient_rank = ambient_rank
        self.basis = IntMatrix._of([row for row in rows if any(row)], ambient_rank)
        self._pivots = tuple(map(_pivot, self.basis.entries))

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


def _pivot(row: Sequence[int]) -> int:
    """Column of row's first nonzero entry, which is where its value first occurs."""
    return row.index(next(filter(None, row)))


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

    The HNF of [m^T | I] over its first m.rows columns (Cohen, *A Course
    in Computational Algebraic Number Theory*, section 2.4) leaves last
    the rows that vanish on m^T; their identity parts are a basis of the
    kernel, and a second HNF of those parts alone makes it canonical.
    The canonical HNF is unique, so this is the form that one
    elimination over every column gives, without reducing the rows that
    are dropped.
    """
    n = m.rows
    rows = _hermite(_with_identity(m.transpose().entries, m.cols), n)
    kernel = [row[n:] for row in rows if not any(row[:n])]
    return Sublattice._from_canonical(m.cols, _hermite(kernel, m.cols))


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
    return Sublattice._from_canonical(ambient, hnf_basis(IntMatrix._of(gens, ambient)).entries)


def lattice_equal(a: Sublattice, b: Sublattice) -> bool:
    if a.ambient_rank != b.ambient_rank:
        raise ValueError("ambient rank mismatch")
    return a.basis == b.basis


def saturation(lattice: Sublattice) -> Sublattice:
    """Smallest sublattice containing this one with torsion-free quotient.

    Computed as the double orthogonal kernel, which preserves the rank
    and is already canonical in the same ambient rank.
    """
    return integer_kernel(integer_kernel(lattice.basis).basis)


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
    Used by the CLI's oracle mode to cross-check member(). Raises
    EnumerationLimitError when the search would try more than
    max_combos coefficient vectors.
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
        raise EnumerationLimitError("enumeration space too large for the brute-force check")
    width = len(gens[0])
    for coeffs in product(range(-bound, bound + 1), repeat=len(gens)):
        if all(sum(c * g[j] for c, g in zip(coeffs, gens)) == v[j] for j in range(width)):
            return True
    return False


class ColumnFactor(NamedTuple):
    """The HNF with transform of a matrix's transpose, kept for repeated solves.

    body and pivots are the nonzero rows of h and their pivot columns;
    transform holds the matching rows of u, the only ones a particular
    solution combines. rows and cols are the shape of the matrix.
    """

    rows: int
    cols: int
    body: list
    pivots: list
    transform: tuple


def factor_columns(m: IntMatrix) -> ColumnFactor:
    """Factor m once, so that solve_factored can solve m @ x = target per target."""
    h, u = hnf(m.transpose())
    body = [row for row in h.entries if any(row)]
    return ColumnFactor(m.rows, m.cols, body,
                        list(map(_pivot, body)),
                        u.entries[:len(body)])


def solve_factored(factor: ColumnFactor, target: Sequence[int]) -> Optional[tuple[int, ...]]:
    """solve_columns against a factored matrix: one back-substitution and one product."""
    if len(target) != factor.rows:
        raise ValueError(f"target length {len(target)} does not match {factor.rows} rows")
    coeffs, residue = _reduce_against(factor.body, factor.pivots, target)
    if coeffs is None or any(residue):
        return None
    # Zero rows of h take coefficient zero, so only the body's transform rows are summed.
    return tuple(sum(c * row[j] for c, row in zip(coeffs, factor.transform))
                 for j in range(factor.cols))


def solve_columns(m: IntMatrix, target: Sequence[int]) -> Optional[tuple[int, ...]]:
    """An integer x with m @ x = target, or None if no integer solution.

    Deterministic: the particular solution comes from back-substitution
    against the HNF of the transpose followed by the transform rows.
    factor_columns and solve_factored are its two halves, for callers
    that solve against one matrix many times.
    """
    return solve_factored(factor_columns(m), target)

"""Exact integer linear algebra on arbitrary-precision integers.

Hermite and Smith normal forms, integer kernels, saturation, and
canonical sublattice arithmetic. Every Hermite elimination is one loop,
_hermite, on one gcd step, _clear_below; snf runs _hermite on the rows
of s and on the rows of s^T in turn until s is diagonal. The transforms
that hnf, snf and factor_columns return have one mechanism: _hermite
runs on the data columns alone and logs its row operations, and
_transform_rows multiplies the rows the caller asked for out of the
log. hnf and snf ask for all of them and factor_columns for those of
the nonzero rows only; hnf_basis runs the same elimination with no log.
matrix_rank counts the pivots of qsolve's fraction-free echelon. The
row-style HNF (positive pivots, entries above each pivot reduced into
[0, pivot), zero rows trailing) is the single canonical form of the
package: two sublattices are equal iff their canonical bases are
identical tuples. Every integer kernel is read by _kernel_basis in one
sweep over the vectors from last to first, which inserts each into an
echelon basis of the later ones with _clear_below and builds the
canonical basis of the relations directly, with no Hermite elimination.

Entries are type-checked where they enter, in the public IntMatrix and
Sublattice constructors and IntMatrix.from_columns; every matrix derived
inside the package is built unchecked by IntMatrix._of.

No floats and no rationals enter this module, nor any other module of
the package: qsolve pivots fraction-free as well. Membership tests and
integer solves run by exact back-substitution against an HNF basis;
factor_columns keeps the HNF of one matrix's transpose and the transform
rows a solve combines, so that solve_factored can reuse them for every
right-hand side.
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


def _clear_below(rows: list[list[int]], r: int, c: int, log: Optional[list] = None) -> None:
    """The one gcd step: zero column c below row r against rows[r][c] != 0, in place.

    An entry that the pivot divides takes a plain shear, which keeps the
    pivot row; any other takes an xgcd step, which leaves their gcd as pivot.
    Each row operation is appended to log when one is given (see _hermite).
    """
    pivot_row = rows[r]
    for i in range(r + 1, len(rows)):
        row = rows[i]
        b = row[c]
        if b:
            a = pivot_row[c]
            if b % a == 0:
                q = b // a
                rows[i] = [t - q * s for s, t in zip(pivot_row, row)]
                if log is not None:
                    log.append((_SHEAR, r, i, q))
            else:
                g, x, y = xgcd(a, b)
                p, q = a // g, b // g
                rows[i] = [p * t - q * s for s, t in zip(pivot_row, row)]
                pivot_row = [x * s + y * t for s, t in zip(pivot_row, row)]
                if log is not None:
                    log.append((_XGCD, r, i, x, y, p, q))
    rows[r] = pivot_row


# The row operations of an elimination log, as tuples headed by their kind:
# (_SHEAR, src, dst, q) subtracts q times row src from row dst;
# (_XGCD, r, i, x, y, p, q) replaces rows r and i by x*r + y*i and p*i - q*r;
# (_SWAP, r, s) swaps two rows; (_NEG, r) negates one.
_SHEAR, _XGCD, _SWAP, _NEG = range(4)


def _hermite(rows: list[list[int]], width: int, log: Optional[list] = None) -> list[list[int]]:
    """The one HNF elimination loop, in place on rows, over their first width columns.

    Pivots are searched and every multiplier is computed in those
    columns only, so columns past width (an appended identity) are
    carried along without changing the form of the first width. A
    caller that wants transform rows passes a list as log instead of
    appending an identity: every row operation is appended to it, and
    _transform_rows multiplies the rows out.
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
            if log is not None:
                log.append((_SWAP, r, piv))
        _clear_below(rows, r, c, log)
        pivot_row = rows[r]
        if pivot_row[c] < 0:
            pivot_row = rows[r] = [-x for x in pivot_row]
            if log is not None:
                log.append((_NEG, r))
        a = pivot_row[c]
        for i in range(r):
            q = rows[i][c] // a
            if q:
                rows[i] = [s - q * t for s, t in zip(rows[i], pivot_row)]
                if log is not None:
                    log.append((_SHEAR, r, i, q))
        r += 1
    return rows


def _transform_rows(log: list, height: int, keep: int) -> list[tuple[int, ...]]:
    """The first keep rows of the transform U = E_K ... E_1 of a logged elimination.

    The selector W = [I_keep | 0] is multiplied through the steps in
    reverse, W <- W E_k. Each E_k acts on two rows, so on W it mixes two
    columns of length keep: a step costs O(keep), where carrying the
    identity through the elimination costs O(height) per row update.
    A column of W that is still zero is the one shared list zero, and a
    shear from it is skipped: most shears clear rows that no kept row
    reads later, such as rows that end as zero rows of h.
    """
    zero = [0] * keep
    cols = [[int(i == j) for i in range(keep)] for j in range(keep)] + [zero] * (height - keep)
    for step in reversed(log):
        kind = step[0]
        if kind == _SHEAR:
            _, src, dst, q = step
            if cols[dst] is not zero:
                cols[src] = [a - q * b for a, b in zip(cols[src], cols[dst])]
        elif kind == _XGCD:
            _, r, i, x, y, p, q = step
            col_r, col_i = cols[r], cols[i]
            cols[r] = [x * a - q * b for a, b in zip(col_r, col_i)]
            cols[i] = [y * a + p * b for a, b in zip(col_r, col_i)]
        elif kind == _SWAP:
            _, r, s = step
            cols[r], cols[s] = cols[s], cols[r]
        else:
            cols[step[1]] = [-a for a in cols[step[1]]]
    return list(zip(*cols))


def hnf(m: IntMatrix) -> tuple[IntMatrix, IntMatrix]:
    """Row Hermite normal form: returns (h, u) with u unimodular, h = u @ m.

    h has positive pivots in strictly increasing columns, entries above a
    pivot reduced into [0, pivot), and zero rows trailing. The algorithm
    is deterministic, so equal inputs give identical outputs. u is
    multiplied out of the elimination's log of row operations by
    _transform_rows.
    """
    log = []
    h = _hermite([list(row) for row in m.entries], m.cols, log)
    return IntMatrix._of(h, m.cols), IntMatrix._of(_transform_rows(log, m.rows, m.rows), m.rows)


def hnf_basis(m: IntMatrix) -> IntMatrix:
    """The h of hnf(m), bit-identical, without building the transform."""
    return IntMatrix._of(_hermite([list(row) for row in m.entries], m.cols), m.cols)


def snf(m: IntMatrix) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Smith normal form: returns (s, u, w) with s = u @ m @ w.

    s is diagonal with nonnegative entries d_1 | d_2 | ..., zeros
    trailing; u and w are unimodular. s is brought to row HNF, and its
    transpose to row HNF, in turn until it is diagonal (Kannan-Bachem,
    *SIAM J. Comput.* 8, 1979); while some d_i does not divide a later
    d_j, column j is added to column i and the turns start again. The
    row passes log into one elimination log and the column passes,
    with those additions, into another, and _transform_rows multiplies
    u and w^T out of them. Pivots leave _hermite positive.
    """
    R, C = m.rows, m.cols
    log_u, log_w = [], []
    s = [list(row) for row in m.entries]
    while True:
        _hermite(s, C, log_u)
        s = _transposed(_hermite(_transposed(s, C), R, log_w), R)
        if any(x for i, row in enumerate(s) for j, x in enumerate(row) if i != j):
            continue
        diag = [s[i][i] for i in range(min(R, C)) if s[i][i]]
        pair = next(((i, j) for i in range(len(diag)) for j in range(i + 1, len(diag))
                     if diag[j] % diag[i]), None)
        if pair is None:
            break
        i, j = pair
        s[j][i] = diag[j]
        log_w.append((_SHEAR, j, i, -1))
    u = _transform_rows(log_u, R, R)
    w = _transposed(_transform_rows(log_w, C, C), C)
    return IntMatrix._of(s, C), IntMatrix._of(u, R), IntMatrix._of(w, C)


def _transposed(rows: list, width: int) -> list[list[int]]:
    """The rows of the transpose of a matrix with these rows, each of length width."""
    return [list(col) for col in zip(*rows)] if rows else [[] for _ in range(width)]


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
    """Kernel of m as a map from Z^cols to Z^rows, as a canonical sublattice."""
    return Sublattice._from_canonical(m.cols, _kernel_basis(m.transpose().entries, m.rows))


def _kernel_basis(vectors: Sequence[Sequence[int]], n: int) -> list:
    """The canonical basis of the integer relations among vectors in Z^n.

    Let L be the lattice of relations x with x_1 v_1 + ... + x_k v_k = 0.
    Column j is a pivot of L's HNF basis iff v_j lies in the rational
    span of v_{j+1}..v_k, and its pivot d_j is the least d > 0 with
    d v_j in their Z-span. So one sweep over the vectors from last to
    first builds the basis directly (Cohen, *A Course in Computational
    Algebraic Number Theory*, 2.4). It keeps an echelon basis of the
    Z-span of the vectors already swept, each row [w | x] carrying the
    combination x of the vectors that gives w, and inserts [v_j | e_j]
    with _clear_below at each nonzero column. If the v-part of the row
    does not vanish, the row joins the echelon basis at its first
    nonzero column. If it vanishes, its combination is a relation with
    entry +-d_j at j; made positive there, it is reduced in ascending
    order against the relations found before whose pivot exceeds 1.
    A vector with d_j = 1 lies in the Z-span already built, so it is
    eliminated by shears alone: it enters no later combination, its
    column is already zero above its pivot, and the reduction skips it.
    """
    k = len(vectors)
    span = {}    # pivot column -> echelon row [w | x] of the vectors swept
    kernel = {}  # pivot j -> canonical relation with d_j at j
    coarse = []  # the pivots j with d_j > 1, ascending
    for j in range(k - 1, -1, -1):
        row = list(vectors[j]) + [0] * k
        row[n + j] = 1
        for c in range(n):
            if row[c]:
                if c not in span:
                    span[c] = row
                    break
                pair = [span[c], row]
                _clear_below(pair, 0, c)
                span[c], row = pair
        else:
            x = row[n:] if row[n + j] > 0 else [-a for a in row[n:]]
            for p in coarse:
                q = x[p] // kernel[p][p]
                if q:
                    x = [a - q * b for a, b in zip(x, kernel[p])]
            kernel[j] = x
            if x[j] > 1:
                coarse.insert(0, j)
    return [tuple(kernel[j]) for j in sorted(kernel)]


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
    """The HNF of a matrix's transpose, with the transform rows a solve combines.

    body and pivots are the nonzero rows of h and their pivot columns;
    transform holds the matching rows of u, the only ones a particular
    solution combines (the zero rows of h take coefficient zero), and
    the rest of u is never built. rows and cols are the shape of the
    matrix.
    """

    rows: int
    cols: int
    body: list
    pivots: list
    transform: list


def factor_columns(columns: Sequence[Sequence[int]], rows: int) -> ColumnFactor:
    """Factor the rows x len(columns) matrix with these columns once, for solve_factored.

    The columns are the rows of the transpose, so they go to _hermite
    as they are, with a log; only the transform rows of h's nonzero
    rows are multiplied out of it. body, pivots and transform are
    bit-identical to those rows of hnf of the transpose. Entries are
    not checked: columns must hold trusted ints, each of length rows.
    """
    log = []
    body = [tuple(row) for row in _hermite([list(col) for col in columns], rows, log) if any(row)]
    return ColumnFactor(rows, len(columns), body, list(map(_pivot, body)),
                        _transform_rows(log, len(columns), len(body)))


def solve_factored(factor: ColumnFactor, target: Sequence[int]) -> Optional[tuple[int, ...]]:
    """solve_columns against a factored matrix.

    One back-substitution against the body gives the coefficients, and
    the kept transform rows are summed, each weighted by its nonzero
    coefficient.
    """
    if len(target) != factor.rows:
        raise ValueError(f"target length {len(target)} does not match {factor.rows} rows")
    coeffs, residue = _reduce_against(factor.body, factor.pivots, target)
    if coeffs is None or any(residue):
        return None
    x = [0] * factor.cols
    for c, row in zip(coeffs, factor.transform):
        if c:
            x = [a + c * b for a, b in zip(x, row)]
    return tuple(x)


def solve_columns(m: IntMatrix, target: Sequence[int]) -> Optional[tuple[int, ...]]:
    """An integer x with m @ x = target, or None if no integer solution.

    Deterministic: the particular solution comes from back-substitution
    against the HNF of the transpose followed by the transform rows.
    factor_columns and solve_factored are its two halves, for callers
    that solve against one matrix many times.
    """
    return solve_factored(factor_columns(m.transpose().entries, m.rows), target)

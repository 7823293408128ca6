import hashlib
import random

import pytest

import oracles
import fanlat.intlin as intlin_module
from fanlat.intlin import (IntMatrix, Sublattice, coefficients_in, factor_columns, hnf,
                           hnf_basis, integer_kernel, lattice_equal, lattice_sum,
                           matrix_rank, member, member_by_enumeration,
                           saturation, snf, solve_columns, solve_factored,
                           sublattice_index)


def rows(m):
    return [list(r) for r in m.entries]


class TestHNF:
    def test_identity_fixed(self):
        m = IntMatrix.identity(2)
        h, u = hnf(m)
        assert h == m
        assert u == m

    def test_worked_example(self):
        m = IntMatrix([[2, 4], [1, 1]])
        h, u = hnf(m)
        assert rows(h) == [[1, 1], [0, 2]]
        assert (u @ m) == h
        assert oracles.is_unimodular(rows(u))
        assert oracles.is_hnf(rows(h))

    def test_zero_matrix(self):
        m = IntMatrix.zero(3, 2)
        h, u = hnf(m)
        assert h == m
        assert u == IntMatrix.identity(3)

    def test_empty_shapes(self):
        for m in (IntMatrix([], cols=3), IntMatrix([[], []])):
            h, u = hnf(m)
            assert h.rows == m.rows and h.cols == m.cols
            assert u.rows == u.cols == m.rows

    def test_canonical_deterministic(self):
        m = IntMatrix([[3, -1, 2], [4, 4, 0], [-2, 5, 5]])
        assert hnf(m)[0] == hnf(IntMatrix(rows(m)))[0]

    def test_transforms_are_pinned(self):
        # solve_columns reads its particular solution from u, and other valid
        # elimination orders give other transforms; this digest of (h, u)
        # over seeded random matrices holds every step of hnf in place.
        rng = random.Random(20261019)
        digest = hashlib.sha256()
        for _ in range(500):
            height, width = rng.randint(0, 6), rng.randint(0, 6)
            bound = rng.choice((1, 9, 10 ** 6))
            zeros = rng.random()
            m = IntMatrix([[0 if rng.random() < zeros else rng.randint(-bound, bound)
                            for _ in range(width)] for _ in range(height)], cols=width)
            h, u = hnf(m)
            digest.update(repr((h.entries, u.entries)).encode())
        assert digest.hexdigest() == (
            "60578873b1488cf8507df8bc20b8ff83aea114a763b048c25db936b52d3c051c")


class TestSNF:
    def test_divisibility_example(self):
        m = IntMatrix([[2, 0], [0, 3]])
        s, u, w = snf(m)
        assert rows(s) == [[1, 0], [0, 6]]
        assert (u @ m @ w) == s
        assert oracles.is_unimodular(rows(u))
        assert oracles.is_unimodular(rows(w))

    def test_identity(self):
        m = IntMatrix.identity(3)
        s, u, w = snf(m)
        assert s == m

    def test_one_by_one(self):
        s, _, _ = snf(IntMatrix([[6]]))
        assert rows(s) == [[6]]

    def test_random_matrices(self):
        for m in _random_matrices(33, 300):
            s, u, w = snf(m)
            assert oracles.is_snf(rows(s))
            assert (u @ m @ w) == s
            assert oracles.is_unimodular(rows(u))
            assert oracles.is_unimodular(rows(w))

    def test_transforms_are_pinned(self):
        # Other valid elimination orders give other transforms; this digest
        # of (s, u, w) over seeded random matrices holds every step of snf
        # in place.
        rng = random.Random(20261019)
        digest = hashlib.sha256()
        for _ in range(500):
            height, width = rng.randint(0, 6), rng.randint(0, 6)
            bound = rng.choice((1, 9, 10 ** 6))
            zeros = rng.random()
            m = IntMatrix([[0 if rng.random() < zeros else rng.randint(-bound, bound)
                            for _ in range(width)] for _ in range(height)], cols=width)
            s, u, w = snf(m)
            digest.update(repr((s.entries, u.entries, w.entries)).encode())
        assert digest.hexdigest() == (
            "98b8fcfb0c1759ecfd50d88bd040daa6519cf1e930c938d5ea959ea897eefdb5")


class TestIntegerKernel:
    def test_p2_columns(self):
        m = IntMatrix([[1, 0, -1], [0, 1, -1]])
        k = integer_kernel(m)
        assert k.basis_rows == ((1, 1, 1),)

    def test_p2xp1_columns(self):
        cols = [(1, 0, 0), (0, 1, 0), (-1, -1, 0), (0, 0, 1), (0, 0, -1)]
        m = IntMatrix.from_columns(cols)
        k = integer_kernel(m)
        assert k.rank == 2
        expected = Sublattice(5, [(1, 1, 1, 0, 0), (0, 0, 0, 1, 1)])
        assert lattice_equal(k, expected)

    def test_invertible_square(self):
        k = integer_kernel(IntMatrix([[2, 1], [1, 1]]))
        assert k.rank == 0

    def test_wide_zero_map(self):
        k = integer_kernel(IntMatrix([], cols=4))
        assert k.rank == 4

    @pytest.mark.parametrize("k", [0, 1, 3])
    def test_empty_shapes(self, k):
        # 0 x k: every vector of Z^k is in the kernel, with the identity as its basis.
        wide = integer_kernel(IntMatrix([], cols=k))
        assert wide.ambient_rank == k
        assert wide.basis_rows == IntMatrix.identity(k).entries
        # k x 0: the kernel lives in Z^0 and is zero.
        tall = integer_kernel(IntMatrix([[]] * k, cols=0))
        assert tall.ambient_rank == 0 and tall.rank == 0


class TestBoundaryChecks:
    """The public constructors check every entry, the row lengths and the width."""

    @pytest.mark.parametrize("bad", [1.0, 0.5, "1"])
    def test_non_int_entry(self, bad):
        with pytest.raises(TypeError):
            IntMatrix([[1, 2], [3, bad]])
        with pytest.raises(TypeError):
            IntMatrix.from_columns([(1, 2), (bad, 3)])
        with pytest.raises(TypeError):
            Sublattice(2, [(1, 2), (3, bad)])

    def test_ragged_rows(self):
        with pytest.raises(ValueError):
            IntMatrix([[1, 2], [3]])
        with pytest.raises(ValueError):
            IntMatrix.from_columns([(1, 2), (3,)])
        with pytest.raises(ValueError):
            Sublattice(2, [(1, 2), (3,)])

    def test_cols_mismatch(self):
        with pytest.raises(ValueError):
            IntMatrix([[1, 2]], cols=3)
        with pytest.raises(ValueError):
            IntMatrix.from_columns([(1, 2)], height=3)
        with pytest.raises(ValueError):
            Sublattice(3, [(1, 2)])


class TestMember:
    def test_multiple_of_generator(self):
        lat = Sublattice(3, [(1, 1, 1)])
        assert member((2, 2, 2), lat)

    def test_not_proportional(self):
        lat = Sublattice(3, [(1, 1, 1)])
        assert not member((1, 1, 0), lat)

    def test_dimension_mismatch(self):
        lat = Sublattice(3, [(1, 1, 1)])
        with pytest.raises(ValueError):
            member((1, 1), lat)

    def test_coefficients_reconstruct(self):
        lat = Sublattice(4, [(1, 0, 2, 0), (0, 3, 1, 0)])
        v = tuple(2 * a - 5 * b for a, b in zip(*lat.basis_rows))
        coeffs = coefficients_in(v, lat)
        assert coeffs == (2, -5)


class TestLatticeSum:
    def test_empty(self):
        assert lattice_sum([], ambient_rank=4).rank == 0

    def test_p2xp1_span(self):
        a = Sublattice(5, [(1, 1, 1, 0, 0)])
        b = Sublattice(5, [(0, 0, 0, 1, 1)])
        total = lattice_sum([a, b])
        assert total.rank == 2

    def test_idempotent(self):
        lat = Sublattice(3, [(1, 2, 3), (0, 1, 1)])
        assert lattice_equal(lattice_sum([lat, lat]), lat)

    def test_commutative_associative(self):
        rng = random.Random(5)
        for _ in range(25):
            parts = [Sublattice(4, [[rng.randint(-4, 4) for _ in range(4)]
                                    for _ in range(rng.randint(1, 2))])
                     for _ in range(3)]
            a, b, c = parts
            ab_c = lattice_sum([lattice_sum([a, b]), c])
            a_bc = lattice_sum([a, lattice_sum([b, c])])
            cba = lattice_sum([c, b, a])
            assert lattice_equal(ab_c, a_bc)
            assert lattice_equal(ab_c, cba)

    def test_ambient_mismatch(self):
        with pytest.raises(ValueError):
            lattice_sum([Sublattice(2, [(1, 0)]), Sublattice(3, [(1, 0, 0)])])


class TestLatticeEqual:
    def test_sign_of_generator(self):
        assert lattice_equal(Sublattice(3, [(1, 1, 1)]), Sublattice(3, [(-1, -1, -1)]))

    def test_index_two_sublattice(self):
        assert not lattice_equal(Sublattice(2, [(1, 0)]), Sublattice(2, [(2, 0)]))

    def test_ambient_mismatch(self):
        with pytest.raises(ValueError):
            lattice_equal(Sublattice(2, [(1, 0)]), Sublattice(3, [(1, 0, 0)]))


class TestSaturation:
    def test_stretched_generator(self):
        sat = saturation(Sublattice(2, [(2, 0)]))
        assert sat.basis_rows == ((1, 0),)

    def test_index_two_full_rank(self):
        sat = saturation(Sublattice(2, [(1, 1), (1, -1)]))
        assert lattice_equal(sat, Sublattice(2, [(1, 0), (0, 1)]))

    def test_idempotent(self):
        lat = Sublattice(3, [(1, 2, 0), (0, 0, 3)])
        once = saturation(lat)
        assert lattice_equal(saturation(once), once)
        assert once.rank == lat.rank


class TestSublatticeIndex:
    def test_full_lattice(self):
        assert sublattice_index(Sublattice(2, [(1, 0), (0, 1)])) == 1

    def test_index_two(self):
        assert sublattice_index(Sublattice(2, [(1, 1), (1, -1)])) == 2

    def test_rank_deficient(self):
        assert sublattice_index(Sublattice(2, [(1, 0)])) is None


class TestSolveColumns:
    def test_known_instance(self):
        m = IntMatrix.from_columns([(1, 0), (0, 1), (-1, -1)])
        x = solve_columns(m, (2, 3))
        assert x is not None
        assert m.mul_vector(x) == (2, 3)

    def test_unsolvable(self):
        m = IntMatrix.from_columns([(2, 0), (0, 2)])
        assert solve_columns(m, (1, 0)) is None

    def test_random(self):
        rng = random.Random(11)
        for _ in range(60):
            h = rng.randint(1, 4)
            k = rng.randint(1, 4)
            m = IntMatrix([[rng.randint(-5, 5) for _ in range(k)] for _ in range(h)])
            hidden = [rng.randint(-3, 3) for _ in range(k)]
            target = m.mul_vector(hidden)
            x = solve_columns(m, target)
            assert x is not None
            assert m.mul_vector(x) == target

    def test_one_factor_serves_every_target(self):
        rng = random.Random(12)
        for _ in range(40):
            h = rng.randint(1, 4)
            k = rng.randint(0, 5)
            m = IntMatrix([[rng.randint(-6, 6) for _ in range(k)] for _ in range(h)], cols=k)
            factor = factor_columns(m.transpose().entries, m.rows)
            for _ in range(5):
                if rng.random() < 0.5:
                    target = m.mul_vector([rng.randint(-3, 3) for _ in range(k)])
                else:
                    target = tuple(rng.randint(-6, 6) for _ in range(h))
                assert solve_factored(factor, target) == solve_columns(m, target)
        with pytest.raises(ValueError):
            solve_factored(factor_columns([(1,), (2,)], 1), (1, 2))
        with pytest.raises(ValueError):
            solve_columns(IntMatrix([[1, 2]]), (1, 2))


def _carried_identity_hnf(m):
    """The reference transform: _hermite on the rows of [m | I], carrying the identity."""
    rows = intlin_module._hermite([list(row) + [int(i == j) for j in range(m.rows)]
                                   for i, row in enumerate(m.entries)], m.cols)
    return [tuple(row[:m.cols]) for row in rows], [tuple(row[m.cols:]) for row in rows]


def _random_matrices(seed, count):
    """Empty shapes, then random matrices of 0-8 rows and columns with entries
    up to 10^30, about a third of them of deficient rank."""
    yield from (IntMatrix.zero(0, 0), IntMatrix.zero(0, 4), IntMatrix.zero(4, 0))
    rng = random.Random(seed)
    for _ in range(count):
        height, width = rng.randint(0, 8), rng.randint(0, 8)
        bound = rng.choice((1, 9, 10 ** 6, 10 ** 30))
        if height and width and rng.random() < 0.35:
            inner = rng.randint(0, min(height, width) - 1)
            a = IntMatrix([[rng.randint(-3, 3) for _ in range(inner)] for _ in range(height)],
                          cols=inner)
            b = IntMatrix([[rng.randint(-bound, bound) for _ in range(width)]
                           for _ in range(inner)], cols=width)
            yield a @ b
        else:
            zeros = rng.random()
            yield IntMatrix([[0 if rng.random() < zeros else rng.randint(-bound, bound)
                              for _ in range(width)] for _ in range(height)], cols=width)


class TestTransformsAgainstCarriedIdentity:
    """The transforms multiplied out of an elimination log equal the ones
    carried through it as an identity block, bit for bit."""

    def test_hnf(self):
        for m in _random_matrices(31, 300):
            h, u = hnf(m)
            assert (list(h.entries), list(u.entries)) == _carried_identity_hnf(m)

    def test_factor_columns(self):
        # The columns of the factored matrix are the rows of m.
        for m in _random_matrices(32, 300):
            h, u = _carried_identity_hnf(m)
            body = [row for row in h if any(row)]
            factor = factor_columns(m.entries, m.cols)
            assert factor.rows == m.cols and factor.cols == m.rows
            assert factor.body == body
            assert factor.pivots == [row.index(next(filter(None, row))) for row in body]
            assert factor.transform == u[:len(body)]


def test_huge_entries_stay_exact():
    big = 10 ** 30
    m = IntMatrix([[big, big + 1], [big - 1, big]])
    h, u = hnf(m)
    assert (u @ m) == h
    assert oracles.is_unimodular(rows(u))
    # det = big^2 - (big+1)(big-1) = 1, so the matrix is itself unimodular
    assert rows(h) == [[1, 0], [0, 1]]
    s, su, sw = snf(m)
    assert rows(s) == [[1, 0], [0, 1]]
    assert (su @ m @ sw) == s
    lat = Sublattice(2, [(big, 0), (0, big)])
    assert sublattice_index(lat) == big * big
    assert member((big * 7, -big * 9), lat)
    assert not member((big * 7 + 1, 0), lat)


def test_member_matches_enumeration():
    rng = random.Random(3)
    for _ in range(40):
        gens = [[rng.randint(-2, 2) for _ in range(3)] for _ in range(2)]
        lat = Sublattice(3, gens)
        probe = tuple(rng.randint(-4, 4) for _ in range(3))
        fast = member(probe, lat)
        slow = member_by_enumeration(probe, gens, 6)
        if slow:
            assert fast
        if not fast:
            assert not slow


def run_random_property_suite(num_matrices: int, seed: int = 20260811) -> None:
    """Random-matrix contract suite shared with the acceptance tests."""
    rng = random.Random(seed)
    for _ in range(num_matrices):
        height = rng.randint(1, 6)
        width = rng.randint(1, 6)
        m = IntMatrix([[rng.randint(-9, 9) for _ in range(width)] for _ in range(height)])
        h, u = hnf(m)
        assert hnf_basis(m) == h
        assert (u @ m) == h
        assert oracles.is_unimodular(rows(u))
        assert oracles.is_hnf(rows(h))
        s, su, sw = snf(m)
        assert (su @ m @ sw) == s
        assert oracles.is_unimodular(rows(su))
        assert oracles.is_unimodular(rows(sw))
        assert oracles.is_snf(rows(s))
        k = integer_kernel(m)
        # The one-elimination kernel equals the two-step reference: the
        # rows of u that hnf(m^T) sends to zero, brought to HNF.
        ht, ut = hnf(m.transpose())
        assert k.basis_rows == Sublattice(
            width, [ut.row(i) for i in range(ht.rows) if not any(ht.row(i))]).basis_rows
        if k.rank:
            product = m @ k.basis.transpose()
            assert product.is_zero()
        assert k.rank + matrix_rank(m) == width
        assert lattice_equal(saturation(k), k)


def test_random_property_suite_smoke():
    run_random_property_suite(150, seed=404)

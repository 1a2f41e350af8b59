import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from diffsys import field
from diffsys.curves import HyperellipticCurve
from diffsys.field import (
    ExactMatrix,
    ExactScalar,
    _cleared,
    _divide_exact,
    _echelon,
    _integer_matrix,
    _pivots,
    exact_rank,
    exact_solve,
)
from diffsys.multiplication import _placed

from oracles import bareiss_echelon, svd_rank, sympy_pivots, sympy_rank, sympy_solve


def es(re, im=0):
    return ExactScalar.of(re, im)


def zeros(rows, cols):
    return ExactMatrix(rows, cols, (es(0),) * (rows * cols))


def pivots_of(m):
    """The columns of ``m`` independent of the columns before them, as every
    exact independent subset in the package takes them."""
    return _pivots([_cleared(m.row(i)) for i in range(m.rows)])


def random_exact_matrix(rng, rows, cols, mag=100):
    entries = []
    for _ in range(rows * cols):
        re = Fraction(rng.randint(-mag, mag), rng.randint(1, mag))
        im = Fraction(rng.randint(-mag, mag), rng.randint(1, mag))
        entries.append(ExactScalar(re, im))
    return ExactMatrix(rows, cols, tuple(entries))


def random_real_matrix(rng, rows, cols, mag=100):
    entries = [
        ExactScalar.of(Fraction(rng.randint(-mag, mag), rng.randint(1, mag)))
        for _ in range(rows * cols)
    ]
    return ExactMatrix(rows, cols, tuple(entries))


class TestExactScalar:
    def test_field_axioms_sample(self):
        a, b, c = es(2, 3), es(Fraction(-1, 2), 5), es(0, Fraction(7, 3))
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c

    def test_denominators_normalized(self):
        x = ExactScalar(Fraction(2, -4), Fraction(0, 5))
        assert x.re.denominator > 0 and x.re == Fraction(-1, 2)

    def test_json_roundtrip(self):
        x = es(Fraction(-3, 7), Fraction(22, 5))
        assert ExactScalar.from_json(x.to_json()) == x

    def test_beyond_double_range_is_named(self):
        """A part beyond double range is a ValueError naming the value, not an
        OverflowError; a part below it rounds to zero."""
        for x in (es(10**400), es(1, -(10**400)), es(Fraction(10**400, 3))):
            with pytest.raises(ValueError) as info:
                x.to_complex()
            assert isinstance(info.value, field.FloatRangeError)
            assert str(info.value) == repr(x)[:40] + "... lies beyond double range"
        assert es(Fraction(1, 10**400), 2).to_complex() == 2j


_rational = st.builds(Fraction, st.integers(-100, 100), st.integers(1, 50))
# about half the parts are exact zeros, so real x real, real x complex and
# exact-zero operands are all drawn often
_part = st.one_of(st.just(Fraction(0)), _rational)


@settings(max_examples=300, deadline=None)
@given(_part, _part, _part, _part)
def test_scalar_arithmetic_matches_componentwise_formula(a, b, c, d):
    """(a + bi) op (c + di) against the textbook component formulas."""
    x, y = ExactScalar(a, b), ExactScalar(c, d)
    assert x + y == ExactScalar(a + c, b + d)
    assert x - y == ExactScalar(a - c, b - d)
    assert x * y == ExactScalar(a * c - b * d, a * d + b * c)
    for z in (x + y, x - y, x * y):
        assert isinstance(z.re, Fraction) and isinstance(z.im, Fraction)


class TestExactRank:
    def test_identity(self):
        assert exact_rank(ExactMatrix.identity(2)) == 2

    def test_zero(self):
        assert exact_rank(zeros(3, 3)) == 0

    def test_degenerate_shapes(self):
        assert exact_rank(zeros(0, 5)) == 0
        assert exact_rank(zeros(5, 0)) == 0

    def test_rank_one(self):
        m = ExactMatrix.from_rows(
            [[es(1), es(2)], [es(2), es(4)], [es(-3), es(-6)]]
        )
        assert exact_rank(m) == 1

    def test_gaussian_entries(self):
        m = ExactMatrix.from_rows([[es(0, 1), es(1)], [es(-1), es(0, 1)]])
        # second row = i * first row
        assert exact_rank(m) == 1

    def test_transpose_invariance_random(self):
        rng = random.Random(5)
        for _ in range(25):
            m = random_exact_matrix(rng, rng.randint(1, 6), rng.randint(1, 6), mag=9)
            assert exact_rank(m) == exact_rank(ExactMatrix.from_rows(_columns(m)))

    def test_against_sympy_oracle(self):
        rng = random.Random(11)
        for _ in range(40):
            m = random_exact_matrix(rng, rng.randint(1, 5), rng.randint(1, 5), mag=12)
            assert exact_rank(m) == sympy_rank(m)

    def test_low_rank_products_against_sympy(self):
        rng = random.Random(13)
        for _ in range(20):
            r = rng.randint(1, 3)
            a = random_exact_matrix(rng, 5, r, mag=6)
            b = random_exact_matrix(rng, r, 4, mag=6)
            m = a.matmul(b)
            assert exact_rank(m) == sympy_rank(m) <= r

    def test_invariance_under_unimodular_factors(self):
        rng = random.Random(17)
        for _ in range(15):
            m = random_exact_matrix(rng, 4, 5, mag=8)
            u = _random_unimodular(rng, 4)
            v = _random_unimodular(rng, 5)
            assert exact_rank(u.matmul(m)) == exact_rank(m)
            assert exact_rank(m.matmul(v)) == exact_rank(m)

    def test_real_low_rank_against_sympy(self):
        """Real rational matrices take the integer elimination."""
        rng = random.Random(29)
        for _ in range(30):
            r = rng.randint(0, 4)
            n, k = rng.randint(1, 6), rng.randint(1, 6)
            m = random_real_matrix(rng, n, r, mag=9).matmul(random_real_matrix(rng, r, k, mag=9))
            assert exact_rank(m) == sympy_rank(m) <= r

    def test_divisions_are_checked_on_both_rings(self, monkeypatch):
        """One checked exact division per row: it returns exact quotients and
        raises on a remainder, and real and realified Gaussian rows both
        take it."""
        assert _divide_exact([-12, 8, 0], 4) == [-3, 2, 0]
        assert _divide_exact([12, -8], -4) == [-3, 2]
        for values, d in (([7], 2), ([8, 6, -7], 2), ([3, 5], -3)):
            with pytest.raises(ArithmeticError, match="inexact"):
                _divide_exact(values, d)
        divisors = []
        monkeypatch.setattr(
            field, "_divide_exact", lambda v, d: divisors.append(d) or _divide_exact(v, d)
        )
        real = ExactMatrix.from_rows([[es(2), es(1), es(3)], [es(1), es(4), es(1)], [es(5), es(1), es(2)]])
        gaussian = ExactMatrix.from_rows([[es(2, 1), es(1)], [es(1), es(0, 3)]])
        for m in (real, gaussian):
            divisors.clear()
            assert exact_rank(m) == sympy_rank(m)
            assert divisors and 1 not in divisors

    def test_invariance_under_permutation(self):
        rng = random.Random(19)
        m = random_exact_matrix(rng, 4, 4, mag=8)
        rows = [list(m.row(i)) for i in range(4)]
        rng.shuffle(rows)
        assert exact_rank(ExactMatrix.from_rows(rows)) == exact_rank(m)


def _columns(m):
    return [tuple(m.get(i, j) for i in range(m.rows)) for j in range(m.cols)]


def _deficient(rng, make, rows, cols, rank):
    """A seeded matrix of rank at most ``rank`` with a zero column and a
    repeated column inserted at seeded places."""
    columns = _columns(make(rng, rows, rank, mag=7).matmul(make(rng, rank, cols, mag=7)))
    columns.insert(rng.randint(0, len(columns)), (es(0),) * rows)
    columns.insert(rng.randint(0, len(columns)), rng.choice(columns))
    return ExactMatrix.from_rows(zip(*columns))


class TestExactPivots:
    """``field._pivots``, which picks every exact independent subset."""

    @pytest.mark.parametrize("make", [random_real_matrix, random_exact_matrix])
    def test_match_sympy_rref(self, make):
        rng = random.Random(31)
        for _ in range(20):
            n, k = rng.randint(1, 5), rng.randint(1, 5)
            for m in (make(rng, n, k, mag=9), _deficient(rng, make, n, k, rng.randint(0, 3))):
                pivots = pivots_of(m)
                assert pivots == sympy_pivots(m)
                assert len(pivots) == exact_rank(m)

    def test_degenerate_shapes(self):
        assert pivots_of(zeros(0, 3)) == []
        assert pivots_of(zeros(3, 0)) == []
        assert pivots_of(zeros(2, 2)) == []


class TestExactSolve:
    @pytest.mark.parametrize("make", [random_real_matrix, random_exact_matrix])
    def test_matches_sympy(self, make):
        rng = random.Random(37)
        for _ in range(20):
            n = rng.randint(1, 5)
            columns = _columns(make(rng, n, rng.randint(1, n), mag=9))
            x = _columns(make(rng, len(columns), 1, mag=9))[0]
            target = tuple(
                sum((xk * c[i] for xk, c in zip(x, columns)), es(0)) for i in range(n)
            )
            assert exact_solve(columns, target) == sympy_solve(columns, target) == x

    @pytest.mark.parametrize("make", [random_real_matrix, random_exact_matrix])
    def test_raises_on_dependent_columns(self, make):
        rng = random.Random(41)
        for _ in range(10):
            n = rng.randint(2, 5)
            m = _deficient(rng, make, n, rng.randint(1, 3), rng.randint(1, 2))
            columns = _columns(m)
            target = columns[-1]
            assert sympy_solve(columns, target) is None
            with pytest.raises(ArithmeticError, match="dependent"):
                exact_solve(columns, target)

    @pytest.mark.parametrize("make", [random_real_matrix, random_exact_matrix])
    def test_raises_outside_the_span(self, make):
        rng = random.Random(43)
        for _ in range(10):
            n = rng.randint(2, 5)
            # the columns end in 0 and the target in 1
            columns = [c + (es(0),) for c in _columns(make(rng, n - 1, rng.randint(1, n), mag=9))]
            target = _columns(make(rng, n - 1, 1, mag=9))[0] + (es(1),)
            with pytest.raises(ValueError, match="no solution"):
                sympy_solve(columns, target)
            with pytest.raises(ArithmeticError, match="span"):
                exact_solve(columns, target)

    def test_no_columns(self):
        assert exact_solve([], (es(0), es(0))) == ()
        with pytest.raises(ArithmeticError, match="span"):
            exact_solve([], (es(0), es(1)))


def _gaussian_deficient(seed, count):
    """Seeded rank-deficient Gaussian matrices, at least one entry non-real."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n, k = rng.randint(1, 5), rng.randint(1, 5)
        m = _deficient(rng, random_exact_matrix, n, k, rng.randint(1, 4))
        if any(e.im for e in m.entries):
            out.append(m)
    return out


class TestGaussianRealified:
    """A Gaussian matrix is eliminated realified (a + bi as [[a, -b], [b, a]]);
    ranks, pivots and solves are checked against sympy over Q(i)."""

    def test_rank_and_pivots_match_sympy(self):
        for m in _gaussian_deficient(47, 60):
            pivots = pivots_of(m)
            assert pivots == sympy_pivots(m)
            assert exact_rank(m) == sympy_rank(m) == len(pivots) < m.cols

    def test_realified_pivots_come_in_pairs(self):
        for m in _gaussian_deficient(53, 60):
            rows, real = _integer_matrix([_cleared(m.row(i)) for i in range(m.rows)])
            assert not real and (len(rows), len(rows[0])) == (2 * m.rows, 2 * m.cols)
            pivots = _echelon(rows)[1]
            assert pivots[::2] == [2 * p for p in pivots_of(m)]
            assert pivots[1::2] == [p + 1 for p in pivots[::2]]

    def test_i_times_a_column_is_dependent(self):
        """c and i c are independent over R but not over Q(i)."""
        c = (es(1, 2), es(-3), es(0, 1))
        ic = tuple(es(0, 1) * e for e in c)
        m = ExactMatrix.from_rows(zip(c, ic, (es(1), es(0), es(0))))
        assert pivots_of(m) == sympy_pivots(m) == [0, 2]
        assert exact_solve([c], ic) == (es(0, 1),)
        with pytest.raises(ArithmeticError, match="dependent"):
            exact_solve([c, ic], c)
        with pytest.raises(ArithmeticError, match="span"):
            exact_solve([c], (es(1), es(0), es(0)))

    def test_solve_gives_target_back(self):
        rng = random.Random(59)
        for _ in range(30):
            n = rng.randint(1, 5)
            a = random_exact_matrix(rng, n, rng.randint(1, n), mag=9)
            x = random_exact_matrix(rng, a.cols, 1, mag=9)
            target = a.matmul(x)
            solution = exact_solve(_columns(a), target.entries)
            assert solution == x.entries
            assert a.matmul(ExactMatrix(a.cols, 1, solution)) == target


def _assert_primitive_bareiss_rows(rows):
    """``_echelon`` against the Bareiss loop it replaced, on a copy of the
    integer matrix ``rows``: the same pivots; each pivot row, from its pivot
    on, a nonzero rational multiple of the Bareiss row and no larger entry by
    entry; and every rewritten row of content 1.  Rows are eliminated in
    place, so a row whose values differ from its input row was rewritten."""
    ours = [row[:] for row in rows]
    inputs = {id(row): row[:] for row in ours}
    ours, pivots = _echelon(ours)
    reference, reference_pivots = bareiss_echelon([row[:] for row in rows])
    assert pivots == reference_pivots
    for r, p in enumerate(pivots):
        mine, theirs = ours[r][p:], reference[r][p:]
        ratio = Fraction(theirs[0], mine[0])
        assert [ratio * a for a in mine] == theirs
        assert all(abs(a) <= abs(b) for a, b in zip(mine, theirs))
        if ours[r] != inputs[id(ours[r])]:
            assert math.gcd(*mine) == 1
    return pivots


def _planted_theta_rows(rng, g):
    """Theta of a random W of dimension 1..g on a hyperelliptic curve of
    genus g, as integer rows: the W generators, read as polynomials of degree
    below g, share a planted factor of degree 0..g-2 and an integer factor."""
    curve = HyperellipticCurve.from_integers(range(2 * g + 1))
    degree = rng.randint(0, g - 2)
    factor = [rng.randint(-4, 4) for _ in range(degree)] + [rng.choice([-3, -1, 1, 2])]
    generators = []
    for _ in range(rng.randint(1, g)):
        cofactor = [rng.randint(-9, 9) for _ in range(g - degree)]
        product = [0] * g
        for i, a in enumerate(factor):
            for j, b in enumerate(cofactor):
                product[i + j] += a * b
        scale = rng.choice([1, 2, 6])
        generators.append([scale * c for c in product])
    return _placed(curve, generators, 0)


_entry = st.one_of(st.just(0), st.integers(-30, 30))


class TestPrimitiveRowElimination:
    """``_echelon`` rewrites only the rows a pivot reaches, each divided by
    its content; the one-step Bareiss loop is the reference."""

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_dense_integer_matrices(self, data):
        nrows, ncols = data.draw(st.integers(1, 7)), data.draw(st.integers(1, 7))
        rows = [data.draw(st.lists(_entry, min_size=ncols, max_size=ncols)) for _ in range(nrows)]
        if nrows > 2 and data.draw(st.booleans()):  # a planted dependent row
            a, b = data.draw(st.integers(-5, 5)), data.draw(st.integers(-5, 5))
            rows[-1] = [a * x + b * y for x, y in zip(rows[0], rows[1])]
        _assert_primitive_bareiss_rows(rows)

    def test_banded_theta_with_planted_factors(self):
        rng = random.Random(61)
        for g in range(3, 7):
            for _ in range(25):
                rows = _planted_theta_rows(rng, g)
                assert len(_assert_primitive_bareiss_rows(rows)) <= 2 * g - 1

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_realified_gaussian_matrices(self, data):
        nrows, ncols = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 5))
        pairs = [
            tuple(data.draw(st.lists(_entry, min_size=ncols, max_size=ncols)) for _ in range(2))
            for _ in range(nrows)
        ]
        pairs[0][1][0] = data.draw(st.integers(1, 30))  # one entry is not real
        if data.draw(st.booleans()):  # i times the first row: dependent over Q(i) only
            re, im = pairs[0]
            pairs.append(([-b for b in im], list(re)))
        rows, real = _integer_matrix(pairs)
        assert not real
        pivots = _assert_primitive_bareiss_rows(rows)
        assert pivots[1::2] == [p + 1 for p in pivots[::2]]

    def test_zero_lead_row_keeps_its_values(self):
        rows, pivots = _echelon([[2, 1, 3], [0, 5, 1], [4, 1, 2]])
        assert pivots == [0, 1, 2]
        assert rows[1] == [0, 5, 1]  # the Bareiss loop makes it [0, 10, 2]
        assert bareiss_echelon([[2, 1, 3], [0, 5, 1], [4, 1, 2]])[0][1][1:] == [10, 2]


def _random_unimodular(rng, n):
    """Product of random integer elementary matrices (determinant +-1)."""
    m = ExactMatrix.identity(n)
    for _ in range(2 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        e = [[es(1) if r == c else es(0) for c in range(n)] for r in range(n)]
        e[i][j] = es(rng.randint(-3, 3))
        m = m.matmul(ExactMatrix.from_rows(e))
    return m


class TestNumericRank:
    """The oracle's SVD rank: its threshold rule, and agreement with the
    exact rank on float images of exact matrices."""

    def test_identity(self):
        assert svd_rank(ExactMatrix.identity(2).to_numpy(), 1e-10) == 2

    def test_threshold_definition(self):
        assert svd_rank(np.array([[1.0, 0.0], [0.0, 1e-14]]), 1e-10) == 1

    def test_zero_matrix(self):
        assert svd_rank(np.zeros((2, 2)), 1e-10) == 0

    def test_empty(self):
        assert svd_rank(np.zeros((0, 3)), 1e-10) == 0

    def test_known_rank_product(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        b = rng.normal(size=(6, 9)) + 1j * rng.normal(size=(6, 9))
        assert svd_rank(a @ b, 1e-10) == 6

    def test_agrees_with_exact_on_rational_lift(self):
        rng = random.Random(23)
        for _ in range(10):
            r = rng.randint(1, 4)
            a = random_exact_matrix(rng, 6, r, mag=5)
            b = random_exact_matrix(rng, r, 6, mag=5)
            m = a.matmul(b)
            assert svd_rank(m.to_numpy(), 1e-10) == exact_rank(m)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_numeric_matches_exact_rank_property(data):
    """Float image of an exact matrix has the same rank at rel_tol 1e-10."""
    rows = data.draw(st.integers(1, 5))
    cols = data.draw(st.integers(1, 5))
    num = st.integers(-100, 100)
    den = st.integers(1, 100)
    entries = []
    for _ in range(rows * cols):
        entries.append(
            ExactScalar(
                Fraction(data.draw(num), data.draw(den)),
                Fraction(data.draw(num), data.draw(den)),
            )
        )
    m = ExactMatrix(rows, cols, tuple(entries))
    assert svd_rank(m.to_numpy(), 1e-10) == exact_rank(m)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_rank_of_real_matrix_unchanged_by_factor_i(data):
    """i*M has the rank of M; M is eliminated as it is and i*M realified."""
    rows = data.draw(st.integers(1, 6))
    cols = data.draw(st.integers(1, 6))
    rank = data.draw(st.integers(0, min(rows, cols)))
    part = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 12))

    def real_matrix(n, k):
        return ExactMatrix(n, k, tuple(ExactScalar.of(data.draw(part)) for _ in range(n * k)))

    m = real_matrix(rows, rank).matmul(real_matrix(rank, cols))
    im = ExactMatrix(rows, cols, tuple(ExactScalar.of(0, e.re) for e in m.entries))
    assert exact_rank(im) == exact_rank(m) <= rank

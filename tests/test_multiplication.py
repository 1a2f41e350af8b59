import random
from fractions import Fraction
from types import SimpleNamespace

import pytest
import sympy

from diffsys import curves, field, multiplication
from diffsys.curves import HyperellipticCurve, PlaneQuartic, product_slots
from diffsys.field import ExactMatrix, ExactScalar, exact_rank
from diffsys.multiplication import (
    SubspaceSelection,
    criterion_injective,
    exact_row_basis,
    full_subspace,
    lazarsfeld_scan,
    noether_check,
    theta_matrix,
)
from diffsys.systems import DifferentialSystem, builtin_algebra, sample_system

from oracles import evaluation_rank, greedy_row_basis, sympy_rank, theta_columns, theta_products


def es(re, im=0):
    return ExactScalar.of(re, im)


def unit_subspace(curve, indices):
    g = curve.genus
    gens = tuple(
        tuple(es(1) if j == i else es(0) for j in range(g)) for i in indices
    )
    return SubspaceSelection(curve, gens)


class TestThetaMatrix:
    def test_genus2_full_shape_and_rank(self, genus2_curve):
        theta = theta_matrix(genus2_curve, full_subspace(genus2_curve))
        assert (theta.matrix.rows, theta.matrix.cols) == (3, 4)
        assert theta.rank == 3

    def test_genus3_full_rank5(self, genus3_curve):
        theta = theta_matrix(genus3_curve, full_subspace(genus3_curve))
        assert (theta.matrix.rows, theta.matrix.cols) == (6, 9)
        assert theta.rank == 5

    def test_fermat_full_rank6(self, fermat_quartic):
        theta = theta_matrix(fermat_quartic, full_subspace(fermat_quartic))
        assert (theta.matrix.rows, theta.matrix.cols) == (6, 9)
        assert theta.rank == 6

    def test_column_contract(self, genus3_curve):
        """Column (i, j) holds the weight-2 coordinates of basis_i * W_j."""
        w = unit_subspace(genus3_curve, [0, 2])
        theta = theta_matrix(genus3_curve, w)
        expected = theta_columns(genus3_curve, w.generators)
        for i in range(3):
            for j in range(w.dimension):
                col = i * w.dimension + j
                actual = tuple(
                    theta.matrix.get(r, col) for r in range(theta.matrix.rows)
                )
                assert actual == expected[col]

    def test_dependent_generators_rejected(self, genus2_curve):
        with pytest.raises(ValueError):
            SubspaceSelection(
                genus2_curve, ((es(1), es(2)), (es(2), es(4)))
            )

    def test_rank_recomputation_idempotent(self, genus2_curve):
        theta = theta_matrix(genus2_curve, full_subspace(genus2_curve))
        assert exact_rank(theta.matrix) == theta.rank


def gaussian_rational(rng):
    """A random element of Q(i) with a nonzero imaginary part and, mostly, a
    non-integer real part."""
    re = Fraction(rng.randint(-9, 9), rng.randint(2, 7))
    im = Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 5))
    return ExactScalar.of(re, im)


def random_subspace(curve, rng):
    g = curve.genus
    while True:
        gens = tuple(
            tuple(gaussian_rational(rng) for _ in range(g))
            for _ in range(rng.randint(1, g))
        )
        try:
            return SubspaceSelection(curve, gens)
        except ValueError:
            continue


def oracle_mismatches(curve, w):
    """Entries where theta_matrix differs from the oracle's product columns."""
    theta = theta_matrix(curve, w)
    columns = theta_columns(curve, w.generators)
    assert (theta.matrix.rows, theta.matrix.cols) == (3 * curve.genus - 3, len(columns))
    return [
        (r, col)
        for col, expected in enumerate(columns)
        for r in range(theta.matrix.rows)
        if theta.matrix.get(r, col) != expected[r]
    ]


TABLE_CURVES = {
    **{
        f"hyperelliptic-g{g}-{model}": HyperellipticCurve.from_integers(
            [k * k + 1 for k in range(n)]
        )
        for g in range(2, 6)
        for model, n in (("odd", 2 * g + 1), ("even", 2 * g + 2))
    },
    "fermat": PlaneQuartic.fermat(),
    "klein": PlaneQuartic.klein(),
}


class TestProductTable:
    @pytest.mark.parametrize("name", sorted(TABLE_CURVES))
    def test_table_matches_oracle(self, name):
        curve = TABLE_CURVES[name]
        rng = random.Random(name)
        for _ in range(3):
            assert oracle_mismatches(curve, random_subspace(curve, rng)) == []

    @pytest.mark.parametrize("name", ["hyperelliptic-g2-even", "hyperelliptic-g4-odd", "fermat"])
    def test_gaussian_rank_matches_sympy(self, name):
        """Gaussian-rational W: theta is ranked realified, against sympy's
        rank of the same matrix over Q(i)."""
        curve = TABLE_CURVES[name]
        rng = random.Random(f"rank {name}")
        for _ in range(3):
            theta = theta_matrix(curve, random_subspace(curve, rng))
            assert theta.rank == sympy_rank(theta.matrix) == exact_rank(theta.matrix)

    def test_imaginary_generators_rank_like_real_ones(self, genus3_curve, klein_quartic):
        """i W has the rank of W, so the imaginary parts reach the elimination."""
        for curve in (genus3_curve, klein_quartic):
            for indices in ([0], [0, 2], [0, 1, 2]):
                w = unit_subspace(curve, indices)
                iw = SubspaceSelection(curve, tuple(tuple(es(0, 1) * c for c in v) for v in w.generators))
                assert theta_matrix(curve, iw).rank == theta_matrix(curve, w).rank > 0

    @pytest.mark.parametrize("name", ["hyperelliptic-g3-odd", "hyperelliptic-g4-even", "klein"])
    def test_swapped_slots_fail_the_oracle(self, name, monkeypatch):
        """The oracle sees a table with two slots of one row swapped."""
        curve = TABLE_CURVES[name]
        w = random_subspace(curve, random.Random(f"swapped {name}"))
        table = [list(row) for row in product_slots(curve)]
        table[1][0], table[1][2] = table[1][2], table[1][0]
        swapped = tuple(tuple(row) for row in table)
        monkeypatch.setattr(multiplication, "product_slots", lambda c: swapped)
        assert oracle_mismatches(curve, w)

    def test_w_from_another_hyperelliptic_curve_rejected(self):
        source = HyperellipticCurve.from_integers(range(7))
        target = HyperellipticCurve.from_integers([0, 1, 2, 3, 4, 5, 7])
        w = unit_subspace(source, [0, 1, 2])
        with pytest.raises(ValueError, match="different curve"):
            theta_matrix(target, w)

    def test_hyperelliptic_w_on_quartic_rejected(self, fermat_quartic):
        w = unit_subspace(HyperellipticCurve.from_integers(range(7)), [0, 1])
        with pytest.raises(ValueError, match="different curve"):
            theta_matrix(fermat_quartic, w)

    def test_products_formed_once_per_curve(self):
        """Deterministic mechanism count: one table per (model, genus), built
        on first use and shared by every scan, Noether check and criterion."""
        curves._slot_table.cache_clear()
        curve = HyperellipticCurve.from_integers([0, 2, 3, 5, 7, 11, 13, 17, 19])
        lazarsfeld_scan(curve, trials=20, w_dim=3, seed=1)
        assert curves._slot_table.cache_info().misses == 1
        lazarsfeld_scan(curve, trials=20, w_dim=3, seed=2)
        noether_check(HyperellipticCurve.from_integers(range(10)))
        system = sample_system(curve, builtin_algebra("sl2"), seed=3, coefficient_bound=5)
        criterion_injective(curve, system)
        assert curves._slot_table.cache_info().misses == 1


class TestThetaRank:
    """``_theta_rank`` places the imaginary theta only when some generator
    has a nonzero imaginary part."""

    def test_real_generators_place_theta_once(
        self, monkeypatch, genus2_curve, genus3_curve, klein_quartic
    ):
        calls = []
        placed = multiplication._placed
        monkeypatch.setattr(multiplication, "_placed", lambda *a: calls.append(a) or placed(*a))
        system = sample_system(genus2_curve, builtin_algebra("sl2"), seed=4, coefficient_bound=5)
        runs = [lambda: criterion_injective(genus2_curve, system)]
        for curve in (genus3_curve, klein_quartic):
            runs += [
                lambda c=curve: lazarsfeld_scan(c, trials=1, w_dim=2, seed=0),
                lambda c=curve: noether_check(c),
            ]
        for run in runs:
            calls.clear()
            run()
            assert len(calls) == 1

    def test_gaussian_criterion_realifies(self, monkeypatch, genus2_curve):
        """A Gaussian coefficient places both thetas, is ranked realified, and
        its rank matches sympy's rank of the oracle's columns over Q(i)."""
        sl2 = builtin_algebra("sl2")
        realified, placed = [], []
        integer_matrix, place = field._integer_matrix, multiplication._placed

        def counted_integer_matrix(pairs):
            rows, real = integer_matrix(pairs)
            realified.append(not real)
            return rows, real

        monkeypatch.setattr(field, "_integer_matrix", counted_integer_matrix)
        monkeypatch.setattr(multiplication, "_placed", lambda *a: placed.append(a) or place(*a))
        for seed in range(6):
            coeff = sample_system(genus2_curve, sl2, seed=seed, coefficient_bound=5).coefficients
            entries = (coeff.entries[0] + es(0, seed + 1),) + coeff.entries[1:]
            coeff = ExactMatrix(coeff.rows, coeff.cols, entries)
            system = DifferentialSystem(genus2_curve, sl2, coeff)
            realified.clear()
            placed.clear()
            verdict = criterion_injective(genus2_curve, system)
            v = greedy_row_basis(system.coefficients.row(i) for i in range(coeff.rows))
            columns = theta_columns(genus2_curve, v)
            assert verdict.theta_v_rank == sympy_rank(ExactMatrix.from_rows(columns))
            assert realified == [True, True] and len(placed) == 2


class TestProductProperties:
    def test_symmetry(self, genus3_curve, klein_quartic):
        for curve in (genus3_curve, klein_quartic):
            slots = product_slots(curve)
            assert all(slots[i][j] == slots[j][i] for i in range(3) for j in range(3))

    def test_bilinearity(self, genus2_curve):
        """The column of a W generator a*e_0 + b*e_1 is a times the column of
        e_0 plus b times the column of e_1."""
        rng = random.Random(7)
        a, b = es(rng.randint(-9, 9)), es(rng.randint(-9, 9))
        combined = theta_matrix(genus2_curve, SubspaceSelection(genus2_curve, ((a, b),)))
        units = theta_matrix(genus2_curve, unit_subspace(genus2_curve, [0, 1]))
        for i in range(2):
            for r in range(3):
                expected = a * units.matrix.get(r, 2 * i) + b * units.matrix.get(r, 2 * i + 1)
                assert combined.matrix.get(r, i) == expected

    def test_monotonicity_nested_subspaces(self, genus3_curve):
        rng = random.Random(11)
        for _ in range(5):
            v1 = tuple(es(rng.randint(-5, 5)) for _ in range(3))
            v2 = tuple(es(rng.randint(-5, 5)) for _ in range(3))
            try:
                small = SubspaceSelection(genus3_curve, (v1,))
                big = SubspaceSelection(genus3_curve, (v1, v2))
            except ValueError:
                continue
            assert (
                theta_matrix(genus3_curve, small).rank
                <= theta_matrix(genus3_curve, big).rank
            )


class TestNoether:
    def test_genus2_always_surjective(self):
        for pts in ([0, 1, 2, 3, 4], [0, 2, 5, 7, 11], [-3, -1, 0, 2, 6]):
            v = noether_check(HyperellipticCurve.from_integers(pts))
            assert v.surjective and v.corank == 0 and v.rank == 3

    def test_hyperelliptic_dichotomy_g2_to_g6(self):
        for g in range(2, 7):
            curve = HyperellipticCurve.from_integers(range(2 * g + 1))
            v = noether_check(curve)
            assert v.rank == 2 * g - 1
            assert v.surjective == (g == 2)
            assert v.corank == g - 2 if g > 2 else v.corank == 0

    def test_g4_example(self):
        v = noether_check(HyperellipticCurve.from_integers(range(9)))
        assert not v.surjective and v.rank == 7 and v.corank == 2

    def test_quartics_surjective(self, fermat_quartic, klein_quartic):
        assert noether_check(fermat_quartic).surjective
        assert noether_check(klein_quartic).surjective

    def test_one_elimination_per_check(self, monkeypatch, fermat_quartic, klein_quartic):
        """Theta is built from the unit generators directly: the g x g identity
        is not eliminated to check that they are independent."""
        calls = []
        echelon = field._echelon
        monkeypatch.setattr(field, "_echelon", lambda m: calls.append(m) or echelon(m))
        hyperelliptic = [HyperellipticCurve.from_integers(range(2 * g + 1)) for g in range(2, 7)]
        for curve in hyperelliptic + [fermat_quartic, klein_quartic]:
            calls.clear()
            noether_check(curve)
            assert len(calls) == 1

    def test_even_degree_model_rank_checks(self):
        """Even-degree hyperelliptic models are supported for rank checks."""
        g2even = HyperellipticCurve.from_integers([0, 1, 2, 3, 4, 5])
        v = noether_check(g2even)
        assert v.surjective and v.rank == 3
        g3even = HyperellipticCurve.from_integers(range(8))
        v = noether_check(g3even)
        assert not v.surjective and v.rank == 5


class TestEvaluationOracle:
    """Exact ranks agree with the sampling-interpolation numeric oracle."""

    def test_full_domain_g2_g3(self, genus2_curve, genus3_curve):
        for curve in (genus2_curve, genus3_curve):
            w = full_subspace(curve)
            theta = theta_matrix(curve, w)
            prods = theta_products(curve, w.generators)
            assert evaluation_rank(curve, prods) == theta.rank

    def test_full_domain_quartics(self, fermat_quartic, klein_quartic):
        for curve in (fermat_quartic, klein_quartic):
            w = full_subspace(curve)
            theta = theta_matrix(curve, w)
            prods = theta_products(curve, w.generators)
            assert evaluation_rank(curve, prods) == theta.rank

    def test_random_subspaces(self, genus3_curve):
        rng = random.Random(13)
        for trial in range(5):
            gens = tuple(
                tuple(es(rng.randint(-5, 5)) for _ in range(3)) for _ in range(2)
            )
            try:
                w = SubspaceSelection(genus3_curve, gens)
            except ValueError:
                continue
            theta = theta_matrix(genus3_curve, w)
            prods = theta_products(genus3_curve, w.generators)
            assert evaluation_rank(genus3_curve, prods, seed=trial) == theta.rank


class TestLazarsfeldScan:
    def test_quartic_all_succeed(self, fermat_quartic):
        report = lazarsfeld_scan(fermat_quartic, trials=20, w_dim=3, seed=5)
        assert report.successes == 20 and not report.failure_witnesses

    def test_hyperelliptic_g3_never(self, genus3_curve):
        report = lazarsfeld_scan(genus3_curve, trials=20, w_dim=3, seed=5)
        assert report.successes == 0
        assert len(report.failure_witnesses) == 20

    def test_w_dim_1_never_surjective(self, genus2_curve):
        report = lazarsfeld_scan(genus2_curve, trials=10, w_dim=1, seed=3)
        assert report.successes == 0

    def test_w_dim_validation(self, genus2_curve):
        with pytest.raises(ValueError):
            lazarsfeld_scan(genus2_curve, trials=5, w_dim=3, seed=0)

    def test_determinism(self, genus3_curve):
        a = lazarsfeld_scan(genus3_curve, trials=8, w_dim=3, seed=42)
        b = lazarsfeld_scan(genus3_curve, trials=8, w_dim=3, seed=42)
        assert a.failure_witnesses == b.failure_witnesses

    def test_failure_witness_replays(self, genus3_curve):
        report = lazarsfeld_scan(genus3_curve, trials=3, w_dim=3, seed=9)
        for _, gens in report.failure_witnesses:
            w = SubspaceSelection(
                genus3_curve, tuple(tuple(es(v) for v in row) for row in gens)
            )
            assert theta_matrix(genus3_curve, w).rank < 6

    def test_integers_end_to_end(self, monkeypatch):
        """A trial builds no exact scalar and clears nothing.  It runs one
        elimination per draw (independence) and one per trial (theta); the
        draws are replayed from the trial seeds with sympy's rank."""
        curve = HyperellipticCurve.from_integers(range(11))
        trials, draws = 20, 0
        for t in range(trials):
            rng = random.Random(f"0:{t}")
            while True:
                draws += 1
                rows = [[rng.randint(-10, 10) for _ in range(5)] for _ in range(3)]
                if sympy.Matrix(rows).rank() == 3:
                    break
        calls = {"_cleared": 0, "of": 0, "_echelon": 0}

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)

            return wrapper

        for name in ("_cleared", "_echelon"):
            monkeypatch.setattr(field, name, counted(name, getattr(field, name)))
        monkeypatch.setattr(field.ExactScalar, "of", staticmethod(counted("of", field.ExactScalar.of)))
        lazarsfeld_scan(curve, trials=trials, w_dim=3, seed=0)
        assert calls == {"_cleared": 0, "of": 0, "_echelon": draws + trials}


class PlantedRng:
    """Stands in for ``random.Random``: whatever the seed, ``randint`` hands
    out the planted coordinates in order."""

    def __init__(self, values):
        self.values = iter(values)

    def randint(self, lo, hi):
        value = next(self.values)
        assert lo <= value <= hi
        return value


class TestScanDraws:
    """The draw of a scan trial, with planted coordinates: a dependent draw
    is drawn again, up to 200 draws."""

    def scan(self, monkeypatch, curve, rng):
        monkeypatch.setattr(multiplication, "random", SimpleNamespace(Random=lambda seed: rng))
        return lazarsfeld_scan(curve, trials=1, w_dim=2, seed=0, store_all=True)

    def test_dependent_draw_is_drawn_again(self, monkeypatch, genus3_curve):
        dependent = [1, -2, 3, 2, -4, 6]  # row 2 is 2 x row 1
        independent = [1, -2, 3, 0, 5, -7]
        rng = PlantedRng(dependent + independent)
        report = self.scan(monkeypatch, genus3_curve, rng)
        assert report.all_witnesses[0][1] == ((1, -2, 3), (0, 5, -7))
        assert next(rng.values, None) is None  # exactly two draws

    def test_two_hundred_dependent_draws_raise(self, monkeypatch, genus3_curve):
        rng = PlantedRng([1, -2, 3, 2, -4, 6] * 200)
        with pytest.raises(RuntimeError, match="^failed to draw an independent random subspace$"):
            self.scan(monkeypatch, genus3_curve, rng)
        assert next(rng.values, None) is None  # all 200 draws, and a 201st would not raise this


class TestCriterion:
    def test_full_span_holds_g2(self, genus2_curve):
        sl2 = builtin_algebra("sl2")
        system = sample_system(genus2_curve, sl2, seed=4, coefficient_bound=5)
        from diffsys.systems import dyad_detect

        if dyad_detect(system).rank_of_coefficients >= 2:
            assert criterion_injective(genus2_curve, system).holds

    def test_dyad_fails(self, genus2_curve):
        sl2 = builtin_algebra("sl2")
        coeff = ExactMatrix.from_rows(
            [[es(2), es(4)], [es(1), es(2)], [es(3), es(6)]]
        )  # rank 1: B (x) omega shape
        system = DifferentialSystem(genus2_curve, sl2, coeff)
        v = criterion_injective(genus2_curve, system)
        assert not v.holds and v.v_dimension == 1

    def test_zero_system(self, genus2_curve):
        sl2 = builtin_algebra("sl2")
        system = DifferentialSystem(genus2_curve, sl2, ExactMatrix.from_rows([[es(0)] * 2] * 3))
        v = criterion_injective(genus2_curve, system)
        assert not v.holds and v.v_dimension == 0 and v.theta_v_rank == 0

    def test_g3_always_fails(self, genus3_curve):
        sl2 = builtin_algebra("sl2")
        for seed in range(5):
            system = sample_system(genus3_curve, sl2, seed=seed, coefficient_bound=5)
            v = criterion_injective(genus3_curve, system)
            assert not v.holds
            assert v.theta_v_rank <= 5

    def test_v_dimension_equals_row_rank(self, genus2_curve):
        sl2 = builtin_algebra("sl2")
        for seed in range(5):
            system = sample_system(genus2_curve, sl2, seed=seed, coefficient_bound=4)
            v = criterion_injective(genus2_curve, system)
            assert v.v_dimension == min(exact_rank(system.coefficients), 2)

    def test_one_elimination_of_v(self, genus2_curve, monkeypatch):
        """One elimination picks V's rows and one ranks theta: the chosen rows
        are not eliminated again to check their independence."""
        system = sample_system(genus2_curve, builtin_algebra("sl2"), seed=4, coefficient_bound=5)
        calls = []
        echelon = field._echelon
        monkeypatch.setattr(field, "_echelon", lambda m: calls.append(m) or echelon(m))
        verdict = criterion_injective(genus2_curve, system)
        assert verdict.v_dimension == 2 and len(calls) == 2

    def test_wrong_curve_rejected(self, genus2_curve, genus3_curve):
        sl2 = builtin_algebra("sl2")
        system = sample_system(genus2_curve, sl2, seed=0, coefficient_bound=2)
        with pytest.raises(ValueError):
            criterion_injective(genus3_curve, system)


class TestExactRowBasis:
    def test_picks_independent_subset(self):
        rows = [
            (es(1), es(0)),
            (es(2), es(0)),
            (es(0), es(1)),
        ]
        basis = exact_row_basis(rows)
        assert len(basis) == 2

    def test_skips_zero_rows(self):
        rows = [(es(0), es(0)), (es(1), es(1))]
        assert len(exact_row_basis(rows)) == 1

    @pytest.mark.parametrize("gaussian", [False, True])
    def test_matches_greedy_oracle(self, gaussian):
        """The first independent subset, in order, on seeded vectors among
        which are zero vectors, repeats and combinations of earlier ones."""
        rng = random.Random(47)

        def scalar(bound):
            return es(rng.randint(-bound, bound), rng.randint(-bound, bound) if gaussian else 0)

        for _ in range(25):
            g = rng.randint(1, 5)
            vectors = []
            for _ in range(rng.randint(1, 7)):
                kind = rng.randrange(4) if vectors else 0
                if kind == 0:
                    v = tuple(scalar(3) for _ in range(g))
                elif kind == 1:
                    v = (es(0),) * g
                elif kind == 2:
                    v = rng.choice(vectors)
                else:
                    a, b, c = rng.choice(vectors), rng.choice(vectors), scalar(2)
                    v = tuple(x + c * y for x, y in zip(a, b))
                vectors.append(v)
            assert exact_row_basis(vectors) == greedy_row_basis(vectors)

import itertools
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from diffsys import systems
from diffsys.field import ExactMatrix, ExactScalar
from diffsys.systems import (
    DifferentialSystem,
    LieAlgebraData,
    builtin_algebra,
    coefficient_matrices,
    conjugate_system,
    dimension_report,
    dyad_detect,
    sample_system,
    scale_system,
    system_from_json,
    system_to_json,
)
from oracles import jacobi_violations


def es(re, im=0):
    return ExactScalar.of(re, im)


def exact_table(table):
    return [[[es(c) for c in row] for row in plane] for plane in table]


def table_of(n, brackets):
    """The integer table of the brackets {(i, j): {k: c}} with i < j, made
    antisymmetric."""
    table = [[[0] * n for _ in range(n)] for _ in range(n)]
    for (i, j), terms in brackets.items():
        for k, c in terms.items():
            table[i][j][k], table[j][i][k] = c, -c
    return table


class TestBuiltinAlgebras:
    def test_sl2_dimensions(self):
        sl2 = builtin_algebra("sl2")
        assert sl2.dimension == 3
        assert sl2.commutator_dimension == 3
        assert sl2.center_dimension == 0

    def test_gl2_dimensions(self):
        gl2 = builtin_algebra("gl2")
        assert (gl2.dimension, gl2.commutator_dimension, gl2.center_dimension) == (4, 3, 1)

    def test_sl3_dimensions(self):
        sl3 = builtin_algebra("sl3")
        assert (sl3.dimension, sl3.commutator_dimension, sl3.center_dimension) == (8, 8, 0)

    def test_sl2_table_values(self):
        sl2 = builtin_algebra("sl2")
        # basis order (H, E, F): [H,E] = 2E, [H,F] = -2F, [E,F] = H
        table = sl2.structure_constants
        assert table[0][1] == (es(0), es(2), es(0))
        assert table[0][2] == (es(0), es(0), es(-2))
        assert table[1][2] == (es(1), es(0), es(0))

    def test_bad_table_rejected(self):
        # violate antisymmetry
        z = es(0)
        table = [[[z, z], [es(1), z]], [[es(1), z], [z, z]]]
        with pytest.raises(ValueError):
            LieAlgebraData.from_structure_constants("bad", table)

    @pytest.mark.parametrize(
        "shape, message",
        [
            ((2, 2, 1), "row 0,0 has 1 entries, not 2"),
            ((2, 2, 3), "row 0,0 has 3 entries, not 2"),
            ((3, 2, 2), "plane 0 has 2 rows, not 3"),
        ],
        ids=["short-rows", "long-rows", "extra-plane"],
    )
    def test_table_not_n_by_n_by_n_rejected(self, shape, message):
        """A table of the wrong shape is refused, naming the first plane or
        row whose length is wrong, before antisymmetry or Jacobi reads it;
        the long rows carry [e0, e0] = e2, which those checks never read."""
        planes, rows, entries = shape
        table = [[[es(0)] * entries for _ in range(rows)] for _ in range(planes)]
        if entries == 3:
            table[0][0][2] = es(1)
        with pytest.raises(ValueError, match=f"structure constants: {message}"):
            LieAlgebraData.from_structure_constants("t", table)

    def test_jacobi_violation_rejected(self):
        z, one = es(0), es(1)
        # "[e1,e2] = e1" on a 2-dim algebra is fine (affine algebra) -- so
        # corrupt a copy of sl2 instead
        sl2 = builtin_algebra("sl2")
        table = [
            [[c for c in row] for row in plane] for plane in sl2.structure_constants
        ]
        table[0][1][1] = es(3)  # break [H,E]
        table[1][0][1] = es(-3)
        with pytest.raises(ValueError):
            LieAlgebraData.from_structure_constants("corrupt", table)

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            builtin_algebra("e8")


class TestJacobiCheck:
    """from_structure_constants checks Jacobi once per triple i < j < k; the
    oracle checks every index tuple.  They must refuse the same tables."""

    @staticmethod
    def refused(table):
        try:
            LieAlgebraData.from_structure_constants("t", exact_table(table))
        except ValueError as err:
            assert "Jacobi" in str(err)
            return True
        return False

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_random_antisymmetric_tables(self, data):
        """Tables of dimension 2..5 (Jacobi always holds for n = 2), each
        entry drawn from 1, -1, 2 and 2, 8 or 32 zeros, so that sparse
        tables, which often pass, are drawn too."""
        n = data.draw(st.integers(2, 5))
        entry = st.sampled_from((0,) * data.draw(st.sampled_from((2, 8, 32))) + (1, -1, 2))
        brackets = {
            pair: {k: data.draw(entry) for k in range(n)}
            for pair in itertools.combinations(range(n), 2)
        }
        table = table_of(n, brackets)
        assert self.refused(table) == (next(jacobi_violations(table), None) is not None)

    @pytest.mark.parametrize("name", ["sl2", "gl2", "sl3"])
    def test_one_planted_corruption_per_entry(self, name):
        """Each built-in table with c[i][j][k] raised by one (and c[j][i][k]
        lowered, so it stays antisymmetric), for every i < j and k."""
        lie = builtin_algebra(name)
        assert all(c.im == 0 and c.re.denominator == 1
                   for plane in lie.structure_constants for row in plane for c in row)
        clean = [[[int(c.re) for c in row] for row in plane] for plane in lie.structure_constants]
        assert next(jacobi_violations(clean), None) is None and not self.refused(clean)
        n, verdicts = lie.dimension, set()
        for (i, j), k in itertools.product(itertools.combinations(range(n), 2), range(n)):
            table = [[list(row) for row in plane] for plane in clean]
            table[i][j][k] += 1
            table[j][i][k] -= 1
            verdict = self.refused(table)
            assert verdict == (next(jacobi_violations(table), None) is not None), (i, j, k)
            verdicts.add(verdict)
        assert True in verdicts


class TestCenter:
    """c is the dimension of the center, the kernel of ad, so it is right off
    reductive tables too; the dimension formulas refuse a table that is not
    its center plus its derived algebra (d + c != dim)."""

    @pytest.mark.parametrize(
        "n, brackets, d, c, reductive",
        [
            (3, {(0, 1): {2: 1}}, 1, 1, False),  # Heisenberg: [x, y] = z
            (2, {(0, 1): {1: 1}}, 1, 0, False),  # [x, y] = y
            (3, {}, 0, 3, True),  # abelian C^3
        ],
        ids=["heisenberg", "affine", "abelian"],
    )
    def test_center_and_dimension_report(self, n, brackets, d, c, reductive):
        lie = LieAlgebraData.from_structure_constants("t", exact_table(table_of(n, brackets)))
        assert (lie.dimension, lie.commutator_dimension, lie.center_dimension) == (n, d, c)
        if reductive:
            r = dimension_report(2, lie)
            assert (r.d, r.c, r.dim_character_variety) == (d, c, 2 * d + 4 * c)
        else:
            with pytest.raises(ValueError, match="center plus its derived algebra"):
                dimension_report(2, lie)


class TestDyadDetect:
    def test_dyad(self, genus2_curve):
        sl2 = builtin_algebra("sl2")
        coeff = ExactMatrix.from_rows([[es(2), es(6)], [es(1), es(3)], [es(-1), es(-3)]])
        v = dyad_detect(DifferentialSystem(genus2_curve, sl2, coeff))
        assert v.is_dyad and v.rank_of_coefficients == 1

    def test_zero_is_dyad(self, genus2_curve):
        sl2 = builtin_algebra("sl2")
        v = dyad_detect(DifferentialSystem(genus2_curve, sl2, ExactMatrix.from_rows([[es(0)] * 2] * 3)))
        assert v.is_dyad and v.rank_of_coefficients == 0

    def test_rank2_not_dyad(self, genus2_curve):
        sl2 = builtin_algebra("sl2")
        coeff = ExactMatrix.from_rows([[es(1), es(0)], [es(0), es(1)], [es(0), es(0)]])
        v = dyad_detect(DifferentialSystem(genus2_curve, sl2, coeff))
        assert not v.is_dyad and v.rank_of_coefficients == 2


class TestDimensionReport:
    def test_g2_sl2(self):
        r = dimension_report(2, builtin_algebra("sl2"))
        assert r.dim_character_variety == 6 and r.dim_syst == 6

    def test_g3_sl2_is_6g_minus_6(self):
        r = dimension_report(3, builtin_algebra("sl2"))
        assert r.dim_character_variety == 12 == 6 * 3 - 6
        assert r.dim_syst == 12

    def test_g2_gl2(self):
        r = dimension_report(2, builtin_algebra("gl2"))
        assert r.dim_character_variety == 10 and r.dim_syst == 8

    def test_identity_all_genera_all_algebras(self):
        for g in range(2, 11):
            for name in ("sl2", "gl2", "sl3"):
                lie = builtin_algebra(name)
                r = dimension_report(g, lie)
                assert (
                    r.dim_syst
                    == (3 * g - 3) + g * lie.dimension - lie.commutator_dimension
                )

    def test_genus_validation(self):
        with pytest.raises(ValueError):
            dimension_report(1, builtin_algebra("sl2"))


class TestSampling:
    def test_determinism(self, genus2_curve):
        sl2 = builtin_algebra("sl2")
        a = sample_system(genus2_curve, sl2, seed=5, coefficient_bound=5)
        b = sample_system(genus2_curve, sl2, seed=5, coefficient_bound=5)
        assert a.coefficients == b.coefficients

    def test_zero_bound(self, genus2_curve):
        sl2 = builtin_algebra("sl2")
        s = sample_system(genus2_curve, sl2, seed=1, coefficient_bound=0)
        assert all(e.is_zero() for e in s.coefficients.entries)

    def test_distinct_seeds_differ(self, genus2_curve):
        sl2 = builtin_algebra("sl2")
        collisions = 0
        for s in range(100):
            a = sample_system(genus2_curve, sl2, seed=s, coefficient_bound=5)
            b = sample_system(genus2_curve, sl2, seed=s + 1000, coefficient_bound=5)
            if a.coefficients == b.coefficients:
                collisions += 1
        assert collisions <= 1

    def test_bound_respected(self, genus3_curve):
        sl2 = builtin_algebra("sl2")
        s = sample_system(genus3_curve, sl2, seed=8, coefficient_bound=3)
        for e in s.coefficients.entries:
            assert abs(e.re) <= 3 and e.im == 0
            assert e.re.denominator == 1

    def test_scale(self, genus2_curve):
        sl2 = builtin_algebra("sl2")
        s = sample_system(genus2_curve, sl2, seed=8, coefficient_bound=5)
        t = scale_system(s, es(Fraction(1, 8)))
        for a, b in zip(s.coefficients.entries, t.coefficients.entries):
            assert b == a * es(Fraction(1, 8))

    def test_shape_validation(self, genus2_curve):
        sl2 = builtin_algebra("sl2")
        with pytest.raises(ValueError):
            DifferentialSystem(genus2_curve, sl2, ExactMatrix.from_rows([[es(0)] * 3] * 3))


class TestSystemSerialization:
    def test_roundtrip_builtin(self, genus2_curve):
        sl2 = builtin_algebra("sl2")
        s = sample_system(genus2_curve, sl2, seed=6, coefficient_bound=5)
        data = json.loads(json.dumps(system_to_json(s)))
        t = system_from_json(data)
        assert t.coefficients == s.coefficients
        assert t.curve == s.curve
        assert t.lie.name == "sl2"

    def test_roundtrip_custom_table(self, genus2_curve):
        sl2 = builtin_algebra("sl2")
        custom = LieAlgebraData.from_structure_constants(
            "my_sl2", [[list(r) for r in p] for p in sl2.structure_constants]
        )
        s = DifferentialSystem(genus2_curve, custom, ExactMatrix.from_rows([[es(0)] * 2] * 3))
        data = json.loads(json.dumps(system_to_json(s)))
        t = system_from_json(data)
        assert t.lie.name == "my_sl2"
        assert t.lie.structure_constants == sl2.structure_constants

    def test_roundtrip_user_table_named_like_a_builtin(self, genus2_curve):
        """A table named "sl2" with other structure constants is written in
        full, so it does not read back as the built-in."""
        sl2 = builtin_algebra("sl2")
        doubled = [[[c * es(2) for c in r] for r in p] for p in sl2.structure_constants]
        custom = LieAlgebraData.from_structure_constants("sl2", doubled)
        s = DifferentialSystem(genus2_curve, custom, ExactMatrix.from_rows([[es(0)] * 2] * 3))
        t = system_from_json(json.loads(json.dumps(system_to_json(s))))
        assert t.lie.name == "sl2"
        assert t.lie.structure_constants == custom.structure_constants != sl2.structure_constants
        assert sl2.to_json() == "sl2"

    def test_to_json_independent_of_the_builtin_cache(self, monkeypatch):
        """A table under a built-in's name with its constants is written as
        the name whether or not the built-in was built before."""
        lie = LieAlgebraData.from_structure_constants("sl2", builtin_algebra("sl2").structure_constants)
        warm = json.dumps(lie.to_json())
        monkeypatch.setattr(systems, "_BUILTIN_CACHE", {})
        assert json.dumps(lie.to_json()) == warm == '"sl2"'


class TestCoefficientMatrices:
    def test_sl2_layout(self, genus2_curve):
        system = sample_system(genus2_curve, builtin_algebra("sl2"), seed=5, coefficient_bound=4)
        mats = coefficient_matrices(system)
        assert len(mats) == genus2_curve.genus
        for c, m in enumerate(mats):
            h, e, f = (system.coefficients.get(j, c) for j in range(3))
            assert m == ExactMatrix.from_rows([[h, e], [f, -h]])

    @pytest.mark.parametrize("name", ["gl2", "sl3"])
    def test_sum_over_representation(self, genus3_curve, name):
        lie = builtin_algebra(name)
        system = sample_system(genus3_curve, lie, seed=6, coefficient_bound=4)
        n = lie.rep_matrices[0].rows
        mats = coefficient_matrices(system)
        assert len(mats) == genus3_curve.genus
        for c, m in enumerate(mats):
            expected = [
                [
                    sum(
                        (system.coefficients.get(j, c) * rho.get(a, b)
                         for j, rho in enumerate(lie.rep_matrices)),
                        es(0),
                    )
                    for b in range(n)
                ]
                for a in range(n)
            ]
            assert m == ExactMatrix.from_rows(expected)

    def test_algebra_without_representation_rejected(self, genus2_curve):
        sl2 = builtin_algebra("sl2")
        bare = LieAlgebraData.from_structure_constants("bare", sl2.structure_constants)
        coeff = sample_system(genus2_curve, sl2, seed=1, coefficient_bound=2).coefficients
        with pytest.raises(ValueError, match="defining representation"):
            coefficient_matrices(DifferentialSystem(genus2_curve, bare, coeff))


class TestConjugateSystem:
    @pytest.mark.parametrize("name", ["sl2", "gl2", "sl3"])
    def test_unimodular_gauge_round_trip(self, genus3_curve, name):
        """Conjugation by a unimodular S gives S M S^-1 for every
        coefficient matrix M, and conjugation by S^-1 returns the system."""
        s, s_inv = {
            2: ([[2, 1], [1, 1]], [[1, -1], [-1, 2]]),
            3: ([[1, 2, 3], [0, 1, 4], [5, 6, 0]], [[-24, 18, 5], [20, -15, -4], [-5, 4, 1]]),
        }[builtin_algebra(name).rep_matrices[0].rows]
        s, s_inv = (ExactMatrix.from_rows([[es(v) for v in row] for row in m]) for m in (s, s_inv))
        assert s.matmul(s_inv) == ExactMatrix.identity(s.rows)
        system = sample_system(genus3_curve, builtin_algebra(name), seed=3, coefficient_bound=4)
        there = conjugate_system(system, s)
        for m, m_there in zip(coefficient_matrices(system), coefficient_matrices(there)):
            assert m_there == s.matmul(m).matmul(s_inv)
        assert there != system
        assert conjugate_system(there, s_inv) == system

    def test_singular_3x3_gauge_rejected(self, genus2_curve):
        system = sample_system(genus2_curve, builtin_algebra("sl3"), seed=2, coefficient_bound=3)
        singular = ExactMatrix.from_rows(
            [[es(1), es(0), es(0)], [es(0), es(1), es(0)], [es(1), es(1), es(0)]]
        )
        with pytest.raises(ValueError, match="singular"):
            conjugate_system(system, singular)

    def test_gl2_identity_gauge(self, genus2_curve):
        gl2 = builtin_algebra("gl2")
        system = sample_system(genus2_curve, gl2, seed=4, coefficient_bound=3)
        assert conjugate_system(system, ExactMatrix.identity(2)) == system

    def test_singular_2x2_gauge_rejected(self, genus2_curve):
        sl2 = builtin_algebra("sl2")
        system = sample_system(genus2_curve, sl2, seed=4, coefficient_bound=3)
        singular = ExactMatrix.from_rows([[es(1), es(2)], [es(2), es(4)]])
        with pytest.raises(ValueError, match="singular"):
            conjugate_system(system, singular)

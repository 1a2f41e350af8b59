import json
from fractions import Fraction

import pytest

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


def es(re, im=0):
    return ExactScalar.of(re, im)


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
        he = sl2.bracket((es(1), es(0), es(0)), (es(0), es(1), es(0)))
        assert he == (es(0), es(2), es(0))
        hf = sl2.bracket((es(1), es(0), es(0)), (es(0), es(0), es(1)))
        assert hf == (es(0), es(0), es(-2))
        ef = sl2.bracket((es(0), es(1), es(0)), (es(0), es(0), es(1)))
        assert ef == (es(1), es(0), es(0))

    def test_bad_table_rejected(self):
        # violate antisymmetry
        z = es(0)
        table = [[[z, z], [es(1), z]], [[es(1), z], [z, z]]]
        with pytest.raises(ValueError):
            LieAlgebraData.from_structure_constants("bad", table)

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
    def test_sl3_rejected_with_clear_error(self, genus2_curve):
        """Conjugation is written for 2x2 representations; sl3 must be refused
        up front, for an invertible and for a singular 3x3 gauge matrix."""
        sl3 = builtin_algebra("sl3")
        system = sample_system(genus2_curve, sl3, seed=2, coefficient_bound=3)
        identity = ExactMatrix.identity(3)
        singular = ExactMatrix.from_rows(
            [[es(1), es(0), es(0)], [es(0), es(1), es(0)], [es(1), es(1), es(0)]]
        )
        for gauge in (identity, singular):
            with pytest.raises(ValueError, match="2x2 defining representations only"):
                conjugate_system(system, gauge)

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

import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from diffsys.curves import (
    CurveError,
    Differential,
    DifferentialBasis,
    HyperellipticCurve,
    MembershipError,
    PlaneQuartic,
    canonical_basis,
    combine,
    curve_from_json,
    curve_to_json,
    express_in_basis,
    multiply,
    quadratic_basis,
)
from diffsys.field import ExactMatrix, ExactScalar, exact_rank

from oracles import hyperelliptic_vanishing_order


def es(re, im=0):
    return ExactScalar.of(re, im)


class TestCurveConstruction:
    def test_genus_odd_model(self):
        assert HyperellipticCurve.from_integers([0, 1, 2, 3, 4]).genus == 2
        assert HyperellipticCurve.from_integers(range(7)).genus == 3
        assert HyperellipticCurve.from_integers(range(13)).genus == 6

    def test_genus_even_model(self):
        c = HyperellipticCurve.from_integers([0, 1, 2, 3, 4, 5])
        assert c.genus == 2 and not c.odd_model

    def test_coincident_branch_points_rejected(self):
        with pytest.raises(CurveError):
            HyperellipticCurve.from_integers([0, 1, 2, 3, 0])

    def test_too_few_points_rejected(self):
        with pytest.raises(CurveError):
            HyperellipticCurve.from_integers([0, 1, 2])

    def test_user_quartic_needs_assertion(self):
        form = {(4, 0, 0): es(1), (0, 4, 0): es(1), (0, 0, 4): es(1), (1, 1, 2): es(3)}
        with pytest.raises(CurveError):
            PlaneQuartic.from_form(form)
        q = PlaneQuartic.from_form(form, smoothness_asserted=True)
        assert q.genus == 3

    def test_flag_echoed_in_serialization(self):
        form = {(4, 0, 0): es(1), (0, 4, 0): es(1), (0, 0, 4): es(1)}
        q = PlaneQuartic.from_form(form, smoothness_asserted=True)
        assert curve_to_json(q)["smoothness_asserted"] is True


class TestCanonicalBasis:
    def test_genus2_elements(self, genus2_curve):
        basis = canonical_basis(genus2_curve)
        assert len(basis) == 2
        assert [el.numerator for el in basis.elements] == [(es(1),), (es(0), es(1))]
        assert all(el.denom_class == "y" for el in basis.elements)

    def test_counts_match_genus(self, genus3_curve, fermat_quartic):
        assert len(canonical_basis(genus3_curve)) == 3
        assert len(canonical_basis(fermat_quartic)) == 3

    def test_holomorphy_by_valuation_oracle_g2(self, genus2_curve):
        basis = canonical_basis(genus2_curve)
        for el in basis.elements:
            for lam in genus2_curve.branch_points:
                assert (
                    hyperelliptic_vanishing_order(genus2_curve, el.numerator, "y", 1, lam)
                    >= 0
                )
            assert (
                hyperelliptic_vanishing_order(
                    genus2_curve, el.numerator, "y", 1, "infinity"
                )
                >= 0
            )

    def test_holomorphy_by_valuation_oracle_g3(self, genus3_curve):
        basis = canonical_basis(genus3_curve)
        for el in basis.elements:
            for place in list(genus3_curve.branch_points) + ["infinity"]:
                assert (
                    hyperelliptic_vanishing_order(genus3_curve, el.numerator, "y", 1, place)
                    >= 0
                )

    def test_next_power_not_holomorphic(self, genus2_curve):
        # x^g dx/y has a pole at infinity: the basis boundary is sharp
        bad = (es(0), es(0), es(1))
        assert (
            hyperelliptic_vanishing_order(genus2_curve, bad, "y", 1, "infinity") < 0
        )


class TestQuadraticBasis:
    def test_genus2_all_y2(self, genus2_curve):
        basis = quadratic_basis(genus2_curve)
        assert len(basis) == 3
        assert all(el.denom_class == "y2" for el in basis.elements)

    def test_genus3_split(self, genus3_curve):
        basis = quadratic_basis(genus3_curve)
        assert len(basis) == 6
        classes = [el.denom_class for el in basis.elements]
        assert classes == ["y2"] * 5 + ["y"]

    def test_quartic_count(self, fermat_quartic):
        assert len(quadratic_basis(fermat_quartic)) == 6

    def test_holomorphy_by_valuation_oracle(self, genus3_curve):
        basis = quadratic_basis(genus3_curve)
        for el in basis.elements:
            for place in list(genus3_curve.branch_points) + ["infinity"]:
                order = hyperelliptic_vanishing_order(
                    genus3_curve, el.numerator, el.denom_class, 2, place
                )
                assert order >= 0

    def test_dimension_counts_g2_to_g6(self):
        for g in range(2, 7):
            curve = HyperellipticCurve.from_integers(range(2 * g + 1))
            assert len(canonical_basis(curve)) == g
            assert len(quadratic_basis(curve)) == 3 * g - 3

    def test_exact_independence(self, genus3_curve):
        basis = quadratic_basis(genus3_curve)
        from diffsys.curves import _element_coordinates

        mat = ExactMatrix.from_rows(
            [_element_coordinates(el, genus3_curve) for el in basis.elements]
        )
        assert exact_rank(mat) == len(basis)

    def test_built_once_per_curve(self, genus3_curve, fermat_quartic):
        for curve in (genus3_curve, fermat_quartic):
            assert quadratic_basis(curve) is quadratic_basis(curve)
        equal = HyperellipticCurve(tuple(genus3_curve.branch_points))
        assert quadratic_basis(equal) is quadratic_basis(genus3_curve)

    def test_memo_is_bounded(self):
        from diffsys.curves import _BASES, _BASES_MAX

        for k in range(_BASES_MAX + 5):
            quadratic_basis(HyperellipticCurve.from_integers([0, 1, 2, 3, 5 + k]))
        assert len(_BASES) == _BASES_MAX

    def test_dependent_basis_rejected(self, genus3_curve):
        els = list(quadratic_basis(genus3_curve).elements)
        els[-1] = Differential(els[0].numerator, "y2", 2)
        with pytest.raises(CurveError, match="not exactly independent"):
            DifferentialBasis(genus3_curve, 2, tuple(els))


class TestExpressInBasis:
    def test_monomial_product_g2(self, genus2_curve):
        b1 = canonical_basis(genus2_curve)
        b2 = quadratic_basis(genus2_curve)
        prod = multiply(b1.elements[0], b1.elements[1], genus2_curve)
        coords = express_in_basis(prod.numerator, prod.denom_class, b2)
        assert coords == (es(0), es(1), es(0))

    def test_square_g3(self, genus3_curve):
        b1 = canonical_basis(genus3_curve)
        b2 = quadratic_basis(genus3_curve)
        prod = multiply(b1.elements[1], b1.elements[1], genus3_curve)
        coords = express_in_basis(prod.numerator, prod.denom_class, b2)
        assert coords == (es(0), es(0), es(1), es(0), es(0), es(0))

    def test_quartic_xy(self, fermat_quartic):
        b1 = canonical_basis(fermat_quartic)
        b2 = quadratic_basis(fermat_quartic)
        prod = multiply(b1.elements[0], b1.elements[1], fermat_quartic)
        coords = express_in_basis(prod.numerator, prod.denom_class, b2)
        # xy is the fourth monomial in the documented order
        assert coords == (es(0), es(0), es(0), es(1), es(0), es(0))

    def test_reassembly_roundtrip(self, genus3_curve):
        rng = random.Random(3)
        b1 = canonical_basis(genus3_curve)
        b2 = quadratic_basis(genus3_curve)
        c1 = [es(rng.randint(-5, 5)) for _ in range(3)]
        c2 = [es(rng.randint(-5, 5)) for _ in range(3)]
        w1, w2 = combine(b1, c1), combine(b1, c2)
        prod = multiply(w1, w2, genus3_curve)
        coords = express_in_basis(prod.numerator, prod.denom_class, b2)
        # rebuild the numerator from the coordinates and compare
        rebuilt = [es(0)] * max(len(prod.numerator), 5)
        for coeff, el in zip(coords, b2.elements):
            if el.denom_class != "y2":
                assert coeff.is_zero()
                continue
            for i, c in enumerate(el.numerator):
                rebuilt[i] = rebuilt[i] + coeff * c
        trimmed = tuple(rebuilt[: len(prod.numerator)])
        assert trimmed == tuple(prod.numerator)

    def test_membership_failure_carries_residual(self, genus2_curve):
        b2 = quadratic_basis(genus2_curve)
        too_big = (es(0), es(0), es(0), es(1))  # degree 3 > 2g-2 = 2
        with pytest.raises(MembershipError) as err:
            express_in_basis(too_big, "y2", b2)
        assert err.value.residual


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_basis_invariants_random_curves(data):
    """Any valid branch configuration gives dim H0(K) = g, dim H0(K^2) = 3g-3,
    and every weight-1 element is holomorphic at all places by the valuation
    oracle."""
    g = data.draw(st.integers(2, 5))
    odd = data.draw(st.booleans())
    npts = 2 * g + 1 + (0 if odd else 1)
    pts = data.draw(
        st.lists(
            st.fractions(min_value=-30, max_value=30, max_denominator=8),
            min_size=npts,
            max_size=npts,
            unique=True,
        )
    )
    curve = HyperellipticCurve(tuple(ExactScalar.of(p) for p in pts))
    assert curve.genus == g
    b1 = canonical_basis(curve)
    b2 = quadratic_basis(curve)
    assert len(b1) == g and len(b2) == 3 * g - 3
    for el in b1.elements:
        for place in list(curve.branch_points) + ["infinity"]:
            assert hyperelliptic_vanishing_order(curve, el.numerator, "y", 1, place) >= 0


class TestSerialization:
    def test_hyperelliptic_roundtrip(self, genus2_curve):
        data = json.loads(json.dumps(curve_to_json(genus2_curve)))
        assert curve_from_json(data) == genus2_curve

    def test_quartic_roundtrip(self, klein_quartic):
        data = json.loads(json.dumps(curve_to_json(klein_quartic)))
        assert curve_from_json(data) == klein_quartic

    def test_rational_branch_points(self):
        c = HyperellipticCurve(
            tuple(
                ExactScalar.of(v)
                for v in [0, 1, Fraction(5, 2), Fraction(7, 2), Fraction(9, 2)]
            )
        )
        assert curve_from_json(curve_to_json(c)) == c

    def test_unknown_model_rejected(self):
        with pytest.raises(CurveError):
            curve_from_json({"model": "elliptic"})

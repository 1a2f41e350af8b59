import json
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from diffsys import curves
from diffsys.curves import (
    CurveError,
    HyperellipticCurve,
    PlaneQuartic,
    curve_from_json,
    curve_to_json,
    product_slots,
)
from diffsys.field import ONE, ZERO, ExactMatrix, ExactScalar, exact_rank

from oracles import (
    hyperelliptic_vanishing_order,
    theta_columns,
    weight1_monomials,
    weight2_monomials,
)


def es(re, im=0):
    return ExactScalar.of(re, im)


# the 15 quartic monomials, ascending, and a smooth user quartic out of order
QUARTIC_EXPONENTS = [(i, j, 4 - i - j) for i in range(5) for j in range(5 - i)]
USER_FORM = [((0, 0, 4), es(1)), ((1, 1, 2), es(3)), ((0, 4, 0), es(1)), ((4, 0, 0), es(1))]


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
        """Smoothness is not checked, so a quartic read from JSON must assert
        it with the JSON boolean true; the constructor takes the form alone."""
        q = PlaneQuartic(tuple(USER_FORM))
        assert q.genus == 3
        data = curve_to_json(q)
        for flag in (False, "false", "true", 1, None):
            with pytest.raises(CurveError, match="smoothness_asserted"):
                curve_from_json({**data, "smoothness_asserted": flag})
        del data["smoothness_asserted"]
        with pytest.raises(CurveError, match="smoothness_asserted"):
            curve_from_json(data)
        assert curve_from_json({**data, "smoothness_asserted": True}) == q

    def test_flag_echoed_in_serialization(self):
        """``curve_to_json`` always writes the assertion and no family; an
        old file's ``family`` key is ignored like any unknown key."""
        q = PlaneQuartic(tuple(USER_FORM))
        assert curve_to_json(q) == {
            "model": "quartic",
            "coefficients": [[[4, 0, 0], [1, 1, 0, 1]], [[1, 1, 2], [3, 1, 0, 1]],
                             [[0, 4, 0], [1, 1, 0, 1]], [[0, 0, 4], [1, 1, 0, 1]]],
            "smoothness_asserted": True,
        }
        for family in ("fermat", "nonsense", None):
            assert curve_from_json({**curve_to_json(q), "family": family}) == q

    @pytest.mark.parametrize(
        "terms, message",
        [
            ((((5, -1, 0), ONE),), "quartic exponent (5, -1, 0) is not"),
            ((((4, 0), ONE),), "quartic exponent (4, 0) is not"),
            ((((True, 3, 0), ONE),), "quartic exponent (True, 3, 0) is not"),
            ((((4.0, 0, 0), ONE),), "quartic exponent (4.0, 0, 0) is not"),
            ((([4, 0, 0], ONE),), "quartic exponent [4, 0, 0] is not"),
            ((((2, 1, 0), ONE),), "quartic exponent (2, 1, 0) is not"),
            ((((4, 0, 0), ONE), ((4, 0, 0), ZERO)), "duplicate monomial"),
            ((((4, 0, 0), ZERO),), "zero quartic form"),
            ((), "zero quartic form"),
        ],
        ids=["negative", "two-exponents", "bool", "float", "list", "degree-3",
             "duplicate", "zero-term", "empty"],
    )
    def test_malformed_quartic_rejected(self, terms, message):
        with pytest.raises(CurveError, match=re.escape(message)):
            PlaneQuartic(terms)

    def test_builtin_quartics_pinned(self):
        """Fermat and Klein keep their coefficient lists and their JSON."""
        assert PlaneQuartic.fermat().coefficients == (((4, 0, 0), ONE), ((0, 4, 0), ONE), ((0, 0, 4), ONE))
        assert PlaneQuartic.klein().coefficients == (((3, 1, 0), ONE), ((1, 0, 3), ONE), ((0, 3, 1), ONE))
        one = [1, 1, 0, 1]
        for quartic, exponents in ((PlaneQuartic.fermat(), ([4, 0, 0], [0, 4, 0], [0, 0, 4])),
                                   (PlaneQuartic.klein(), ([3, 1, 0], [1, 0, 3], [0, 3, 1]))):
            assert curve_to_json(quartic) == {
                "model": "quartic",
                "coefficients": [[e, one] for e in exponents],
                "smoothness_asserted": True,
            }

    @settings(max_examples=50, deadline=None)
    @given(data=st.data())
    def test_term_order_and_zero_terms_do_not_matter(self, data):
        """A form's terms in any order, zero terms added, make one quartic:
        equal, of equal hash and of identical JSON."""
        values = data.draw(st.lists(st.integers(-3, 3), min_size=15, max_size=15).filter(any))
        terms = [(e, es(v)) for e, v in zip(QUARTIC_EXPONENTS, values)]
        plain = PlaneQuartic(tuple((e, c) for e, c in terms if not c.is_zero()))
        shuffled = PlaneQuartic(tuple(data.draw(st.permutations(terms))))
        assert shuffled == plain and hash(shuffled) == hash(plain)
        assert json.dumps(curve_to_json(shuffled)) == json.dumps(curve_to_json(plain))
        assert [e for e, _ in plain.coefficients] == sorted((e for e, c in terms if not c.is_zero()), reverse=True)


def unit_vectors(g):
    return [tuple(es(1) if k == i else es(0) for k in range(g)) for i in range(g)]


def oracle_slot(curve, i, j):
    """The weight-2 row of basis_i * basis_j read from the oracle's product."""
    col = theta_columns(curve, [unit_vectors(curve.genus)[j]])[i]
    (row,) = [r for r, c in enumerate(col) if not c.is_zero()]
    assert col[row] == es(1)
    return row


class TestCanonicalBasis:
    def test_genus2_elements(self, genus2_curve):
        assert product_slots(genus2_curve) == ((0, 1), (1, 2))

    def test_counts_match_genus(self, genus3_curve, fermat_quartic):
        for curve in (genus3_curve, fermat_quartic):
            assert len(product_slots(curve)) == 3
            assert len(weight1_monomials(curve)) == 3

    def test_holomorphy_by_valuation_oracle_g2(self, genus2_curve):
        for numer, denom_class in weight1_monomials(genus2_curve):
            for lam in genus2_curve.branch_points:
                assert (
                    hyperelliptic_vanishing_order(genus2_curve, numer, denom_class, 1, lam)
                    >= 0
                )
            assert (
                hyperelliptic_vanishing_order(
                    genus2_curve, numer, denom_class, 1, "infinity"
                )
                >= 0
            )

    def test_holomorphy_by_valuation_oracle_g3(self, genus3_curve):
        for numer, denom_class in weight1_monomials(genus3_curve):
            for place in list(genus3_curve.branch_points) + ["infinity"]:
                assert (
                    hyperelliptic_vanishing_order(genus3_curve, numer, denom_class, 1, place)
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
        monomials = weight2_monomials(genus2_curve)
        assert len(monomials) == 3
        assert all(denom_class == "y2" for _, denom_class in monomials)

    def test_genus3_split(self, genus3_curve):
        classes = [denom_class for _, denom_class in weight2_monomials(genus3_curve)]
        assert classes == ["y2"] * 5 + ["y"]
        # products of weight-1 elements never reach the dx^2/y part
        assert max(max(row) for row in product_slots(genus3_curve)) == 4

    def test_quartic_count(self, fermat_quartic):
        assert len(weight2_monomials(fermat_quartic)) == 6
        assert {s for row in product_slots(fermat_quartic) for s in row} == set(range(6))

    def test_holomorphy_by_valuation_oracle(self, genus3_curve):
        for numer, denom_class in weight2_monomials(genus3_curve):
            for place in list(genus3_curve.branch_points) + ["infinity"]:
                order = hyperelliptic_vanishing_order(
                    genus3_curve, numer, denom_class, 2, place
                )
                assert order >= 0

    def test_dimension_counts_g2_to_g6(self):
        for g in range(2, 7):
            for n in (2 * g + 1, 2 * g + 2):
                curve = HyperellipticCurve.from_integers(range(n))
                slots = product_slots(curve)
                assert len(slots) == g and all(len(row) == g for row in slots)
                assert all(0 <= s < 3 * g - 3 for row in slots for s in row)
                assert len(weight1_monomials(curve)) == g
                assert len(weight2_monomials(curve)) == 3 * g - 3

    def test_exact_independence(self, genus3_curve, klein_quartic):
        """The g^2 oracle products span exactly the rows the table names, and
        a row of the table never names one slot twice."""
        for curve in (genus3_curve, klein_quartic):
            slots = product_slots(curve)
            products = theta_columns(curve, unit_vectors(curve.genus))
            named = {s for row in slots for s in row}
            assert exact_rank(ExactMatrix.from_rows(products)) == len(named)
            assert all(len(set(row)) == len(row) for row in slots)

    def test_built_once_per_curve(self, genus3_curve, fermat_quartic):
        for curve in (genus3_curve, fermat_quartic):
            assert product_slots(curve) is product_slots(curve)
        equal = HyperellipticCurve(tuple(genus3_curve.branch_points))
        assert product_slots(equal) is product_slots(genus3_curve)
        even = HyperellipticCurve.from_integers(range(8))
        assert product_slots(even) is product_slots(genus3_curve)
        assert product_slots(PlaneQuartic.klein()) is product_slots(fermat_quartic)

    def test_memo_is_bounded(self):
        """One table per (model, genus), however many curves ask for it."""
        before = curves._slot_table.cache_info().currsize
        for k in range(69):
            product_slots(HyperellipticCurve.from_integers([0, 1, 2, 3, 5 + k]))
            product_slots(HyperellipticCurve.from_integers([0, 1, 2, 3, 4, 6 + k]))
        assert curves._slot_table.cache_info().currsize <= before + 1


class TestExpressInBasis:
    """The table against the oracle's products, and a few entries by hand."""

    def test_monomial_product_g2(self, genus2_curve):
        # (dx/y) * (x dx/y) = x dx^2/y^2, the second weight-2 element
        assert product_slots(genus2_curve)[0][1] == 1 == oracle_slot(genus2_curve, 0, 1)

    def test_square_g3(self, genus3_curve):
        assert product_slots(genus3_curve)[1][1] == 2 == oracle_slot(genus3_curve, 1, 1)

    def test_quartic_xy(self, fermat_quartic):
        # xy is the fourth monomial in the documented order
        assert product_slots(fermat_quartic)[0][1] == 3 == oracle_slot(fermat_quartic, 0, 1)

    def test_reassembly_roundtrip(self, genus3_curve):
        """Coordinates of w1 * w2 assembled from the table, reassembled through
        the weight-2 monomials, give the polynomial product of w1 and w2."""
        rng = random.Random(3)
        c1 = [es(rng.randint(-5, 5)) for _ in range(3)]
        c2 = [es(rng.randint(-5, 5)) for _ in range(3)]
        coords = [es(0)] * 6
        for a, slots in zip(c1, product_slots(genus3_curve)):
            for r, b in zip(slots, c2):
                coords[r] = coords[r] + a * b
        rebuilt = [es(0)] * 5
        for coeff, (numer, denom_class) in zip(coords, weight2_monomials(genus3_curve)):
            if denom_class != "y2":
                assert coeff.is_zero()
                continue
            for k, c in enumerate(numer):
                rebuilt[k] = rebuilt[k] + coeff * c
        product = [es(0)] * 5  # (sum c1_i x^i) (sum c2_j x^j) over y^2
        for i, a in enumerate(c1):
            for j, b in enumerate(c2):
                product[i + j] = product[i + j] + a * b
        assert rebuilt == product


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_basis_invariants_random_curves(data):
    """Any valid branch configuration gives dim H0(K) = g, dim H0(K^2) = 3g-3,
    every weight-1 element is holomorphic at all places by the valuation
    oracle, and the product table agrees with the oracle's products."""
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
    b1 = weight1_monomials(curve)
    assert len(b1) == g and len(weight2_monomials(curve)) == 3 * g - 3
    for numer, denom_class in b1:
        for place in list(curve.branch_points) + ["infinity"]:
            assert hyperelliptic_vanishing_order(curve, numer, denom_class, 1, place) >= 0
    slots = product_slots(curve)
    assert all(slots[i][j] == oracle_slot(curve, i, j) for i in range(g) for j in range(g))


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

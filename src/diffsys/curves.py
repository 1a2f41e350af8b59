"""Explicit curve models and the product table of their monomial bases.

Two families are supported:

* hyperelliptic curves ``y^2 = f(x)`` stored by the roots of ``f`` (branch
  points), genus ``floor((deg f - 1)/2) >= 2``;
* plane quartics ``F(x,y,z) = 0`` of genus 3, stored by the form ``F``.
  Smoothness is not checked: the built-in Fermat and Klein quartics are
  smooth, and a quartic read from JSON must assert it.

Bases are the classical monomial ones and their ordering is frozen so that
every matrix built downstream is reproducible bit for bit:

* hyperelliptic weight 1: ``x^i dx/y`` for ``0 <= i <= g-1``;
* hyperelliptic weight 2: ``x^i dx^2/y^2`` (``0 <= i <= 2g-2``) followed by
  ``x^j dx^2/y`` (``0 <= j <= g-3``);
* quartic weight 1: the differentials induced by the linear forms x, y, z;
* quartic weight 2: those induced by x^2, y^2, z^2, xy, xz, yz.

A coordinate vector over one of these bases is the whole description of a
differential; the product of two weight-1 basis elements is one weight-2
basis element, named by ``product_slots``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from operator import add

from .field import ExactScalar, ONE

__all__ = [
    "CurveError",
    "HyperellipticCurve",
    "PlaneQuartic",
    "product_slots",
    "curve_to_json",
    "curve_from_json",
]

LINEAR_FORMS = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
QUADRATIC_FORMS = ((2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 0), (1, 0, 1), (0, 1, 1))


class CurveError(ValueError):
    """Invalid curve data: coincident branch points, a malformed quartic form
    or a quartic without its smoothness assertion."""


# -- curve models -------------------------------------------------------------


@dataclass(frozen=True)
class HyperellipticCurve:
    branch_points: tuple

    def __post_init__(self):
        pts = self.branch_points
        if len(pts) < 5:
            raise CurveError("need at least 5 branch points for genus >= 2")
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                if (pts[i] - pts[j]).is_zero():
                    raise CurveError(f"coincident branch points at index {i}, {j}")

    @staticmethod
    def from_integers(values) -> "HyperellipticCurve":
        return HyperellipticCurve(tuple(ExactScalar.of(v) for v in values))

    @property
    def genus(self) -> int:
        return (len(self.branch_points) - 1) // 2

    @property
    def odd_model(self) -> bool:
        return len(self.branch_points) % 2 == 1

    def float_roots(self) -> list[complex]:
        return [p.to_complex() for p in self.branch_points]


@dataclass(frozen=True)
class PlaneQuartic:
    """The quartic ``F(x, y, z) = sum c x^i y^j z^k = 0`` by its form.

    ``coefficients`` holds the ``((i, j, k), c)`` terms, exponents descending
    and zero terms dropped, whatever order they are given in; so equal forms
    compare and hash equal.
    """

    coefficients: tuple

    def __post_init__(self):
        exps = [e for e, _ in self.coefficients]
        for e in exps:
            if not (type(e) is tuple and len(e) == 3
                    and all(type(k) is int and k >= 0 for k in e) and sum(e) == 4):
                raise CurveError(f"quartic exponent {e!r} is not three non-negative ints summing to 4")
        if len(set(exps)) != len(exps):
            raise CurveError("duplicate monomial in quartic coefficients")
        terms = sorted(((e, c) for e, c in self.coefficients if not c.is_zero()), reverse=True)
        if not terms:
            raise CurveError("zero quartic form")
        object.__setattr__(self, "coefficients", tuple(terms))

    @property
    def genus(self) -> int:
        return 3

    @staticmethod
    def fermat() -> "PlaneQuartic":
        return PlaneQuartic((((4, 0, 0), ONE), ((0, 4, 0), ONE), ((0, 0, 4), ONE)))

    @staticmethod
    def klein() -> "PlaneQuartic":
        return PlaneQuartic((((3, 1, 0), ONE), ((0, 3, 1), ONE), ((1, 0, 3), ONE)))


Curve = HyperellipticCurve | PlaneQuartic


# -- the product table ----------------------------------------------------------


@cache
def _slot_table(model: str, genus: int) -> tuple:
    if model == "quartic":
        return tuple(
            tuple(QUADRATIC_FORMS.index(tuple(map(add, a, b))) for b in LINEAR_FORMS)
            for a in LINEAR_FORMS
        )
    return tuple(tuple(range(i, i + genus)) for i in range(genus))


def product_slots(curve: Curve) -> tuple:
    """Index table of the multiplication of weight-1 basis elements.

    ``product_slots(curve)[i][j]`` is the weight-2 basis row of
    basis_i * basis_j.  Both bases are monomial, so each product is exactly
    one weight-2 basis element: x^(i+j) dx^2/y^2 on hyperelliptic curves
    (odd and even model), the quadratic form of the summed exponents on
    quartics.  The table depends only on the model and the genus; each one
    is built on first use.
    """
    if isinstance(curve, PlaneQuartic):
        return _slot_table("quartic", 3)
    return _slot_table("hyperelliptic", curve.genus)


# -- serialization ------------------------------------------------------------


def curve_to_json(curve: Curve) -> dict:
    if isinstance(curve, HyperellipticCurve):
        return {
            "model": "hyperelliptic",
            "branch_points": [p.to_json() for p in curve.branch_points],
        }
    return {
        "model": "quartic",
        "coefficients": [[list(e), c.to_json()] for e, c in curve.coefficients],
        "smoothness_asserted": True,
    }


def curve_from_json(data: dict) -> Curve:
    model = data.get("model")
    if model == "hyperelliptic":
        return HyperellipticCurve(
            tuple(ExactScalar.from_json(p) for p in data["branch_points"])
        )
    if model == "quartic":
        # smoothness is not checked, so the file must assert it
        if data.get("smoothness_asserted") is not True:
            raise CurveError('a quartic needs "smoothness_asserted": true')
        return PlaneQuartic(
            tuple((tuple(e), ExactScalar.from_json(c)) for e, c in data["coefficients"])
        )
    raise CurveError(f"unknown curve model {model!r}")

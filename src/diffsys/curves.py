"""Explicit curve models with exact bases of (quadratic) differentials.

Two families are supported:

* hyperelliptic curves ``y^2 = f(x)`` stored by the roots of ``f`` (branch
  points), genus ``floor((deg f - 1)/2) >= 2``;
* smooth plane quartics ``F(x,y,z) = 0`` of genus 3, restricted to the
  built-in Fermat/Klein families plus user-supplied coefficients carrying an
  explicit smoothness assertion.

Bases are the classical monomial ones and their ordering is frozen so that
every matrix built downstream is reproducible bit for bit:

* hyperelliptic weight 1: ``x^i dx/y`` for ``0 <= i <= g-1``;
* hyperelliptic weight 2: ``x^i dx^2/y^2`` (``0 <= i <= 2g-2``) followed by
  ``x^j dx^2/y`` (``0 <= j <= g-3``);
* quartic weight 1: the differentials induced by the linear forms x, y, z;
* quartic weight 2: those induced by x^2, y^2, z^2, xy, xz, yz.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .field import ExactMatrix, ExactScalar, ZERO, ONE, exact_rank

__all__ = [
    "CurveError",
    "MembershipError",
    "HyperellipticCurve",
    "PlaneQuartic",
    "Differential",
    "DifferentialBasis",
    "canonical_basis",
    "quadratic_basis",
    "multiply",
    "express_in_basis",
    "curve_to_json",
    "curve_from_json",
]

QUARTIC_MONOMIALS = tuple(
    (i, j, 4 - i - j) for i in range(4, -1, -1) for j in range(4 - i, -1, -1)
)
LINEAR_FORMS = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
QUADRATIC_FORMS = ((2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 0), (1, 0, 1), (0, 1, 1))


class CurveError(ValueError):
    """Invalid curve data: coincident branch points or no smoothness certificate."""


class MembershipError(ValueError):
    """A differential fell outside the span of the target basis.

    Carries the offending residual; this signals a basis bug upstream, not a
    user error.
    """

    def __init__(self, message, residual):
        super().__init__(message)
        self.residual = residual


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
        object.__setattr__(self, "_hash", hash(pts))  # a Fraction hashes by modular inverse

    def __hash__(self):
        return self._hash

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
    coefficients: tuple  # ((i,j,k), ExactScalar) sorted by QUARTIC_MONOMIALS order
    family: str | None = None
    smoothness_asserted: bool = False

    def __post_init__(self):
        if self.family not in (None, "fermat", "klein"):
            raise CurveError(f"unknown quartic family {self.family!r}")
        if self.family is None and not self.smoothness_asserted:
            raise CurveError(
                "user-supplied quartics require smoothness_asserted=True"
            )
        exps = [e for e, _ in self.coefficients]
        if any(sum(e) != 4 for e in exps):
            raise CurveError("quartic coefficients must have total degree 4")
        if len(set(exps)) != len(exps):
            raise CurveError("duplicate monomial in quartic coefficients")
        if all(c.is_zero() for _, c in self.coefficients):
            raise CurveError("zero quartic form")
        object.__setattr__(self, "_hash", hash(self.coefficients))

    __hash__ = HyperellipticCurve.__hash__

    @property
    def genus(self) -> int:
        return 3

    @staticmethod
    def from_form(form: dict, family=None, smoothness_asserted=False) -> "PlaneQuartic":
        items = tuple(
            (e, form[e]) for e in QUARTIC_MONOMIALS if e in form and not form[e].is_zero()
        )
        return PlaneQuartic(items, family, smoothness_asserted)

    @staticmethod
    def fermat() -> "PlaneQuartic":
        one = ONE
        return PlaneQuartic.from_form(
            {(4, 0, 0): one, (0, 4, 0): one, (0, 0, 4): one},
            family="fermat",
            smoothness_asserted=True,
        )

    @staticmethod
    def klein() -> "PlaneQuartic":
        one = ONE
        return PlaneQuartic.from_form(
            {(3, 1, 0): one, (0, 3, 1): one, (1, 0, 3): one},
            family="klein",
            smoothness_asserted=True,
        )


Curve = HyperellipticCurve | PlaneQuartic


# -- differentials ------------------------------------------------------------


@dataclass(frozen=True)
class Differential:
    """A (quadratic) differential as polynomial numerator over a canonical denominator.

    ``denom_class`` is one of "y", "y2" (hyperelliptic) or "adj", "adj2"
    (quartic adjoint, weights 1 and 2).  The hyperelliptic numerator is a
    tuple of ascending ``x``-coefficients; the quartic numerator is a tuple
    of ``(exponents, coefficient)`` pairs.
    """

    numerator: tuple
    denom_class: str
    weight: int


def _poly_trim(coeffs):
    c = list(coeffs)
    while c and c[-1].is_zero():
        c.pop()
    return tuple(c)


def _poly_mul(p, q):
    if not p or not q:
        return ()
    out = [ZERO] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a.is_zero():
            continue
        for j, b in enumerate(q):
            out[i + j] = out[i + j] + a * b
    return _poly_trim(out)


def _poly_add(p, q):
    n = max(len(p), len(q))
    out = []
    for i in range(n):
        a = p[i] if i < len(p) else ZERO
        b = q[i] if i < len(q) else ZERO
        out.append(a + b)
    return _poly_trim(out)


def _poly_scale(c, p):
    return _poly_trim([c * a for a in p])


def _monomial(i):
    return tuple([ZERO] * i + [ONE])


def _form_mul(f, g):
    out = {}
    for e1, c1 in f.items():
        for e2, c2 in g.items():
            e = (e1[0] + e2[0], e1[1] + e2[1], e1[2] + e2[2])
            out[e] = out.get(e, ZERO) + c1 * c2
    return {e: c for e, c in out.items() if not c.is_zero()}


def _form_add(f, g):
    out = dict(f)
    for e, c in g.items():
        out[e] = out.get(e, ZERO) + c
    return {e: c for e, c in out.items() if not c.is_zero()}


def _form_scale(s, f):
    return {e: s * c for e, c in f.items() if not (s * c).is_zero()}


def _form_items(f):
    order = {e: i for i, e in enumerate(QUARTIC_MONOMIALS)}
    return tuple(sorted(f.items(), key=lambda item: order.get(item[0], len(order))))


@dataclass(frozen=True)
class DifferentialBasis:
    curve: Curve
    weight: int
    elements: tuple

    def __post_init__(self):
        g = self.curve.genus
        expected = g if self.weight == 1 else 3 * g - 3
        if len(self.elements) != expected:
            raise CurveError(
                f"weight-{self.weight} basis must have {expected} elements, got {len(self.elements)}"
            )
        mat = ExactMatrix.from_rows(
            [_element_coordinates(el, self.curve) for el in self.elements]
        )
        if exact_rank(mat) != len(self.elements):
            raise CurveError("basis elements are not exactly independent")

    def __len__(self):
        return len(self.elements)

    @cached_property
    def products(self) -> tuple:
        """Product table of a weight-1 basis: ``products[i][j]`` holds the
        nonzero coordinates ``(row, value)`` of basis_i * basis_j in
        ``quadratic_basis(curve)``, each product formed once per basis object."""
        basis2 = quadratic_basis(self.curve)
        table = []
        for a in self.elements:
            row = []
            for b in self.elements:
                prod = multiply(a, b, self.curve)
                coords = express_in_basis(prod.numerator, prod.denom_class, basis2)
                row.append(tuple((r, v) for r, v in enumerate(coords) if not v.is_zero()))
            table.append(tuple(row))
        return tuple(table)


def _element_coordinates(el: Differential, curve) -> list:
    """Coordinates of a basis element in the full monomial space of its class."""
    if isinstance(curve, HyperellipticCurve):
        g = curve.genus
        if el.weight == 1:
            dim = g
            vec = [ZERO] * dim
            for i, c in enumerate(el.numerator):
                vec[i] = c
            return vec
        dim_y2 = 2 * g - 1
        dim_y = max(g - 2, 0)
        vec = [ZERO] * (dim_y2 + dim_y)
        off = 0 if el.denom_class == "y2" else dim_y2
        for i, c in enumerate(el.numerator):
            vec[off + i] = c
        return vec
    forms = LINEAR_FORMS if el.weight == 1 else QUADRATIC_FORMS
    vec = [ZERO] * len(forms)
    d = dict(el.numerator)
    for i, e in enumerate(forms):
        if e in d:
            vec[i] = d[e]
    return vec


_BASES: dict = {}  # curve -> {weight: its verified basis}, oldest curve first
_BASES_MAX = 64


def _memo_basis(curve: Curve, weight: int) -> DifferentialBasis:
    """The frozen monomial basis of one weight, built and verified once per
    curve for the last _BASES_MAX curves."""
    bases = _BASES.get(curve)
    if bases is None:
        if len(_BASES) >= _BASES_MAX:
            del _BASES[next(iter(_BASES))]
        bases = _BASES[curve] = {}
    if weight in bases:
        return bases[weight]
    if isinstance(curve, HyperellipticCurve):
        g = curve.genus
        if weight == 1:
            els = [Differential(_monomial(i), "y", 1) for i in range(g)]
        else:
            els = [Differential(_monomial(i), "y2", 2) for i in range(2 * g - 1)]
            els += [Differential(_monomial(j), "y", 2) for j in range(g - 2)]
    else:
        forms, denom_class = (LINEAR_FORMS, "adj") if weight == 1 else (QUADRATIC_FORMS, "adj2")
        els = [Differential(((e, ONE),), denom_class, weight) for e in forms]
    bases[weight] = DifferentialBasis(curve, weight, tuple(els))
    return bases[weight]


def canonical_basis(curve: Curve) -> DifferentialBasis:
    """Ordered basis of holomorphic differentials (weight 1), g elements,
    memoized per curve so that every theta matrix on a curve shares one
    product table (``DifferentialBasis.products``)."""
    return _memo_basis(curve, 1)


def quadratic_basis(curve: Curve) -> DifferentialBasis:
    """Ordered basis of quadratic differentials (weight 2), 3g-3 elements,
    memoized per curve."""
    return _memo_basis(curve, 2)


def multiply(d1: Differential, d2: Differential, curve: Curve) -> Differential:
    """Product of two weight-1 differentials as a weight-2 differential."""
    if d1.weight != 1 or d2.weight != 1:
        raise ValueError("multiply expects two weight-1 differentials")
    if isinstance(curve, HyperellipticCurve):
        return Differential(_poly_mul(d1.numerator, d2.numerator), "y2", 2)
    prod = _form_mul(dict(d1.numerator), dict(d2.numerator))
    return Differential(_form_items(prod), "adj2", 2)


def combine(basis: DifferentialBasis, coords) -> Differential:
    """Exact linear combination of weight-1 basis elements."""
    coords = list(coords)
    if len(coords) != len(basis.elements):
        raise ValueError("coordinate length does not match basis")
    if isinstance(basis.curve, HyperellipticCurve):
        acc = ()
        for c, el in zip(coords, basis.elements):
            acc = _poly_add(acc, _poly_scale(c, el.numerator))
        return Differential(acc, "y", 1)
    acc: dict = {}
    for c, el in zip(coords, basis.elements):
        acc = _form_add(acc, _form_scale(c, dict(el.numerator)))
    return Differential(_form_items(acc), "adj", 1)


def express_in_basis(numerator, denom_class: str, basis: DifferentialBasis) -> tuple:
    """Exact coordinates of a differential in ``basis``.

    The input is given by its polynomial numerator and denominator class.
    Reassembling the coordinates reproduces the input; a failure carries the
    residual part that lies outside the span.
    """
    curve = basis.curve
    if isinstance(curve, HyperellipticCurve):
        g = curve.genus
        if basis.weight != 2:
            raise ValueError("express_in_basis targets the weight-2 basis")
        poly = _poly_trim(numerator)
        dim_y2, dim_y = 2 * g - 1, max(g - 2, 0)
        if denom_class == "y2":
            if len(poly) > dim_y2:
                raise MembershipError(
                    "numerator degree too large for the y^2 class",
                    residual=poly[dim_y2:],
                )
            head = list(poly) + [ZERO] * (dim_y2 - len(poly))
            return tuple(head + [ZERO] * dim_y)
        if denom_class == "y":
            if len(poly) > dim_y:
                raise MembershipError(
                    "numerator degree too large for the y class",
                    residual=poly[dim_y:],
                )
            tail = list(poly) + [ZERO] * (dim_y - len(poly))
            return tuple([ZERO] * dim_y2 + tail)
        raise ValueError(f"unknown hyperelliptic denominator class {denom_class!r}")
    if denom_class != "adj2":
        raise ValueError(f"unknown quartic denominator class {denom_class!r}")
    form = dict(numerator)
    vec = []
    for e in QUADRATIC_FORMS:
        vec.append(form.pop(e, ZERO))
    if form:
        raise MembershipError(
            "quadratic form has monomials outside the basis", residual=_form_items(form)
        )
    return tuple(vec)


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
        "family": curve.family,
        "smoothness_asserted": curve.smoothness_asserted,
    }


def curve_from_json(data: dict) -> Curve:
    model = data.get("model")
    if model == "hyperelliptic":
        return HyperellipticCurve(
            tuple(ExactScalar.from_json(p) for p in data["branch_points"])
        )
    if model == "quartic":
        coeffs = tuple(
            (tuple(e), ExactScalar.from_json(c)) for e, c in data["coefficients"]
        )
        return PlaneQuartic(
            coeffs,
            family=data.get("family"),
            smoothness_asserted=bool(data.get("smoothness_asserted", False)),
        )
    raise CurveError(f"unknown curve model {model!r}")

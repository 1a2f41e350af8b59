"""Lie-algebra tables, differential systems, and dimension bookkeeping.

A differential system pairs a curve with an element of g (x) H0(K),
stored as an exact (dim g) x (genus) coefficient matrix: entry (j, i) is the
coefficient of Lie basis element j on the i-th basis differential.

The built-in algebras (sl2, gl2, sl3) come from one table of integer
matrices, their defining representations (``_BASES``).  One exact
coordinate solve over those matrices gives both the structure constants
(the coordinates of each commutator) and a constant gauge conjugation
(the coordinates of S M S^-1), for a defining representation of any size.
Any table, built-in or user-supplied, must be n x n x n, and antisymmetry
and the Jacobi identity are verified exactly; d is the dimension of [g, g]
and c that of the center, the kernel of ad.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from .curves import curve_from_json, curve_to_json
from .field import ExactMatrix, ExactScalar, ZERO, exact_rank, exact_solve

__all__ = [
    "LieAlgebraData",
    "DifferentialSystem",
    "DyadVerdict",
    "DimensionReport",
    "builtin_algebra",
    "coefficient_matrices",
    "conjugate_system",
    "dyad_detect",
    "dimension_report",
    "sample_system",
    "scale_system",
    "system_to_json",
    "system_from_json",
]


@dataclass(frozen=True)
class LieAlgebraData:
    """Structure constants c[i][j][k] with [e_i, e_j] = sum_k c[i][j][k] e_k."""

    name: str
    dimension: int
    commutator_dimension: int
    center_dimension: int
    structure_constants: tuple
    rep_matrices: tuple | None = None  # defining representation, when available

    @staticmethod
    def from_structure_constants(name, table, rep_matrices=None) -> "LieAlgebraData":
        n = len(table)
        for i, plane in enumerate(table):
            if len(plane) != n:
                raise ValueError(f"structure constants: plane {i} has {len(plane)} rows, not {n}")
            for j, row in enumerate(plane):
                if len(row) != n:
                    raise ValueError(f"structure constants: row {i},{j} has {len(row)} entries, not {n}")
        pairs = itertools.combinations_with_replacement(range(n), 2)  # i <= j
        for (i, j), k in itertools.product(pairs, range(n)):
            if not (table[i][j][k] + table[j][i][k]).is_zero():
                raise ValueError("structure constants are not antisymmetric")
        # given antisymmetry, the cyclic Jacobi sum is alternating in (i, j, k),
        # so it vanishes on repeated indices and one order per triple decides
        # it: sum_m c[b][c][m] c[a][m] over (a, b, c) cyclic, zero terms skipped
        for i, j, k in itertools.combinations(range(n), 3):
            acc = [ZERO] * n
            for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
                for m, t in enumerate(table[b][c]):
                    if not t.is_zero():
                        acc = [x + t * y for x, y in zip(acc, table[a][m])]
            if not all(x.is_zero() for x in acc):
                raise ValueError("Jacobi identity fails exactly")
        table = tuple(tuple(map(tuple, plane)) for plane in table)
        d = exact_rank(ExactMatrix.from_rows(row for plane in table for row in plane))
        # the center is the kernel of ad: the u with sum_i u_i table[i] = 0
        ad = ExactMatrix.from_rows([c for row in plane for c in row] for plane in table)
        return LieAlgebraData(name, n, d, n - exact_rank(ad), table, rep_matrices)

    def to_json(self):
        if (self.name in _BASES
                and builtin_algebra(self.name).structure_constants == self.structure_constants):
            return self.name
        return {
            "name": self.name,
            "structure_constants": [
                [[c.to_json() for c in row] for row in plane]
                for plane in self.structure_constants
            ],
        }


def _coordinates(mats, m) -> tuple:
    """The coordinates of the matrix ``m`` over the basis ``mats``, exactly."""
    return exact_solve([b.entries for b in mats], m.entries)


def _structure_from_rep(name, mats):
    """Structure constants from explicit matrix representatives."""
    table = [[_coordinates(mats, a.matmul(b) - b.matmul(a)) for b in mats] for a in mats]
    return LieAlgebraData.from_structure_constants(name, table, rep_matrices=tuple(mats))


def _unit(n, r, c):
    return tuple(tuple(int((i, j) == (r, c)) for j in range(n)) for i in range(n))


# the defining representation of each built-in algebra, in its basis order
_H, _E, _F = ((1, 0), (0, -1)), _unit(2, 0, 1), _unit(2, 1, 0)
_BASES = {
    "sl2": (_H, _E, _F),
    "gl2": (_H, _E, _F, ((1, 0), (0, 1))),
    "sl3": (
        ((1, 0, 0), (0, -1, 0), (0, 0, 0)),
        ((0, 0, 0), (0, 1, 0), (0, 0, -1)),
        *(_unit(3, r, c) for r, c in ((0, 1), (1, 0), (0, 2), (2, 0), (1, 2), (2, 1))),
    ),
}
_BUILTIN_CACHE: dict = {}


def builtin_algebra(name: str) -> LieAlgebraData:
    if name not in _BUILTIN_CACHE:
        if name not in _BASES:
            raise ValueError(f"unknown algebra {name!r} (built-ins: sl2, gl2, sl3)")
        mats = [
            ExactMatrix.from_rows([ExactScalar.of(v) for v in row] for row in m)
            for m in _BASES[name]
        ]
        _BUILTIN_CACHE[name] = _structure_from_rep(name, mats)
    return _BUILTIN_CACHE[name]


@dataclass(frozen=True)
class DifferentialSystem:
    """delta in g (x) H0(K): rows = Lie basis coefficients, columns = differentials."""

    curve: object
    lie: LieAlgebraData
    coefficients: ExactMatrix

    def __post_init__(self):
        g = self.curve.genus
        if self.coefficients.rows != self.lie.dimension or self.coefficients.cols != g:
            raise ValueError(
                f"coefficient matrix must be {self.lie.dimension}x{g}, got "
                f"{self.coefficients.rows}x{self.coefficients.cols}"
            )


@dataclass(frozen=True)
class DyadVerdict:
    is_dyad: bool
    rank_of_coefficients: int

    def to_json(self):
        return {"is_dyad": self.is_dyad, "rank": self.rank_of_coefficients}


def dyad_detect(system: DifferentialSystem) -> DyadVerdict:
    """Detect the degenerate shape delta = B (x) omega (coefficient rank <= 1).

    This is the obstruction shape behind the reducible mechanism; it is a
    necessary condition for it, not a full irreducibility test.
    """
    r = exact_rank(system.coefficients)
    return DyadVerdict(r <= 1, r)


@dataclass(frozen=True)
class DimensionReport:
    genus: int
    d: int
    c: int
    dim_character_variety: int
    dim_syst: int
    dim_teichmuller: int
    gauge_dimension: int

    def to_json(self):
        return {
            "genus": self.genus,
            "d": self.d,
            "c": self.c,
            "dim_character_variety": self.dim_character_variety,
            "dim_syst": self.dim_syst,
            "dim_teichmuller": self.dim_teichmuller,
            "gauge_dimension": self.gauge_dimension,
        }


def dimension_report(g: int, lie: LieAlgebraData) -> DimensionReport:
    """Dimension formulas for the character variety and the system space."""
    if g < 2:
        raise ValueError("genus must be >= 2")
    d, c = lie.commutator_dimension, lie.center_dimension
    if d + c != lie.dimension:
        raise ValueError(
            f"{lie.name} is not its center plus its derived algebra (d {d} + c {c} != "
            f"dim {lie.dimension}), which the dimension formulas assume"
        )
    return DimensionReport(
        genus=g,
        d=d,
        c=c,
        dim_character_variety=2 * (g - 1) * d + 2 * g * c,
        dim_syst=(g - 1) * (d + 3) + g * c,
        dim_teichmuller=3 * g - 3,
        gauge_dimension=d,
    )


def sample_system(curve, lie: LieAlgebraData, seed: int, coefficient_bound: int) -> DifferentialSystem:
    """Deterministic random system with integer coefficients in [-bound, bound]."""
    if coefficient_bound < 0:
        raise ValueError("coefficient bound must be >= 0")
    rng = random.Random(f"system:{seed}")
    g = curve.genus
    entries = [
        ExactScalar.of(rng.randint(-coefficient_bound, coefficient_bound))
        for _ in range(lie.dimension * g)
    ]
    return DifferentialSystem(curve, lie, ExactMatrix(lie.dimension, g, tuple(entries)))


def scale_system(system: DifferentialSystem, factor: ExactScalar) -> DifferentialSystem:
    coeff = system.coefficients
    return DifferentialSystem(
        system.curve,
        system.lie,
        ExactMatrix(coeff.rows, coeff.cols, tuple(factor * e for e in coeff.entries)),
    )


def coefficient_matrices(system: DifferentialSystem) -> tuple:
    """The connection matrices M_c = sum_j coeff[j, c] rho(e_j), one exact
    ExactMatrix per differential c, with rho the algebra's defining
    representation; for sl2 with basis (H, E, F), M_c = [[H_c, E_c], [F_c, -H_c]]."""
    lie = system.lie
    if lie.rep_matrices is None:
        raise ValueError("algebra carries no defining representation")
    n = lie.rep_matrices[0].rows
    coeff = system.coefficients
    mats = []
    for c in range(coeff.cols):
        acc = [ZERO] * (n * n)
        for j, rho in enumerate(lie.rep_matrices):
            cf = coeff.get(j, c)
            if cf.is_zero():
                continue
            for t, e in enumerate(rho.entries):
                acc[t] = acc[t] + cf * e
        mats.append(ExactMatrix(n, n, tuple(acc)))
    return tuple(mats)


def conjugate_system(system: DifferentialSystem, s: ExactMatrix) -> DifferentialSystem:
    """Apply a constant gauge transformation: each coefficient matrix M_i of
    the system (the g-valued coefficient of the i-th differential) becomes
    S M_i S^-1, in the algebra's defining representation."""
    lie = system.lie
    mats = coefficient_matrices(system)
    n = mats[0].rows
    if s.rows != n or s.cols != n:
        raise ValueError(f"gauge matrix must be {n}x{n}")
    rows, unit = [s.row(i) for i in range(n)], ExactMatrix.identity(n)
    try:  # row k of S^-1 is the x with x S = e_k
        s_inv = ExactMatrix.from_rows(exact_solve(rows, unit.row(k)) for k in range(n))
    except ArithmeticError:
        raise ValueError("gauge matrix is singular") from None
    new_cols = [_coordinates(lie.rep_matrices, s.matmul(m).matmul(s_inv)) for m in mats]
    entries = tuple(col[j] for j in range(lie.dimension) for col in new_cols)
    return DifferentialSystem(system.curve, lie, ExactMatrix(lie.dimension, len(mats), entries))


def system_to_json(system: DifferentialSystem) -> dict:
    return {
        "curve": curve_to_json(system.curve),
        "algebra": system.lie.to_json(),
        "coefficients": system.coefficients.to_json(),
    }


def system_from_json(data: dict) -> DifferentialSystem:
    curve = curve_from_json(data["curve"])
    alg = data["algebra"]
    if isinstance(alg, str):
        lie = builtin_algebra(alg)
    else:
        if not isinstance(alg["name"], str):
            raise ValueError(f'algebra "name" must be a string, not {alg["name"]!r}')
        table = [
            [[ExactScalar.from_json(c) for c in row] for row in plane]
            for plane in alg["structure_constants"]
        ]
        lie = LieAlgebraData.from_structure_constants(alg["name"], table)
    return DifferentialSystem(curve, lie, ExactMatrix.from_json(data["coefficients"]))

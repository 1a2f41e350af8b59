"""Lie-algebra tables, differential systems, and dimension bookkeeping.

A differential system pairs a curve with an element of g (x) H0(K),
stored as an exact (dim g) x (genus) coefficient matrix: entry (j, i) is the
coefficient of Lie basis element j on the i-th basis differential.

Built-in algebras (sl2, gl2, sl3) are generated from explicit integer matrix
representations, so their structure constants are computed rather than
transcribed.  Antisymmetry and the Jacobi identity are verified exactly for
any table, built-in or user-supplied.
"""

from __future__ import annotations

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
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    anti = table[i][j][k] + table[j][i][k]
                    if not anti.is_zero():
                        raise ValueError("structure constants are not antisymmetric")
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    for l in range(n):
                        acc = ZERO
                        for m in range(n):
                            acc = acc + table[j][k][m] * table[i][m][l]
                            acc = acc + table[k][i][m] * table[j][m][l]
                            acc = acc + table[i][j][m] * table[k][m][l]
                        if not acc.is_zero():
                            raise ValueError("Jacobi identity fails exactly")
        bracket_rows = [
            tuple(table[i][j][k] for k in range(n))
            for i in range(n)
            for j in range(n)
        ]
        d = exact_rank(ExactMatrix.from_rows(bracket_rows)) if bracket_rows else 0
        return LieAlgebraData(name, n, d, n - d, _freeze_table(table), rep_matrices)

    def bracket(self, u, v) -> tuple:
        """Coordinates of [u, v] for coordinate vectors u, v."""
        n = self.dimension
        out = [ZERO] * n
        for i in range(n):
            if u[i].is_zero():
                continue
            for j in range(n):
                if v[j].is_zero():
                    continue
                uv = u[i] * v[j]
                row = self.structure_constants[i][j]
                for k in range(n):
                    if not row[k].is_zero():
                        out[k] = out[k] + uv * row[k]
        return tuple(out)

    def to_json(self):
        builtin = _BUILTIN_CACHE.get(self.name)
        if builtin is not None and builtin.structure_constants == self.structure_constants:
            return self.name
        return {
            "name": self.name,
            "structure_constants": [
                [[c.to_json() for c in row] for row in plane]
                for plane in self.structure_constants
            ],
        }


def _freeze_table(table):
    return tuple(tuple(tuple(row) for row in plane) for plane in table)


def _structure_from_rep(name, mats):
    """Structure constants from explicit matrix representatives."""
    n = len(mats)
    columns = [tuple(m.entries) for m in mats]
    table = []
    for i in range(n):
        plane = []
        for j in range(n):
            bracket = _mat_sub(mats[i].matmul(mats[j]), mats[j].matmul(mats[i]))
            plane.append(list(exact_solve(columns, tuple(bracket.entries))))
        table.append(plane)
    return LieAlgebraData.from_structure_constants(name, table, rep_matrices=tuple(mats))


def _mat_sub(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    return ExactMatrix(
        a.rows, a.cols, tuple(x - y for x, y in zip(a.entries, b.entries))
    )


def _em(rows):
    return ExactMatrix.from_rows(
        [[ExactScalar.of(v) for v in row] for row in rows]
    )


def _make_sl2():
    h = _em([[1, 0], [0, -1]])
    e = _em([[0, 1], [0, 0]])
    f = _em([[0, 0], [1, 0]])
    return _structure_from_rep("sl2", [h, e, f])


def _make_gl2():
    h = _em([[1, 0], [0, -1]])
    e = _em([[0, 1], [0, 0]])
    f = _em([[0, 0], [1, 0]])
    i = _em([[1, 0], [0, 1]])
    return _structure_from_rep("gl2", [h, e, f, i])


def _make_sl3():
    def unit(r, c):
        rows = [[0] * 3 for _ in range(3)]
        rows[r][c] = 1
        return rows

    h1 = [[1, 0, 0], [0, -1, 0], [0, 0, 0]]
    h2 = [[0, 0, 0], [0, 1, 0], [0, 0, -1]]
    basis = [h1, h2, unit(0, 1), unit(1, 0), unit(0, 2), unit(2, 0), unit(1, 2), unit(2, 1)]
    return _structure_from_rep("sl3", [_em(m) for m in basis])


_BUILTIN_CACHE: dict = {}


def builtin_algebra(name: str) -> LieAlgebraData:
    if name not in _BUILTIN_CACHE:
        maker = {"sl2": _make_sl2, "gl2": _make_gl2, "sl3": _make_sl3}.get(name)
        if maker is None:
            raise ValueError(f"unknown algebra {name!r} (built-ins: sl2, gl2, sl3)")
        _BUILTIN_CACHE[name] = maker()
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

    def __post_init__(self):
        if self.dim_character_variety != 2 * (self.genus - 1) * self.d + 2 * self.genus * self.c:
            raise ValueError("character variety dimension formula violated")
        if self.dim_syst != (self.genus - 1) * (self.d + 3) + self.genus * self.c:
            raise ValueError("system space dimension formula violated")
        identity = self.dim_teichmuller + self.genus * (self.d + self.c) - self.d
        if self.dim_syst != identity:
            raise ValueError("gauge identity violated")

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
    S M_i S^-1.  Requires the algebra to carry a 2x2 defining representation
    (sl2, gl2)."""
    lie = system.lie
    mats = coefficient_matrices(system)
    n = mats[0].rows
    if n != 2:
        raise ValueError(
            f"gauge conjugation supports 2x2 defining representations only; {lie.name} is {n}x{n}"
        )
    if s.rows != n or s.cols != n:
        raise ValueError(f"gauge matrix must be {n}x{n}")
    det = s.get(0, 0) * s.get(1, 1) - s.get(0, 1) * s.get(1, 0)
    if det.is_zero():
        raise ValueError("gauge matrix is singular")
    s_inv = ExactMatrix.from_rows(
        [
            [s.get(1, 1) / det, -s.get(0, 1) / det],
            [-s.get(1, 0) / det, s.get(0, 0) / det],
        ]
    )
    columns = [tuple(m.entries) for m in lie.rep_matrices]
    new_cols = [
        exact_solve(columns, tuple(s.matmul(m).matmul(s_inv).entries))
        for m in mats
    ]
    g = len(new_cols)
    entries = tuple(
        new_cols[c][j] for j in range(lie.dimension) for c in range(g)
    )
    return DifferentialSystem(
        system.curve, lie, ExactMatrix(lie.dimension, g, entries)
    )


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
        table = [
            [[ExactScalar.from_json(c) for c in row] for row in plane]
            for plane in alg["structure_constants"]
        ]
        lie = LieAlgebraData.from_structure_constants(alg["name"], table)
    return DifferentialSystem(curve, lie, ExactMatrix.from_json(data["coefficients"]))

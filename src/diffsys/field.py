"""Exact Gaussian-rational scalars and matrices, and their exact elimination.

Every exact rank, independent subset and solve in this package runs one
elimination, ``_echelon``: fraction-free primitive-row elimination of an
integer matrix in plain ints, each row cleared of denominators.  Only the
rows a pivot reaches are rewritten, each divided by its content, so no
entry grows past its fraction-free (Bareiss) counterpart.  A matrix with a
non-real entry is realified (a + bi becomes [[a, -b], [b, a]]): its pivots
come in pairs, at about eight times the work of a real matrix of its shape.
No tolerance, no rounding.  The pivots give ``exact_rank`` (their number,
the rank over Q(i)), ``_pivots`` (the columns independent of the columns
before them) and ``exact_solve`` (back substitution).

Matrices here are small (tens of rows), so exactness is cheap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

__all__ = [
    "FloatRangeError",
    "ExactScalar",
    "ExactMatrix",
    "exact_rank",
    "exact_solve",
]


def _to_fraction(x) -> Fraction:
    if isinstance(x, int):  # before Fraction, whose ABC isinstance check is slow
        return Fraction(x)
    if isinstance(x, Fraction):
        return x
    raise TypeError(f"cannot build an exact rational from {type(x).__name__}")


class FloatRangeError(ValueError):
    """An exact value lies beyond the range of double precision."""


@dataclass(frozen=True)
class ExactScalar:
    """An element of Q(i): exact rational real and imaginary parts.  Most are
    real, and arithmetic on two real operands skips the imaginary parts."""

    re: Fraction
    im: Fraction

    @staticmethod
    def of(re, im=0) -> "ExactScalar":
        return ExactScalar(_to_fraction(re), _to_fraction(im))

    def __add__(self, other: "ExactScalar") -> "ExactScalar":
        if not self.im and not other.im:
            return ExactScalar(self.re + other.re, _Q0)
        return ExactScalar(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "ExactScalar") -> "ExactScalar":
        if not self.im and not other.im:
            return ExactScalar(self.re - other.re, _Q0)
        return ExactScalar(self.re - other.re, self.im - other.im)

    def __neg__(self) -> "ExactScalar":
        return ExactScalar(-self.re, -self.im)

    def __mul__(self, other: "ExactScalar") -> "ExactScalar":
        if not self.im and not other.im:
            return ExactScalar(self.re * other.re, _Q0)
        return ExactScalar(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def to_complex(self) -> complex:
        try:
            return complex(self.re) + 1j * complex(self.im)
        except OverflowError:  # the one conversion to floats names what does not fit
            text = repr(self)
            text = text if len(text) <= 40 else text[:40] + "..."
            raise FloatRangeError(f"{text} lies beyond double range") from None

    def to_json(self) -> list[int]:
        return [
            self.re.numerator,
            self.re.denominator,
            self.im.numerator,
            self.im.denominator,
        ]

    @staticmethod
    def from_json(data) -> "ExactScalar":
        rn, rd, in_, id_ = data
        return ExactScalar(Fraction(rn, rd), Fraction(in_, id_))

    def __repr__(self) -> str:
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            return f"{self.im}i"
        return f"({self.re}{'+' if self.im > 0 else '-'}{abs(self.im)}i)"


_Q0 = Fraction(0)
ZERO = ExactScalar.of(0)
ONE = ExactScalar.of(1)


@dataclass(frozen=True)
class ExactMatrix:
    """Immutable row-major matrix over Q(i).  Degenerate shapes are legal."""

    rows: int
    cols: int
    entries: tuple

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise ValueError("negative matrix dimension")
        if len(self.entries) != self.rows * self.cols:
            raise ValueError(
                f"entry count {len(self.entries)} != {self.rows}x{self.cols}"
            )

    @staticmethod
    def from_rows(rows) -> "ExactMatrix":
        rows = [list(r) for r in rows]
        nr = len(rows)
        nc = len(rows[0]) if rows else 0
        if any(len(r) != nc for r in rows):
            raise ValueError("ragged rows")
        return ExactMatrix(nr, nc, tuple(x for r in rows for x in r))

    @staticmethod
    def identity(n: int) -> "ExactMatrix":
        return ExactMatrix(
            n, n, tuple(ONE if i == j else ZERO for i in range(n) for j in range(n))
        )

    def get(self, i: int, j: int) -> ExactScalar:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def to_numpy(self) -> np.ndarray:
        return np.array([e.to_complex() for e in self.entries]).reshape(self.rows, self.cols)

    def matmul(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch in matmul")
        out = []
        for i in range(self.rows):
            for j in range(other.cols):
                acc = ZERO
                for k in range(self.cols):
                    acc = acc + self.get(i, k) * other.get(k, j)
                out.append(acc)
        return ExactMatrix(self.rows, other.cols, tuple(out))

    def __sub__(self, other: "ExactMatrix") -> "ExactMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in subtraction")
        return ExactMatrix(
            self.rows, self.cols, tuple(a - b for a, b in zip(self.entries, other.entries))
        )

    def to_json(self):
        return {
            "rows": self.rows,
            "cols": self.cols,
            "entries": [e.to_json() for e in self.entries],
        }

    @staticmethod
    def from_json(data) -> "ExactMatrix":
        return ExactMatrix(
            data["rows"],
            data["cols"],
            tuple(ExactScalar.from_json(e) for e in data["entries"]),
        )


# -- exact elimination (one integer primitive-row loop) ----------------------


def _cleared(v) -> tuple:
    """The ``ExactScalar`` vector ``v`` times the lcm of its denominators, as
    two integer lists: real parts and imaginary parts."""
    scale = math.lcm(*(e.re.denominator for e in v), *(e.im.denominator for e in v))
    re = [e.re.numerator * (scale // e.re.denominator) for e in v]
    return re, [e.im.numerator * (scale // e.im.denominator) for e in v]


def _integer_matrix(pairs) -> tuple:
    """``(rows, real)``: the integer matrix that ``_echelon`` takes for the
    rows re + i im of ``pairs``.  That is the real parts when every
    imaginary part is 0, and otherwise the realified matrix: each entry
    a + bi becomes the 2x2 block [[a, -b], [b, a]]."""
    if not any(any(im) for _, im in pairs):
        return [re for re, _ in pairs], True
    out = []
    for re, im in pairs:
        out.append([x for a, b in zip(re, im) for x in (a, -b)])
        out.append([x for a, b in zip(re, im) for x in (b, a)])
    return out, False


def _divide_exact(values, d) -> list:
    """The quotients ``values[k] / d``; a remainder raises ``ArithmeticError``."""
    quotients = [v // d for v in values]
    if [q * d for q in quotients] != values:
        raise ArithmeticError("inexact division in fraction-free elimination")
    return quotients


def _echelon(rows):
    """Fraction-free row echelon form of the integer matrix ``rows`` (a list
    of int lists, eliminated in place): ``(rows, pivots)``.

    Primitive-row elimination: at each pivot, a row below with a nonzero
    lead becomes ``piv * row - lead * pivot_row``, divided by its content
    (the gcd of its entries; the one checked exact division,
    ``_divide_exact``).  A row with a zero lead is left as it is.  Each row
    stays a nonzero multiple of its Bareiss row, so swaps and pivots are
    Bareiss's, and a rewritten row is primitive: no entry exceeds its
    Bareiss counterpart.  A realified Gaussian matrix (``_integer_matrix``)
    has pivot pairs (2j, 2j + 1), one per pivot j over Q(i).

    ``pivots`` lists the pivot columns in order; ``rows[r]`` is the echelon
    row of ``pivots[r]``.  Its entries from ``pivots[r]`` on are final; those
    before it are not updated and read as zero.
    """
    nrows, ncols = len(rows), len(rows[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, nrows) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        piv = rows[r][c]
        tail = rows[r][c + 1 :]
        for i in range(r + 1, nrows):
            row = rows[i]
            lead = row[c]
            if lead:  # column c is never read again, so only the columns after it move
                new = [a * piv - lead * b for a, b in zip(row[c + 1 :], tail)]
                content = math.gcd(*new)
                row[c + 1 :] = new if content < 2 else _divide_exact(new, content)
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return rows, pivots


def _pivots(pairs) -> list:
    """The pivot columns over Q(i) of the integer rows re + i im of ``pairs``."""
    rows, real = _integer_matrix(pairs)
    pivots = _echelon(rows)[1]
    return pivots if real else [p // 2 for p in pivots[::2]]


def exact_rank(m: ExactMatrix) -> int:
    """Rank of ``m`` over Q(i): the number of pivots of ``_echelon``."""
    return len(_pivots([_cleared(m.row(i)) for i in range(m.rows)]))


def exact_solve(columns, target) -> tuple:
    """The x with sum_k x_k * columns[k] = target, over Q(i).

    Back substitution on the echelon form of [columns | target], each row
    cleared of denominators.  Raises ``ArithmeticError`` when the columns
    are dependent (x is not unique) or target lies outside their span (no x
    exists).
    """
    n = len(columns)
    augmented = [_cleared([*(c[r] for c in columns), t]) for r, t in enumerate(target)]
    rows, real = _integer_matrix(augmented)
    rows, pivots = _echelon(rows)
    size = n if real else 2 * n  # integer columns of the unknowns
    if pivots and pivots[-1] >= size:
        raise ArithmeticError("target does not lie in the span of the columns")
    if len(pivots) < size:
        raise ArithmeticError("dependent columns: the solution is not unique")
    # the pivots are 0..size-1, so echelon row k has its pivot in column k;
    # unknown k is x[k] (real) or x[2k] + i x[2k+1] (realified)
    x = [_Q0] * size
    for k in reversed(range(size)):
        row = rows[k]
        x[k] = (row[size] - sum(row[j] * x[j] for j in range(k + 1, size))) / Fraction(row[k])
    parts = zip(x, [_Q0] * n) if real else zip(x[::2], x[1::2])
    return tuple(ExactScalar(re, im) for re, im in parts)


"""Exact Gaussian-rational scalars and matrices, with rank in two regimes.

Every rank claim in this package reduces to one of two kernels:

* ``exact_rank`` -- fraction-free (Bareiss) elimination over the Gaussian
  integers, after clearing denominators row by row.  No tolerance, no
  rounding; the answer is the rank over Q(i).
* ``numeric_rank`` -- singular values of a complex double matrix with a
  relative threshold.

Matrices here are small (tens of rows), so exactness is cheap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

__all__ = [
    "ExactScalar",
    "ExactMatrix",
    "FloatMatrix",
    "SingularValueError",
    "exact_rank",
    "numeric_rank",
]


class SingularValueError(RuntimeError):
    """The SVD iteration failed to converge within the attempt budget."""


def _to_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"cannot build an exact rational from {type(x).__name__}")


@dataclass(frozen=True)
class ExactScalar:
    """An element of Q(i): exact rational real and imaginary parts."""

    re: Fraction
    im: Fraction

    @staticmethod
    def of(re, im=0) -> "ExactScalar":
        return ExactScalar(_to_fraction(re), _to_fraction(im))

    def __add__(self, other: "ExactScalar") -> "ExactScalar":
        return ExactScalar(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "ExactScalar") -> "ExactScalar":
        return ExactScalar(self.re - other.re, self.im - other.im)

    def __neg__(self) -> "ExactScalar":
        return ExactScalar(-self.re, -self.im)

    def __mul__(self, other: "ExactScalar") -> "ExactScalar":
        return ExactScalar(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def __truediv__(self, other: "ExactScalar") -> "ExactScalar":
        d = other.re * other.re + other.im * other.im
        if d == 0:
            raise ZeroDivisionError("division by exact zero")
        return ExactScalar(
            (self.re * other.re + self.im * other.im) / d,
            (self.im * other.re - self.re * other.im) / d,
        )

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def to_complex(self) -> complex:
        return complex(self.re) + 1j * complex(self.im)

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

    @staticmethod
    def zeros(rows: int, cols: int) -> "ExactMatrix":
        return ExactMatrix(rows, cols, (ZERO,) * (rows * cols))

    def get(self, i: int, j: int) -> ExactScalar:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def to_numpy(self) -> np.ndarray:
        return np.array([e.to_complex() for e in self.entries]).reshape(self.rows, self.cols)

    def transpose(self) -> "ExactMatrix":
        return ExactMatrix(
            self.cols,
            self.rows,
            tuple(self.get(i, j) for j in range(self.cols) for i in range(self.rows)),
        )

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

    def to_float(self) -> "FloatMatrix":
        return FloatMatrix(
            self.rows, self.cols, tuple(e.to_complex() for e in self.entries)
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


@dataclass(frozen=True)
class FloatMatrix:
    """Row-major complex double matrix; all entries must be finite."""

    rows: int
    cols: int
    entries: tuple

    def __post_init__(self):
        if len(self.entries) != self.rows * self.cols:
            raise ValueError("entry count does not match shape")
        for e in self.entries:
            c = complex(e)
            if not (math.isfinite(c.real) and math.isfinite(c.imag)):
                raise ValueError("non-finite entry in FloatMatrix")

    @staticmethod
    def from_numpy(a: np.ndarray) -> "FloatMatrix":
        a = np.asarray(a, dtype=complex)
        if a.ndim != 2:
            raise ValueError("expected a 2-d array")
        return FloatMatrix(a.shape[0], a.shape[1], tuple(complex(x) for x in a.ravel()))

    def to_numpy(self) -> np.ndarray:
        return np.array(self.entries, dtype=complex).reshape(self.rows, self.cols)


# -- exact rank (Bareiss over Gaussian integers) -----------------------------


def _gi_mul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _gi_sub(a, b):
    return (a[0] - b[0], a[1] - b[1])


def _gi_divexact(a, b):
    # (a / b) for Gaussian integers when the division is exact.
    n = b[0] * b[0] + b[1] * b[1]
    re = a[0] * b[0] + a[1] * b[1]
    im = a[1] * b[0] - a[0] * b[1]
    qr, rr = divmod(re, n)
    qi, ri = divmod(im, n)
    if rr or ri:
        raise ArithmeticError("inexact division in fraction-free elimination")
    return (qr, qi)


def _lcm(a: int, b: int) -> int:
    return a // math.gcd(a, b) * b


def exact_rank(m: ExactMatrix) -> int:
    """Rank of ``m`` over Q(i), by fraction-free elimination.

    Each row is scaled by the lcm of its denominators (rank-preserving), and
    Bareiss two-step elimination runs over Gaussian integers, so intermediate
    entries stay polynomially bounded and every division is exact.
    """
    if m.rows == 0 or m.cols == 0:
        return 0
    work = []
    for i in range(m.rows):
        row = m.row(i)
        scale = 1
        for e in row:
            scale = _lcm(scale, e.re.denominator)
            scale = _lcm(scale, e.im.denominator)
        work.append(
            [(int(e.re * scale), int(e.im * scale)) for e in row]
        )
    nrows, ncols = m.rows, m.cols
    prev = (1, 0)
    r = 0
    for c in range(ncols):
        pivot = None
        for i in range(r, nrows):
            if work[i][c] != (0, 0):
                pivot = i
                break
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        piv = work[r][c]
        for i in range(r + 1, nrows):
            lead = work[i][c]
            for j in range(c + 1, ncols):
                num = _gi_sub(_gi_mul(work[i][j], piv), _gi_mul(lead, work[r][j]))
                work[i][j] = _gi_divexact(num, prev)
            work[i][c] = (0, 0)
        prev = piv
        r += 1
        if r == nrows:
            break
    return r


# -- numeric rank -------------------------------------------------------------


_SVD_ATTEMPTS = 2  # SVD tries, alternating the matrix and its conjugate transpose


def numeric_rank(m: FloatMatrix, rel_tol: float = 1e-10):
    """Numeric rank and singular values of ``m``.

    Returns ``(rank, singular_values)`` where rank counts the singular values
    above ``rel_tol * sigma_max`` (0 when the matrix is zero or empty); the
    default threshold is 1e-10 relative to the largest singular value.  If
    the LAPACK iteration fails to converge, the computation is retried on the
    conjugate transpose (``_SVD_ATTEMPTS`` tries in all) and then reported as a
    :class:`SingularValueError` rather than returning a silently wrong rank.
    """
    if not 0 < rel_tol < 1:
        raise ValueError("rel_tol must lie in (0, 1)")
    if m.rows == 0 or m.cols == 0:
        return 0, []
    a = m.to_numpy()
    last_err = None
    for attempt in range(_SVD_ATTEMPTS):
        try:
            s = np.linalg.svd(a if attempt % 2 == 0 else a.conj().T, compute_uv=False)
            break
        except np.linalg.LinAlgError as err:  # pragma: no cover - rare
            last_err = err
    else:  # pragma: no cover - rare
        raise SingularValueError(
            f"SVD failed to converge after {_SVD_ATTEMPTS} attempts"
        ) from last_err
    values = [float(x) for x in s]
    smax = values[0] if values else 0.0
    if smax == 0.0:
        return 0, values
    rank = sum(1 for x in values if x > rel_tol * smax)
    return rank, values

"""Canonical multiplication maps and the rank criteria built on them.

The central object is the bilinear multiplication of holomorphic
differentials into quadratic differentials, restricted to a chosen subspace
W of the weight-1 space.  Everything downstream is a rank statement about
its matrix:

* full domain surjectivity check (Max Noether dichotomy),
* randomized scans over small-integer subspaces W,
* the injectivity criterion for a differential system, evaluated through
  the span of its contraction image.

The map is bilinear, and the product of weight-1 basis elements i and j is
the single weight-2 basis element ``product_slots(curve)[i][j]``.  So a
column of a theta matrix is a W generator's coordinates placed at the slots
of one table row: no product of differentials is formed, and no arithmetic
is done.  Ranks are taken on integers: a scan keeps its drawn integer rows
end to end, and other verdicts clear each generator of denominators once.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .curves import Curve, curve_to_json, product_slots
from . import field
from .field import ExactMatrix, ZERO, exact_rank

__all__ = [
    "SubspaceSelection",
    "MultiplicationMatrix",
    "NoetherVerdict",
    "ScanReport",
    "CriterionVerdict",
    "theta_matrix",
    "noether_check",
    "lazarsfeld_scan",
    "criterion_injective",
    "exact_row_basis",
]


@dataclass(frozen=True)
class SubspaceSelection:
    """A subspace of the weight-1 space of ``curve``, spanned by exact
    coordinate vectors over its monomial basis."""

    curve: Curve
    generators: tuple  # tuple of coordinate tuples over the weight-1 basis

    def __post_init__(self):
        g = self.curve.genus
        if any(len(v) != g for v in self.generators):
            raise ValueError("generator length does not match the genus")
        if self.generators:
            mat = ExactMatrix.from_rows(self.generators)
            if exact_rank(mat) != len(self.generators):
                raise ValueError("dependent generators in subspace selection")

    @property
    def dimension(self) -> int:
        return len(self.generators)


@dataclass(frozen=True)
class MultiplicationMatrix:
    """Matrix of the multiplication map on H0(K) (x) W, with exact rank.

    Rows follow the weight-2 basis order; column ``i * dim W + j`` is the
    product of weight-1 basis element ``i`` with W generator ``j``.
    """

    matrix: ExactMatrix
    rank: int


def theta_matrix(curve, w: SubspaceSelection) -> MultiplicationMatrix:
    """Multiplication restricted to H0(K) (x) W, with exact rank certificate."""
    if w.curve != curve:
        raise ValueError("subspace W lies on a different curve")
    rank = _theta_rank(curve, [field._cleared(v) for v in w.generators])
    return MultiplicationMatrix(ExactMatrix.from_rows(_placed(curve, w.generators, ZERO)), rank)


def _placed(curve, generators, zero) -> list:
    """Theta's rows as lists: column (i, j) holds generator j's coordinate l
    at row ``product_slots(curve)[i][l]``.  A row of the table has distinct
    slots, so every entry is one coordinate, never a sum."""
    g, k = curve.genus, len(generators)
    rows = [[zero] * (g * k) for _ in range(3 * g - 3)]
    for i, slots in enumerate(product_slots(curve)):
        for col, coords in enumerate(generators, i * k):
            for r, c in zip(slots, coords):
                rows[r][col] = c
    return rows


def _theta_rank(curve, pairs) -> int:
    """Rank of theta over Q(i) for generators given as integer (re, im)
    lists, each cleared of denominators: a column scaling, which keeps the
    rank.  The imaginary theta is placed only when some generator has a
    nonzero imaginary part; otherwise every row reads as real."""
    rows = _placed(curve, [a for a, _ in pairs], 0)
    if any(any(b) for _, b in pairs):
        ims = _placed(curve, [b for _, b in pairs], 0)
    else:
        ims = [()] * len(rows)
    return len(field._pivots(list(zip(rows, ims))))


def full_subspace(curve) -> SubspaceSelection:
    units = ExactMatrix.identity(curve.genus)
    return SubspaceSelection(curve, tuple(units.row(i) for i in range(units.rows)))


@dataclass(frozen=True)
class NoetherVerdict:
    surjective: bool
    rank: int
    corank: int

    def to_json(self):
        return {
            "verdict": "surjective" if self.surjective else "not_surjective",
            "rank": self.rank,
            "corank": self.corank,
        }


def noether_check(curve) -> NoetherVerdict:
    """Surjectivity verdict for multiplication on the full domain."""
    g = curve.genus
    rank = _theta_rank(curve, [([int(i == j) for j in range(g)], ()) for i in range(g)])
    return NoetherVerdict(rank == 3 * g - 3, rank, 3 * g - 3 - rank)


@dataclass(frozen=True)
class ScanReport:
    curve: object
    trials: int
    w_dim: int
    seed: int
    successes: int
    failure_witnesses: tuple  # tuples (trial, generators-as-int-rows)
    all_witnesses: tuple = ()  # populated when the scan records every draw

    def to_json(self):
        return {
            "curve": curve_to_json(self.curve),
            "trials": self.trials,
            "w_dim": self.w_dim,
            "seed": self.seed,
            "successes": self.successes,
            "failures": [
                {"trial": t, "generators": [list(map(int, row)) for row in gens]}
                for t, gens in self.failure_witnesses
            ],
        }


_COORD_BOUND = 10  # scan coordinates are integers in [-10, 10]
_DRAW_TRIES = 200  # draws before a scan trial gives up on independence


def _draw_subspace(g, w_dim, rng) -> list:
    """``w_dim`` integer rows of length ``g``, redrawn until independent: the
    rank of one ``field._echelon`` run on a copy of the rows."""
    for _ in range(_DRAW_TRIES):
        rows = [[rng.randint(-_COORD_BOUND, _COORD_BOUND) for _ in range(g)] for _ in range(w_dim)]
        if len(field._echelon([row[:] for row in rows])[1]) == w_dim:
            return rows
    raise RuntimeError("failed to draw an independent random subspace")


def lazarsfeld_scan(
    curve, trials: int, w_dim: int = 3, seed: int = 0, store_all: bool = False
) -> ScanReport:
    """Randomized surjectivity scan over ``trials`` seeded subspaces W.

    Coordinates are integers in [-10, 10] from per-trial generators derived
    from the master seed, so single trials replay independently.  They stay
    integers end to end, through both eliminations (independence, then the
    theta rank): a trial builds no exact scalar or matrix.  Trials run one
    after another in the calling thread: the exact arithmetic is pure
    Python and holds the interpreter lock, so threads would not overlap.
    Failures are recorded with their W; genericity means they are expected
    never on non-hyperelliptic targets and always on hyperelliptic ones of
    genus >= 3.  With ``store_all`` every drawn W is kept (with its rank)
    for replay and cross-checking, not only the failures.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    g = curve.genus
    if w_dim < 1 or w_dim > g:
        raise ValueError(f"w_dim must lie in 1..{g}")
    target = 3 * g - 3

    failures = []
    everything = []
    for t in range(trials):
        rows = _draw_subspace(g, w_dim, random.Random(f"{seed}:{t}"))
        rank = _theta_rank(curve, [(row, ()) for row in rows])
        witness = tuple(map(tuple, rows))
        if rank != target:
            failures.append((t, witness))
        if store_all:
            everything.append((t, witness, rank))
    successes = trials - len(failures)
    return ScanReport(curve, trials, w_dim, seed, successes, tuple(failures), tuple(everything))


@dataclass(frozen=True)
class CriterionVerdict:
    holds: bool
    v_dimension: int
    theta_v_rank: int

    def to_json(self):
        return {
            "verdict": "holds" if self.holds else "fails",
            "V_dimension": self.v_dimension,
            "theta_V_rank": self.theta_v_rank,
        }


def _independent(pairs) -> list:
    """Indices of the first maximal independent subset of the vectors
    re + i im of ``pairs``, in order: the pivot columns of the vectors taken
    as columns.  Scaling a column keeps the pivots, so each vector may be
    cleared of denominators on its own."""
    n = len(pairs[0][0]) if pairs else 0
    return field._pivots([([a[c] for a, _ in pairs], [b[c] for _, b in pairs]) for c in range(n)])


def exact_row_basis(vectors) -> list:
    """The first maximal exactly-independent subset of the given coordinate
    vectors, in order."""
    vectors = [tuple(v) for v in vectors]
    return [vectors[k] for k in _independent([field._cleared(v) for v in vectors])]


def criterion_injective(curve, system) -> CriterionVerdict:
    """Injectivity criterion for a differential system, via its span V.

    V is the row span of the coefficient matrix inside the weight-1 space;
    the verdict holds exactly when multiplication restricted to H0(K) (x) V
    surjects onto the quadratic differentials.  The verdict carries both
    dim V and the achieved rank so hyperelliptic obstructions and
    too-small-V failures stay distinguishable.  Each coefficient row is
    cleared once, for both eliminations: V's basis, then the theta rank.
    """
    if system.curve != curve:
        raise ValueError("system is attached to a different curve")
    coeff = system.coefficients
    pairs = [field._cleared(coeff.row(i)) for i in range(coeff.rows)]
    v_basis = [pairs[k] for k in _independent(pairs)]
    if not v_basis:
        return CriterionVerdict(False, 0, 0)
    rank = _theta_rank(curve, v_basis)  # rows chosen independent: no second check
    return CriterionVerdict(rank == 3 * curve.genus - 3, len(v_basis), rank)

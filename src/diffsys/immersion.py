"""Finite-difference rank estimation for the monodromy map.

Local coordinates on the space of (curve, system) pairs are explicit slices,
never quotients:

* Teichmueller directions move branch points; the first two branch points
  are pinned at 0 and 1 (with the odd-model point at infinity fixing the
  third normalization), leaving 2g-1 moving complex parameters;
* constant-gauge directions are killed by freezing three designated sl2
  coefficient entries (the E- and F-components on the first differential
  and the H-component on the second) at their center values, after checking
  exactly that the adjoint action is transverse to this slice; that check
  reads the frozen entries of [e_i, M] off the structure constants.

For genus 2 the free complex parameter count is 3 + 3 = 6, matching the
dimension of the system space.  For hyperelliptic genus >= 3 the branch
moves span only the hyperelliptic locus (2g-1 of 3g-3 directions) and the
exact injectivity criterion never holds on such curves, so those runs are
labeled exploratory and carry no pass/fail meaning.

An experiment's center and its perturbed systems are one family, and a
family is two stacked arrays, branch roots and connection matrices
(:mod:`diffsys.monodromy`): each perturbed row is the center's plus delta
times one direction's unit move, formed by one broadcast.  The loop system
is frozen across the family, and perturbation radii are capped well below
the loop clearance, so every perturbed system runs along literally
identical base-line edges, takes each stem and circle as one turn in its
own chart, and shares both batched sweeps' step sequences with the center.

All complex parameters and traces are split into real and imaginary parts.
The map is holomorphic, so the real Jacobian has even rank and paired
singular values; reports state the complex rank (real rank / 2) and record
whether evenness held.  When the estimated rank equals the full dimension
there is no trailing singular value to form a gap against, so the gap ratio
is taken against the detection floor ``_RANK_REL_FLOOR * sigma_1`` (1e-6 sigma_1).

Branch directions and coefficient directions carry very different natural
units, which skews raw singular values without changing the rank.  Before
the gap analysis the Jacobian is therefore equilibrated: the two real
columns of each complex parameter share one normalizing factor, as do the
two real rows of each trace, which is a diffeomorphic change of chart on
either side and keeps the paired structure intact.  The raw spectrum is
reported alongside.  Both spectra are the singular values of real arrays,
and the rank is read from the equilibrated one by the gap rule alone
(``_gap_rank``); the report keeps the Jacobian as a ``FloatMatrix``.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .curves import HyperellipticCurve, curve_to_json
from .field import ONE, ZERO, ExactMatrix, ExactScalar, exact_rank
from .multiplication import CriterionVerdict, criterion_injective
from .monodromy import (
    IntegrationError,
    InvalidRepresentationError,
    IrreducibilityVerdict,
    LoopSystem,
    MonodromyRepresentation,
    build_loops,
    float_system,
    irreducibility_probe,
    monodromy_family,
    standard_word_list,
    trace_values,
)
from .systems import DifferentialSystem, builtin_algebra, sample_system, scale_system, system_to_json

__all__ = [
    "GAUGE_FROZEN_ENTRIES",
    "SystCoordinates",
    "FloatMatrix",
    "ImmersionReport",
    "LadderReport",
    "make_center",
    "gauge_slice_regular",
    "immersion_experiment",
    "fd_step_ladder",
]

# frozen (row, col) entries of the 3 x g sl2 coefficient matrix, rows = (H, E, F)
GAUGE_FROZEN_ENTRIES = ((1, 0), (2, 0), (0, 1))


def gauge_slice_regular(system: DifferentialSystem) -> bool:
    """Exact transversality of the adjoint action to the frozen-entry slice,
    read off the structure constants: entry (r, c) of [e_i, M] is
    sum_j coeff[j, c] table[i][j][r], and the frozen entries of [e_i, M] for
    i = H, E, F form a 3 x 3 matrix that must have exact rank 3."""
    table, coeff = system.lie.structure_constants, system.coefficients
    return exact_rank(ExactMatrix.from_rows(
        [sum((coeff.get(j, c) * table[i][j][r] for j in range(3)), ZERO) for i in range(3)]
        for r, c in GAUGE_FROZEN_ENTRIES
    )) == 3


@dataclass(frozen=True)
class SystCoordinates:
    """A center point of the system space with its frozen chart data.

    ``allow_singular_gauge_slice`` admits centers where the adjoint action is
    not transverse to the frozen entries (e.g. the zero system); such runs
    are exploratory by nature and the flag is recorded in the report config.
    """

    system: DifferentialSystem
    loops: LoopSystem
    allow_singular_gauge_slice: bool = False

    def __post_init__(self):
        curve = self.system.curve
        if not isinstance(curve, HyperellipticCurve) or not curve.odd_model:
            raise ValueError("immersion centers use odd-model hyperelliptic curves")
        if curve.branch_points[:2] != (ZERO, ONE):
            raise ValueError("center curve must be normalized with branch points 0 and 1")
        if self.system.lie.name != "sl2":
            raise ValueError("immersion experiments support sl2 systems only")
        if not self.allow_singular_gauge_slice and not gauge_slice_regular(self.system):
            raise ValueError(
                "gauge slice is singular at this center; resample the system"
            )

    @property
    def genus(self) -> int:
        return self.system.curve.genus

    def parameter_labels(self) -> list:
        g = self.genus
        labels = [("branch", k) for k in range(2, 2 * g + 1)]
        labels += [
            ("coeff", (r, c))
            for r in range(3)
            for c in range(g)
            if (r, c) not in GAUGE_FROZEN_ENTRIES
        ]
        return labels

    @property
    def free_complex_count(self) -> int:
        return len(self.parameter_labels())

    def to_json(self):
        return {
            "curve": curve_to_json(self.system.curve),
            "system": system_to_json(self.system),
            "clearance": self.loops.clearance,
            "frozen_entries": [list(e) for e in GAUGE_FROZEN_ENTRIES],
            "free_complex_parameters": self.free_complex_count,
            "allow_singular_gauge_slice": self.allow_singular_gauge_slice,
        }


_CENTER_TRIES = 64  # system samples before a center gives up on regularity
_RANK_REL_FLOOR = 1e-6  # detection floor of the gap rule, relative to sigma_1


def make_center(
    seed: int,
    branch=(0, 1, 2, 3, 4),
    coefficient_bound: int = 5,
    scale: Fraction = Fraction(1, 8),
    clearance: float = 0.22,
    require_criterion: bool = False,
) -> SystCoordinates:
    """Seeded center with a regular gauge slice (resampling until regular).

    ``scale`` multiplies the sampled integer coefficients; small scales keep
    monodromy matrices moderate, which the finite-difference noise floor
    rewards.  With ``require_criterion`` the sampled system must also pass
    the exact injectivity criterion.  ``ValueError`` when none of
    ``_CENTER_TRIES`` samples qualifies (as with ``coefficient_bound`` 0).
    """
    curve = HyperellipticCurve.from_integers(branch)
    lie = builtin_algebra("sl2")
    factor = ExactScalar.of(scale)
    loops = build_loops(curve, clearance)
    for k in range(_CENTER_TRIES):
        system = scale_system(
            sample_system(curve, lie, seed=seed + 7919 * k, coefficient_bound=coefficient_bound),
            factor,
        )
        if not gauge_slice_regular(system):
            continue
        if require_criterion and not criterion_injective(curve, system).holds:
            continue
        return SystCoordinates(system, loops)
    raise ValueError("failed to sample a regular center")


@dataclass(frozen=True)
class FloatMatrix:
    """Row-major complex double matrix; all entries must be finite."""

    rows: int
    cols: int
    entries: tuple

    def __post_init__(self):
        if len(self.entries) != self.rows * self.cols:
            raise ValueError("entry count does not match shape")
        if not all(map(cmath.isfinite, self.entries)):
            raise ValueError("non-finite entry in FloatMatrix")

    @staticmethod
    def from_numpy(a: np.ndarray) -> "FloatMatrix":
        a = np.asarray(a, dtype=complex)
        if a.ndim != 2:
            raise ValueError("expected a 2-d array")
        return FloatMatrix(a.shape[0], a.shape[1], tuple(complex(x) for x in a.ravel()))

    def to_numpy(self) -> np.ndarray:
        return np.array(self.entries, dtype=complex).reshape(self.rows, self.cols)


@dataclass(frozen=True)
class ImmersionReport:
    jacobian: FloatMatrix
    singular_values: tuple  # equilibrated spectrum used for the rank decision
    raw_singular_values: tuple
    estimated_rank: int  # complex rank = real rank / 2
    real_rank: int
    rank_even: bool
    gap_ratio: float
    fd_steps_used: tuple
    criterion_verdict: CriterionVerdict
    irreducibility: IrreducibilityVerdict
    center_rep: MonodromyRepresentation
    status: str  # "ok" | "out_of_hypothesis" | "exploratory"
    per_block_column_norms: dict
    words: tuple

    def to_json(self):
        return {
            "singular_values": list(self.singular_values),
            "raw_singular_values": list(self.raw_singular_values),
            "estimated_rank": self.estimated_rank,
            "real_rank": self.real_rank,
            "rank_even": self.rank_even,
            "gap_ratio": self.gap_ratio,
            "fd_steps_used": list(self.fd_steps_used),
            "criterion": self.criterion_verdict.to_json(),
            "irreducibility": self.irreducibility.to_json(),
            "relation_residual": self.center_rep.relation_residual,
            "status": self.status,
            "per_block_column_norms": self.per_block_column_norms,
            "words": ["*".join(w) for w in self.words],
        }


def _gap_rank(sigma):
    """(real_rank, gap_ratio) by the documented gap rule over the spectrum."""
    if not sigma or sigma[0] == 0.0:
        return 0, 0.0
    s1 = sigma[0]
    floor = _RANK_REL_FLOOR * s1
    best_r, best_ratio = 0, 0.0
    m = len(sigma)
    for r in range(1, m + 1):
        if sigma[r - 1] <= floor:
            break
        nxt = sigma[r] if r < m else floor
        ratio = sigma[r - 1] / max(nxt, 1e-300)
        if ratio > best_ratio:
            best_r, best_ratio = r, ratio
    return best_r, best_ratio


def _equilibrate(jac: np.ndarray) -> np.ndarray:
    """Unit-scale the column pair of each complex parameter and the row pair
    of each trace coordinate (rank-preserving, keeps sigma pairing)."""
    out = jac.copy()
    for k in range(out.shape[1] // 2):
        n = np.linalg.norm(out[:, 2 * k : 2 * k + 2])
        if n > 0:
            out[:, 2 * k : 2 * k + 2] /= n
    for k in range(out.shape[0] // 2):
        n = np.linalg.norm(out[2 * k : 2 * k + 2, :])
        if n > 0:
            out[2 * k : 2 * k + 2, :] /= n
    return out


def _check_step(center: SystCoordinates, fd_step: float):
    # no collision check: build_loops' radius rule keeps branch points over
    # 2.26 * clearance apart, so a move of 2 * fd_step <= clearance / 2 reaches
    # none, and the turn guards refuse another root within 0.9 clearance of a letter's circle
    if not 0 < fd_step < math.inf:
        raise ValueError("fd_step must be positive and finite")
    if fd_step > center.loops.clearance / 4:
        raise ValueError(
            f"fd_step {fd_step} exceeds a quarter of the loop clearance {center.loops.clearance}"
        )


def _experiments(center: SystCoordinates, steps, ode_tol):
    """One report per fd step, from a single batched monodromy call.

    The batch holds the center and, for every step, the +delta and -delta
    systems of each real direction, so all columns of all steps share one
    step sequence (internal numerical differentiation).  It is one family
    of two stacked arrays: row 0 the center, then the center plus delta
    times each label's unit move (branch point k by 1, or M_c by rho(e_r)),
    in the batch order (step, label, delta along 1 then i, +delta then
    -delta), which makes the perturbed traces one (steps, directions, 2,
    words) block; the central differences of all of it are one expression,
    and step k's (directions, words) slice is its report's columns.  A
    failing perturbed system is reported under its direction and step.
    """
    for fd_step in steps:
        _check_step(center, fd_step)
    roots, matrices = float_system(center.system)
    rho = np.array([m.to_numpy() for m in center.system.lie.rep_matrices])
    labels = center.parameter_labels()
    root_moves = np.zeros((len(labels), *roots.shape), dtype=complex)
    matrix_moves = np.zeros((len(labels), *matrices.shape), dtype=complex)
    for j, (kind, where) in enumerate(labels):
        if kind == "branch":
            root_moves[j, where] = 1
        else:
            matrix_moves[j, where[1]] = rho[where[0]]
    deltas = [[(d, -d) for d in (fd_step * unit for unit in (1 + 0j, 1j))] for fd_step in steps]
    delta = np.array(deltas)[:, None]  # (steps, 1, 2, 2), broadcast over the labels

    def family(rows, unit_moves):
        """``rows`` (the center's), then rows + delta * unit move in batch order."""
        moved = rows + delta.reshape(delta.shape + (1,) * rows.ndim) * unit_moves[:, None, None]
        return np.concatenate([rows[None], moved.reshape(-1, *rows.shape)])

    def direction_failed(index, err):
        step, j, unit, _ = np.unravel_index(index - 1, (len(steps), len(labels), 2, 2))
        return IntegrationError(
            f"finite-difference direction {labels[j]} (step {deltas[step][unit][0]}) failed: {err}"
        )

    # hypothesis gates at the center
    verdict = criterion_injective(center.system.curve, center.system)
    try:
        reps = monodromy_family(family(roots, root_moves), family(matrices, matrix_moves),
                                center.loops, ode_tol)
    except IntegrationError as err:
        if err.member is None or err.member[0] == 0:
            raise
        raise direction_failed(err.member[0], err) from err
    center_rep = reps[0]
    probe = irreducibility_probe(center_rep)
    if center.genus >= 3:
        status = "exploratory"
    elif not probe.probably_irreducible or not verdict.holds:
        status = "out_of_hypothesis"
    else:
        status = "ok"

    try:
        traces = trace_values(reps[1:])
    except InvalidRepresentationError as err:
        raise direction_failed(err.index + 1, err) from err

    pairs = traces.reshape(len(steps), 2 * len(labels), 2, -1)
    cols = (pairs[:, :, 0] - pairs[:, :, 1]) / (2 * np.array(steps))[:, None, None]
    return [
        _report(center, fd_step, block, verdict, probe, center_rep, status)
        for fd_step, block in zip(steps, cols)
    ]


def _report(center, fd_step, cols, verdict, probe, center_rep, status):
    """The report of one step; ``cols`` is its (directions, words) block."""
    g = center.genus
    words = standard_word_list(g)
    jac = np.empty((2 * len(words), len(cols)))
    jac[0::2] = cols.real.T
    jac[1::2] = cols.imag.T

    raw_sigma = np.linalg.svd(jac, compute_uv=False).tolist()
    sigma = np.linalg.svd(_equilibrate(jac), compute_uv=False).tolist()
    real_rank, gap_ratio = _gap_rank(sigma)
    even = real_rank % 2 == 0

    nbranch = 2 * (2 * g - 1)
    col_norms = np.linalg.norm(jac, axis=0)
    blocks = {"branch": col_norms[:nbranch].tolist(), "coeff": col_norms[nbranch:].tolist()}
    return ImmersionReport(
        jacobian=FloatMatrix.from_numpy(jac),
        singular_values=tuple(sigma),
        raw_singular_values=tuple(raw_sigma),
        estimated_rank=real_rank // 2,
        real_rank=real_rank,
        rank_even=even,
        gap_ratio=float(gap_ratio),
        fd_steps_used=(fd_step,),
        criterion_verdict=verdict,
        irreducibility=probe,
        center_rep=center_rep,
        status=status,
        per_block_column_norms=blocks,
        words=words,
    )


def immersion_experiment(
    center: SystCoordinates, fd_step: float, ode_tol: float = 1e-12
) -> ImmersionReport:
    """Central finite differences of the trace chart at one center.

    ``fd_step`` is at most a quarter of the loop clearance; a perturbed
    system that fails its transport is named by its direction in the
    error.  One column per real coordinate; the center and every perturbed
    system are transported in one batch.
    """
    return _experiments(center, (fd_step,), ode_tol)[0]


@dataclass(frozen=True)
class LadderReport:
    steps: tuple
    reports: tuple
    ranks: tuple
    rank_stable: bool
    max_sigma_relative_deviation: float

    def to_json(self):
        return {
            "steps": list(self.steps),
            "ranks": list(self.ranks),
            "rank_stable": self.rank_stable,
            "max_sigma_relative_deviation": self.max_sigma_relative_deviation,
            "reports": [r.to_json() for r in self.reports],
        }


def fd_step_ladder(center: SystCoordinates, steps, ode_tol: float = 1e-12) -> LadderReport:
    """Run the experiment at every step of a ladder and compare spectra.

    All steps go into one batched monodromy call with a shared center.
    Needs at least three steps spanning at least two orders of magnitude;
    rank agreement across the ladder is the stability acceptance bar.
    """
    steps = tuple(float(s) for s in steps)
    if len(steps) < 3:
        raise ValueError("fd ladder needs at least 3 steps")
    if max(steps) / min(steps) < 99.999:
        raise ValueError("fd ladder must span at least two orders of magnitude")
    reports = tuple(_experiments(center, steps, ode_tol))
    ranks = tuple(r.estimated_rank for r in reports)
    sigma = np.array([r.singular_values for r in reports])  # (steps, 2 * labels)
    scale = np.maximum(np.maximum.outer(sigma[:, 0], sigma[:, 0]), 1e-300)
    dev = float(np.max(np.abs(sigma[:, None] - sigma[None]).max(axis=2) / scale))
    return LadderReport(steps, reports, ranks, len(set(ranks)) == 1, dev)

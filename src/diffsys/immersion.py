"""Finite-difference rank estimation for the monodromy map.

Local coordinates on the space of (curve, system) pairs are explicit slices,
never quotients:

* Teichmueller directions move branch points; the first two branch points
  are pinned at 0 and 1 (with the odd-model point at infinity fixing the
  third normalization), leaving 2g-1 moving complex parameters;
* constant-gauge directions are killed by freezing three designated sl2
  coefficient entries (the E- and F-components on the first differential
  and the H-component on the second) at their center values, after checking
  exactly that the adjoint action is transverse to this slice.

For genus 2 the free complex parameter count is 3 + 3 = 6, matching the
dimension of the system space.  For hyperelliptic genus >= 3 the branch
moves span only the hyperelliptic locus (2g-1 of 3g-3 directions) and the
exact injectivity criterion never holds on such curves, so those runs are
labeled exploratory and carry no pass/fail meaning.

The loop system is frozen across all perturbations of one experiment, and
perturbation radii are capped well below the loop clearance, so every
perturbed monodromy is computed along literally identical polylines, in one
batched transport that shares its step sequence with the center.

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
reported alongside.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .curves import HyperellipticCurve, curve_to_json
from .field import ExactMatrix, ExactScalar, FloatMatrix, exact_rank, numeric_rank
from .multiplication import CriterionVerdict, criterion_injective
from .monodromy import (
    IntegrationError,
    InvalidRepresentationError,
    IrreducibilityVerdict,
    LoopSystem,
    MonodromyRepresentation,
    NumericSystem,
    build_loops,
    irreducibility_probe,
    monodromy_batch,
    standard_word_list,
    trace_vector,
)
from .systems import DifferentialSystem, builtin_algebra, sample_system, scale_system, system_to_json

__all__ = [
    "GAUGE_FROZEN_ENTRIES",
    "SystCoordinates",
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
    """Exact transversality of the adjoint action to the frozen-entry slice."""
    lie = system.lie
    coeff = system.coefficients
    basis = [
        tuple(ExactScalar.of(1 if i == j else 0) for j in range(3)) for i in range(3)
    ]
    rows = []
    for row_idx, col_idx in GAUGE_FROZEN_ENTRIES:
        column = tuple(coeff.get(r, col_idx) for r in range(3))
        rows.append(
            tuple(lie.bracket(xi, column)[row_idx] for xi in basis)
        )
    return exact_rank(ExactMatrix.from_rows(rows)) == 3


@dataclass(frozen=True)
class SystCoordinates:
    """A center point of the system space with its frozen chart data.

    ``allow_singular_gauge_slice`` admits centers where the adjoint action is
    not transverse to the frozen entries (e.g. the zero system); such runs
    are exploratory by nature and the flag is recorded in the report config.
    """

    curve: HyperellipticCurve
    system: DifferentialSystem
    loops: LoopSystem
    clearance: float
    allow_singular_gauge_slice: bool = False

    def __post_init__(self):
        if not isinstance(self.curve, HyperellipticCurve) or not self.curve.odd_model:
            raise ValueError("immersion centers use odd-model hyperelliptic curves")
        pts = self.curve.branch_points
        if not (pts[0] - ExactScalar.of(0)).is_zero() or not (
            pts[1] - ExactScalar.of(1)
        ).is_zero():
            raise ValueError("center curve must be normalized with branch points 0 and 1")
        if self.system.lie.name != "sl2":
            raise ValueError("immersion experiments support sl2 systems only")
        if self.system.curve != self.curve:
            raise ValueError("system is attached to a different curve")
        if not self.allow_singular_gauge_slice and not gauge_slice_regular(self.system):
            raise ValueError(
                "gauge slice is singular at this center; resample the system"
            )

    @property
    def genus(self) -> int:
        return self.curve.genus

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
            "curve": curve_to_json(self.curve),
            "system": system_to_json(self.system),
            "clearance": self.clearance,
            "frozen_entries": [list(e) for e in GAUGE_FROZEN_ENTRIES],
            "free_complex_parameters": self.free_complex_count,
            "allow_singular_gauge_slice": self.allow_singular_gauge_slice,
        }


_CENTER_TRIES = 64  # system samples before a center gives up on regularity
_RANK_REL_FLOOR = 1e-6  # detection floor of the gap rule and numeric ranks, relative to sigma_1


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
    the exact injectivity criterion.
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
        return SystCoordinates(curve, system, loops, clearance)
    raise RuntimeError("failed to sample a regular center")


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


def _perturbed(base: NumericSystem, rho, label, delta: complex) -> NumericSystem:
    """``base`` moved by ``delta`` along a branch point or along coefficient
    (r, c), which adds delta * rho[r] to M_c; ``rho`` is the numeric defining
    representation, and only its nonzero entries are touched."""
    kind, where = label
    if kind == "branch":
        roots = list(base.roots)
        roots[where] = roots[where] + delta
        return NumericSystem(tuple(roots), base.matrices)
    r, c = where
    matrices = base.matrices.copy()
    moved = rho[r] != 0
    matrices[c][moved] += delta * rho[r][moved]
    return NumericSystem(base.roots, matrices)


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


def _check_step(center: SystCoordinates, base: NumericSystem, labels, fd_step: float):
    if fd_step <= 0:
        raise ValueError("fd_step must be positive")
    if fd_step > center.clearance / 4:
        raise ValueError(
            f"fd_step {fd_step} exceeds a quarter of the loop clearance {center.clearance}"
        )
    # guard against branch collisions for every probed direction
    for kind, where in labels:
        if kind != "branch":
            continue
        roots = list(base.roots)
        for other in roots[:where] + roots[where + 1 :]:
            if abs(roots[where] - other) <= 2 * fd_step:
                raise ValueError(
                    f"fd_step {fd_step} would collide branch point {where} with a neighbour"
                )


def _experiments(center: SystCoordinates, steps, ode_tol):
    """One report per fd step, from a single batched monodromy call.

    The batch holds the center and, for every step, the +delta and -delta
    systems of each real direction, so all columns of all steps share one
    step sequence (internal numerical differentiation).  A failing
    perturbed system is reported under its direction and step.
    """
    g = center.genus
    labels = center.parameter_labels()
    base = NumericSystem.from_system(center.system)
    rho = np.array([m.to_numpy() for m in center.system.lie.rep_matrices])
    for fd_step in steps:
        _check_step(center, base, labels, fd_step)

    directions = [(label, delta) for label in labels for delta in (1.0 + 0j, 1j)]
    systems = [base]
    probes = []  # (step, label, delta) per perturbed system, in batch order from 1
    for fd_step in steps:
        for label, unit in directions:
            delta = fd_step * unit
            systems += [_perturbed(base, rho, label, delta), _perturbed(base, rho, label, -delta)]
            probes += [(fd_step, label, delta)] * 2

    def direction_failed(index, err):
        _, label, delta = probes[index - 1]
        return IntegrationError(
            f"finite-difference direction {label} (step {delta}) failed: {err}"
        )

    # hypothesis gates at the center
    verdict = criterion_injective(center.curve, center.system)
    # perturbed evaluations only need trace accuracy; the center keeps the
    # strict default gates
    try:
        reps = monodromy_batch(systems, center.loops, ode_tol, relation_tol=1e-6, det_tol=1e-8)
    except IntegrationError as err:
        if err.member is None or err.member[0] == 0:
            raise
        raise direction_failed(err.member[0], err) from err
    center_rep = replace(reps[0], relation_tol=1e-8, det_tol=1e-10)
    probe = irreducibility_probe(center_rep)
    if g >= 3:
        status = "exploratory"
    elif not probe.probably_irreducible or not verdict.holds:
        status = "out_of_hypothesis"
    else:
        status = "ok"

    traces = [None]
    for index, rep in enumerate(reps[1:], start=1):
        try:
            traces.append(np.array(trace_vector(rep).values, dtype=complex))
        except InvalidRepresentationError as err:
            raise direction_failed(index, err) from err

    reports = []
    for k, fd_step in enumerate(steps):
        first = 1 + 2 * len(directions) * k
        cols = [
            (traces[first + 2 * j] - traces[first + 2 * j + 1]) / (2 * fd_step)
            for j in range(len(directions))
        ]
        reports.append(
            _report(center, fd_step, cols, verdict, probe, center_rep, status)
        )
    return reports


def _report(center, fd_step, cols, verdict, probe, center_rep, status):
    g = center.genus
    words = standard_word_list(g)
    jac = np.zeros((2 * len(words), len(cols)), dtype=float)
    for j, col in enumerate(cols):
        jac[0::2, j] = col.real
        jac[1::2, j] = col.imag

    fm = FloatMatrix.from_numpy(jac.astype(complex))
    _, raw_sigma = numeric_rank(fm, rel_tol=_RANK_REL_FLOOR)
    _, sigma = numeric_rank(
        FloatMatrix.from_numpy(_equilibrate(jac).astype(complex)), rel_tol=_RANK_REL_FLOOR
    )
    real_rank, gap_ratio = _gap_rank(sigma)
    even = real_rank % 2 == 0

    nbranch = 2 * (2 * g - 1)
    col_norms = np.linalg.norm(jac, axis=0)
    blocks = {
        "branch": [float(x) for x in col_norms[:nbranch]],
        "coeff": [float(x) for x in col_norms[nbranch:]],
    }
    return ImmersionReport(
        jacobian=fm,
        singular_values=tuple(float(s) for s in sigma),
        raw_singular_values=tuple(float(s) for s in raw_sigma),
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

    Aborts when a perturbed curve would collide branch points or break the
    frozen-loop validity radius; the offending direction is named in the
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
    dev = 0.0
    for i in range(len(reports)):
        for j in range(i + 1, len(reports)):
            si = np.array(reports[i].singular_values)
            sj = np.array(reports[j].singular_values)
            n = min(len(si), len(sj))
            if n == 0:
                continue
            scale = max(si[0], sj[0], 1e-300)
            dev = max(dev, float(np.max(np.abs(si[:n] - sj[:n])) / scale))
    return LadderReport(steps, reports, ranks, len(set(ranks)) == 1, dev)

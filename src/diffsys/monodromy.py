"""Numerical monodromy of rank-2 differential systems on hyperelliptic curves.

Loops
-----
``build_loops`` realizes a canonical generating system a_1, b_1, ..., a_g, b_g
of the fundamental group, based below the branch locus.  Each generator is a
word in elementary "lollipop" loops around single branch points; the words
come from an exact presentation-level construction (prefix products of the
elementary loops with explicit conjugators) whose defining property is that

    [a_1, b_1] [a_2, b_2] ... [a_g, b_g] = 1     exactly in pi_1,

so the surface-group relation holds by construction, not by accident of
homology.  Each word has even length, hence lifts to a closed loop on the
double cover.  Loops are assembled from their letters: clearance and the
continuation of sqrt(f) are checked once per letter, every letter must end on
the sheet opposite to its start, and a loop's vertices and per-vertex sheets
are its letters' polylines and sheet profiles end to end, with the sign
alternating from letter to letter.

Transport
---------
One kernel solves dY = (sum_j B_j omega_j) Y in a single numpy sweep for a
batch of *rows*, each a numeric system and a polyline (all with the same
vertex count), run on every sheet of a shared tuple of starting sheets; a
(row, sheet) pair is a *member*, starting from y = sheet * sqrt(f(x)) at its
first vertex.  The sweep runs an embedded Runge-Kutta 5(4) pair
(Dormand-Prince coefficients, PI step control) with one step sequence in the
segment parameter, shared by all members: a step is accepted when the
largest local error in the batch is within tolerance and every member passes
the sheet guard, and the next step size follows from that largest error.
y is continued by the square-root rule that loop construction uses too:
every stage takes the root nearer to y at the start of the step, and
acceptance requires |y_new - y_old| < |y_old|, so a silent sheet jump is
impossible and failure surfaces as step-size underflow, naming the member,
the segment, t and h.  As no stage depends on an earlier stage's y, each
step computes its geometry (x, y and the connection at all six new stages)
in one pass per row; the other sheet's y and connection are exact
negations and the guard ignores the sign, so one pass serves both sheets
and changes no bit of any member's numbers.  With one step sequence the
+delta and -delta systems of a central difference see one discretisation
(internal numerical differentiation), so step-control noise cancels in the
finite-difference columns of :mod:`diffsys.immersion`.

``monodromy_batch`` never integrates whole loop words.  Each word is a
product of lollipop letters based at the base point, and a letter's
transport depends only on the system, the letter and the sheet it starts on,
so a system contributes 2g+1 rows, one per letter, each run on both sheets.
A word's transport is the product of its letter transports; since every
letter swaps the sheet, the i-th letter of a word starts on the principal
sheet for even i and on the other for odd i.  ``integrate_loop`` transports
one row on one sheet along a whole loop polyline; it is the full-word
reference that the tests compare the letter products against.

Since every word is assembled from the same letter transports, the surface
relation is checked on letter products.  Cancelling adjacent repeated letters
reduces the relation word to a conjugate of (1 2 ... 2g+1)^2, the circuit
around every finite branch point taken on both sheets, which encircles the
branch point at infinity and is trivial upstairs.  Each cancellation costs a
letter involution defect |T(k,-s) T(k,s) - I| (a letter traversed on one
sheet and then on the other is the trivial loop upstairs).  The relation
residual therefore witnesses the letter transports themselves, through
these defects and that circuit, not the agreement of independently
integrated words; the defects are reported next to it.

Convention: the stored monodromy matrix of a loop is the inverse of the
forward parallel transport, which turns loop concatenation into plain matrix
multiplication (a homomorphism, not an anti-homomorphism).  Traces, norms,
determinants and the surface relation are insensitive to everything except
word order, which this convention keeps left to right.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .curves import HyperellipticCurve
from .systems import DifferentialSystem, coefficient_matrices

__all__ = [
    "ClearanceError",
    "IntegrationError",
    "InvalidRepresentationError",
    "Loop",
    "LoopSystem",
    "MonodromyRepresentation",
    "TraceVector",
    "IrreducibilityVerdict",
    "NumericSystem",
    "canonical_words",
    "build_loops",
    "integrate_loop",
    "monodromy",
    "monodromy_batch",
    "trace_vector",
    "standard_word_list",
    "irreducibility_probe",
]


class ClearanceError(ValueError):
    """The requested clearance is infeasible for the branch configuration."""


class IntegrationError(RuntimeError):
    """Adaptive stepping failed (step underflow, step budget, non-finite values).

    Failures inside the transport name the batch member at fault as
    ``member`` = (system index, path, starting sheet), with the ``segment``
    index, the segment parameter ``t`` and the step ``h``.
    """

    def __init__(self, message, member=None, segment=None, t=None, h=None):
        super().__init__(message)
        self.member = member
        self.segment = segment
        self.t = t
        self.h = h


class InvalidRepresentationError(ValueError):
    """A computed representation misses its relation or determinant gate.

    This is a numerical outcome, not a configuration error.
    """


# -- canonical generator words -------------------------------------------------


def _reduce(word):
    out = []
    for k in word:
        if out and out[-1] == k:
            out.pop()
        else:
            out.append(k)
    return tuple(out)


def _cat(*words):
    return _reduce([k for w in words for k in w])


def _inv(word):
    return tuple(reversed(word))


def _prefix_word(j):
    """Prefix product P_j of the elementary loops, as a reduced letter tuple."""
    if j == 0:
        return ()
    if j % 2 == 1:
        return tuple(range(1, j + 2))
    return tuple(range(1, j + 2)) + (1,)


def canonical_words(g: int) -> list:
    """Loop words [(natural name, letters)] in order a1, b1, ..., ag, bg.

    Letters are 1-based indices of branch points in sorted order; every
    letter is an involution upstairs, so words carry no signs.  The
    commutator product over handles in this order is exactly trivial.
    """
    xs = {1: _prefix_word(2)}
    ys = {1: _inv(_prefix_word(1))}
    bs = {}
    for j in range(2, g + 1):
        xs[j] = _inv(_prefix_word(2 * j - 1))
        ys[j] = _cat(_prefix_word(2 * j - 2), _inv(_prefix_word(2 * j)), _prefix_word(2 * j - 1))
        bs[j] = _cat(xs[j], ys[j])
    out = []
    handle = 0
    for j in range(g, 0, -1):
        handle += 1
        conj = ()
        for m in range(2, j):
            conj = _cat(conj, bs[m])
        out.append((f"a{handle}", _cat(conj, xs[j], _inv(conj))))
        out.append((f"b{handle}", _cat(conj, ys[j], _inv(conj))))
    return out


# -- loop geometry --------------------------------------------------------------

_CIRCLE_SIDES = 16
_SEC = 1.0 / math.cos(math.pi / _CIRCLE_SIDES)


@dataclass(frozen=True)
class Loop:
    name: str
    word: tuple
    vertices: tuple  # closed polyline, vertices[0] == vertices[-1] == base point
    sheets: tuple  # +-1 per vertex: sign of y against the principal sqrt

    def to_json(self):
        return {
            "name": self.name,
            "word": list(self.word),
            "vertices": [[v.real, v.imag] for v in self.vertices],
            "sheets": list(self.sheets),
        }


@dataclass(frozen=True)
class LoopSystem:
    base_point: complex
    clearance: float
    genus: int
    loops: tuple  # ordered a1, b1, ..., ag, bg
    # lollipop polyline of letter k at index k - 1, base point to base point;
    # all letters have the same vertex count (a foot on the base point stays
    # as a zero-length segment), so they can share one batched sweep
    letters: tuple

    def to_json(self):
        return {
            "base_point": [self.base_point.real, self.base_point.imag],
            "clearance": self.clearance,
            "genus": self.genus,
            "loops": [l.to_json() for l in self.loops],
        }


# -- square-root continuation --------------------------------------------------
#
# One rule serves loop construction and transport alike: y = sqrt(f(x)) is
# continued by taking, of the two roots, the one nearer to the previous value,
# and a step is on its sheet only if it moved y by less than |y_old|.


def _sqrt_f(x, root_rows):
    """Principal sqrt(f(x)) for f = prod (x - r), roots on axis -2 of ``root_rows``
    (2g+1, m), just before the batch axis: leading axes of ``x`` then leave
    numpy's choice of loop, fused elementwise or unfused reduction, unchanged."""
    return np.sqrt(np.multiply.reduce(x - root_rows, axis=-2))


def _nearer_root(w, y_old):
    """Of the roots +-w, the one nearer to y_old."""
    return np.where(np.abs(w - y_old) > np.abs(w + y_old), -w, w)


def _on_sheet(y_new, y_old):
    """The sheet guard: a continuation step moved y by less than |y_old|."""
    return np.abs(y_new - y_old) < np.abs(y_old)


_SQRT_CHUNK = 0.2  # initial step length of the dense continuation


def _track_sqrt(paths, root_rows):
    """Continue y = sqrt(f) along polylines ``paths`` (p, nvert) from the
    principal root at their first vertex, by dense stepping; returns y
    (p, nvert) at the vertices.  Each segment is subdivided until every step
    passes the sheet guard."""
    y = _sqrt_f(paths[:, 0], root_rows)
    ys = [y]
    for a, b in zip(paths.T, paths.T[1:]):
        n = max(2, int(np.max(np.abs(b - a)) / _SQRT_CHUNK) + 1)
        for _ in range(25):
            yy = y
            for m in range(1, n + 1):
                cand = _nearer_root(_sqrt_f(a + (b - a) * m / n, root_rows), yy)
                if not _on_sheet(cand, yy).all():
                    break
                yy = cand
            else:
                break
            n *= 2
        else:
            raise IntegrationError("square-root continuation failed to resolve")
        y = yy
        ys.append(y)
    return np.array(ys).T


_SHEETS = (1, -1)  # starting sheets of a word's letters, by position parity


def build_loops(curve: HyperellipticCurve, clearance: float) -> LoopSystem:
    """Canonical loop system for an odd-model hyperelliptic curve.

    Requires branch points pairwise separated by more than twice the
    clearance; every polyline vertex keeps at least the clearance from every
    branch point, and this is re-validated on the final geometry of every
    letter.
    """
    if not isinstance(curve, HyperellipticCurve):
        raise ValueError("loops are defined for hyperelliptic curves only")
    if not curve.odd_model:
        raise ValueError("loop construction expects the odd-degree model")
    if clearance <= 0:
        raise ValueError("clearance must be positive")
    g = curve.genus
    roots = sorted(curve.float_roots(), key=lambda z: (z.real, z.imag))
    n = len(roots)
    min_sep = min(
        abs(roots[i] - roots[j]) for i in range(n) for j in range(i + 1, n)
    )
    if min_sep <= 2 * clearance:
        raise ClearanceError(
            f"branch separation {min_sep:.4g} is not greater than twice the clearance {clearance:.4g}"
        )
    radii = []
    for k, r in enumerate(roots):
        sep_k = min(abs(r - s) for i, s in enumerate(roots) if i != k)
        rad = min(0.45 * sep_k, 3.0 * clearance)
        if rad < clearance * _SEC:
            raise ClearanceError(
                "clearance infeasible: no circle radius fits between the clearance "
                f"ring and the neighbours of branch point {k}"
            )
        radii.append(rad)
    res = [r.real for r in roots]
    ims = [r.imag for r in roots]
    spread = max(max(res) - min(res), 1.0)
    depth = max(3.0 * clearance, 0.12 * spread, 0.4)
    y_low = min(ims) - depth
    base = complex(0.5 * (max(res) + min(res)), y_low)

    def lollipop(k):
        lam, rad = roots[k - 1], radii[k - 1]
        foot = complex(lam.real, y_low)
        south = lam + rad * cmath.exp(-0.5j * math.pi)
        circle = [
            lam + rad * cmath.exp(1j * (-0.5 * math.pi + 2 * math.pi * m / _CIRCLE_SIDES))
            for m in range(_CIRCLE_SIDES + 1)
        ]
        return [base, foot, south] + circle[1:] + [foot, base]

    letters = tuple(tuple(lollipop(k)) for k in range(1, n + 1))
    for letter in letters:
        _validate_clearance(letter, roots, clearance)
    # sheet profile of every letter, started on the principal root at the base
    paths = np.array(letters)
    root_rows = np.array(roots)[:, None]
    ys = _track_sqrt(paths, root_rows)
    principal = _sqrt_f(paths.T[:, None], root_rows).T
    profiles = np.where(np.abs(ys - principal) <= np.abs(ys + principal), 1, -1).tolist()
    for k, profile in enumerate(profiles, start=1):
        if profile[-1] != -1:
            raise IntegrationError(f"letter {k} does not end on the opposite sheet")
    loops = tuple(
        Loop(name, word, *_join(word, letters, profiles)) for name, word in canonical_words(g)
    )
    return LoopSystem(base, clearance, g, loops, letters)


_VERTEX_EPS = 1e-13  # polyline vertices closer than this are merged


def _join(word, letters, profiles):
    """Vertices and sheets of a word: its letters end to end, the i-th
    starting on sheet _SHEETS[i % 2] (each letter swaps the sheet), with
    vertices closer than _VERTEX_EPS to their predecessor merged into it."""
    vertices, sheets = [letters[0][0]], [_SHEETS[0]]
    for i, k in enumerate(word):
        for v, p in zip(letters[k - 1][1:], profiles[k - 1][1:]):
            if abs(v - vertices[-1]) > _VERTEX_EPS:
                vertices.append(v)
                sheets.append(_SHEETS[i % 2] * p)
    return tuple(vertices), tuple(sheets)


def _validate_clearance(vertices, roots, clearance):
    for v in vertices:
        for r in roots:
            if abs(v - r) < clearance * (1 - 1e-9):
                raise ClearanceError(
                    f"polyline vertex {v:.4g} is within clearance of branch point {r:.4g}"
                )
    for a, b in zip(vertices, vertices[1:]):
        d = b - a
        L2 = d.real * d.real + d.imag * d.imag
        if L2 == 0:
            continue
        for r in roots:
            t = ((r - a).real * d.real + (r - a).imag * d.imag) / L2
            t = min(1.0, max(0.0, t))
            if abs(a + t * d - r) < 0.9 * clearance:
                raise ClearanceError(
                    f"polyline segment passes within clearance of branch point {r:.4g}"
                )


# -- numeric system -------------------------------------------------------------


@dataclass(frozen=True)
class NumericSystem:
    """Float view of a system: branch roots and one connection matrix per differential."""

    roots: tuple  # 2g+1 complex branch points
    matrices: np.ndarray  # (g, 2, 2) complex: M_c of systems.coefficient_matrices

    @staticmethod
    def from_system(system: DifferentialSystem) -> "NumericSystem":
        if system.lie.name != "sl2" or system.lie.dimension != 3:
            raise ValueError("monodromy integration supports sl2 systems only")
        curve = system.curve
        if not isinstance(curve, HyperellipticCurve):
            raise ValueError("monodromy integration supports hyperelliptic curves only")
        matrices = np.array([m.to_numpy() for m in coefficient_matrices(system)])
        return NumericSystem(tuple(curve.float_roots()), matrices)


def _coerce(system) -> NumericSystem:
    if isinstance(system, NumericSystem):
        return system
    return NumericSystem.from_system(system)


# -- batched Dormand-Prince 5(4) transport --------------------------------------

# Butcher rows as coefficients on k_0 .. k_5; row 6 holds the 5th-order
# weights, so the stage-7 state is the step's solution (FSAL)
_A = np.array(
    [
        [0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
        [1 / 5, 0.0, 0.0, 0.0, 0.0, 0.0],
        [3 / 40, 9 / 40, 0.0, 0.0, 0.0, 0.0],
        [44 / 45, -56 / 15, 32 / 9, 0.0, 0.0, 0.0],
        [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729, 0.0, 0.0],
        [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656, 0.0],
        [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84],
    ]
)
_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_E = np.array([71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40])

_MIN_STEP = 1e-13
_MAX_STEPS = 2_000_000


@np.errstate(all="ignore")  # overflow and NaN are handled by the step control
def _transport(vertices, sheets, systems, ode_tol, members):
    """Forward transports (r, s, 2, 2) of r rows, each run on s sheets, in one sweep.

    Row i runs along the polyline ``vertices[i]`` with the numeric system
    ``systems[i]``, once from each start y = sheet * principal sqrt(f),
    sheet in ``sheets``; the connection form is (sum_c M_c x^c) dx / y with
    M_c from ``systems.coefficient_matrices``.  ``members[i * s + j]`` = (system
    index, path, starting sheet) names row i on sheet j in errors.  The local
    error is mixed absolute/relative at ``ode_tol``; a new segment rescales
    the carried step by the ratio of the longest row segments.
    """
    if ode_tol <= 0:
        raise ValueError("ode_tol must be positive")
    r, nvert = vertices.shape
    ns = len(sheets)
    path = np.ascontiguousarray(vertices.T)  # (nvert, r)
    root_rows = np.ascontiguousarray(np.array([s.roots for s in systems], dtype=complex).T)
    # coeffs[c, 0, j] = column j of M_c, shape (2, 1, r), so that
    # M @ state = column 0 * row 0 of state + column 1 * row 1 of state
    coeffs = np.array([s.matrices for s in systems], dtype=complex).transpose(1, 3, 2, 0)
    coeffs = np.ascontiguousarray(coeffs[:, None, :, :, None, :])
    # Member arrays are (..., sheet, row): rows innermost keep the inner loops
    # long (sheets innermost made them length 2), and per-row geometry keeps
    # a whole fd ladder's temporaries under numpy's 256 KB elision threshold.
    conn = np.empty((6, 2, 2, 1, ns, r), dtype=complex)  # per stage, for every member

    def geometry(x, delta, y_prev):
        """conn[:k] at the k points x (k, r); returns y (k, r), continued from
        y_prev on the principal sheet.  The other sheet negates y, so conn."""
        y = _nearer_root(_sqrt_f(x[:, None], root_rows), y_prev)
        m = coeffs[-1]
        for c in coeffs[-2::-1]:
            m = m * x[:, None, None, None, :] + c
        m = m * (delta / y)[:, None, None, None, :]
        for j, sheet in enumerate(sheets):
            np.copyto(conn[: len(x), :, :, :, j], m if sheet > 0 else -m)
        return y

    states = np.zeros((7, 2, 2, ns, r), dtype=complex)  # states[0] is Y, at the step start
    Y = states[0]
    Y[0, 0] = Y[1, 1] = 1.0
    y_ref = _sqrt_f(path[0], root_rows)
    K = np.empty_like(states)
    K_real = K.reshape(7, 4 * ns * r).view(np.float64)  # stage sums as one real dgemv
    inc_real = np.empty(8 * ns * r)
    inc = inc_real.view(complex).reshape(Y.shape)
    prods = np.empty((2,) + Y.shape, dtype=complex)
    # per stage: Butcher row, the earlier stages it weighs, its state and output
    stages = [(_A[i, :i], K_real[:i], states[i], K[i]) for i in range(1, 7)]
    nodes = np.array(_C[1:])
    h = 0.01
    err_prev = 1.0
    nsteps = 0
    prev_len = None
    culprit = 0  # member behind the latest rejection
    seg, t = 0, 0.0

    def fail(what, i):
        member = members[i]
        raise IntegrationError(
            f"{what} for system {member[0]}, {member[1]}, start sheet {member[2]:+d} "
            f"on segment {seg} at t={t:.6g}, h={h:.3g}",
            member=member, segment=seg, t=t, h=h,
        )

    for seg in range(nvert - 1):
        v = path[seg]
        delta = path[seg + 1] - v
        seg_len = float(np.max(np.abs(delta)))
        if seg_len == 0:
            continue
        if prev_len is not None:
            h *= prev_len / seg_len
        prev_len = seg_len
        t = 0.0
        h = min(max(h, 1e-6), 1.0)
        geometry(v[None], delta, y_ref)
        np.add(*np.multiply(conn[0], Y[:, None], out=prods), out=K[0])

        while t < 1.0:
            if 1.0 - t < 1e-13:
                break  # float residue of the parameter interval, below tolerance
            if nsteps > _MAX_STEPS:
                fail("step budget exhausted", culprit)
            h = min(h, 1.0 - t)
            if h < _MIN_STEP:
                fail("step-size underflow (path too close to a branch point?)", culprit)
            y_new = geometry(v + delta * (t + nodes * h)[:, None], delta, y_ref)[-1]
            for c, (row, earlier, state, out) in zip(conn, stages):
                np.matmul(row, earlier, out=inc_real)
                np.add(Y, np.multiply(h, inc, out=inc), out=state)
                np.add(*np.multiply(c, state[:, None], out=prods), out=out)
            # stage 7 sits at t + h with the 5th-order solution as its state
            np.matmul(_E, K_real, out=inc_real)
            scale = ode_tol + ode_tol * np.maximum(np.abs(Y), np.abs(state))
            rel_err = (np.abs(np.multiply(h, inc, out=inc)) / scale).reshape(4, ns, r)
            err = float(rel_err.max())
            nsteps += 1
            # culprits are read in member order (row, sheet)
            if not math.isfinite(err):
                culprit = int(np.argmin(np.isfinite(rel_err.max(axis=0).T)))
                h *= 0.1
                continue
            guard = _on_sheet(y_new, y_ref)  # per row: negating y leaves the test unchanged
            sheet_ok = bool(guard.all())
            if err <= 1.0 and sheet_ok:
                t += h
                Y[...] = state
                y_ref = y_new
                K[0] = K[6]
                fac = 6.0 if err == 0.0 else 0.9 * err ** -0.2 * err_prev ** 0.08
                err_prev = max(err, 1e-10)
                h *= min(6.0, max(0.2, fac))
            else:
                if sheet_ok:
                    culprit = int(np.argmax(rel_err.max(axis=0).T))
                    shrink = max(0.1, 0.9 * err ** -0.2)
                else:
                    culprit = int(np.argmin(guard)) * ns  # the row's first sheet
                    shrink = 0.5
                h *= min(0.9, shrink)
    finite = np.isfinite(Y).reshape(4, ns, r).all(axis=0).T
    if not finite.all():
        fail("non-finite transport values", int(np.argmin(finite)))
    return np.ascontiguousarray(Y.transpose(3, 2, 0, 1))


def integrate_loop(system, loop: Loop, ode_tol: float):
    """Parallel transport around one whole loop; returns the forward 2x2 transport.

    A batch of one member on the loop's full polyline, starting on the sheet
    of its first vertex.  ``monodromy`` assembles words from letter
    transports instead; this full-word path is the reference the tests
    compare those products against.
    """
    member = (0, f"loop {loop.name}", loop.sheets[0])
    vertices = np.array([loop.vertices], dtype=complex)
    return _transport(vertices, (loop.sheets[0],), [_coerce(system)], ode_tol, [member])[0, 0]


# -- monodromy representation ----------------------------------------------------


@dataclass(frozen=True)
class MonodromyRepresentation:
    matrices: tuple  # 2g numpy 2x2 arrays, order a1, b1, ..., ag, bg
    loop_names: tuple
    relation_residual: float
    det_residuals: tuple
    relation_tol: float
    det_tol: float
    # per letter k: max over sheets s of |T(k,-s) T(k,s) - I|, the letter
    # transported on one sheet and back on the other (trivial upstairs)
    involution_defects: tuple = ()

    @property
    def valid(self) -> bool:
        return self.relation_residual <= self.relation_tol and all(
            d <= self.det_tol for d in self.det_residuals
        )

    @property
    def genus(self) -> int:
        return len(self.matrices) // 2

    def to_json(self):
        return {
            "loop_names": list(self.loop_names),
            "matrices": [
                [[z.real, z.imag] for z in m.ravel()] for m in self.matrices
            ],
            "relation_residual": self.relation_residual,
            "det_residuals": list(self.det_residuals),
            "involution_defects": list(self.involution_defects),
            "relation_tol": self.relation_tol,
            "det_tol": self.det_tol,
            "valid": self.valid,
        }


def _sl2_inverse(m: np.ndarray) -> np.ndarray:
    det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    return np.array([[m[1, 1], -m[0, 1]], [-m[1, 0], m[0, 0]]], dtype=complex) / det


def _opnorm(m: np.ndarray) -> float:
    # an overflowed product has no SVD; its norm is infinite, not an error
    return float(np.linalg.norm(m, 2)) if np.isfinite(m).all() else math.inf


def monodromy_batch(
    systems,
    loops: LoopSystem,
    ode_tol: float,
    relation_tol: float = 1e-8,
    det_tol: float = 1e-10,
) -> list:
    """Representations of many systems along one loop system, in one sweep.

    Transports every (system, letter, starting sheet) member, 2(2g+1) per
    system, in one batched kernel call and assembles each loop's transport
    as the product of its letter transports (see module docstring).  The
    stored matrices are transport inverses, so each family satisfies
    prod_i [A_i, B_i] = I up to its reported residual; determinant
    residuals are measured on the raw transports.  Results keep the order
    of ``systems``.
    """
    nsys = [_coerce(s) for s in systems]
    letters = np.array(loops.letters, dtype=complex)
    # one row per (system, letter), run on both sheets; members sheet fastest
    rows = [s for s in nsys for _ in letters]
    members = [(i, f"letter {k}", s) for i in range(len(nsys))
               for k in range(1, len(letters) + 1) for s in _SHEETS]
    transports = _transport(np.tile(letters, (len(nsys), 1)), _SHEETS, rows, ode_tol, members)
    transports = transports.reshape(len(nsys), len(letters), len(_SHEETS), 2, 2)

    names = tuple(loop.name for loop in loops.loops)
    eye = np.eye(2, dtype=complex)
    reps = []
    for letter_t in transports:
        words = []
        for loop in loops.loops:
            w = eye
            for i, k in enumerate(loop.word):
                w = letter_t[k - 1, i % 2] @ w
            words.append(w)
        defects = tuple(
            max(_opnorm(t[1] @ t[0] - eye), _opnorm(t[0] @ t[1] - eye)) for t in letter_t
        )
        reps.append(_representation(words, names, relation_tol, det_tol, defects))
    return reps


@np.errstate(all="ignore")  # an overflowed relation product is reported invalid
def _representation(transports, names, relation_tol, det_tol, defects):
    det_res = tuple(
        float(abs((m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]) - 1.0)) for m in transports
    )
    mats = tuple(_sl2_inverse(m) for m in transports)
    rel = np.eye(2, dtype=complex)
    for i in range(len(mats) // 2):
        a, b = mats[2 * i], mats[2 * i + 1]
        rel = rel @ a @ b @ _sl2_inverse(a) @ _sl2_inverse(b)
    residual = _opnorm(rel - np.eye(2))
    return MonodromyRepresentation(
        mats, names, float(residual), det_res, relation_tol, det_tol, defects
    )


def monodromy(system, loops: LoopSystem, ode_tol: float) -> MonodromyRepresentation:
    """The representation of one system: ``monodromy_batch`` of one."""
    return monodromy_batch([system], loops, ode_tol)[0]


# -- trace coordinates ------------------------------------------------------------


@dataclass(frozen=True)
class TraceVector:
    words: tuple  # tuples of generator names, e.g. ("a1", "b1", "a2")
    values: tuple  # complex traces, same order

    def to_json(self):
        return {
            "words": ["*".join(w) for w in self.words],
            "values": [[v.real, v.imag] for v in self.values],
        }


def standard_word_list(g: int) -> tuple:
    """The documented trace word list: 2g singles, the g handle products
    a_i b_i, the mixed triple a1 b1 a2, then deterministic pair padding
    (a_i a_j, then b_i b_j, then a_i b_j for i < j) up to 6g - 3 entries."""
    names = [f"{k}{i}" for i in range(1, g + 1) for k in ("a", "b")]
    words = [(nm,) for nm in names]
    words += [(f"a{i}", f"b{i}") for i in range(1, g + 1)]
    words.append(("a1", "b1", "a2"))
    padding = []
    padding += [(f"a{i}", f"a{j}") for i in range(1, g + 1) for j in range(i + 1, g + 1)]
    padding += [(f"b{i}", f"b{j}") for i in range(1, g + 1) for j in range(i + 1, g + 1)]
    padding += [
        (f"a{i}", f"b{j}") for i in range(1, g + 1) for j in range(1, g + 1) if i != j
    ]
    target = 6 * g - 3
    for w in padding:
        if len(words) >= target:
            break
        words.append(w)
    return tuple(words)


def _require_valid(rep: MonodromyRepresentation) -> None:
    if not rep.valid:
        raise InvalidRepresentationError(
            f"invalid representation: relation residual {rep.relation_residual:.3e}, "
            f"max det residual {max(rep.det_residuals):.3e}"
        )


def trace_vector(rep: MonodromyRepresentation) -> TraceVector:
    """Traces of the documented word list in the generator matrices.

    Requires a valid representation (relation and determinant residuals
    within their configured tolerances).
    """
    _require_valid(rep)
    words = standard_word_list(rep.genus)
    lookup = {name: rep.matrices[i] for i, name in enumerate(rep.loop_names)}
    values = []
    for w in words:
        m = np.eye(2, dtype=complex)
        for name in w:
            m = m @ lookup[name]
        values.append(complex(m[0, 0] + m[1, 1]))
    return TraceVector(words, tuple(values))


# -- irreducibility probe -----------------------------------------------------------

_PROBE_TOL = 1e-6  # relative tolerance of the common-eigenvector tests


@dataclass(frozen=True)
class IrreducibilityVerdict:
    probably_irreducible: bool
    witness: tuple | None  # common eigenvector as (v1, v2) when found

    def to_json(self):
        return {
            "verdict": "probably_irreducible"
            if self.probably_irreducible
            else "common_eigenvector_found",
            "witness": None
            if self.witness is None
            else [[self.witness[0].real, self.witness[0].imag],
                  [self.witness[1].real, self.witness[1].imag]],
        }


def irreducibility_probe(rep: MonodromyRepresentation) -> IrreducibilityVerdict:
    """Search for a common eigenvector of all generators.

    A proper parabolic in SL(2, C) stabilizes a line, so a representation is
    reducible exactly when such a common line exists.  Candidate lines come
    from the eigenvectors of the first generator that is not a scalar
    multiple of the identity; each candidate is tested against all
    generators at the relative tolerance ``_PROBE_TOL``.  Requires a valid
    representation.
    """
    _require_valid(rep)
    mats = rep.matrices
    scale = max(max(_opnorm(m) for m in mats), 1.0)
    candidates = None
    for m in mats:
        centered = m - (np.trace(m) / 2.0) * np.eye(2)
        if _opnorm(centered) > _PROBE_TOL * scale:
            _, vecs = np.linalg.eig(m)
            candidates = [vecs[:, 0], vecs[:, 1]]
            break
    if candidates is None:
        # every generator is (numerically) central: every line is invariant
        return IrreducibilityVerdict(False, (1.0 + 0j, 0j))
    for v in candidates:
        v = v / np.linalg.norm(v)
        common = True
        for m in mats:
            image = m @ v
            mu = np.vdot(v, image)
            if np.linalg.norm(image - mu * v) > _PROBE_TOL * max(_opnorm(m), 1.0):
                common = False
                break
        if common:
            return IrreducibilityVerdict(False, (complex(v[0]), complex(v[1])))
    return IrreducibilityVerdict(True, None)

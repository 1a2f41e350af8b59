"""Numerical monodromy of rank-2 differential systems on hyperelliptic curves.

Loops
-----
``build_loops`` realizes a canonical generating system a_1, b_1, ..., a_g, b_g
of the fundamental group, based below the branch locus.  Each generator is a
word in elementary "lollipop" loops around single branch points, written
in closed form (``canonical_words``), whose defining property is that

    [a_1, b_1] [a_2, b_2] ... [a_g, b_g] = 1     exactly in pi_1,

so the surface-group relation holds by construction, not by accident of
homology (the tests check it in exact involution representations).  Each
word has even length, hence lifts to a closed loop on the double cover.  A
letter is construction data (branch point, radius, foot, south), checked by
the one clearance rule ``_turn_guards``; a loop's vertices and per-vertex
sheets are its letters' drawings (``_lollipop``) and their closed-form
sheet profiles (below) end to end, the sign alternating from letter to
letter: a letter that passes the clearance rule winds once around its own
branch point and around no other, so it ends on the sheet opposite its start.

Transport
---------
One kernel solves dY = (sum_j B_j omega_j) Y in a single numpy sweep for a
batch of *rows*, each a numeric system, one straight segment a -> b and a
start y there, run on both sheets; a (row, sheet) pair is a *member*,
starting from sheet * w, w the root of f(a) nearer to the row's start y.
The sweep runs the Dormand-Prince 8(5,3) pair DOP853 (Hairer, Norsett &
Wanner, Solving ODEs I, II.10; twelve stages, the last of which holds the
step's solution, whose slope starts the next step) with one step sequence
in the segment parameter, shared by all members: a step is accepted when
the largest local error in the batch is within tolerance and every member
passes the sheet guard, and the next step size follows from that largest
error (factor 0.9 err^(-1/8) within [0.2, 6]).
An entry's local error is the combined estimate h |e5|^2 / hypot(|e5|,
|e3| / 10), held to ode_tol / 10 in the mixed scale 1 + max(|Y|, |Y_new|)
(on 48 genus-2 and genus-3 systems, ode_tol itself fell short of the former
5(4) pair on a third, the tenth beat it on all).  An accepted step fails
once an entry of Y passes 2**26 = eps^(-1/2), where rounding alone breaks
det = 1, naming the member.
Sheets are decided in closed form: along a straight segment a -> b that
misses every branch point, y(b) = y(a) prod_j sqrt((b - r_j) / (a - r_j))
with principal roots.  Callers continue y so from the base; a row's start
y must be +-sqrt f(a) before the first step and its y at b the closed form
from w after the last (both to ``_SHEET_MATCH_TOL``), else its member on
sheet +1 is named.  Within a step every stage takes the root w = +-sqrt f nearer to y
at the step's start, -w where Re(w conj y) < 0 (|w - y|^2 - |w + y|^2 =
-4 Re(w conj y)), and the sheet guard accepts only |y_new - y_old| <
|y_old|; a step the guard keeps rejecting ends in step-size underflow,
naming the member, t, h and why its latest step was rejected (a
non-finite error estimate, the local error or the sheet guard).  The guard
is only a step guard: it sees a step's end point, and with a zero
connection steps grow, so one that straddles a branch point can pass it;
the end check then names the member.  As no stage depends on an earlier
stage's y, each step computes its geometry (x, y and the connection at the
eleven new points; stages 11 and 12 share t + h) in one pass over all rows,
f as one difference over a leading roots axis and one product reduce over
it; the other sheet's y and connection are exact negations and the guard
ignores the sign, so one pass serves both sheets and changes no bit of any
member's numbers.  The sweep also returns its (accepted, rejected) step
counts.

Who shares a sweep: a family is two stacked arrays, the branch roots (n,
2g+1) and the matrices M_c (n, g, 2, 2) of n float systems (``float_system``
gives one system's rows); ``monodromy`` is ``monodromy_family`` of a family
of one, and :mod:`diffsys.immersion` runs a center and its +delta and
-delta systems through one ``monodromy_family``, so a central difference
sees one discretisation and step-control noise cancels in its columns.  A
family member is not bit for bit its lone run: a shared step sequence moves
a stiff system by about as much as double precision determines it (a
genus-2 system of norm 1.7e3 moves by 1.3e-10, relative, from ode_tol 1e-14
to 1e-15).  Every representation, center or partner, meets the same gates.

Neither integrates whole loop words, nor whole letters, whose transports
depend only on the system, the letter, its starting sheet and its homotopy
class.  A lollipop runs along the base line to its foot, up to south, once
around its circle, which swaps the sheet, and back on the other sheet, so
T(k,s) = F(k,-s)^-1 V(k,s) F(k,s), F from the base to the foot and V the
turn from the foot.  F_k = E_k F_parent over one edge per foot off the base,
from the nearest foot between it and the base, or from the base (``_feet``).
V is the segment u_f -> -u_f, u_f^2 = (foot - lam) / b, straight through
lam in the chart x = lam + b u^2 about the system's branch point lam inside
the circle (b = south - lam), where dx / y is regular (``_turn_charts``);
it is homotopic to the lollipop as long as no other branch point comes
within 0.9 clearance of the circle or of the triangle (foot, south, lam),
which ``build_loops`` checks on the curve and the sweep on every system
(``_turn_guards``).  In the chart the connection N(u) du / sqrt P(u) is odd
under u -> -u (N and P are polynomials in u^2, and sqrt P is even on the
disc the guards keep clear), so the half of V from 0 to -u_f on sheet s is
the inverse of the half W(k,-s) from u_f to 0 on sheet -s: V(k,s) =
W(k,-s)^-1 W(k,s).  Only W is swept, and with reach(k,s) = W(k,s) F(k,s),
the transport from the base to lam on sheet s, a letter is
T(k,s) = reach(k,-s)^-1 reach(k,s), out on sheet s and back on sheet -s.
So a family takes two sweeps on both sheets: the edges, the same for every
system, and the half turns, each in its system's own chart.  Edges and half
turns start from the y continued from the principal root at the base (a
half turn from sqrt P(u_f) in its chart), so no member is reordered.
Letters and words are formed in extended precision (``np.clongdouble``) and
rounded once; since every letter swaps the sheet, the i-th letter of a word
starts on sheet +1 for even i and on the other for odd i.
Words, inverses, residuals and norms are formed on arrays stacked
over a sweep's systems, bit for bit the per-matrix results: numpy's array
complex multiply and array ``abs`` round unlike its scalar ones, so
determinants come from real parts and moduli from hypot.

Since every word is assembled from the same letter transports, the surface
relation is checked on letter products.  Cancelling adjacent repeated letters
reduces the relation word to a conjugate of (1 2 ... 2g+1)^2, the circuit
around every finite branch point taken on both sheets, which encircles the
branch point at infinity and is trivial upstairs.  A cancellation costs
nothing but rounding: T(k,-s) T(k,s) = I holds by construction, a letter
being the way out on one sheet and back on the other.  The relation residual
thus witnesses the circuit, whose neighbouring letters differ, plus
round-off: the letter transports themselves, not the agreement of
independently integrated words.

Convention: the stored monodromy matrix of a loop is the inverse of the
forward parallel transport, which turns loop concatenation into plain matrix
multiplication (a homomorphism, not an anti-homomorphism).  Traces, norms,
determinants and the surface relation are insensitive to everything except
word order, which this convention keeps left to right.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace

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
    "IrreducibilityVerdict",
    "ODE_TOL_FLOOR",
    "canonical_words",
    "build_loops",
    "float_system",
    "monodromy",
    "monodromy_family",
    "trace_values",
    "standard_word_list",
    "irreducibility_probe",
]


class ClearanceError(ValueError):
    """The requested clearance is infeasible for the branch configuration."""


class IntegrationError(RuntimeError):
    """Transport failed (start or end y off its sheet, step underflow, step budget, growth).

    Failures inside the transport name the batch member at fault as
    ``member`` = (system index, path, starting sheet against the y continued
    from the base), with the path parameter ``t`` and the step ``h``.
    """

    def __init__(self, message, member=None, t=None, h=None):
        super().__init__(message)
        self.member = member
        self.t = t
        self.h = h


class InvalidRepresentationError(ValueError):
    """A computed representation misses its relation or determinant gate.

    This is a numerical outcome, not a configuration error.  ``index`` is
    the representation's position in the sequence given to ``trace_values``.
    """

    def __init__(self, message, index=None):
        super().__init__(message)
        self.index = index


# -- canonical generator words -------------------------------------------------


def canonical_words(g: int) -> list:
    """Loop words [(natural name, letters)] in order a1, b1, ..., ag, bg.

    Letters are 1-based indices of branch points in sorted order; every
    letter is an involution upstairs, so words carry no signs.  Handle h,
    j = g + 1 - h, conjugates x_j = (2j, ..., 1) and y_j = (1, ..., 2j-1,
    2j+1) by c = (4, 5, ..., 2j-1), the product of the x_m y_m = (2m, 2m+1)
    of the handles before it; the last handle is (1, 2, 3, 1), (2, 1).  The
    commutator product over handles in this order is exactly trivial.
    """
    out = []
    for h in range(1, g + 1):
        j = g + 1 - h
        c = tuple(range(4, 2 * j))
        if j == 1:
            a, b = (1, 2, 3, 1), (2, 1)
        else:
            a = c + tuple(range(2 * j, 0, -1)) + c[::-1]
            b = c + tuple(range(1, 2 * j)) + (2 * j + 1,) + c[::-1]
        out += [(f"a{h}", a), (f"b{h}", b)]
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
    # letter k at index k - 1: its branch point (sorted), its circle's radius,
    # its foot on the base line and its circle's south point
    branch_points: tuple
    radii: tuple
    feet: tuple
    souths: tuple

    def to_json(self):
        return {
            "base_point": [self.base_point.real, self.base_point.imag],
            "clearance": self.clearance,
            "genus": self.genus,
            "loops": [l.to_json() for l in self.loops],
        }


# -- square-root continuation --------------------------------------------------
#
# The closed form of the module docstring, ``_continuation``, decides sheets:
# loop profiles and the feet's sheets come from it, and the kernel checks
# every row's end y against it.  The kernel's nearer-root stages with
# ``_on_sheet`` are only its step guard.


def _sqrt_f(x, root_rows):
    """Principal sqrt(f(x)), f = prod (x - r) over the rows r of ``root_rows``
    (broadcast against ``x``): one subtract over a leading roots axis and one
    reduce, which multiplies left to right, one root at a time.  The C-order
    difference keeps the roots axis outermost, so the reduce runs numpy's
    array multiply, bit for bit the root-by-root product (from transposed
    roots its scalar reduce loop rounds unlike it)."""
    pad = (1,) * (np.ndim(x) + 1 - root_rows.ndim)
    lead = root_rows.reshape(len(root_rows), *pad, *root_rows.shape[1:])
    return np.sqrt(np.multiply.reduce(np.subtract(x, lead, order="C")))


def _continuation(a, b, root_rows):
    """y(b) / y(a) along the straight segments a -> b, which must miss every
    root: prod_j sqrt((b - r_j) / (a - r_j)) over the rows r_j of
    ``root_rows``, principal roots, broadcast as in ``_sqrt_f``."""
    out = np.sqrt((b - root_rows[0]) / (a - root_rows[0]))
    for r in root_rows[1:]:
        out = out * np.sqrt((b - r) / (a - r))
    return out


def _nearer_root(w, y_old):
    """Of the roots +-w, the one nearer to y_old, written over w:
    |w - y_old|^2 - |w + y_old|^2 = -4 Re(w conj(y_old)), so -w where that
    real part is negative."""
    return np.negative(w, out=w, where=(w * y_old.conjugate()).real < 0)


def _on_sheet(y_new, y_old):
    """The sheet guard: a continuation step moved y by less than |y_old|."""
    return np.abs(y_new - y_old) < np.abs(y_old)


_SHEETS = (1, -1)  # each kernel row runs on both; a word's i-th letter starts on _SHEETS[i % 2]


@np.errstate(all="ignore")  # a letter too small for double precision is refused below
def build_loops(curve: HyperellipticCurve, clearance: float) -> LoopSystem:
    """Canonical loop system for an odd-model hyperelliptic curve.

    Requires circles that fit outside the clearance ring (so branch points
    lie more than 2.26 clearances apart), letters that pass ``_turn_guards``
    on the curve's branch points, circles whose vertices stay more than
    ``_VERTEX_EPS`` apart and finite sheet profiles; else ``ClearanceError``,
    naming the first letter that fails.
    """
    if not isinstance(curve, HyperellipticCurve):
        raise ValueError("loops are defined for hyperelliptic curves only")
    if not curve.odd_model:
        raise ValueError("loop construction expects the odd-degree model")
    if not 0 < clearance < math.inf:
        raise ValueError("clearance must be positive and finite")
    g = curve.genus
    roots = sorted(curve.float_roots(), key=lambda z: (z.real, z.imag))
    n = len(roots)
    radii = []
    for k, r in enumerate(roots):
        sep_k = min(abs(r - s) for i, s in enumerate(roots) if i != k)
        rad = min(0.45 * sep_k, 3.0 * clearance)
        if rad < clearance * _SEC:
            raise ClearanceError(
                f"clearance infeasible for letter {k + 1}: no circle radius fits between the "
                "clearance ring and its branch point's neighbours"
            )
        radii.append(rad)
    res = [r.real for r in roots]
    ims = [r.imag for r in roots]
    spread = max(max(res) - min(res), 1.0)
    depth = max(3.0 * clearance, 0.12 * spread, 0.4)
    y_low = min(ims) - depth
    base = complex(0.5 * (max(res) + min(res)), y_low)
    feet = tuple(complex(r.real, y_low) for r in roots)
    souths = tuple(r + rad * cmath.exp(-0.5j * math.pi) for r, rad in zip(roots, radii))
    letters = LoopSystem(base, clearance, g, (), tuple(roots), tuple(radii), feet, souths)
    # sheet profile of every letter, started on the principal root at the base
    paths = np.array([_lollipop(letters, k) for k in range(1, n + 1)])
    root_rows = np.array(roots)[:, None]
    factors = _continuation(paths[:, :-1], paths[:, 1:], root_rows)
    ys = np.cumprod(np.concatenate([_sqrt_f(paths[:, :1], root_rows), factors], axis=1), axis=1)
    ratio = ys / _sqrt_f(paths, root_rows)
    sides = np.abs(np.diff(paths[:, 2 : 3 + _CIRCLE_SIDES], axis=1))  # its 16-gon sides
    for bad, what in [*_turn_guards(np.array([roots]), letters)[2],
                      ((sides <= _VERTEX_EPS).any(axis=1), "its circle has vertices within "
                       f"{_VERTEX_EPS:g} of each other, which the loop polylines merge"),
                      (~np.isfinite(ratio).all(axis=1), "its sheet profile is not finite")]:
        if bad.any():
            raise ClearanceError(f"clearance infeasible for letter {np.argmax(bad) + 1}: {what}")
    profiles = np.where(np.abs(ratio - 1) <= np.abs(ratio + 1), 1, -1).tolist()  # the nearer sign
    drawn = paths.tolist()
    loops = tuple(Loop(nm, w, *_join(w, drawn, profiles)) for nm, w in canonical_words(g))
    return replace(letters, loops=loops)


def _lollipop(loops: LoopSystem, k):
    """Letter k's polyline: base, foot, south, its circle as a 16-gon closing
    on south exactly, and the stem back (zero-length segments stay, so every
    letter has the same vertex count)."""
    lam, rad = loops.branch_points[k - 1], loops.radii[k - 1]
    base, foot, south = loops.base_point, loops.feet[k - 1], loops.souths[k - 1]
    circle = [
        lam + rad * cmath.exp(1j * (-0.5 * math.pi + 2 * math.pi * m / _CIRCLE_SIDES))
        for m in range(1, _CIRCLE_SIDES)
    ]
    return [base, foot, south] + circle + [south, foot, base]


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


# -- float systems --------------------------------------------------------------


def float_system(system: DifferentialSystem):
    """A system's branch roots (2g+1,) and matrices M_c (g, 2, 2) of
    ``systems.coefficient_matrices``, as complex arrays: a family of n float
    systems is these two stacked, (n, 2g+1) and (n, g, 2, 2)."""
    if system.lie.name != "sl2" or system.lie.dimension != 3:
        raise ValueError("monodromy integration supports sl2 systems only")
    curve = system.curve
    if not isinstance(curve, HyperellipticCurve):
        raise ValueError("monodromy integration supports hyperelliptic curves only")
    matrices = np.array([m.to_numpy() for m in coefficient_matrices(system)])
    return np.array(curve.float_roots(), dtype=complex), matrices


# -- batched Dormand-Prince 8(5,3) transport ------------------------------------

# Hairer, Norsett & Wanner, Solving ODEs I, II.10.  Butcher rows of stages
# 1 .. 12 as coefficients on k_0 .. k_11; row 12 holds the 8th-order weights,
# so the stage-12 state is the step's solution (FSAL)
_A = np.array([row + (0.0,) * (12 - len(row)) for row in (
    (0.05260015195876773,),
    (0.0197250569845379, 0.0591751709536137),
    (0.02958758547680685, 0.0, 0.08876275643042054),
    (0.2413651341592667, 0.0, -0.8845494793282861, 0.924834003261792),
    (0.037037037037037035, 0.0, 0.0, 0.17082860872947386, 0.12546768756682242),
    (0.037109375, 0.0, 0.0, 0.17025221101954405, 0.06021653898045596, -0.017578125),
    (0.03709200011850479, 0.0, 0.0, 0.17038392571223998, 0.10726203044637328,
     -0.015319437748624402, 0.008273789163814023),
    (0.6241109587160757, 0.0, 0.0, -3.3608926294469414, -0.868219346841726,
     27.59209969944671, 20.154067550477894, -43.48988418106996),
    (0.47766253643826434, 0.0, 0.0, -2.4881146199716677, -0.590290826836843,
     21.230051448181193, 15.279233632882423, -33.28821096898486, -0.020331201708508627),
    (-0.9371424300859873, 0.0, 0.0, 5.186372428844064, 1.0914373489967295,
     -8.149787010746927, -18.52006565999696, 22.739487099350505, 2.4936055526796523,
     -3.0467644718982196),
    (2.273310147516538, 0.0, 0.0, -10.53449546673725, -2.0008720582248625,
     -17.9589318631188, 27.94888452941996, -2.8589982771350235, -8.87285693353063,
     12.360567175794303, 0.6433927460157636),
    (0.054293734116568765, 0.0, 0.0, 0.0, 0.0, 4.450312892752409, 1.8915178993145003,
     -5.801203960010585, 0.3111643669578199, -0.1521609496625161, 0.20136540080403034,
     0.04471061572777259),
)])
# nodes of stages 0 .. 12; stages 11 and 12 both sit at t + h
_C = np.array([0.0, 0.05260015195876773, 0.0789002279381516, 0.1183503419072274,
               0.2816496580927726, 0.3333333333333333, 0.25, 0.3076923076923077,
               0.6512820512820513, 0.6, 0.8571428571428571, 1.0, 1.0])
# error weights on k_0 .. k_11: e5, then e3 = 8th-order weights less bhh1..bhh3
_E = np.array([
    [0.01312004499419488, 0.0, 0.0, 0.0, 0.0, -1.2251564463762044, -0.4957589496572502,
     1.6643771824549864, -0.35032884874997366, 0.3341791187130175, 0.08192320648511571,
     -0.022355307863886294],
    _A[-1],
])
_E[1, [0, 8, 11]] -= (0.244094488188976377952755905512, 0.733846688281611857341361741547,
                      0.220588235294117647058823529412e-1)

ODE_TOL_FLOOR = 10 * float(np.finfo(float).eps)  # ode_tol / 10 below eps: unresolvable
_MIN_STEP = 1e-13
_MAX_STEPS = 2_000_000
_GROWTH_CAP = 2.0**26  # eps**-1/2: past it rounding alone breaks det = 1
_TINY = np.finfo(float).tiny  # a zero estimate over a zero denominator is 0, not NaN
_SHEET_MATCH_TOL = 1e-8  # relative: a row's start y to +-sqrt f, its end y to the closed form


@np.errstate(all="ignore")  # overflow and NaN are handled by the step control
def _transport(starts, ends, y_starts, roots, matrices, ode_tol, members):
    """Forward transports (r, 2, 2, 2) of r rows, each run on both sheets, in
    one sweep, and the sweep's (accepted, rejected) step counts.

    Row i runs along the straight segment ``starts[i]`` -> ``ends[i]`` with
    branch points ``roots[i]`` and matrices ``matrices[i]`` (stacked (r, m)
    and (r, g, 2, 2)), once from each start y = sheet * w, sheet in
    ``_SHEETS`` and w the root of f nearer to ``y_starts[i]``; the
    connection form is (sum_c M_c x^c) dx / y with M_c from
    ``systems.coefficient_matrices``.  ``members[2 * i + j]`` = (system
    index, path, starting sheet) names row i on sheet j in errors.  The
    local error is mixed absolute/relative at ``ode_tol / 10``.  Each row's
    ``y_starts`` must be +-sqrt f to ``_SHEET_MATCH_TOL``, and its y at its
    end the closed-form continuation of w, else the row's member on sheet
    +1 is named.
    """
    if not 0 < ode_tol < math.inf:
        raise ValueError("ode_tol must be positive and finite")
    if ode_tol < ODE_TOL_FLOOR:
        raise ValueError(f"ode_tol {ode_tol:.3g} is below 10 eps: double precision cannot hold it")
    r = len(starts)
    ns = len(_SHEETS)
    delta = ends - starts
    root_rows = np.ascontiguousarray(np.asarray(roots, dtype=complex).T)
    # coeffs[c, 0, j] = column j of M_c, shape (2, 1, r), so that
    # M @ state = column 0 * row 0 of state + column 1 * row 1 of state
    coeffs = np.asarray(matrices, dtype=complex).transpose(1, 3, 2, 0)
    coeffs = np.ascontiguousarray(coeffs[:, None, :, :, None, :])
    # Member arrays are (..., sheet, row): rows innermost keep the inner loops
    # long (sheets innermost made them length 2).
    conn = np.empty((11, 2, 2, 1, ns, r), dtype=complex)  # per new node, for every member
    signs = np.array(_SHEETS, dtype=float)[:, None]

    def geometry(x, y_prev):
        """conn[:k] at the k points x (k, r); returns y (k, r), continued from
        y_prev on sheet +1.  The other sheet negates y, so conn."""
        y = _nearer_root(_sqrt_f(x, root_rows), y_prev)
        m = coeffs[-1]
        for c in coeffs[-2::-1]:
            m = m * x[:, None, None, None, :] + c
        np.multiply(m[..., None, :], (delta / y)[:, None, None, None, None, :] * signs,
                    out=conn[: len(x)])
        return y

    n = 4 * ns * r  # complex entries per state
    # YK[0] is Y, the state at the step start, and YK[1 + i] is stage i's
    # slope k_i, so each stage state Y + h sum_j a_ij k_j is one real dgemv
    YK = np.zeros((14, 2, 2, ns, r), dtype=complex)
    YK_real = YK.reshape(14, n).view(np.float64)
    Y, K = YK[0], YK[1:]
    Y[0, 0] = Y[1, 1] = 1.0
    abs_Y = np.abs(Y)
    hA = np.ones((12, 13))  # column 0 weighs Y; the rest is h times the Butcher rows
    states = np.empty((2, 2 * n))  # stages 1..11 share row 0; row 1 is stage 12, Y_new
    state, Y_new = states.view(complex).reshape((2,) + Y.shape)
    est_real = np.empty((2, 2 * n))
    est = est_real.view(complex).reshape((2,) + Y.shape)  # e5 and e3 over h
    abs_est = np.empty((2,) + Y.shape)  # |e5| and |e3|
    a5, a3 = abs_est
    abs_new, den, rel_err = np.empty((3,) + Y.shape)
    # M @ state is the sum of the two halves of prods (see coeffs)
    prods = np.empty((2,) + Y.shape, dtype=complex)
    prod_0, prod_1 = prods
    # per stage: its row, the terms it weighs, its state (real, and as the
    # right factor of prods), its connection (stage 12 reuses stage 11's
    # point) and its slope
    outs = [(states[0], state[:, None])] * 11 + [(states[1], Y_new[:, None])]
    stages = [
        (hA[i, : i + 2], YK_real[: i + 2], *outs[i], conn[min(i, 10)], K[i + 1]) for i in range(12)
    ]
    nodes = _C[1:12]
    tol = ode_tol / 10
    h, t = 0.01, 0.0
    nsteps = accepted = 0
    culprit, why = 0, "none"  # member behind the latest rejection, and why it was rejected

    def fail(what, i):
        member = members[i]
        raise IntegrationError(
            f"{what} for system {member[0]}, {member[1]}, start sheet {member[2]:+d} "
            f"at t={t:.6g}, h={h:.3g}",
            member=member, t=t, h=h,
        )

    def by_member(a):
        """Per-member maxima of an entrywise array, in member order (row, sheet)."""
        return a.reshape(4, ns, r).max(axis=0).T

    y_ref = y_start = geometry(starts[None], y_starts)[0]
    off = ~(np.abs(y_starts / y_start - 1) <= _SHEET_MATCH_TOL)
    if off.any():
        fail("y at the path's start is not +-sqrt f", int(np.argmax(off)) * ns)
    np.add(*np.multiply(conn[0], Y[:, None], out=prods), out=K[0])
    while 1.0 - t >= 1e-13:  # a smaller rest is float residue, below tolerance
        if nsteps > _MAX_STEPS:
            fail(f"step budget exhausted (latest rejection: {why})", culprit)
        h = min(h, 1.0 - t)
        if h < _MIN_STEP:
            fail(f"step-size underflow (latest rejection: {why})", culprit)
        y_new = geometry(starts + delta * (t + nodes * h)[:, None], y_ref)[-1]
        np.multiply(h, _A, out=hA[:, 1:])
        for row, terms, st_real, st, c, out in stages:
            np.matmul(row, terms, out=st_real)
            np.multiply(c, st, out=prods)
            np.add(prod_0, prod_1, out=out)
        # combined estimate h |e5|^2 / hypot(|e5|, |e3| / 10) per entry,
        # scaled by tol * (1 + max(|Y|, |Y_new|)); NaN propagates
        np.matmul(_E, YK_real[1:13], out=est_real)
        np.abs(est, out=abs_est)
        np.abs(Y_new, out=abs_new)
        np.hypot(a5, np.multiply(0.1, a3, out=den), out=den)
        den *= np.add(1.0, np.maximum(abs_Y, abs_new, out=rel_err), out=rel_err)
        np.maximum(den, _TINY, out=den)
        np.divide(np.multiply(a5, a5, out=rel_err), den, out=rel_err)
        err = float(rel_err.max()) * h / tol
        nsteps += 1
        if not math.isfinite(err):
            culprit = int(np.argmin(np.isfinite(by_member(rel_err))))
            why = "non-finite error estimate"
            h *= 0.1
            continue
        guard = _on_sheet(y_new, y_ref)  # per row: negating y leaves the test unchanged
        sheet_ok = bool(guard.all())
        if err <= 1.0 and sheet_ok:
            t += h
            accepted += 1
            Y[...] = Y_new
            abs_Y, abs_new = abs_new, abs_Y
            if float(abs_Y.max()) > _GROWTH_CAP:
                fail("transport entry above 2**26", int(np.argmax(by_member(abs_Y))))
            y_ref = y_new
            K[0] = K[12]
            h *= 6.0 if err == 0.0 else min(6.0, 0.9 * err**-0.125)
        elif sheet_ok:
            culprit, why = int(np.argmax(by_member(rel_err))), "local error"
            h *= min(0.9, max(0.2, 0.9 * err**-0.125))
        else:
            culprit = int(np.argmin(guard)) * ns  # the row's first sheet
            why = "sheet guard: path too close to a branch point?"
            h *= 0.5
    y_closed = y_start * _continuation(starts, ends, root_rows)
    on_sheet = np.abs(y_ref / y_closed - 1) <= _SHEET_MATCH_TOL
    if not on_sheet.all():
        fail("y at the path's end is off the closed-form continuation",
             int(np.argmin(on_sheet)) * ns)
    return np.ascontiguousarray(Y.transpose(3, 2, 0, 1)), (accepted, nsteps - accepted)


# -- monodromy representation ----------------------------------------------------

_RELATION_TOL = 1e-8  # gate on the surface-relation residual
_DET_TOL = 1e-10  # gate on each loop's |det T - 1|


@dataclass(frozen=True)
class MonodromyRepresentation:
    matrices: tuple  # 2g numpy 2x2 arrays, order a1, b1, ..., ag, bg
    loop_names: tuple
    relation_residual: float
    det_residuals: tuple
    letter_norms: tuple  # per letter k: max over sheets s of |T(k,s)|_2
    steps: tuple  # (accepted, rejected) steps of the sweep that made it

    @property
    def valid(self) -> bool:
        return self.relation_residual <= _RELATION_TOL and all(
            d <= _DET_TOL for d in self.det_residuals
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
            "letter_norms": list(self.letter_norms),
            "steps": dict(zip(("accepted", "rejected"), self.steps)),
            "relation_tol": _RELATION_TOL,
            "det_tol": _DET_TOL,
            "valid": self.valid,
        }


def _dets(m):
    """Determinants (real, imaginary part) of a stack of 2x2 matrices, from
    real parts: numpy's array complex multiply rounds unlike its scalar one
    (852 of 2000 random determinants differed in the last bit)."""
    a, b, c, d = m[..., 0, 0], m[..., 0, 1], m[..., 1, 0], m[..., 1, 1]
    re = (a.real * d.real - a.imag * d.imag) - (b.real * c.real - b.imag * c.imag)
    im = (a.real * d.imag + a.imag * d.real) - (b.real * c.imag + b.imag * c.real)
    return re, im


def _sl2_inverses(m):
    """Inverses of a stack of 2x2 matrices: adjugate over determinant."""
    det = np.stack(_dets(m), axis=-1).view(m.dtype)
    adj = np.stack([m[..., 1, 1], -m[..., 0, 1], -m[..., 1, 0], m[..., 0, 0]], axis=-1)
    return adj.reshape(m.shape) / det[..., None]


def _opnorms(stack):
    """Spectral norms of a stack; an overflowed matrix has no SVD: norm inf."""
    finite = np.isfinite(stack).all(axis=(-2, -1))
    sigma = np.linalg.svd(np.where(finite[..., None, None], stack, 0), compute_uv=False)[..., 0]
    return np.where(finite, sigma, math.inf)


def _words(letter_t, loops: LoopSystem):
    """Forward transports (n, 2g, 2, 2) of the loops: products of ``letter_t``
    (n, 2g+1, 2 sheets, 2, 2) in np.clongdouble, so that rounding a word once
    keeps float products out of its determinant residual (where longdouble is
    double, as on macOS arm64, they are the float products)."""
    ext = letter_t.astype(np.clongdouble)
    words = np.empty((len(ext), len(loops.loops), 2, 2), dtype=np.clongdouble)
    for j, loop in enumerate(loops.loops):
        w = np.eye(2, dtype=np.clongdouble)
        for i, k in enumerate(loop.word):
            w = ext[:, k - 1, i % 2] @ w
        words[:, j] = w
    return words


def _letter_transports(roots, matrices, loops: LoopSystem, ode_tol: float):
    """Forward letter transports (n, 2g+1, 2 sheets, 2, 2) of the family
    ``roots`` (n, 2g+1) and ``matrices`` (n, g, 2, 2), reach(k,-s)^-1
    reach(k,s), and the (accepted, rejected) steps of the two sweeps, edges
    first.  reach = W F is the transport from the base to lam on sheet s: F
    from one sweep of base-line edges (``_feet``), W from one of the half
    turns u_f -> 0 in the charts of ``_turn_charts``, each started from the
    foot's y in its chart, sqrt P(u_f) = y_foot scale / (2 b u_f)."""
    chart_roots, coeffs, u_foot, factor = _turn_charts(roots, matrices, loops)  # guards first
    feet, y_feet, edge_steps = _feet(roots, matrices, loops, ode_tol)
    members = [(i, f"letter {k + 1} turn", s) for i, k in np.ndindex(y_feet.shape) for s in _SHEETS]
    halves, turn_steps = _transport(u_foot, np.zeros_like(u_foot), y_feet.ravel() * factor,
                                    chart_roots, coeffs, ode_tol, members)
    # formed in extended precision and rounded once, as words are
    reach = halves.reshape(feet.shape).astype(np.clongdouble) @ feet
    letters = (_sl2_inverses(reach[:, :, ::-1]) @ reach).astype(complex)
    return letters, (edge_steps, turn_steps)


def _feet(roots, matrices, loops: LoopSystem, ode_tol: float):
    """Transports F (n, 2g+1, 2 sheets, 2, 2) in np.clongdouble from the base
    to each letter's foot, y (n, 2g+1) continued there from the principal
    root at the base, and the (accepted, rejected) steps of the one sweep of
    one edge per foot off the base, each started from its parent foot's y.
    The edges run along the base line, so y at each foot is the closed-form
    continuation from the base."""
    n, nl = roots.shape  # one letter per branch point
    feet = np.array(loops.feet + (loops.base_point,))  # slot nl: the base
    offset = (feet - loops.base_point).real.tolist()  # the feet lie on the base line
    parent, last = {}, [nl, nl]  # the nearest foot (or the base) on each side so far
    for k in np.argsort(np.abs(offset[:nl]), kind="stable").tolist():
        if offset[k] != 0:
            parent[k], last[offset[k] > 0] = last[offset[k] > 0], k
    rows = sorted(parent)  # edge rows in member order
    parents = [parent[k] for k in rows]
    root_rows = roots.T[..., None]
    y_feet = _sqrt_f(feet[nl], root_rows) * _continuation(feet[nl], feet, root_rows)  # (n, nl + 1)
    members = [(i, f"letter {k + 1}", s) for i in range(n) for k in rows for s in _SHEETS]
    edges, steps = _transport(np.tile(feet[parents], n), np.tile(feet[rows], n),
                              y_feet[:, parents].ravel(), roots.repeat(len(rows), 0),
                              matrices.repeat(len(rows), 0), ode_tol, members)
    edges = edges.reshape(n, len(rows), len(_SHEETS), 2, 2)
    feet_t = np.broadcast_to(np.eye(2, dtype=np.clongdouble), (n, nl + 1, len(_SHEETS), 2, 2)).copy()
    for k in parent:  # by distance from the base: parents first
        j, p = rows.index(k), parent[k]
        feet_t[:, k] = edges[:, j] @ feet_t[:, p]
    return feet_t[:, :nl], y_feet[:, :nl], steps


def _triangle_distance(p, a, b, c):
    """Distance of the points p from the triangles (a, b, c), broadcast; 0
    inside.  A zero-length edge, as when a foot is its south, gives the
    distance to its point."""
    out, cross = np.inf, []
    for o, d in ((a, b - a), (b, c - b), (c, a - c)):
        t = np.clip(((p - o) * d.conjugate()).real / np.maximum(np.abs(d) ** 2, _TINY), 0, 1)
        out = np.minimum(out, np.abs(o + t * d - p))
        cross.append(((p - o) * d.conjugate()).imag)
    return np.where((np.min(cross, axis=0) > 0) | (np.max(cross, axis=0) < 0), 0.0, out)


def _turn_guards(roots, loops: LoopSystem):
    """The clearance rule of the letters on n systems' ``roots`` (n, 2g+1):
    lam (n, letters), each system's root nearest the letter's branch point,
    the other roots (n, letters, 2g), and the (mask (n, letters), reason)
    checks, in the order their failures are named (module docstring)."""
    n, m = roots.shape
    radii = np.array(loops.radii)
    dist = np.abs(roots[:, None, :] - np.array(loops.branch_points)[:, None])  # (n, letters, roots)
    own = dist.argmin(axis=-1)[..., None] == np.arange(m)
    per_row = np.broadcast_to(roots[:, None], own.shape)
    lam, others = per_row[own].reshape(n, m), per_row[~own].reshape(n, m, m - 1)
    gap = np.minimum(dist[~own].reshape(others.shape) - radii[:, None],
                     _triangle_distance(others, np.array(loops.feet)[:, None],
                                        np.array(loops.souths)[:, None], lam[..., None]))
    # another branch point may come as near as to a loop segment (0.9 clearance),
    # so an fd step of up to clearance / 4 always passes
    return lam, others, [((gap < 0.9 * loops.clearance).any(axis=-1), "another branch point "
                          "inside or within the clearance of its circle or of its turn's triangle"),
                         (dist[own].reshape(n, m) >= radii / _SEC, "no branch point inside its "
                          "circle")]


@np.errstate(all="ignore")  # rows that fail the guards may divide by zero
def _turn_charts(roots, matrices, loops: LoopSystem):
    """Chart roots, coefficients, u_f and sqrt P(u_f) / y_foot of the turns,
    row (i, k) for system i and letter k, after the turn guards, which name
    the first failing system and letter.  f = b^(2g+1) u^2 P(u), P = prod_j
    (u^2 - (lam_j - lam) / b), and the connection is N(u) du / sqrt P(u),
    N = 2 b^(1/2-g) sum_c M_c x^c."""
    (n, m), g = roots.shape, matrices.shape[1]
    lam, others, checks = _turn_guards(roots, loops)
    for bad, what in checks:
        if bad.any():
            i, k = divmod(int(np.argmax(bad)), m)
            name = f"letter {k + 1}"
            raise IntegrationError(f"system {i}, {name}: {what}", member=(i, name, 1))
    lam, b = lam.ravel(), (np.array(loops.souths) - lam).ravel()  # rows (system, letter)
    half = np.sqrt((others.reshape(len(lam), m - 1) - lam[:, None]) / b[:, None])
    scale = 2 * np.sqrt(b) / b**g  # 2 b^(1/2-g)
    # N_2d = scale b^d sum_{c >= d} C(c, d) lam^(c-d) M_c; odd coefficients are 0
    c = np.arange(g)
    binom = np.array([[math.comb(j, d) for j in c] for d in c])
    weights = binom * lam[:, None, None] ** np.maximum(c - c[:, None], 0)
    weights *= (scale[:, None] * b[:, None] ** c)[..., None]
    coeffs = np.zeros((len(lam), 2 * g - 1, 4), dtype=complex)
    coeffs[:, ::2] = weights @ matrices.repeat(m, axis=0).reshape(-1, g, 4)
    u_foot = np.sqrt((np.tile(loops.feet, n) - lam) / b)
    return (np.concatenate([half, -half], axis=1), coeffs.reshape(len(lam), -1, 2, 2), u_foot,
            scale / (2 * b * u_foot))


@np.errstate(all="ignore")  # an overflowed word or relation product is reported invalid
def _representations(letter_t, loops: LoopSystem, steps) -> list:
    """Representations from letter transports (n, 2g+1, 2 sheets, 2, 2) and
    their sweep's ``steps``, every quantity computed for all n systems at once."""
    words = _words(letter_t, loops).astype(complex)
    re, im = _dets(words)
    det_res = np.hypot(re - 1.0, im)  # array np.abs rounds unlike scalar abs
    mats = _sl2_inverses(words)
    inverses = _sl2_inverses(mats)
    rel = np.eye(2, dtype=complex)
    for i in range(0, mats.shape[1], 2):
        rel = rel @ mats[:, i] @ mats[:, i + 1] @ inverses[:, i] @ inverses[:, i + 1]
    residuals = _opnorms(rel - np.eye(2))
    norms = _opnorms(letter_t).max(axis=-1)
    names = tuple(loop.name for loop in loops.loops)
    return [
        MonodromyRepresentation(tuple(m), names, float(r), tuple(d.tolist()), tuple(nrm.tolist()),
                                steps)
        for m, r, d, nrm in zip(mats, residuals, det_res, norms)
    ]


def monodromy(system, loops: LoopSystem, ode_tol: float) -> MonodromyRepresentation:
    """The representation of one system along a loop system: ``monodromy_family``
    of its ``float_system`` alone.

    Every (letter, starting sheet) member, 2(2g+1) of them, is transported
    and each loop's transport is the product of its letter transports (see
    module docstring).  The stored matrices are transport inverses, so they
    satisfy prod_i [A_i, B_i] = I up to the reported residual; determinant
    residuals are measured on the raw transports and gated at ``_DET_TOL``
    (1e-10), the relation residual at ``_RELATION_TOL`` (1e-8).
    """
    roots, matrices = float_system(system)
    return monodromy_family(roots[None], matrices[None], loops, ode_tol)[0]


def monodromy_family(roots, matrices, loops: LoopSystem, ode_tol: float) -> list:
    """Representations of the family ``roots`` (n, 2g+1) and ``matrices``
    (n, g, 2, 2), row i one float system (``float_system``), in one shared
    sweep, in row order, for finite-difference partners that must see one
    discretisation; each result then depends on the family, and errors name
    a system by its row."""
    letter_t, sweeps = _letter_transports(roots, matrices, loops, ode_tol)
    return _representations(letter_t, loops, tuple(map(sum, zip(*sweeps))))


# -- trace coordinates ------------------------------------------------------------


def standard_word_list(g: int) -> tuple:
    """The documented trace word list: 2g singles, the g handle products
    a_i b_i, the mixed triple a1 b1 a2, then deterministic pair padding
    (a_i a_j, then b_i b_j for i < j) up to 6g - 3 entries: the 3g + 1 words
    before it and its g (g - 1) pairs always reach that, as (g - 2)^2 >= 0."""
    words = [(f"{k}{i}",) for i in range(1, g + 1) for k in ("a", "b")]
    words += [(f"a{i}", f"b{i}") for i in range(1, g + 1)]
    words.append(("a1", "b1", "a2"))
    for k in ("a", "b"):
        words += [(f"{k}{i}", f"{k}{j}") for i in range(1, g + 1) for j in range(i + 1, g + 1)]
    return tuple(words[: 6 * g - 3])


def _require_valid(rep: MonodromyRepresentation, index=None) -> None:
    if not rep.valid:
        raise InvalidRepresentationError(
            f"invalid representation: relation residual {rep.relation_residual:.3e}, "
            f"max det residual {max(rep.det_residuals):.3e}, "
            f"largest letter norm {max(rep.letter_norms):.3e}",
            index=index,
        )


def trace_values(reps) -> np.ndarray:
    """Traces (n, words) of the documented word list for n representations
    of one genus on one loop system, one product chain per word over the
    stacked generator matrices.

    Requires every representation to be valid (relation and determinant
    residuals within ``_RELATION_TOL`` and ``_DET_TOL``); the first invalid
    one raises ``InvalidRepresentationError`` with its position as ``index``.
    """
    for i, rep in enumerate(reps):
        _require_valid(rep, i)
    mats = np.array([rep.matrices for rep in reps])  # (n, 2g, 2, 2)
    column = {name: i for i, name in enumerate(reps[0].loop_names)}
    words = standard_word_list(reps[0].genus)
    out = np.empty((len(reps), len(words)), dtype=complex)
    for j, w in enumerate(words):
        m = np.eye(2, dtype=complex)
        for name in w:
            m = m @ mats[:, column[name]]
        out[:, j] = m[:, 0, 0] + m[:, 1, 1]
    return out


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
    norms = _opnorms(np.array(mats))
    scale = max(float(norms.max()), 1.0)
    candidates = None
    for m in mats:
        centered = m - (np.trace(m) / 2.0) * np.eye(2)
        if _opnorms(centered) > _PROBE_TOL * scale:
            _, vecs = np.linalg.eig(m)
            candidates = [vecs[:, 0], vecs[:, 1]]
            break
    if candidates is None:
        # every generator is (numerically) central: every line is invariant
        return IrreducibilityVerdict(False, (1.0 + 0j, 0j))
    for v in candidates:
        v = v / np.linalg.norm(v)
        common = True
        for m, norm in zip(mats, norms):
            image = m @ v
            mu = np.vdot(v, image)
            if np.linalg.norm(image - mu * v) > _PROBE_TOL * max(norm, 1.0):
                common = False
                break
        if common:
            return IrreducibilityVerdict(False, (complex(v[0]), complex(v[1])))
    return IrreducibilityVerdict(True, None)

"""Independent oracles used across the test suite.

Nothing here reuses the code paths it checks: holomorphy comes from local
valuations, theta matrices from the documented monomials multiplied as
polynomials or forms, multiplication ranks from point evaluation and an
SVD rank of its own (``svd_rank``), periods from composite Gauss-Legendre
quadrature, loop words from exact finite-field representations of the
branch-loop group, loop clearance from the polygon
rule on drawn letters, exact ranks, pivots and solves from sympy, the
first independent subset by a greedy sympy-rank loop, the gauge slice's
transversality from commutators of the defining 2 x 2 matrices, the kernel's
square roots from products taken one root at a time and its nearer roots from the two
distances, the stacked representation layer of the monodromy from
products and norms taken one matrix at a time, and the Jacobi identity
from every index tuple in plain numbers.  The one exception is the whole-polyline transport, which
runs the monodromy's own kernel on every segment of a polyline, circles
included, with no edge, chart or letter product of its own, and starts each
segment on the sheet of its own dense square-root continuation, not the
monodromy's closed form.
"""

import cmath
import math
import random
from fractions import Fraction

import numpy as np
import numpy.polynomial.legendre as leg
import sympy

from diffsys.curves import HyperellipticCurve, PlaneQuartic
from diffsys.field import ExactMatrix, ExactScalar
from diffsys.monodromy import _SHEETS, _transport, float_system

# -- valuation oracle for hyperelliptic differentials --------------------------


def hyperelliptic_vanishing_order(curve, numer_coeffs, denom_class, weight, place):
    """Order of vanishing of p(x) dx^w / y^k at a branch point or infinity.

    Local valuations: at a finite branch point lambda, v(x - lambda) = 2,
    v(dx) = 1, v(y) = 1, and v(x - mu) = 0 for mu != lambda.  At the single
    point over infinity of an odd-degree model, v(x) = -2, v(dx) = -3,
    v(y) = -(2g+1).  For even degree (two points at infinity): v(x) = -1,
    v(dx) = -2, v(y) = -(g+1).
    """
    k = {"y": 1, "y2": 2}[denom_class]
    coeffs = [c for c in numer_coeffs]
    deg = -1
    for i, c in enumerate(coeffs):
        if not c.is_zero():
            deg = i
    if deg < 0:
        raise ValueError("zero differential has no finite vanishing order")
    n = len(curve.branch_points)
    g = curve.genus
    if place == "infinity":
        if curve.odd_model:
            return -2 * deg + weight * (-3) - k * (-(2 * g + 1))
        return -deg + weight * (-2) - k * (-(g + 1))
    lam = place
    mult = _root_multiplicity(coeffs, lam)
    return 2 * mult + weight * 1 - k * 1


def _root_multiplicity(coeffs_ascending, lam):
    """Exact multiplicity of lam as a root, by repeated synthetic division."""
    mult = 0
    work = list(coeffs_ascending)
    while work:
        val = None
        for c in reversed(work):
            val = c if val is None else val * lam + c
        if not val.is_zero():
            break
        carry = None
        quot_desc = []
        for c in reversed(work):
            carry = c if carry is None else carry * lam + c
            quot_desc.append(carry)
        work = list(reversed(quot_desc[:-1]))
        mult += 1
    return mult


# -- evaluation-interpolation rank oracle --------------------------------------


def evaluation_rank(curve, differentials, rel_tol=1e-10, seed=1234):
    """Numeric rank of a family of weight-2 differentials via point sampling.

    Evaluates every differential at 3g-3 random curve points in a common
    trivialization and ranks the evaluation matrix; for generic points this
    equals the dimension of the span, independent of any coordinate basis.
    """
    rng = random.Random(seed)
    g = curve.genus
    npts = 3 * g - 3
    rows = []
    if isinstance(curve, HyperellipticCurve):
        roots = curve.float_roots()

        def f(x):
            acc = 1 + 0j
            for r in roots:
                acc *= x - r
            return acc

        pts = []
        while len(pts) < npts:
            x = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
            if min(abs(x - r) for r in roots) > 1e-2:
                y = cmath.sqrt(f(x))
                pts.append((x, y))
        for x, y in pts:
            row = []
            for numer, denom_class in differentials:
                val = sum(
                    c.to_complex() * x**i for i, c in enumerate(numer)
                )
                row.append(val / (y * y if denom_class == "y2" else y))
            rows.append(row)
    else:
        assert isinstance(curve, PlaneQuartic)
        form = {e: c.to_complex() for e, c in curve.coefficients}

        def F(x, y):
            return sum(c * x**e[0] * y**e[1] for e, c in form.items())

        pts = []
        while len(pts) < npts:
            x = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            poly = [0j] * 5
            for e, c in form.items():
                poly[e[1]] += c * x ** e[0]
            roots_y = np.roots(list(reversed(poly)))
            for y in roots_y:
                pts.append((x, complex(y)))
                break
        for x, y in pts:
            row = []
            for numer, _ in differentials:
                val = sum(
                    c.to_complex() * x ** e[0] * y ** e[1] for e, c in dict(numer).items()
                )
                row.append(val)
            rows.append(row)
    return svd_rank(np.array(rows, dtype=complex), rel_tol)


def svd_rank(a, rel_tol):
    """The number of singular values of ``a`` above ``rel_tol`` times the largest."""
    s = np.linalg.svd(a, compute_uv=False)
    return int(np.count_nonzero(s > rel_tol * s.max(initial=0.0)))


# -- monomial bases and their products ----------------------------------------
#
# The documented bases, written out here rather than read from diffsys: a
# differential is (numerator, denominator class).  Hyperelliptic numerators
# are ascending x-coefficient tuples over "y" or "y2"; quartic numerators are
# ((exponents, coefficient), ...) over "adj" (weight 1) or "adj2" (weight 2).

_LINEAR = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
_QUADRATIC = ((2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 0), (1, 0, 1), (0, 1, 1))
_ZERO, _ONE = ExactScalar.of(0), ExactScalar.of(1)


def _x_power(i):
    return (_ZERO,) * i + (_ONE,)


def weight1_monomials(curve):
    """x^i dx/y for 0 <= i < g, or the linear forms x, y, z."""
    if isinstance(curve, HyperellipticCurve):
        return [(_x_power(i), "y") for i in range(curve.genus)]
    return [(((e, _ONE),), "adj") for e in _LINEAR]


def weight2_monomials(curve):
    """x^i dx^2/y^2 for 0 <= i <= 2g-2, then x^j dx^2/y for 0 <= j <= g-3; or
    the quadratic forms x^2, y^2, z^2, xy, xz, yz."""
    if isinstance(curve, HyperellipticCurve):
        g = curve.genus
        return [(_x_power(i), "y2") for i in range(2 * g - 1)] + [
            (_x_power(j), "y") for j in range(g - 2)
        ]
    return [(((e, _ONE),), "adj2") for e in _QUADRATIC]


def _terms(numer, denom_class):
    """The nonzero monomial terms as ((class, monomial), coefficient) pairs."""
    pairs = enumerate(numer) if denom_class in ("y", "y2") else numer
    return [((denom_class, m), c) for m, c in pairs if not c.is_zero()]


def _combination(basis, coords):
    acc = {}
    for c, (numer, denom_class) in zip(coords, basis):
        for key, v in _terms(numer, denom_class):
            acc[key] = acc.get(key, _ZERO) + c * v
    return acc


def _multiply(a, b):
    """Product of two weight-1 differentials given as {(class, monomial): c}:
    polynomials in x over y * y = y^2, or forms over adj * adj = adj2."""
    out = {}
    for (cls, m1), c1 in a.items():
        for (_, m2), c2 in b.items():
            if cls == "y":
                key = ("y2", m1 + m2)
            else:
                key = ("adj2", tuple(p + q for p, q in zip(m1, m2)))
            out[key] = out.get(key, _ZERO) + c1 * c2
    return out


def _products(curve, w_coords):
    basis = weight1_monomials(curve)
    ws = [_combination(basis, coords) for coords in w_coords]
    return [_multiply(dict(_terms(*b)), w) for b in basis for w in ws]


def theta_products(curve, w_coords):
    """The products basis_i * W_j in theta-matrix column order (i * dim W + j)
    as (numerator, denominator class) pairs, multiplied as polynomials or
    forms from this module's own monomials."""
    out = []
    for product in _products(curve, w_coords):
        if isinstance(curve, HyperellipticCurve):
            numer = [_ZERO] * (2 * curve.genus - 1)
            for (_, i), c in product.items():
                numer[i] = c
            out.append((tuple(numer), "y2"))
        else:
            out.append((tuple((e, c) for (_, e), c in product.items()), "adj2"))
    return out


def theta_columns(curve, w_coords):
    """``theta_products`` written in the weight-2 monomial basis: one exact
    coordinate column per product.  A term outside the basis fails."""
    index = {_terms(*m)[0][0]: r for r, m in enumerate(weight2_monomials(curve))}
    columns = []
    for product in _products(curve, w_coords):
        col = [_ZERO] * len(index)
        for key, c in product.items():
            assert key in index, f"product term {key} lies outside the weight-2 basis"
            col[index[key]] = col[index[key]] + c
        columns.append(tuple(col))
    return columns


# -- quadrature period oracle ---------------------------------------------------

_NODES, _WEIGHTS = leg.leggauss(24)


def _f_of(roots):
    def f(x):
        acc = 1 + 0j
        for r in roots:
            acc *= x - r
        return acc

    return f


def _nearer_sqrt(f, x, y):
    """The square root of f(x) nearer to y (dense continuation step)."""
    yy = cmath.sqrt(f(x))
    return -yy if abs(yy - y) > abs(-yy - y) else yy


def loop_integral(curve, loop, numer_coeffs, chunk=0.05):
    """Integral of (sum c_i x^i) dx / y along a loop polyline, by composite
    Gauss-Legendre with dense square-root continuation."""
    f = _f_of(curve.float_roots())
    y = cmath.sqrt(f(loop.vertices[0]))
    if loop.sheets[0] < 0:
        y = -y
    total = 0j
    for a, b in zip(loop.vertices, loop.vertices[1:]):
        n = max(2, int(abs(b - a) / chunk) + 1)
        for m in range(n):
            p = a + (b - a) * m / n
            q = a + (b - a) * (m + 1) / n
            mid, half = (p + q) / 2, (q - p) / 2
            acc = 0j
            for t, w in zip(_NODES, _WEIGHTS):
                x = mid + half * t
                yy = _nearer_sqrt(f, x, y)
                acc += w * sum(c * x**i for i, c in enumerate(numer_coeffs)) / yy
            total += acc * half
            y = _nearer_sqrt(f, q, y)
    return total


def loop_sheets(curve, loop, chunk=0.05):
    """Sheet of y = sqrt(f) at every vertex of a whole loop polyline, never
    split into letters (``vertex_sheets``)."""
    return vertex_sheets(curve.float_roots(), loop.vertices, chunk)


def vertex_sheets(roots, vertices, chunk=0.05):
    """Sheet of y = sqrt(f), f = prod (x - r) over ``roots``, at every vertex
    of a polyline, against the principal root: +1 at the first vertex, then
    dense continuation with the nearer-root rule of ``loop_integral``."""
    f = _f_of(roots)
    y = cmath.sqrt(f(vertices[0]))
    sheets = [1]
    for a, b in zip(vertices, vertices[1:]):
        n = max(2, int(abs(b - a) / chunk) + 1)
        for m in range(1, n + 1):
            y = _nearer_sqrt(f, a + (b - a) * m / n, y)
        p = cmath.sqrt(f(b))
        sheets.append(1 if abs(y - p) <= abs(y + p) else -1)
    return sheets


# -- polygon clearance reference ------------------------------------------------


def polygon_clear(vertices, roots, clearance):
    """The polygon clearance rule that loops were once built by: every vertex
    of the polyline at least the clearance from every branch point (to 1e-9,
    relative), every segment at least 0.9 of it.  The reference for the one
    rule of ``build_loops``, the turn guards of its letters."""
    for v in vertices:
        for r in roots:
            if abs(v - r) < clearance * (1 - 1e-9):
                return False
    for a, b in zip(vertices, vertices[1:]):
        d = b - a
        L2 = d.real * d.real + d.imag * d.imag
        if L2 == 0:
            continue
        for r in roots:
            t = ((r - a).real * d.real + (r - a).imag * d.imag) / L2
            t = min(1.0, max(0.0, t))
            if abs(a + t * d - r) < 0.9 * clearance:
                return False
    return True


CLEARANCES = (0.22, 0.2, 0.1, 0.05)


def clearance_curves(count=40, seed=0):
    """Curves for the clearance census: branch points 0..2g for genus 2 to 5,
    0+i, 1-i, 2, 3+2i, 4-i, and ``count`` seeded configurations of 5, 7 or 9
    distinct rational points, real parts in tenths of [-3, 3] and imaginary
    parts in tenths of [-1.5, 1.5]."""
    curves = [HyperellipticCurve.from_integers(range(2 * g + 1)) for g in range(2, 6)]
    curves.append(HyperellipticCurve(tuple(ExactScalar.of(j, im)
                                           for j, im in enumerate((1, -1, 0, 2, -1)))))
    rng = random.Random(seed)
    while len(curves) < count + 5:
        n = rng.choice((5, 7, 9))
        points = {(rng.randint(-30, 30), rng.randint(-15, 15)) for _ in range(n)}
        if len(points) == n:
            curves.append(HyperellipticCurve(tuple(
                ExactScalar.of(Fraction(a, 10), Fraction(b, 10)) for a, b in sorted(points))))
    return curves


# -- exact finite-field check of loop words --------------------------------------

_P = 2**61 - 1


def _inv_mod(a):
    return pow(a, _P - 2, _P)


def _mat_mul(a, b):
    return (
        (a[0] * b[0] + a[1] * b[2]) % _P,
        (a[0] * b[1] + a[1] * b[3]) % _P,
        (a[2] * b[0] + a[3] * b[2]) % _P,
        (a[2] * b[1] + a[3] * b[3]) % _P,
    )


def _sqrt_mod(n):
    if n == 0:
        return 0
    if pow(n, (_P - 1) // 2, _P) != 1:
        return None
    r = pow(n, (_P + 1) // 4, _P)
    return r if r * r % _P == n else None


def involution_rep(n_letters, rng):
    """n trace-zero SL2(F_p) matrices whose ordered product has trace zero.

    These are exactly representations of the group generated by the
    elementary branch loops (each an involution upstairs, with the loop at
    infinity also an involution), so any word that is trivial in pi_1 of the
    curve must evaluate to +-identity.
    """
    while True:
        mats = []
        for _ in range(n_letters - 1):
            a = rng.randrange(_P)
            b = rng.randrange(1, _P)
            c = (-(1 + a * a)) * _inv_mod(b) % _P
            mats.append((a, b, c, (-a) % _P))
        q = (1, 0, 0, 1)
        for m in mats:
            q = _mat_mul(q, m)
        if q[1] == 0 or q[2] == 0:
            continue
        a = rng.randrange(_P)
        s = (-a * (q[0] - q[3])) % _P
        aa, bb, cc = q[2] % _P, (-s) % _P, (-(1 + a * a) * q[1]) % _P
        disc = (bb * bb - 4 * aa * cc) % _P
        r = _sqrt_mod(disc)
        if r is None:
            continue
        b = (-bb + r) * _inv_mod(2 * aa) % _P
        if b == 0:
            continue
        c = (s - b * q[2]) % _P * _inv_mod(q[1]) % _P
        if (-a * a - b * c) % _P != 1:
            continue
        mats.append((a, b, c, (-a) % _P))
        return mats


def word_is_trivial_upstairs(words_product, n_letters, trials=8, seed=7):
    """Exact check that a concatenation of letter words is trivial in pi_1."""
    rng = random.Random(seed)
    idm = (1, 0, 0, 1)
    neg = (_P - 1, 0, 0, _P - 1)
    for _ in range(trials):
        mats = involution_rep(n_letters, rng)
        acc = idm
        for k in words_product:
            acc = _mat_mul(acc, mats[k - 1])
        if acc != idm and acc != neg:
            return False
    return True


# -- whole-polyline transport reference ------------------------------------------


def polyline_transports(roots, matrices, polylines, ode_tol, kinds=None):
    """Forward transports (n, p, 2 sheets, 2, 2) of the family of n systems
    ``roots`` (n, 2g+1) and ``matrices`` (n, g, 2, 2) along each of p
    polylines, from each start sheet of ``_SHEETS`` at the first vertex, and
    the (rows, (accepted, rejected)) of each kernel sweep behind them.

    Every segment of every polyline is a row for every system, run on both
    sheets.  Rows share one sweep, or, given ``kinds`` (one per segment
    position; the polylines then have one length), one sweep per kind, so
    that short segments do not take the steps of the hardest one.  Each
    segment starts from the sheet that ``vertex_sheets`` reaches at its
    start, times sqrt f there, so a polyline's transport chains its
    segments' members on one start sheet."""
    rows = [(i, p, j) for i in range(len(roots)) for p, line in enumerate(polylines)
            for j in range(len(line) - 1)]
    profiles = {}  # systems often share their roots
    y_starts = []
    for i, p, j in rows:
        key = (roots[i].tobytes(), p)
        if key not in profiles:
            profiles[key] = vertex_sheets(roots[i].tolist(), polylines[p])
        y_starts.append(profiles[key][j] * cmath.sqrt(_f_of(roots[i].tolist())(polylines[p][j])))
    y_starts = np.array(y_starts)
    kind_of = [None if kinds is None else kinds[j] for _, _, j in rows]
    segments = np.empty((len(rows), len(_SHEETS), 2, 2), dtype=complex)
    sweeps = []
    for kind in dict.fromkeys(kind_of):
        picked = [n for n, k in enumerate(kind_of) if k == kind]
        part = [rows[n] for n in picked]
        members = [(i, f"polyline {p} segment {j}", s) for i, p, j in part for s in _SHEETS]
        systems = [i for i, _, _ in part]
        segments[picked], steps = _transport(
            np.array([polylines[p][j] for _, p, j in part], dtype=complex),
            np.array([polylines[p][j + 1] for _, p, j in part], dtype=complex), y_starts[picked],
            roots[systems], matrices[systems], ode_tol, members)
        sweeps.append((len(part), steps))
    out = np.empty((len(roots), len(polylines), len(_SHEETS), 2, 2), dtype=complex)
    out[...] = np.eye(2)
    for (i, p, _), segment in zip(rows, segments):
        out[i, p] = segment @ out[i, p]
    return out, sweeps


def integrate_loop(system, loop, ode_tol):
    """Forward 2x2 transport around one whole loop of an sl2 system, read on
    the sheet of its first vertex (``polyline_transports`` of its
    ``float_system``).  The whole-word reference for the letter products of
    ``monodromy``."""
    roots, matrices = float_system(system)
    forward, _ = polyline_transports(roots[None], matrices[None], [loop.vertices], ode_tol)
    return forward[0, 0, _SHEETS.index(loop.sheets[0])]


# -- square-root references -----------------------------------------------------------


def sqrt_f_by_root(x, root_rows):
    """Principal sqrt(f(x)), f = prod (x - r) over the rows r of ``root_rows``
    broadcast against ``x``, multiplied into one array one root at a time:
    the product that the monodromy's ``_sqrt_f`` must equal bit for bit."""
    prod = x - root_rows[0]
    for r in root_rows[1:]:
        prod *= x - r
    return np.sqrt(prod)


def nearer_root_by_distance(w, y_old):
    """Of the roots +-w, the one nearer to y_old, by comparing the distances."""
    return np.where(np.abs(w - y_old) > np.abs(w + y_old), -w, w)


# -- per-matrix representation reference -------------------------------------------
#
# The monodromy computes every quantity below on stacked arrays; here each is
# formed one 2x2 matrix at a time, with numpy's scalar complex arithmetic for
# determinants and their moduli.


def _opnorm(m):
    return float(np.linalg.norm(m, 2)) if np.isfinite(m).all() else math.inf


def _sl2_inverse(m):
    det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    return np.array([[m[1, 1], -m[0, 1]], [-m[1, 0], m[0, 0]]], dtype=complex) / det


def word_transports(letter_t, loops):
    """Forward transports of the loops from one system's letter transports
    ``letter_t`` (2g+1, 2 sheets, 2, 2): each word a chain of single
    products in np.clongdouble, the i-th letter taken on sheet i % 2."""
    ext = letter_t.astype(np.clongdouble)
    words = []
    for loop in loops.loops:
        w = np.eye(2, dtype=np.clongdouble)
        for i, k in enumerate(loop.word):
            w = ext[k - 1, i % 2] @ w
        words.append(w)
    return words


def representation(letter_t, loops):
    """(matrices, relation residual, det residuals, letter norms) of one
    system from its letter transports."""
    eye = np.eye(2, dtype=complex)
    with np.errstate(all="ignore"):
        transports = [w.astype(complex) for w in word_transports(letter_t, loops)]
        det_res = tuple(
            float(abs((m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]) - 1.0)) for m in transports
        )
        mats = tuple(_sl2_inverse(m) for m in transports)
        rel = eye
        for i in range(len(mats) // 2):
            a, b = mats[2 * i], mats[2 * i + 1]
            rel = rel @ a @ b @ _sl2_inverse(a) @ _sl2_inverse(b)
        residual = _opnorm(rel - np.eye(2))
    norms = tuple(max(_opnorm(t[0]), _opnorm(t[1])) for t in letter_t)
    return mats, residual, det_res, norms


def traces(mats, names, words):
    """Traces of the words (tuples of generator names) in one system's
    generator matrices ``mats``, named ``names``."""
    lookup = dict(zip(names, mats))
    values = []
    for w in words:
        m = np.eye(2, dtype=complex)
        for name in w:
            m = m @ lookup[name]
        values.append(complex(m[0, 0] + m[1, 1]))
    return tuple(values)


# -- sympy exact-rank, pivot and solve oracles ----------------------------------


def _sympy_scalar(e):
    return sympy.Rational(e.re.numerator, e.re.denominator) + sympy.I * sympy.Rational(
        e.im.numerator, e.im.denominator
    )


def _exact_scalar(v):
    re, im = sympy.Rational(sympy.re(v)), sympy.Rational(sympy.im(v))
    return ExactScalar.of(Fraction(re.p, re.q), Fraction(im.p, im.q))


def _sympy_matrix(exact_matrix):
    return sympy.Matrix(
        exact_matrix.rows, exact_matrix.cols, [_sympy_scalar(e) for e in exact_matrix.entries]
    )


def sympy_rank(exact_matrix):
    if exact_matrix.rows == 0 or exact_matrix.cols == 0:
        return 0
    return _sympy_matrix(exact_matrix).rank()


def sympy_pivots(exact_matrix):
    """Pivot columns of sympy's reduced row echelon form."""
    if exact_matrix.rows == 0 or exact_matrix.cols == 0:
        return []
    return list(_sympy_matrix(exact_matrix).rref()[1])


def sympy_solve(columns, target):
    """The x with sum_k x_k * columns[k] = target, as exact scalars, from
    sympy's Gauss-Jordan solve; None when x is not unique.  sympy raises
    ValueError when no x exists."""
    a = sympy.Matrix(len(target), len(columns), lambda r, k: _sympy_scalar(columns[k][r]))
    b = sympy.Matrix([_sympy_scalar(t) for t in target])
    x, params = a.gauss_jordan_solve(b)
    if params.shape[0]:
        return None
    return tuple(_exact_scalar(v) for v in x)


def greedy_row_basis(vectors):
    """The first maximal independent subset of ``vectors``, in order: keep a
    vector when it raises the (sympy) rank of the vectors kept so far."""
    chosen = []
    rank = 0
    for v in vectors:
        if all(c.is_zero() for c in v):
            continue
        candidate = chosen + [tuple(v)]
        if sympy_rank(ExactMatrix.from_rows(candidate)) > rank:
            chosen = candidate
            rank += 1
    return chosen


# -- gauge-slice transversality from the defining 2 x 2 matrices --------------


def gauge_slice_regular(coefficients):
    """Whether the sl2 adjoint action is transverse to the slice freezing the
    E- and F-coordinates on the first differential and the H-coordinate on
    the second: the sympy rank of the frozen coordinates of [rho(e_i), M_c]
    is 3, each commutator taken of 2 x 2 matrices, M_c = sum_j coeff[j, c]
    rho(e_j), and X = [[a, b], [c, -a]] read as a H + b E + c F."""
    basis = [sympy.Matrix(m) for m in (((1, 0), (0, -1)), ((0, 1), (0, 0)), ((0, 0), (1, 0)))]
    m = [sum((_sympy_scalar(coefficients.get(j, c)) * b for j, b in enumerate(basis)), sympy.zeros(2))
         for c in range(coefficients.cols)]
    coordinates = [(x[0, 0], x[0, 1], x[1, 0]) for x in (b * mc - mc * b for mc in m for b in basis)]
    # coordinates[3 * c + i] is [rho(e_i), M_c] in (H, E, F)
    rows = [[coordinates[3 * c + i][r] for i in range(3)] for r, c in ((1, 0), (2, 0), (0, 1))]
    return sympy.Matrix(rows).rank() == 3


# -- reference elimination --------------------------------------------------
# The one-step Bareiss loop that ``field._echelon`` replaced, kept verbatim
# but for the name of its own checked division: ``_echelon``'s pivots must
# equal these, and each of its pivot rows must be a multiple of the row here.


def _bareiss_divide(values, d) -> list:
    """The quotients ``values[k] / d``; a remainder raises ``ArithmeticError``."""
    quotients = [v // d for v in values]
    if [q * d for q in quotients] != values:
        raise ArithmeticError("inexact division in fraction-free elimination")
    return quotients


def bareiss_echelon(rows):
    """Fraction-free row echelon form of the integer matrix ``rows`` (a list
    of int lists, eliminated in place): ``(rows, pivots)``, by one-step
    Bareiss elimination (Bareiss 1968, Math. Comp. 22): every row below a
    pivot is rescaled and divided by the previous pivot, exactly.

    ``rows[r]`` is the echelon row of ``pivots[r]``; its entries from
    ``pivots[r]`` on are final, those before it are stale.
    """
    nrows, ncols = len(rows), len(rows[0]) if rows else 0
    pivots = []
    prev = 1
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
            # column c is never read again, so only the columns after it move
            if lead:
                new = [a * piv - lead * b for a, b in zip(row[c + 1 :], tail)]
            else:
                new = [a * piv for a in row[c + 1 :]]
            row[c + 1 :] = new if prev == 1 else _bareiss_divide(new, prev)
        prev = piv
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return rows, pivots


# -- Jacobi identity over every index tuple ------------------------------------
# The check over all n^4 index tuples that ``LieAlgebraData`` replaced by one
# check per triple i < j < k, kept verbatim but over plain numbers (ints or
# Fractions), so it shares no scalar arithmetic with the code it checks.


def jacobi_violations(table):
    """The (i, j, k, l) at which the cyclic Jacobi sum of the structure
    constants ``table`` (c[i][j][k], plain numbers) is nonzero, in loop
    order and lazily: the first is found without running the rest."""
    n = len(table)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for l in range(n):
                    acc = 0
                    for m in range(n):
                        acc = acc + table[j][k][m] * table[i][m][l]
                        acc = acc + table[k][i][m] * table[j][m][l]
                        acc = acc + table[i][j][m] * table[k][m][l]
                    if acc != 0:
                        yield i, j, k, l

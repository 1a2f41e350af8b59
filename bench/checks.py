"""Independent checks of diffsys outputs.

Nothing here imports diffsys.  Every checker takes plain data (integers,
lists, numpy arrays, parsed JSON) and returns a list of error strings, empty
when the output passes.  The checks recompute what they can from the inputs
with other arithmetic than the program's:

* multiplication ranks by evaluating the products at random points and
  taking an SVD rank (as ``tests/oracles.py`` does), and full-domain ranks
  with sympy;
* the immersion Jacobian against Cauchy-Riemann, since the trace chart is
  holomorphic;
* monodromy reports by recomputing determinants, the surface relation and
  the traces from the reported matrices, and abelian transports against
  Gauss-Legendre periods.
"""

from __future__ import annotations

import cmath
import json

import numpy as np

# Rank of an evaluation matrix: singular values above this share of the
# largest count.  The products have small integer coefficients, so a true
# zero singular value sits near 1e-15 and a true nonzero one above 1e-4.
EVAL_REL_TOL = 1e-9
# The imaginary-direction column of a holomorphic map's Jacobian is i times
# the real-direction one; finite differences leave a residual of 1e-8..1e-6.
CR_REL_TOL = 1e-3
# Floor of the immersion gap rule (diffsys.immersion's rank_rel_floor).
RANK_FLOOR = 1e-6
# Theorem and criterion 7 at genus 2: complex rank 6 with a gap of 1e3.
GENUS2_COMPLEX_RANK = 6
MIN_GAP = 1e3
# Share of the relation gate allowed for rounding in its recomputation.
RELATION_ROUNDING = 0.05
# Abelian transports against quadrature periods (criterion 6 uses 1e-8).
ABELIAN_TOL = 1e-8

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(24)


# -- multiplication ranks ------------------------------------------------------


def _svd_rank(values: np.ndarray) -> int:
    s = np.linalg.svd(values, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.sum(s > EVAL_REL_TOL * s[0]))


def hyperelliptic_product_rank(genus: int, w_rows, seed: int = 0) -> int:
    """Rank of {x^i w(x) dx^2 / y^2 : i < g, w in W} by point evaluation.

    ``w_rows`` are the generators of W as integer coefficient lists of
    x^0 .. x^(g-1).  All products share the denominator y^2, so the rank is
    that of the numerator polynomials, sampled on the unit circle.
    """
    rows = np.asarray(w_rows, dtype=float).reshape(len(w_rows), genus)
    npts = 2 * (2 * genus - 1)
    rng = np.random.default_rng(seed)
    x = np.exp(2j * np.pi * (np.arange(npts) + rng.random(npts)) / npts)
    powers = x[:, None] ** np.arange(genus)[None, :]  # npts x g
    w_vals = powers @ rows.T  # npts x dim W
    values = (powers[:, :, None] * w_vals[:, None, :]).reshape(npts, -1)
    return _svd_rank(values)


def quartic_product_rank(w_rows, seed: int = 0) -> int:
    """Rank of {l * w : l in {x, y, z}, w in W} for linear forms W on a quartic.

    Products are quadratic forms; no nonzero quadric vanishes on a plane
    quartic, so the rank on the curve is the rank of the forms, sampled at
    random points of C^3.
    """
    rows = np.asarray(w_rows, dtype=float).reshape(len(w_rows), 3)
    rng = np.random.default_rng(seed)
    pts = rng.standard_normal((12, 3)) + 1j * rng.standard_normal((12, 3))
    w_vals = pts @ rows.T  # 12 x dim W
    values = (pts[:, :, None] * w_vals[:, None, :]).reshape(12, -1)
    return _svd_rank(values)


def full_domain_rank_sympy(kind: str, genus: int) -> int:
    """Exact rank of multiplication on the full domain, with sympy.

    Columns are the coefficient vectors of all products of two basis
    differentials: x^(i+j) for hyperelliptic curves, products of the linear
    forms x, y, z for quartics.
    """
    import sympy

    if kind == "quartic":
        monomials = [(a, b, 2 - a - b) for a in range(3) for b in range(3 - a)]
        forms = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
        cols = []
        for u in forms:
            for v in forms:
                e = tuple(p + q for p, q in zip(u, v))
                cols.append([1 if m == e else 0 for m in monomials])
    else:
        cols = [
            [1 if k == i + j else 0 for k in range(2 * genus - 1)]
            for i in range(genus)
            for j in range(genus)
        ]
    return sympy.Matrix(cols).T.rank()


def check_scan(kind: str, genus: int, w_dim: int, successes: int, witnesses) -> list:
    """A Lazarsfeld scan: every trial's rank recomputed, plus the dichotomy.

    ``witnesses`` holds (trial, W generator rows, reported rank).  Quartic
    scans must surject (rank 3g-3 = 6 on the full domain), hyperelliptic
    ones must never reach 3g-3, and equal 2g-1 when W is the full domain.
    """
    errors = []
    target = 3 * genus - 3
    for trial, rows, rank in witnesses:
        if kind == "quartic":
            expected = quartic_product_rank(rows, seed=trial)
        else:
            expected = hyperelliptic_product_rank(genus, rows, seed=trial)
        if rank != expected:
            errors.append(f"{kind} g={genus} trial {trial}: rank {rank}, recomputed {expected}")
        if kind == "quartic" and rank != target:
            errors.append(f"quartic trial {trial}: rank {rank} != {target}")
        if kind == "hyperelliptic":
            if rank >= target:
                errors.append(f"hyperelliptic g={genus} trial {trial}: rank {rank} reaches {target}")
            if w_dim == genus and rank != 2 * genus - 1:
                errors.append(f"hyperelliptic g={genus} trial {trial}: full-domain rank {rank} != {2 * genus - 1}")
    if successes != sum(1 for _, _, r in witnesses if r == target):
        errors.append(f"{kind} g={genus}: success count {successes} disagrees with the ranks")
    return errors


def check_noether(kind: str, genus: int, rank: int, corank: int, surjective: bool, exact_rank: int) -> list:
    """Max Noether dichotomy, against an exact rank from ``full_domain_rank_sympy``."""
    errors = []
    target = 3 * genus - 3
    expected = 6 if kind == "quartic" else 2 * genus - 1
    if rank != exact_rank:
        errors.append(f"noether {kind} g={genus}: rank {rank}, sympy {exact_rank}")
    if rank != expected:
        errors.append(f"noether {kind} g={genus}: rank {rank} != {expected}")
    if corank != target - rank or surjective != (rank == target):
        errors.append(f"noether {kind} g={genus}: verdict inconsistent with rank {rank}")
    return errors


def check_criterion(coeff_rows, v_dimension: int, theta_v_rank: int, holds: bool, seed: int = 0) -> list:
    """Injectivity criterion of a genus-2 system with integer coefficients.

    V is the row span of the 3 x 2 coefficient matrix; the verdict holds
    exactly when H0(K) (x) V reaches all 3g-3 = 3 quadratic differentials.
    """
    errors = []
    rows = [list(r) for r in coeff_rows]
    dim_v = int(np.linalg.matrix_rank(np.asarray(rows, dtype=float)))
    rank = hyperelliptic_product_rank(2, rows, seed) if dim_v else 0
    if v_dimension != dim_v:
        errors.append(f"criterion {rows}: dim V {v_dimension}, recomputed {dim_v}")
    if theta_v_rank != rank:
        errors.append(f"criterion {rows}: rank {theta_v_rank}, recomputed {rank}")
    if holds != (theta_v_rank == 3):
        errors.append(f"criterion {rows}: verdict inconsistent with rank {theta_v_rank}")
    return errors


# -- immersion -------------------------------------------------------------------


def cauchy_riemann_residual(jac: np.ndarray) -> float:
    """Relative residual of (imaginary-direction column) - i (real-direction column).

    Columns come in pairs (real step, imaginary step) per complex parameter;
    rows in pairs (real part, imaginary part) per trace.
    """
    jac = np.asarray(jac, dtype=float)
    re_cols, im_cols = jac[:, 0::2], jac[:, 1::2]
    predicted = np.empty_like(re_cols)
    predicted[0::2] = -re_cols[1::2]
    predicted[1::2] = re_cols[0::2]
    return float(np.linalg.norm(im_cols - predicted) / np.linalg.norm(re_cols))


def _column_pair_rank(jac: np.ndarray) -> int:
    """Real rank after scaling each complex parameter's column pair to unit norm."""
    jac = np.array(jac, dtype=float)
    for k in range(jac.shape[1] // 2):
        n = np.linalg.norm(jac[:, 2 * k : 2 * k + 2])
        if n > 0:
            jac[:, 2 * k : 2 * k + 2] /= n
    s = np.linalg.svd(jac, compute_uv=False)
    return int(np.sum(s > RANK_FLOOR * s[0]))


def check_ladder(ladder: dict, jacobians) -> list:
    """Genus-2 fd ladder: the immersion theorem's rank at every step.

    ``ladder`` is ``LadderReport.to_json()``; ``jacobians`` are the real
    Jacobians of its reports, in order.
    """
    errors = []
    full = GENUS2_COMPLEX_RANK
    if not ladder["rank_stable"] or list(ladder["ranks"]) != [full] * len(ladder["steps"]):
        errors.append(f"ladder ranks {ladder['ranks']} (stable {ladder['rank_stable']})")
    if len(jacobians) != len(ladder["reports"]):
        errors.append("ladder: one Jacobian per report expected")
    for step, rep, jac in zip(ladder["steps"], ladder["reports"], jacobians):
        where = f"ladder step {step:g}"
        if rep["estimated_rank"] != full or rep["real_rank"] != 2 * full or not rep["rank_even"]:
            errors.append(f"{where}: rank {rep['estimated_rank']} real {rep['real_rank']}")
        if not rep["gap_ratio"] >= MIN_GAP:
            errors.append(f"{where}: gap {rep['gap_ratio']:.3g} < {MIN_GAP:g}")
        if rep["status"] != "ok":
            errors.append(f"{where}: status {rep['status']}")
        jac = np.asarray(jac, dtype=float)
        if jac.shape[1] != 2 * full:
            errors.append(f"{where}: Jacobian has {jac.shape[1]} columns, not {2 * full}")
            continue
        cr = cauchy_riemann_residual(jac)
        if not cr <= CR_REL_TOL:
            errors.append(f"{where}: Cauchy-Riemann residual {cr:.3g} > {CR_REL_TOL:g}")
        rank = _column_pair_rank(jac)
        if rank != 2 * full:
            errors.append(f"{where}: Jacobian real rank {rank}, recomputed by SVD")
    return errors


# -- monodromy reports -------------------------------------------------------------


def report_matrices(rep: dict) -> list:
    return [
        np.array([complex(re, im) for re, im in m], dtype=complex).reshape(2, 2)
        for m in rep["matrices"]
    ]


def _branch_points(curve: dict) -> list:
    return [complex(rn / rd, in_ / id_) for rn, rd, in_, id_ in curve["branch_points"]]


def check_monodromy_report(report: dict, seed: int | None = None) -> list:
    """A ``diffsys monodromy`` report: determinants, surface relation and
    traces recomputed from its matrices, each within the report's gates."""
    errors = []
    if report.get("subcommand") != "monodromy":
        return [f"subcommand {report.get('subcommand')!r}"]
    if seed is not None and report["config"]["seed"] != seed:
        errors.append(f"config seed {report['config']['seed']} != {seed}")
    genus = (len(report["config"]["curve"]["branch_points"]) - 1) // 2
    result = report["result"]
    rep = result["representation"]
    mats = report_matrices(rep)
    names = rep["loop_names"]
    if len(mats) != 2 * genus or len(names) != 2 * genus:
        return errors + [f"{len(mats)} matrices for genus {genus}"]
    if not rep["valid"]:
        errors.append("report says the representation is invalid")

    # Stored matrices are inverse transports, |1/d - 1| = |d - 1| / |d|.  A
    # determinant near 1 of entries of size s cancels to within a few eps*s^2.
    eps = float(np.finfo(float).eps)
    for name, m, reported in zip(names, mats, rep["det_residuals"]):
        d = abs(np.linalg.det(m) - 1.0)
        rounding = 4 * eps * (abs(m[0, 0] * m[1, 1]) + abs(m[0, 1] * m[1, 0]))
        if not d <= rep["det_tol"] + rounding:
            errors.append(f"loop {name}: det residual {d:.3e} > {rep['det_tol']:.1e}")
        if not abs(d - reported) <= rounding + 1e-6 * reported:
            errors.append(f"loop {name}: det residual {d:.3e}, reported {reported:.3e}")

    # The relation product rounds differently here (numpy inverses) than in
    # the program; the difference has reached 0.6% of the gate on matrices of
    # norm 600, so 5% of the gate is allowed for it.
    rounding = RELATION_ROUNDING * rep["relation_tol"]
    rel = np.eye(2, dtype=complex)
    for i in range(genus):
        a, b = mats[2 * i], mats[2 * i + 1]
        rel = rel @ a @ b @ np.linalg.inv(a) @ np.linalg.inv(b)
    residual = float(np.linalg.norm(rel - np.eye(2), 2))
    if not residual <= rep["relation_tol"] + rounding:
        errors.append(f"relation residual {residual:.3e} > {rep['relation_tol']:.1e}")
    if not abs(residual - rep["relation_residual"]) <= rounding:
        errors.append(f"relation residual {residual:.3e}, reported {rep['relation_residual']:.3e}")

    lookup = dict(zip(names, mats))
    traces = result["traces"]
    if len(traces["words"]) != 6 * genus - 3:
        errors.append(f"{len(traces['words'])} trace words, expected {6 * genus - 3}")
    for word, (re, im) in zip(traces["words"], traces["values"]):
        m = np.eye(2, dtype=complex)
        for name in word.split("*"):
            m = m @ lookup[name]
        t = complex(m[0, 0] + m[1, 1])
        if abs(t - complex(re, im)) > 1e-9 * max(1.0, abs(t)):
            errors.append(f"trace {word}: recomputed {t:.12g}, reported {complex(re, im):.12g}")

    loops = result["loops"]["loops"]
    for loop in loops:
        if loop["vertices"][0] != loop["vertices"][-1] or len(loop["word"]) % 2:
            errors.append(f"loop {loop['name']} is not a closed even word")
    return errors


def abelian_period(branch_points, loop: dict, h_coeffs, chunk: float = 0.05) -> complex:
    """Integral of (sum_k h_k x^k) dx / y along a report loop, by composite
    Gauss-Legendre quadrature with y continued from the loop's start sheet."""
    roots = np.asarray(branch_points, dtype=complex)

    def f(x):
        return np.prod(x[..., None] - roots, axis=-1)

    verts = [complex(re, im) for re, im in loop["vertices"]]
    y_prev = cmath.sqrt(complex(f(np.array(verts[0]))))
    if loop["sheets"][0] < 0:
        y_prev = -y_prev
    h = np.asarray(h_coeffs, dtype=complex)
    total = 0j
    for a, b in zip(verts, verts[1:]):
        n = max(2, int(abs(b - a) / chunk) + 1)
        half = (b - a) / (2 * n)
        mids = a + (b - a) * (np.arange(n) + 0.5) / n
        xs = np.append((mids[:, None] + half * _GL_NODES[None, :]).ravel(), b)
        ys = np.sqrt(f(xs))
        # continuation: keep each value on the side of its predecessor
        prev = np.concatenate(([y_prev], ys[:-1]))
        ys = ys * np.cumprod(np.where((ys * np.conj(prev)).real < 0, -1.0, 1.0))
        vals = np.polyval(h[::-1], xs[:-1]) / ys[:-1]
        total += half * np.sum(vals.reshape(n, -1) @ _GL_WEIGHTS)
        y_prev = ys[-1]
    return complex(total)


def check_abelian_report(report: dict, h_coeffs) -> list:
    """Report of a diagonal system sum_k h_k x^k dx/y * H: each stored
    (inverse) transport must be diag(exp(-P), exp(P)) for the loop period P."""
    errors = []
    branch = _branch_points(report["config"]["curve"])
    mats = report_matrices(report["result"]["representation"])
    for loop, m in zip(report["result"]["loops"]["loops"], mats):
        p = abelian_period(branch, loop, h_coeffs)
        want = np.diag([cmath.exp(-p), cmath.exp(p)])
        err = float(np.max(np.abs(m - want)) / max(1.0, np.max(np.abs(want))))
        if not err <= ABELIAN_TOL:
            errors.append(f"abelian loop {loop['name']}: transport off exp(period) by {err:.3e}")
    return errors



# -- one workload's outputs, as bench/worker.py emits them ---------------------------


class OutputChecker:
    """Checks the op outputs of one workload run; exact ranks are cached per run."""

    def __init__(self, workload: str):
        self.workload = workload
        self._exact_ranks = {}

    def op(self, label, output: dict) -> list:
        if self.workload == "exact_scan":
            errors = []
            for scan in output["scans"]:
                errors += check_scan(*scan)
            for kind, genus, rank, corank, surjective in output["noether"]:
                if (kind, genus) not in self._exact_ranks:
                    self._exact_ranks[kind, genus] = full_domain_rank_sympy(kind, genus)
                errors += check_noether(kind, genus, rank, corank, surjective, self._exact_ranks[kind, genus])
            for j, crit in enumerate(output["criteria"]):
                errors += check_criterion(*crit, seed=j)
            return errors
        if self.workload == "immersion_ladder":
            return check_ladder(output["ladder"], output["jacobians"])
        if output["report"] is None:
            return [f"exit {output['code']} without a report"]
        return check_monodromy_report(json.loads(output["report"]), seed=label)

    def finish(self, output) -> list:
        """The once-per-run check: the abelian report of the CLI workload."""
        if output is None:
            return []
        if output["code"] != 0 or output["report"] is None:
            return [f"abelian monodromy exited {output['code']}: {output['stderr'].strip()}"]
        h = [re_num / re_den for re_num, re_den in output["h"]]
        return check_abelian_report(json.loads(output["report"]), h)

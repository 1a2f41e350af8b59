"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines and timings.  All tolerances are pinned here; nothing is deferred to
later calibration.
"""

import cmath
import time
from fractions import Fraction

import numpy as np
import pytest

from diffsys.curves import HyperellipticCurve, PlaneQuartic
from diffsys.field import ExactMatrix, ExactScalar, exact_rank
from diffsys.immersion import fd_step_ladder, make_center
from diffsys.monodromy import Loop, build_loops, monodromy, trace_values
from diffsys.multiplication import (
    criterion_injective,
    exact_row_basis,
    full_subspace,
    lazarsfeld_scan,
    noether_check,
    theta_matrix,
)
from diffsys.systems import (
    DifferentialSystem,
    builtin_algebra,
    conjugate_system,
    dimension_report,
    sample_system,
    scale_system,
)

from oracles import evaluation_rank, integrate_loop, loop_integral, theta_products

SL2 = builtin_algebra("sl2")

GENUS2_CURVES = [
    HyperellipticCurve.from_integers(pts)
    for pts in (
        [0, 1, 2, 3, 4],
        [0, 1, 3, 6, 10],
        [-4, -2, 0, 2, 4],
        [0, 2, 5, 9, 14],
        [-7, -3, 1, 4, 8],
    )
]

# exact Theta-matrix instances accumulated by criteria 1-4 and replayed
# against the evaluation-interpolation oracle in criterion 8
_ORACLE_INSTANCES = []


def _record(curve, w_coords, rank):
    _ORACLE_INSTANCES.append((curve, tuple(w_coords), rank))


def _report(num, ok, detail, elapsed):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail} ({elapsed:.2f}s)")


def es(re, im=0):
    return ExactScalar.of(re, im)


def test_criterion_1_genus2_surjectivity():
    t0 = time.time()
    ok = True
    for curve in GENUS2_CURVES:
        w = full_subspace(curve)
        theta = theta_matrix(curve, w)
        kernel_dim = theta.matrix.cols - theta.rank
        _record(curve, w.generators, theta.rank)
        if theta.rank != 3 or kernel_dim != 1:
            ok = False
    elapsed = time.time() - t0
    _report(1, ok and elapsed < 1.0, "5 genus-2 curves have rank 3 with kernel dim 1", elapsed)
    assert ok
    assert elapsed < 1.0


def test_criterion_2_noether_dichotomy():
    t0 = time.time()
    ok = True
    for g in range(3, 7):
        curve = HyperellipticCurve.from_integers(range(2 * g + 1))
        verdict = noether_check(curve)
        _record(curve, full_subspace(curve).generators, verdict.rank)
        if verdict.surjective or verdict.rank != 2 * g - 1 or verdict.corank != g - 2:
            ok = False
    for quartic in (PlaneQuartic.fermat(), PlaneQuartic.klein()):
        verdict = noether_check(quartic)
        _record(quartic, full_subspace(quartic).generators, verdict.rank)
        if not verdict.surjective or verdict.rank != 6:
            ok = False
    elapsed = time.time() - t0
    _report(2, ok and elapsed < 5.0, "hyperelliptic rank 2g-1 for g=3..6; quartics rank 6", elapsed)
    assert ok
    assert elapsed < 5.0


def test_criterion_3_lazarsfeld_scan():
    t0 = time.time()
    ok = True
    for quartic in (PlaneQuartic.fermat(), PlaneQuartic.klein()):
        scan = lazarsfeld_scan(quartic, trials=100, w_dim=3, seed=2024, store_all=True)
        if scan.successes != 100:
            ok = False
        for _, gens, rank in scan.all_witnesses:
            _record(quartic, tuple(tuple(es(v) for v in row) for row in gens), rank)
    for g in (3, 4, 5):
        curve = HyperellipticCurve.from_integers(range(2 * g + 1))
        scan = lazarsfeld_scan(curve, trials=100, w_dim=3, seed=2024, store_all=True)
        if scan.successes != 0:
            ok = False
        for _, gens, rank in scan.all_witnesses:
            _record(curve, tuple(tuple(es(v) for v in row) for row in gens), rank)
    elapsed = time.time() - t0
    _report(3, ok and elapsed < 30.0, "100/100 surjective on quartics, 0/100 on hyperelliptic g=3..5", elapsed)
    assert ok
    assert elapsed < 30.0


def test_criterion_4_injectivity_criterion():
    t0 = time.time()
    ok = True
    curve = GENUS2_CURVES[0]
    # 100 random systems with coefficient rank >= 2 all hold
    count, seed = 0, 0
    while count < 100:
        system = sample_system(curve, SL2, seed=seed, coefficient_bound=7)
        seed += 1
        if exact_rank(system.coefficients) < 2:
            continue
        count += 1
        verdict = criterion_injective(curve, system)
        v_rows = exact_row_basis([system.coefficients.row(i) for i in range(3)])
        _record(curve, tuple(tuple(r) for r in v_rows), verdict.theta_v_rank)
        if not verdict.holds:
            ok = False
    # every dyad B (x) omega fails
    import random as _random

    rng = _random.Random(99)
    for _ in range(25):
        b = [rng.randint(-5, 5) for _ in range(3)]
        omega = [rng.randint(-5, 5) for _ in range(2)]
        if all(v == 0 for v in b) or all(v == 0 for v in omega):
            continue
        coeff = ExactMatrix.from_rows(
            [[es(bi * oj) for oj in omega] for bi in b]
        )
        system = DifferentialSystem(curve, SL2, coeff)
        verdict = criterion_injective(curve, system)
        v_rows = exact_row_basis([coeff.row(i) for i in range(3)])
        if v_rows:
            _record(curve, tuple(tuple(r) for r in v_rows), verdict.theta_v_rank)
        if verdict.holds:
            ok = False
    # genus 3 hyperelliptic: every system fails
    g3 = HyperellipticCurve.from_integers(range(7))
    for seed in range(100):
        system = sample_system(g3, SL2, seed=seed, coefficient_bound=7)
        verdict = criterion_injective(g3, system)
        v_rows = exact_row_basis([system.coefficients.row(i) for i in range(3)])
        if v_rows:
            _record(g3, tuple(tuple(r) for r in v_rows), verdict.theta_v_rank)
        if verdict.holds:
            ok = False
    elapsed = time.time() - t0
    _report(4, ok and elapsed < 30.0, "g=2 rank>=2 systems hold, dyads fail, g=3 always fails", elapsed)
    assert ok
    assert elapsed < 30.0


def test_criterion_5_dimension_formulas():
    t0 = time.time()
    ok = True
    for g in range(2, 11):
        for name in ("sl2", "sl3", "gl2"):
            lie = builtin_algebra(name)
            d, c = lie.commutator_dimension, lie.center_dimension
            rep = dimension_report(g, lie)
            if rep.dim_character_variety != 2 * (g - 1) * d + 2 * g * c:
                ok = False
            if rep.dim_syst != (g - 1) * (d + 3) + g * c:
                ok = False
            if rep.dim_syst != (3 * g - 3) + g * lie.dimension - d:
                ok = False
    elapsed = time.time() - t0
    _report(5, ok, "formulas and gauge identity for g=2..10, sl2/sl3/gl2", elapsed)
    assert ok


@pytest.fixture(scope="module")
def loops_g2():
    return build_loops(GENUS2_CURVES[0], clearance=0.22)


def test_criterion_6_monodromy_validity(loops_g2):
    t0 = time.time()
    curve = GENUS2_CURVES[0]
    eighth = es(Fraction(1, 8))
    ok = True
    details = []
    gauge = ExactMatrix.from_rows([[es(2), es(1)], [es(3), es(2)]])
    rng = np.random.default_rng(12)
    for seed in range(1, 11):
        system = scale_system(
            sample_system(curve, SL2, seed=seed, coefficient_bound=5), eighth
        )
        rep = monodromy(system, loops_g2, ode_tol=1e-12)
        if max(rep.det_residuals) > 1e-10:
            ok = False
            details.append(f"seed {seed} det {max(rep.det_residuals):.2e}")
        if rep.relation_residual > 1e-8:
            ok = False
            details.append(f"seed {seed} relation {rep.relation_residual:.2e}")
        # gauge invariance of traces
        rep_conj = monodromy(conjugate_system(system, gauge), loops_g2, 1e-12)
        traces, traces_conj = trace_values([rep, rep_conj])
        dev = float(np.max(np.abs(traces - traces_conj)))
        if dev > 1e-8:
            ok = False
            details.append(f"seed {seed} gauge {dev:.2e}")
        # homotopy: perturb interior vertices of one loop by < clearance/10
        loop = loops_g2.loops[seed % 4]
        eps = loops_g2.clearance / 10
        moved = [loop.vertices[0]]
        for v in loop.vertices[1:-1]:
            moved.append(v + complex(*rng.uniform(-eps / 2, eps / 2, 2)))
        moved.append(loop.vertices[-1])
        perturbed = Loop(loop.name, loop.word, tuple(moved), (loop.sheets[0],) * len(moved))
        y0 = integrate_loop(system, loop, 1e-12)
        y1 = integrate_loop(system, perturbed, 1e-12)
        if np.max(np.abs(y0 - y1)) > 1e-7:
            ok = False
            details.append(f"seed {seed} homotopy {np.max(np.abs(y0 - y1)):.2e}")
    # abelian reduction vs independent quadrature
    for h_coeffs in ([1, 0], [0, 1], [1, Fraction(1, 2)]):
        coeff = ExactMatrix.from_rows(
            [[es(h_coeffs[0]), es(h_coeffs[1])], [es(0), es(0)], [es(0), es(0)]]
        )
        system = DifferentialSystem(curve, SL2, coeff)
        for loop in loops_g2.loops:
            y = integrate_loop(system, loop, 1e-12)
            integral = loop_integral(curve, loop, [complex(Fraction(c)) for c in h_coeffs])
            pred = cmath.exp(integral)
            err = max(abs(y[0, 0] - pred), abs(y[1, 1] - 1 / pred), abs(y[0, 1]), abs(y[1, 0]))
            if err > 1e-8:
                ok = False
                details.append(f"abelian {h_coeffs} {loop.name} {err:.2e}")
    elapsed = time.time() - t0
    _report(6, ok, "10 seeded systems: det/relation/gauge/homotopy/abelian in tolerance"
            + ("" if ok else " " + "; ".join(details)), elapsed)
    assert ok, details


IMMERSION_SEEDS = (1, 2, 3, 5, 7, 8, 11, 12, 15, 16)


def test_criterion_7_immersion_genus2():
    t0 = time.time()
    ok = True
    details = []
    for seed in IMMERSION_SEEDS:
        center = make_center(seed=seed, require_criterion=True)
        ladder = fd_step_ladder(center, (1e-4, 1e-5, 1e-6), ode_tol=1e-12)
        ranks = ladder.ranks
        gaps = [r.gap_ratio for r in ladder.reports]
        statuses = [r.status for r in ladder.reports]
        if not ladder.rank_stable or set(ranks) != {6}:
            ok = False
            details.append(f"seed {seed} ranks {ranks}")
        if any(g < 1e3 for g in gaps):
            ok = False
            details.append(f"seed {seed} gaps {['%.1e' % g for g in gaps]}")
        if any(s != "ok" for s in statuses):
            ok = False
            details.append(f"seed {seed} statuses {statuses}")
        if not all(r.rank_even for r in ladder.reports):
            ok = False
            details.append(f"seed {seed} odd real rank")
    elapsed = time.time() - t0
    _report(7, ok, "10 centers: complex rank 6/6, gap >= 1e3, stable over fd ladder"
            + ("" if ok else " " + "; ".join(details)), elapsed)
    assert ok, details


def test_criterion_8_oracle_equivalence():
    t0 = time.time()
    assert _ORACLE_INSTANCES, "criteria 1-4 must run before the oracle check"
    ok = True
    mismatches = 0
    for idx, (curve, w_coords, rank) in enumerate(_ORACLE_INSTANCES):
        prods = theta_products(curve, w_coords)
        orank = evaluation_rank(curve, prods, rel_tol=1e-10, seed=idx)
        if orank != rank:
            mismatches += 1
            ok = False
    elapsed = time.time() - t0
    _report(
        8,
        ok and elapsed < 60.0,
        f"{len(_ORACLE_INSTANCES)} exact ranks vs evaluation oracle, {mismatches} mismatches",
        elapsed,
    )
    assert ok
    assert elapsed < 60.0

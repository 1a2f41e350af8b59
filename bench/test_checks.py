"""Each independent checker accepts a correct output and rejects a corrupted one.

Run from the repository root:  PYTHONPATH=src python3 -m pytest -q bench
"""

import copy
import json
from fractions import Fraction

import numpy as np
import pytest

import checks
from diffsys.cli import main
from diffsys.curves import HyperellipticCurve, PlaneQuartic
from diffsys.field import ExactMatrix, ExactScalar
from diffsys.multiplication import criterion_injective, lazarsfeld_scan, noether_check
from diffsys.systems import DifferentialSystem, builtin_algebra, sample_system, system_to_json


def _scan(kind, curve):
    scan = lazarsfeld_scan(curve, trials=4, w_dim=3, seed=5, store_all=True)
    witnesses = [(t, [list(r) for r in rows], rank) for t, rows, rank in scan.all_witnesses]
    return kind, curve.genus, scan.w_dim, scan.successes, witnesses


@pytest.mark.parametrize(
    "kind, curve",
    [("quartic", PlaneQuartic.fermat()), ("hyperelliptic", HyperellipticCurve.from_integers(range(9)))],
)
def test_scan_checker_rejects_a_wrong_rank(kind, curve):
    kind, genus, w_dim, successes, witnesses = _scan(kind, curve)
    assert checks.check_scan(kind, genus, w_dim, successes, witnesses) == []
    t, rows, rank = witnesses[2]
    witnesses[2] = (t, rows, rank - 1)
    assert checks.check_scan(kind, genus, w_dim, successes, witnesses)


def test_scan_checker_rejects_a_rank_one_short_from_the_points():
    # dependent generators: the recomputed rank drops, the claimed one does not
    rows = [[1, 2, 3], [2, 4, 6], [0, 0, 1]]
    assert checks.quartic_product_rank(rows) < 6
    assert checks.check_scan("quartic", 3, 3, 1, [(0, rows, 6)])


def test_noether_checker_rejects_a_wrong_rank():
    for g in (3, 5):
        curve = HyperellipticCurve.from_integers(range(2 * g + 1))
        v = noether_check(curve)
        exact = checks.full_domain_rank_sympy("hyperelliptic", g)
        args = ("hyperelliptic", g, v.rank, v.corank, v.surjective, exact)
        assert checks.check_noether(*args) == []
        assert checks.check_noether("hyperelliptic", g, v.rank + 1, v.corank - 1, v.surjective, exact)
    assert checks.full_domain_rank_sympy("quartic", 3) == 6


def test_criterion_checker_rejects_a_wrong_rank():
    curve = HyperellipticCurve.from_integers(range(5))
    system = sample_system(curve, builtin_algebra("sl2"), seed=4, coefficient_bound=7)
    v = criterion_injective(curve, system)
    rows = [[int(e.re) for e in system.coefficients.row(i)] for i in range(3)]
    assert checks.check_criterion(rows, v.v_dimension, v.theta_v_rank, v.holds) == []
    assert checks.check_criterion(rows, v.v_dimension, v.theta_v_rank - 1, v.holds)
    assert checks.check_criterion(rows, v.v_dimension + 1, v.theta_v_rank, v.holds)


def _holomorphic_jacobian(seed=0, words=9, params=6):
    """Real Jacobian of a complex-linear map, laid out as diffsys lays it out."""
    rng = np.random.default_rng(seed)
    d = rng.standard_normal((words, params)) + 1j * rng.standard_normal((words, params))
    jac = np.zeros((2 * words, 2 * params))
    for k in range(params):
        for step, col in ((1, 2 * k), (1j, 2 * k + 1)):
            jac[0::2, col] = (step * d[:, k]).real
            jac[1::2, col] = (step * d[:, k]).imag
    return jac


def _ladder(jacobians):
    report = {"estimated_rank": 6, "real_rank": 12, "rank_even": True, "gap_ratio": 5e3, "status": "ok"}
    steps = [1e-4, 1e-5, 1e-6][: len(jacobians)]
    return {"steps": steps, "ranks": [6] * len(steps), "rank_stable": True,
            "reports": [dict(report) for _ in steps]}


def test_ladder_checker_rejects_a_negated_column():
    jacs = [_holomorphic_jacobian(s) for s in range(3)]
    assert checks.cauchy_riemann_residual(jacs[0]) < 1e-14
    assert checks.check_ladder(_ladder(jacs), jacs) == []
    broken = [j.copy() for j in jacs]
    broken[1][:, 4] *= -1
    assert checks.cauchy_riemann_residual(broken[1]) > 0.1
    assert any("Cauchy-Riemann" in e for e in checks.check_ladder(_ladder(broken), broken))


def test_ladder_checker_rejects_a_wrong_rank_or_status():
    jacs = [_holomorphic_jacobian(s) for s in range(3)]
    ladder = _ladder(jacs)
    ladder["reports"][2]["status"] = "out_of_hypothesis"
    assert checks.check_ladder(ladder, jacs)
    ladder = _ladder(jacs)
    ladder["ranks"][0] = 5
    assert checks.check_ladder(ladder, jacs)
    # a rank-deficient Jacobian: one complex parameter copies another
    jacs[0][:, 10:12] = jacs[0][:, 0:2]
    assert any("real rank" in e for e in checks.check_ladder(_ladder(jacs), jacs))


@pytest.fixture(scope="module")
def genus2_report(tmp_path_factory):
    path = tmp_path_factory.mktemp("reports") / "monodromy.json"
    assert main(["monodromy", "--branch-points", "0,1,2,3,4", "--seed", "3", "--out", str(path)]) == 0
    return json.loads(path.read_text())


def test_report_checker_accepts_the_program_report(genus2_report):
    assert checks.check_monodromy_report(genus2_report, seed=3) == []
    assert checks.check_monodromy_report(genus2_report, seed=4)


@pytest.mark.parametrize("entry, scale", [(0, 1 + 1e-7), (3, 1 - 1e-9)])
def test_report_checker_rejects_a_perturbed_matrix(genus2_report, entry, scale):
    report = copy.deepcopy(genus2_report)
    z = report["result"]["representation"]["matrices"][1][entry]
    z[0] *= scale
    errors = checks.check_monodromy_report(report)
    assert any("det residual" in e for e in errors)
    if scale - 1 > 1e-8:
        assert any("relation residual" in e for e in errors)


def test_report_checker_rejects_a_wrong_trace(genus2_report):
    report = copy.deepcopy(genus2_report)
    report["result"]["traces"]["values"][4][1] += 1e-6
    assert any(e.startswith("trace") for e in checks.check_monodromy_report(report))


def test_abelian_checker_rejects_a_wrong_period(tmp_path):
    curve = HyperellipticCurve.from_integers(range(5))
    h = [Fraction(1, 4), Fraction(-1, 8)]
    zero = [ExactScalar.of(0)] * 2
    system = DifferentialSystem(
        curve, builtin_algebra("sl2"), ExactMatrix.from_rows([[ExactScalar.of(c) for c in h], zero, zero])
    )
    (tmp_path / "system.json").write_text(json.dumps(system_to_json(system)))
    out = tmp_path / "abelian.json"
    argv = ["monodromy", "--branch-points", "0,1,2,3,4", "--system-json", str(tmp_path / "system.json")]
    assert main(argv + ["--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert checks.check_abelian_report(report, [complex(c) for c in h]) == []
    assert checks.check_abelian_report(report, [complex(h[0]) * (1 + 1e-6), complex(h[1])])

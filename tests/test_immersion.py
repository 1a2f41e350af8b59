from fractions import Fraction

import numpy as np
import pytest

from diffsys.curves import HyperellipticCurve
from diffsys.field import ExactMatrix, ExactScalar
from diffsys.immersion import (
    GAUGE_FROZEN_ENTRIES,
    SystCoordinates,
    _perturbed,
    fd_step_ladder,
    gauge_slice_regular,
    immersion_experiment,
    make_center,
)
from diffsys.monodromy import NumericSystem, build_loops
from diffsys.systems import (
    DifferentialSystem,
    builtin_algebra,
    conjugate_system,
    sample_system,
    scale_system,
)


def es(re, im=0):
    return ExactScalar.of(re, im)


SL2 = builtin_algebra("sl2")


@pytest.fixture(scope="module")
def good_center():
    return make_center(seed=1, require_criterion=True)


@pytest.fixture(scope="module")
def good_report(good_center):
    return immersion_experiment(good_center, fd_step=1e-5)


class TestCenterConstruction:
    def test_free_parameter_count_g2(self, good_center):
        # 3 moving branch points + (6 - 3 frozen) coefficients = 6 = (g-1)(d+3)
        assert good_center.free_complex_count == 6

    def test_gauge_slice_regular(self, good_center):
        assert gauge_slice_regular(good_center.system)

    def test_normalization_enforced(self):
        curve = HyperellipticCurve.from_integers([1, 2, 3, 4, 5])
        loops = build_loops(curve, 0.22)
        system = scale_system(
            sample_system(curve, SL2, seed=1, coefficient_bound=5), es(Fraction(1, 8))
        )
        with pytest.raises(ValueError):
            SystCoordinates(curve, system, loops, 0.22)

    def test_singular_slice_rejected_by_default(self):
        curve = HyperellipticCurve.from_integers([0, 1, 2, 3, 4])
        loops = build_loops(curve, 0.22)
        zero = DifferentialSystem(curve, SL2, ExactMatrix.zeros(3, 2))
        with pytest.raises(ValueError):
            SystCoordinates(curve, zero, loops, 0.22)
        center = SystCoordinates(curve, zero, loops, 0.22, allow_singular_gauge_slice=True)
        assert center.free_complex_count == 6

    def test_frozen_entries_documented(self):
        assert GAUGE_FROZEN_ENTRIES == ((1, 0), (2, 0), (0, 1))


class TestImmersionExperiment:
    def test_full_rank_at_good_center(self, good_report):
        assert good_report.status == "ok"
        assert good_report.criterion_verdict.holds
        assert good_report.irreducibility.probably_irreducible
        assert good_report.estimated_rank == 6
        assert good_report.real_rank == 12
        assert good_report.rank_even

    def test_gap_ratio(self, good_report):
        assert good_report.gap_ratio >= 1e3

    def test_rank_never_exceeds_character_variety_dimension(self, good_report):
        assert good_report.estimated_rank <= 6
        assert len(good_report.singular_values) == 12

    def test_sigma_pairing(self, good_report):
        s = good_report.singular_values
        for k in range(0, 12, 2):
            assert abs(s[k] - s[k + 1]) <= 1e-6 * s[0]

    def test_jacobian_shape(self, good_report):
        # 9 words -> 18 real rows; 6 complex parameters -> 12 real columns
        assert (good_report.jacobian.rows, good_report.jacobian.cols) == (18, 12)

    def test_per_block_column_norms(self, good_report):
        blocks = good_report.per_block_column_norms
        assert len(blocks["branch"]) == 6 and len(blocks["coeff"]) == 6
        assert all(n > 0 for n in blocks["branch"] + blocks["coeff"])

    def test_step_size_validation(self, good_center):
        with pytest.raises(ValueError):
            immersion_experiment(good_center, fd_step=0.0)
        with pytest.raises(ValueError):
            immersion_experiment(good_center, fd_step=good_center.clearance)

    def test_dyad_center_flagged(self):
        """Dyad coefficients have dependent frozen functionals (the slice is
        singular too), and the run is flagged out of hypothesis, without any
        rank assertion."""
        curve = HyperellipticCurve.from_integers([0, 1, 2, 3, 4])
        loops = build_loops(curve, 0.22)
        eighth = es(Fraction(1, 8))
        coeff = ExactMatrix.from_rows(
            [[es(2) * eighth, es(4) * eighth],
             [es(1) * eighth, es(2) * eighth],
             [es(3) * eighth, es(6) * eighth]]
        )
        system = DifferentialSystem(curve, SL2, coeff)
        with pytest.raises(ValueError):
            SystCoordinates(curve, system, loops, 0.22)
        center = SystCoordinates(
            curve, system, loops, 0.22, allow_singular_gauge_slice=True
        )
        report = immersion_experiment(center, fd_step=1e-5)
        assert report.status == "out_of_hypothesis"
        assert not report.criterion_verdict.holds

    def test_batch_deterministic(self, good_center):
        r1 = immersion_experiment(good_center, fd_step=1e-4)
        r2 = immersion_experiment(good_center, fd_step=1e-4)
        assert np.array_equal(r1.jacobian.to_numpy(), r2.jacobian.to_numpy())
        assert r1.singular_values == r2.singular_values

    def test_fd_consistency_under_halving(self, good_center, good_report):
        """Halving the step from 1e-5 to 5e-6 moves every Jacobian entry by
        at most 1% relative, for entries above 1e-6 absolute."""
        half = immersion_experiment(good_center, fd_step=5e-6)
        a = good_report.jacobian.to_numpy().real
        b = half.jacobian.to_numpy().real
        mask = np.abs(a) > 1e-6
        rel = np.abs(a[mask] - b[mask]) / np.abs(a[mask])
        assert float(rel.max()) <= 0.01


class TestPerturbed:
    def test_coefficient_direction_moves_only_representation_support(self, good_center):
        """Moving coefficient (r, c) adds delta * rho(e_r) to M_c and leaves
        every other bit alone, signed zeros included."""
        base = NumericSystem.from_system(good_center.system)
        before = base.matrices.copy()
        rho = np.array([m.to_numpy() for m in SL2.rep_matrices])
        delta = 1e-3 + 2e-3j
        g = good_center.genus
        for kind, (r, c) in (l for l in good_center.parameter_labels() if l[0] == "coeff"):
            moved = _perturbed(base, rho, (kind, (r, c)), delta)
            bits = moved.matrices.view(np.uint64) != base.matrices.view(np.uint64)
            changed = bits.reshape(g, 2, 2, 2).any(axis=-1)
            expected = np.zeros((g, 2, 2), dtype=bool)
            expected[c] = rho[r] != 0
            assert np.array_equal(changed, expected)
            assert np.allclose(moved.matrices[c] - base.matrices[c], delta * rho[r], atol=1e-15)
            assert moved.roots == base.roots
        assert np.array_equal(base.matrices.view(np.uint64), before.view(np.uint64))


class TestFdLadder:
    def test_needs_three_steps(self, good_center):
        with pytest.raises(ValueError):
            fd_step_ladder(good_center, [1e-2])
        with pytest.raises(ValueError):
            fd_step_ladder(good_center, [1e-4, 2e-4, 4e-4])

    def test_zero_system_center_ladder(self):
        """Exploratory run at the trivial connection: the report records the
        per-block column norms.  The trace chart has a genuine critical point
        at the trivial representation (first-order trace variations are
        traces of traceless matrices), so every central-difference column is
        numerically zero there: both blocks, not just the branch block."""
        curve = HyperellipticCurve.from_integers([0, 1, 2, 3, 4])
        loops = build_loops(curve, 0.22)
        zero = DifferentialSystem(curve, SL2, ExactMatrix.zeros(3, 2))
        center = SystCoordinates(curve, zero, loops, 0.22, allow_singular_gauge_slice=True)
        report = immersion_experiment(center, fd_step=1e-4)
        assert report.status == "out_of_hypothesis"
        assert "branch" in report.per_block_column_norms
        assert "coeff" in report.per_block_column_norms
        assert max(report.per_block_column_norms["coeff"]) <= 1e-6
        assert max(report.per_block_column_norms["branch"]) <= 1e-6
        assert report.estimated_rank == 0


class TestGenus3Exploratory:
    def test_g3_center_is_exploratory(self):
        center = make_center(
            seed=2,
            branch=(0, 1, 2, 3, 4, 5, 6),
            clearance=0.2,
            scale=Fraction(1, 10),
        )
        # hyperelliptic locus: 2g-1 = 5 branch + 9-3 coeff = 11 free parameters
        assert center.free_complex_count == 11
        report = immersion_experiment(center, fd_step=1e-5)
        again = immersion_experiment(center, fd_step=1e-5)
        assert np.array_equal(report.jacobian.to_numpy(), again.jacobian.to_numpy())
        assert report.status == "exploratory"
        assert not report.criterion_verdict.holds
        assert report.estimated_rank <= 12


class TestConjugationInvariance:
    def test_rank_invariant_under_gauge_conjugation(self, good_center, good_report):
        s = ExactMatrix.from_rows([[es(2), es(1)], [es(3), es(2)]])
        conj = conjugate_system(good_center.system, s)
        center2 = SystCoordinates(
            good_center.curve, conj, good_center.loops, good_center.clearance
        )
        report2 = immersion_experiment(center2, fd_step=1e-5)
        assert report2.estimated_rank == good_report.estimated_rank == 6

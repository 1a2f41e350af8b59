import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

import diffsys.immersion
import oracles
from diffsys.curves import HyperellipticCurve
from diffsys.field import ExactMatrix, ExactScalar
from diffsys.immersion import (
    GAUGE_FROZEN_ENTRIES,
    FloatMatrix,
    SystCoordinates,
    _check_step,
    _experiments,
    fd_step_ladder,
    gauge_slice_regular,
    immersion_experiment,
    make_center,
)
from diffsys.monodromy import (
    IntegrationError,
    InvalidRepresentationError,
    build_loops,
    float_system,
)
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
            SystCoordinates(system, loops)

    def test_singular_slice_rejected_by_default(self):
        curve = HyperellipticCurve.from_integers([0, 1, 2, 3, 4])
        loops = build_loops(curve, 0.22)
        zero = DifferentialSystem(curve, SL2, ExactMatrix.from_rows([[es(0)] * 2] * 3))
        with pytest.raises(ValueError):
            SystCoordinates(zero, loops)
        center = SystCoordinates(zero, loops, allow_singular_gauge_slice=True)
        assert center.free_complex_count == 6

    def test_frozen_entries_documented(self):
        assert GAUGE_FROZEN_ENTRIES == ((1, 0), (2, 0), (0, 1))


@pytest.fixture(scope="module")
def slice_systems():
    """Seeded sl2 systems at bounds 0..5 in genus 2 and 3, some conjugated
    into complex entries, plus the zero system and a dyad, last."""
    s = ExactMatrix.from_rows([[es(2), es(1, 1)], [es(-1), es(3)]])
    out = []
    for branch in (range(5), range(7)):
        curve = HyperellipticCurve.from_integers(branch)
        for bound in range(6):
            for seed in range(12):
                system = sample_system(curve, SL2, seed=seed, coefficient_bound=bound)
                out += [system, conjugate_system(system, s)] if seed < 2 else [system]
    curve = HyperellipticCurve.from_integers(range(5))
    out.append(DifferentialSystem(curve, SL2, ExactMatrix.from_rows([[es(0)] * 2] * 3)))
    dyad = [[es(2), es(4)], [es(1), es(2)], [es(3), es(6)]]
    out.append(DifferentialSystem(curve, SL2, ExactMatrix.from_rows(dyad)))
    return out


@pytest.fixture(scope="module")
def slice_oracle(slice_systems):
    return [oracles.gauge_slice_regular(system.coefficients) for system in slice_systems]


class TestGaugeSlice:
    """``gauge_slice_regular`` reads [e_i, M_c] off the structure constants;
    the oracle takes commutators of the defining 2 x 2 matrices."""

    def test_matches_commutator_oracle(self, slice_systems, slice_oracle):
        assert [gauge_slice_regular(system) for system in slice_systems] == slice_oracle
        assert 0 < sum(slice_oracle) < len(slice_oracle)
        assert slice_oracle[-2:] == [False, False]  # the zero system and the dyad

    @pytest.mark.parametrize("order", [(1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)])
    def test_relabeled_table_is_told_apart(self, slice_systems, slice_oracle, order):
        """The table with its basis indices relabeled (a table read in the
        wrong basis order) changes some verdict here.  Only the relabelings
        that move H can: the slice determinant is -4 h0 (e0 f1 - e1 f0), and
        swapping E and F, or permuting the table's three index slots, only
        flips its sign."""
        table = np.array(SL2.structure_constants, dtype=object)[np.ix_(order, order, order)]
        relabeled = dataclasses.replace(SL2, structure_constants=table.tolist())
        verdicts = [
            gauge_slice_regular(DifferentialSystem(s.curve, relabeled, s.coefficients))
            for s in slice_systems
        ]
        assert verdicts != slice_oracle


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
            immersion_experiment(good_center, fd_step=good_center.loops.clearance)
        with pytest.raises(ValueError, match="fd_step"):
            immersion_experiment(good_center, math.nan)

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
            SystCoordinates(system, loops)
        center = SystCoordinates(system, loops, allow_singular_gauge_slice=True)
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


class TestFloatMatrix:
    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            FloatMatrix(1, 2, (1.0, complex("nan")))


class _Captured(Exception):
    """Stops an experiment at its monodromy call, carrying the family."""


def _family(center, steps, monkeypatch):
    """The (roots, matrices) family that the experiments at ``steps`` hand to
    ``monodromy_family``."""

    def capture(roots, matrices, loops, ode_tol):
        raise _Captured(roots, matrices)

    with monkeypatch.context() as m:
        m.setattr(diffsys.immersion, "monodromy_family", capture)
        with pytest.raises(_Captured) as info:
            _experiments(center, steps, 1e-12)
    return info.value.args


RHO = np.array([m.to_numpy() for m in SL2.rep_matrices])


class TestFailingPartner:
    """A failure of batch member k >= 1 is reported under the direction and
    step that row k of the family moves the center by."""

    STEPS = (1e-4, 1e-5, 1e-6)

    @classmethod
    def named(cls, family, k):
        """The message prefix that names row k by the coordinate moved in it:
        a branch point, or coefficient (r, c), which moves M_c on the support
        of rho(e_r); the step is +delta, read off the move."""
        roots, matrices = family
        (branch,) = np.nonzero(roots[k] != roots[0])
        moved = matrices[k] != matrices[0]
        if branch.size:
            (j,) = branch
            label, diff = ("branch", int(j)), roots[k, j] - roots[0, j]
            assert not moved.any()
        else:
            (c,) = np.flatnonzero(moved.any(axis=(1, 2)))
            (r,) = [r for r in range(3) if np.array_equal(RHO[r] != 0, moved[c])]
            label = ("coeff", (r, int(c)))
            diff = ((matrices[k, c] - matrices[0, c])[moved[c]] / RHO[r][moved[c]])[0]
        step = min(cls.STEPS, key=lambda s: abs(abs(diff) - s))
        assert abs(abs(diff) - step) <= 1e-9 * step
        delta = step * (1 + 0j) if abs(diff.real) > abs(diff.imag) else step * 1j
        return f"finite-difference direction {label} (step {delta}) failed: "

    @pytest.mark.parametrize("k", [1, 2, 3, 24, 31, 72])
    def test_integration_failure_names_its_direction(self, good_center, monkeypatch, k):
        cause = IntegrationError("step underflow", member=(k, "letter 2", 1))
        family = []

        def failing(roots, matrices, loops, ode_tol):
            family.extend((roots, matrices))
            raise cause

        monkeypatch.setattr(diffsys.immersion, "monodromy_family", failing)
        with pytest.raises(IntegrationError) as info:
            fd_step_ladder(good_center, self.STEPS)
        assert str(info.value) == self.named(family, k) + "step underflow"
        assert info.value.__cause__ is cause

    @pytest.mark.parametrize("member", [(0, "letter 1", 1), None])
    def test_center_failure_is_raised_unchanged(self, good_center, monkeypatch, member):
        cause = IntegrationError("step underflow", member=member)

        def failing(roots, matrices, loops, ode_tol):
            raise cause

        monkeypatch.setattr(diffsys.immersion, "monodromy_family", failing)
        with pytest.raises(IntegrationError) as info:
            fd_step_ladder(good_center, self.STEPS)
        assert info.value is cause

    @pytest.mark.parametrize("index", [0, 1, 30, 71])
    def test_invalid_partner_names_its_direction(self, good_center, good_report, monkeypatch, index):
        cause = InvalidRepresentationError("relation residual 1", index=index)
        family = []

        def valid(roots, matrices, loops, ode_tol):
            family.extend((roots, matrices))
            return [good_report.center_rep] * len(roots)

        def invalid(reps):
            raise cause

        monkeypatch.setattr(diffsys.immersion, "monodromy_family", valid)
        monkeypatch.setattr(diffsys.immersion, "trace_values", invalid)
        with pytest.raises(IntegrationError) as info:
            fd_step_ladder(good_center, self.STEPS)
        assert str(info.value) == self.named(family, index + 1) + "relation residual 1"
        assert info.value.__cause__ is cause


class TestNoBranchCollision:
    """``_check_step`` has no collision check: on centers from ``make_center``
    every step it accepts moves a branch point by less than the distance
    that would bring it within 2 * step of another one."""

    @pytest.mark.parametrize(
        "branch, clearance",
        [
            ((0, 1, 2, 3, 4), 0.22),
            ((0, 1, 2, 3, 4), 0.4),
            ((0, 1, -1, 2, Fraction(1, 2)), 0.22),
            ((0, 1, Fraction(3, 2), -2, 5), 0.05),
            ((0, 1, 2, 3, 4, 5, 6), 0.2),
        ],
    )
    def test_accepted_steps_keep_roots_apart(self, monkeypatch, branch, clearance):
        center = make_center(seed=3, branch=branch, clearance=clearance)
        largest = clearance / 4
        with pytest.raises(ValueError, match="quarter of the loop clearance"):
            _check_step(center, math.nextafter(largest, math.inf))
        steps = (largest, largest / 3, 1e-4, 1e-6)
        roots, _ = _family(center, steps, monkeypatch)
        branch_rows = 4 * (2 * center.genus - 1)  # per step: branch labels first, 4 rows each
        per_step = 4 * len(center.parameter_labels())
        for step, rows in zip(steps, roots[1:].reshape(len(steps), per_step, -1)):
            for row in rows[:branch_rows]:
                (moved,) = np.flatnonzero(row != roots[0])
                others = np.delete(row, moved)
                assert np.abs(others - row[moved]).min() > 2 * step
            assert (rows[branch_rows:] == roots[0]).all()


class TestPerturbed:
    """Row 0 of a ladder's family is the center's ``float_system``; every
    partner row differs bitwise from it exactly on its direction's support,
    signed zeros included: one branch point, or the entries of M_c where
    rho(e_r) is nonzero.  Each row is bit for bit the center moved one
    system at a time, adding delta times the unit on the support only."""

    STEPS = TestFailingPartner.STEPS

    @pytest.fixture(scope="class")
    def family(self, good_center):
        with pytest.MonkeyPatch.context() as monkeypatch:
            return _family(good_center, self.STEPS, monkeypatch)

    def partners(self, center, family, kind):
        """(row, where, delta, changed roots, changed matrices) of every
        partner row along a ``kind`` label, a change being any changed bit
        of a complex entry."""
        labels = center.parameter_labels()
        changed = [(a.view(np.uint64) != a[:1].view(np.uint64)).reshape(*a.shape, 2).any(axis=-1)
                   for a in family]
        for k in range(1, len(family[0])):
            step, j, unit, sign = np.unravel_index(k - 1, (len(self.STEPS), len(labels), 2, 2))
            if labels[j][0] == kind:
                delta = (1, -1)[sign] * self.STEPS[step] * (1, 1j)[unit]
                yield k, labels[j][1], delta, changed[0][k], changed[1][k]

    def test_center_row_is_the_float_system(self, good_center, family):
        roots, matrices = family
        center_roots, center_matrices = float_system(good_center.system)
        assert roots[0].tobytes() == center_roots.tobytes()
        assert matrices[0].tobytes() == center_matrices.tobytes()
        assert len(roots) == len(matrices) == 1 + 4 * len(self.STEPS) * good_center.free_complex_count

    def test_branch_direction_moves_one_root(self, good_center, family):
        roots, _ = family
        rows = list(self.partners(good_center, family, "branch"))
        assert len(rows) == 4 * len(self.STEPS) * (2 * good_center.genus - 1)
        for k, where, delta, moved_roots, moved_matrices in rows:
            expected = np.zeros_like(moved_roots)
            expected[where] = True
            assert np.array_equal(moved_roots, expected), k
            assert not moved_matrices.any(), k
            reference = roots[0].copy()
            reference[where] += delta
            assert roots[k].tobytes() == reference.tobytes(), k

    def test_coefficient_direction_moves_only_representation_support(self, good_center, family):
        """Moving coefficient (r, c) adds delta * rho(e_r) to M_c and leaves
        every other bit alone, signed zeros included."""
        _, matrices = family
        rows = list(self.partners(good_center, family, "coeff"))
        assert len(rows) == 4 * len(self.STEPS) * (3 * good_center.genus - 3)
        for k, (r, c), delta, moved_roots, moved_matrices in rows:
            expected = np.zeros_like(moved_matrices)
            expected[c] = RHO[r] != 0
            assert np.array_equal(moved_matrices, expected), k
            assert not moved_roots.any(), k
            reference = matrices[0].copy()
            reference[c][expected[c]] += delta * RHO[r][expected[c]]
            assert matrices[k].tobytes() == reference.tobytes(), k


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
        zero = DifferentialSystem(curve, SL2, ExactMatrix.from_rows([[es(0)] * 2] * 3))
        center = SystCoordinates(zero, loops, allow_singular_gauge_slice=True)
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
        center2 = SystCoordinates(conj, good_center.loops)
        report2 = immersion_experiment(center2, fd_step=1e-5)
        assert report2.estimated_rank == good_report.estimated_rank == 6

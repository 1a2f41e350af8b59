import cmath
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from diffsys.curves import HyperellipticCurve
from diffsys.field import ExactMatrix, ExactScalar
from diffsys.monodromy import (
    ClearanceError,
    IntegrationError,
    InvalidRepresentationError,
    Loop,
    NumericSystem,
    build_loops,
    canonical_words,
    integrate_loop,
    irreducibility_probe,
    monodromy,
    monodromy_batch,
    standard_word_list,
    trace_vector,
    MonodromyRepresentation,
    _representation,
)
from diffsys.systems import (
    DifferentialSystem,
    builtin_algebra,
    conjugate_system,
    sample_system,
    scale_system,
)

from oracles import loop_integral, loop_sheets, word_is_trivial_upstairs


def es(re, im=0):
    return ExactScalar.of(re, im)


SL2 = builtin_algebra("sl2")
EIGHTH = es(Fraction(1, 8))


def small_system(curve, seed):
    return scale_system(
        sample_system(curve, SL2, seed=seed, coefficient_bound=5), EIGHTH
    )


@pytest.fixture(scope="module")
def loops_g2(genus2_curve):
    return build_loops(genus2_curve, clearance=0.22)


@pytest.fixture(scope="module")
def rep_g2(genus2_curve, loops_g2):
    return monodromy(small_system(genus2_curve, 3), loops_g2, 1e-12)


class TestCanonicalWords:
    def test_counts_and_parity(self):
        for g in range(2, 7):
            words = canonical_words(g)
            assert len(words) == 2 * g
            names = [nm for nm, _ in words]
            assert names == [f"{k}{i}" for i in range(1, g + 1) for k in ("a", "b")]
            for _, w in words:
                assert len(w) % 2 == 0  # closed on the double cover
                assert all(1 <= k <= 2 * g + 1 for k in w)

    def test_surface_relation_exact(self):
        """The commutator product of the words is trivial in pi_1, verified in
        exact involution representations over a large prime field."""
        for g in range(2, 7):
            words = dict(canonical_words(g))
            product = []
            for i in range(1, g + 1):
                a, b = words[f"a{i}"], words[f"b{i}"]
                product += list(a) + list(b) + list(reversed(a)) + list(reversed(b))
            assert word_is_trivial_upstairs(product, 2 * g + 1)

    def test_single_words_are_not_trivial(self):
        words = dict(canonical_words(2))
        assert not word_is_trivial_upstairs(list(words["a1"]), 5)
        assert not word_is_trivial_upstairs(list(words["b2"]), 5)


class TestBuildLoops:
    def test_loop_count_and_order(self, loops_g2):
        assert [l.name for l in loops_g2.loops] == ["a1", "b1", "a2", "b2"]

    def test_g3_count(self, genus3_curve):
        loops = build_loops(genus3_curve, clearance=0.2)
        assert len(loops.loops) == 6

    def test_clearance_invariant(self, genus2_curve, loops_g2):
        roots = genus2_curve.float_roots()
        for loop in loops_g2.loops:
            for v in loop.vertices:
                assert min(abs(v - r) for r in roots) >= 0.22 * (1 - 1e-9)

    def test_closed_polylines_matching_sheet(self, loops_g2):
        for loop in loops_g2.loops:
            assert loop.vertices[0] == loop.vertices[-1] == loops_g2.base_point
            assert loop.sheets[0] == loop.sheets[-1]

    def test_base_point_below_axis(self, loops_g2):
        assert loops_g2.base_point.imag < 0

    def test_separation_below_twice_clearance_errors(self):
        curve = HyperellipticCurve.from_integers([0, 1, 2, 3, 4])
        with pytest.raises(ClearanceError):
            build_loops(curve, clearance=0.5)

    def test_even_model_rejected(self):
        curve = HyperellipticCurve.from_integers([0, 1, 2, 3, 4, 5])
        with pytest.raises(ValueError):
            build_loops(curve, clearance=0.2)

    def test_nonpositive_clearance_rejected(self, genus2_curve):
        with pytest.raises(ValueError):
            build_loops(genus2_curve, clearance=0.0)

    @pytest.mark.parametrize("g", [2, 3, 4])
    def test_sheets_match_whole_loop_continuation(self, g):
        """Sheets assembled from letter profiles against an independent dense
        continuation of sqrt(f) along each whole loop polyline."""
        curve = HyperellipticCurve.from_integers(range(2 * g + 1))
        for clearance in (0.22, 0.2):
            loops = build_loops(curve, clearance)
            for loop in loops.loops:
                assert list(loop.sheets) == loop_sheets(curve, loop), (g, clearance, loop.name)


class TestIntegrateLoop:
    def test_zero_system_identity(self, genus2_curve, loops_g2):
        system = DifferentialSystem(genus2_curve, SL2, ExactMatrix.zeros(3, 2))
        for loop in loops_g2.loops:
            Y = integrate_loop(system, loop, 1e-12)
            assert np.allclose(Y, np.eye(2), atol=1e-14)

    def test_abelian_reduction_vs_quadrature(self, genus2_curve, loops_g2):
        """delta = H (x) omega gives diag(exp I, exp -I) with I the loop
        integral of omega, checked against independent quadrature."""
        coeff = ExactMatrix.from_rows(
            [[es(1), es(Fraction(1, 2))], [es(0), es(0)], [es(0), es(0)]]
        )
        system = DifferentialSystem(genus2_curve, SL2, coeff)
        for loop in loops_g2.loops:
            Y = integrate_loop(system, loop, 1e-12)
            integral = loop_integral(genus2_curve, loop, [1.0, 0.5])
            pred = cmath.exp(integral)
            err = max(
                abs(Y[0, 0] - pred),
                abs(Y[1, 1] - 1 / pred),
                abs(Y[0, 1]),
                abs(Y[1, 0]),
            )
            assert err <= 1e-8

    def test_unimodular_transport(self, genus2_curve, loops_g2):
        system = small_system(genus2_curve, 17)
        for loop in loops_g2.loops:
            Y = integrate_loop(system, loop, 1e-12)
            det = Y[0, 0] * Y[1, 1] - Y[0, 1] * Y[1, 0]
            assert abs(det - 1) <= 1e-10

    def test_inversion(self, genus2_curve, loops_g2):
        system = small_system(genus2_curve, 5)
        loop = loops_g2.loops[0]
        reverse = Loop(
            loop.name + "_rev",
            tuple(reversed(loop.word)),
            tuple(reversed(loop.vertices)),
            tuple(reversed(loop.sheets)),
        )
        Y = integrate_loop(system, loop, 1e-12)
        Z = integrate_loop(system, reverse, 1e-12)
        assert np.linalg.norm(Y @ Z - np.eye(2), 2) <= 1e-9

    def test_bad_tolerance(self, genus2_curve, loops_g2):
        system = small_system(genus2_curve, 5)
        with pytest.raises(ValueError):
            integrate_loop(system, loops_g2.loops[0], 0.0)

    def test_non_sl2_rejected(self, genus2_curve, loops_g2):
        gl2 = builtin_algebra("gl2")
        system = DifferentialSystem(genus2_curve, gl2, ExactMatrix.zeros(4, 2))
        with pytest.raises(ValueError):
            integrate_loop(system, loops_g2.loops[0], 1e-12)


class TestMonodromy:
    def test_zero_system_trivial_rep(self, genus2_curve, loops_g2):
        system = DifferentialSystem(genus2_curve, SL2, ExactMatrix.zeros(3, 2))
        rep = monodromy(system, loops_g2, 1e-12)
        assert rep.relation_residual <= 1e-14
        for m in rep.matrices:
            assert np.allclose(m, np.eye(2), atol=1e-14)

    def test_relation_residual(self, rep_g2):
        assert rep_g2.relation_residual <= 1e-8
        assert rep_g2.valid

    def test_det_residuals(self, rep_g2):
        assert max(rep_g2.det_residuals) <= 1e-10

    def test_gauge_equivariance_of_traces(self, genus2_curve, loops_g2):
        system = small_system(genus2_curve, 3)
        s = ExactMatrix.from_rows([[es(2), es(1)], [es(3), es(2)]])  # det 1
        conj = conjugate_system(system, s)
        rep1 = monodromy(system, loops_g2, 1e-12)
        rep2 = monodromy(conj, loops_g2, 1e-12)
        t1 = trace_vector(rep1).values
        t2 = trace_vector(rep2).values
        assert max(abs(a - b) for a, b in zip(t1, t2)) <= 1e-8

    def test_homotopy_invariance_midpoint_refinement(self, genus2_curve, loops_g2):
        system = small_system(genus2_curve, 3)
        loop = loops_g2.loops[1]
        refined_vertices = [loop.vertices[0]]
        for a, b in zip(loop.vertices, loop.vertices[1:]):
            refined_vertices += [(a + b) / 2, b]
        refined = Loop(
            loop.name,
            loop.word,
            tuple(refined_vertices),
            (loop.sheets[0],) * len(refined_vertices),
        )
        Y0 = integrate_loop(system, loop, 1e-12)
        Y1 = integrate_loop(system, refined, 1e-12)
        assert np.max(np.abs(Y0 - Y1)) <= 1e-7

    def test_homotopy_invariance_vertex_perturbation(self, genus2_curve, loops_g2):
        rng = np.random.default_rng(7)
        system = small_system(genus2_curve, 3)
        loop = loops_g2.loops[0]
        eps = loops_g2.clearance / 10
        moved = [loop.vertices[0]]
        for v in loop.vertices[1:-1]:
            moved.append(v + complex(*rng.uniform(-eps / 2, eps / 2, 2)))
        moved.append(loop.vertices[-1])
        perturbed = Loop(loop.name, loop.word, tuple(moved), (loop.sheets[0],) * len(moved))
        Y0 = integrate_loop(system, loop, 1e-12)
        Y1 = integrate_loop(system, perturbed, 1e-12)
        assert np.max(np.abs(Y0 - Y1)) <= 1e-7

    def test_ten_seeded_systems_meet_tolerances(self, genus2_curve, loops_g2):
        for seed in range(1, 11):
            rep = monodromy(small_system(genus2_curve, seed), loops_g2, 1e-12)
            assert rep.relation_residual <= 1e-8, seed
            assert max(rep.det_residuals) <= 1e-10, seed

    def test_batched_monodromy_deterministic(self, genus2_curve, loops_g2):
        systems = [small_system(genus2_curve, seed) for seed in (3, 4)]
        r1 = monodromy_batch(systems, loops_g2, 1e-12)
        r2 = monodromy_batch(systems, loops_g2, 1e-12)
        for rep1, rep2 in zip(r1, r2):
            for a, b in zip(rep1.matrices, rep2.matrices):
                assert np.array_equal(a, b)
            assert rep1.involution_defects == rep2.involution_defects

    def test_overflowed_relation_is_invalid_not_an_error(self):
        """A relation product that overflows has infinite residual: the
        representation is invalid, and no SVD is attempted on it."""
        big = np.diag([1e200, 1e-200]).astype(complex)
        with np.errstate(over="ignore", invalid="ignore"):
            rep = _representation([big] * 4, ("a1", "b1", "a2", "b2"), 1e-8, 1e-10, ())
        assert rep.relation_residual == math.inf
        assert rep.valid is False

    def test_overflowed_relation_prints_no_warning(self):
        big = np.diag([1e200, 1e-200]).astype(complex)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = _representation([big] * 4, ("a1", "b1", "a2", "b2"), 1e-8, 1e-10, ())
        assert rep.valid is False

    def test_involution_defects_reported(self, loops_g2, rep_g2):
        defects = rep_g2.to_json()["involution_defects"]
        assert len(defects) == 2 * loops_g2.genus + 1 == len(loops_g2.letters)
        assert all(0 <= d <= 1e-10 for d in defects)


def _rel_dev(a, b):
    return float(np.max(np.abs(a - b)) / max(1.0, float(np.max(np.abs(b)))))


class TestBatchedTransport:
    def test_letter_products_match_full_word_transport(self, genus2_curve, loops_g2):
        """Letter-assembled loop matrices against whole-loop integration, on
        the ten seeded systems of acceptance criterion 6."""
        for seed in range(1, 11):
            system = small_system(genus2_curve, seed)
            rep = monodromy(system, loops_g2, 1e-12)
            for loop, m in zip(loops_g2.loops, rep.matrices):
                forward = integrate_loop(system, loop, 1e-12)
                assert _rel_dev(np.linalg.inv(m), forward) <= 1e-10, (seed, loop.name)

    def test_system_in_batch_matches_system_alone(self, genus2_curve, loops_g2):
        """Shared step sequences differ from a lone system's, so agreement is
        to tolerance, not bitwise."""
        stiff = scale_system(small_system(genus2_curve, 4), es(8))
        systems = [small_system(genus2_curve, 3), stiff, small_system(genus2_curve, 9)]
        batch = monodromy_batch(systems, loops_g2, 1e-12)
        for system, rep in zip(systems, batch):
            alone = monodromy(system, loops_g2, 1e-12)
            for a, b in zip(rep.matrices, alone.matrices):
                assert _rel_dev(a, b) <= 1e-10

    def test_member_on_branch_point_is_named(self, genus2_curve, loops_g2):
        good = NumericSystem.from_system(small_system(genus2_curve, 3))
        roots = list(good.roots)
        roots[0] = loops_g2.letters[1][6]  # a vertex of the second letter's circle
        bad = NumericSystem(tuple(roots), good.matrices)
        with pytest.raises(IntegrationError) as info:
            monodromy_batch([good, good, bad], loops_g2, 1e-12)
        err = info.value
        assert err.member[:2] == (2, "letter 2")
        assert "system 2, letter 2" in str(err)
        assert err.segment is not None and err.h is not None

    def test_failing_member_named_in_row_sheet_order(self, genus2_curve, loops_g2):
        """Errors are read in member order (system, letter, sheet), sheet
        fastest, however the kernel lays its arrays out."""
        ok = NumericSystem.from_system(small_system(genus2_curve, 3))
        bad = NumericSystem(ok.roots, np.array([[[1e300, 1e300], [1e300, -1e300]]] * 2))
        with pytest.raises(IntegrationError) as info:
            monodromy_batch([ok, bad, ok], loops_g2, 1e-10)
        assert info.value.member == (1, "letter 1", 1)
        assert info.value.segment == 0


class TestTraceVector:
    def test_word_list_sizes(self):
        for g in (2, 3, 4):
            words = standard_word_list(g)
            assert len(words) == 6 * g - 3
            singles = [w for w in words if len(w) == 1]
            assert len(singles) == 2 * g
            assert ("a1", "b1", "a2") in words

    def test_identity_rep(self, loops_g2):
        mats = tuple(np.eye(2, dtype=complex) for _ in range(4))
        rep = MonodromyRepresentation(
            mats, ("a1", "b1", "a2", "b2"), 0.0, (0.0,) * 4, 1e-8, 1e-10
        )
        tv = trace_vector(rep)
        assert all(abs(v - 2) <= 1e-14 for v in tv.values)

    def test_diagonal_rep(self):
        lam = 1.7 - 0.3j
        d = np.diag([lam, 1 / lam])
        mats = (d, np.eye(2, dtype=complex), np.eye(2, dtype=complex), np.eye(2, dtype=complex))
        rep = MonodromyRepresentation(
            mats, ("a1", "b1", "a2", "b2"), 0.0, (0.0,) * 4, 1e-8, 1e-10
        )
        tv = trace_vector(rep)
        idx = tv.words.index(("a1",))
        assert abs(tv.values[idx] - (lam + 1 / lam)) <= 1e-14

    def test_invalid_rep_rejected(self):
        mats = tuple(np.eye(2, dtype=complex) for _ in range(4))
        bad = MonodromyRepresentation(
            mats, ("a1", "b1", "a2", "b2"), 1e-3, (0.0,) * 4, 1e-8, 1e-10
        )
        assert not bad.valid
        with pytest.raises(InvalidRepresentationError):
            trace_vector(bad)
        with pytest.raises(InvalidRepresentationError):
            irreducibility_probe(bad)

    def test_conjugated_rep_same_traces(self, genus2_curve, loops_g2, rep_g2):
        s = np.array([[1.2, 0.4j], [0.1, (1 + 0.04j) / 1.2]])
        s /= np.sqrt(np.linalg.det(s))
        conj_m = tuple(s @ m @ np.linalg.inv(s) for m in rep_g2.matrices)
        rep2 = MonodromyRepresentation(
            conj_m, rep_g2.loop_names, rep_g2.relation_residual,
            rep_g2.det_residuals, 1e-8, 1e-10,
        )
        t1, t2 = trace_vector(rep_g2).values, trace_vector(rep2).values
        assert max(abs(a - b) for a, b in zip(t1, t2)) <= 1e-8


class TestIrreducibilityProbe:
    def _rep(self, mats):
        return MonodromyRepresentation(
            tuple(np.array(m, dtype=complex) for m in mats),
            ("a1", "b1", "a2", "b2"),
            0.0,
            (0.0,) * 4,
            1e-8,
            1e-10,
        )

    def test_upper_triangular_found(self):
        mats = [np.array([[2.0, 1.0], [0, 0.5]]) for _ in range(4)]
        v = irreducibility_probe(self._rep(mats))
        assert not v.probably_irreducible
        w = np.array(v.witness)
        w = w / np.linalg.norm(w)
        assert abs(abs(w[0]) - 1) <= 1e-8 and abs(w[1]) <= 1e-8

    def test_identity_rep_found(self):
        v = irreducibility_probe(self._rep([np.eye(2)] * 4))
        assert not v.probably_irreducible and v.witness is not None

    def test_generic_rep_irreducible(self, rep_g2):
        v = irreducibility_probe(rep_g2)
        assert v.probably_irreducible and v.witness is None

    def test_common_line_nontrivial_basis(self):
        s = np.array([[1.0, 2.0], [0.5, 2.0]])
        s /= np.sqrt(np.linalg.det(s))
        si = np.linalg.inv(s)
        mats = [s @ np.array([[1.5, v], [0, 1 / 1.5]]) @ si for v in (1.0, 2.0, -0.5, 0.3)]
        v = irreducibility_probe(self._rep(mats))
        assert not v.probably_irreducible
        w = np.array(v.witness)
        target = s @ np.array([1.0, 0.0])
        cosang = abs(np.vdot(w, target)) / (np.linalg.norm(w) * np.linalg.norm(target))
        assert cosang >= 1 - 1e-8

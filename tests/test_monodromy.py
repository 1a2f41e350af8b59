import cmath
import dataclasses
import itertools
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
    build_loops,
    canonical_words,
    float_system,
    irreducibility_probe,
    monodromy,
    monodromy_family,
    standard_word_list,
    trace_values,
    MonodromyRepresentation,
    ODE_TOL_FLOOR,
    _A,
    _C,
    _CIRCLE_SIDES,
    _E,
    _SHEETS,
    _feet,
    _letter_transports,
    _lollipop,
    _nearer_root,
    _representations,
    _sqrt_f,
    _transport,
    _turn_charts,
    _words,
)
from diffsys.systems import (
    DifferentialSystem,
    builtin_algebra,
    conjugate_system,
    sample_system,
    scale_system,
)

import diffsys.monodromy
import oracles
from oracles import integrate_loop, loop_integral, loop_sheets, word_is_trivial_upstairs


def es(re, im=0):
    return ExactScalar.of(re, im)


SL2 = builtin_algebra("sl2")
EIGHTH = es(Fraction(1, 8))


def small_system(curve, seed):
    return scale_system(
        sample_system(curve, SL2, seed=seed, coefficient_bound=5), EIGHTH
    )


def _stack(pairs):
    """The family (roots (n, 2g+1), matrices (n, g, 2, 2)) of float
    systems given as (roots, matrices) pairs."""
    return np.array([r for r, _ in pairs]), np.array([m for _, m in pairs])


def _with_root(pair, k, value):
    """The float system ``pair`` with branch root k set to ``value``."""
    roots = pair[0].copy()
    roots[k] = value
    return roots, pair[1]


def _zero_system(curve):
    """The float zero system on ``curve``."""
    return np.array(curve.float_roots()), np.zeros((curve.genus, 2, 2), dtype=complex)


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
        for g in range(2, 11):
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
        with pytest.raises(ClearanceError, match="no circle radius fits"):
            build_loops(curve, clearance=0.5)

    def test_radius_rule_names_the_letter(self):
        """Branch points 0, 2, 3, 4, 5 at clearance 0.45: letter 2's radius,
        0.45 times the distance 1 to its neighbour, does not clear the ring,
        and the error counts letters from 1, as the turn guards do."""
        curve = HyperellipticCurve.from_integers([0, 2, 3, 4, 5])
        with pytest.raises(ClearanceError, match="infeasible for letter 2: no circle radius"):
            build_loops(curve, clearance=0.45)

    def test_even_model_rejected(self):
        curve = HyperellipticCurve.from_integers([0, 1, 2, 3, 4, 5])
        with pytest.raises(ValueError):
            build_loops(curve, clearance=0.2)

    def test_nonpositive_clearance_rejected(self, genus2_curve):
        for clearance in (0.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="clearance must be positive and finite"):
                build_loops(genus2_curve, clearance)

    @pytest.mark.parametrize("g", [2, 3, 4, pytest.param((1, -1, 0, 2, -1), id="complex")])
    def test_sheets_match_whole_loop_continuation(self, g):
        """Sheets assembled from the letters' closed-form profiles against an
        independent dense continuation of sqrt(f) along each whole loop
        polyline: branch points 0..2g, and 0+i, 1-i, 2, 3+2i, 4-i."""
        if isinstance(g, tuple):
            curve = HyperellipticCurve(tuple(es(j, im) for j, im in enumerate(g)))
        else:
            curve = HyperellipticCurve.from_integers(range(2 * g + 1))
        for clearance in (0.22, 0.2):
            loops = build_loops(curve, clearance)
            for loop in loops.loops:
                assert list(loop.sheets) == loop_sheets(curve, loop), (g, clearance, loop.name)

    def test_clearance_rule_matches_polygon_oracle(self, monkeypatch):
        """build_loops refuses a curve at a clearance exactly where its
        radius rule refuses it or where the polygon oracle
        refuses a letter it would have drawn (the turn guards patched to
        hand over the letters instead), on the census curves of
        ``oracles.clearance_curves`` at every clearance of the census."""

        class Drawn(Exception):
            pass

        def hand_over(roots, letters):
            raise Drawn(letters)

        outcomes = {"built": 0, "radius rule": 0, "polygon oracle": 0}
        for curve in oracles.clearance_curves():
            roots = curve.float_roots()
            for clearance in oracles.CLEARANCES:
                with monkeypatch.context() as m:
                    m.setattr(diffsys.monodromy, "_turn_guards", hand_over)
                    try:
                        build_loops(curve, clearance)
                    except ClearanceError:
                        expected = "radius rule"
                    except Drawn as drawn:
                        letters = drawn.args[0]
                        clear = all(oracles.polygon_clear(_lollipop(letters, k), roots, clearance)
                                    for k in range(1, len(roots) + 1))
                        expected = "built" if clear else "polygon oracle"
                try:
                    build_loops(curve, clearance)
                    built = True
                except ClearanceError:
                    built = False
                assert built == (expected == "built"), (curve.branch_points, clearance, expected)
                outcomes[expected] += 1
        assert min(outcomes.values()) > 0, outcomes

    @pytest.mark.parametrize("clearance", [0.22, 0.05])
    def test_blocked_letter_is_named(self, clearance):
        """Branch points 0, 1, 2, 3, 2+i: the stem of letter 4 (2+i) passes
        branch point 2 at every clearance; the error names the letter and no
        system."""
        curve = HyperellipticCurve(tuple(es(*z) for z in ((0,), (1,), (2,), (3,), (2, 1))))
        with pytest.raises(ClearanceError, match="letter 4: another branch point") as info:
            build_loops(curve, clearance)
        assert "system" not in str(info.value)

    @pytest.mark.parametrize(
        "points, clearance, reason",
        [
            ((0, 1, 2, 3, 4), 1e-14, "letter 1: its circle has vertices within 1e-13"),
            ((0, 1, 2, 3, 4), 1e-300, "letter 1: its circle has vertices within 1e-13"),
            ((0, 1, 2, 3, 10**6), 1e-12, "letter 5: its sheet profile is not finite"),
        ],
    )
    def test_letter_below_double_precision_is_named(self, points, clearance, reason):
        """A circle whose 16-gon sides fall below the polylines' merge
        distance (clearances 1e-14 and 1e-300), or whose vertices round onto
        its branch point (1e-12 around 10^6, so its sheet profile divides by
        zero), is refused, naming the letter and warning nothing."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ClearanceError, match=reason):
                build_loops(HyperellipticCurve.from_integers(points), clearance)

    def test_smallest_drawn_letters_keep_their_sheets(self):
        """At clearance 1e-12 the circles' sides (about 1.2e-12) stay above
        the merge distance: each loop keeps as many vertices as at clearance
        0.2, and the sheets match the dense continuation."""
        curve = HyperellipticCurve.from_integers(range(5))
        wide = build_loops(curve, 0.2)
        for loop, wide_loop in zip(build_loops(curve, 1e-12).loops, wide.loops):
            assert len(loop.vertices) == len(wide_loop.vertices), loop.name
            assert list(loop.sheets) == loop_sheets(curve, loop), loop.name

    @pytest.mark.parametrize("g", [2, 3, 4])
    def test_letters_return_along_their_stem(self, g):
        """A letter's way back is its stem reversed, from a circle that closes
        on south (vertex 2) exactly: letter transports sweep the stem once."""
        loops = build_loops(HyperellipticCurve.from_integers(range(2 * g + 1)), 0.22)
        for k in range(1, 2 * g + 2):
            letter = _lollipop(loops, k)
            assert letter[-3:] == letter[2::-1], k
            assert letter[2 + _CIRCLE_SIDES] == letter[2], k

    def test_every_drawn_letter_ends_on_the_opposite_sheet(self):
        """A letter that passes the clearance rule winds once around its own
        branch point and around no other, so its drawing ends on sheet -1 of
        the oracle's dense continuation: on every census curve and clearance
        that builds (93 loop systems), for every letter."""
        built = 0
        for curve in oracles.clearance_curves():
            for clearance in oracles.CLEARANCES:
                try:
                    loops = build_loops(curve, clearance)
                except ClearanceError:
                    continue
                built += 1
                roots = curve.float_roots()
                for k in range(1, len(roots) + 1):
                    assert oracles.vertex_sheets(roots, _lollipop(loops, k))[-1] == -1, (
                        curve.branch_points, clearance, k)
        assert built == 93


class TestIntegrateLoop:
    def test_zero_system_identity(self, genus2_curve, loops_g2):
        system = DifferentialSystem(genus2_curve, SL2, ExactMatrix.from_rows([[es(0)] * 2] * 3))
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
        for ode_tol in (0.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="ode_tol must be positive and finite"):
                monodromy(system, loops_g2, ode_tol)

    def test_tolerance_below_double_precision_rejected(self, genus2_curve, loops_g2):
        """The local error is held to ode_tol / 10 relative to 1 + |Y|, which
        double precision cannot resolve below 10 eps: such a tolerance is
        refused before any step (1e-20 used to run 285 s on the CLI and
        exhaust the step budget)."""
        system = small_system(genus2_curve, 5)
        assert ODE_TOL_FLOOR == 10 * np.finfo(float).eps
        for ode_tol in (1e-20, 0.99 * ODE_TOL_FLOOR):
            with pytest.raises(ValueError, match="double precision"):
                monodromy(system, loops_g2, ode_tol)

    def test_non_sl2_rejected(self, genus2_curve, loops_g2):
        gl2 = builtin_algebra("gl2")
        system = DifferentialSystem(genus2_curve, gl2, ExactMatrix.from_rows([[es(0)] * 2] * 4))
        with pytest.raises(ValueError):
            monodromy(system, loops_g2, 1e-12)


class TestMonodromy:
    def test_zero_system_trivial_rep(self, genus2_curve, loops_g2):
        system = DifferentialSystem(genus2_curve, SL2, ExactMatrix.from_rows([[es(0)] * 2] * 3))
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
        t1, t2 = trace_values([rep1, rep2])
        assert np.max(np.abs(t1 - t2)) <= 1e-8

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
        family = _stack([float_system(s) for s in systems])
        r1 = monodromy_family(*family, loops_g2, 1e-12)
        r2 = monodromy_family(*family, loops_g2, 1e-12)
        for rep1, rep2 in zip(r1, r2):
            for a, b in zip(rep1.matrices, rep2.matrices):
                assert np.array_equal(a, b)
            assert rep1.to_json() == rep2.to_json()

    @staticmethod
    def _overflowing_letters(loops):
        """Letter transports diag(1e50, 1e-50) on both sheets: each word of at
        most four letters stays finite, the relation product overflows."""
        letter = np.diag([1e50, 1e-50]).astype(complex)
        return np.array(np.broadcast_to(letter, (1, len(loops.radii), 2, 2, 2)))

    def test_overflowed_relation_is_invalid_not_an_error(self, loops_g2):
        """A relation product that overflows has infinite residual: the
        representation is invalid, and no SVD is attempted on it."""
        (rep,) = _representations(self._overflowing_letters(loops_g2), loops_g2, (0, 0))
        assert all(np.isfinite(np.linalg.inv(m)).all() for m in rep.matrices)
        assert rep.relation_residual == math.inf
        assert rep.valid is False

    def test_overflowed_relation_prints_no_warning(self, loops_g2):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            (rep,) = _representations(self._overflowing_letters(loops_g2), loops_g2, (0, 0))
        assert rep.valid is False

    def test_overflow_in_a_stack_stays_with_its_member(self, genus2_curve, loops_g2):
        """In a two-system stack only the overflowing member turns invalid;
        the other is bit for bit its own stack of one."""
        system = small_system(genus2_curve, 3)
        letters, _ = _letter_transports(*_stack([float_system(system)]), loops_g2, 1e-12)
        stack = np.concatenate([self._overflowing_letters(loops_g2), letters])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            bad, good = _representations(stack, loops_g2, (0, 0))
        (alone,) = _representations(letters, loops_g2, (0, 0))
        assert bad.relation_residual == math.inf and bad.valid is False
        assert good.valid
        assert good.to_json() == alone.to_json()
        for a, b in zip(good.matrices, alone.matrices):
            assert np.array_equal(a, b)

    def test_letter_norms_reported(self, loops_g2, rep_g2):
        """det T = 1 forces the largest singular value of T to be at least 1."""
        norms = rep_g2.to_json()["letter_norms"]
        assert len(norms) == 2 * loops_g2.genus + 1
        assert all(n >= 1 - 1e-9 for n in norms)


def _assert_same_rep(a, b):
    """Bit-equality of two representations, matrices included."""
    assert a.to_json() == b.to_json()
    for m, n in zip(a.matrices, b.matrices):
        assert np.array_equal(m, n)


class TestStackedRepresentation:
    """The stacked representation layer against the per-matrix reference in
    ``oracles``, on a family like an fd ladder's: a center, coefficient
    partners, branch partners, an exact duplicate and a stiff system."""

    @pytest.fixture(scope="class")
    def family(self, genus2_curve):
        roots, matrices = base = float_system(small_system(genus2_curve, 3))
        unit = np.zeros((2, 2, 2), dtype=complex)
        unit[0, 0, 1] = 1.0
        coeff = [(roots, matrices + d * unit) for d in (1e-5, -1e-5, 1e-5j)]
        branch = [_with_root(base, 2, roots[2] + d) for d in (1e-5, -1e-5j)]
        stiff = float_system(scale_system(small_system(genus2_curve, 4), es(8)))
        return [base, *coeff, *branch, base, stiff]

    @pytest.fixture(scope="class")
    def family_reps(self, family, loops_g2):
        return monodromy_family(*_stack(family), loops_g2, 1e-12)

    def test_family_matches_per_matrix_reference(self, family, family_reps, loops_g2):
        letter_t, _ = _letter_transports(*_stack(family), loops_g2, 1e-12)
        words = standard_word_list(2)
        valid = [i for i, rep in enumerate(family_reps) if rep.valid]
        assert len(valid) == len(family_reps) - 1  # the stiff system misses the relation gate
        stacked = dict(zip(valid, trace_values([family_reps[i] for i in valid])))
        for i, rep in enumerate(family_reps):
            mats, residual, det_res, norms = oracles.representation(letter_t[i], loops_g2)
            for a, b in zip(rep.matrices, mats):
                assert np.array_equal(a, b), i
            assert rep.relation_residual == residual, i
            assert rep.det_residuals == det_res, i
            assert rep.letter_norms == norms, i
            if rep.valid:
                ref = oracles.traces(mats, rep.loop_names, words)
                assert tuple(stacked[i].tolist()) == ref, i
                assert tuple(trace_values([rep])[0].tolist()) == ref, i
        _assert_same_rep(family_reps[0], family_reps[-2])

    def test_permuted_family_permutes_results(self, family, family_reps, loops_g2):
        order = [5, 2, 7, 0, 3, 6, 1, 4]
        permuted = monodromy_family(*_stack([family[j] for j in order]), loops_g2, 1e-12)
        for rep, j in zip(permuted, order):
            _assert_same_rep(rep, family_reps[j])

    def test_trace_values_name_the_first_invalid(self, family_reps):
        """The stiff system (index 7) misses the relation gate; behind valid
        representations, ``trace_values`` names its position."""
        with pytest.raises(InvalidRepresentationError, match="largest letter norm") as info:
            trace_values(family_reps[:3] + family_reps[7:] + family_reps[3:7])
        assert info.value.index == 3


def _rel_dev(a, b):
    return float(np.max(np.abs(a - b)) / max(1.0, float(np.max(np.abs(b)))))


def _rows(pairs, per_system):
    """Stacked roots and matrices of float systems, each repeated for ``per_system`` rows."""
    return tuple(a.repeat(per_system, 0) for a in _stack(pairs))


def _principal(pair, x):
    """Principal sqrt f of the float system ``pair`` at the points ``x``."""
    return np.sqrt(np.prod(np.asarray(x)[:, None] - pair[0], axis=1))


def _drawn_letters(loops):
    """Every letter's lollipop polyline, stacked (2g+1, vertices)."""
    return np.array([_lollipop(loops, k) for k in range(1, len(loops.radii) + 1)])


def _full_letters(pairs, loops):
    """Letter transports (n, 2g+1, 2 sheets, 2, 2) of float systems from sweeps of every
    segment of the whole lollipops in x, the reference for the composed
    letters: the base-line edges, the first and last segments, in one sweep,
    and the stems and circles in another, so that their rows do not take the
    edges' steps (measured at genus 3: 9 against 58)."""
    letters = _drawn_letters(loops)
    kinds = ["edge"] + ["turn"] * (letters.shape[1] - 3) + ["edge"]
    return oracles.polyline_transports(*_stack(pairs), letters, 1e-12, kinds)[0]


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

    def test_member_on_branch_point_is_named(self, genus2_curve, loops_g2):
        """A branch point on letter 2's circle fails the half-turn guard,
        which runs before any half-turn is swept (no segment, no step)."""
        good = float_system(small_system(genus2_curve, 3))
        bad = _with_root(good, 0, _lollipop(loops_g2, 2)[6])  # a vertex of the second letter's circle
        with pytest.raises(IntegrationError, match="within the clearance of its circle") as info:
            monodromy_family(*_stack([good, good, bad]), loops_g2, 1e-12)
        err = info.value
        assert err.member[:2] == (2, "letter 2")
        assert "system 2, letter 2" in str(err)
        assert err.t is None and err.h is None

    def test_sheet_guard_culprit_is_named(self, genus2_curve, loops_g2):
        """A system with a branch point 1e-15 off a side of letter 2's circle
        fails the half-turn guard (the circle is not walked, so no sheet
        guard sees that side); behind two systems with identical rows, the
        error names it."""
        zero = _zero_system(genus2_curve)
        a, b = _lollipop(loops_g2, 2)[6:8]
        bad = _with_root(zero, 0, (a + b) / 2 + 1e-15j * (b - a) / abs(b - a))
        with pytest.raises(IntegrationError, match="within the clearance of its circle") as info:
            monodromy_family(*_stack([zero, zero, bad]), loops_g2, 1e-12)
        assert info.value.member == (2, "letter 2", 1)

    @pytest.mark.parametrize("where, moved, letter, what", [
        (0, 1 + 0.2j, 2, "another branch point inside"),
        (4, 1 + 0.2j, 2, "another branch point inside"),
        (4, 4 + 3j, 5, "no branch point inside"),
        (0, 2.1 - 0.66j, 3, "of its turn's triangle"),
    ])
    def test_branch_point_off_its_circle_is_named(self, genus2_curve, loops_g2, where, moved,
                                                  letter, what):
        """A branch point strictly inside another letter's circle, or inside
        none, makes a half-turn differ from its circle; the guard names the
        member.  Unguarded, the first case gives an invalid representation
        (relation residual 41), and nothing else names the cause.  The last case puts root 0 0.1 beside
        letter 3's foot, outside its circle's clearance ring but within the
        clearance of the turn's triangle (foot, south, lam): the guard names
        letter 3, not the emptied circle of letter 1."""
        good = float_system(small_system(genus2_curve, 3))
        bad = _with_root(good, where, moved)
        with pytest.raises(IntegrationError, match=what) as info:
            monodromy_family(*_stack([good, good, bad]), loops_g2, 1e-12)
        assert info.value.member == (2, f"letter {letter}", 1)

    def test_zero_length_stem_is_guarded(self):
        """Branch points 0, 3/2, 3, 9/2, 9/4 + 3/2 i at clearance 0.22: letter
        2 (3/2) is the lowest and its radius is the base depth, so its foot is
        its south.  Root 0 moved to 0.645 lies 0.195 from letter 2's circle,
        within 0.9 clearance (0.198), and the zero-length stem must not hide
        it from the guard."""
        curve = HyperellipticCurve(tuple(es(*z) for z in (
            (0,), (Fraction(3, 2),), (3,), (Fraction(9, 2),), (Fraction(9, 4), Fraction(3, 2)))))
        loops = build_loops(curve, 0.22)
        assert loops.feet[1] == loops.souths[1]
        zero = _with_root(_zero_system(curve), 0, 0.645)
        with pytest.raises(IntegrationError, match="within the clearance of its circle") as info:
            monodromy_family(*_stack([zero]), loops, 1e-12)
        assert info.value.member == (0, "letter 2", 1)

    def test_guard_admits_the_largest_fd_branch_step(self, genus2_curve):
        """At clearance 0.441 the circles have the smallest radius that
        build_loops allows; a branch point moved by clearance / 4, the largest
        fd step immersion admits, towards a neighbour still passes."""
        clearance = 0.441
        loops = build_loops(genus2_curve, clearance)
        base = float_system(small_system(genus2_curve, 3))
        family = [base] + [_with_root(base, 1, base[0][1] + d) for d in (clearance / 4, -clearance / 4)]
        assert all(rep.valid for rep in monodromy_family(*_stack(family), loops, 1e-12))

    def test_half_turn_sheet_mismatch_is_named(self, genus2_curve, loops_g2, monkeypatch):
        """A turn starts from the foot's y in its chart, which must be +-sqrt
        P(u_f): a foot y off by a factor i matches no sheet, and the kernel's
        start check names the first such member."""
        feet = diffsys.monodromy._feet

        def off_by_i(*args):
            transports, y_feet, steps = feet(*args)
            return transports, y_feet * 1j, steps

        monkeypatch.setattr(diffsys.monodromy, "_feet", off_by_i)
        with pytest.raises(IntegrationError, match=r"start is not \+-sqrt f") as info:
            monodromy(small_system(genus2_curve, 3), loops_g2, 1e-12)
        assert info.value.member == (0, "letter 1 turn", 1)

    def test_abelian_half_turns_vs_quadrature(self, genus2_curve, loops_g2):
        """delta = H (x) omega: each letter, composed from its edges to the
        foot and its half turns, the chart segment u_f -> 0 on both sheets,
        is diag(exp I, exp -I) with I the Gauss-Legendre integral of omega
        along the whole lollipop polygon in x (measured: 2.6e-13)."""
        coeff = ExactMatrix.from_rows([[es(1), es(Fraction(1, 2))], [es(0), es(0)], [es(0), es(0)]])
        system = float_system(DifferentialSystem(genus2_curve, SL2, coeff))
        letter_t = _letter_transports(*_stack([system]), loops_g2, 1e-12)[0][0]
        worst = 0.0
        for k, letter in enumerate(_drawn_letters(loops_g2).tolist()):
            for j, sheet in enumerate(_SHEETS):
                path = Loop("letter", (k + 1,), letter, (sheet,) * len(letter))
                pred = cmath.exp(loop_integral(genus2_curve, path, [1.0, 0.5]))
                h = letter_t[k, j]
                worst = max(worst, abs(h[0, 0] - pred), abs(h[1, 1] - 1 / pred),
                            abs(h[0, 1]), abs(h[1, 0]))
        assert worst <= 1e-10, worst

    def test_stem_guard_culprit_is_named(self, genus2_curve, loops_g2):
        """The segment foot -> south is part of the letter's turn, whose chart
        segment is homotopic to the lollipop only outside the triangle (foot,
        south, lam): a branch point 1e-15 off letter 3's segment fails the turn
        guard, which runs before any sweep (no segment, no step)."""
        zero = _zero_system(genus2_curve)
        a, b = loops_g2.feet[2], loops_g2.souths[2]
        bad = _with_root(zero, 0, (a + b) / 2 + 1e-15j * (b - a) / abs(b - a))
        with pytest.raises(IntegrationError, match="of its turn's triangle") as info:
            monodromy_family(*_stack([zero, zero, bad]), loops_g2, 1e-12)
        assert info.value.member == (2, "letter 3", 1)
        assert info.value.t is None

    def test_edge_guard_culprit_is_named(self, genus2_curve, loops_g2):
        """No guard covers the base line: a branch point 1e-15 off the edge
        from the base to letter 2's foot, 0.3 of the way, fails the sheet
        guard of the edge sweep, behind two systems with identical rows,
        naming the member."""
        zero = _zero_system(genus2_curve)
        bad = _with_root(zero, 0, 0.7 * loops_g2.base_point + 0.3 * loops_g2.feet[1] + 1e-15j)
        with pytest.raises(IntegrationError, match="underflow.* at t=") as info:
            _feet(*_rows([zero, zero, bad], 1), loops_g2, 1e-12)
        assert info.value.member[:2] == (2, "letter 2")
        assert 0 < info.value.t < 1

    @pytest.mark.parametrize("genus", [2, 3])
    def test_stem_once_letters_match_full_letter_sweep(self, genus):
        """Letters composed as reach(k,-s)^-1 reach(k,s), reach = W F with F
        the base-line edges to the foot and W the half turn in each system's
        own chart, against one sweep of the whole lollipops in x, per letter
        member, on one family: seeds 1..10 (criterion 6's at genus 2) and seed
        1 with each branch point moved by 1e-4 and by 1e-4 i, whose turns run
        about moved centers (measured: 1.5e-14 and 3.7e-14 at genus 2 and 3,
        partners 5.4e-15 and 9.9e-15)."""
        curve = HyperellipticCurve.from_integers(range(2 * genus + 1))
        loops = build_loops(curve, 0.22)
        systems = [float_system(small_system(curve, seed)) for seed in range(1, 11)]
        for j, d in itertools.product(range(2 * genus + 1), (1e-4, 1e-4j)):
            systems.append(_with_root(systems[0], j, systems[0][0][j] + d))
        composed, _ = _letter_transports(*_stack(systems), loops, 1e-12)
        for i, (c, f) in enumerate(zip(composed, _full_letters(systems, loops))):
            dev = max(_rel_dev(a, b) for a, b in zip(c.reshape(-1, 2, 2), f.reshape(-1, 2, 2)))
            assert dev <= 1e-12, (i, dev)

    def test_full_turn_is_two_half_turns(self):
        """The chart connection is odd under u -> -u, so the full turn V(k,s),
        u_f -> -u_f, is W(k,-s)^-1 W(k,s), W the half turn u_f -> 0 that the
        letters are built from, and V(k,-s) V(k,s) = I: each swept on both
        sheets at genus 2 and 3, seeds 1..4 (measured: 5.9e-15 relative, and
        1.2e-13 from I)."""
        for genus in (2, 3):
            curve = HyperellipticCurve.from_integers(range(2 * genus + 1))
            loops = build_loops(curve, 0.22)
            family = _stack([float_system(small_system(curve, seed)) for seed in range(1, 5)])
            chart_roots, coeffs, u_foot, factor = _turn_charts(*family, loops)
            _, y_feet, _ = _feet(*family, loops, 1e-12)
            members = [(i, f"letter {k + 1} turn", s) for i, k in np.ndindex(y_feet.shape)
                       for s in _SHEETS]
            args = y_feet.ravel() * factor, chart_roots, coeffs, 1e-12, members
            full, _ = _transport(u_foot, -u_foot, *args)
            half, _ = _transport(u_foot, np.zeros_like(u_foot), *args)
            composed = np.linalg.inv(half[:, ::-1]) @ half
            dev = max(_rel_dev(a, b) for a, b in zip(composed.reshape(-1, 2, 2), full.reshape(-1, 2, 2)))
            assert dev <= 1e-12, (genus, dev)
            loop_back = np.linalg.norm(full[:, ::-1] @ full - np.eye(2), ord=2, axis=(-2, -1))
            assert loop_back.max() <= 1e-10, (genus, loop_back.max())

    def test_stem_once_sweep_takes_fewer_steps(self, monkeypatch, genus3_curve):
        """Genus-3 seed 1: the kernel work of the two sweeps, rows times
        accepted steps, against one sweep of every segment of the whole
        letters (measured: 6 x 18 + 7 x 17 = 227 against 140 x 46 = 6440);
        the counts are deterministic and family members report their shared
        sweeps."""
        loops = build_loops(genus3_curve, 0.22)
        system = small_system(genus3_curve, 1)
        letters = _drawn_letters(loops)
        _, [(_, (full_accepted, _))] = oracles.polyline_transports(
            *_stack([float_system(system)]), letters, 1e-12)
        full_work = letters.size - len(letters), full_accepted
        sweeps = []
        transport = diffsys.monodromy._transport

        def recorded(starts, *args):
            transports, steps = transport(starts, *args)
            sweeps.append((len(starts), steps[0]))
            return transports, steps

        with monkeypatch.context() as m:
            m.setattr(diffsys.monodromy, "_transport", recorded)
            rep = monodromy(system, loops, 1e-12)
        assert [rows for rows, _ in sweeps] == [6, 7]
        assert rep.to_json()["steps"]["accepted"] == sum(accepted for _, accepted in sweeps)
        assert sum(rows * accepted for rows, accepted in sweeps) < math.prod(full_work)
        assert monodromy(system, loops, 1e-12).steps == rep.steps
        pairs = [float_system(s) for s in (system, small_system(genus3_curve, 2))]
        family = monodromy_family(*_stack(pairs), loops, 1e-12)
        assert family[0].steps == family[1].steps

    def test_sheet_chain_on_complex_branch_points(self):
        """Branch points 0+i, 1-i, 2, 3+2i, 4-i: the principal sqrt f flips
        sign between the base (letter 3's foot) and letter 2's foot.  y at
        each foot, chained along the edges, is the oracle's dense
        continuation of sqrt f along the base line, and the composed letters
        match a full-letter sweep (measured: 2.2e-14)."""
        curve = HyperellipticCurve(tuple(es(j, im) for j, im in enumerate((1, -1, 0, 2, -1))))
        loops = build_loops(curve, 0.22)
        system = float_system(small_system(curve, 1))
        _, y_feet, _ = _feet(*_rows([system], 1), loops, 1e-12)
        sheets = [loop_sheets(curve, Loop("edge", (k,), (loops.base_point, foot), (1, 1)))[-1]
                  for k, foot in enumerate(loops.feet, start=1)]
        assert sheets == [-1, -1, 1, 1, 1]
        principal = [np.sqrt(np.prod(foot - system[0])) for foot in loops.feet]
        assert np.allclose(y_feet[0], np.multiply(sheets, principal), rtol=1e-13, atol=0)
        composed = _letter_transports(*_stack([system]), loops, 1e-12)[0][0]
        full = _full_letters([system], loops)[0]
        dev = max(_rel_dev(a, b) for a, b in zip(composed.reshape(-1, 2, 2), full.reshape(-1, 2, 2)))
        assert dev <= 1e-12, dev

    def test_edge_straddling_a_branch_point_is_named(self, genus2_curve, loops_g2):
        """A branch point 1e-15 above the midpoint of the edge from the base to
        letter 2's foot, zero system: the sweep's steps grow and one straddles
        the branch point, passing the sheet guard, so y at the foot comes out
        as minus the closed-form continuation, which the edge check names."""
        bad = _with_root(_zero_system(genus2_curve), 0,
                         (loops_g2.base_point + loops_g2.feet[1]) / 2 + 1e-15j)
        with pytest.raises(IntegrationError, match="end is off the closed-form continuation") as info:
            _feet(*_rows([bad], 1), loops_g2, 1e-12)
        assert info.value.member == (0, "letter 2", 1)

    def test_turn_sheet_mismatch_is_named(self, genus2_curve, loops_g2, monkeypatch):
        """Every kernel row's y at its end must be the closed-form continuation
        of its start: with the closed form negated on the chart rows u_f ->
        0, the first turn member on sheet +1 is named."""
        continuation = diffsys.monodromy._continuation

        def negated_on_turns(a, b, root_rows):
            out = continuation(a, b, root_rows)
            return -out if np.all(b == 0) else out

        monkeypatch.setattr(diffsys.monodromy, "_continuation", negated_on_turns)
        with pytest.raises(IntegrationError, match="end is off the closed-form continuation") as info:
            monodromy(small_system(genus2_curve, 3), loops_g2, 1e-12)
        assert info.value.member == (0, "letter 1 turn", 1)

    def test_zero_length_row_is_the_identity(self, genus2_curve, loops_g2):
        """A row whose start is its end, swept beside an edge of the base line,
        transports by the identity on both sheets and passes the end check."""
        system = float_system(small_system(genus2_curve, 3))
        foot, base = loops_g2.feet[1], loops_g2.base_point
        members = [(0, path, s) for path in ("still", "edge") for s in _SHEETS]
        starts = np.array([foot, base])
        transports, (accepted, _) = _transport(starts, np.array([foot, foot]),
                                               _principal(system, starts), *_rows([system], 2),
                                               1e-12, members)
        assert np.array_equal(transports[0], np.broadcast_to(np.eye(2), (2, 2, 2)))
        assert accepted > 0 and not np.allclose(transports[1], np.eye(2))

    def test_edge_start_sheet_mismatch_is_named(self, genus2_curve, loops_g2):
        """An edge row's start y must be +-sqrt f: off by a factor i it
        matches no sheet, and the start check names the row's member on
        sheet +1 before any step."""
        system = float_system(small_system(genus2_curve, 3))
        starts = np.full(2, loops_g2.base_point)
        members = [(0, f"letter {k}", s) for k in (2, 4) for s in _SHEETS]
        with pytest.raises(IntegrationError, match=r"start is not \+-sqrt f") as info:
            _transport(starts, np.array([loops_g2.feet[1], loops_g2.feet[3]]),
                       _principal(system, starts) * [1, 1j], *_rows([system], 2), 1e-12, members)
        assert info.value.member == (0, "letter 4", 1)
        assert info.value.t == 0

    @pytest.mark.parametrize("entry", [math.nan, math.inf, 1e200])
    def test_non_finite_estimate_is_named(self, genus2_curve, loops_g2, entry):
        """Matrices of NaN, inf or 1e200 entries make every error estimate of
        their row non-finite, so the steps shrink to underflow; the error
        names that row, behind a good one, and that cause."""
        good = float_system(small_system(genus2_curve, 3))
        bad = good[0], np.full((2, 2, 2), entry, dtype=complex)
        starts = np.full(2, loops_g2.base_point)
        members = [(i, "letter 2", s) for i in (0, 1) for s in _SHEETS]
        with pytest.raises(IntegrationError, match=r"^step-size underflow \(latest rejection: "
                           r"non-finite error estimate\)") as info:
            _transport(starts, np.full(2, loops_g2.feet[1]), _principal(good, starts),
                       *_rows([good, bad], 1), 1e-12, members)
        assert info.value.member == (1, "letter 2", 1)

    def test_family_member_named_by_global_index(self, genus2_curve, loops_g2):
        """One shared sweep over several systems names a failing member by
        its system's index in the family, reading errors in member order
        (system, letter, sheet), sheet fastest, however the kernel lays its
        arrays out."""
        ok = float_system(small_system(genus2_curve, 3))
        bad = ok[0], np.array([[[1e300, 1e300], [1e300, -1e300]]] * 2, dtype=complex)
        with pytest.raises(IntegrationError) as info:
            monodromy_family(*_stack([ok, bad, ok]), loops_g2, 1e-10)
        assert info.value.member == (1, "letter 1", 1)
        assert info.value.t is not None

    def test_family_members_match_lone_runs(self, genus2_curve, loops_g2):
        """The non-stiff members of a shared sweep that also carries a stiff
        system stay within 1e-12 of their lone runs (measured: about 1e-13)."""
        stiff = scale_system(small_system(genus2_curve, 4), es(8))
        systems = [small_system(genus2_curve, 3), stiff, small_system(genus2_curve, 9)]
        family = monodromy_family(*_stack([float_system(s) for s in systems]), loops_g2, 1e-12)
        for i in (0, 2):
            alone = monodromy(systems[i], loops_g2, 1e-12)
            assert family[i].valid
            for a, b in zip(family[i].matrices, alone.matrices):
                assert _rel_dev(a, b) <= 1e-12, i


class TestDOP853Transport:
    def test_tableau_is_scipys_bit_for_bit(self):
        coefficients = pytest.importorskip("scipy.integrate._ivp.dop853_coefficients")
        assert np.array_equal(_A, coefficients.A[1:13, :12])
        assert np.array_equal(_C, coefficients.C[:13])
        assert np.array_equal(_E, np.array([coefficients.E5[:12], coefficients.E3[:12]]))
        # the estimators give the FSAL stage no weight, so dropping it loses nothing
        assert coefficients.E5[12] == coefficients.E3[12] == 0.0

    @pytest.mark.parametrize("roots_shape, x_shape, transposed", [
        ((7, 6), (11, 6), False),  # genus-3 edges: 7 roots, 6 rows, a step's 11 points
        ((7, 6), (6,), False),  # the same rows' starts
        ((12, 7), (11, 7), False),  # genus-3 turns: 12 chart roots, 7 rows
        ((5, 292), (11, 292), False),  # a genus-2 ladder's edges
        ((8, 365), (11, 365), False),  # and its turns
        ((8, 365), (365,), True),  # its feet in the charts, roots stacked per row
        ((7, 3, 1), (8,), True),  # three systems' feet, roots stacked per system
        ((7, 1), (7, 21), False),  # the letters' sheet profiles
    ])
    def test_sqrt_f_is_the_root_by_root_product(self, roots_shape, x_shape, transposed):
        """``_sqrt_f`` equals the product taken one root at a time, bit for
        bit, on seeded inputs shaped as each caller passes them: the sweeps'
        roots contiguous, the feet's transposed."""
        rng = np.random.default_rng(math.prod(roots_shape) + math.prod(x_shape))

        def sample(shape):
            return rng.uniform(-1, 7, shape) + 1j * rng.uniform(-2, 2, shape)

        roots = sample(roots_shape[::-1]).T if transposed else sample(roots_shape)
        x = sample(x_shape)
        got, ref = _sqrt_f(x, roots), oracles.sqrt_f_by_root(x, roots)
        assert got.shape == ref.shape
        assert (got == ref).all()

    def test_nearer_root_is_the_nearer_by_distance(self):
        """The sign of Re(w conj y_old) picks the root that comparing |w -
        y_old| with |w + y_old| picks, on seeded pairs away from ties."""
        rng = np.random.default_rng(19)
        w = rng.normal(size=(11, 365)) + 1j * rng.normal(size=(11, 365))
        y_old = rng.normal(size=365) + 1j * rng.normal(size=365)
        away = np.abs((w * y_old.conjugate()).real) > 1e-9 * np.abs(w) * np.abs(y_old)
        assert away.mean() > 0.99
        got = _nearer_root(w.copy(), y_old)
        assert (got == oracles.nearer_root_by_distance(w, y_old))[away].all()

    def test_letter_transport_matches_scipy_dop853(self, genus2_curve, loops_g2):
        """One letter on both sheets against solve_ivp, which carries y as a
        state (dy/dt = y/2 sum_r delta/(x - r)) instead of picking roots."""
        solve_ivp = pytest.importorskip("scipy.integrate").solve_ivp
        system = small_system(genus2_curve, 5)
        roots, matrices = float_system(system)
        vertices = _lollipop(loops_g2, 5)

        def rhs(t, z, v, d):
            x, y = v + d * t, z[4]
            m = sum(mc * x**c for c, mc in enumerate(matrices)) * (d / y)
            dy = 0.5 * y * d * np.sum(1 / (x - roots))
            return np.append((m @ z[:4].reshape(2, 2)).ravel(), dy)

        for sheet in _SHEETS:
            ours = integrate_loop(system, Loop("e5", (5,), vertices, (sheet,) * len(vertices)), 1e-12)
            z = np.append(np.eye(2, dtype=complex).ravel(), sheet * np.sqrt(np.prod(vertices[0] - roots)))
            for a, b in zip(vertices, vertices[1:]):
                if a != b:
                    z = solve_ivp(rhs, (0.0, 1.0), z, method="DOP853", rtol=1e-13, atol=1e-13,
                                  args=(a, b - a)).y[:, -1]
            assert _rel_dev(ours, z[:4].reshape(2, 2)) <= 1e-11, sheet

    @pytest.mark.parametrize("ode_tol", [2e-12, 7e-13, 5e-13, 2e-13, 1e-14])
    @pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18, reason="longdouble is double here")
    def test_conjugated_criterion_6_system_valid(self, genus2_curve, loops_g2, ode_tol):
        """Criterion 6's gauge-conjugated seed-2 system, at the tolerances
        where float products of letters pushed its determinant residual
        past the 1e-10 gate; it holds only where words are formed in
        extended precision."""
        gauge = ExactMatrix.from_rows([[es(2), es(1)], [es(3), es(2)]])
        rep = monodromy(conjugate_system(small_system(genus2_curve, 2), gauge), loops_g2, ode_tol)
        assert rep.valid, (rep.relation_residual, max(rep.det_residuals))

    def test_growth_cap_names_member(self, genus2_curve, loops_g2):
        """Entries past 2**26 fail the accepted step at once, naming the member:
        here the edge from the base to letter 4's foot."""
        system = scale_system(sample_system(genus2_curve, SL2, seed=3, coefficient_bound=5), es(1000))
        with pytest.raises(IntegrationError, match=r"above 2\*\*26") as info:
            monodromy(system, loops_g2, 1e-12)
        assert info.value.member == (0, "letter 4", -1)
        assert 0 < info.value.t < 1

    @pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18, reason="longdouble is double here")
    def test_word_products_exact_to_extended_precision(self, genus2_curve, loops_g2):
        """Words of the float letter transports against their exact product."""

        def exact(z):
            return es(Fraction(*z.real.as_integer_ratio()), Fraction(*z.imag.as_integer_ratio()))

        def exact_matrix(m):
            return ExactMatrix.from_rows([[exact(z) for z in row] for row in m])

        for seed in (2, 3, 9):
            letter_t = _full_letters([float_system(small_system(genus2_curve, seed))], loops_g2)[0]
            for loop, w in zip(loops_g2.loops, _words(letter_t[None], loops_g2)[0]):
                ref = ExactMatrix.identity(2)
                for i, k in enumerate(loop.word):
                    ref = exact_matrix(letter_t[k - 1, i % 2]).matmul(ref)
                got = exact_matrix(w)
                parts = [(got.get(i, j), ref.get(i, j)) for i in (0, 1) for j in (0, 1)]
                dev = max(max(abs(a.re - b.re), abs(a.im - b.im)) for a, b in parts)
                size = max(max(abs(b.re), abs(b.im)) for _, b in parts)
                assert dev <= Fraction(1, 10**17) * size, (seed, loop.name, float(dev / size))


def _hand_built(mats, relation_residual=0.0):
    """A genus-2 representation of the given matrices, with its per-letter
    and step fields filled in as a sweep would."""
    return MonodromyRepresentation(
        tuple(np.array(m, dtype=complex) for m in mats), ("a1", "b1", "a2", "b2"),
        relation_residual, (0.0,) * 4, (1.0,) * 5, (0, 0),
    )


class TestTraceVector:
    def test_word_list_sizes(self):
        for g in (2, 3, 4):
            words = standard_word_list(g)
            assert len(words) == 6 * g - 3
            singles = [w for w in words if len(w) == 1]
            assert len(singles) == 2 * g
            assert ("a1", "b1", "a2") in words

    def test_identity_rep(self, loops_g2):
        (values,) = trace_values([_hand_built([np.eye(2)] * 4)])
        assert all(abs(v - 2) <= 1e-14 for v in values)

    def test_diagonal_rep(self):
        lam = 1.7 - 0.3j
        d = np.diag([lam, 1 / lam])
        (values,) = trace_values([_hand_built([d, np.eye(2), np.eye(2), np.eye(2)])])
        idx = standard_word_list(2).index(("a1",))
        assert abs(values[idx] - (lam + 1 / lam)) <= 1e-14

    def test_invalid_rep_rejected(self):
        bad = _hand_built([np.eye(2)] * 4, relation_residual=1e-3)
        assert not bad.valid
        with pytest.raises(InvalidRepresentationError):
            trace_values([bad])
        with pytest.raises(InvalidRepresentationError):
            irreducibility_probe(bad)

    def test_conjugated_rep_same_traces(self, genus2_curve, loops_g2, rep_g2):
        s = np.array([[1.2, 0.4j], [0.1, (1 + 0.04j) / 1.2]])
        s /= np.sqrt(np.linalg.det(s))
        conj_m = tuple(s @ m @ np.linalg.inv(s) for m in rep_g2.matrices)
        rep2 = dataclasses.replace(rep_g2, matrices=conj_m)
        t1, t2 = trace_values([rep_g2, rep2])
        assert np.max(np.abs(t1 - t2)) <= 1e-8


class TestIrreducibilityProbe:
    def test_upper_triangular_found(self):
        mats = [np.array([[2.0, 1.0], [0, 0.5]]) for _ in range(4)]
        v = irreducibility_probe(_hand_built(mats))
        assert not v.probably_irreducible
        w = np.array(v.witness)
        w = w / np.linalg.norm(w)
        assert abs(abs(w[0]) - 1) <= 1e-8 and abs(w[1]) <= 1e-8

    def test_identity_rep_found(self):
        v = irreducibility_probe(_hand_built([np.eye(2)] * 4))
        assert not v.probably_irreducible and v.witness is not None

    def test_generic_rep_irreducible(self, rep_g2):
        v = irreducibility_probe(rep_g2)
        assert v.probably_irreducible and v.witness is None

    def test_common_line_nontrivial_basis(self):
        s = np.array([[1.0, 2.0], [0.5, 2.0]])
        s /= np.sqrt(np.linalg.det(s))
        si = np.linalg.inv(s)
        mats = [s @ np.array([[1.5, v], [0, 1 / 1.5]]) @ si for v in (1.0, 2.0, -0.5, 0.3)]
        v = irreducibility_probe(_hand_built(mats))
        assert not v.probably_irreducible
        w = np.array(v.witness)
        target = s @ np.array([1.0, 0.0])
        cosang = abs(np.vdot(w, target)) / (np.linalg.norm(w) * np.linalg.norm(target))
        assert cosang >= 1 - 1e-8

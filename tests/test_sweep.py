import warnings
from dataclasses import replace

import numpy as np
import pytest

from cpasim.cpa import (
    BranchLocation,
    cpa_cavity_detuning,
    cpa_photon_number,
    verify_cpa,
)
from cpasim import sweep
from cpasim.errors import MalformedCurve
from cpasim.model import Stability, SystemParams
from cpasim.steady import jacobian, solve_steady_states
from cpasim.sweep import (
    PatternClass,
    _at_input,
    boundary_map,
    follow_sweep,
    scan_folds,
    trace_hysteresis,
)


def root_count(p, intensity):
    return len(solve_steady_states(_at_input(p, intensity)))


def quiet_trace(p, grid):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return trace_hysteresis(p, grid)


@pytest.fixture(scope="module")
def conventional_curve(fig3_params):
    # grid holds the operating point 22.5 exactly and spans both folds
    p = fig3_params[("fig3c", 4.5)]
    return p, quiet_trace(p, np.linspace(0.0, 37.5, 251))


@pytest.fixture(scope="module")
def anchored_curve(fig3_params):
    p = fig3_params[("fig3a", 4.5)]
    return p, quiet_trace(p, np.linspace(0.0, 25.0, 151))


class TestTraceBasics:
    def test_linear_cavity_is_monostable(self):
        p = SystemParams(kappa_l=10.0, kappa_r=10.0, delta_c=2.0)
        curve = quiet_trace(p, np.linspace(0.0, 10.0, 41))
        assert curve.pattern is PatternClass.MONOSTABLE
        assert curve.folds == []
        assert {q.branch_id for q in curve.points} == {0}
        outs = [q.output_intensity for q in curve.points]
        assert all(b >= a - 1e-12 for a, b in zip(outs, outs[1:]))

    def test_empty_grid_gives_empty_curve(self):
        p = SystemParams(kappa_l=10.0, kappa_r=10.0)
        curve = trace_hysteresis(p, [])
        assert curve.points == [] and curve.folds == []
        assert curve.pattern is PatternClass.MONOSTABLE
        assert curve.cpa_markers == []

    def test_grid_validation(self):
        p = SystemParams(kappa_l=10.0, kappa_r=10.0)
        with pytest.raises(ValueError):
            trace_hysteresis(p, [1.0, 0.5])
        with pytest.raises(ValueError):
            trace_hysteresis(p, [-1.0, 0.5])

    def test_conventional_window_and_pattern(self, conventional_curve):
        _, curve = conventional_curve
        assert curve.pattern is PatternClass.CONVENTIONAL_BISTABLE
        assert len(curve.folds) == 2
        lo, hi = curve.window()
        assert lo == pytest.approx(13.50698046, abs=1e-6)
        assert hi == pytest.approx(29.80364574, abs=1e-6)

    def test_anchored_window_is_unconventional(self, anchored_curve):
        _, curve = anchored_curve
        assert curve.pattern is PatternClass.UNCONVENTIONAL_BISTABLE
        assert len(curve.folds) == 2
        lo, hi = curve.window()
        assert lo <= 1e-6
        assert hi == pytest.approx(0.1915323934, abs=1e-6)

    def test_three_roots_inside_window_stability_order(self, conventional_curve):
        _, curve = conventional_curve
        mid = [q for q in curve.points if q.input_intensity == 22.5]
        mid.sort(key=lambda q: q.n_c)
        assert [q.stability for q in mid] == [
            Stability.STABLE, Stability.UNSTABLE, Stability.STABLE]


class TestCPAMarkers:
    def test_marker_on_stable_branch_inside_window(self, conventional_curve):
        p, curve = conventional_curve
        assert len(curve.cpa_markers) == 1
        m = curve.cpa_markers[0]
        assert m.branch is BranchLocation.INSIDE_BISTABLE_STABLE
        assert m.observable
        assert m.input_intensity == pytest.approx(22.5, rel=1e-12)
        assert m.output_intensity < 1e-12 * m.input_intensity

    def test_marker_agrees_with_direct_verification(self, conventional_curve):
        # curve marker and the standalone checker must land on the same point
        p, curve = conventional_curve
        m = curve.cpa_markers[0]
        report = verify_cpa(p)
        assert abs(m.input_intensity - report.input_intensity) \
            <= 1e-10 * max(1.0, report.input_intensity)
        assert abs(m.output_intensity - report.residual_out) \
            <= 1e-10 * max(1.0, report.input_intensity)

    def test_marker_outside_window(self, anchored_curve):
        _, curve = anchored_curve
        assert len(curve.cpa_markers) == 1
        m = curve.cpa_markers[0]
        assert m.branch is BranchLocation.OUTSIDE_BISTABLE_STABLE
        assert m.observable

    def test_marker_on_unstable_branch_not_observable(self, fig3_params):
        p = fig3_params[("fig3b", 4.5)]
        curve = quiet_trace(p, np.linspace(0.0, 37.5, 151))
        assert len(curve.cpa_markers) == 1
        m = curve.cpa_markers[0]
        assert m.branch is BranchLocation.INSIDE_BISTABLE_UNSTABLE
        assert not m.observable

    def test_no_marker_when_detuning_not_matched(self, fig3_params):
        p = replace(fig3_params[("fig3c", 4.5)], delta_c=0.5)
        curve = quiet_trace(p, np.linspace(0.0, 37.5, 301))
        assert curve.cpa_markers == []

    def test_no_marker_for_asymmetric_mirrors(self, fig3_params):
        # the absorption drive needs symmetric mirrors; a matched delta_c
        # must not turn that into an error for the whole curve
        p = replace(fig3_params[("fig3c", 4.5)], kappa_l=9.0, kappa_r=11.0)
        p = replace(p, delta_c=cpa_cavity_detuning(p))
        curve = quiet_trace(p, np.linspace(0.0, 37.5, 101))
        assert curve.cpa_markers == []
        assert curve.pattern is PatternClass.CONVENTIONAL_BISTABLE


class TestFolds:
    def test_scan_matches_trace(self, fig3_params, conventional_curve):
        p, curve = conventional_curve
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            scanned = scan_folds(p, 37.5)
        assert len(scanned) == len(curve.folds) == 2
        for (xs, _), (xt, _) in zip(scanned, curve.folds):
            assert xs == pytest.approx(xt, abs=1e-7)

    def test_grid_refinement_stability(self, fig3_params, conventional_curve):
        p, coarse = conventional_curve
        fine = quiet_trace(p, np.linspace(0.0, 37.5, 501))
        assert len(fine.folds) == len(coarse.folds)
        for (xa, _), (xb, _) in zip(coarse.folds, fine.folds):
            assert xa == pytest.approx(xb, abs=1e-6)

    def test_merging_pair_and_marginal_eigenvalue(self, fig3_params):
        # near a true fold the closest pair and the leading eigenvalue both
        # shrink like sqrt(distance); at the reported 1e-8 fold that puts the
        # gap at ~1e-4 scale and the eigenvalue under ~1e-5
        p = fig3_params[("fig3c", 4.5)]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            folds = scan_folds(p, 37.5)
        assert len(folds) == 2
        for x, n_fold in folds:
            side = x - 1e-8 if root_count(p, x - 1e-8) == 3 else x + 1e-8
            states = solve_steady_states(_at_input(p, side))
            ns = [s.n_c for s in states]
            assert len(ns) == 3
            gaps = np.diff(ns)
            i = int(np.argmin(gaps))
            assert gaps[i] <= 5e-3 * max(1.0, n_fold)
            assert 0.5 * (ns[i] + ns[i + 1]) == pytest.approx(
                n_fold, abs=5e-3 * max(1.0, n_fold))
            for s in (states[i], states[i + 1]):
                assert abs(max(np.linalg.eigvals(
                    jacobian(s, p)).real)) < 2e-5

    def test_pair_gap_shrinks_toward_the_fold(self, fig3_params):
        p = fig3_params[("fig3c", 4.5)]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            folds = scan_folds(p, 37.5)
        x, _ = folds[1]

        def gap_at(side):
            ns = [s.n_c for s in solve_steady_states(_at_input(p, side))]
            return float(np.min(np.diff(ns)))

        assert gap_at(x - 1e-8) < 0.05 * gap_at(x - 1e-4)

    def test_refined_fold_reaches_marginal_limit(self, fig3_params):
        # bisecting one fold 1000x tighter drives the eigenvalue through the
        # 1e-6 marginal band, confirming the fold is a genuine turning point
        p = fig3_params[("fig3c", 4.5)]
        lo, hi = 29.8036456, 29.8036459
        assert root_count(p, lo) == 3 and root_count(p, hi) == 1
        while hi - lo > 1e-11:
            mid = 0.5 * (lo + hi)
            if root_count(p, mid) == 3:
                lo = mid
            else:
                hi = mid
        states = solve_steady_states(_at_input(p, lo))
        ns = [s.n_c for s in states]
        gaps = np.diff(ns)
        i = int(np.argmin(gaps))
        assert gaps[i] < 1e-5
        for s in (states[i], states[i + 1]):
            assert abs(max(np.linalg.eigvals(jacobian(s, p)).real)) < 1e-6


def reproduce_span(p):
    # the grid span of `cpasim reproduce fig3*`
    intensity_cpa = 0.5 * p.kappa * cpa_photon_number(p)
    folds = scan_folds(p, 2.5 * intensity_cpa)
    return max(1.3 * intensity_cpa, 1.15 * max(x for x, _ in folds))


class TestCoarseGrids:
    @pytest.mark.parametrize("key", [("fig3a", 4.5), ("fig3c", 1.5)])
    @pytest.mark.parametrize("nodes", [11, 41, 101])
    def test_coarse_grid_gives_the_fine_curve(self, fig3_params, key, nodes):
        p = fig3_params[key]
        span = reproduce_span(p)
        fine = quiet_trace(p, np.linspace(0.0, span, 301))
        coarse = quiet_trace(p, np.linspace(0.0, span, nodes))
        assert coarse.pattern is fine.pattern
        assert coarse.folds == scan_folds(p, span)
        # the middle branch shows only where a node falls inside the window;
        # fig3a/4.5's window (0, 0.19) holds no node of these grids
        lo, hi = coarse.window()
        inside = any(lo < q.input_intensity < hi for q in coarse.points)
        assert {q.branch_id for q in coarse.points} == (
            {0, 1, 2} if inside else {0, 2})
        assert {q.branch_id for q in fine.points} == {0, 1, 2}


    @pytest.mark.parametrize("key", [("fig3b", 1.5), ("fig3c", 4.5)])
    def test_nodes_on_the_folds(self, fig3_params, key):
        # at a fold's own input the merging pair is a near-double root that
        # the solver can place on one side of the fold's edge
        p = fig3_params[key]
        span = reproduce_span(p)
        folds = [x for x, _ in scan_folds(p, span)]
        curve = quiet_trace(p, np.union1d(np.linspace(0.0, span, 11), folds))
        for x in folds:
            ids = [q.branch_id for q in curve.points if q.input_intensity == x]
            assert ids == sorted(set(ids)) and set(ids) <= {0, 1, 2}


class TestFollowSweep:
    def test_direction_memory_inside_window(self, conventional_curve):
        _, curve = conventional_curve
        up = follow_sweep(curve, "up")
        down = follow_sweep(curve, "down")
        lo, hi = curve.window()
        by_input_up = {q.input_intensity: q.n_c for q in up}
        by_input_down = {q.input_intensity: q.n_c for q in down}
        inside = [x for x in by_input_up
                  if lo + 0.5 < x < hi - 0.5]
        assert inside
        for x in inside:
            assert by_input_down[x] > by_input_up[x] + 1.0

    def test_sweeps_agree_outside_window(self, conventional_curve):
        _, curve = conventional_curve
        up = {q.input_intensity: q.n_c for q in follow_sweep(curve, "up")}
        down = {q.input_intensity: q.n_c for q in follow_sweep(curve, "down")}
        lo, hi = curve.window()
        for x in up:
            if x < lo - 0.5 or x > hi + 0.5:
                assert down[x] == pytest.approx(up[x], rel=1e-9, abs=1e-12)

    def test_selected_points_are_stable(self, conventional_curve):
        _, curve = conventional_curve
        for q in follow_sweep(curve, "up"):
            assert q.stability is Stability.STABLE

    def test_bad_direction_rejected(self, conventional_curve):
        _, curve = conventional_curve
        with pytest.raises(ValueError):
            follow_sweep(curve, "sideways")


class TestClassify:
    def test_two_roots_on_one_segment_raise(self, monkeypatch):
        # a monostable curve is one monotone segment; a solver that reports
        # each root twice puts two roots on it at every node
        p = SystemParams(kappa_l=10.0, kappa_r=10.0, delta_c=2.0)
        real = sweep.solve_steady_states
        monkeypatch.setattr(sweep, "solve_steady_states", lambda q: real(q) * 2)
        with pytest.raises(MalformedCurve):
            trace_hysteresis(p, np.linspace(0.0, 10.0, 5))

    def test_conventional_needs_upper_branch_above_lower(self, fig3_params):
        # same fold structure, but the anchored-window case inverts the
        # outputs, which classify_pattern must catch via its interior scan
        p = fig3_params[("fig3c", 1.5)]
        curve = quiet_trace(p, np.linspace(100.0, 140.0, 81))
        assert curve.pattern is PatternClass.CONVENTIONAL_BISTABLE


class TestBoundaryMap:
    def test_curves_match_pointwise_formulas(self):
        from cpasim.cpa import critical_coupling, critical_detuning
        betas = np.linspace(0.005, 0.1, 20)
        bm = boundary_map(1.0, 1.0, 4.5, betas)
        for i, b in enumerate(betas):
            assert bm.g_c_curve[i] == pytest.approx(
                critical_coupling(b, 4.5, 1.0), rel=1e-12)
            assert bm.delta_c_curve[i] == pytest.approx(
                critical_detuning(1.0, b, 1.0), rel=1e-12)

    def test_mask_flips_at_the_critical_decay(self):
        # for g = gamma = 1, delta_tls = 20: flip at 2/(1 + 4*400)
        betas = np.linspace(1e-3, 0.1, 200)
        bm = boundary_map(1.0, 1.0, 20.0, betas)
        flip = 2.0 / 1601.0
        for i, b in enumerate(betas):
            assert bm.region_mask[i] == (b < flip)

    def test_infeasible_nodes_report_zero_detuning(self):
        betas = np.array([1.9, 2.0, 2.1])
        bm = boundary_map(1.0, 1.0, 0.0, betas)
        # g_c(beta, 0) = sqrt(beta/2) crosses g = 1 at beta = 2
        assert bm.delta_c_curve[2] == 0.0
        assert not bm.region_mask[2]
        assert bm.region_mask[0]

    def test_empty_and_invalid_grids(self):
        bm = boundary_map(1.0, 1.0, 1.0, [])
        assert bm.axis.size == 0 and bm.region_mask.size == 0
        with pytest.raises(ValueError):
            boundary_map(1.0, 1.0, 1.0, [0.1, 0.05])
        with pytest.raises(ValueError):
            boundary_map(1.0, 1.0, 1.0, [-0.1, 0.05])

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from cpasim.cpa import (
    BranchLocation,
    cpa_cavity_detuning,
    cpa_photon_number,
    critical_coupling,
    critical_detuning,
    verify_cpa,
)
from cpasim import sweep
from cpasim.cli import fig3_preset
from cpasim.errors import AsymmetricMirrors, MalformedCurve, NonPositiveBeta
from cpasim.model import Stability, SystemParams
from cpasim.steady import SteadyColumns, build_polynomial, jacobian, solve_steady_states
from cpasim.sweep import (
    CPAMarker,
    HysteresisCurve,
    PatternClass,
    boundary_map,
    classify_pattern,
    follow_sweep,
    scan_folds,
    trace_hysteresis,
)
from test_curve_geometry import at_input, curve_params


def expected_markers(p, grid):
    """The marker verify_cpa's report gives on a curve over ``grid``."""
    try:
        report = quiet_verify(p)
    except (NonPositiveBeta, AsymmetricMirrors):
        return []
    if report.branch_location is None or not (
            grid[0] <= report.input_intensity <= grid[-1]):
        return []
    return [CPAMarker(input_intensity=report.input_intensity,
                      output_intensity=report.residual_out,
                      branch=report.branch_location,
                      observable=report.stability is Stability.STABLE)]


def root_count(p, intensity):
    return len(solve_steady_states(at_input(p, intensity)))


def quiet_trace(p, grid):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return trace_hysteresis(p, grid)


def quiet_verify(p):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return verify_cpa(p)


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

    def test_marker_agrees_with_direct_verification(self, fig3_params):
        # the curve's marker is verify_cpa's placement, bit for bit, on
        # every fig3 preset
        for p in fig3_params.values():
            grid = np.linspace(0.0, reproduce_span(p), 301)
            curve = quiet_trace(p, grid)
            assert curve.cpa_markers == expected_markers(p, grid)
            assert len(curve.cpa_markers) == 1

    @settings(max_examples=60, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(curve_params(), st.floats(0.0, 0.45), st.floats(0.5, 2.0))
    @example(fig3_preset("fig3a", 1.5), 0.0, 1.5)  # outside the window
    @example(fig3_preset("fig3b", 4.5), 0.4, 1.5)  # unstable branch
    @example(fig3_preset("fig3c", 4.5), 0.0, 1.0)  # the grid's last node
    @example(fig3_preset("fig3c", 1.5), 0.0, 0.6)  # past the grid
    # symmetric mirrors required: verify_cpa raises AsymmetricMirrors
    @example(SystemParams(kappa_l=0.5, kappa_r=1.0, g=2.0), 0.0, 1.5)
    # beta = kappa/2 + 2|G| cos(phi) < 0: verify_cpa raises NonPositiveBeta
    @example(SystemParams(kappa_l=1.0, kappa_r=1.0, g=2.0, delta_c=-0.4,
                          delta_tls=1.0, g_nl_mag=0.6, phi=math.pi), 0.0, 1.5)
    # beta = 0 exactly
    @example(SystemParams(kappa_l=1.0, kappa_r=1.0, g=2.0, g_nl_mag=0.5,
                          phi=math.pi), 0.0, 1.5)
    def test_marker_is_verify_cpas_placement(self, p, lo, hi):
        # one marker exactly when verify_cpa places the point inside the
        # grid's range, equal to its report; none when it raises
        try:
            intensity = quiet_verify(p).input_intensity
        except (NonPositiveBeta, AsymmetricMirrors):
            intensity = 0.0
        scale = intensity if intensity > 0.0 else 1.0
        grid = np.linspace(lo * scale, hi * scale, 9)
        assert quiet_trace(p, grid).cpa_markers == expected_markers(p, grid)

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
    def test_a_nan_span_is_a_value_error(self, fig3_params):
        # NaN used to give no folds, as no input is <= NaN; inf gives all
        p = fig3_params[("fig3c", 4.5)]
        with pytest.raises(ValueError, match="span"):
            scan_folds(p, math.nan)
        assert scan_folds(p, math.inf) == build_polynomial(p).folds
        assert len(scan_folds(p, math.inf)) == 2

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
            states = solve_steady_states(at_input(p, side))
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
            ns = [s.n_c for s in solve_steady_states(at_input(p, side))]
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
        states = solve_steady_states(at_input(p, lo))
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
        real = sweep.solve_curve_columns

        def twice(*args):
            return SteadyColumns(*(np.repeat(column, 2)
                                   for column in real(*args)))

        monkeypatch.setattr(sweep, "solve_curve_columns", twice)
        with pytest.raises(MalformedCurve):
            trace_hysteresis(p, np.linspace(0.0, 10.0, 5))

    def test_output_inversion_inside_the_window_is_unconventional(self):
        # folds at positive input; at the interior node 2.0 the largest-n_c
        # root's output is below the smallest one's.  The rows come
        # unsorted: each node's rows are compared in photon-number order.
        # The interior node 2.5 has one root, which compares with nothing
        def curve(top_output):
            return HysteresisCurve(
                input_intensity=[2.0, 0.5, 2.0, 2.5, 2.0, 4.0],
                n_c=[9.0, 1.0, 1.0, 3.0, 4.0, 9.0],
                output_intensity=[top_output, 0.2, 0.5, 0.9, 0.3, 1.0],
                stability=[Stability.STABLE] * 6, branch_id=[0] * 6,
                folds=[(1.0, 5.0), (3.0, 2.0)], pattern=PatternClass.MONOSTABLE,
                cpa_markers=[])

        assert classify_pattern(curve(0.1)) is PatternClass.UNCONVENTIONAL_BISTABLE
        assert classify_pattern(curve(0.6)) is PatternClass.CONVENTIONAL_BISTABLE

    def test_conventional_needs_upper_branch_above_lower(self, fig3_params):
        # same fold structure, but the anchored-window case inverts the
        # outputs, which classify_pattern must catch via its interior scan
        p = fig3_params[("fig3c", 1.5)]
        curve = quiet_trace(p, np.linspace(100.0, 140.0, 81))
        assert curve.pattern is PatternClass.CONVENTIONAL_BISTABLE


class TestBoundaryMap:
    def test_curves_match_pointwise_formulas(self):
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

    @pytest.mark.parametrize("betas", [[math.nan], [0.01, math.inf],
                                       [0.01, math.nan, 0.02]])
    def test_a_non_finite_beta_is_a_value_error(self, betas):
        # NaN curves, or g_c = inf, came back before
        with pytest.raises(ValueError, match="^beta_grid entry must be a finite real number"):
            boundary_map(1.0, 1.0, 20.0, betas)

    @pytest.mark.parametrize("call, args, named", [
        # NaN curves and an all-False mask came back before
        (boundary_map, (math.nan, 1.0, 20.0, [0.01, 0.02]), "gamma"),
        (boundary_map, (math.inf, 1.0, 20.0, [0.01, 0.02]), "gamma"),
        (boundary_map, (1.0, math.nan, 20.0, [0.01, 0.02]), "g_fixed"),  # NaN detunings
        (boundary_map, (1.0, 1.0, math.inf, [0.01, 0.02]), "delta_tls_fixed"),  # g_c = inf
        (critical_coupling, (0.02, 0.0, math.nan), "gamma"),  # nan before
        (critical_detuning, (1.0, 0.02, math.nan), "gamma"),
        (critical_coupling, (0.02, 4.5, math.inf), "gamma"),  # inf before
        (critical_detuning, (1.0, 0.02, math.inf), "gamma"),  # nan before
    ])
    def test_a_non_finite_argument_is_a_value_error_naming_it(self, call, args, named):
        with pytest.raises(ValueError, match=f"^{named} must be"):
            call(*args)



# At the required cavity detuning with g^2 delta_tls = 0, Q and R share the
# factor A + 2 Re(G) D, so its positive zero is no singular state.  The
# polynomial divides its square out: the curve geometry reports no window
# edge there, and the solver no spurious state beside it.
def at_required_detuning(**params):
    p = SystemParams(**params)
    return replace(p, delta_c=cpa_cavity_detuning(p))


@pytest.mark.parametrize("p, top, shared_zero", [
    # the solver used to report a spurious Stable n_c = 3.32993 at input 0.75
    (at_required_detuning(kappa_l=0.3046875, kappa_r=0.3046875, g=1.0,
                          g_nl_mag=0.1904296875, phi=3.0), 1.0, 3.3299272637365687),
    (at_required_detuning(kappa_l=1.0, kappa_r=1.0, g=2.0, g_nl_mag=0.6,
                          phi=math.pi), 1.5, 1.21875),
])
def test_a_shared_q_r_factor_is_no_window_edge(p, top, shared_zero):
    grid = np.linspace(0.0, top, 9)
    curve = quiet_trace(p, grid)
    assert all(abs(n - shared_zero) > 1e-6 for _, n in curve.folds)
    assert all(abs(n - shared_zero) > 1e-3 for n in curve.n_c.tolist())
    for x in grid[1:]:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            states = solve_steady_states(at_input(p, x))
        assert all(abs(s.n_c - shared_zero) > 1e-3 for s in states)

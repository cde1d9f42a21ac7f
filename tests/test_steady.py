import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from cpasim.errors import ParametricRegimeWarning
from cpasim.model import Stability, SystemParams
from cpasim.steady import (
    EPS_RES,
    bare_threshold_margin,
    build_polynomial,
    classify_stability,
    jacobian,
    oracle_scan_bound,
    self_consistency_residual,
    solve_steady_states,
)

from oracles import (
    balance_mismatch,
    count_sign_changes,
    field_gain_pieces,
    numerical_jacobian,
)
from test_model import random_params


class TestPolynomialAssembly:
    def test_degree_by_regime(self):
        base = dict(kappa_l=10.0, kappa_r=10.0, omega_d=3.0)
        assert build_polynomial(SystemParams(g=0.0, **base)).degree == 1
        assert build_polynomial(SystemParams(g=1.0, delta_tls=1.0, **base)).degree == 3
        assert build_polynomial(
            SystemParams(g=1.0, g_nl_mag=2.0, phi=1.0, **base)).degree == 5

    def test_constant_term_nonpositive_when_driven(self, rng):
        for _ in range(30):
            p = random_params(rng)
            assert build_polynomial(p).coeffs[0] <= 0.0

    def test_matches_closed_form_balance(self, rng):
        # P(n) must equal -h(n) (t D^2)^2, with h and t computed through plain
        # complex arithmetic, never the coefficient assembly under test.
        for _ in range(40):
            p = random_params(rng)
            poly = build_polynomial(p)
            for n in rng.uniform(0.0, 20.0, size=5):
                D = p.gamma ** 2 / 4.0 + p.delta_tls ** 2 + 2.0 * p.g ** 2 * n
                _, _, t, _ = field_gain_pieces(n, p)
                h = balance_mismatch(n, p)
                expect = -h * (t * D * D) ** 2
                assert float(poly(n)) == pytest.approx(
                    expect, rel=1e-9, abs=1e-9 * max(1.0, abs(expect)))

    def test_no_crystal_variant_matches_balance(self, rng):
        # with the pump off the positive factor is divided out once
        for _ in range(20):
            p = random_params(rng)
            p = SystemParams(kappa_l=p.kappa_l, kappa_r=p.kappa_r, g=p.g,
                             delta_c=p.delta_c, delta_tls=p.delta_tls,
                             omega_d=p.omega_d)
            poly = build_polynomial(p)
            for n in rng.uniform(0.0, 20.0, size=3):
                D = p.gamma ** 2 / 4.0 + p.delta_tls ** 2 + 2.0 * p.g ** 2 * n
                _, _, t, _ = field_gain_pieces(n, p)
                h = balance_mismatch(n, p)
                expect = -h * t * D * D
                assert float(poly(n)) == pytest.approx(
                    expect, rel=1e-9, abs=1e-9 * max(1.0, abs(expect)))

    def test_residual_function_equals_polynomial(self, rng):
        p = random_params(rng)
        poly = build_polynomial(p)
        for n in rng.uniform(0.0, 10.0, size=10):
            assert self_consistency_residual(n, p) == float(poly(n))


class TestThresholdMargin:
    def test_formula(self):
        p = SystemParams(kappa_l=1.0, kappa_r=1.0, delta_c=3.0, g_nl_mag=1.5,
                         phi=0.3)
        assert bare_threshold_margin(p) == pytest.approx(1.0 + 9.0 - 9.0)

    def test_above_threshold_warns_but_solves(self):
        p = SystemParams(kappa_l=1.0, kappa_r=1.0, g=0.5, g_nl_mag=1.2,
                         phi=2.0, omega_d=1.0)
        assert bare_threshold_margin(p) < 0.0
        with pytest.warns(ParametricRegimeWarning):
            states = solve_steady_states(p)
        for s in states:
            scale = max(1.0, s.n_c ** 5)
            assert abs(s.residual) <= 1e-6 * scale

    def test_at_threshold_keeps_the_physical_roots(self):
        # Q's n^2 coefficient, 4 g^4 times the margin, is zero here; the
        # rounding its float sum left gave P a leading coefficient near
        # 1e-28, a root near 1e30, and lost the two roots the oracle sees
        p = SystemParams(kappa_l=1.6968462675217262, kappa_r=1.6968462675217262,
                         g=1.625, g_nl_mag=0.8484231337608631)
        p = replace(p, omega_d=math.sqrt(2.0 * p.kappa * 0.0486))
        assert bare_threshold_margin(p) == 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            states = solve_steady_states(p)
        assert len(states) == count_sign_changes(p, 100.0) == 2
        assert build_polynomial(p).degree == 4


class TestSolver:
    def test_empty_cavity_linear_root(self):
        # no atom, no crystal: n = omega_d^2 / ((kappa/2)^2 + delta_c^2)
        p = SystemParams(kappa_l=10.0, kappa_r=10.0, delta_c=5.0, omega_d=20.0)
        states = solve_steady_states(p)
        assert len(states) == 1
        assert states[0].n_c == pytest.approx(400.0 / 125.0, rel=1e-12)
        assert states[0].stability is Stability.STABLE

    def test_undriven_reports_only_vacuum(self):
        p = SystemParams(kappa_l=10.0, kappa_r=10.0, g=1.0, delta_tls=2.0)
        states = solve_steady_states(p)
        assert len(states) == 1
        s = states[0]
        assert s.n_c == 0.0 and s.c_bar == 0.0 and s.sigma_z_bar == -0.5

    def test_undriven_with_singular_states_warns(self, fig3_params):
        from dataclasses import replace
        p = replace(fig3_params[("fig3a", 4.5)], omega_d=0.0)
        with pytest.warns(RuntimeWarning, match="only the vacuum"):
            states = solve_steady_states(p)
        assert len(states) == 1 and states[0].n_c == 0.0

    def test_root_count_matches_dense_scan(self, rng):
        # solver count vs the closed-form sign-change count on a dense grid
        checked = 0
        while checked < 25:
            p = random_params(rng)
            if bare_threshold_margin(p) <= 0.0:
                continue
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                states = solve_steady_states(p)
            assert len(states) == count_sign_changes(p, oracle_scan_bound(p))
            checked += 1

    def test_roots_zero_the_closed_form_balance(self, rng):
        checked = 0
        while checked < 25:
            p = random_params(rng)
            if bare_threshold_margin(p) <= 0.0:
                continue
            for s in solve_steady_states(p):
                h = float(balance_mismatch(s.n_c, p))
                assert abs(h) < 1e-6 * max(1.0, s.n_c)
                checked += 1

    def test_odd_root_count_when_leading_coeff_positive(self, rng):
        for _ in range(100):
            p = random_params(rng)
            poly = build_polynomial(p)
            if poly.coeffs[-1] <= 0.0:
                continue
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                states = solve_steady_states(p)
            assert len(states) % 2 == 1

    def test_residual_within_documented_bound(self, rng):
        for _ in range(30):
            p = random_params(rng)
            poly = build_polynomial(p)
            abs_coeffs = np.abs(poly.coeffs)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                states = solve_steady_states(p)
            for s in states:
                scale = max(1.0, float(np.polynomial.polynomial.polyval(
                    s.n_c, abs_coeffs)))
                assert abs(s.residual) <= EPS_RES * scale

    def test_known_bistable_window_has_three_states(self, fig3_params):
        from dataclasses import replace
        from cpasim.model import drive_for_input_intensity
        p = fig3_params[("fig3c", 4.5)]
        p = replace(p, omega_d=drive_for_input_intensity(22.5, p))
        states = solve_steady_states(p)
        assert [str(s.stability) for s in states] == \
            ["Stable", "Unstable", "Stable"]
        assert states[0].n_c == pytest.approx(2.25, abs=1e-9)


class TestStability:
    def test_diagonal_matrices_classify(self):
        stable = np.diag([-1.0, -2.0, -0.5, -1.0, -3.0])
        unstable = np.diag([-1.0, 0.5, -0.5, -1.0, -3.0])
        marginal = np.diag([-1.0, 1e-12, -0.5, -1.0, -3.0])
        assert classify_stability(stable).stability is Stability.STABLE
        assert classify_stability(unstable).stability is Stability.UNSTABLE
        assert classify_stability(marginal).stability is Stability.MARGINAL

    def test_margin_is_max_real_part(self):
        j = np.diag([-1.0, -2.0, -0.25, -1.0, -3.0])
        assert classify_stability(j).margin == pytest.approx(-0.25)

    def test_jacobian_matches_finite_differences(self, rng):
        checked = 0
        while checked < 20:
            p = random_params(rng)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                states = solve_steady_states(p)
            for s in states:
                state = np.array([s.c_bar.real, s.c_bar.imag,
                                  s.sigma_minus_bar.real,
                                  s.sigma_minus_bar.imag, s.sigma_z_bar])
                assert np.allclose(jacobian(s, p),
                                   numerical_jacobian(state, p), atol=1e-6)
                checked += 1

    def test_fixed_points_of_rhs_are_stationary(self, rng):
        from cpasim.dynamics import mean_field_rhs
        checked = 0
        while checked < 20:
            p = random_params(rng)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                states = solve_steady_states(p)
            for s in states:
                state = np.array([s.c_bar.real, s.c_bar.imag,
                                  s.sigma_minus_bar.real,
                                  s.sigma_minus_bar.imag, s.sigma_z_bar])
                rhs = mean_field_rhs(state, 0.0, p)
                assert np.max(np.abs(rhs)) < 1e-7 * max(1.0, s.n_c)
                checked += 1

import os
import subprocess
import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest

import cpasim
from cpasim import dynamics
from cpasim.dynamics import (
    TimeTrace,
    integrate,
    mean_field_rhs,
    settle,
    vacuum_state,
)
from cpasim.errors import StepFailure
from cpasim.model import (
    Stability,
    SystemParams,
    balanced_input_fields,
    drive_for_input_intensity,
    output_fields,
)
from cpasim.steady import solve_steady_states

from oracles import bloch_norm, reference_trajectory
from test_acceptance import SEED, quiet_solve, random_driven
from test_model import random_params

PANEL_TOL = dict(rtol=1e-8, atol=1e-10)  # criterion 8's fig4 panels
RELAX_TOL = dict(rtol=1e-9, atol=1e-12)  # criterion 8's relaxations
# far above the parametric threshold: the field diverges
DIVERGENT = SystemParams(kappa_l=0.05, kappa_r=0.05, g=0.0, g_nl_mag=50.0,
                         phi=0.0, omega_d=1.0)
MONOSTABLE = SystemParams(kappa_l=10.0, kappa_r=10.0, g=1.0, delta_c=1.0,
                          delta_tls=2.0, omega_d=8.0)


def state_vector(s):
    return np.array([s.c_bar.real, s.c_bar.imag, s.sigma_minus_bar.real,
                     s.sigma_minus_bar.imag, s.sigma_z_bar])


class TestRHS:
    def test_vacuum_is_stationary_without_drive(self):
        p = SystemParams(kappa_l=10.0, kappa_r=10.0, g=1.0, delta_tls=2.0)
        assert np.all(mean_field_rhs(vacuum_state(), 0.0, p) == 0.0)

    def test_drive_pushes_the_field_only(self):
        p = SystemParams(kappa_l=10.0, kappa_r=10.0, g=1.0, omega_d=3.0)
        rhs = mean_field_rhs(vacuum_state(), 0.0, p)
        assert rhs[0] == pytest.approx(3.0)
        assert np.all(rhs[1:] == 0.0)

    def test_pump_mismatch_rotates_crystal_phase(self):
        p = SystemParams(kappa_l=10.0, kappa_r=10.0, g=1.0, g_nl_mag=2.0,
                         phi=0.0, omega_d=1.0)
        state = np.array([1.0, 0.5, 0.0, 0.0, -0.5])
        # a quarter pump period later the parametric term has rotated by pi/2
        later = mean_field_rhs(state, np.pi / 2.0, p, delta=1.0)
        rotated = mean_field_rhs(state, 0.0, replace(p, phi=-np.pi / 2.0))
        assert np.allclose(later, rotated, atol=1e-12)

    def test_decay_rates_enter_as_halves(self):
        p = SystemParams(kappa_l=3.0, kappa_r=5.0, g=0.0)
        state = np.array([2.0, 0.0, 0.0, 0.0, -0.5])
        rhs = mean_field_rhs(state, 0.0, p)
        assert rhs[0] == pytest.approx(-0.5 * 8.0 * 2.0)


class TestIntegrate:
    def test_relaxes_to_the_stable_root(self):
        p = MONOSTABLE
        states = solve_steady_states(p)
        assert len(states) == 1 and states[0].stability is Stability.STABLE
        final = settle(p, vacuum_state(), 60.0)
        assert np.allclose(final, state_vector(states[0]), atol=1e-8)

    def test_departs_from_an_unstable_root(self, fig3_params):
        from cpasim.errors import ParametricRegimeWarning
        p = replace(fig3_params[("fig3b", 4.5)],
                    omega_d=drive_for_input_intensity(22.5,
                                                      fig3_params[("fig3b", 4.5)]))
        # this configuration sits above the bare parametric threshold
        with pytest.warns(ParametricRegimeWarning):
            states = solve_steady_states(p)
        unstable = [s for s in states if s.stability is Stability.UNSTABLE]
        assert unstable
        # growth rate is only ~0.07, so kick along the unstable eigenvector
        # and give it time to amplify
        from cpasim.steady import jacobian
        vals, vecs = np.linalg.eig(jacobian(unstable[0], p))
        direction = np.real(vecs[:, np.argmax(vals.real)])
        direction /= np.linalg.norm(direction)
        x0 = state_vector(unstable[0]) + 1e-4 * direction
        final = settle(p, x0, 90.0)
        assert np.linalg.norm(final - state_vector(unstable[0])) > 1e-2

    def test_sampling_grid_and_first_sample(self):
        p = SystemParams(kappa_l=10.0, kappa_r=10.0, g=1.0, omega_d=2.0)
        trace = integrate(p, 0.0, vacuum_state(), 1.0, 0.25)
        assert trace.t[0] == 0.0 and trace.t[-1] == 1.0
        assert np.allclose(np.diff(trace.t)[:-1], 0.25)
        assert np.all(trace.state[0] == vacuum_state())
        assert trace.n_c[0] == 0.0

    def test_output_intensity_reflects_input_at_vacuum(self, fig4_params):
        trace = integrate(fig4_params, 1.0, vacuum_state(), 0.5, 0.25)
        assert trace.out_intensity[0] == pytest.approx(22.5, rel=1e-12)

    def test_bloch_bound_preserved_along_trajectories(self, rng):
        for _ in range(10):
            p = random_params(rng)
            trace = integrate(p, 0.0, vacuum_state(), 20.0, 0.5)
            for row in trace.state:
                assert bloch_norm(row) <= 0.25 + 1e-7

    def test_invalid_arguments_rejected(self):
        p = SystemParams(kappa_l=10.0, kappa_r=10.0, g=1.0)
        with pytest.raises(ValueError):
            integrate(p, 0.0, vacuum_state(), -1.0, 0.1)
        with pytest.raises(ValueError):
            integrate(p, 0.0, vacuum_state(), 1.0, 0.0)
        with pytest.raises(ValueError):
            integrate(p, 0.0, np.zeros(4), 1.0, 0.1)

    def test_step_failure_carries_partial_trace(self):
        # far above the parametric threshold the bare field grows at ~2|G| per
        # unit time without bound; integration must stop at the divergence
        # cutoff and hand back what it sampled, with no raw warning on the way
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(StepFailure) as err:
                integrate(DIVERGENT, 0.0, vacuum_state(), 50.0, 0.05)
        trace = err.value.trace
        assert isinstance(trace, TimeTrace)
        assert trace.t[-1] < 50.0
        assert len(trace.t) == len(trace.state) == len(trace.n_c)
        assert "magnitude passed" in str(err.value)

    def test_long_single_sample_run_completes(self):
        # one sample interval takes more steps than scipy's default cap of 500
        trace = integrate(MONOSTABLE, 0.0, vacuum_state(), 2000.0, 2000.0)
        assert trace.t[-1] == 2000.0

    def test_step_cap_is_a_step_failure_not_a_warning(self, monkeypatch):
        monkeypatch.setattr(dynamics, "MAX_STEPS", 500)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(StepFailure) as err:
                integrate(MONOSTABLE, 0.0, vacuum_state(), 2000.0, 2000.0)
        assert "steps" in str(err.value)
        assert list(err.value.trace.t) == [0.0]


@pytest.fixture(scope="module")
def panel_delta1(fig4_params):
    """Criterion 8's fig4 panel at pump detuning 1."""
    return integrate(fig4_params, 1.0, vacuum_state(), 100.0, 0.1, **PANEL_TOL)


class TestObservables:
    def test_match_the_per_row_output_fields(self, fig4_params, panel_delta1):
        p = fig4_params
        c_in_l, c_in_r = balanced_input_fields(p)
        per_row = np.array([
            max(abs(out) ** 2 for out in output_fields(complex(row[0], row[1]),
                                                       c_in_l, c_in_r, p))
            for row in panel_delta1.state])
        assert np.all(np.abs(panel_delta1.out_intensity - per_row)
                      <= 1e-15 * per_row)
        assert np.array_equal(panel_delta1.n_c,
                              panel_delta1.state[:, 0] ** 2
                              + panel_delta1.state[:, 1] ** 2)


class TestAgainstReference:
    """The dop853 stepper against scipy's solve_ivp DOP853 (tests/oracles)."""

    def test_fig4_panel(self, fig4_params, panel_delta1):
        ref = reference_trajectory(fig4_params, 1.0, vacuum_state(),
                                   panel_delta1.t, **PANEL_TOL)
        n_ref = ref[:, 0] ** 2 + ref[:, 1] ** 2
        assert np.max(np.abs(panel_delta1.n_c - n_ref)) <= 1e-9 * n_ref.max()

    def test_criterion_8_relaxation(self):
        rng = np.random.default_rng(SEED)
        while True:
            p = random_driven(rng)
            roots = quiet_solve(p)
            if len(roots) == 1 and roots[0].stability is Stability.STABLE:
                break
        trace = integrate(p, 0.0, vacuum_state(), 60.0, 60.0, **RELAX_TOL)
        ref = reference_trajectory(p, 0.0, vacuum_state(), trace.t, **RELAX_TOL)
        n_ref = ref[:, 0] ** 2 + ref[:, 1] ** 2
        assert np.max(np.abs(trace.n_c - n_ref)) <= 1e-9 * n_ref.max()


class TestImport:
    def test_import_leaves_scipy_integrate_out(self):
        src = os.path.dirname(os.path.dirname(os.path.abspath(cpasim.__file__)))
        code = ("import sys, cpasim; "
                "print('scipy.integrate' in sys.modules)")
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "False"


class TestSettle:
    def test_monostable_convergence_from_random_states(self, rng):
        hits = 0
        while hits < 5:
            p = random_params(rng)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                states = solve_steady_states(p)
            if len(states) != 1 or states[0].stability is not Stability.STABLE:
                continue
            x0 = vacuum_state() + rng.normal(scale=0.01, size=5)
            x0[4] = min(x0[4], -0.3)
            final = settle(p, x0, 80.0, rtol=1e-9, atol=1e-11)
            assert np.allclose(final, state_vector(states[0]), atol=1e-6)
            hits += 1

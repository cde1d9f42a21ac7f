import gc
import importlib.machinery
import importlib.util
import math
import os
import re
import signal
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import cpasim
from cpasim import dynamics
from cpasim.dynamics import (
    TimeTrace,
    integrate,
    mean_field_rhs,
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

from oracles import bloch_norm, reference_rhs, reference_trajectory
from test_acceptance import SEED, quiet_solve, random_driven
from test_curve_geometry import PROPERTY_SETTINGS, curve_params
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


def relaxation_params():
    """Criterion 8's first draw with one stable root."""
    rng = np.random.default_rng(SEED)
    while True:
        p = random_driven(rng)
        roots = quiet_solve(p)
        if len(roots) == 1 and roots[0].stability is Stability.STABLE:
            return p


RHS_CALL = st.tuples(
    st.lists(st.floats(-1e6, 1e6), min_size=5, max_size=5),
    st.floats(0.0, 1e4),
    st.one_of(st.just(0.0), st.just(-0.0), st.floats(-10.0, 10.0)))


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

    @PROPERTY_SETTINGS
    @given(curve_params(), curve_params(), st.floats(0.0, 10.0),
           st.lists(RHS_CALL, min_size=3, max_size=12))
    def test_equals_the_reference_to_the_bit(self, p, q, omega_d, calls):
        # calls alternate between two sets and a copy of one with other
        # values, so that coefficients held for the wrong set would show
        p = replace(p, omega_d=omega_d)
        sets = (p, q, replace(p, delta_c=q.delta_c, g_nl_mag=q.g_nl_mag,
                              phi=q.phi))
        before = [(replace(s), hash(s), repr(s)) for s in sets]
        buf = np.empty(5)
        for k, (state, t, delta) in enumerate(calls):
            s, x = sets[k % 3], np.array(state)
            want = reference_rhs(x, t, s, delta).tobytes()
            fresh = mean_field_rhs(x, t, s, delta)
            assert fresh.tobytes() == want and fresh.flags.writeable
            # a fresh result per call, and ``out`` filled and returned
            assert mean_field_rhs(x, t, s, delta) is not fresh
            assert mean_field_rhs(x, t, s, delta, buf) is buf
            assert buf.tobytes() == want
        for s, (fresh, h, r) in zip(sets, before):
            assert s == fresh and hash(s) == hash(fresh) == h and repr(s) == r


class TestIntegrate:
    def test_relaxes_to_the_stable_root(self):
        p = MONOSTABLE
        states = solve_steady_states(p)
        assert len(states) == 1 and states[0].stability is Stability.STABLE
        final = integrate(p, 0.0, vacuum_state(), 60.0, 60.0).final_state()
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
        final = integrate(p, 0.0, x0, 90.0, 90.0).final_state()
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

    @pytest.mark.parametrize("args, named", [
        (dict(t_end=math.inf), "t_end"),  # a raw OverflowError before
        (dict(t_end=math.nan), "t_end"),  # numpy's "cannot convert float NaN"
        (dict(sample_dt=math.nan), "sample_dt"),
        (dict(delta=math.inf), "delta"),  # a TypeError from scipy's stepper
        (dict(delta=math.nan), "delta"),
        (dict(t_end=1e300, sample_dt=1e-300), "t_end / sample_dt"),
        (dict(t_end=1e20, sample_dt=1.0), "t_end / sample_dt"),  # numpy's error
        (dict(initial=[0.0, 0.0, 0.0, math.nan, -0.5]), "initial state"),
        (dict(initial=[math.inf, 0.0, 0.0, 0.0, -0.5]), "initial state"),
        # indexable, but 6.94 EiB of samples: numpy's MemoryError before
        (dict(t_end=1e18, sample_dt=1.0), "t_end / sample_dt"),
        (dict(atol=-1.0), "atol"),  # integrated without complaint before
        (dict(atol=math.nan), "atol"),
        (dict(rtol=math.inf), "rtol"),  # integrated without complaint before
        (dict(rtol=math.nan), "rtol"),  # a StepFailure at t = 0 before
        (dict(rtol=-1e-9), "rtol"),
    ])
    def test_non_finite_arguments_are_value_errors_naming_them(self, args, named):
        call = dict(delta=0.0, initial=vacuum_state(), t_end=1.0, sample_dt=0.1)
        call.update(args)
        with pytest.raises(ValueError, match=re.escape(named)):
            integrate(SystemParams(kappa_l=10.0, kappa_r=10.0, g=1.0), **call)

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

    def test_stop_reason_is_set_on_the_partial_trace_only(self):
        assert integrate(MONOSTABLE, 0.0, vacuum_state(), 1.0, 0.5).stop_reason is None
        with pytest.raises(StepFailure) as err:
            integrate(DIVERGENT, 0.0, vacuum_state(), 50.0, 0.05)
        reason = err.value.trace.stop_reason
        assert reason == dynamics.STOP_REASONS[2]
        assert str(err.value).endswith(f": {reason}")

    def test_long_single_sample_run_completes(self):
        # one sample interval takes more steps than scipy's default cap of 500
        trace = integrate(MONOSTABLE, 0.0, vacuum_state(), 2000.0, 2000.0)
        assert trace.t[-1] == 2000.0

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    @pytest.mark.parametrize("slot", range(5))
    def test_any_component_past_the_bound_stops_the_run(self, monkeypatch,
                                                        slot, sign):
        push = np.zeros(5)
        push[slot] = sign * 10.0 * dynamics.DIVERGENCE_BOUND
        monkeypatch.setattr(dynamics, "mean_field_rhs",
                            lambda state, t, p, delta, out=None: push.copy())
        with pytest.raises(StepFailure, match="magnitude passed") as err:
            integrate(MONOSTABLE, 0.0, vacuum_state(), 1.0, 0.5)
        assert list(err.value.trace.t) == [0.0]

    def test_state_rows_do_not_alias_the_buffer(self, monkeypatch, fig4_params):
        # every derivative is written into one buffer per call; the trace
        # must hold copies, unchanged when the buffer is written afterwards
        buffers = []

        def recording(state, t, p, delta, out):
            buffers.append(out)
            return mean_field_rhs(state, t, p, delta, out)

        monkeypatch.setattr(dynamics, "mean_field_rhs", recording)
        trace = integrate(fig4_params, 1.0, vacuum_state(), 1.0, 0.1, **PANEL_TOL)
        buf = buffers[0]
        assert all(out is buf for out in buffers)
        assert not np.shares_memory(trace.state, buf)
        kept = trace.state.copy()
        buf[:] = np.nan
        assert np.array_equal(trace.state, kept)
        assert len({row.tobytes() for row in trace.state}) == len(trace.state)

    @pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
    @pytest.mark.parametrize("good_calls", [0, 10])
    @pytest.mark.parametrize("once", [False, True])
    def test_an_exception_in_the_rhs_reaches_the_caller(self, monkeypatch,
                                                        fig4_params, error,
                                                        good_calls, once):
        # dop853 cannot be stopped from its right-hand side: the exception is
        # recorded, the run stops at the next accepted step, and integrate
        # raises it.  The one sample interval takes far more steps than the
        # low step cap, so a run that steps on past the exception (or a
        # lost exception, which would step on up to MAX_STEPS) shows.
        monkeypatch.setattr(dynamics, "MAX_STEPS", 200)
        raised, calls = [], []

        def failing(*args):
            calls.append(None)
            if len(calls) > good_calls and not (once and raised):
                raised.append(error("from the right-hand side"))
                raise raised[-1]
            return mean_field_rhs(*args)

        monkeypatch.setattr(dynamics, "mean_field_rhs", failing)
        # BaseException: a lost exception comes back as some other error,
        # chained to one exception per failed call
        with pytest.raises(BaseException) as err:
            integrate(fig4_params, 1.0, vacuum_state(), 10.0, 10.0, **PANEL_TOL)
        assert err.value is raised[0]
        # the failed step is retried at smaller steps until dop853 accepts
        # one, with a zero derivative at every failed call
        assert len(calls) <= good_calls + 12 * 30

    def test_step_cap_is_a_step_failure_not_a_warning(self, monkeypatch):
        monkeypatch.setattr(dynamics, "MAX_STEPS", 500)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(StepFailure) as err:
                integrate(MONOSTABLE, 0.0, vacuum_state(), 2000.0, 2000.0)
        assert "steps" in str(err.value)
        assert list(err.value.trace.t) == [0.0]
        assert err.value.trace.stop_reason == dynamics.STOP_REASONS[-2]


@pytest.mark.skipif(not hasattr(signal, "pthread_kill"), reason="POSIX signals")
class TestInterrupt:
    # a SIGINT lands in the Python right-hand side or, while dop853's
    # compiled code runs, on entry to the next callback; a run of 1000 time
    # units takes several seconds, so the signal arrives mid-run
    @pytest.mark.parametrize("delay", [0.05, 0.08, 0.11, 0.14, 0.17, 0.2, 0.23, 0.26])
    def test_sigint_mid_panel_is_a_keyboard_interrupt(self, monkeypatch,
                                                      fig4_params, delay):
        # at most 200 steps per sample interval in this panel
        monkeypatch.setattr(dynamics, "MAX_STEPS", 1000)
        previous = signal.signal(signal.SIGINT, signal.default_int_handler)
        sent = []

        def interrupt():
            sent.append(time.perf_counter())
            signal.pthread_kill(threading.main_thread().ident, signal.SIGINT)

        timer = threading.Timer(delay, interrupt)
        try:
            with pytest.raises(BaseException) as err:
                timer.start()
                integrate(fig4_params, 0.1, vacuum_state(), 1000.0, 0.1,
                          **PANEL_TOL)
            caught = time.perf_counter()
        finally:
            timer.cancel()
            timer.join()
            signal.signal(signal.SIGINT, previous)
        assert type(err.value) is KeyboardInterrupt
        assert sent and caught - sent[0] < 1.0


def test_a_call_leaves_no_memory_behind(fig4_params):
    # scipy's dop853 runner keeps a reference to each callback it is given;
    # the callbacks are the module's own, so a call keeps nothing
    def run():
        integrate(fig4_params, 1.0, vacuum_state(), 0.05, 0.05)

    for _ in range(20):
        run()
    calls = 300
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.take_snapshot()
        for _ in range(calls):
            run()
        gc.collect()
        after = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    kept = sum(stat.size_diff for stat in after.compare_to(before, "filename"))
    assert kept / calls <= 1024


@pytest.fixture(scope="module")
def panel_delta1(fig4_params):
    """Criterion 8's fig4 panel at pump detuning 1."""
    return integrate(fig4_params, 1.0, vacuum_state(), 100.0, 0.1, **PANEL_TOL)


class TestCounters:
    """TimeTrace's dop853 counters against a counting wrapper on the
    right-hand side."""

    @pytest.mark.parametrize("run", ["fig4 panel", "relaxation", "divergent"])
    def test_rhs_calls_equal_a_counting_wrapper(self, monkeypatch, fig4_params,
                                                run):
        calls = []

        def counting(*args):
            calls.append(None)
            return mean_field_rhs(*args)

        monkeypatch.setattr(dynamics, "mean_field_rhs", counting)
        if run == "fig4 panel":  # its first 100 sample intervals
            trace = integrate(fig4_params, 1.0, vacuum_state(), 10.0, 0.1,
                              **PANEL_TOL)
        elif run == "relaxation":
            trace = integrate(relaxation_params(), 0.0, vacuum_state(), 60.0,
                              60.0, **RELAX_TOL)
        else:
            with pytest.raises(StepFailure) as err:
                integrate(DIVERGENT, 0.0, vacuum_state(), 50.0, 0.05)
            trace = err.value.trace
        assert trace.rhs_calls == len(calls) > 0
        # dop853 counts no rejection before a call's first accepted step
        assert 0 < trace.accepted_steps
        assert trace.accepted_steps + trace.rejected_steps <= trace.steps


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
        p = relaxation_params()
        trace = integrate(p, 0.0, vacuum_state(), 60.0, 60.0, **RELAX_TOL)
        ref = reference_trajectory(p, 0.0, vacuum_state(), trace.t, **RELAX_TOL)
        n_ref = ref[:, 0] ** 2 + ref[:, 1] ** 2
        assert np.max(np.abs(trace.n_c - n_ref)) <= 1e-9 * n_ref.max()


# a fresh interpreter runs the fig4 panel's first time unit twice, with
# scipy.integrate imported never, before the first run or between the two;
# it prints the scipy modules loaded after the first run, the state bytes of
# both runs, and whether the oracle (scipy's solve_ivp), run afterwards,
# agrees with the first
IMPORT_ORDER_RUN = """
import sys

import numpy as np

from cpasim import cli, dynamics
from oracles import reference_trajectory

p, order = cli.fig4_preset(), sys.argv[1]


def run():
    return dynamics.integrate(p, 1.0, dynamics.vacuum_state(), 1.0, 0.1,
                              rtol=1e-8, atol=1e-10)


if order == "before":
    import scipy.integrate
first = run()
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
if order == "between":
    import scipy.integrate
second = run()
print(first.state.tobytes().hex(), second.state.tobytes().hex())
ref = reference_trajectory(p, 1.0, dynamics.vacuum_state(), first.t,
                           rtol=1e-8, atol=1e-10)
print(np.allclose(first.state, ref, rtol=1e-6, atol=1e-6))
"""


class TestImport:
    def test_import_loads_no_scipy_module(self):
        # the stepper loads scipy's dop853 extension when it first runs
        src = os.path.dirname(os.path.dirname(os.path.abspath(cpasim.__file__)))
        code = ("import sys, cpasim; "
                "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])")
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "[]"

    def test_the_stepper_imports_no_scipy_package_in_any_import_order(self):
        src = os.path.dirname(os.path.dirname(os.path.abspath(cpasim.__file__)))
        tests = os.path.dirname(os.path.abspath(__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, tests]))
        runs = {}
        for order in ("never", "before", "between"):
            out = subprocess.run(
                [sys.executable, "-c", IMPORT_ORDER_RUN, order], env=env,
                capture_output=True, text=True, check=True)
            loaded, states, agrees = out.stdout.splitlines()
            runs[order] = loaded, states.split(), agrees
        assert runs["never"][0] == runs["between"][0] == "[]"
        assert "'scipy.integrate'" in runs["before"][0]
        first = runs["never"][1][0]
        assert all(states == [first, first] for _, states, _ in runs.values())
        assert all(agrees == "True" for _, _, agrees in runs.values())

    @pytest.mark.parametrize("runner", [
        "no file",  # scipy's integrate directory has no _dop extension
        None,  # an extension without the runner
        # scipy's f2py runners before 1.17: nsteps and verbosity went in
        # iwork, so a 13th argument is one too many; four return values
        lambda f, x, y, xend, rtol, atol, solout, iout, work, iwork,
        fcn_extra_args=(): (x, y, iwork, 1),
        lambda f, x, y, xend, rtol, atol, solout, iout, work, iwork,
        *extra: (x, y, iwork, 1),
    ], ids=["no-file", "missing", "too-many-args", "four-returns"])
    def test_an_unsupported_scipy_runner_is_named(self, monkeypatch, tmp_path,
                                                  runner):
        scipy = pytest.importorskip("scipy")

        if callable(runner):
            monkeypatch.setattr(dynamics, "_dopri853", runner)
        else:
            # the loader runs, and finds an empty stand-in file or no file
            stand_in = tmp_path / "_dop.py"
            stand_in.write_text("")
            spec = None if runner else importlib.util.spec_from_file_location(
                "scipy.integrate._dop", stand_in)
            find_spec = importlib.machinery.PathFinder.find_spec

            def finding(name, path=None, target=None):
                if name == "scipy.integrate._dop":
                    return spec
                return find_spec(name, path, target)

            monkeypatch.setattr(importlib.machinery.PathFinder, "find_spec",
                                finding)
            monkeypatch.setattr(dynamics, "_dopri853", None)
        p = SystemParams(kappa_l=10.0, kappa_r=10.0, g=1.0)
        with pytest.raises(ImportError, match=re.escape(
                f"scipy {scipy.__version__} is installed")) as err:
            integrate(p, 0.0, vacuum_state(), 1.0, 0.5)
        assert "scipy >= 1.17" in str(err.value)
        assert dynamics._dopri853 is (runner if callable(runner) else None)


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
            final = integrate(p, 0.0, x0, 80.0, 80.0, rtol=1e-9,
                              atol=1e-11).final_state()
            assert np.allclose(final, state_vector(states[0]), atol=1e-6)
            hits += 1

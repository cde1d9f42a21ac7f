"""Mean-field time evolution of the driven cavity-atom-crystal system.

State layout is a real 5-vector: (Re c, Im c, Re sigma_minus, Im sigma_minus,
sigma_z).  The frame rotates with the coherent drive, so a crystal pumped away
from twice the drive frequency shows up as an explicitly time-dependent
parametric term at the pump detuning ``delta``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import StepFailure
from .model import SystemParams, balanced_input_fields

DEFAULT_RTOL = 1e-10
DEFAULT_ATOL = 1e-12
# Integration stops once any state component passes this magnitude (photon
# numbers ~1e18, far beyond mean-field sense).  Above the parametric threshold
# the field grows exponentially; without a cutoff the stepper chases the blowup
# forever, since with g > 0 the step size shrinks with the growing Rabi
# frequency 2 g |c| and overflow is approached only logarithmically.
DIVERGENCE_BOUND = 1e9
# dop853's cap on steps per sample interval.  scipy's default of 500 stops a
# long single-sample run (a relaxation settled with one sample at t_end) that
# is nowhere near diverging; the divergence cutoff above is what ends a
# runaway.
MAX_STEPS = 10 ** 9
# dop853's IDID return codes (Hairer, Norsett & Wanner, Solving ODEs I, II.10)
STOP_REASONS = {
    2: f"state magnitude passed {DIVERGENCE_BOUND:.0e}",
    -1: "dop853 input is not consistent",
    -2: "dop853 took more than MAX_STEPS steps in one sample interval",
    -3: "dop853 step size became too small",
    -4: "dop853 finds the problem stiff",
}


@dataclass
class TimeTrace:
    """Sampled trajectory with derived observables."""

    t: np.ndarray
    state: np.ndarray  # shape (len(t), 5)
    n_c: np.ndarray
    out_intensity: np.ndarray  # max of the two mirror output intensities

    def final_state(self) -> np.ndarray:
        return self.state[-1]


def vacuum_state() -> np.ndarray:
    """Cavity vacuum, atom in its ground state."""
    return np.array([0.0, 0.0, 0.0, 0.0, -0.5])


def mean_field_rhs(state: np.ndarray, t: float, p: SystemParams,
                   delta: float = 0.0) -> np.ndarray:
    """Time derivative of the mean-field state.

    ``delta`` is the pump-frequency mismatch of the crystal; the parametric
    term 2 G e^{-i delta t} c* is the only explicit time dependence.
    """
    x1, x2, x3, x4, x5 = state.tolist()
    phase = p.phi - delta * t
    g_nl2 = 2.0 * p.g_nl_mag
    gr = g_nl2 * math.cos(phase)
    gi = g_nl2 * math.sin(phase)
    kh = 0.5 * (p.kappa_l + p.kappa_r)
    gamma = p.gamma
    gh = 0.5 * gamma
    g = p.g
    g2 = 2.0 * g
    dc = p.delta_c
    da = p.delta_tls
    return np.array([
        -kh * x1 + dc * x2 + g * x4 + gr * x1 + gi * x2 + p.omega_d,
        -kh * x2 - dc * x1 - g * x3 + gi * x1 - gr * x2,
        -gh * x3 + da * x4 - g2 * x2 * x5,
        -gh * x4 - da * x3 + g2 * x1 * x5,
        -gamma * (x5 + 0.5) - g2 * (x1 * x4 - x2 * x3),
    ])


def _observables(p: SystemParams, states: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Photon number and the larger mirror output intensity of each row,
    c_out = sqrt(kappa_mirror) c - c_in as in ``model.output_fields``."""
    n_c = states[:, 0] ** 2 + states[:, 1] ** 2
    c_in_l, c_in_r = balanced_input_fields(p)
    c = states[:, 0] + 1j * states[:, 1]
    out = np.maximum(np.abs(math.sqrt(p.kappa_l) * c - c_in_l) ** 2,
                     np.abs(math.sqrt(p.kappa_r) * c - c_in_r) ** 2)
    return n_c, out


def solve_ivp(fun, t_eval: np.ndarray, initial: np.ndarray, rtol: float,
              atol: float) -> tuple[np.ndarray, float, str | None]:
    """cpasim's own DOP853 stepper: Hairer's dop853 code as scipy ships it
    behind ``scipy.integrate.ode``, run from ``t_eval[0]`` through each
    later sample time in turn.

    ``fun(t, y)`` is the right-hand side.  Returns ``(states, t_stop,
    reason)``: one row per sample reached, the time the stepper stopped at,
    and None when every sample was reached, else why it stopped.  It stops
    early once the state passes ``DIVERGENCE_BOUND``.
    """
    # imported here, so that ``import cpasim`` does not pay for scipy.integrate
    from scipy.integrate import ode

    h_prev = h_last = 0.0
    t_last = float(t_eval[0])

    def solout(t, y):
        # called by dop853 after every accepted step (and once at the start
        # of each sample interval, where the step is 0)
        nonlocal h_prev, h_last, t_last
        if t > t_last:
            h_prev, h_last = h_last, t - t_last
        t_last = t
        if not np.abs(y).max() <= DIVERGENCE_BOUND:
            return -1
        return 0

    r = ode(fun).set_integrator("dop853", rtol=rtol, atol=atol,
                                nsteps=MAX_STEPS)
    r.set_solout(solout)
    r.set_initial_value(initial, t_eval[0])
    # dop853's WORK(7), the initial step size (0: dop853 guesses one).  Each
    # call to r.integrate restarts dop853, so without it every sample
    # interval would repeat the initial-step search and grow the step anew.
    # The last step before a sample time is cut short to land on it, hence
    # the larger of the last two.  The array is scipy's (a private
    # attribute), made by set_initial_value and passed to every call.
    work = r._integrator.work
    states = np.empty((len(t_eval), len(initial)))
    states[0] = initial
    with warnings.catch_warnings():
        # a failed call also warns "dop853: <message>"; the return code
        # below reports it instead
        warnings.filterwarnings("ignore", message="dop853: ",
                                category=UserWarning)
        for k in range(1, len(t_eval)):
            work[6] = max(h_prev, h_last)
            states[k] = r.integrate(t_eval[k])
            code = r.get_return_code()
            if code != 1:
                return states[:k], r.t, STOP_REASONS.get(
                    code, f"dop853 returned {code}")
    return states, float(t_eval[-1]), None


def integrate(p: SystemParams, delta: float, initial: np.ndarray, t_end: float,
              sample_dt: float, rtol: float = DEFAULT_RTOL,
              atol: float = DEFAULT_ATOL) -> TimeTrace:
    """Integrate the mean-field equations from ``initial`` to ``t_end``,
    sampling every ``sample_dt``.  The first sample is the initial state.

    Raises StepFailure (carrying the partial trace) if the integrator stops
    before reaching ``t_end``.
    """
    if t_end <= 0.0:
        raise ValueError("t_end must be positive")
    if sample_dt <= 0.0 or sample_dt > t_end:
        raise ValueError("sample_dt must lie in (0, t_end]")
    initial = np.asarray(initial, dtype=float)
    if initial.shape != (5,):
        raise ValueError("initial state must be a 5-vector")

    n_samples = int(math.floor(t_end / sample_dt + 1e-9)) + 1
    t_eval = np.minimum(np.arange(n_samples) * sample_dt, t_end)
    if t_eval[-1] < t_end:
        t_eval = np.append(t_eval, t_end)

    # mean_field_rhs and solve_ivp are looked up at call time, through the
    # module, so that wrappers set on its attributes (the benchmark's
    # tracer) see every call
    states, t_stop, reason = solve_ivp(
        lambda t, y: mean_field_rhs(y, t, p, delta),
        t_eval, initial, rtol, atol)
    n_c, out = _observables(p, states)
    trace = TimeTrace(t=t_eval[:len(states)], state=states, n_c=n_c,
                      out_intensity=out)
    if reason is not None:
        raise StepFailure(
            f"integration stopped at t = {t_stop:.6g} of {t_end:.6g}: "
            f"{reason}", trace=trace)
    return trace


def settle(p: SystemParams, initial: np.ndarray, t_end: float,
           rtol: float = DEFAULT_RTOL, atol: float = DEFAULT_ATOL) -> np.ndarray:
    """Final state after integrating with the crystal pump on resonance.

    Convenience for relaxation tests; no intermediate samples are kept.
    """
    trace = integrate(p, 0.0, initial, t_end, t_end, rtol=rtol, atol=atol)
    return trace.final_state()

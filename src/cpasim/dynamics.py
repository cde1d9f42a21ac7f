"""Mean-field time evolution of the driven cavity-atom-crystal system.

State layout is a real 5-vector: (Re c, Im c, Re sigma_minus, Im sigma_minus,
sigma_z).  The frame rotates with the coherent drive, so a crystal pumped away
from twice the drive frequency shows up as an explicitly time-dependent
parametric term at the pump detuning ``delta``.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from .errors import StepFailure
from .model import SystemParams, _finite_real, _finite_reals, output_intensities

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
# t_end / sample_dt up to this below an integer k counts as k sample steps.
SAMPLE_COUNT_SLACK = 1e-9
# dop853's IDID return codes (Hairer, Norsett & Wanner, Solving ODEs I, II.10)
STOP_REASONS = {
    2: f"state magnitude passed {DIVERGENCE_BOUND:.0e}",
    -1: "dop853 input is not consistent",
    -2: "dop853 took more than MAX_STEPS steps in one sample interval",
    -3: "dop853 step size became too small",
    -4: "dop853 finds the problem stiff",
}
# scipy.integrate.ode's dop853 settings, WORK(2:4): the safety factor, and
# a new step between 0.3 and 6 times the last
STEP_SETTINGS = (0.9, 0.3, 6.0)
# writes five Python floats into a float64 array as native doubles, the
# bits np.array of the same floats holds
_pack_5_doubles = struct.Struct("5d").pack_into


@dataclass
class TimeTrace:
    """Sampled trajectory with derived observables."""

    t: np.ndarray
    state: np.ndarray  # shape (len(t), 5)
    n_c: np.ndarray
    out_intensity: np.ndarray  # max of the two mirror output intensities
    # dop853's own counters, summed over the sample intervals run (on a
    # StepFailure's partial trace too): right-hand-side calls (exact),
    # steps, accepted and rejected steps (NRJECT: a rejection before an
    # interval's first accepted step is not counted)
    rhs_calls: int = 0
    steps: int = 0
    accepted_steps: int = 0
    rejected_steps: int = 0
    # None when every sample was reached, else why the stepper stopped
    # (set on a StepFailure's partial trace)
    stop_reason: str | None = None

    def final_state(self) -> np.ndarray:
        return self.state[-1]


def vacuum_state() -> np.ndarray:
    """Cavity vacuum, atom in its ground state."""
    return np.array([0.0, 0.0, 0.0, 0.0, -0.5])


def mean_field_rhs(state: np.ndarray, t: float, p: SystemParams,
                   delta: float = 0.0, out: np.ndarray | None = None) -> np.ndarray:
    """Time derivative of the mean-field state.

    ``delta`` is the pump-frequency mismatch of the crystal; the parametric
    term 2 G e^{-i delta t} c* is the only explicit time dependence.  At
    delta = 0 it is the constant 2 G of ``p.rhs_coefficients``: phi - 0 t
    is phi for every finite t.

    The result is written into ``out`` and returned, as numpy's ``out``
    arguments are; ``out`` must be a C-contiguous float64 array of shape
    (5,), which is not checked.  Without it the result is a new array.
    """
    x1, x2, x3, x4, x5 = state.tolist()
    mkh, dc, g, g2, mgh, mgamma, da, wd, g_nl2, phi, gr, gi = p.rhs_coefficients
    if delta:
        phase = phi - delta * t
        gr = g_nl2 * math.cos(phase)
        gi = g_nl2 * math.sin(phase)
    if out is None:
        out = np.empty(5)
    _pack_5_doubles(
        out, 0,
        mkh * x1 + dc * x2 + g * x4 + gr * x1 + gi * x2 + wd,
        mkh * x2 - dc * x1 - g * x3 + gi * x1 - gr * x2,
        mgh * x3 + da * x4 - g2 * x2 * x5,
        mgh * x4 - da * x3 + g2 * x1 * x5,
        mgamma * (x5 + 0.5) - g2 * (x1 * x4 - x2 * x3))
    return out


def _observables(p: SystemParams, states: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Photon number and the larger mirror output intensity of each row
    (``model.output_intensities``)."""
    n_c = states[:, 0] ** 2 + states[:, 1] ** 2
    c = states[:, 0] + 1j * states[:, 1]
    return n_c, np.maximum(*output_intensities(c, p.omega_d, p))


class _Run:
    """What dop853's two callbacks share in one stepper run.  dop853 hands
    it to both as their extra argument, so that the callbacks are this
    module's own two functions: scipy's runner keeps a reference to every
    callback object it is passed, and fresh closures per run would pile up
    (with ``scipy.integrate.ode``, its integrator and work arrays too)."""

    __slots__ = ("p", "delta", "out", "error", "h_prev", "h_last", "t_last")

    def __init__(self, p: SystemParams, delta: float, t0: float) -> None:
        self.p, self.delta = p, delta
        self.out = np.empty(5)  # every derivative is written here
        self.error = None
        self.h_prev = self.h_last = 0.0
        self.t_last = t0

    def record(self, exc: BaseException) -> None:
        """Keep the first exception a callback raised.  One raised before a
        callback's ``try`` (a signal handled on entry) stays pending in
        dop853, so the callback's next call into Python raises a
        SystemError caused by it: the cause is kept instead."""
        if self.error is None:
            while isinstance(exc, SystemError) and exc.__cause__ is not None:
                exc = exc.__cause__
            self.error = exc


def _derivative(t, y, run: _Run):
    """dop853's right-hand side: ``mean_field_rhs`` into the run's buffer,
    which dop853 copies out before its next call.  ``mean_field_rhs`` is
    looked up through the module at every call, so that a wrapper set on
    the module attribute (the benchmark's tracer) sees every call.

    An exception cannot stop dop853 from here: it would step on, on
    garbage, up to MAX_STEPS.  It is recorded instead and a zero derivative
    returned, and ``_step_taken`` stops the run at the next accepted
    step."""
    try:
        return mean_field_rhs(y, t, run.p, run.delta, run.out)
    except BaseException as exc:
        run.record(exc)
        run.out[:] = 0.0
        return run.out


def _step_taken(t, y, run: _Run):
    """dop853's SOLOUT, called after every accepted step (and once at the
    start of each sample interval, where the step is 0): -1 stops the run.
    It stops once a callback has raised, and once a state component's
    magnitude passes DIVERGENCE_BOUND or is NaN."""
    try:
        if run.error is not None:
            return -1
        if t > run.t_last:
            run.h_prev, run.h_last = run.h_last, t - run.t_last
        run.t_last = t
        for v in y.tolist():
            if not abs(v) <= DIVERGENCE_BOUND:  # NaN too
                return -1
        return 0
    except BaseException as exc:
        run.record(exc)
        return -1


def _unsupported_scipy() -> ImportError:
    import scipy

    return ImportError(
        "cpasim's stepper calls scipy's dop853 runner "
        "(scipy.integrate._dop.dopri853) as scipy 1.17 defines it; "
        f"scipy {scipy.__version__} is installed and does not match: "
        "install scipy >= 1.17")


# scipy's dop853 runner, loaded by the first integration
_dopri853 = None


def _load_dopri853():
    """scipy's dop853 runner, run from scipy's ``integrate/_dop`` extension
    file on its own, so that neither ``scipy`` nor ``scipy.integrate`` is
    imported: ``scipy/integrate/__init__.py`` loads some 600 modules
    (linalg, sparse, optimize, special, ...) that the stepper never uses.
    The extension is private scipy API, found by its module name in the
    directory of the installed scipy."""
    scipy = importlib.util.find_spec("scipy")  # finds the package, runs nothing
    spec = scipy and importlib.machinery.PathFinder.find_spec(
        "scipy.integrate._dop",
        [os.path.join(d, "integrate") for d in scipy.submodule_search_locations])
    if spec is None:
        raise _unsupported_scipy()
    try:
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module.dopri853
    except (ImportError, AttributeError) as exc:
        raise _unsupported_scipy() from exc


def solve_ivp(p: SystemParams, delta: float, t_eval: np.ndarray,
              initial: np.ndarray, rtol: float,
              atol: float) -> tuple[np.ndarray, float, str | None, list[int]]:
    """cpasim's own DOP853 stepper: Hairer's dop853 code as scipy ships it
    behind ``scipy.integrate.ode``, with ode's settings, run on
    ``mean_field_rhs`` at ``p`` and pump detuning ``delta`` from
    ``t_eval[0]`` through each later sample time in turn.

    Returns ``(states, t_stop, reason, counts)``: one row per sample
    reached, the time the stepper stopped at, None when every sample was
    reached, else why it stopped, and dop853's counters (NFCN, NSTEP,
    NACCPT, NRJECT) summed over the sample intervals, NFCN corrected to the
    calls the right-hand side received.  It stops early once a state
    component's magnitude passes ``DIVERGENCE_BOUND`` or is NaN.  An
    exception raised in the right-hand side (KeyboardInterrupt too) stops
    the stepper at the next accepted step and is raised here.
    """
    # loaded here, once, so that ``import cpasim`` does not pay for it.
    # Called directly, the runner warns about nothing, and a failed call's
    # return code below says why.
    global _dopri853
    if _dopri853 is None:
        _dopri853 = _load_dopri853()
    dopri853 = _dopri853

    run = _Run(p, delta, float(t_eval[0]))
    args = (run,)
    # dop853's WORK and IWORK, as ode's dop853 sets them up.  WORK(7) is the
    # initial step size (0: dop853 guesses one).  Each call restarts
    # dop853, so without it every sample interval would repeat the
    # initial-step search and grow the step anew.  The last step before a
    # sample time is cut short to land on it, hence the larger of the last
    # two.  After each call, iwork[16:20] holds that call's counters.
    work = np.zeros(11 * len(initial) + 21)
    work[1:4] = STEP_SETTINGS
    iwork = np.zeros(21, dtype=np.int32)
    counts = np.zeros(4, dtype=np.int64)
    states = np.empty((len(t_eval), len(initial)))
    states[0] = y = initial
    t = t_eval[0]
    for k in range(1, len(t_eval)):
        h = work[6] = max(run.h_prev, run.h_last)
        try:
            t, y, code = dopri853(_derivative, t, y, t_eval[k], rtol, atol,
                                  _step_taken, 1, work, iwork, MAX_STEPS, -1,
                                  args)
        except (TypeError, ValueError) as exc:
            # the callbacks raise nothing, so this is the call itself: an
            # argument list or a return other than scipy 1.17's
            raise _unsupported_scipy() from exc
        if run.error is not None:
            error, run.error = run.error, None
            raise error
        states[k] = y
        counts += iwork[16:20]
        if h:
            # NFCN adds 2 at the start, for f(t) and the initial-step
            # guess's call; a given step makes only the first
            counts[0] -= 1
        if code != 1:
            return states[:k], t, STOP_REASONS.get(
                code, f"dop853 returned {code}"), counts.tolist()
    return states, float(t_eval[-1]), None, counts.tolist()


def integrate(p: SystemParams, delta: float, initial: np.ndarray, t_end: float,
              sample_dt: float, rtol: float = DEFAULT_RTOL,
              atol: float = DEFAULT_ATOL) -> TimeTrace:
    """Integrate the mean-field equations from ``initial`` to ``t_end``,
    sampling every ``sample_dt``.  The first sample is the initial state.

    Raises StepFailure (carrying the partial trace) if the integrator stops
    before reaching ``t_end``; an exception raised in the right-hand side
    (KeyboardInterrupt too) as it was raised; and ValueError naming the
    argument for a ``delta``, ``t_end``, ``sample_dt``, ``rtol``, ``atol``
    or initial-state entry that breaks the number rule
    (``model._finite_real``), a negative ``rtol`` or ``atol``, an initial
    state that is no 5-vector, or a sample count ``t_end / sample_dt``
    beyond the array index range or too large to allocate.
    """
    delta, t_end, sample_dt, rtol, atol = map(_finite_real, (
        "delta", "t_end", "sample_dt", "rtol", "atol"), (delta, t_end, sample_dt, rtol, atol))
    if min(rtol, atol) < 0.0:
        raise ValueError(f"rtol and atol must be >= 0, got rtol = {rtol!r}, atol = {atol!r}")
    if t_end <= 0.0:
        raise ValueError("t_end must be positive")
    if sample_dt <= 0.0 or sample_dt > t_end:
        raise ValueError("sample_dt must lie in (0, t_end]")
    if np.shape(initial) != (5,):
        raise ValueError("initial state must be a 5-vector")
    initial = np.array(_finite_reals("initial state entry", initial))

    count = t_end / sample_dt + SAMPLE_COUNT_SLACK
    if not count < np.iinfo(np.intp).max:
        raise ValueError(f"t_end / sample_dt exceeds the array index range: "
                         f"t_end = {t_end!r}, sample_dt = {sample_dt!r}")
    n_samples = int(math.floor(count)) + 1
    try:
        t_eval = np.minimum(np.arange(n_samples) * sample_dt, t_end)
    except MemoryError:
        raise ValueError(f"t_end / sample_dt gives {n_samples} samples, too many "
                         f"to allocate: t_end = {t_end!r}, sample_dt = {sample_dt!r}"
                         ) from None
    if t_eval[-1] < t_end:
        t_eval = np.append(t_eval, t_end)

    states, t_stop, reason, counts = solve_ivp(p, delta, t_eval, initial,
                                               rtol, atol)
    n_c, out = _observables(p, states)
    trace = TimeTrace(t_eval[:len(states)], states, n_c, out, *counts, reason)
    if reason is not None:
        raise StepFailure(
            f"integration stopped at t = {t_stop:.6g} of {t_end:.6g}: "
            f"{reason}", trace=trace)
    return trace

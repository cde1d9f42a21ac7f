"""The benchmark's three workloads.

Each workload is a closed loop with one caller: the next operation starts
when the previous one has returned.  A workload builds its inputs from the
seed once (``build``), and a pass runs every operation once, in order
(``run_pass``).  Every call into the program goes through the module
attribute its own callers use (``steady.solve_steady_states``,
``sweep.scan_folds``, ...), looked up at call time, so the traced run's
wrappers see it.
"""

from __future__ import annotations

import hashlib
import math
import os
import warnings
from dataclasses import dataclass, field, replace
from time import perf_counter

import numpy as np

from cpasim import cli, cpa, dynamics, io, steady, sweep
from cpasim.model import SystemParams, drive_for_input_intensity

FIG3_PRESETS = tuple((tag, dtls) for tag in ("fig3a", "fig3b", "fig3c")
                     for dtls in (4.5, 1.5))
CURVE_NODES = 301

# Bistable window (input intensity) of each fig3 preset, from its folds.  The
# zero-anchored windows of fig3a and fig3b start at 0.  Points drawn from the
# middle 80 % of a window have three steady states.
FIG3_WINDOWS = {
    ("fig3a", 4.5): (0.0, 0.19153239340307393),
    ("fig3a", 1.5): (0.0, 22.460893444072752),
    ("fig3b", 4.5): (0.0, 30.563010707343793),
    ("fig3b", 1.5): (0.0, 216.44245026265992),
    ("fig3c", 4.5): (13.506980458043255, 29.803645735377252),
    ("fig3c", 1.5): (112.05900511559133, 130.27332358615553),
}
WINDOW_MARGIN = 0.1

# steady_batch mix per pass
N_WEAK = 1000
N_WINDOW_PER_PRESET = 100
N_ABOVE = 400

# time_evolution: the fig4 panel at acceptance criterion 8's settings as
# (pump detuning, t_end, sample_dt), and criterion 8's vacuum relaxations,
# drawn with its seed.  The delta = 0.1 and 0.01 panels are left out: each
# takes 18 s or more on a 2-CPU machine, so a pass holding one would fit only
# once in a run.
PANELS = ((1.0, 100.0, 0.1),)
PANEL_TOL = (1e-8, 1e-10)
CRITERION_8_SEED = 20260821
N_RELAX = 50
T_RELAX = 60.0
RELAX_TOL = (1e-9, 1e-12)


@dataclass
class PassResult:
    """Outputs of one pass, one entry per operation (None where it raised)."""

    outputs: list = field(default_factory=list)
    op_seconds: list = field(default_factory=list)
    errors: list = field(default_factory=list)
    warnings: list = field(default_factory=list)

    def run(self, op, *args):
        t0 = perf_counter()
        try:
            out = op(*args)
        except Exception as exc:  # counted as a failed operation, not fatal
            out = None
            self.errors.append(f"{op.__name__}{args!r}: {exc!r}")
        self.op_seconds.append(perf_counter() - t0)
        self.outputs.append(out)


def bare_margin(p: SystemParams) -> float:
    """(kappa/2)^2 + delta_c^2 - 4|G|^2; at or below 0 the bare cavity is at
    or above the parametric threshold."""
    return (0.5 * p.kappa) ** 2 + p.delta_c ** 2 - 4.0 * p.g_nl_mag ** 2


def weak_drive(rng) -> SystemParams:
    """Acceptance criterion 9's distribution of weakly driven sets."""
    return SystemParams(
        kappa_l=10.0, kappa_r=10.0,
        g=rng.uniform(0.2, 2.0),
        delta_c=rng.uniform(-5.0, 5.0),
        delta_tls=rng.uniform(-3.0, 3.0),
        g_nl_mag=rng.uniform(0.0, 0.3),
        phi=rng.uniform(0.0, 2.0 * math.pi),
        omega_d=rng.uniform(0.5, 6.0))


def above_threshold(rng) -> SystemParams:
    """Weak drive with the crystal pumped past the bare parametric threshold:
    4|G|^2 >= 121 exceeds (kappa/2)^2 + delta_c^2 <= 109."""
    return replace(weak_drive(rng), delta_c=rng.uniform(-3.0, 3.0),
                   g_nl_mag=rng.uniform(5.5, 7.0))


def in_window(rng, preset) -> SystemParams:
    lo, hi = FIG3_WINDOWS[preset]
    width = hi - lo
    intensity = rng.uniform(lo + WINDOW_MARGIN * width, hi - WINDOW_MARGIN * width)
    p = cli.fig3_preset(*preset)
    return replace(p, omega_d=drive_for_input_intensity(intensity, p))


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
    return h.hexdigest()


# ----------------------------------------------------------- fig3_sweeps ----

@dataclass
class Figure:
    tag: str
    dtls: float
    params: SystemParams
    folds: list
    curve: object
    report: object
    stem: str


def fig3_figure(tag: str, dtls: float, outdir: str) -> Figure:
    """One preset of ``cpasim reproduce fig3a|fig3b|fig3c`` plus verify_cpa."""
    p = cli.fig3_preset(tag, dtls)
    intensity_cpa = 0.5 * p.kappa * cpa.cpa_photon_number(p)
    folds = sweep.scan_folds(p, 2.5 * intensity_cpa)
    hi = max((f[0] for f in folds), default=0.0)
    span = max(1.3 * intensity_cpa, 1.15 * hi)
    curve = sweep.trace_hysteresis(p, np.linspace(0.0, span, CURVE_NODES))
    report = cpa.verify_cpa(p)
    stem = os.path.join(outdir, f"{tag}_dtls{dtls:g}")
    io.emit_csv(curve, stem + ".csv")
    io.emit_svg(curve, stem + ".svg", title=f"{tag}, delta_tls={dtls:g}")
    return Figure(tag, dtls, p, folds, curve, report, stem)


class Fig3Sweeps:
    name = "fig3_sweeps"

    def build(self, seed: int) -> list:
        """The six presets; the seed sets their order within a pass."""
        rng = np.random.default_rng(seed)
        return [FIG3_PRESETS[i] for i in rng.permutation(len(FIG3_PRESETS))]

    def warm_up(self, inputs, outdir: str) -> None:
        self.run_pass(inputs, outdir)

    def run_pass(self, inputs, outdir: str) -> PassResult:
        res = PassResult()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for tag, dtls in inputs:
                res.run(fig3_figure, tag, dtls, outdir)
        return res

    def work(self, inputs) -> float:
        return float(len(inputs))

    def sim_time(self, inputs) -> float:
        return 0.0

    def fingerprint(self, res: PassResult) -> str:
        parts = []
        for f in res.outputs:
            if f is None:
                parts.append(None)
                continue
            parts.append((f.folds, f.curve, f.report))
            for ext in (".csv", ".svg"):
                with open(f.stem + ext, "rb") as fh:
                    parts.append(fh.read())
        return _digest(*parts)


# ----------------------------------------------------------- steady_batch ---

class SteadyBatch:
    name = "steady_batch"

    def build(self, seed: int) -> list:
        """(family, params) pairs, shuffled: criterion 9's weak-drive sets,
        three-root points inside every fig3 window, and above-threshold
        sets."""
        rng = np.random.default_rng(seed)
        points = [("weak", weak_drive(rng)) for _ in range(N_WEAK)]
        for preset in FIG3_PRESETS:
            points += [("window", in_window(rng, preset))
                       for _ in range(N_WINDOW_PER_PRESET)]
        points += [("above", above_threshold(rng)) for _ in range(N_ABOVE)]
        order = rng.permutation(len(points))
        return [points[i] for i in order]

    def warm_up(self, inputs, outdir: str) -> None:
        self.run_pass(inputs, outdir)

    def run_pass(self, inputs, outdir: str) -> PassResult:
        res = PassResult()
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            for _, p in inputs:
                res.run(steady.solve_steady_states, p)
        res.warnings = [w.category.__name__ for w in seen]
        return res

    def work(self, inputs) -> float:
        return float(len(inputs))

    def sim_time(self, inputs) -> float:
        return 0.0

    def fingerprint(self, res: PassResult) -> str:
        return _digest(res.outputs, res.warnings)


# --------------------------------------------------------- time_evolution ---

def panel(delta: float, t_end: float, dt: float):
    p = cli.fig4_preset()
    return dynamics.integrate(p, delta, dynamics.vacuum_state(), t_end, dt,
                              rtol=PANEL_TOL[0], atol=PANEL_TOL[1])


def relaxation(p: SystemParams):
    """The solver's steady states and the vacuum's relaxation to them."""
    roots = steady.solve_steady_states(p)
    trace = dynamics.integrate(p, 0.0, dynamics.vacuum_state(), T_RELAX,
                               T_RELAX, rtol=RELAX_TOL[0], atol=RELAX_TOL[1])
    return roots, trace


class TimeEvolution:
    name = "time_evolution"

    def build(self, seed: int) -> list:
        """("panel", (delta, t_end, sample_dt)) and ("relax", params)
        operations in an order set by the seed.  The relaxations are
        criterion 8's: its draws, kept where the solver finds one stable
        root."""
        draws = np.random.default_rng(CRITERION_8_SEED)
        ops = [("panel", spec) for spec in PANELS]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            while len(ops) < len(PANELS) + N_RELAX:
                p = weak_drive(draws)
                roots = steady.solve_steady_states(p)
                if len(roots) == 1 and str(roots[0].stability) == "Stable":
                    ops.append(("relax", p))
        order = np.random.default_rng(seed).permutation(len(ops))
        return [ops[i] for i in order]

    def warm_up(self, inputs, outdir: str) -> None:
        # one short call of each kind; a whole pass would add a pass per run
        panel(PANELS[0][0], 1.0, PANELS[0][2])
        relaxation(next(arg for kind, arg in inputs if kind == "relax"))

    def run_pass(self, inputs, outdir: str) -> PassResult:
        res = PassResult()
        for kind, arg in inputs:
            if kind == "panel":
                res.run(panel, *arg)
            else:
                res.run(relaxation, arg)
        return res

    def work(self, inputs) -> float:
        return self.sim_time(inputs)

    def sim_time(self, inputs) -> float:
        return sum(arg[1] if kind == "panel" else T_RELAX for kind, arg in inputs)

    def fingerprint(self, res: PassResult) -> str:
        parts = []
        for out in res.outputs:
            if out is None:
                parts.append(None)
                continue
            roots, trace = out if isinstance(out, tuple) else ([], out)
            parts += [roots, trace.t.tobytes(), trace.state.tobytes(),
                      trace.out_intensity.tobytes()]
        return _digest(*parts)


WORKLOADS = {w.name: w for w in (Fig3Sweeps(), SteadyBatch(), TimeEvolution())}

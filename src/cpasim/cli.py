"""Command-line front end.

Subcommands: steady, cpa, sweep, boundary, evolve, and reproduce (named
parameter sets for the boundary map, the three hysteresis configurations,
and the time-evolution panels).  All inputs are in units of the atomic
linewidth; --gamma rescales emitted files to physical units.

Exit codes: 0 success, 2 validation/parse error (inputs are checked where
they enter), 3 infeasible absorption request, 4 numerical failure (any
other error from the computation, a ValueError from numpy or scipy and
an ArithmeticError included).
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import replace

import numpy as np

from .cpa import cpa_cavity_detuning, cpa_input_amplitude, cpa_photon_number, verify_cpa
from .dynamics import integrate, vacuum_state
from .errors import (
    AsymmetricMirrors,
    Infeasible,
    IoError,
    MalformedCurve,
    NonPositiveBeta,
    ParametricSingularity,
    ParseError,
    StepFailure,
    ValidationError,
)
from .io import MAX_POINTS, RunConfig, check_positive, emit_csv, emit_svg, parse_config
from .model import SystemParams
from .steady import build_polynomial, solve_steady_states
from .sweep import boundary_map, scan_folds, trace_hysteresis

# the evolve/reproduce integrations favour wall time over the library's
# tighter default; local error stays far below plotting resolution
EVOLVE_RTOL = 1e-8
EVOLVE_ATOL = 1e-10

_FIG3_SOC = {
    "fig3a": (9.98, 2.0 * math.pi / 3.0),
    "fig3b": (9.98, 4.0 * math.pi / 3.0),
    "fig3c": (4.99, math.pi),
}
FIG4_DELTAS = (0.01, 0.1, 1.0)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="cpasim",
        description="Steady states, bistability, and perfect-absorption "
                    "operating points of a driven cavity with a two-level "
                    "atom and a pumped nonlinear crystal.")
    config = argparse.ArgumentParser(add_help=False)
    config.add_argument("--config", help="YAML parameter file")
    # the commands that write files
    common = argparse.ArgumentParser(add_help=False, parents=[config])
    common.add_argument("--out", default=".", help="output directory")
    common.add_argument("--csv", action="store_true",
                        help="write CSV output (default when --svg absent)")
    common.add_argument("--svg", action="store_true", help="write SVG plots")
    common.add_argument("--gamma", type=float, default=1.0,
                        help="physical linewidth for unit rescaling on output")

    sub = ap.add_subparsers(dest="command", required=True)
    sub.add_parser("steady", parents=[config], help="steady-state roots and "
                   "stability at one parameter point (printed; no files)")
    sub.add_parser("cpa", parents=[common],
                   help="perfect-absorption operating point and feasibility")
    sub.add_parser("sweep", parents=[common],
                   help="branch-resolved input/output curve with folds")
    sub.add_parser("boundary", parents=[common],
                   help="critical coupling/detuning boundary map")
    sub.add_parser("evolve", parents=[common],
                   help="mean-field time evolution for each pump detuning")
    rep = sub.add_parser("reproduce", parents=[common],
                         help="named parameter sets")
    rep.add_argument("figure", choices=["fig2", "fig3a", "fig3b", "fig3c", "fig4"])
    return ap


def _load_config(args, required: bool = True) -> RunConfig:
    if not args.config:
        if required:
            raise ValidationError(f"'{args.command}' requires --config")
        return RunConfig(params=None)
    try:
        with open(args.config, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read config {args.config}: {exc}") from exc
    return parse_config(text)


def _params(cfg: RunConfig) -> SystemParams:
    if cfg.params is None:
        raise ValidationError("config defines no cavity (kappa missing)")
    return cfg.params


def _path(args, name: str) -> str:
    os.makedirs(args.out, exist_ok=True)
    return os.path.join(args.out, name)


def _emit(args, result, stem: str, title: str | None = None) -> None:
    if args.csv or not args.svg:
        path = _path(args, stem + ".csv")
        emit_csv(result, path, gamma_scale=args.gamma)
        print(f"wrote {path}")
    if args.svg:
        path = _path(args, stem + ".svg")
        emit_svg(result, path, gamma_scale=args.gamma, title=title)
        print(f"wrote {path}")


def _evolution_times(cfg: RunConfig, t_end: float, sample_dt: float
                     ) -> tuple[float, float]:
    """The end time and sample spacing of a run, the config's over the
    defaults given, checked where they enter: 0 < sample_dt <= t_end, and at
    most MAX_POINTS samples."""
    t_end = cfg.t_end if cfg.t_end is not None else t_end
    dt = cfg.sample_dt if cfg.sample_dt is not None else sample_dt
    if not 0.0 < dt <= t_end:
        raise ValidationError(f"sample_dt = {dt:g} must lie in (0, t_end = {t_end:g}]")
    if t_end / dt > MAX_POINTS - 1:  # integrate samples ceil(t_end / dt) + 1 times
        raise ValidationError(f"sample_dt = {dt:g} gives more than {MAX_POINTS} "
                              f"samples up to t_end = {t_end:g}")
    return t_end, dt


def _evolutions(cfg: RunConfig, p: SystemParams, deltas, t_end: float, dt: float,
                prefix: str):
    """Integrate ``p`` from the config's initial state (the vacuum by
    default) at each pump detuning of ``deltas``, yielding each detuning,
    the stem of its files, ``{prefix}_delta{delta:g}``, and its trace.
    Two detunings that name one file are a ValidationError naming both,
    raised before any integration: the second would replace the first's
    files."""
    stems: dict[str, float] = {}
    for delta in deltas:
        stem = f"{prefix}_delta{delta:g}"
        if stem in stems:
            raise ValidationError(f"deltas {stems[stem]!r} and {delta!r} both "
                                  f"write the files {stem}.*")
        stems[stem] = delta
    init = (np.asarray(cfg.initial_state) if cfg.initial_state is not None
            else vacuum_state())
    for stem, delta in stems.items():
        yield delta, stem, integrate(p, delta, init, t_end, dt,
                                     rtol=EVOLVE_RTOL, atol=EVOLVE_ATOL)


def _cmd_steady(args) -> int:
    roots = solve_steady_states(_params(_load_config(args)))
    print("n_c  stability  residual")
    for s in roots:
        print(f"{s.n_c:.12g}  {s.stability}  {s.residual:.3e}")
    if not roots:
        print("(no steady states found)")
    return 0


def _cmd_cpa(args) -> int:
    cfg = _load_config(args)
    report = verify_cpa(_params(cfg))
    print(f"n_c_cpa          = {report.n_c_cpa:.12g}")
    print(f"delta_c_required = {report.delta_c_required:.12g}")
    print(f"omega_d_cpa      = {report.omega_d_cpa:.12g}")
    print(f"input_intensity  = {report.input_intensity:.12g}")
    print(f"cooperativity    = {report.cooperativity:.12g}")
    print(f"residual_out     = {report.residual_out:.3e}")
    print(f"branch_location  = {report.branch_location}")
    print(f"feasible         = {report.feasible}"
          + (f"  ({'; '.join(report.reasons)})" if report.reasons else ""))
    _emit(args, report, "cpa")
    return 0 if report.feasible else 3


def _cmd_sweep(args) -> int:
    cfg = _load_config(args)
    curve = trace_hysteresis(_params(cfg), cfg.input_grid())
    print(f"pattern: {curve.pattern}; folds: "
          + (", ".join(f"({i:.6g}, {n:.6g})" for i, n in curve.folds) or "none"))
    _emit(args, curve, "sweep")
    return 0


def _cmd_boundary(args) -> int:
    cfg = _load_config(args)
    if cfg.g_fixed is None or cfg.delta_tls_fixed is None:
        raise ValidationError("boundary requires g_fixed and delta_tls_fixed")
    result = boundary_map(cfg.gamma, cfg.g_fixed, cfg.delta_tls_fixed,
                          cfg.beta_grid())
    n_ok = int(result.region_mask.sum())
    print(f"{n_ok} of {result.axis.size} grid nodes feasible")
    _emit(args, result, "boundary")
    return 0


def _cmd_evolve(args) -> int:
    cfg = _load_config(args)
    p = _params(cfg)
    if cfg.t_end is None:
        raise ValidationError("evolve requires t_end")
    t_end, dt = _evolution_times(cfg, cfg.t_end, cfg.t_end / 2000.0)
    for delta, stem, trace in _evolutions(cfg, p, cfg.deltas or [0.0], t_end, dt,
                                          "evolve"):
        print(f"delta={delta:g}: final n_c={trace.n_c[-1]:.6g}, "
              f"final out={trace.out_intensity[-1]:.6g}")
        _emit(args, trace, stem)
    return 0


def fig3_preset(figure: str, delta_tls: float) -> SystemParams:
    """Hysteresis configuration for one figure tag: kappa=20, g=1, the
    figure's crystal setting, and the cavity detuning the absorption
    conditions require."""
    g_nl_mag, phi = _FIG3_SOC[figure]
    base = SystemParams(kappa_l=10.0, kappa_r=10.0, g=1.0, delta_tls=delta_tls,
                        g_nl_mag=g_nl_mag, phi=phi)
    return replace(base, delta_c=cpa_cavity_detuning(base))


def fig4_preset() -> SystemParams:
    """Time-evolution configuration: the conventional-bistability setup at its
    absorption drive (photon number 2.25, input intensity 22.5)."""
    p = fig3_preset("fig3c", 4.5)
    omega_d, _ = cpa_input_amplitude(p, cpa_photon_number(p))
    return replace(p, omega_d=omega_d)


def _cmd_reproduce(args) -> int:
    fig = args.figure
    if fig == "fig2":
        if args.config:
            raise ValidationError("reproduce fig2 takes no config")
        result = boundary_map(1.0, 1.0, 20.0, np.linspace(1e-3, 0.1, 200))
        _emit(args, result, "fig2_boundary", title="absorption boundary")
        return 0
    if fig in _FIG3_SOC:
        if args.config:
            raise ValidationError(f"reproduce {fig} takes no config")
        for delta_tls in (4.5, 1.5):
            p = fig3_preset(fig, delta_tls)
            poly = build_polynomial(p)  # one polynomial and its folds per figure
            intensity_cpa = 0.5 * p.kappa * cpa_photon_number(p)
            folds = scan_folds(poly, 2.5 * intensity_cpa)
            hi = max((f[0] for f in folds), default=0.0)
            span = max(1.3 * intensity_cpa, 1.15 * hi)
            curve = trace_hysteresis(poly, np.linspace(0.0, span, 301))
            print(f"{fig} delta_tls={delta_tls:g}: pattern {curve.pattern}, "
                  f"{len(curve.folds)} folds")
            _emit(args, curve, f"{fig}_dtls{delta_tls:g}",
                  title=f"{fig}, delta_tls={delta_tls:g}")
        return 0
    # fig4; a config may override the driving/evolution parameters
    cfg = _load_config(args, required=False)
    p = cfg.params if cfg.params is not None else fig4_preset()
    t_end, dt = _evolution_times(cfg, 600.0, 0.1)
    for delta, stem, trace in _evolutions(cfg, p, cfg.deltas or FIG4_DELTAS, t_end, dt,
                                          "fig4"):
        print(f"fig4 delta={delta:g}: out min {trace.out_intensity.min():.3e}, "
              f"max {trace.out_intensity.max():.6g}")
        _emit(args, trace, stem, title=f"delta={delta:g}")
    return 0


_COMMANDS = {
    "steady": _cmd_steady,
    "cpa": _cmd_cpa,
    "sweep": _cmd_sweep,
    "boundary": _cmd_boundary,
    "evolve": _cmd_evolve,
    "reproduce": _cmd_reproduce,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if getattr(args, "gamma", None) is not None:  # the config key's rule
            check_positive("--gamma", args.gamma)
        return _COMMANDS[args.command](args)
    except (ParseError, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NonPositiveBeta, Infeasible, AsymmetricMirrors) as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 3
    except (StepFailure, ParametricSingularity, MalformedCurve, IoError,
            np.linalg.LinAlgError, ValueError, ArithmeticError) as exc:
        # a ValueError from inside numpy, scipy or the library, or float
        # arithmetic that overflows or divides by zero on extreme but finite
        # parameters: the inputs were checked where they entered, so it is
        # no config error
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())

"""Config parsing and result emission (CSV, self-contained SVG).

All numeric config values are in units of the atomic linewidth gamma; the
``gamma_scale`` argument on the emitters converts to physical units at output
time only (rates and intensities multiply, times divide).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field, fields
from itertools import chain

import numpy as np

from .cpa import CPAReport, cpa_cavity_detuning
from .dynamics import TimeTrace
from .errors import IoError, ParseError, ValidationError
from .model import Stability, SystemParams, _finite_real
from .sweep import BoundaryMap, HysteresisCurve

# the most points a grid key or an evolution's samples may ask for
MAX_POINTS = 10 ** 6


@dataclass
class RunConfig:
    """Validated parameter bundle for one CLI run."""

    # None when the config defines no cavity (boundary maps need none)
    params: SystemParams | None
    gamma: float = 1.0
    cpa_auto_detuning: bool = False
    input_min: float = 0.0
    input_max: float | None = None
    input_points: int = 301
    deltas: list[float] = field(default_factory=list)
    t_end: float | None = None
    sample_dt: float | None = None
    initial_state: list[float] | None = None
    beta_min: float | None = None
    beta_max: float | None = None
    beta_points: int = 201
    g_fixed: float | None = None
    delta_tls_fixed: float | None = None

    def input_grid(self) -> np.ndarray:
        if self.input_max is None:
            raise ValidationError("input_max is required for a sweep")
        return np.linspace(self.input_min, self.input_max, self.input_points)

    def beta_grid(self) -> np.ndarray:
        if self.beta_min is None or self.beta_max is None:
            raise ValidationError("beta_min and beta_max are required for a boundary map")
        return np.linspace(self.beta_min, self.beta_max, self.beta_points)


_PARAM_FIELDS = {f.name for f in fields(SystemParams)}
_RUN_FIELDS = {f.name for f in fields(RunConfig)} - {"params"}


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ValidationError(message)


def _finite(name: str, v) -> float:
    """The number rule (``model._finite_real``), failing as a
    ValidationError."""
    try:
        return _finite_real(name, v)
    except ValueError as exc:
        raise ValidationError(str(exc)) from None


def check_positive(name: str, value) -> float:
    """The rule for a positive config key, the flag that overrides one, and
    the emitters' ``gamma_scale``: the number rule, then > 0, else a
    ValidationError naming it.  Returns the value as a Python float."""
    value = _finite(name, value)
    _require(value > 0.0, f"{name} must be positive and finite, got {value!r}")
    return value


def _number(key, v) -> float:
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ParseError(f"key '{key}' must be a number, got {v!r}")
    return _finite(f"key '{key}'", v)


def _count(key, v) -> int:
    if isinstance(v, bool) or not isinstance(v, int):
        raise ParseError(f"key '{key}' must be an integer, got {v!r}")
    _require(v >= 2, f"{key} must be at least 2")
    _require(v <= MAX_POINTS, f"{key} must be at most {MAX_POINTS}, got {v}")
    return v


def _numbers(key, v) -> list[float]:
    if not isinstance(v, list) or not v:
        raise ParseError(f"key '{key}' must be a non-empty list of numbers")
    return [_number(key, x) for x in v]


def _flag(key, v) -> bool:
    if not isinstance(v, bool):
        raise ParseError(f"key '{key}' must be true or false, got {v!r}")
    return v


# each config key's reader, which returns its value or raises naming it
_READERS = {
    **dict.fromkeys((
        "gamma", "kappa", "kappa_l", "kappa_r", "g", "delta_c", "delta_tls",
        "g_nl_mag", "phi", "omega_d",
        "input_min", "input_max", "t_end", "sample_dt",
        "beta_min", "beta_max", "g_fixed", "delta_tls_fixed"), _number),
    "input_points": _count,
    "beta_points": _count,
    "deltas": _numbers,
    "initial_state": _numbers,
    "cpa_auto_detuning": _flag,
}


def parse_config(text: str) -> RunConfig:
    """Parse a YAML mapping into a RunConfig.

    Unknown keys are rejected (ParseError); the others are read in document
    order, so a document with several bad values names its first.  Physical
    invariants are enforced through SystemParams and re-raised as
    ValidationError naming the field.
    """
    import yaml  # here, not at module level: only a config needs it

    class Loader(yaml.SafeLoader):
        """safe_load's loader, rejecting a key given twice in one mapping
        (which would otherwise keep its last value silently)."""

        def construct_mapping(self, node, deep=False):
            seen = set()
            # the base class rejects a node that is no mapping (`!!set [1]`)
            pairs = node.value if isinstance(node, yaml.MappingNode) else []
            for key_node, _ in pairs:
                if key_node.tag == "tag:yaml.org,2002:merge":
                    continue  # a merged key may be overridden
                key = self.construct_object(key_node, deep=deep)
                try:
                    again = key in seen
                except TypeError:
                    continue  # unhashable: the base class rejects it
                if again:
                    raise yaml.constructor.ConstructorError(
                        "while constructing a mapping", node.start_mark,
                        f"found duplicate key {key!r}", key_node.start_mark)
                seen.add(key)
            return super().construct_mapping(node, deep=deep)

    # YAML 1.2's floats that YAML 1.1's pattern misses, with an exponent but
    # no dot or no exponent sign (1e-3, 1E5, 1.0e200); yaml.SafeLoader
    # itself is left as it is
    Loader.add_implicit_resolver("tag:yaml.org,2002:float", re.compile(
        r"^[-+]?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)[eE][-+]?[0-9]+$"), list("-+.0123456789"))

    try:
        doc = yaml.load(text, Loader=Loader)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = f" at line {mark.line + 1}, column {mark.column + 1}" if mark else ""
        raise ParseError(f"invalid config document{where}: {exc}") from exc
    except (ValueError, LookupError, AttributeError, RecursionError) as exc:
        # the loader's scalar constructors raise these on some malformed
        # scalars (the date 2020-13-45, `!!int ''`, `!!bool maybe`, an
        # integer of over 4300 digits), and deep nesting exhausts its
        # recursion
        raise ParseError(f"invalid config document: {type(exc).__name__}: "
                         f"{exc}") from exc
    if doc is None:
        doc = {}
    if not isinstance(doc, dict):
        raise ParseError("config must be a key/value mapping")

    # keys need not be strings: `1: 2` and `null: 1` are mappings too
    unknown = sorted(map(str, set(doc) - _READERS.keys()))
    if unknown:
        raise ParseError(f"unknown config keys: {', '.join(unknown)}")
    vals = {k: _READERS[k](k, v) for k, v in doc.items()}

    _require(not ("kappa" in vals and ("kappa_l" in vals or "kappa_r" in vals)),
             "kappa and kappa_l/kappa_r are mutually exclusive")
    _require(("kappa_l" in vals) == ("kappa_r" in vals),
             "kappa_l and kappa_r must be given together")
    auto = vals.get("cpa_auto_detuning")
    _require(not (auto and "delta_c" in vals),
             "delta_c and cpa_auto_detuning are mutually exclusive")

    for k in ("gamma", "t_end", "sample_dt"):
        if k in vals:
            check_positive(k, vals[k])

    # the dataclasses take the keys given and hold the defaults
    if "kappa" in vals:
        vals["kappa_l"] = vals["kappa_r"] = vals["kappa"] / 2.0
    params = None
    if "kappa_l" in vals:
        pkw = {k: vals[k] for k in _PARAM_FIELDS & vals.keys()}
        try:
            params = SystemParams(**pkw)
            if auto:
                pkw["delta_c"] = cpa_cavity_detuning(params)
                params = SystemParams(**pkw)
        except ValueError as exc:
            raise ValidationError(str(exc)) from exc
    else:
        _require(not auto, "cpa_auto_detuning needs a cavity (kappa missing)")
        stray = sorted((_PARAM_FIELDS - {"gamma"}) & vals.keys())
        _require(not stray,
                 f"{', '.join(stray)} given without a cavity decay rate (kappa)")

    cfg = RunConfig(params=params, **{k: vals[k] for k in _RUN_FIELDS & vals.keys()})
    if cfg.initial_state is not None:
        _require(len(cfg.initial_state) == 5, "initial_state must be 5 numbers")
    _require(cfg.input_min >= 0.0, "input_min must be >= 0")
    _require(cfg.input_max is None or cfg.input_max > cfg.input_min,
             "input_max must exceed input_min")
    if cfg.beta_min is not None or cfg.beta_max is not None:
        _require(cfg.beta_min is not None and cfg.beta_min > 0.0,
                 "beta_min must be positive")
        _require(cfg.beta_max is None or cfg.beta_max > cfg.beta_min,
                 "beta_max must exceed beta_min")
    return cfg


# each label's CSV text, looked up without the enum's value descriptor
_LABELS = {s: s.value for s in Stability}
_BOOLS = ("false", "true")


def _write(path, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def emit_csv(result, path, gamma_scale: float = 1.0) -> None:
    """Write a result to CSV with 17-significant-digit decimal formatting and
    deterministic row order.  Schema depends on the result type.
    ``gamma_scale`` follows the number rule (``model._finite_real``) and must
    be positive, else ValidationError."""
    gs = check_positive("gamma_scale", gamma_scale)
    # each schema is its header, one row's %-format and its columns, in the
    # rows' order
    if isinstance(result, HysteresisCurve):
        header = "input_intensity,n_c,output_intensity,stability,branch_id"
        row = "%.17g,%.17g,%.17g,%s,%d"
        columns = ((result.input_intensity * gs).tolist(), result.n_c.tolist(),
                   (result.output_intensity * gs).tolist(),
                   map(_LABELS.__getitem__, result.stability.tolist()),
                   result.branch_id.tolist())
    elif isinstance(result, BoundaryMap):
        header, row = "beta,g_c,delta_tls_c,feasible", "%.17g,%.17g,%.17g,%s"
        columns = ((result.axis * gs).tolist(), (result.g_c_curve * gs).tolist(),
                   (result.delta_c_curve * gs).tolist(),
                   map(_BOOLS.__getitem__, result.region_mask.tolist()))
    elif isinstance(result, TimeTrace):
        header, row = "t,n_c,out_intensity", "%.17g,%.17g,%.17g"
        columns = ((result.t / gs).tolist(), result.n_c.tolist(),
                   (result.out_intensity * gs).tolist())
    elif isinstance(result, CPAReport):
        header = ("n_c_cpa,delta_c_required,omega_d_cpa,input_intensity,feasible,"
                  "reasons,residual_out,branch_location,cooperativity,fold_lo,fold_hi")
        row = "%.17g,%.17g,%.17g,%.17g,%s,%s,%.17g,%s,%.17g,%.17g,%.17g"
        lo, hi = result.fold_window if result.fold_window else (math.nan, math.nan)
        columns = [[x] for x in (
            result.n_c_cpa, result.delta_c_required * gs, result.omega_d_cpa * gs,
            result.input_intensity * gs, _BOOLS[bool(result.feasible)], ";".join(result.reasons),
            result.residual_out * gs,
            str(result.branch_location) if result.branch_location else "",
            result.cooperativity, lo * gs, hi * gs)]
    else:
        raise TypeError(f"no CSV schema for {type(result).__name__}")
    rows = list(zip(*columns))
    _write(path, header + ("\n" + row) * len(rows) % tuple(chain.from_iterable(rows))
           + "\n")


def read_csv(path) -> tuple[list[str], list[list[str]]]:
    """Header and raw string rows of a CSV written by emit_csv."""
    try:
        with open(path, encoding="utf-8") as fh:
            rows = [line.rstrip("\n").split(",") for line in fh if line.strip()]
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc
    if not rows:
        raise ParseError(f"{path}: empty CSV")
    return rows[0], rows[1:]


# ---------------------------------------------------------------- SVG ----

_W, _H = 820, 560
_ML, _MR, _MT, _MB = 72, 24, 40, 52
_DASH = {"Stable": None, "Unstable": "7 5", "Marginal": "2 4"}


def _axis_range(values) -> tuple[float, float]:
    vals = [v for v in values if math.isfinite(v)]
    if not vals:
        return 0.0, 1.0
    lo, hi = min(vals), max(vals)
    if lo == hi:
        lo, hi = lo - 0.5, hi + 0.5
    pad = 0.04 * (hi - lo)
    return lo - pad, hi + pad


class _Plot:
    def __init__(self, xr, yr, xlabel, ylabel, title):
        self.xr, self.yr = xr, yr
        self.parts = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
            f'viewBox="0 0 {_W} {_H}" font-family="sans-serif" font-size="13">',
            f'<rect width="{_W}" height="{_H}" fill="white"/>',
        ]
        if title:
            self.parts.append(
                f'<text x="{_W / 2:.6g}" y="24" text-anchor="middle" '
                f'font-size="16">{title}</text>')
        self._frame(xlabel, ylabel)

    # pixel coordinates of a value, or elementwise of an array of values
    def x(self, v):
        lo, hi = self.xr
        return _ML + (v - lo) / (hi - lo) * (_W - _ML - _MR)

    def y(self, v):
        lo, hi = self.yr
        return _H - _MB - (v - lo) / (hi - lo) * (_H - _MT - _MB)

    def _frame(self, xlabel, ylabel):
        x0, x1 = _ML, _W - _MR
        y0, y1 = _H - _MB, _MT
        self.parts.append(
            f'<rect x="{x0}" y="{y1}" width="{x1 - x0}" height="{y0 - y1}" '
            f'fill="none" stroke="black"/>')
        for v in np.linspace(self.xr[0], self.xr[1], 6):
            px = self.x(v)
            self.parts.append(f'<line x1="{px:.6g}" y1="{y0}" x2="{px:.6g}" '
                              f'y2="{y0 + 5}" stroke="black"/>')
            self.parts.append(f'<text x="{px:.6g}" y="{y0 + 20}" '
                              f'text-anchor="middle">{v:.4g}</text>')
        for v in np.linspace(self.yr[0], self.yr[1], 6):
            py = self.y(v)
            self.parts.append(f'<line x1="{x0 - 5}" y1="{py:.6g}" x2="{x0}" '
                              f'y2="{py:.6g}" stroke="black"/>')
            self.parts.append(f'<text x="{x0 - 8}" y="{py + 4:.6g}" '
                              f'text-anchor="end">{v:.4g}</text>')
        self.parts.append(f'<text x="{(x0 + x1) / 2:.6g}" y="{_H - 12}" '
                          f'text-anchor="middle">{xlabel}</text>')
        self.parts.append(
            f'<text x="16" y="{(y0 + y1) / 2:.6g}" text-anchor="middle" '
            f'transform="rotate(-90 16 {(y0 + y1) / 2:.6g})">{ylabel}</text>')

    def polyline(self, xs, ys, color, dash=None, width=1.6):
        px = self.x(np.asarray(xs, dtype=float)).tolist()
        py = self.y(np.asarray(ys, dtype=float)).tolist()
        pts = " ".join(f"{a:.6g},{b:.6g}" for a, b in zip(px, py))
        d = f' stroke-dasharray="{dash}"' if dash else ""
        self.parts.append(f'<polyline points="{pts}" fill="none" '
                          f'stroke="{color}" stroke-width="{width}"{d}/>')

    def dot(self, xv, yv, label):
        px, py = self.x(xv), self.y(yv)
        self.parts.append(f'<circle cx="{px:.6g}" cy="{py:.6g}" r="4.5" '
                          f'fill="#d4a017" stroke="black"/>')
        self.parts.append(f'<text x="{px + 8:.6g}" y="{py - 8:.6g}" '
                          f'font-size="14">{label}</text>')

    def diamond(self, xv, yv):
        px, py = self.x(xv), self.y(yv)
        s = 5.0
        self.parts.append(
            f'<polygon points="{px:.6g},{py - s:.6g} {px + s:.6g},{py:.6g} '
            f'{px:.6g},{py + s:.6g} {px - s:.6g},{py:.6g}" fill="#444444" '
            f'stroke="black"/>')

    def rect_band(self, x_lo, x_hi):
        a, b = self.x(x_lo), self.x(x_hi)
        self.parts.append(
            f'<rect x="{a:.6g}" y="{_MT}" width="{b - a:.6g}" '
            f'height="{_H - _MT - _MB}" fill="#add8e6" fill-opacity="0.35"/>')

    def text(self, xpix, ypix, s, color="black"):
        self.parts.append(f'<text x="{xpix}" y="{ypix}" fill="{color}">{s}</text>')

    def render(self) -> str:
        return "\n".join(self.parts) + "\n</svg>\n"


def _svg_curve(curve: HysteresisCurve, gs: float, title) -> str:
    # branch by branch, each in the curve's row order (input, then n_c)
    order = np.argsort(curve.branch_id, kind="stable")
    branch, stability = curve.branch_id[order], curve.stability[order]
    inputs, n_c = curve.input_intensity[order], curve.n_c[order]
    outputs = curve.output_intensity[order]
    xs, ys = inputs * gs, outputs * gs
    xr = _axis_range(xs.tolist() or [0.0])
    yr = _axis_range(ys.tolist() or [0.0])
    plot = _Plot(xr, yr, "input intensity", "output intensity", title)
    # one polyline per run [lo, i) of a branch's points of one stability; a
    # run that ends at a change of stability passes its last point on to the
    # next run of the branch
    palette = ["#1f5fa8", "#c23b22", "#2e8b57", "#8860b2", "#b8860b"]
    ends = np.flatnonzero((branch[1:] != branch[:-1])
                          | (stability[1:] != stability[:-1])) + 1
    lo, size = 0, len(branch)
    for i in ends.tolist() + [size]:
        if i - lo >= 2:
            plot.polyline(xs[lo:i], ys[lo:i],
                          palette[int(branch[lo]) % len(palette)],
                          _DASH[stability[i - 1].value])
        lo = i - 1 if i < size and branch[i] == branch[i - 1] else i
    if size:
        for f_in, f_n in curve.folds:
            # the first point nearest the fold
            near = np.argmin(np.abs(inputs - f_in) + np.abs(n_c - f_n))
            plot.diamond(f_in * gs, outputs[near] * gs)
    n_a = n_b = 0
    for m in curve.cpa_markers:
        if m.observable:
            n_a += 1
            tag = f"A{n_a}"
        else:
            n_b += 1
            tag = f"B{n_b} (unobservable)"
        plot.dot(m.input_intensity * gs, m.output_intensity * gs, tag)
    plot.text(_ML + 10, _MT + 18, f"pattern: {curve.pattern}")
    return plot.render()


def _svg_boundary(result: BoundaryMap, gs: float, title) -> str:
    xs = result.axis * gs
    xr = _axis_range(xs)
    yr = _axis_range(list(result.g_c_curve * gs) + list(result.delta_c_curve * gs))
    plot = _Plot(xr, yr, "beta", "critical coupling / critical detuning", title)
    # shaded feasible region: each run [i, j) of the mask
    edges = np.flatnonzero(np.diff(result.region_mask, prepend=False, append=False))
    for i, j in zip(edges[::2].tolist(), edges[1::2].tolist()):
        plot.rect_band(xs[i], xs[j - 1])
    plot.polyline(xs, result.g_c_curve * gs, "#1f5fa8")
    plot.polyline(xs, result.delta_c_curve * gs, "#c23b22")
    plot.text(_ML + 10, _MT + 18, "critical coupling", "#1f5fa8")
    plot.text(_ML + 10, _MT + 36, "critical detuning", "#c23b22")
    return plot.render()


def _svg_trace(result: TimeTrace, gs: float, title) -> str:
    ts = result.t / gs
    xr = _axis_range(ts)
    yr = _axis_range(list(result.out_intensity * gs) + list(result.n_c))
    plot = _Plot(xr, yr, "time", "output intensity / photon number", title)
    plot.polyline(ts, result.out_intensity * gs, "#1f5fa8")
    plot.polyline(ts, result.n_c, "#888888", dash="5 4", width=1.2)
    plot.text(_ML + 10, _MT + 18, "output intensity", "#1f5fa8")
    plot.text(_ML + 10, _MT + 36, "photon number", "#888888")
    return plot.render()


def _svg_cpa(result: CPAReport, gs: float, title) -> str:
    intensity = result.input_intensity * gs
    xs = [intensity]
    if result.fold_window:
        xs += [result.fold_window[0] * gs, result.fold_window[1] * gs]
    xs = [x for x in xs if math.isfinite(x)] or [1.0]
    xr = _axis_range([0.0] + [1.3 * max(xs)])
    yr = _axis_range([0.0, max(intensity, 1.0) if math.isfinite(intensity) else 1.0])
    plot = _Plot(xr, yr, "input intensity", "output intensity", title)
    if result.fold_window:
        plot.rect_band(result.fold_window[0] * gs, result.fold_window[1] * gs)
        plot.text(_ML + 10, _H - _MB - 10, "bistable window", "#3a7ca5")
    if math.isfinite(intensity) and math.isfinite(result.residual_out):
        # output at the operating point is the nulling residual, i.e. ~0
        plot.dot(intensity, result.residual_out * gs, "A1")
    rows = [
        f"photon number {result.n_c_cpa:.6g}",
        f"required cavity detuning {result.delta_c_required * gs:.6g}",
        f"drive amplitude {result.omega_d_cpa * gs:.6g}",
        f"branch: {result.branch_location}" if result.branch_location else "",
        ("feasible" if result.feasible
         else "infeasible: " + "; ".join(result.reasons)),
    ]
    y = _MT + 18
    for row in rows:
        if row:
            plot.text(_ML + 10, y, row)
            y += 18
    return plot.render()


def emit_svg(result, path, gamma_scale: float = 1.0, title: str | None = None) -> None:
    """Write a self-contained SVG plot of a curve, boundary map, trace, or
    absorption report.

    Stable branches are solid, unstable dashed, marginal dotted; folds are
    diamonds; absorption points are labeled dots (A-series observable,
    B-series on unstable branches).  ``gamma_scale`` follows the number rule
    (``model._finite_real``) and must be positive, else ValidationError."""
    gs = check_positive("gamma_scale", gamma_scale)
    if isinstance(result, HysteresisCurve):
        svg = _svg_curve(result, gs, title)
    elif isinstance(result, BoundaryMap):
        svg = _svg_boundary(result, gs, title)
    elif isinstance(result, TimeTrace):
        svg = _svg_trace(result, gs, title)
    elif isinstance(result, CPAReport):
        svg = _svg_cpa(result, gs, title)
    else:
        raise TypeError(f"no SVG rendering for {type(result).__name__}")
    _write(path, svg)

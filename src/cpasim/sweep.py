"""Branch-resolved input/output curves, folds, bistability pattern
classification, and the absorption feasibility boundary map."""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .cpa import (
    WINDOW_MARGIN,
    BranchLocation,
    cpa_operating_point,
    critical_coupling,
    critical_detuning,
    place_cpa,
)
from .errors import AsymmetricMirrors, Infeasible, MalformedCurve, NonPositiveBeta
from .model import (
    Stability,
    SystemParams,
    _finite_real,
    _finite_reals,
    drive_for_input_intensity,
    output_intensities,
)
from .steady import (SelfConsistencyPolynomial, _node_states, build_polynomial,
                     solve_curve_columns)
# not called here: the benchmark's tracer (bench/tracer.py) wraps this name
from .steady import solve_steady_states  # noqa: F401


class PatternClass(enum.Enum):
    MONOSTABLE = "Monostable"
    CONVENTIONAL_BISTABLE = "ConventionalBistable"
    UNCONVENTIONAL_BISTABLE = "UnconventionalBistable"

    def __str__(self) -> str:
        return self.value


@dataclass
class CurvePoint:
    input_intensity: float
    n_c: float
    output_intensity: float
    stability: Stability
    branch_id: int


@dataclass
class CPAMarker:
    input_intensity: float
    output_intensity: float
    branch: BranchLocation
    observable: bool  # markers on unstable branches cannot be seen in a sweep


@dataclass(eq=False, repr=False)
class HysteresisCurve:
    """A branch-resolved input/output curve as columns, one row per steady
    state.  The constructor sets the row order every reader relies on: by
    input intensity, then photon number, by one stable sort."""

    input_intensity: np.ndarray
    n_c: np.ndarray
    output_intensity: np.ndarray
    stability: np.ndarray  # of Stability (object)
    branch_id: np.ndarray  # int
    folds: list[tuple[float, float]]  # (input_intensity, n_c); see scan_folds
    pattern: PatternClass
    cpa_markers: list[CPAMarker]

    def __post_init__(self) -> None:
        # on an ascending grid this is the kernel's own order already
        order = np.lexsort((self.n_c, self.input_intensity))
        self.input_intensity = np.asarray(self.input_intensity, float)[order]
        self.n_c = np.asarray(self.n_c, float)[order]
        self.output_intensity = np.asarray(self.output_intensity, float)[order]
        self.stability = np.asarray(self.stability, object)[order]
        self.branch_id = np.asarray(self.branch_id, np.intp)[order]

    def _rows(self, at) -> list[CurvePoint]:
        """The rows ``at`` (indices or a slice) as CurvePoints."""
        return list(map(CurvePoint, self.input_intensity[at].tolist(),
                        self.n_c[at].tolist(), self.output_intensity[at].tolist(),
                        self.stability[at].tolist(), self.branch_id[at].tolist()))

    def __repr__(self) -> str:
        # the columns as lists: every digit, and quicker than numpy's repr
        cols = ", ".join(repr(getattr(self, name).tolist()) for name in (
            "input_intensity", "n_c", "output_intensity", "stability", "branch_id"))
        return (f"HysteresisCurve({cols}, folds={self.folds!r}, "
                f"pattern={self.pattern!r}, cpa_markers={self.cpa_markers!r})")

    @cached_property
    def points(self) -> list[CurvePoint]:
        """Every row as a CurvePoint, built once, on first access."""
        return self._rows(slice(None))

    def window(self) -> tuple[float, float] | None:
        if not self.folds:
            return None
        xs = [f[0] for f in self.folds]
        return min(xs), max(xs)


def _runs(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Start and stop of each run of equal entries of ``x``."""
    start = np.flatnonzero(np.r_[True, x[1:] != x[:-1]][:len(x)])
    return start, np.append(start[1:], len(x))


@dataclass
class BoundaryMap:
    axis: np.ndarray  # beta grid, units of gamma
    g_c_curve: np.ndarray
    delta_c_curve: np.ndarray  # critical two-level detuning at g_fixed
    region_mask: np.ndarray  # bool: fixed (g, delta_tls) admits absorption


def _polynomial(p: SystemParams | SelfConsistencyPolynomial) -> SelfConsistencyPolynomial:
    """``p`` itself when it is a built polynomial, else ``build_polynomial(p)``."""
    return p if isinstance(p, SelfConsistencyPolynomial) else build_polynomial(p)


def scan_folds(p: SystemParams | SelfConsistencyPolynomial,
               span: float) -> list[tuple[float, float]]:
    """All fold points (input_intensity, n_c) with input intensity at most
    ``span``, sorted by input.  The edge of a window anchored at zero input
    is reported at input exactly 0.0 (see ``SelfConsistencyPolynomial``);
    ``span`` = inf gives every fold; any other span follows the number rule
    (``model._finite_real``)."""
    span = span if span == math.inf else _finite_real("span", span)
    return [f for f in _polynomial(p).folds if f[0] <= span]


def trace_hysteresis(p: SystemParams | SelfConsistencyPolynomial,
                     input_grid) -> HysteresisCurve:
    """Solve all steady branches over an ascending grid of input intensities
    and assemble the branch-resolved curve with folds, pattern label, and
    absorption markers.

    All grid nodes are solved by one call of ``steady.solve_curve_columns``
    on the curve's own polynomial and folds, whose columns become the
    curve's columns, and every root's output intensity comes from one array
    expression.  A root's branch id is the monotone segment of I(n) it was
    found on; two roots of one node on the same segment raise MalformedCurve.
    When the CPA input (``cpa.cpa_operating_point``) lies in the grid's
    range, its states come from the one-node stage of ``verify_cpa``'s
    solve on the same polynomial, with no second regime warning, and
    ``cpa.place_cpa`` places them against the curve's folds, as
    ``verify_cpa`` does.
    """
    xs = _finite_reals("input_grid entry", input_grid)
    if any(b < a for a, b in zip(xs, xs[1:])):
        raise ValueError("input_grid must be sorted ascending")
    if xs and xs[0] < 0.0:
        raise ValueError("input intensities must be >= 0")
    if not xs:
        return HysteresisCurve([], [], [], [], [], folds=[],
                               pattern=PatternClass.MONOSTABLE, cpa_markers=[])

    poly = _polynomial(p)
    p, folds = poly.p, poly.folds
    grid = np.array(xs)
    drives = drive_for_input_intensity(grid, p)
    try:
        point = cpa_operating_point(p)
    except (NonPositiveBeta, AsymmetricMirrors):
        point = None
    if point is None or point.reasons or not (
            xs[0] <= point.input_intensity <= xs[-1]):
        point = None
    roots = solve_curve_columns(poly, drives)
    node, n, ids = roots.node, roots.n_c, roots.segment
    bad = np.flatnonzero((node[1:] == node[:-1]) & (ids[1:] <= ids[:-1]))
    if bad.size:
        at = node[bad[0]]
        raise MalformedCurve(
            f"two steady states on one monotone segment at input "
            f"{xs[at]:.9g} (n_c = {n[node == at].tolist()}, segments "
            f"{ids[node == at].tolist()})")
    outputs = np.maximum(*output_intensities(roots.c_bar, drives[node], p))

    markers = []
    if point is not None:
        # the one-node stage of solve_node, at the drive as a Python float:
        # the curve's call has given this parameter set's regime warning
        placed = place_cpa(point, p, _node_states(poly, float(point.omega_d_cpa)),
                           folds)
        if placed.branch_location is not None:
            markers.append(CPAMarker(
                input_intensity=placed.input_intensity,
                output_intensity=placed.residual_out,
                branch=placed.branch_location,
                observable=placed.stability is Stability.STABLE))
    curve = HysteresisCurve(
        grid[node], n, outputs, roots.stability, ids,
        folds=[f for f in folds if xs[0] <= f[0] <= xs[-1]],
        pattern=PatternClass.MONOSTABLE, cpa_markers=markers)
    curve.pattern = classify_pattern(curve)
    return curve


def classify_pattern(curve: HysteresisCurve) -> PatternClass:
    """Label the curve's bistability pattern.

    Monostable: no folds.  ConventionalBistable: the canonical S-shape,
    meaning both folds at strictly positive input and the upper-photon-number
    branch's output above the lower branch's throughout the open window.
    UnconventionalBistable: anything else; in particular a window anchored at
    zero input (where the lower fold degenerates into the undriven
    parametric-singularity pair) or an output inversion inside the window.
    """
    win = curve.window()
    if win is None:
        return PatternClass.MONOSTABLE
    lo, hi = win
    if lo == 0.0:
        return PatternClass.UNCONVENTIONAL_BISTABLE
    # each input's first and last row: its lowest and highest n_c
    first, stop = _runs(curve.input_intensity)
    x, out = curve.input_intensity[first], curve.output_intensity
    inverted = ((lo + WINDOW_MARGIN < x) & (x < hi - WINDOW_MARGIN)
                & (stop - first > 1) & (out[stop - 1] <= out[first]))
    return (PatternClass.UNCONVENTIONAL_BISTABLE if inverted.any()
            else PatternClass.CONVENTIONAL_BISTABLE)


def follow_sweep(curve: HysteresisCurve, direction: str = "up") -> list[CurvePoint]:
    """Quasi-static branch following: the state selected at each grid node
    when the input intensity is ramped slowly up or down.

    Stays on the current branch while it is stable and jumps to the nearest
    stable root when it is not, e.g. past the fold where it terminates
    (falls back to the nearest root of any stability if no stable root
    exists there).
    """
    if direction not in ("up", "down"):
        raise ValueError("direction must be 'up' or 'down'")
    step = 1 if direction == "up" else -1
    start, stop = _runs(curve.input_intensity)
    n, ids = curve.n_c.tolist(), curve.branch_id.tolist()
    stable = (curve.stability == Stability.STABLE).tolist()
    picks: list[int] = []
    for a, b in list(zip(start.tolist(), stop.tolist()))[::step]:
        rows = [k for k in range(a, b) if stable[k]] or list(range(a, b))
        if not picks:
            picks.append(rows[0] if step > 0 else rows[-1])
            continue
        current = picks[-1]
        same = [k for k in rows if ids[k] == ids[current]]
        picks.append(same[0] if same else min(
            rows, key=lambda k: abs(n[k] - n[current])))
    return curve._rows(picks[::step])


def boundary_map(gamma: float, g_fixed: float, delta_tls_fixed: float,
                 beta_grid) -> BoundaryMap:
    """Critical coupling and critical detuning over a grid of effective decay
    rates beta, with the feasibility mask for the fixed (g, delta_tls) pair.

    The mask equals g_fixed > g_c(beta) equivalently |delta_tls_fixed| below
    the critical detuning; infeasible nodes report a critical detuning of 0.
    gamma, g_fixed, delta_tls_fixed and each beta follow the number rule
    (``model._finite_real``), and the betas must be positive and ascending,
    else ValueError.
    """
    gamma, g_fixed, delta_tls_fixed = map(_finite_real, (
        "gamma", "g_fixed", "delta_tls_fixed"), (gamma, g_fixed, delta_tls_fixed))
    betas = np.array(_finite_reals("beta_grid entry", beta_grid), dtype=float)
    if np.any(betas <= 0.0):
        raise ValueError("beta grid must be strictly positive")
    if np.any(np.diff(betas) < 0.0):
        raise ValueError("beta grid must be sorted ascending")
    g_c = np.empty_like(betas)
    d_c = np.empty_like(betas)
    mask = np.empty(betas.size, dtype=bool)
    for i, beta in enumerate(betas):
        g_c[i] = critical_coupling(beta, delta_tls_fixed, gamma)
        try:
            d_c[i] = critical_detuning(g_fixed, beta, gamma)
        except Infeasible:
            d_c[i] = 0.0
        # the two closed-form inequalities are algebraically equivalent;
        # both are checked so the mask cannot drift from either curve
        mask[i] = (g_fixed > g_c[i]) and (abs(delta_tls_fixed) < d_c[i])
    return BoundaryMap(axis=betas, g_c_curve=g_c, delta_c_curve=d_c,
                       region_mask=mask)

"""Branch-resolved input/output curves, folds, bistability pattern
classification, and the absorption feasibility boundary map."""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace

import numpy as np

from .cpa import (
    WINDOW_MARGIN,
    BranchLocation,
    critical_coupling,
    critical_detuning,
    max_output_intensity,
    verify_cpa,
)
from .errors import AsymmetricMirrors, Infeasible, MalformedCurve, NonPositiveBeta
from .model import Stability, SystemParams, drive_for_input_intensity
from .steady import (
    IMAG_RTOL,
    build_polynomial,
    curve_geometry,
    solve_steady_states,
)


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


@dataclass
class HysteresisCurve:
    points: list[CurvePoint]
    folds: list[tuple[float, float]]  # (input_intensity, n_c); see scan_folds
    pattern: PatternClass
    cpa_markers: list[CPAMarker]

    def window(self) -> tuple[float, float] | None:
        if not self.folds:
            return None
        xs = [f[0] for f in self.folds]
        return min(xs), max(xs)


@dataclass
class BoundaryMap:
    axis: np.ndarray  # beta grid, units of gamma
    g_c_curve: np.ndarray
    delta_c_curve: np.ndarray  # critical two-level detuning at g_fixed
    region_mask: np.ndarray  # bool: fixed (g, delta_tls) admits absorption


def _at_input(p: SystemParams, intensity: float) -> SystemParams:
    return replace(p, omega_d=drive_for_input_intensity(intensity, p))


def scan_folds(p: SystemParams, span: float) -> list[tuple[float, float]]:
    """All fold points (input_intensity, n_c) with input intensity at most
    ``span``, sorted by input.  The edge of a window anchored at zero input
    is reported at input exactly 0.0 (see ``steady.curve_geometry``)."""
    folds, _ = curve_geometry(build_polynomial(p), p.kappa)
    return [f for f in folds if f[0] <= span]


def _cpa_markers(p: SystemParams, grid_lo: float,
                 grid_hi: float) -> list[CPAMarker]:
    # the operating point and placement verify_cpa reports
    try:
        report = verify_cpa(p)
    except (NonPositiveBeta, AsymmetricMirrors):
        return []
    if (report.branch_location is None
            or not grid_lo <= report.input_intensity <= grid_hi):
        return []
    return [CPAMarker(input_intensity=report.input_intensity,
                      output_intensity=report.residual_out,
                      branch=report.branch_location,
                      observable=report.stability is Stability.STABLE)]


def _branch_ids(ns: list[float], edges: np.ndarray) -> list[int] | None:
    """Segment index of each root (ascending n_c), or None when two roots
    share a segment.

    Near a fold the merging pair is a near-double root of the polynomial,
    which the solver resolves only to IMAG_RTOL: both members may land on
    one side of the fold's edge.  A root that close to an edge takes the
    lowest of its two segments not taken by the root below it.
    """
    ids: list[int] = []
    for n in ns:
        tol = IMAG_RTOL * max(1.0, n)
        lo, hi = np.searchsorted(edges, [n - tol, n + tol])
        k = max(int(lo), ids[-1] + 1 if ids else 0)
        if k > hi:
            return None
        ids.append(k)
    return ids


def trace_hysteresis(p: SystemParams, input_grid) -> HysteresisCurve:
    """Solve all steady branches over an ascending grid of input intensities
    and assemble the branch-resolved curve with folds, pattern label, and
    absorption markers.

    Every grid node is an independent solve.  A root's branch id is the
    monotone segment of I(n) its photon number lies in; two roots of one
    node on the same segment raise MalformedCurve.
    """
    grid = [float(x) for x in input_grid]
    if any(b < a for a, b in zip(grid, grid[1:])):
        raise ValueError("input_grid must be sorted ascending")
    if grid and grid[0] < 0.0:
        raise ValueError("input intensities must be >= 0")
    if not grid:
        return HysteresisCurve(points=[], folds=[], cpa_markers=[],
                               pattern=PatternClass.MONOSTABLE)

    folds, edges = curve_geometry(build_polynomial(p), p.kappa)
    points: list[CurvePoint] = []
    for intensity in grid:
        p_run = _at_input(p, intensity)
        states = solve_steady_states(p_run)
        ids = _branch_ids([s.n_c for s in states], edges)
        if ids is None:
            raise MalformedCurve(
                f"two steady states on one monotone segment at input "
                f"{intensity:.9g} (n_c = {[s.n_c for s in states]}, edges "
                f"{edges.tolist()}): solver and curve geometry disagree")
        points += [CurvePoint(
            input_intensity=intensity, n_c=s.n_c,
            output_intensity=max_output_intensity(p_run, s.c_bar),
            stability=s.stability, branch_id=k) for s, k in zip(states, ids)]

    curve = HysteresisCurve(
        points=points, folds=[f for f in folds if grid[0] <= f[0] <= grid[-1]],
        pattern=PatternClass.MONOSTABLE,
        cpa_markers=_cpa_markers(p, grid[0], grid[-1]))
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
    for intensity in sorted({q.input_intensity for q in curve.points}):
        if not (lo + WINDOW_MARGIN < intensity < hi - WINDOW_MARGIN):
            continue
        pts = sorted((q for q in curve.points if q.input_intensity == intensity),
                     key=lambda q: q.n_c)
        if len(pts) < 2:
            continue
        if pts[-1].output_intensity <= pts[0].output_intensity:
            return PatternClass.UNCONVENTIONAL_BISTABLE
    return PatternClass.CONVENTIONAL_BISTABLE


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
    by_node: dict[float, list[CurvePoint]] = {}
    for q in curve.points:
        by_node.setdefault(q.input_intensity, []).append(q)
    order = sorted(by_node, reverse=(direction == "down"))
    selected: list[CurvePoint] = []
    current: CurvePoint | None = None
    for intensity in order:
        pts = sorted(by_node[intensity], key=lambda q: q.n_c)
        stable = [q for q in pts if q.stability is Stability.STABLE] or pts
        if current is None:
            pick = stable[0] if direction == "up" else stable[-1]
        else:
            same = [q for q in stable if q.branch_id == current.branch_id]
            pick = same[0] if same else min(
                stable, key=lambda q: abs(q.n_c - current.n_c))
        selected.append(pick)
        current = pick
    if direction == "down":
        selected.reverse()
    return selected


def boundary_map(gamma: float, g_fixed: float, delta_tls_fixed: float,
                 beta_grid) -> BoundaryMap:
    """Critical coupling and critical detuning over a grid of effective decay
    rates beta, with the feasibility mask for the fixed (g, delta_tls) pair.

    The mask equals g_fixed > g_c(beta) equivalently |delta_tls_fixed| below
    the critical detuning; infeasible nodes report a critical detuning of 0.
    """
    betas = np.asarray([float(b) for b in beta_grid])
    if betas.size == 0:
        return BoundaryMap(axis=betas, g_c_curve=betas.copy(),
                           delta_c_curve=betas.copy(),
                           region_mask=np.zeros(0, dtype=bool))
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

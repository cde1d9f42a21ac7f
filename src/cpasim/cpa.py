"""Perfect-absorption condition stack: operating-point formulas, feasibility
boundaries, and end-to-end verification against the steady-state solver."""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace

from .errors import AsymmetricMirrors, Infeasible, NonPositiveBeta
from .model import (
    Stability,
    SteadyState,
    SystemParams,
    _finite_real,
    output_intensities,
    soc_effective_params,
)
from .steady import build_polynomial, solve_node
# not called here: the benchmark's tracer (bench/tracer.py) wraps this name
from .steady import solve_steady_states  # noqa: F401

# A solver root must match the predicted photon number this tightly (relative).
ROOT_MATCH_RTOL = 1e-8
# Both output intensities must stay below this fraction of the input intensity.
NULLING_RTOL = 1e-12
# Inside/outside calls use this margin on the fold-window comparison.
WINDOW_MARGIN = 1e-9
# delta_c matches the required detuning within this times max(gamma, |it|).
DETUNING_MATCH_RTOL = 1e-9
# A critical-detuning radicand down to -RADICAND_ATOL gamma^2 is rounding: 0.
RADICAND_ATOL = 1e-15


class BranchLocation(enum.Enum):
    OUTSIDE_BISTABLE_STABLE = "OutsideBistableStable"
    INSIDE_BISTABLE_STABLE = "InsideBistableStable"
    INSIDE_BISTABLE_UNSTABLE = "InsideBistableUnstable"
    # Not part of the canonical four: kept for honesty when an operating point
    # lands outside every fold window on a branch that is not stable.
    OUTSIDE_BISTABLE_UNSTABLE = "OutsideBistableUnstable"
    MONOSTABLE = "Monostable"

    def __str__(self) -> str:
        return self.value


@dataclass
class CPAReport:
    """Operating point and condition checks for perfect absorption."""

    n_c_cpa: float
    delta_c_required: float
    omega_d_cpa: float
    input_intensity: float
    feasible: bool
    reasons: list[str]
    residual_out: float
    branch_location: BranchLocation | None
    cooperativity: float  # g^2 / (kappa gamma), the bare-cavity figure of merit
    fold_window: tuple[float, float] | None = None
    stability: Stability | None = None  # of the solver root at the point


def cpa_photon_number(p: SystemParams) -> float:
    """Photon number forced by the absorption conditions:

    n_c = (1/4) (gamma/beta - (gamma^2 + 4 delta_tls^2) / (2 g^2))

    May be <= 0, signalling infeasibility.  Raises NonPositiveBeta when
    beta <= 0 (the condition stack is undefined there).
    """
    beta, _ = soc_effective_params(p)
    if beta <= 0.0:
        raise NonPositiveBeta(f"beta = {beta:.6g} <= 0")
    if p.g == 0.0:
        return -math.inf
    return 0.25 * (p.gamma / beta
                   - (p.gamma ** 2 + 4.0 * p.delta_tls ** 2) / (2.0 * p.g ** 2))


def cpa_cavity_detuning(p: SystemParams) -> float:
    """Cavity detuning required by the absorption balance:

    delta_c = 2|G| sin(phi) + 2 beta delta_tls / gamma

    For delta_tls = 0 this reduces to the crystal-shift compensation
    delta_c - 2|G| sin(phi) = 0.
    """
    beta, _ = soc_effective_params(p)
    return p.crystal_quadratures[1] + 2.0 * beta * p.delta_tls / p.gamma


def _boundary_args(beta, gamma, name: str, value) -> tuple[float, float, float]:
    """``beta``, ``gamma`` and ``value`` (the argument ``name``) by the
    number rule (``model._finite_real``); NonPositiveBeta for a beta <= 0,
    and ValueError for a gamma <= 0."""
    beta, gamma, value = map(_finite_real, ("beta", "gamma", name), (beta, gamma, value))
    if beta <= 0.0:
        raise NonPositiveBeta(f"beta = {beta:.6g} <= 0")
    if gamma <= 0.0:
        raise ValueError(f"gamma must be positive, got {gamma!r}")
    return beta, gamma, value


def critical_coupling(beta: float, delta_tls: float, gamma: float) -> float:
    """Minimum atom-cavity coupling for absorption at the given detuning:

    g_c = sqrt( (beta/2) (gamma + 4 delta_tls^2 / gamma) )
    """
    beta, gamma, delta_tls = _boundary_args(beta, gamma, "delta_tls", delta_tls)
    return math.sqrt(0.5 * beta * (gamma + 4.0 * delta_tls ** 2 / gamma))


def critical_detuning(g: float, beta: float, gamma: float) -> float:
    """Largest |delta_tls| admitting absorption at coupling ``g``:

    delta_tls_c = sqrt( (g^2 gamma / beta - gamma^2 / 2) / 2 )

    Returns 0 exactly at the boundary g = critical_coupling(beta, 0, gamma);
    raises Infeasible when the radicand is negative (no detuning works).
    """
    beta, gamma, g = _boundary_args(beta, gamma, "g", g)
    radicand = 0.5 * (g ** 2 * gamma / beta - gamma ** 2 / 2.0)
    if radicand < -RADICAND_ATOL * gamma ** 2:
        raise Infeasible(
            f"coupling g = {g:.6g} is below the zero-detuning critical value "
            f"sqrt(beta gamma / 2) = {math.sqrt(0.5 * beta * gamma):.6g}")
    return math.sqrt(max(radicand, 0.0))


def cpa_input_amplitude(p: SystemParams, n_c_cpa: float) -> tuple[float, float]:
    """Drive amplitude and per-mirror input intensity at the operating point.

    Omega_d = kappa sqrt(n_c), per-mirror c_in = Omega_d / (2 sqrt(kappa/2)),
    so input_intensity = |c_in|^2 = kappa n_c / 2.  Requires symmetric mirrors.
    """
    n_c_cpa = _finite_real("n_c_cpa", n_c_cpa)
    if p.kappa_l != p.kappa_r:
        raise AsymmetricMirrors(
            f"kappa_l = {p.kappa_l:.6g} != kappa_r = {p.kappa_r:.6g}; the "
            "absorption drive reduction assumes a symmetric cavity")
    if n_c_cpa < 0:
        raise Infeasible(f"n_c_cpa = {n_c_cpa:.6g} < 0")
    omega_d = p.kappa * math.sqrt(n_c_cpa)
    input_intensity = p.kappa * n_c_cpa / 2.0
    return omega_d, input_intensity


def cooperativity(p: SystemParams) -> float:
    """Bare-cavity cooperativity g^2 / (kappa gamma); < 1 is weak coupling."""
    return p.g ** 2 / (p.kappa * p.gamma)


def _branch_location(folds: list[tuple[float, float]], input_intensity: float,
                     root_stability: Stability
                     ) -> tuple[BranchLocation, tuple[float, float] | None]:
    """Place a root at ``input_intensity`` against the fold window of the
    curve's ``folds`` (those up to 2.5x that input), with WINDOW_MARGIN on
    both edges."""
    span = max(2.5 * input_intensity, 1.0)
    xs = [x for x, _ in folds if x <= span]
    if not xs:
        return BranchLocation.MONOSTABLE, None
    lo, hi = min(xs), max(xs)
    inside = (lo + WINDOW_MARGIN) < input_intensity < (hi - WINDOW_MARGIN)
    stable = root_stability is Stability.STABLE
    if inside:
        loc = (BranchLocation.INSIDE_BISTABLE_STABLE if stable
               else BranchLocation.INSIDE_BISTABLE_UNSTABLE)
    else:
        loc = (BranchLocation.OUTSIDE_BISTABLE_STABLE if stable
               else BranchLocation.OUTSIDE_BISTABLE_UNSTABLE)
    return loc, (lo, hi)


def cpa_operating_point(p: SystemParams) -> CPAReport:
    """The condition stack of ``verify_cpa``: the operating point and every
    closed-form condition, without solving.

    A report with reasons is final (infeasible, no branch location).  One
    without reasons carries the operating drive ``omega_d_cpa`` and awaits
    ``place_cpa`` with the steady states at that drive.  Raises
    NonPositiveBeta when beta <= 0, and AsymmetricMirrors for a positive
    photon number with unequal mirrors.
    """
    n_cpa = cpa_photon_number(p)  # raises NonPositiveBeta
    beta, _ = soc_effective_params(p)
    dc_req = cpa_cavity_detuning(p)
    coop = cooperativity(p)

    reasons: list[str] = []
    g_c = critical_coupling(beta, p.delta_tls, p.gamma)
    if not p.g > g_c:
        reasons.append("CouplingBelowCritical")
    try:
        d_c = critical_detuning(p.g, beta, p.gamma)
        if not abs(p.delta_tls) < d_c:
            reasons.append("DetuningExceedsCritical")
    except Infeasible:
        # No detuning is feasible at this coupling; covered by the tag above.
        if "CouplingBelowCritical" not in reasons:
            reasons.append("CouplingBelowCritical")
    if n_cpa <= 0.0:
        reasons.append("NonPositivePhotonNumber")
    if abs(p.delta_c - dc_req) > (DETUNING_MATCH_RTOL * p.gamma
                                  * max(1.0, abs(dc_req) / p.gamma)):
        reasons.append("CavityDetuningMismatch")

    # without reasons n_cpa > 0
    omega_d, intensity = (cpa_input_amplitude(p, n_cpa) if n_cpa > 0
                          else (0.0, 0.0))  # raises AsymmetricMirrors
    return CPAReport(
        n_c_cpa=n_cpa, delta_c_required=dc_req, omega_d_cpa=omega_d,
        input_intensity=intensity, feasible=False, reasons=reasons,
        residual_out=math.nan, branch_location=None, cooperativity=coop)


def place_cpa(point: CPAReport, p: SystemParams, states: list[SteadyState],
              folds: list[tuple[float, float]]) -> CPAReport:
    """Complete an operating point of ``cpa_operating_point`` (one without
    reasons) from ``states``, every steady state of ``p`` at the drive
    ``point.omega_d_cpa`` (``steady.solve_node``), and ``folds``, the
    curve's folds (``steady.SelfConsistencyPolynomial.folds``).

    The state nearest the predicted photon number must match it to
    ROOT_MATCH_RTOL, else the report is SolverRootMismatch.  Feasibility
    needs both output intensities there below NULLING_RTOL times the input
    intensity; the branch location places the state against the fold
    window.
    """
    n_cpa, intensity = point.n_c_cpa, point.input_intensity
    match = min(states, key=lambda s: abs(s.n_c - n_cpa), default=None)
    if match is None or abs(match.n_c - n_cpa) > ROOT_MATCH_RTOL * n_cpa:
        return replace(point, reasons=["SolverRootMismatch"])
    residual_out = max(output_intensities(match.c_bar, point.omega_d_cpa, p))
    feasible = residual_out < NULLING_RTOL * intensity
    location, window = _branch_location(folds, intensity, match.stability)
    return replace(point, feasible=feasible,
                   reasons=[] if feasible else ["OutputsNotNulled"],
                   residual_out=residual_out, branch_location=location,
                   fold_window=window, stability=match.stability)


def verify_cpa(p: SystemParams) -> CPAReport:
    """Assemble the operating point, check every condition, and confirm by
    direct computation of both output fields at the solved steady state:
    ``cpa_operating_point``, then ``place_cpa`` with a one-node solve at the
    operating drive and the folds, both from one ``build_polynomial(p)``.

    The conditions are treated as necessary only: feasibility is granted when
    the solver finds the predicted root and both mean outputs vanish to
    NULLING_RTOL times the input intensity.  ``delta_c`` is never adjusted:
    a mismatch against the required value is reported as infeasible.
    """
    point = cpa_operating_point(p)
    if point.reasons:
        return point
    poly = build_polynomial(p)
    return place_cpa(point, p, solve_node(poly, point.omega_d_cpa), poly.folds)

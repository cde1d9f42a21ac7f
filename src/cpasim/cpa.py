"""Perfect-absorption condition stack: operating-point formulas, feasibility
boundaries, and end-to-end verification against the steady-state solver."""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace

from .errors import AsymmetricMirrors, Infeasible, NonPositiveBeta, PreconditionViolated
from .model import (
    Stability,
    SystemParams,
    balanced_input_fields,
    output_fields,
    soc_effective_params,
)
from .steady import build_polynomial, curve_geometry, solve_steady_states

# A solver root must match the predicted photon number this tightly (relative).
ROOT_MATCH_RTOL = 1e-8
# Both output intensities must stay below this fraction of the input intensity.
NULLING_RTOL = 1e-12
# Inside/outside calls use this margin on the fold-window comparison.
WINDOW_MARGIN = 1e-9
# beta values are considered shared when they differ by at most this (per gamma).
BETA_MATCH_ATOL = 1e-12


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
    return 2.0 * p.g_nl_mag * math.sin(p.phi) + 2.0 * beta * p.delta_tls / p.gamma


def critical_coupling(beta: float, delta_tls: float, gamma: float) -> float:
    """Minimum atom-cavity coupling for absorption at the given detuning:

    g_c = sqrt( (beta/2) (gamma + 4 delta_tls^2 / gamma) )
    """
    if beta <= 0.0:
        raise NonPositiveBeta(f"beta = {beta:.6g} <= 0")
    if gamma <= 0.0:
        raise ValueError("gamma must be positive")
    return math.sqrt(0.5 * beta * (gamma + 4.0 * delta_tls ** 2 / gamma))


def critical_detuning(g: float, beta: float, gamma: float) -> float:
    """Largest |delta_tls| admitting absorption at coupling ``g``:

    delta_tls_c = sqrt( (g^2 gamma / beta - gamma^2 / 2) / 2 )

    Returns 0 exactly at the boundary g = critical_coupling(beta, 0, gamma);
    raises Infeasible when the radicand is negative (no detuning works).
    """
    if beta <= 0.0:
        raise NonPositiveBeta(f"beta = {beta:.6g} <= 0")
    if gamma <= 0.0:
        raise ValueError("gamma must be positive")
    radicand = 0.5 * (g ** 2 * gamma / beta - gamma ** 2 / 2.0)
    if radicand < -1e-15 * gamma ** 2:
        raise Infeasible(
            f"coupling g = {g:.6g} is below the zero-detuning critical value "
            f"sqrt(beta gamma / 2) = {math.sqrt(0.5 * beta * gamma):.6g}")
    return math.sqrt(max(radicand, 0.0))


def cpa_input_amplitude(p: SystemParams, n_c_cpa: float) -> tuple[float, float]:
    """Drive amplitude and per-mirror input intensity at the operating point.

    Omega_d = kappa sqrt(n_c), per-mirror c_in = Omega_d / (2 sqrt(kappa/2)),
    so input_intensity = |c_in|^2 = kappa n_c / 2.  Requires symmetric mirrors.
    """
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


def max_output_intensity(p_run: SystemParams, c_bar: complex) -> float:
    """The larger of the two output intensities at intracavity field c_bar
    under the balanced drive of ``p_run``."""
    c_in_l, c_in_r = balanced_input_fields(p_run)
    out_l, out_r = output_fields(c_bar, c_in_l, c_in_r, p_run)
    return max(abs(out_l) ** 2, abs(out_r) ** 2)


def _branch_location(p_run: SystemParams, input_intensity: float,
                     root_stability: Stability
                     ) -> tuple[BranchLocation, tuple[float, float] | None]:
    """Place a root at ``input_intensity`` against the fold window of the
    curve (folds up to 2.5x that input), with WINDOW_MARGIN on both edges."""
    span = max(2.5 * input_intensity, 1.0)
    folds, _ = curve_geometry(build_polynomial(p_run), p_run.kappa)
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


def verify_cpa(p: SystemParams) -> CPAReport:
    """Assemble the operating point, check every condition, and confirm by
    direct computation of both output fields at the solved steady state.

    The conditions are treated as necessary only: feasibility is granted when
    the solver finds the predicted root and both mean outputs vanish to
    NULLING_RTOL times the input intensity.  ``delta_c`` is never adjusted:
    a mismatch against the required value is reported as infeasible.
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
    if abs(p.delta_c - dc_req) > 1e-9 * p.gamma * max(1.0, abs(dc_req) / p.gamma):
        reasons.append("CavityDetuningMismatch")

    if reasons:
        omega_d, intensity = (cpa_input_amplitude(p, n_cpa) if n_cpa > 0
                              else (0.0, 0.0))
        return CPAReport(
            n_c_cpa=n_cpa, delta_c_required=dc_req, omega_d_cpa=omega_d,
            input_intensity=intensity, feasible=False, reasons=reasons,
            residual_out=math.nan, branch_location=None, cooperativity=coop)

    omega_d, intensity = cpa_input_amplitude(p, n_cpa)  # raises AsymmetricMirrors
    p_run = replace(p, omega_d=omega_d)
    roots = solve_steady_states(p_run)
    match = min(roots, key=lambda s: abs(s.n_c - n_cpa), default=None)
    if match is None or abs(match.n_c - n_cpa) > ROOT_MATCH_RTOL * n_cpa:
        return CPAReport(
            n_c_cpa=n_cpa, delta_c_required=dc_req, omega_d_cpa=omega_d,
            input_intensity=intensity, feasible=False,
            reasons=["SolverRootMismatch"], residual_out=math.nan,
            branch_location=None, cooperativity=coop)

    residual_out = max_output_intensity(p_run, match.c_bar)
    feasible = residual_out < NULLING_RTOL * intensity

    location, window = _branch_location(p_run, intensity, match.stability)
    if not feasible:
        reasons.append("OutputsNotNulled")
    return CPAReport(
        n_c_cpa=n_cpa, delta_c_required=dc_req, omega_d_cpa=omega_d,
        input_intensity=intensity, feasible=feasible, reasons=reasons,
        residual_out=residual_out, branch_location=location,
        cooperativity=coop, fold_window=window, stability=match.stability)


def cpa_invariance_check(p1: SystemParams, p2: SystemParams) -> bool:
    """True iff the two parameter sets, differing only in the crystal settings
    (|G|, phi) at equal beta, predict the same operating point (photon number
    and input intensity) to 1e-12 relative.

    The required cavity detuning is allowed to differ (it tracks 2|G|sin(phi));
    only the location in the input/output plane is invariant.
    """
    for name in ("gamma", "kappa_l", "kappa_r", "g", "delta_tls"):
        if getattr(p1, name) != getattr(p2, name):
            raise PreconditionViolated(
                f"parameter sets differ in {name}; only (g_nl_mag, phi) may vary")
    b1, _ = soc_effective_params(p1)
    b2, _ = soc_effective_params(p2)
    if abs(b1 - b2) > BETA_MATCH_ATOL * p1.gamma:
        raise PreconditionViolated(
            f"beta values differ: {b1:.15g} vs {b2:.15g}")

    n1 = cpa_photon_number(p1)
    n2 = cpa_photon_number(p2)

    def rel(a: float, b: float) -> float:
        return abs(a - b) / max(abs(a), abs(b), 1e-300)

    if rel(n1, n2) > 1e-12:
        return False
    if n1 > 0.0 and n2 > 0.0:
        _, i1 = cpa_input_amplitude(p1, n1)
        _, i2 = cpa_input_amplitude(p2, n2)
        if rel(i1, i2) > 1e-12:
            return False
    return True

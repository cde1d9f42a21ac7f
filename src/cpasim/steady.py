"""Steady-state solver: polynomial reduction of the self-consistency condition,
root refinement, and linear stability of the 5-dimensional mean-field flow."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npoly

from .errors import ParametricRegimeWarning, ParametricSingularity
from .model import (
    Stability,
    SteadyState,
    SystemParams,
    atomic_expectations,
    intracavity_field,
)

# Roots with n_c >= -EPS_ROOT are clamped to zero; more negative ones dropped.
EPS_ROOT = 1e-12
# Imaginary parts up to this fraction of max(1, |Re|) are rounding, not
# complex roots.
IMAG_RTOL = 1e-7
# Near-coincident real roots (fold points) are merged within this radius.
MERGE_RADIUS = 1e-8
# Half-width of the Marginal band for the largest eigenvalue real part, per gamma.
EPS_STAB = 1e-9
# Default residual tolerance scale for solve_steady_states.
EPS_RES = 1e-9


@dataclass(frozen=True)
class SelfConsistencyPolynomial:
    """Real-coefficient polynomial in n_c whose nonnegative roots are the
    candidate steady-state photon numbers.

    Coefficients are ascending (coeffs[k] multiplies n_c**k), degree <= 5.
    The constant term is -(a squared magnitude): <= 0 whenever omega_d > 0.

    The drive enters only as a factor: coeffs = free - omega_d^2 drive, with
    the drive-free factors ``free`` and ``drive`` kept alongside.  ``q`` is the
    cleared denominator Q (free = n Q^2); it is None for |G| = 0, where the
    positive Q was divided out and free = n Q.
    """

    coeffs: np.ndarray
    free: np.ndarray
    drive: np.ndarray
    q: np.ndarray | None

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, n_c):
        return npoly.polyval(n_c, self.coeffs)

    def derivative(self, n_c):
        return npoly.polyval(n_c, npoly.polyder(self.coeffs))


def _poly_pieces(p: SystemParams):
    """Coefficient arrays (ascending in n_c) of the building blocks:

    D = gamma^2/4 + delta_tls^2 + 2 g^2 n
    A = (kappa/2) D + g^2 gamma / 2          (real part of the cleared response)
    B = delta_c D - g^2 delta_tls            (imaginary part)
    Q = A^2 + B^2 - 4|G|^2 D^2               (cleared denominator)
    R = (A + 2 Re(G) D)^2 + (2 Im(G) D - B)^2  (cleared numerator magnitude^2)
    """
    D0 = p.gamma ** 2 / 4.0 + p.delta_tls ** 2
    D = np.array([D0, 2.0 * p.g ** 2])
    A = npoly.polyadd((p.kappa / 2.0) * D, [p.g ** 2 * p.gamma / 2.0])
    B = npoly.polyadd(p.delta_c * D, [-p.g ** 2 * p.delta_tls])
    g_re = p.g_nl_mag * math.cos(p.phi)
    g_im = p.g_nl_mag * math.sin(p.phi)
    Q = npoly.polysub(npoly.polyadd(npoly.polymul(A, A), npoly.polymul(B, B)),
                      4.0 * p.g_nl_mag ** 2 * npoly.polymul(D, D))
    if _at_bare_threshold(p):
        # Q's n^2 coefficient is 4 g^4 times the bare threshold margin, and
        # for g = 0 all of Q is D0^2 times it; the sum above leaves rounding
        # there, which puts a spurious root near 1e15 and spoils the others
        Q[2 if p.g > 0.0 else 0:] = 0.0
    Rp = npoly.polyadd(A, 2.0 * g_re * D)
    Rq = npoly.polysub(2.0 * g_im * D, np.atleast_1d(B))
    R = npoly.polyadd(npoly.polymul(Rp, Rp), npoly.polymul(Rq, Rq))
    return D, Q, R


def build_polynomial(p: SystemParams) -> SelfConsistencyPolynomial:
    """Denominator-cleared self-consistency polynomial in n_c.

    Generic case:  P(n) = n Q(n)^2 - omega_d^2 R(n) D(n)^2   (degree <= 5).
    For |G| = 0 exactly, R == Q and Q = A^2 + B^2 > 0 carries no roots, so the
    positive factor Q is divided out and the classic bistability cubic
    C(n) = n Q(n) - omega_d^2 D(n)^2 is returned instead (degree <= 3; it
    collapses to degree 1 when additionally g = 0).
    """
    D, Q, R = _poly_pieces(p)
    DD = npoly.polymul(D, D)
    if p.g_nl_mag == 0.0:
        free, drive, q = npoly.polymulx(Q), DD, None
    else:
        free, drive, q = npoly.polymulx(npoly.polymul(Q, Q)), npoly.polymul(R, DD), Q
    coeffs = npoly.polysub(free, p.omega_d ** 2 * drive)
    coeffs = np.atleast_1d(npoly.polytrim(coeffs, tol=0.0))
    return SelfConsistencyPolynomial(coeffs=coeffs, free=free, drive=drive, q=q)


def nonnegative_real_roots(coeffs) -> list[float]:
    """Sorted distinct real roots n >= 0 of a polynomial (ascending
    coefficients).  Imaginary parts within IMAG_RTOL are rounding, roots down
    to -EPS_ROOT are clamped to 0, and roots within MERGE_RADIUS (relative)
    merge into the lower one."""
    candidates = sorted(
        max(float(z.real), 0.0) for z in npoly.polyroots(coeffs)
        if abs(z.imag) <= IMAG_RTOL * max(1.0, abs(z.real))
        and z.real >= -EPS_ROOT)
    merged: list[float] = []
    for n in candidates:
        if merged and n - merged[-1] <= MERGE_RADIUS * max(1.0, n):
            continue
        merged.append(n)
    return merged


def curve_geometry(poly: SelfConsistencyPolynomial, kappa: float
                   ) -> tuple[list[tuple[float, float]], np.ndarray]:
    """Folds and branch edges of the steady-state curve.

    Along the curve the per-mirror input intensity is the rational function
    I(n) = free(n) / (2 kappa drive(n)), so its turning points are the zeros
    of W = free' drive - free drive'.  W = Q V, and the folds are the
    positive roots of V (of W itself for |G| = 0).  The positive zeros of Q
    are the undriven singular states, where I = 0 exactly: they are the
    edges of a window anchored at zero input and are reported as folds at
    input 0.0.  A fold on a zero of R is a pole of I, reported at input inf.

    Returns the folds as (input_intensity, n_c) sorted by input, and the
    sorted n_c of all of them: branch k is the open segment between edges
    k-1 and k, on which I(n) is monotone, so a branch holds at most one
    steady state at any input.
    """
    free, drive, q = poly.free, poly.drive, poly.q
    if q is None:
        v = npoly.polysub(npoly.polymul(npoly.polyder(free), drive),
                          npoly.polymul(free, npoly.polyder(drive)))
        anchored = []
    else:
        # free = n Q^2, so W = Q ((Q + 2 n Q') drive - n Q drive')
        v = npoly.polysub(
            npoly.polymul(npoly.polyadd(q, 2.0 * npoly.polymulx(npoly.polyder(q))),
                          drive),
            npoly.polymul(npoly.polymulx(q), npoly.polyder(drive)))
        anchored = [(0.0, n) for n in nonnegative_real_roots(q) if n > 0.0]
    folds = anchored
    for n in nonnegative_real_roots(v):
        if n == 0.0:
            continue
        den = 2.0 * kappa * float(npoly.polyval(n, drive))
        folds.append((float(npoly.polyval(n, free)) / den if den > 0.0
                      else math.inf, n))
    edges = np.array(sorted(n for _, n in folds))
    return sorted(folds), edges


def self_consistency_residual(n_c: float, p: SystemParams) -> float:
    """Denominator-cleared fixed-point residual F(n_c).

    Equals ``build_polynomial(p)`` evaluated at ``n_c``: the literal residual
    n (kappa0^2 + delta0^2 - 4|G|^2)^2 - |(kappa0 - i delta0 + 2G) omega_d|^2
    multiplied through by D(n_c)^4 (and, for |G| = 0, additionally divided by
    the strictly positive factor Q).  D > 0 for n_c >= 0, so sign changes of F
    locate the fixed points of the full rational condition.
    """
    return float(build_polynomial(p)(n_c))


@dataclass(frozen=True)
class StabilityReport:
    """Eigenvalues of the 5x5 mean-field Jacobian and the derived class."""

    eigenvalues: np.ndarray
    stability: Stability
    margin: float  # max real part


def bare_threshold_margin(p: SystemParams) -> float:
    """(kappa/2)^2 + delta_c^2 - 4|G|^2: negative at/above the bare-cavity
    parametric-oscillation threshold (the large-n_c limit of the cleared
    denominator)."""
    return (p.kappa / 2.0) ** 2 + p.delta_c ** 2 - 4.0 * p.g_nl_mag ** 2


def _at_bare_threshold(p: SystemParams) -> bool:
    """True when the bare threshold margin is zero to within the rounding of
    its terms."""
    terms = (p.kappa / 2.0) ** 2 + p.delta_c ** 2 + 4.0 * p.g_nl_mag ** 2
    return abs(bare_threshold_margin(p)) <= 4.0 * np.finfo(float).eps * terms


def oracle_scan_bound(p: SystemParams) -> float:
    """Upper n_c bound for dense scans: 10x the linear-cavity estimate,
    floored at 100."""
    return max(100.0, 10.0 * p.omega_d ** 2 / (p.kappa / 2.0) ** 2)


def _jacobian_matrix(c_bar: complex, sigma_minus: complex, sigma_z: float,
                     p: SystemParams) -> np.ndarray:
    x1, x2 = c_bar.real, c_bar.imag
    x3, x4 = sigma_minus.real, sigma_minus.imag
    g_re = p.g_nl_mag * math.cos(p.phi)
    g_im = p.g_nl_mag * math.sin(p.phi)
    k2 = p.kappa / 2.0
    g = p.g
    return np.array([
        [-k2 + 2.0 * g_re, p.delta_c + 2.0 * g_im, 0.0, g, 0.0],
        [-p.delta_c + 2.0 * g_im, -k2 - 2.0 * g_re, -g, 0.0, 0.0],
        [0.0, -2.0 * g * sigma_z, -p.gamma / 2.0, p.delta_tls, -2.0 * g * x2],
        [2.0 * g * sigma_z, 0.0, -p.delta_tls, -p.gamma / 2.0, 2.0 * g * x1],
        [-2.0 * g * x4, 2.0 * g * x3, 2.0 * g * x2, -2.0 * g * x1, -p.gamma],
    ])


def jacobian(s: SteadyState, p: SystemParams) -> np.ndarray:
    """Jacobian of the mean-field vector field (Re c, Im c, Re s-, Im s-, sz)
    at the fixed point ``s``, including the conjugate coupling 2 G c*."""
    return _jacobian_matrix(s.c_bar, s.sigma_minus_bar, s.sigma_z_bar, p)


def classify_stability(j: np.ndarray, eps_stab: float = EPS_STAB) -> StabilityReport:
    """Eigenvalue classification: Stable iff max Re < -eps_stab, Unstable iff
    > +eps_stab, Marginal in the band between (fold points sit at zero)."""
    eigenvalues = np.linalg.eigvals(j)
    margin = float(eigenvalues.real.max())
    if margin < -eps_stab:
        cls = Stability.STABLE
    elif margin > eps_stab:
        cls = Stability.UNSTABLE
    else:
        cls = Stability.MARGINAL
    return StabilityReport(eigenvalues=eigenvalues, stability=cls, margin=margin)


def _refine_root(poly: SelfConsistencyPolynomial, n0: float) -> float:
    """Newton polish of a simple root; leaves near-multiple roots untouched."""
    n = n0
    scale = max(1.0, abs(n0))
    for _ in range(40):
        f = float(poly(n))
        fp = float(poly.derivative(n))
        if fp == 0.0:
            break
        step = f / fp
        # A huge Newton step means the derivative is tiny (near-double root):
        # the companion-matrix value is then the more trustworthy one.
        if abs(step) > 0.1 * scale:
            return n0
        n -= step
        if abs(step) < 1e-15 * scale:
            break
    if n < 0.0 or abs(n - n0) > 1e-3 * scale:
        return n0
    return n


def _warn_undriven_singular(p: SystemParams) -> None:
    # Positive zeros of Q are the undriven parametric-oscillation boundary
    # states; their amplitude is indeterminate at mean field, so they are
    # excluded exactly like driven roots that land on the singularity.
    _, q_coeffs, _ = _poly_pieces(p)
    zeros = [z for z in nonnegative_real_roots(q_coeffs) if z > 0.0]
    if zeros:
        listed = ", ".join(f"{z:.9g}" for z in zeros)
        warnings.warn(
            f"undriven parametric-singularity state(s) at n_c = {listed} "
            "excluded; only the vacuum is reported at zero drive",
            RuntimeWarning, stacklevel=3)


def solve_steady_states(p: SystemParams, tol_res: float = EPS_RES,
                        eps_stab: float = EPS_STAB) -> list[SteadyState]:
    """All self-consistent steady states, sorted by photon number.

    Roots of the cleared polynomial are filtered to the real nonnegative axis,
    deduplicated within MERGE_RADIUS, Newton-refined, residual-checked against
    ``tol_res`` times the polynomial scale, mapped to full mean-field states,
    and stability-classified.  Roots sitting at the parametric singularity
    (denominator below the guard) are excluded with a RuntimeWarning.

    Emits ParametricRegimeWarning when the bare cavity is at/above the
    parametric threshold: the reported roots are still residual-verified, but
    branches at large n_c are typically unstable there.
    """
    if bare_threshold_margin(p) <= 0.0:
        warnings.warn(
            "bare cavity at/above the parametric-oscillation threshold "
            "((kappa/2)^2 + delta_c^2 <= 4|G|^2); reporting verified roots only",
            ParametricRegimeWarning, stacklevel=2)

    if p.omega_d == 0.0:
        # Undriven: the polynomial degenerates to n Q(n)^2 whose positive
        # roots are exact double roots at the parametric-singularity points.
        # Float root-finding splits them unpredictably, so handle the case
        # exactly: the only steady state is the vacuum.
        _warn_undriven_singular(p)
        j = _jacobian_matrix(0.0 + 0.0j, 0.0 + 0.0j, -0.5, p)
        report = classify_stability(j, eps_stab=eps_stab)
        return [SteadyState(n_c=0.0, c_bar=0.0 + 0.0j,
                            sigma_minus_bar=0.0 + 0.0j, sigma_z_bar=-0.5,
                            stability=report.stability, residual=0.0)]

    poly = build_polynomial(p)

    # Residual acceptance scale: the float-evaluation magnitude sum |c_k| n^k
    # (>= the |c_lead| n^deg term that dominates for large roots).  Anything
    # smaller is below the reachable rounding floor for small roots whose
    # polynomial has large low-order coefficients.
    abs_coeffs = np.abs(poly.coeffs)

    states: list[SteadyState] = []
    for n0 in nonnegative_real_roots(poly.coeffs):
        n = _refine_root(poly, n0)
        res = float(poly(n))
        scale = max(1.0, float(npoly.polyval(n, abs_coeffs)))
        if abs(res) > max(tol_res, EPS_RES) * scale:
            continue
        try:
            c_bar = intracavity_field(n, p)
        except ParametricSingularity:
            warnings.warn(
                f"root n_c={n:.9g} lies at the parametric singularity "
                "(denominator under the guard) and was excluded",
                RuntimeWarning, stacklevel=2)
            continue
        sigma_minus, sigma_z = atomic_expectations(c_bar, p)
        report = classify_stability(
            _jacobian_matrix(c_bar, sigma_minus, sigma_z, p), eps_stab=eps_stab)
        states.append(SteadyState(
            n_c=n, c_bar=c_bar, sigma_minus_bar=sigma_minus,
            sigma_z_bar=sigma_z, stability=report.stability, residual=res))
    states.sort(key=lambda s: s.n_c)
    return states

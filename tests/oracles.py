"""Independent oracles used to pin expected values.

Everything here is computed from the closed-form mean-field expressions
directly (complex arithmetic, dense grids, finite differences), never through
the polynomial assembly or the solver being tested.
"""

import math

import numpy as np
from scipy.integrate import solve_ivp

from cpasim.dynamics import mean_field_rhs


def field_gain_pieces(n, p):
    """Dressed-cavity response at photon number n via complex arithmetic:
    returns (kappa0, delta0, t, m) with t the parametric denominator and m
    the squared numerator magnitude of the steady field."""
    n = np.asarray(n, dtype=float)
    datom = 0.5 * p.gamma + 1j * p.delta_tls
    d0 = abs(datom) ** 2
    sz = -0.5 * d0 / (d0 + 2.0 * p.g ** 2 * n)
    chi = 2.0 * p.g ** 2 * sz / datom  # atomic susceptibility term
    kappa0 = 0.5 * p.kappa - chi.real
    delta0 = p.delta_c - chi.imag
    g_re = p.g_nl_mag * math.cos(p.phi)
    g_im = p.g_nl_mag * math.sin(p.phi)
    t = kappa0 ** 2 + delta0 ** 2 - 4.0 * p.g_nl_mag ** 2
    m = (kappa0 + 2.0 * g_re) ** 2 + (2.0 * g_im - delta0) ** 2
    return kappa0, delta0, t, m


def balance_mismatch(n, p):
    """h(n) = |steady field(n)|^2 - n.  Zeros are self-consistent photon
    numbers; the parametric denominator enters squared, so h -> +inf on both
    sides of a singularity and poles add no sign change."""
    _, _, t, m = field_gain_pieces(n, p)
    return p.omega_d ** 2 * m / t ** 2 - np.asarray(n, dtype=float)


def count_sign_changes(p, n_max, nodes=20001):
    """Root count of h on [0, n_max] by dense-grid sign changes, with one
    local refinement pass so nearly-merged pairs are resolved."""
    grid = np.linspace(0.0, n_max, nodes)
    vals = balance_mismatch(grid, p)
    flip = np.sign(vals[:-1]) * np.sign(vals[1:]) < 0
    changes = int(np.count_nonzero(flip))
    # refine cells that did NOT flip but dip toward zero: a close pair hides there
    dx = grid[1] - grid[0]
    near = np.minimum(np.abs(vals[:-1]), np.abs(vals[1:])) < dx * 1e3
    for i in np.nonzero(near & ~flip)[0]:
        sub = np.linspace(grid[i], grid[i + 1], 401)
        sv = balance_mismatch(sub, p)
        changes += int(np.count_nonzero(np.sign(sv[:-1]) * np.sign(sv[1:]) < 0))
    return changes


def window_root_count(p_at, intensity, n_lo, n_hi, nodes=30001):
    """Sign-change count of h restricted to [n_lo, n_hi] at a given input
    intensity; used for fold bisection where the merging pair lives."""
    p = p_at(intensity)
    grid = np.linspace(n_lo, n_hi, nodes)
    vals = balance_mismatch(grid, p)
    return int(np.count_nonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0))


def bisect_fold(p_at, lo, hi, n_lo, n_hi, tol=1e-9):
    """Input intensity where the sign-change count inside [n_lo, n_hi] drops;
    pure closed-form evaluation, no polynomial roots involved."""
    c_lo = window_root_count(p_at, lo, n_lo, n_hi)
    c_hi = window_root_count(p_at, hi, n_lo, n_hi)
    assert c_lo != c_hi, "bracket does not cross a fold"
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if window_root_count(p_at, mid, n_lo, n_hi) == c_lo:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def numerical_jacobian(state, p, h=1e-6):
    """Central finite differences of the mean-field right-hand side."""
    state = np.asarray(state, dtype=float)
    jac = np.empty((5, 5))
    for k in range(5):
        dx = np.zeros(5)
        dx[k] = h
        fp = mean_field_rhs(state + dx, 0.0, p)
        fm = mean_field_rhs(state - dx, 0.0, p)
        jac[:, k] = (fp - fm) / (2.0 * h)
    return jac


def numerical_stability(state, p, min_margin=1e-6):
    """"Stable" or "Unstable" from the largest eigenvalue real part of
    numerical_jacobian.  Returns None (no label) when that real part lies
    within ``min_margin`` of zero, where finite-difference error could flip
    the sign."""
    margin = float(np.linalg.eigvals(numerical_jacobian(state, p)).real.max())
    if abs(margin) < min_margin:
        return None
    return "Unstable" if margin > 0.0 else "Stable"


def reference_trajectory(p, delta, initial, t_eval, rtol, atol):
    """States at ``t_eval`` (starting at 0) from scipy's Python DOP853 in
    ``solve_ivp``, read off its dense output: the same method as the
    library's stepper, an independent implementation of it."""
    sol = solve_ivp(lambda t, y: mean_field_rhs(y, t, p, delta),
                    (0.0, t_eval[-1]), np.asarray(initial, dtype=float),
                    method="DOP853", t_eval=t_eval, rtol=rtol, atol=atol)
    assert sol.success, sol.message
    return sol.y.T


def bloch_norm(state):
    """|sigma_minus|^2 + sigma_z^2 for a real 5-vector state."""
    return state[2] ** 2 + state[3] ** 2 + state[4] ** 2


def soc_setting_for_beta(target_beta, phi, kappa=20.0):
    """Crystal magnitude putting kappa/2 + 2|G|cos(phi) at ``target_beta``.

    The closed-form |G| is nudged by ulps until the float evaluation of the
    effective decay (same arithmetic path as the library) is as close to the
    target as the lattice of representable sums allows; the small residual gets
    amplified by 1/beta^2 in the operating point, so sub-ulp agreement matters.
    Returns (g_mag, beta_achieved).
    """
    c = math.cos(phi)
    g0 = (target_beta - 0.5 * kappa) / (2.0 * c)

    def achieved(g):
        return 0.5 * kappa + 2.0 * g * c

    best, best_err = g0, abs(achieved(g0) - target_beta)
    up = dn = g0
    for _ in range(80):
        up = math.nextafter(up, math.inf)
        dn = math.nextafter(dn, -math.inf)
        for g in (up, dn):
            err = abs(achieved(g) - target_beta)
            if err < best_err:
                best, best_err = g, err
    return best, achieved(best)


def root_scan_bound(poly):
    """Upper bound on all real roots (Fujiwara), from coefficients alone."""
    c = poly.coeffs
    d = len(c) - 1
    return 2.0 * max((abs(c[d - k]) / abs(c[d])) ** (1.0 / k)
                     for k in range(1, d + 1))

"""Steady-state solver: polynomial reduction of the self-consistency condition,
root refinement, and linear stability of the 5-dimensional mean-field flow.

One ``build_polynomial(p)`` per parameter set holds its drive-free factors
(tuples of Python floats, assembled in IEEE arithmetic of a fixed order, so
the same on every machine), its parameters and, once asked for, its folds.
Every solve brackets its roots on the monotone segments of the curve
between the folds, one root rule in two implementations, which share its
range rule (``_root_bound``), merge rule (``_merges``), residual rule
(``_verified``), evaluation (``_value``) and I(n).  ``solve_node``
solves one drive in Python floats (``_node_roots``), maps each root to its
state by the model's formulas and labels them from one stacked eigen-solve
(``solve_steady_states`` is its call at ``p.omega_d``).
``solve_curve_columns`` solves the drives of a whole curve at once, as
arrays (``_segment_roots``), by the same formulas, which give the same
bits, into columns."""

from __future__ import annotations

import math
import os
import sys
import warnings
from dataclasses import dataclass
from functools import cached_property
from itertools import zip_longest
from typing import NamedTuple

import numpy as np
from numpy.linalg import LinAlgError

try:  # the LAPACK gufunc behind np.linalg.eigvals: private numpy API
    from numpy.linalg._umath_linalg import eigvals as _lapack_eigvals
except ImportError:  # moved or renamed: np.linalg.eigvals serves, slower
    _lapack_eigvals = None

from .errors import ParametricRegimeWarning
from .model import (
    Stability,
    SteadyState,
    SystemParams,
    _finite_reals,
    at_singularity,
    atomic_expectations,
    dressed_cavity,
    driven_field,
)

# Imaginary parts up to this fraction of max(1, |Re|) are rounding, not
# complex roots.
IMAG_RTOL = 1e-7
# Near-coincident real roots (fold points) are merged within this radius.
MERGE_RADIUS = 1e-8
# Half-width of the Marginal band for the largest eigenvalue real part, per gamma.
EPS_STAB = 1e-9
# The residual rule (_verified): |P| within EPS_RES times the polynomial scale.
EPS_RES = 1e-9
# The bracketed roots (_segment_roots, _node_roots): a root's Newton stops at
# |P| <= ROUNDING_FLOOR eps sum |c_k| n^k, on a step shorter than
# NEWTON_STOP max(1, n), or after BRACKET_STEPS steps.  A curve tabulates
# I(n) at SEGMENT_TABLE cosine-spaced points per monotone segment for a
# starting bracket.
NEWTON_STOP = 1e-15
SEGMENT_TABLE = 48
ROUNDING_FLOOR = 4.0
BRACKET_STEPS = 100
_COSINE = 0.5 - 0.5 * np.cos(np.linspace(0.0, math.pi, SEGMENT_TABLE))
# A Lienard-Chipart condition within HURWITZ_RTOL of its evaluation magnitude
# (the same expression in absolute values) is rounding: its row is labelled
# by eigvals instead.  Against exact rational arithmetic the rounding error
# stays below 1.2 machine epsilons of that magnitude, a margin over 3000.
HURWITZ_RTOL = 1e-12
# Stacks of fewer Jacobians are labelled by eigvals alone, which then costs
# less than the test's fixed ~50 numpy calls.
HURWITZ_MIN_ROWS = 24


@dataclass(frozen=True)
class SelfConsistencyPolynomial:
    """The real-coefficient polynomial in n_c of one parameter set ``p``
    (built by ``build_polynomial``) whose positive roots are the candidate
    steady-state photon numbers, at any drive.

    The drive enters only as a factor, P = free - omega_d^2 drive
    (``_node_polynomials``).  ``coeffs`` is P at ``p.omega_d``, ascending
    (coeffs[k] multiplies n_c**k), degree <= 5, with a constant term <= 0.
    ``q`` is the cleared denominator Q (free = n Q^2); it is None for
    |G| = 0, where the positive Q was divided out and free = n Q.
    ``free``, ``drive``, ``q`` and ``coeffs`` are tuples of Python floats,
    ascending, so the polynomial cannot change once built.  ``coeffs``,
    ``folds`` and ``edges`` are formed on first use, once per polynomial:
    every solve brackets its roots between the folds.
    """

    free: tuple[float, ...]
    drive: tuple[float, ...]
    q: tuple[float, ...] | None
    p: SystemParams

    @cached_property
    def coeffs(self) -> tuple[float, ...]:
        return tuple(_trim(_node_polynomials(self, [self.p.omega_d])[0]))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, n_c):
        return _value(self.coeffs, n_c)

    def input_intensity(self, n):
        """I(n) = free(n) / (2 kappa drive(n)): the per-mirror input intensity
        at which the curve passes through n_c = n, for a Python float or
        elementwise for an array."""
        return _value(self.free, n) / (2.0 * self.p.kappa * _value(self.drive, n))

    @cached_property
    def singular_states(self) -> list[float]:
        """Positive zeros of Q: the undriven parametric-singularity states,
        where I(n) = 0 (none for |G| = 0, where Q = A^2 + B^2 > 0)."""
        return [] if self.q is None else positive_roots(self.q)

    @cached_property
    def folds(self) -> list[tuple[float, float]]:
        """The folds of the curve, as (input_intensity, n_c) sorted by input.

        Along the curve the per-mirror input intensity is the rational
        function I(n) = free(n) / (2 kappa drive(n)), so its turning points
        are the zeros of W = free' drive - free drive'.  W = Q V, and the
        folds are the positive roots of V (of W itself for |G| = 0).  The
        positive zeros of Q are the undriven singular states, where I = 0
        exactly: they are the edges of a window anchored at zero input and
        are reported as folds at input 0.0.  A fold on a zero of R is a
        pole of I, reported at input inf.  Between the folds' n_c I(n) is
        monotone, so such a segment (a branch) holds at most one state at
        any input.
        """
        return sorted((at, e) for e, at, _, _ in self.edges)

    @cached_property
    def edges(self) -> list[tuple[float, float, float, float]]:
        """The folds' n_c ascending, the edges of the curve's monotone
        segments, as (e, I(e), a, b) (see ``folds``).  Near an edge P is the
        local quadratic P(n) = a (I(e) - x) + b (n - e)^2 at input x, with
        a = 2 kappa drive(e) and b = P''(e) / 2 at the edge's own input (NaN
        where that is zero: a cusp, where no quadratic places the pair)."""
        free, drive, q = self.free, self.drive, self.q
        if q is None:
            v = _add(_mul(_der(free), drive), [-x for x in _mul(free, _der(drive))])
        else:
            # free = n Q^2, so W = Q ((Q + 2 n Q') drive - n Q drive')
            v = _add(_mul(_add(q, [2.0 * x for x in _mulx(_der(q))]), drive),
                     [-x for x in _mul(_mulx(q), _der(drive))])
        singular, zeros = self.singular_states, positive_roots(v)
        if not singular and not zeros:
            return []
        kappa2 = 2.0 * self.p.kappa
        free2, drive2 = _der(_der(free)), _der(_der(drive))
        edges = []
        for k, e in enumerate(singular + zeros):
            a = kappa2 * _value(drive, e)
            # I(e) = free(e) / a, as input_intensity evaluates it
            at = 0.0 if k < len(singular) else _value(free, e) / a if a > 0.0 else math.inf
            edges.append((e, at, a, 0.5 * (_value(free2, e) - kappa2 * at * _value(drive2, e))
                          or math.nan))
        return sorted(edges)


# Series arithmetic on ascending coefficient sequences of Python floats
# (lists, or a polynomial's tuples), kept trimmed of trailing zeros: the
# folds' V (``edges``) and P at a drive (``coeffs``).  Every operation is
# IEEE arithmetic in a fixed order, with no BLAS kernel, so each coefficient
# is the same float on every machine.  Operands are trimmed: a product's
# leading coefficient is then nonzero, and only a sum can cancel.
# ``build_polynomial`` writes its products out by ``_mul``'s rule.

def _trim(c):
    """``c`` (a list, a tuple or an array) without trailing zeros, keeping
    at least one coefficient."""
    k = len(c)
    while k > 1 and c[k - 1] == 0.0:
        k -= 1
    return c[:k]


def _add(a, b) -> list[float]:
    if len(a) < len(b):
        a, b = b, a
    return _trim([x + y for x, y in zip(a, b)] + [*a[len(b):]])


def _der(c) -> list[float]:
    """The derivative's coefficients; a constant's is [0.0]."""
    return [k * c[k] for k in range(1, len(c))] or [0.0]


def _value(c, x):
    """The series ``c`` at x by Horner's rule.  ``c`` holds the ascending
    coefficients along its first axis: Python floats, at a float x or
    elementwise at an array; or columns (arrays, one entry per row, or an
    array whose first axis is the degree), each row at its own entry of x,
    broadcast as numpy does."""
    out = c[-1] + x * 0.0
    for ck in c[-2::-1]:
        out = ck + out * x
    return out


def _mulx(c):
    return [0.0, *c] if c[-1] else c


def _mul(a, b) -> list[float]:
    """The product of two series: coefficient k sums the rounded products
    a[i] b[k - i] from 0.0 in ascending i."""
    out = [0.0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def build_polynomial(p: SystemParams) -> SelfConsistencyPolynomial:
    """Denominator-cleared self-consistency polynomial in n_c, from the
    pieces (ascending in n_c)

    D = gamma^2/4 + delta_tls^2 + 2 g^2 n
    A = (kappa/2) D + g^2 gamma / 2          (real part of the cleared response)
    B = delta_c D - g^2 delta_tls            (imaginary part)
    Q = A^2 + B^2 - 4|G|^2 D^2               (cleared denominator)
    R = (A + 2 Re(G) D)^2 + (2 Im(G) D - B)^2  (cleared numerator magnitude^2)

    Generic case:  P(n) = n Q(n)^2 - omega_d^2 R(n) D(n)^2   (degree <= 5).
    For |G| = 0 exactly, R == Q and Q = A^2 + B^2 > 0 carries no roots, so the
    positive factor Q is divided out and the classic bistability cubic
    C(n) = n Q(n) - omega_d^2 D(n)^2 is returned instead (degree <= 3; it
    collapses to degree 1 when additionally g = 0).  Where 2 Im(G) D - B
    vanishes to within the rounding of its terms, R = (A + 2 Re(G) D)^2 and
    Q = (A - 2 Re(G) D)(A + 2 Re(G) D) share the factor A + 2 Re(G) D, and
    its square is divided out:
    P(n) = n (A - 2 Re(G) D)^2 - omega_d^2 D^2, with Q = A - 2 Re(G) D.

    Every piece is written out in Python floats at the model's degrees (1
    for D, A, B and R's two factors, 2 for Q and R), a coefficient that
    vanishes (g = 0, delta_c = 0, ...) held as a zero.  Each product
    coefficient is ``_mul``'s sum, from 0.0 over ascending i, where a zero
    term changes nothing; each piece is then cut to its ``_trim`` length,
    and ``free`` is n times its square as ``_mulx`` forms it.
    """
    eps = 4.0 * sys.float_info.epsilon
    gg = p.g ** 2
    d0, d1 = p.gamma ** 2 / 4.0 + p.delta_tls ** 2, 2.0 * gg
    k2 = p.kappa / 2.0
    a0, a1 = k2 * d0 + gg * p.gamma / 2.0, k2 * d1
    b0, b1 = p.delta_c * d0 - gg * p.delta_tls, p.delta_c * d1
    dd0, dd1, dd2 = 0.0 + d0 * d0, 0.0 + d0 * d1 + d1 * d0, 0.0 + d1 * d1
    dd = (dd0, dd1, dd2) if d1 else (dd0,)  # D^2; D is a constant at g = 0
    aa0, aa1, aa2 = 0.0 + a0 * a0, 0.0 + a0 * a1 + a1 * a0, 0.0 + a1 * a1
    bb0, bb1, bb2 = 0.0 + b0 * b0, 0.0 + b0 * b1 + b1 * b0, 0.0 + b1 * b1
    g4 = 4.0 * p.g_nl_mag ** 2
    gdd0, gdd1, gdd2 = g4 * dd0, g4 * dd1, g4 * dd2
    # Q: a coefficient within the rounding of its terms (A^2 + 4|G|^2 D^2
    # plus |B|^2, as A >= 0) is zero.  Its n^2 coefficient is 4 g^4 times the
    # bare threshold margin, and for g = 0 all of Q is D0^2 times it;
    # rounding left there puts a spurious root near 1e15 and spoils the
    # others.  At the threshold its n coefficient,
    # 4 g^4 (kappa gamma / 4 - delta_c delta_tls), and Q(0) can vanish too
    q0, q1, q2 = aa0 + bb0 - gdd0, aa1 + bb1 - gdd1, aa2 + bb2 - gdd2
    q0 = 0.0 if abs(q0) <= eps * (aa0 + gdd0 + bb0) else q0
    q1 = 0.0 if abs(q1) <= eps * (
        aa1 + gdd1 + (0.0 + abs(b0) * abs(b1) + abs(b1) * abs(b0))) else q1
    q2 = 0.0 if abs(q2) <= eps * (aa2 + gdd2 + bb2) else q2
    q = (q0, q1, q2)[:3 if q2 else 2 if q1 else 1]
    if p.g_nl_mag == 0.0:
        return SelfConsistencyPolynomial(
            free=(0.0, *q) if q[-1] else q, drive=dd, q=None, p=p)
    g_re2, g_im2 = p.crystal_quadratures  # 2 Re(G), 2 Im(G)
    # Rq = 2 Im(G) D - B against the rounding of its terms, as Q
    r0, r1 = g_im2 * d0 - b0, g_im2 * d1 - b1
    if (abs(r0) > eps * (abs(g_im2 * d0) + abs(p.delta_c * d0) + gg * abs(p.delta_tls))
            or abs(r1) > eps * (abs(g_im2 * d1) + abs(b1))):
        s0, s1 = a0 + g_re2 * d0, a1 + g_re2 * d1  # Rp = A + 2 Re(G) D
        R0 = 0.0 + s0 * s0 + (0.0 + r0 * r0)
        R1 = 0.0 + s0 * s1 + s1 * s0 + (0.0 + r0 * r1 + r1 * r0)
        R2 = 0.0 + s1 * s1 + (0.0 + r1 * r1)
        qq = (0.0 + q0 * q0, 0.0 + q0 * q1 + q1 * q0,
              0.0 + q0 * q2 + q1 * q1 + q2 * q0, 0.0 + q1 * q2 + q2 * q1,
              0.0 + q2 * q2)[:2 * len(q) - 1]
        r_len = 3 if R2 else 2 if R1 else 1  # R trimmed
        drive = (0.0 + R0 * dd0, 0.0 + R0 * dd1 + R1 * dd0,
                 0.0 + R0 * dd2 + R1 * dd1 + R2 * dd0,
                 0.0 + R1 * dd2 + R2 * dd1, 0.0 + R2 * dd2)[:r_len + len(dd) - 1]
        return SelfConsistencyPolynomial(
            free=(0.0, *qq) if qq[-1] else qq, drive=drive, q=q, p=p)
    # the shared factor divided out: q = A - 2 Re(G) D, whose n coefficient
    # 2 g^2 (kappa/2 - 2 Re(G)) is zero at the bare threshold, where rounding
    # left in it would put a spurious root near 1e15
    v0, v1 = a0 - g_re2 * d0, a1 - g_re2 * d1
    v0 = 0.0 if abs(v0) <= eps * (abs(a0) + abs(g_re2 * d0)) else v0
    v1 = 0.0 if abs(v1) <= eps * (abs(a1) + abs(g_re2 * d1)) else v1
    q = (v0, v1) if v1 else (v0,)
    vv = (0.0 + v0 * v0, 0.0 + v0 * v1 + v1 * v0, 0.0 + v1 * v1)[:2 * len(q) - 1]
    return SelfConsistencyPolynomial(
        free=(0.0, *vv) if vv[-1] else vv, drive=dd, q=q, p=p)


def positive_roots(c) -> list[float]:
    """The sorted distinct real roots n > 0 of a polynomial (ascending
    coefficients, Python floats, trailing zeros ignored): the zeros of
    Q and V behind the folds.  P's own roots are bracketed between the folds
    (``_node_roots``, ``_segment_roots``).

    Coefficients that never change sign leave no positive root (Descartes'
    rule of signs), with no eigen-solve.  Otherwise the roots are the
    eigenvalues of numpy.polynomial's companion matrix, unrotated (Edelman &
    Murakami, Math. Comp. 64, 1995).  Imaginary parts within IMAG_RTOL are
    rounding, and a root that ``_merges`` into the one below is dropped.
    """
    if not min(c) < 0.0 < max(c):
        return []
    d = len(c) - 1
    while c[d] == 0.0:
        d -= 1
    if d == 1:
        z = [-c[0] / c[1]]
    else:
        m = np.eye(d, k=-1)
        m[:, -1] = [0.0 - ck / c[d] for ck in c[:d]]
        z = _eigenvalues(m).tolist()
    roots = []
    for x in sorted(x.real for x in z
                    if x.real > 0.0 and abs(x.imag) <= IMAG_RTOL * max(1.0, x.real)):
        if not (roots and _merges(roots[-1], x)):
            roots.append(x)
    return roots


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


def _jacobian_entries(c_bar, sigma_minus, sigma_z, p: SystemParams):
    """The Jacobian's 5x5 entries, row by row, at one fixed point (c_bar,
    sigma_minus, sigma_z) in Python numbers, or elementwise at arrays of
    them, its constant entries then floats.  It does not depend on the
    drive."""
    x1, x2 = c_bar.real, c_bar.imag
    x3, x4 = sigma_minus.real, sigma_minus.imag
    g_re2, g_im2 = p.crystal_quadratures
    k2, h = p.kappa / 2.0, p.gamma / 2.0
    g, g2 = p.g, 2.0 * p.g
    return ((-k2 + g_re2, p.delta_c + g_im2, 0.0, g, 0.0),
            (-p.delta_c + g_im2, -k2 - g_re2, -g, 0.0, 0.0),
            (0.0, -g2 * sigma_z, -h, p.delta_tls, -g2 * x2),
            (g2 * sigma_z, 0.0, -p.delta_tls, -h, g2 * x1),
            (-g2 * x4, g2 * x3, g2 * x2, -g2 * x1, -p.gamma))


def _jacobian_matrix(c_bar, sigma_minus, sigma_z, p: SystemParams) -> np.ndarray:
    """The Jacobian at one fixed point, or the stack of them, shape
    (M, 5, 5), for arrays of M fixed points (see ``_jacobian_entries``)."""
    sigma_z = np.asarray(sigma_z)
    j = np.empty(sigma_z.shape + (5, 5))
    for i, row in enumerate(_jacobian_entries(
            np.asarray(c_bar), np.asarray(sigma_minus), sigma_z, p)):
        for k, x in enumerate(row):
            j[..., i, k] = x
    return j


def jacobian(s: SteadyState, p: SystemParams) -> np.ndarray:
    """Jacobian of the mean-field vector field (Re c, Im c, Re s-, Im s-, sz)
    at the fixed point ``s``, including the conjugate coupling 2 G c*."""
    return _jacobian_matrix(s.c_bar, s.sigma_minus_bar, s.sigma_z_bar, p)


def _stability(margin: float) -> Stability:
    """The stability label of a largest eigenvalue real part: Stable below
    -EPS_STAB, Unstable above +EPS_STAB, Marginal in the band between (fold
    points sit at zero)."""
    if margin < -EPS_STAB:
        return Stability.STABLE
    if margin > EPS_STAB:
        return Stability.UNSTABLE
    return Stability.MARGINAL


def _nonconvergence(err, flag):
    raise LinAlgError("Eigenvalues did not converge")


def _eigenvalues(a: np.ndarray) -> np.ndarray:
    """The eigenvalues of each real square matrix of a stack (float64),
    those of numpy.linalg.eigvals to the bit, as complex numbers: the LAPACK
    gufunc it calls, under its error state, with its finiteness check (a
    LinAlgError for an inf or NaN entry, as there) but without its other
    argument checks and its real-result conversion.  On the 2x2 to 6x6
    matrices of a solve those cost more than LAPACK itself: 19 against 7 us
    on a 6x6 companion matrix, 26 against 17 on three 5x5 Jacobians (one
    process, best of 7).  The gufunc is private numpy API; where a numpy
    release has moved it, this is numpy.linalg.eigvals itself, whose result
    is real where every eigenvalue is."""
    if _lapack_eigvals is None:
        return np.linalg.eigvals(a)
    if not np.isfinite(a).all():
        raise LinAlgError("Array must not contain infs or NaNs")
    with np.errstate(call=_nonconvergence, invalid="call", over="ignore",
                     divide="ignore", under="ignore"):
        return _lapack_eigvals(a, signature="d->D")


def classify_stability(j: np.ndarray) -> StabilityReport:
    """Eigenvalues of one Jacobian and their label (see ``_stability``)."""
    eigenvalues = np.linalg.eigvals(j)
    margin = float(eigenvalues.real.max())
    return StabilityReport(eigenvalues=eigenvalues,
                           stability=_stability(margin), margin=margin)


# _BINOMIAL[k, j] = C(5 - k, j - k): how the coefficient a_k of mu^(5-k)
# spreads over the powers of mu when mu is shifted
_BINOMIAL = np.array([[math.comb(5 - k, j - k) if j >= k else 0
                       for j in range(6)] for k in range(6)], dtype=float)
_POWER = np.maximum(np.arange(6) - np.arange(6)[:, None], 0)
# 1/k of Newton's identities, for k = 1..5
_NEWTON = 1.0 / np.arange(1.0, 6.0)[:, None, None]
# the sign of the subtracted terms of the conditions: the two shifted
# polynomials, then their evaluation magnitude, which adds every term
_SIGNS = np.array([[-1.0], [-1.0], [1.0]])
# labels by the number of shifted matrices, J - eps I and J + eps I, that
# pass the test
_BY_PASSES = (Stability.UNSTABLE, Stability.MARGINAL, Stability.STABLE)


def _shift_matrix(s: float) -> np.ndarray:
    """T with T @ a the coefficients of det(mu I - A - s I) = chi(mu - s),
    for a those of chi(mu) = det(mu I - A), a_k multiplying mu^(5-k)."""
    return (_BINOMIAL * (-s) ** _POWER).T


def _hurwitz_conditions(j: np.ndarray) -> np.ndarray:
    """The Lienard-Chipart conditions of a stack of 5x5 Jacobians, shape
    (M, 5, 5), for J + eps I and J - eps I, eps = EPS_STAB (Gantmacher, The
    Theory of Matrices II, ch. XV): a monic quintic with coefficients
    a_1..a_5 has all roots in the open left half-plane iff a_1, a_3, a_5,
    Delta_2 = a_1 a_2 - a_3 and
    Delta_4 = Delta_2 (a_3 a_4 - a_2 a_5) - (a_1 a_4 - a_5)^2 are all
    positive.

    Each characteristic polynomial comes from the power sums tr(J^k),
    k <= 5, by Newton's identities, and is shifted by +-eps with one 6x6
    matrix.  The stack is first scaled by the power of two above its largest
    entry, exactly, and eps with it.  The same arithmetic in absolute values
    gives each condition's magnitude, which bounds its rounding.

    Returns shape (3, 5, M): the conditions (a_1, a_3, a_5, Delta_2,
    Delta_4) of J + eps I, of J - eps I, and their magnitudes."""
    m = len(j)
    # the stack with rows last, scaled exactly, then its entries' magnitudes
    e = math.frexp(max(float(j.max()), -float(j.min())))[1]
    x = np.empty((5, 5, 2 * m))
    np.ldexp(j.transpose(1, 2, 0), -e, out=x[..., :m])
    np.abs(x[..., :m], out=x[..., m:])
    sigma = math.ldexp(EPS_STAB, -e)
    # the power sums tr(A^k), k = 1..5
    x2 = np.einsum("ikm,kjm->ijm", x, x)
    x3 = np.einsum("ikm,kjm->ijm", x2, x)
    p = np.empty((5, 2 * m))
    for k, power in enumerate((x, x2, x3)):
        np.einsum("iim->m", power, out=p[k])
    np.einsum("ijm,jim->m", x2, x2, out=p[3])
    np.einsum("ijm,jim->m", x3, x2, out=p[4])
    # Newton's identities, a_k = -(1/k) sum_i p_i a_(k-i), stored backwards
    # (r[5 - k] = a_k); the magnitudes add the same terms
    p[:, :m] *= -1.0
    w = p * _NEWTON
    r = np.empty((6, 2 * m))
    r[5] = 1.0
    for k in range(1, 6):
        np.einsum("ir,ir->r", w[k - 1, :k], r[6 - k:], out=r[5 - k])
    a = r[::-1].reshape(6, 2, m).transpose(1, 0, 2)  # (values or magnitudes, k, row)
    # J + eps I, J - eps I, and the magnitudes, shifted with every term positive
    minus = _shift_matrix(-sigma)
    shift = np.stack((_shift_matrix(sigma), minus, minus))
    _, a1, a2, a3, a4, a5 = (shift @ a[[0, 0, 1]]).transpose(1, 0, 2)
    d2 = a1 * a2 + _SIGNS * a3
    d4 = d2 * (a3 * a4 + _SIGNS * (a2 * a5)) + _SIGNS * (a1 * a4 + _SIGNS * a5) ** 2
    return np.stack((a1, a3, a5, d2, d4), axis=1)


def _hurwitz_test(j: np.ndarray) -> tuple[list[Stability], np.ndarray]:
    """Stability labels of a non-empty stack of Jacobians from
    ``_hurwitz_conditions``: J + eps I passes iff max Re lambda < -eps
    (Stable), J - eps I fails iff max Re lambda > eps (Unstable, up to
    equality), and Marginal otherwise: the rule of ``_stability``.

    A test passes when every condition exceeds HURWITZ_RTOL times its
    magnitude and fails when one is below minus that; otherwise it is
    undecided, and so is a row whose two tests contradict each other.
    Returns the labels and the mask of undecided rows, whose labels are
    meaningless."""
    cond = _hurwitz_conditions(j)
    bound = HURWITZ_RTOL * cond[2]
    passed = (cond[:2] > bound).all(axis=1)
    failed = (cond[:2] < -bound).any(axis=1)
    undecided = ~(passed | failed).all(axis=0) | (passed[0] & ~passed[1])
    return [_BY_PASSES[k] for k in passed.sum(axis=0).tolist()], undecided


def _stability_labels(j: np.ndarray) -> list[Stability]:
    """The ``_stability`` label of each Jacobian of a stack, shape (M, 5, 5):
    from ``_hurwitz_test``, with a stacked eigvals for its undecided rows,
    or for the whole stack when it has fewer than HURWITZ_MIN_ROWS rows."""
    if len(j) < HURWITZ_MIN_ROWS:
        margins = _eigenvalues(j).real.max(axis=1)
        return [_stability(m) for m in margins.tolist()]
    labels, undecided = _hurwitz_test(j)
    if undecided.any():
        at = np.flatnonzero(undecided)
        margins = _eigenvalues(j[at]).real.max(axis=1)
        for k, margin in zip(at.tolist(), margins.tolist()):
            labels[k] = _stability(margin)
    return labels


_PACKAGE_DIR = os.path.dirname(__file__)


def _warn(message: str, category: type[Warning]) -> None:
    """warnings.warn attributed to the first caller outside this package."""
    frame, level = sys._getframe(1), 2
    while (frame is not None
           and os.path.dirname(frame.f_code.co_filename) == _PACKAGE_DIR):
        frame, level = frame.f_back, level + 1
    warnings.warn(message, category, stacklevel=level)


class SteadyColumns(NamedTuple):
    """The steady states of a curve solve (``solve_curve_columns``), as
    columns: entry k of each is one state, and the states are grouped by
    ``node`` (the index of their drive in the call) and sorted by photon
    number within a node.  ``segment`` is each state's monotone segment of
    the curve (its branch)."""

    node: np.ndarray  # int
    n_c: np.ndarray
    c_bar: np.ndarray  # complex
    sigma_minus: np.ndarray  # complex
    sigma_z: np.ndarray
    residual: np.ndarray
    stability: list[Stability]
    segment: np.ndarray  # int


def _too_large(w: float, what: str) -> ValueError:
    return ValueError(f"drive omega_d = {w!r} is too large: {what} overflows")


def _squared(w: float) -> float:
    """A drive squared as a Python float (numpy's array square can differ
    from it by an ulp); ValueError naming the drive when it overflows."""
    try:
        if w * w < math.inf:
            return w ** 2
    except OverflowError:
        pass
    raise _too_large(w, "its square")


def _drives(poly: SelfConsistencyPolynomial, drives) -> list[float]:
    """The drives as Python floats, each by the number rule
    (``model._finite_real``) and >= 0, the largest with a square that does
    not overflow, and the regime warning of a non-empty call above the bare
    threshold."""
    ws = _finite_reals("drive omega_d", drives)
    if ws:
        if min(ws) < 0.0:
            raise ValueError(f"drive omega_d must be >= 0, got {min(ws)!r}")
        _squared(max(ws))
        if bare_threshold_margin(poly.p) <= 0.0:
            _warn("bare cavity at/above the parametric-oscillation threshold "
                  "((kappa/2)^2 + delta_c^2 <= 4|G|^2); reporting verified roots only",
                  ParametricRegimeWarning)
    return ws


def _node_polynomials(poly: SelfConsistencyPolynomial, omegas: list[float]):
    """The one P rule: P = free - omega_d^2 drive, one row per drive of
    ``omegas`` (Python floats), each drive squared by ``_squared``.  One
    drive's row (a one-node solve's P) is a list of Python floats, in a
    one-row list; several drives' rows (a curve's) are one zero-padded
    array, with the same bits.  Every coefficient is at most
    omega_d^2 max|drive| + max|free| in magnitude, also after rounding,
    which is monotone: where that bound overflows, a ValueError names the
    largest drive."""
    w2 = [_squared(w) for w in omegas]
    top = max(w2, default=0.0)
    free, drive = poly.free, poly.drive
    if not (top * max(map(abs, drive)) + max(map(abs, free))) < math.inf:
        raise _too_large(omegas[w2.index(top)], "P = free - omega_d^2 drive")
    if len(w2) == 1:
        # in Python floats: the median steady_batch solve 4 % faster, the
        # tail 1-3 % (in-process A/B over seed 1's 2 000 points, 10-12 passes)
        return [[f - top * d for f, d in zip_longest(free, drive, fillvalue=0.0)]]
    rows = np.zeros((len(w2), max(len(free), len(drive))))
    rows[:, :len(free)] = free
    rows[:, :len(drive)] -= np.multiply.outer(w2, drive)
    return rows


def _merges(lower, n):
    """The merge rule: whether the root n merges into the root ``lower``
    below it, as within MERGE_RADIUS max(1, n) of it, a near-double pair
    that rounding leaves unresolved.  For Python floats, or elementwise for
    arrays."""
    gap = n - lower
    return (gap <= MERGE_RADIUS) | (gap <= MERGE_RADIUS * n)


def _verified(p_n, mag):
    """The residual rule: P at a root, ``p_n``, is finite and within EPS_RES
    times its float-evaluation magnitude ``mag`` = sum |c_k| n^k, floored at
    1 (>= the |c_lead| n^deg term that dominates for large roots).  Anything
    smaller is below the reachable rounding floor for small roots whose
    polynomial has large low-order coefficients.  For Python floats, or
    elementwise for arrays."""
    r = abs(p_n)
    return (r < math.inf) & ((r <= EPS_RES) | (r <= EPS_RES * mag))


def _root_bound(poly: SelfConsistencyPolynomial, w, w2, c):
    """Fujiwara's bound 2 max_i |c_(d-i) / c_d|^(1/i) on the root moduli of
    P = free - w2 drive at the drive ``w`` (w2 = w^2), from its ascending
    coefficients ``c`` (see ``_value``): Python floats, trimmed, for one
    drive, or elementwise for the rows of P given as columns of one degree
    d, with ``w`` and ``w2`` one entry per row.  A row whose c_d is zero has
    no bound (its drive puts I exactly at the limit of the last segment,
    which holds no root of it).

    This is also the range rule of both root stages, decided before they
    evaluate P.  Every |c_k| is at most |free_k| + w2 |drive_k|, so where
    |free| + w2 |drive| (their coefficients' magnitudes) is finite at the
    bound, P and sum |c_k| n^k are finite at every n up to it, where every
    root lies.  Where it overflows, the drive is out of range: ValueError
    naming it (the first such row's)."""
    d = len(c) - 1
    lead = abs(c[d])
    bound = 0.0 * lead
    for k in range(d):
        r = (abs(c[k]) / lead) ** (1.0 / (d - k))
        bound = (r > bound) * r + (r <= bound) * bound  # the larger, elementwise
    bound = 2.0 * bound
    total = (_value(list(map(abs, poly.free)), bound)
             + w2 * _value(list(map(abs, poly.drive)), bound))
    fits = (total < math.inf) | (lead == 0.0)
    if fits is not True and not np.all(fits):  # one drive in range is True
        raise _too_large(float(np.atleast_1d(w)[np.argmin(fits)]),
                         "|free| + omega_d^2 |drive| at P's root bound")
    return bound


def _bracketed_newton(c: np.ndarray, n: np.ndarray, lo: np.ndarray, hi: np.ndarray,
                      below: np.ndarray):
    """``_newton`` for many roots at once: the root of each row of ``c``
    (columns, see ``_value``) in (lo, hi), from n, where P has the sign
    ``below`` under the root, by Newton's steps, bisecting the bracket
    whenever a step leaves it.  A row stops at
    |P| <= ROUNDING_FLOOR eps sum |c_k| n^k, after a step shorter than
    NEWTON_STOP max(1, n), or after BRACKET_STEPS steps.  Returns the roots,
    P there and sum |c_k| n^k there."""
    d, m = c.shape
    # P, P' (zero-padded) and sum |c_k| n^k, in one evaluation
    cols = np.zeros((d, 3, m))
    cols[:, 0] = c
    cols[:-1, 1] = c[1:] * np.arange(1.0, d)[:, None]
    cols[:, 2] = np.abs(c)
    out = np.empty((3, m))
    live, at, stop = np.arange(m), n, np.zeros(m, dtype=bool)
    floor = ROUNDING_FLOOR * sys.float_info.epsilon
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for k in range(BRACKET_STEPS + 1):
            f, fp, mag = _value(cols, at)
            done = stop | (np.abs(f) <= floor * mag) | (k == BRACKET_STEPS)
            if done.any():
                out[:, live[done]] = at[done], f[done], mag[done]
                go = ~done
                live, at, f, fp = live[go], at[go], f[go], fp[go]
                lo, hi, below, cols = lo[go], hi[go], below[go], cols[:, :, go]
            if not live.size:
                return out
            up = np.sign(f) == below
            lo, hi = np.where(up, at, lo), np.where(up, hi, at)
            step = at - f / fp
            step = np.where((lo < step) & (step < hi), step, 0.5 * (lo + hi))
            stop = np.abs(step - at) <= NEWTON_STOP * np.maximum(1.0, at)
            at = step


def _taken_once(x, e, at, a, b, p_e, mag_e):
    """Whether the near-double pair at an edge (e, ``at``, a, b) of
    ``SelfConsistencyPolynomial.edges`` is one state at input x, the edge
    itself: x is the edge's own input I(e) = ``at``; P at e, ``p_e``, is
    within the rounding floor of the Newton stop, ROUNDING_FLOOR eps
    ``mag_e`` (sum |c_k| e^k), so that no Newton step resolves the pair; or
    the pair (n - e)^2 = t2 = a (x - I(e)) / b of P's local quadratic lies
    within MERGE_RADIUS if real, or within IMAG_RTOL if complex, relative
    to max(1, e).  Never at a pole of I, and not by the floor at an edge at
    zero input, where I(e) = 0 exactly and the quadratic places the pair
    (``_node_roots``, ``_segment_roots``).  For Python floats (b nonzero),
    or elementwise for arrays."""
    t2 = a * (x - at) / b
    radius = (t2 >= 0.0) * (0.5 * MERGE_RADIUS) + (t2 < 0.0) * IMAG_RTOL
    floor = (abs(p_e) <= ROUNDING_FLOOR * sys.float_info.epsilon * mag_e) & (at > 0.0)
    half = abs(t2) ** 0.5
    return ((x == at) | floor | (half <= radius) | (half <= radius * e)) & (at < math.inf)


def _newton(lead: float, terms: list[tuple[float, float, float]], n: float,
            lo: float, hi: float, rising: bool) -> tuple[float, float, float]:
    """``_bracketed_newton`` for one root, in Python floats, by the same
    steps and stopping rule: the root in (lo, hi), from n, of P with leading
    coefficient ``lead`` and ``terms`` (c_k, (k + 1) c_(k+1), |c_k|) for
    k = d - 1 down to 0, where P rises through the root iff ``rising``.
    Returns the root, P there and sum |c_k| n^k there."""
    floor = ROUNDING_FLOOR * sys.float_info.epsilon
    stop = False
    for k in range(BRACKET_STEPS + 1):
        f, fp, mag = lead, 0.0, abs(lead)
        for ck, dk, mk in terms:
            f, fp, mag = ck + f * n, dk + fp * n, mk + mag * n
        if stop or k == BRACKET_STEPS or abs(f) <= floor * mag:
            return n, f, mag
        if f < 0.0 if rising else f > 0.0:
            lo = n
        else:
            hi = n
        step = n - f / fp if fp else math.nan
        if not lo < step < hi:
            step = 0.5 * (lo + hi)
        stop = abs(step - n) <= NEWTON_STOP * (n if n > 1.0 else 1.0)
        n = step


def _node_roots(poly: SelfConsistencyPolynomial, w: float) -> list[tuple[float, float]]:
    """The roots at one drive ``w`` > 0 (a Python float) by the segment
    rule of ``_segment_roots``, in Python floats, with P from
    ``_node_polynomials`` and the input x = w^2 / (2 kappa).

    Segment s, (e_(s-1), e_s], holds a root iff x lies between I at its
    ends, the lower end excluded; past the last edge P keeps the sign of
    its leading coefficient above ``_root_bound``, which caps that segment
    and raises for a drive out of range.  Each root's ``_newton`` starts at
    the linear interpolation of I between the segment's ends, or, beside an
    edge at zero input (an undriven singular state, where I(e) = 0
    exactly), at the pair member of P's local quadratic there when that
    lies inside the segment: a pair closer than P's rounding floor resolves
    keeps the quadratic's places.  An edge whose pair ``_taken_once``
    reports once gives the edge state itself, a root that ``_merges`` into
    the one below is dropped, and each root must pass ``_verified``, as in
    ``_segment_roots``.  Coefficients of P with one sign change leave it one
    positive root (Descartes' rule of signs): the whole axis is then one
    segment, with no folds.  Returns each root and P there, ascending."""
    c = _trim(_node_polynomials(poly, [w])[0])
    d = len(c) - 1
    if d == 0:
        return []
    w2 = w ** 2
    x = w2 / (2.0 * poly.p.kappa)
    bound = _root_bound(poly, w, w2, c)
    mag_c = [abs(ck) for ck in c]
    terms = [(c[k], (k + 1) * c[k + 1], mag_c[k]) for k in range(d - 1, -1, -1)]
    signs = [ck > 0.0 for ck in c if ck != 0.0]
    edges = poly.edges if sum(u != v for u, v in zip(signs, signs[1:])) > 1 else []
    last = len(edges)
    # each edge with P and its magnitude there: the edge state, if taken
    edge_states = [(e, _value(c, e), _value(mag_c, e)) for e, _, _, _ in edges]
    once = [_taken_once(x, *edge, p_e, mag_e)
            for edge, (_, p_e, mag_e) in zip(edges, edge_states)]
    found = [state for state, o in zip(edge_states, once) if o]
    lo, i_lo = 0.0, 0.0
    for s in range(last + 1):
        if s < last:
            hi, i_hi = edges[s][0], edges[s][1]
            rising = i_lo < x <= i_hi
            held = (rising or i_hi <= x < i_lo) and not once[s] and not (s and once[s - 1])
        else:
            rising = c[d] > 0.0
            held = (i_lo < x if rising else i_lo > x) and not (s and once[s - 1])
            if held:
                hi = max(lo, bound)
                i_hi = poly.input_intensity(hi)
        if held:
            frac = (x - i_lo) / (i_hi - i_lo) if i_hi != i_lo else math.nan
            n = lo + (min(max(frac, 0.0), 1.0) if math.isfinite(frac) else 0.5) * (hi - lo)
            for k, side in ((s - 1, 1.0), (s, -1.0)):
                if 0 <= k < last and edges[k][1] == 0.0:
                    e, _, a, b = edges[k]
                    t2 = a * x / b
                    if t2 > 0.0 and lo < e + side * t2 ** 0.5 < hi:
                        n = e + side * t2 ** 0.5
            found.append(_newton(c[d], terms, n, lo, hi, rising))
        if s < last:
            lo, i_lo = hi, i_hi
    found.sort()
    return [(n, p_n) for k, (n, p_n, mag) in enumerate(found)
            if not (k and _merges(found[k - 1][0], n)) and _verified(p_n, mag)]


def _segment_roots(poly: SelfConsistencyPolynomial, ws: list[float]):
    """The roots of P = free - omega_d^2 drive at each drive of ``ws``
    (Python floats > 0), at its input x = omega_d^2 / (2 kappa), on the
    monotone segments of I(n) between the curve's edges (the n of
    ``poly.folds``).

    Segment s is (e_(s-1), e_s], from n = 0, and the last one runs up to
    ``_root_bound`` of each drive's own P, which raises for a drive out of
    range before any P is evaluated.  It holds one root at input x iff x
    lies between I at its ends, the lower end excluded; I at the edges are
    the folds' own inputs.  Each (node, segment) pair starts at the linear
    interpolation of I in its cell of a table of SEGMENT_TABLE points, or,
    beside an edge at zero input, at the pair member of P's local quadratic
    there when that lies inside the cell, and all pairs run one
    ``_bracketed_newton``.  A node whose near-double pair at an edge
    ``_taken_once`` reports once takes the edge state itself, on the segment
    below the edge, a root that ``_merges`` into the one below is dropped,
    and each root must pass ``_verified``.  ``_node_roots`` is this rule for
    one drive, in Python floats, so a curve and a one-node solve at one
    drive find the same states, to rounding.

    Returns the node (an index into ws), root, segment and P there of each
    kept root, grouped by node and ascending in n."""
    kappa = poly.p.kappa
    w2 = np.array([w ** 2 for w in ws])
    x = w2 / (2.0 * kappa)
    coeffs = np.asarray(_node_polynomials(poly, ws))
    # P's rows as columns, without the top ones that are zero in every row
    c = coeffs.T[:len(_trim(np.abs(coeffs).max(axis=0, initial=0.0)))]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        bounds = np.where(c[-1] != 0.0, _root_bound(poly, ws, w2, c), math.inf)
    edges, at_edges, a, b = np.array(poly.edges).reshape(-1, 4).T
    lo_n = np.append(0.0, edges)
    hi_n = np.append(edges, max(bounds[bounds < math.inf].max(initial=0.0),
                                2.0 * lo_n[-1], 1.0))
    n_tab = lo_n[:, None] + (hi_n - lo_n)[:, None] * _COSINE
    n_tab[:, -1] = hi_n
    with np.errstate(divide="ignore", invalid="ignore"):
        table = poly.input_intensity(n_tab)
    table[:, 0] = np.append(0.0, at_edges)
    table[:-1, -1] = at_edges
    rising = np.sign(table[:, -1] - table[:, 0])
    # each pair's cell: the number of table entries below its input, along
    # the segment's direction (none on a flat segment)
    cell = np.zeros((len(x), len(lo_n)), dtype=np.intp)
    for k in np.flatnonzero(np.abs(rising) == 1.0).tolist():
        cell[:, k] = np.searchsorted(rising[k] * table[k], rising[k] * x)
    has = (cell > 0) & (cell < SEGMENT_TABLE)

    with np.errstate(invalid="ignore"):
        # P and its magnitude at every edge, row by row
        p_e, mag_e = _value(np.stack((c, np.abs(c)), axis=1)[..., None], edges)
        once = _taken_once(x[:, None], edges, at_edges, a, b, p_e, mag_e)
    has[:, :-1] &= ~once
    has[:, 1:] &= ~once

    node, seg = np.nonzero(has)
    k = cell[node, seg]
    lo, hi = n_tab[seg, k - 1], n_tab[seg, k]
    # on the last segment each row's own bound caps its cell: the table runs
    # to the largest, which a row with a far smaller root cannot bisect down
    # from in BRACKET_STEPS
    hi = np.where(seg == len(edges), np.minimum(hi, np.maximum(bounds[node], lo)), hi)
    x_n = x[node]
    with np.errstate(divide="ignore", invalid="ignore"):
        frac = (x_n - table[seg, k - 1]) / (table[seg, k] - table[seg, k - 1])
        n = lo + np.where(np.isfinite(frac), np.clip(frac, 0.0, 1.0), 0.5) * (hi - lo)
        if poly.singular_states:
            # beside an edge at zero input, the pair member of P's local
            # quadratic inside the cell.  The clipped index of a first or
            # last segment names an edge on the far side, whose member falls
            # outside the cell
            for k, side in ((np.maximum(seg - 1, 0), 1.0),
                            (np.minimum(seg, len(edges) - 1), -1.0)):
                member = edges[k] + side * np.sqrt(a[k] * x_n / b[k])
                n = np.where((at_edges[k] == 0.0) & (lo < member) & (member < hi),
                             member, n)
    n, p_n, mag = _bracketed_newton(c[:, node], n, lo, hi, -rising[seg])

    # the edge states, with P and its magnitude from the edge evaluation
    i, j = np.nonzero(once)
    node, seg, n = np.append(node, i), np.append(seg, j), np.append(n, edges[j])
    p_n, mag = np.append(p_n, p_e[i, j]), np.append(mag, mag_e[i, j])
    order = np.lexsort((seg, node))
    node, seg, n, p_n, mag = node[order], seg[order], n[order], p_n[order], mag[order]
    kept = np.ones(len(n), dtype=bool)
    kept[1:] = (node[1:] != node[:-1]) | ~_merges(n[:-1], n[1:])
    kept &= _verified(p_n, mag)
    return node[kept], n[kept], seg[kept], p_n[kept]


def _warn_singular(n_c: float) -> None:
    _warn(f"root n_c={n_c:.9g} lies at the parametric singularity "
          "(denominator under the guard) and was excluded", RuntimeWarning)


def _warn_undriven(poly: SelfConsistencyPolynomial) -> None:
    """At an undriven node: the positive zeros of Q are the undriven
    parametric-oscillation boundary states; their amplitude is indeterminate
    at mean field, so they are excluded like driven roots at the
    singularity."""
    if poly.singular_states:
        listed = ", ".join(f"{z:.9g}" for z in poly.singular_states)
        _warn(f"undriven parametric-singularity state(s) at n_c = {listed} "
              "excluded; only the vacuum is reported at zero drive",
              RuntimeWarning)


def _states(poly: SelfConsistencyPolynomial, omegas: np.ndarray, rows: np.ndarray,
            n: np.ndarray, res: np.ndarray, segment: np.ndarray) -> SteadyColumns:
    """The states stage of a curve solve, from the residual-accepted roots
    ``n`` of the driven nodes (``rows``, grouped), P there and their
    ``segment``: the vacuum at every undriven node, the roots at the
    parametric singularity excluded, and the fields and stability labels of
    all kept roots at once, as arrays.  ``_node_states`` applies the same
    rules root by root, to the same bits, but a curve's 300 to 800 rows cost
    it more: on the six fig3 curves this stage takes 6.5 ms and
    ``_node_states`` 28 ms, and the benchmark's ``fig3_sweeps`` run with
    ``_node_states`` here does 36 % less work per second (2 CPUs, 10
    alternating pairs)."""
    p = poly.p
    undriven = (omegas == 0.0).nonzero()[0]
    if undriven.size:
        # the vacuum, an undriven node's one state (its row has no roots),
        # inserted in node order, on the lowest segment
        at = np.searchsorted(rows, undriven)
        rows = np.insert(rows, at, undriven)
        n, res = np.insert(n, at, 0.0), np.insert(res, at, 0.0)
        segment = np.insert(segment, at, 0)
        vacuum = at + np.arange(len(undriven))

    w = omegas[rows]
    # a division by zero or an invalid operation is an ArithmeticError
    # (FloatingPointError), as a Python float's division by zero is in
    # _node_states, not a numpy warning
    with np.errstate(divide="raise", invalid="raise"):
        kappa0, delta0, den = dressed_cavity(n, p)
        singular = at_singularity(den, p)
        if undriven.size:
            # the vacuum is reported at any denominator: its field is 0
            den[vacuum], singular[vacuum] = 1.0, False
        if singular.any():
            for n_c in n[singular].tolist():
                _warn_singular(n_c)
            keep = ~singular
            rows, n, w, res, segment = rows[keep], n[keep], w[keep], res[keep], segment[keep]
            kappa0, delta0, den = kappa0[keep], delta0[keep], den[keep]
        if undriven.size:
            _warn_undriven(poly)

        c_bar = driven_field(kappa0, delta0, den, w, p)
        sigma_minus, sigma_z = atomic_expectations(c_bar, p)
    labels = _stability_labels(_jacobian_matrix(c_bar, sigma_minus, sigma_z, p))
    return SteadyColumns(rows, n, c_bar, sigma_minus, sigma_z, res, labels, segment)


def _node_states(poly: SelfConsistencyPolynomial, w: float) -> list[SteadyState]:
    """The one-node stage at drive ``w`` (a Python float, validated): the
    roots of ``_node_roots``, or at zero drive the vacuum, mapped by
    ``_states``' rules root by root, in Python floats, through the model
    functions ``_states`` applies to arrays, which give a float and an array
    element the same bits; a drive's one to five roots cost less so than
    numpy's fixed per-call cost (with ``_states`` here instead, the
    benchmark's ``steady_batch`` does 21 % less work per second: 4051
    against 3214 solves/s, 2 CPUs, 10 alternating pairs).  The Jacobians are
    stacked once and labelled by ``_stability_labels``."""
    p = poly.p
    states, jacobians = [], []
    # at zero drive the one state is the vacuum, n = 0 with P = 0 there
    for n, r in _node_roots(poly, w) if w else [(0.0, 0.0)]:
        kappa0, delta0, den = dressed_cavity(n, p)
        if w == 0.0:
            den = 1.0  # the vacuum is reported at any denominator: its field is 0
        elif at_singularity(den, p):
            _warn_singular(n)
            continue
        c = driven_field(kappa0, delta0, den, w, p)
        s_minus, s_z = atomic_expectations(c, p)
        states.append((n, c, s_minus, s_z, r))
        for row in _jacobian_entries(c, s_minus, s_z, p):
            jacobians.extend(row)
    if w == 0.0:
        _warn_undriven(poly)
    labels = _stability_labels(np.array(jacobians, dtype=float).reshape(-1, 5, 5))
    return [SteadyState(n, c, s_minus, s_z, label, r)
            for (n, c, s_minus, s_z, r), label in zip(states, labels)]


def solve_node(poly: SelfConsistencyPolynomial, omega_d: float) -> list[SteadyState]:
    """All self-consistent steady states of ``poly.p`` at the drive
    amplitude ``omega_d`` (checked as a curve's drives are, by ``_drives``:
    the number rule, >= 0 and a finite square, else ValueError), which
    replaces ``poly.p.omega_d``, sorted by photon number.

    This is the one-node solve.  The roots come from the root stage
    ``_node_roots``, in Python floats: the range rule (``_root_bound``: a
    drive whose P is too large to evaluate up to its root bound is a
    ValueError naming it), a bracketed Newton on each monotone segment of
    the curve between ``poly``'s folds that holds one, the edge rule at the
    folds, the merge (``_merges``), and the residual check against EPS_RES
    times the polynomial scale (``_verified``); ``solve_curve_columns``
    applies the same rules to a whole curve at once.  Against the exact roots of P (rational
    arithmetic from the same float parameters), the states outside
    1e-6 max(1, e) of every edge e (the n_c of a fold or singular state)
    are the exact roots there, one for one, to 1e-9 relative where they lie
    farther than 1e-4 from every edge; closer in, a near-double pair that P's
    rounding floor cannot resolve may be reported as one state, two or
    none (``tests/test_exact_roots.py``).  Roots are sought up to
    Fujiwara's bound of P's float coefficients: coefficients within their
    rounding of zero are zero (``build_polynomial``).  The states stage
    (``_node_states``) then maps each kept root,
    in Python floats, to a full mean-field state by the model's own
    formulas (``dressed_cavity``, ``driven_field``, ``atomic_expectations``)
    and labels all of them from their stacked Jacobians by
    ``_stability_labels``, with the Marginal band EPS_STAB.  Roots at the
    parametric singularity (denominator below the guard) are excluded with
    a RuntimeWarning each.  At zero drive there is only the vacuum: the
    polynomial n Q^2 has exact double roots at the singular states, which
    are excluded with a RuntimeWarning.

    Emits a ParametricRegimeWarning when the bare cavity is at/above the
    parametric threshold: the reported roots are still residual-verified,
    but branches at large n_c are typically unstable there.
    """
    (w,) = _drives(poly, [omega_d])
    return _node_states(poly, w)


def solve_curve_columns(poly: SelfConsistencyPolynomial, drives) -> SteadyColumns:
    """The steady states of ``poly``'s curve at the drive amplitudes
    ``drives`` (validated as in ``solve_node``), as columns with each
    state's segment.

    The curve's roots are bracketed on the monotone segments between
    ``poly.folds`` (``_segment_roots``), at each drive's own input
    omega_d^2 / (2 kappa), with no eigen-solve; a segment holds at most one
    state at any input, so the branch id is the segment itself.  The states
    stage ``_states`` maps all roots at once, as arrays, by the rules and
    the bits of ``solve_node``'s ``_node_states``.  The range, merge and
    residual rules are the same, so a drive out of range raises the same
    ValueError naming it.  Emits one ParametricRegimeWarning per call, as
    ``solve_node`` does."""
    ws = _drives(poly, drives)
    omegas = np.array(ws)
    driven = np.flatnonzero(omegas > 0.0)
    node, n, seg, res = _segment_roots(poly, [w for w in ws if w > 0.0])
    return _states(poly, omegas, driven[node], n, res, seg)


def solve_steady_states(p: SystemParams) -> list[SteadyState]:
    """All self-consistent steady states at ``p``, sorted by photon number:
    ``solve_node`` at ``p.omega_d``."""
    return solve_node(build_polynomial(p), p.omega_d)

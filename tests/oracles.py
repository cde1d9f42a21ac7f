"""Independent oracles used to pin expected values.

Everything here is computed from the closed-form mean-field expressions
directly (complex arithmetic, dense grids, finite differences), never through
the polynomial assembly or the solver being tested.
"""

import math
import sys
from fractions import Fraction

import numpy as np

from cpasim.dynamics import mean_field_rhs
from cpasim.steady import _add, _mul, _mulx, _trim


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
    return changes + _refined_changes(p, grid, np.nonzero(near & ~flip)[0])


def count_sign_changes_wide(p, n_max, nodes=20000):
    """``count_sign_changes`` on the union of a uniform and a geometric grid
    over [0, n_max], so that roots spread over many decades (a tail root
    near 1/I at the bare threshold beside a close pair at a weak drive) each
    get cells of their own scale, with nodes clustered about each pole of h
    (``_around_singularities``).  The refinement pass takes the cells on
    both sides of each node where |h| has a local minimum and neither cell
    flips: a close pair inside one cell shows there."""
    grid = np.union1d(np.linspace(0.0, n_max, nodes),
                      np.geomspace(1e-15 * n_max, n_max, nodes))
    grid = np.union1d(grid, _around_singularities(p, grid))
    with np.errstate(divide="ignore", invalid="ignore"):  # h at a pole
        vals = balance_mismatch(grid, p)
    flip = np.sign(vals[:-1]) * np.sign(vals[1:]) < 0
    size = np.concatenate(([np.inf], np.abs(vals), [np.inf]))
    dip = np.flatnonzero((size[1:-1] < size[:-2]) & (size[1:-1] < size[2:]))
    cells = np.union1d(dip - 1, dip)
    cells = cells[(cells >= 0) & (cells < len(flip))]
    return int(np.count_nonzero(flip)) + _refined_changes(p, grid, cells[~flip[cells]])


def _around_singularities(p, grid):
    """Nodes clustered geometrically, down to 1e-15 relative, about each
    zero of the parametric denominator t on ``grid``, each bisected to
    rounding: h has a pole there, and a weak drive puts a pair of roots
    hugging it, one on each side."""
    t = field_gain_pieces(grid, p)[2]
    offsets = np.geomspace(1e-15, 1e-2, 400)
    nodes = []
    for i in np.flatnonzero(np.sign(t[:-1]) * np.sign(t[1:]) < 0):
        lo, hi = grid[i], grid[i + 1]
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if not lo < mid < hi:
                break
            if np.sign(field_gain_pieces(mid, p)[2]) == np.sign(t[i]):
                lo = mid
            else:
                hi = mid
        nodes.append(lo * (1.0 - offsets))
        nodes.append(hi * (1.0 + offsets))
    return np.concatenate([np.zeros(0)] + nodes)


def _refined_changes(p, grid, cells):
    """Sign changes of h inside each of ``cells`` on 401 points."""
    changes = 0
    for i in cells:
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
    library's stepper, an independent implementation of it.  scipy.integrate
    is imported here, not with this module, which the benchmark's checks
    import too."""
    from scipy.integrate import solve_ivp

    sol = solve_ivp(lambda t, y: mean_field_rhs(y, t, p, delta),
                    (0.0, t_eval[-1]), np.asarray(initial, dtype=float),
                    method="DOP853", t_eval=t_eval, rtol=rtol, atol=atol)
    assert sol.success, sol.message
    return sol.y.T


def reference_rhs(state, t, p, delta=0.0):
    """The mean-field time derivative with every coefficient read off ``p``
    on each call and the trig taken at every delta: the library's formula
    before its coefficients were held per parameter set."""
    x1, x2, x3, x4, x5 = state.tolist()
    phase = p.phi - delta * t
    g_nl2 = 2.0 * p.g_nl_mag
    gr = g_nl2 * math.cos(phase)
    gi = g_nl2 * math.sin(phase)
    kh = 0.5 * (p.kappa_l + p.kappa_r)
    gamma = p.gamma
    gh = 0.5 * gamma
    g = p.g
    g2 = 2.0 * g
    dc = p.delta_c
    da = p.delta_tls
    return np.array([
        -kh * x1 + dc * x2 + g * x4 + gr * x1 + gi * x2 + p.omega_d,
        -kh * x2 - dc * x1 - g * x3 + gi * x1 - gr * x2,
        -gh * x3 + da * x4 - g2 * x2 * x5,
        -gh * x4 - da * x3 + g2 * x1 * x5,
        -gamma * (x5 + 0.5) - g2 * (x1 * x4 - x2 * x3),
    ])


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


def oracle_scan_bound(p):
    """Upper n_c bound for dense scans: 10x the linear-cavity estimate,
    floored at 100."""
    return max(100.0, 10.0 * p.omega_d ** 2 / (p.kappa / 2.0) ** 2)


def root_scan_bound(poly):
    """Upper bound on all real roots (Fujiwara), from coefficients alone."""
    c = poly.coeffs
    d = len(c) - 1
    return 2.0 * max((abs(c[d - k]) / abs(c[d])) ** (1.0 / k)
                     for k in range(1, d + 1))



def series_polynomial(p):
    """The bit reference of ``steady.build_polynomial``: (free, drive, q) of
    ``p`` as tuples of Python floats (q None for |G| = 0), assembled by
    ``steady``'s series helpers in float lists, every trim and rounding test
    where the model applies it.  Where kappa g^2 underflows but g^2 does not
    (A then has fewer coefficients than D) it raises IndexError or drops
    Q's n and n^2 coefficients."""
    D0 = p.gamma ** 2 / 4.0 + p.delta_tls ** 2
    D = _trim([D0, 2.0 * p.g ** 2])
    k2 = p.kappa / 2.0
    A = _add([k2 * d for d in D], [p.g ** 2 * p.gamma / 2.0])
    B = _add([p.delta_c * d for d in D], [-p.g ** 2 * p.delta_tls])
    g_re2, g_im2 = p.crystal_quadratures
    AA, DD = _mul(A, A), _mul(D, D)
    g4 = 4.0 * p.g_nl_mag ** 2
    GDD = [g4 * x for x in DD]
    Q = _add(_add(AA, _mul(B, B)), [-x for x in GDD])
    # a coefficient of Q within 4 eps of its terms' magnitude is zero
    eps = 4.0 * sys.float_info.epsilon
    terms = [x + y for x, y in zip(AA, GDD)]
    B_abs = [abs(b) for b in B]
    for k, x in enumerate(_mul(B_abs, B_abs)):
        terms[k] += x
    Q = _trim([0.0 if abs(c) <= eps * t else c for c, t in zip(Q, terms)])
    if p.g_nl_mag == 0.0:
        return tuple(_mulx(Q)), tuple(DD), None
    # Q and R share the factor A + 2 Re(G) D where Rq = 2 Im(G) D - B is
    # zero to within 4 eps of its terms' magnitude
    Rq = _add([g_im2 * d for d in D], [-b for b in B])
    terms = [abs(g_im2 * d) + abs(p.delta_c * d) for d in D]
    terms[0] += p.g ** 2 * abs(p.delta_tls)
    if any(abs(r) > eps * t for r, t in zip(Rq, terms)):
        Rp = _add(A, [g_re2 * d for d in D])
        R = _add(_mul(Rp, Rp), _mul(Rq, Rq))
        return tuple(_mulx(_mul(Q, Q))), tuple(_mul(R, DD)), tuple(Q)
    q = [a - g_re2 * d for a, d in zip(A, D)]
    q = _trim([0.0 if abs(c) <= eps * (abs(a) + abs(g_re2 * d)) else c
               for c, a, d in zip(q, A, D)])
    return tuple(_mulx(_mul(q, q))), tuple(DD), tuple(q)

# The exact root oracle: the self-consistency polynomial rebuilt in rational
# arithmetic from the float parameters, P = n Q^2 - omega_d^2 R D^2, with
# its real roots counted by a Sturm sequence and isolated by bisection.  Every
# operation after reading the floats is exact, so it settles pairs closer
# than any float grid.  Polynomials are ascending lists of Fractions.

def _trimmed(a):
    a = list(a)
    while a and a[-1] == 0:
        a.pop()
    return a


def _poly_add(a, b):
    if len(a) < len(b):
        a, b = b, a
    return _trimmed([x + y for x, y in zip(a, b)] + list(a[len(b):]))


def _poly_scale(a, s):
    return _trimmed([s * x for x in a])


def _poly_mul(a, b):
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _poly_der(a):
    return _trimmed([k * x for k, x in enumerate(a)][1:])


def _poly_divmod(a, b):
    """Quotient and remainder of a by the nonzero b."""
    a, q = list(a), [Fraction(0)] * max(1, len(a) - len(b) + 1)
    while len(_trimmed(a)) >= len(b):
        a = _trimmed(a)
        k, f = len(a) - len(b), a[-1] / b[-1]
        q[k] = f
        for i, y in enumerate(b):
            a[i + k] -= f * y
    return _trimmed(q), _trimmed(a)


def _poly_gcd(a, b):
    """The monic greatest common divisor of a and b, not both zero."""
    while b:
        a, b = b, _poly_divmod(a, b)[1]
    return _poly_scale(a, 1 / a[-1])


def _poly_value(a, x):
    out = Fraction(0)
    for c in reversed(a):
        out = out * x + c
    return out


def exact_pieces(p, absolute=False):
    """D^2, Q = A^2 + B^2 - 4|G|^2 D^2, R = Rp^2 + Rq^2, A - 2 Re(G) D and
    Rq of ``p`` in Fractions, where D, A, B, Rp = A + 2 Re(G) D and
    Rq = 2 Im(G) D - B are built from the floats p.kappa, p.gamma, ...,
    math.cos(p.phi) and math.sin(p.phi).  With ``absolute`` every term
    enters with its absolute value: each coefficient is then the magnitude
    of its sum, which bounds the rounding of a float computation of it."""
    f, s = Fraction, (abs if absolute else lambda x: x)
    g2, kappa, gamma = f(p.g) ** 2, f(p.kappa), f(p.gamma)
    dtls, dc, mag = s(f(p.delta_tls)), s(f(p.delta_c)), f(p.g_nl_mag)
    re_g, im_g = s(mag * f(math.cos(p.phi))), s(mag * f(math.sin(p.phi)))
    minus = 1 if absolute else -1
    D = [gamma ** 2 / 4 + dtls ** 2, 2 * g2]
    A = _poly_add(_poly_scale(D, kappa / 2), [g2 * gamma / 2])
    B = _poly_add(_poly_scale(D, dc), [minus * g2 * dtls])
    DD = _poly_mul(D, D)
    Q = _poly_add(_poly_add(_poly_mul(A, A), _poly_mul(B, B)),
                  _poly_scale(DD, minus * 4 * mag ** 2))
    Rp = _poly_add(A, _poly_scale(D, 2 * re_g))
    Rq = _poly_add(_poly_scale(D, 2 * im_g), _poly_scale(B, minus))
    R = _poly_add(_poly_mul(Rp, Rp), _poly_mul(Rq, Rq))
    return DD, Q, R, _poly_add(A, _poly_scale(D, minus * 2 * re_g)), Rq


def exact_factors(p):
    """free, drive and q (None for |G| = 0) of ``p`` in Fractions, in the
    form ``steady.build_polynomial`` takes: Q divided out for |G| = 0, the
    shared factor A + 2 Re(G) D divided out where Rq is zero to within 4 eps
    of its magnitude, else free = n Q^2, drive = R D^2 and q = Q.  Returns
    them and the magnitudes of their sums (``exact_pieces``)."""
    value, magnitude = exact_pieces(p), exact_pieces(p, absolute=True)
    eps = Fraction(sys.float_info.epsilon)
    shared = all(abs(r) <= 4 * eps * m for r, m in zip(value[4], magnitude[4]))

    def form(DD, Q, R, q_shared, _):
        if p.g_nl_mag == 0.0:
            return [Fraction(0)] + Q, DD, None
        if shared:
            return [Fraction(0)] + _poly_mul(q_shared, q_shared), DD, q_shared
        return [Fraction(0)] + _poly_mul(Q, Q), _poly_mul(R, DD), Q

    return form(*value), form(*magnitude)


def exact_polynomials(p):
    """P = n Q^2 - omega_d^2 R D^2 and Q of ``p`` in Fractions
    (``exact_pieces``)."""
    DD, Q, R, _, _ = exact_pieces(p)
    P = _poly_add([Fraction(0)] + _poly_mul(Q, Q),
                  _poly_scale(_poly_mul(R, DD), -Fraction(p.omega_d) ** 2))
    return P, Q


def _states_polynomial(p):
    """The square-free part of P without the zeros it shares with Q (where
    the field is undefined), scaled to coprime integer coefficients: its
    real roots are simple, and they are the distinct steady-state photon
    numbers, exactly."""
    P, Q = exact_polynomials(p)
    if not P:
        return []
    sf = _poly_divmod(P, _poly_gcd(P, _poly_der(P)))[0]
    if Q:
        sf = _poly_divmod(sf, _poly_gcd(sf, Q))[0]
    return _integers(sf)


def _integers(a):
    """``a`` times a positive rational: coprime integers."""
    den = math.lcm(*(c.denominator for c in a))
    ints = [int(c * den) for c in a]
    g = math.gcd(*ints)
    return [c // g for c in ints]


def _sturm(a):
    """The Sturm sequence of ``a``, each member scaled to integers by a
    positive factor, which keeps its signs."""
    chain = [[Fraction(c) for c in a], _poly_der([Fraction(c) for c in a])]
    while len(chain[-1]) > 1:
        rem = _poly_divmod(chain[-2], chain[-1])[1]
        if not rem:
            break
        chain.append(_poly_scale(rem, -1))
    return [_integers(c) for c in chain]


def _sign_at(a, m, k):
    """The sign of the integer polynomial ``a`` at the dyadic m / 2^k, k >= 0,
    from 2^(k deg) a(m / 2^k) in integers."""
    d = len(a) - 1
    acc = a[d]
    for i in range(d - 1, -1, -1):
        acc = acc * m + (a[i] << (k * (d - i)))
    return (acc > 0) - (acc < 0)


def _variations(chain, m, k):
    signs = [v for v in (_sign_at(c, m, k) for c in chain) if v]
    return sum(u != v for u, v in zip(signs, signs[1:]))


def _bound_exponent(a):
    """K with every root of ``a`` of modulus below 2^K (Cauchy)."""
    top = 1 + Fraction(max(abs(c) for c in a[:-1]), abs(a[-1]))
    return max(0, top.numerator.bit_length() - top.denominator.bit_length() + 1)


def _isolated(p, hi):
    """The square-free states polynomial of ``p`` and, for each of its roots
    in (0, hi], an interval (lo_m, hi_m, k) holding that root alone, the
    interval (lo_m / 2^k, hi_m / 2^k]."""
    a = _states_polynomial(p)
    if len(a) < 2:
        return a, []
    chain = _sturm(a)
    top = 1 << _bound_exponent(a)
    if Fraction(hi) < top if hi < math.inf else False:
        # hi itself as a dyadic (a float is one), at a level k >= 0
        num, den = Fraction(hi).as_integer_ratio()
        k = den.bit_length() - 1
        stack = [(0, num, k)]
    else:
        stack = [(0, top, 0)]
    found = []
    while stack:
        lo, up, k = stack.pop()
        count = _variations(chain, lo, k) - _variations(chain, up, k)
        if count == 1:
            found.append((lo, up, k))
        elif count > 1:
            stack += [(2 * lo, lo + up, k + 1), (lo + up, 2 * up, k + 1)]
    return a, sorted(found, key=lambda f: Fraction(f[0], 1 << f[2]))


def exact_root_count(p, hi=math.inf):
    """The number of distinct steady-state photon numbers n of ``p`` (exact
    real roots of P where Q is nonzero, with P rebuilt in rationals from
    the float parameters, ``exact_polynomials``) with 0 < n <= hi."""
    return len(_isolated(p, hi)[1])


def exact_roots(p, hi=math.inf, bits=60):
    """Those photon numbers (see ``exact_root_count``), ascending, as
    Fractions within 2^-bits (relative) of the exact roots: each isolated by
    Sturm bisection, then bisected on the sign of the square-free
    polynomial, in integers at dyadic points."""
    a, intervals = _isolated(p, hi)
    roots = []
    for lo, up, k in intervals:
        s_up = _sign_at(a, up, k)
        while s_up and (up - lo) << bits > up:
            mid, lo, up, k = lo + up, 2 * lo, 2 * up, k + 1
            s_mid = _sign_at(a, mid, k)
            if s_mid == s_up:
                up = mid
            elif s_mid:
                lo = mid
            else:
                lo = up = mid
        roots.append(Fraction(up if not s_up else lo + up, 1 << (k + bool(s_up))))
    return roots

"""The steady-state kernels, the one-node solve steady.solve_node and the
curve solve steady.solve_curve_columns: the curve's stacked states stage
gives every one-node state bit for bit, every state equals the model's
scalar formulas, a state on a fold is reported once, a curve is one kernel
call with no parameter set per node, warnings come once per call,
attributed to the caller's line, and the Lienard-Chipart stability labels
equal classify_stability's."""

import math
import os
import re
import warnings
from dataclasses import replace
from functools import cached_property
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from numpy.polynomial import polynomial as P

from oracles import count_sign_changes, exact_factors, exact_roots, root_scan_bound
from test_curve_geometry import at_input, curve_params, positive_folds
from test_model import random_params
from test_sweep import at_required_detuning, reproduce_span
from cpasim import cli, cpa, steady, sweep
from cpasim.cli import fig3_preset
from cpasim.cpa import BranchLocation
from cpasim.errors import ParametricRegimeWarning
from cpasim.model import (
    Stability,
    SteadyState,
    SystemParams,
    atomic_expectations,
    drive_for_input_intensity,
    intracavity_field,
    output_intensities,
)
from cpasim.steady import (
    EPS_RES,
    EPS_STAB,
    HURWITZ_MIN_ROWS,
    HURWITZ_RTOL,
    IMAG_RTOL,
    MERGE_RADIUS,
    bare_threshold_margin,
    build_polynomial,
    classify_stability,
    jacobian,
    solve_node,
    solve_steady_states,
)
from cpasim.sweep import scan_folds, trace_hysteresis

FIG3 = [(tag, dtls) for tag in ("fig3a", "fig3b", "fig3c") for dtls in (4.5, 1.5)]
EPS = np.finfo(float).eps
ROUNDING, EXACT = 2.0, 8.0


def states_of(cols):
    """The kernel's rows as SteadyStates, in column order."""
    return list(map(SteadyState, cols.n_c.tolist(), cols.c_bar.tolist(),
                    cols.sigma_minus.tolist(), cols.sigma_z.tolist(),
                    cols.stability, cols.residual.tolist()))


def one_node_roots(poly, drives):
    """Every drive's one-node roots (``_node_roots``), as the curve's states
    stage ``_states`` takes them after ``poly``: the drives, each root's
    drive index, the roots, P there and a segment of -1 each."""
    rows, n, res = [], [], []
    for k, w in enumerate(drives):
        for root, p_root in (steady._node_roots(poly, w) if w else []):
            rows.append(k)
            n.append(root)
            res.append(p_root)
    return (np.array(drives, dtype=float), np.array(rows, dtype=np.intp),
            np.array(n, dtype=float), np.array(res, dtype=float),
            np.full(len(rows), -1))


def assert_stacked_equals_one_node_calls(poly, drives):
    """The curve's states stage on every drive's one-node roots at once
    against one solve_node per drive; returns the stacked columns."""
    cols = steady._states(poly, *one_node_roots(poly, drives))
    per_drive = [solve_node(poly, w) for w in drives]
    assert cols.node.tolist() == [k for k, states in enumerate(per_drive)
                                  for _ in states]
    assert states_of(cols) == [s for states in per_drive for s in states]
    return cols


# The scalar path the kernel replaced, as the reference: numpy.polynomial's
# series arithmetic and roots, and one Newton polish per root.  The kernel
# forms the same sums, its products in Python floats, so the pieces agree
# to within rounding; its roots come from the segment rule, which must
# agree with the reference's to 1e-9, or, where they differ, with the exact
# oracle.

def reference_pieces(p):
    """free, drive and q (None for |G| = 0), trimmed."""
    D = np.array([p.gamma ** 2 / 4.0 + p.delta_tls ** 2, 2.0 * p.g ** 2])
    A = P.polyadd((p.kappa / 2.0) * D, [p.g ** 2 * p.gamma / 2.0])
    B = P.polyadd(p.delta_c * D, [-p.g ** 2 * p.delta_tls])
    Q = P.polysub(P.polyadd(P.polymul(A, A), P.polymul(B, B)),
                  4.0 * p.g_nl_mag ** 2 * P.polymul(D, D))
    # a coefficient of Q within the rounding of its terms is zero
    eps = 4.0 * np.finfo(float).eps
    q_terms = P.polyadd(P.polyadd(P.polymul(np.abs(A), np.abs(A)),
                                  P.polymul(np.abs(B), np.abs(B))),
                        4.0 * p.g_nl_mag ** 2 * P.polymul(D, D))
    Q[np.abs(Q) <= eps * q_terms[:len(Q)]] = 0.0
    DD = P.polymul(D, D)
    g_re = 2.0 * p.g_nl_mag * math.cos(p.phi)
    g_im = 2.0 * p.g_nl_mag * math.sin(p.phi)
    # Q and R share the factor A + 2 Re(G) D where 2 Im(G) D - B vanishes to
    # within the rounding of its terms; its square is divided out
    rq = P.polysub(g_im * D, B)
    rq_terms = np.abs(g_im * D) + np.abs(p.delta_c * D) + [p.g ** 2 * abs(p.delta_tls), 0.0]
    if p.g_nl_mag == 0.0:
        free, drive, q = P.polymulx(Q), DD, None
    elif np.all(np.abs(np.pad(rq, (0, 2 - len(rq)))) <= eps * rq_terms):
        q = P.polysub(A, g_re * D)
        q_terms = np.abs(A) + np.abs(g_re * D)[:len(A)]
        q[np.abs(q) <= eps * q_terms[:len(q)]] = 0.0
        free, drive = P.polymulx(P.polymul(q, q)), DD
    else:
        Rp = P.polyadd(A, 2.0 * p.g_nl_mag * math.cos(p.phi) * D)
        Rq = P.polysub(2.0 * p.g_nl_mag * math.sin(p.phi) * D, B)
        R = P.polyadd(P.polymul(Rp, Rp), P.polymul(Rq, Rq))
        free, drive, q = P.polymulx(P.polymul(Q, Q)), P.polymul(R, DD), Q
    return free, drive, None if q is None else P.polytrim(q, tol=0.0)


def reference_polynomial(p):
    free, drive, _ = reference_pieces(p)
    return P.polytrim(P.polysub(free, p.omega_d ** 2 * drive), tol=0.0)


def reference_roots(p):
    c = reference_polynomial(p)
    found = sorted(max(float(z.real), 0.0) for z in P.polyroots(c)
                   if abs(z.imag) <= IMAG_RTOL * max(1.0, abs(z.real))
                   and z.real >= -1e-12)
    merged = []
    for n in found:
        if not (merged and n - merged[-1] <= MERGE_RADIUS * max(1.0, n)):
            merged.append(n)
    roots = []
    for n0 in merged:
        n, scale = n0, max(1.0, n0)
        for _ in range(40):
            f, fp = float(P.polyval(n, c)), float(P.polyval(n, P.polyder(c)))
            if fp == 0.0:
                break
            step = f / fp
            if abs(step) > 0.1 * scale:
                n = n0
                break
            n -= step
            if abs(step) < 1e-15 * scale:
                break
        if n < 0.0 or abs(n - n0) > 1e-3 * scale:
            n = n0
        res = float(P.polyval(n, c))
        if abs(res) <= EPS_RES * max(1.0, float(P.polyval(n, np.abs(c)))):
            roots.append((n, res))
    merged = []
    for n, res in sorted(roots):
        if not (merged and n - merged[-1][0] <= MERGE_RADIUS * max(1.0, n)):
            merged.append((n, res))
    return merged


def reference_points():
    for key in FIG3:
        p = fig3_preset(*key)
        for x in np.linspace(0.0, reproduce_span(p), 301)[1:]:
            yield at_input(p, x)
        # on and beside the folds, Newton's first step can be huge there
        for x, _ in scan_folds(p, 1e5):
            if x > 0.0:
                yield at_input(p, x)
                yield at_input(p, x * (1.0 + 1e-14))
    rng = np.random.default_rng(7)
    for _ in range(300):
        yield random_params(rng)
    base = dict(kappa_l=2.0, kappa_r=3.0, delta_c=1.0, delta_tls=-1.0, omega_d=2.0)
    yield SystemParams(g=1.5, **base)  # |G| = 0
    yield SystemParams(g_nl_mag=0.4, phi=2.0, **base)  # g = 0
    yield SystemParams(kappa_l=1.6968462675217262, kappa_r=1.6968462675217262,
                       g=1.625, g_nl_mag=0.8484231337608631, omega_d=0.6)
    # Python's omega_d ** 2 and numpy's array square differ by an ulp here
    yield SystemParams(g=1.0, g_nl_mag=0.3, phi=1.0, **dict(
        base, omega_d=12.213355328251328))


def assert_a_fold_pair_settles_it(q, found):
    """Where the roots ``found`` differ from the reference's: the node lies
    on or beside a fold's input, and the roots off that fold's near-double
    pair equal the exact oracle's, the pair's at most two states within
    1e-6 of the fold.  The reference places a near-double pair only to
    sqrt(eps cond) (the companion matrix), and neither rule resolves the
    pair below P's rounding floor, where the exact pair can be real or
    complex."""
    x = q.omega_d ** 2 / (2.0 * q.kappa)
    (e,) = [n for y, n in build_polynomial(q).folds if abs(x - y) <= 1e-13 * y]
    exact = [float(r) for r in exact_roots(q)]
    pair = [n for n in found if abs(n - e) <= 1e-6 * e]
    assert len(pair) <= 2
    assert [n for n in found if n not in pair] == pytest.approx(
        [n for n in exact if abs(n - e) > 1e-4 * e], rel=1e-9)


def max_rounding(got, exact, mag):
    """The largest |got_k - exact_k| / (eps mag_k) over a float series and
    its exact value and magnitude, zero-padded alike; inf where a nonzero
    difference has a zero magnitude."""
    k = max(len(got), len(exact), len(mag))
    got, exact, mag = (list(c) + [0] * (k - len(c)) for c in (got, exact, mag))
    worst = 0.0
    for x, e, m in zip(got, exact, mag):
        error = abs(Fraction(x) - e)
        if error:
            worst = max(worst, math.inf if m == 0 else float(error / (EPS * m)))
    return worst


def test_kernel_keeps_the_scalar_arithmetic():
    # the pieces and P against numpy.polynomial's: the same lengths and
    # zeros, and each coefficient within ROUNDING eps of its row's largest
    # (the products are Python floats, numpy.polynomial's run through BLAS);
    # and against the exact pieces built from the same floats, within
    # EXACT eps of the magnitude of each coefficient's sum
    compared = settled = 0
    for q in reference_points():
        poly = build_polynomial(q)
        free, drive, q_ref = reference_pieces(q)
        for got, ref in ((poly.coeffs, reference_polynomial(q)), (poly.free, free),
                         (poly.drive, drive), (poly.q, q_ref)):
            if ref is None:
                assert got is None
                continue
            got = np.asarray(got)
            assert len(got) == len(ref) and np.array_equal(got == 0.0, ref == 0.0)
            assert np.all(np.abs(got - ref) <= ROUNDING * EPS * np.abs(ref).max())
        (free, drive, q_exact), mags = exact_factors(q)
        for got, exact, mag in zip((poly.free, poly.drive, poly.q),
                                   (free, drive, q_exact), mags):
            if got is not None:
                assert max_rounding(got, exact, mag) <= EXACT
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            states = solve_steady_states(q)
        if any(w.category is RuntimeWarning for w in seen):
            continue  # a root excluded at the parametric singularity
        found = [s.n_c for s in states]
        reference = [n for n, _ in reference_roots(q)]
        if len(found) == len(reference) and found == pytest.approx(reference, rel=1e-9):
            compared += 1
        else:
            assert_a_fold_pair_settles_it(q, found)
            settled += 1
    assert compared >= 2100 and settled <= 10


@pytest.mark.parametrize("p", [
    fig3_preset("fig3c", 4.5),
    replace(fig3_preset("fig3c", 4.5), g_nl_mag=0.0),  # no q
    # Q and R share a factor, divided out of q
    at_required_detuning(kappa_l=1.0, kappa_r=1.0, g=2.0, g_nl_mag=0.6, phi=math.pi),
])
def test_the_polynomial_is_python_floats_held_immutable(p):
    poly = build_polynomial(p)
    assert (poly.q is None) is (p.g_nl_mag == 0.0)
    for piece in filter(None, (poly.free, poly.drive, poly.q, poly.coeffs)):
        assert type(piece) is tuple and all(type(c) is float for c in piece)
        with pytest.raises(TypeError):
            piece[0] = 1.0


@pytest.mark.parametrize("key", FIG3)
def test_batch_equals_one_node_calls_on_the_fig3_grids(key):
    # the batch is the curve's stacked states stage, fed the 301 drives'
    # one-node roots at once (the Lienard-Chipart labels)
    p = fig3_preset(*key)
    drives = drive_for_input_intensity(np.linspace(0.0, reproduce_span(p), 301),
                                       p).tolist()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        poly = build_polynomial(p)
        assert_stacked_equals_one_node_calls(poly, drives)
        # in any order: the zero-drive node last
        assert_stacked_equals_one_node_calls(poly, drives[::-1])


@settings(max_examples=60, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(curve_params(), st.booleans(), st.integers(2, 9))
@example(fig3_preset("fig3b", 1.5), True, 5)
@example(fig3_preset("fig3c", 4.5), False, 5)
# g = 0 at the bare threshold: Q vanishes and P is a nonzero constant
@example(SystemParams(kappa_l=1.0, kappa_r=1.0, g_nl_mag=0.5), True, 3)
@example(SystemParams(kappa_l=1.0, kappa_r=1.0, delta_c=1.5,
                      g_nl_mag=0.9013878188659973), False, 2)
@example(SystemParams(kappa_l=2.0, kappa_r=0.5, g=1.5, delta_c=1.0,
                      delta_tls=-2.0), False, 4)
def test_batch_equals_one_node_calls(p, from_zero, count):
    # grids that start at zero input or inside the range, plus nodes
    # placed on every positive fold
    folds = [x for x, _ in positive_folds(p)]
    top = 1.5 * max(folds, default=1.0)
    grid = np.union1d(np.linspace(0.0 if from_zero else top / count, top, count),
                      folds)
    drives = drive_for_input_intensity(grid, p).tolist()
    poly = build_polynomial(p)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        batched = assert_stacked_equals_one_node_calls(poly, drives)
    if poly.degree == 0:
        assert not grid[batched.node].any()  # states only where x = 0
    # otherwise, root counts against the dense sign-change oracle, below
    # threshold and away from the folds' near-double roots.  An even node
    # count keeps a round root (the empty cavity's n = 6 at bound 12) off
    # the grid, where h = 0 would be no sign change
    elif bare_threshold_margin(p) > 0.0:
        q = at_input(p, grid[-1])
        assert np.count_nonzero(batched.node == len(grid) - 1) == count_sign_changes(
            q, root_scan_bound(build_polynomial(q)), nodes=20000)


@pytest.mark.parametrize("key, fold_input", [(("fig3b", 1.5), 216.44245026471066),
                                             (("fig3c", 4.5), 29.8036457363407)])
def test_state_on_a_fold_is_reported_once(key, fold_input):
    # the near-double pair at a fold's own input is one state, the edge
    # state itself: the fold's own photon number, in a curve and in a
    # one-node solve alike (they used to report it twice)
    p = fig3_preset(*key)
    x, n_fold = max(scan_folds(p, 2.0 * fold_input))
    assert x == pytest.approx(fold_input, rel=1e-12)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        states = solve_steady_states(at_input(p, x))
        curve = trace_hysteresis(p, [x])
    assert len(states) == 2
    assert sum(abs(s.n_c - n_fold) <= 1e-6 * n_fold for s in states) == 1
    assert np.diff([s.n_c for s in states])[0] > MERGE_RADIUS * states[1].n_c
    assert n_fold in curve.n_c.tolist()
    assert curve.n_c.tolist() == pytest.approx([s.n_c for s in states], rel=1e-7)


@settings(max_examples=40, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(curve_params())
@example(fig3_preset("fig3a", 4.5))  # a window anchored at zero input
@example(fig3_preset("fig3b", 1.5))  # above the bare threshold
@example(fig3_preset("fig3c", 4.5))
@example(SystemParams(kappa_l=2.0, kappa_r=0.5, g=1.5, delta_c=1.0,
                      delta_tls=-2.0))  # |G| = 0, kappa_l != kappa_r
@example(SystemParams(kappa_l=1.6968462675217262, kappa_r=1.6968462675217262,
                      g=1.625, g_nl_mag=0.8484231337608631))  # bare threshold
# g = 0 at the bare threshold: I(n) = 0 everywhere, no root at any drive
@example(SystemParams(kappa_l=1.0, kappa_r=1.0, g_nl_mag=0.5))
def test_a_curve_has_the_one_node_solves_state_counts(p):
    # the curve's bracketed roots against one-node solve_steady_states, one
    # root rule in two implementations, at every node: a grid from zero
    # input, nodes on and 1e-9 and 1e-14 beside every positive fold, and the
    # CPA node.  The counts are equal everywhere, and so are the roots, to
    # P's rounding floor at a near-double pair
    folds = positive_folds(p)
    nodes = [x * f for x, _ in folds
             for f in (1.0 - 1e-9, 1.0 - 1e-14, 1.0, 1.0 + 1e-14, 1.0 + 1e-9)]
    point = cpa.cpa_operating_point(p) if p.kappa_l == p.kappa_r and (
        cpa.soc_effective_params(p)[0] > 0.0) else None
    if point is not None and not point.reasons:
        nodes.append(point.input_intensity)
    grid = np.union1d(np.linspace(0.0, 1.5 * max((x for x, _ in folds), default=1.0),
                                  25), nodes)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        curve = trace_hysteresis(p, grid)
        for x in grid.tolist():
            ns = curve.n_c[curve.input_intensity == x].tolist()
            ref = [s.n_c for s in solve_steady_states(at_input(p, x))]
            assert len(ns) == len(ref)
            assert ns == pytest.approx(ref, rel=1e-6)


def test_a_newton_step_that_leaves_its_bracket_bisects():
    # P = (n - 1)(n - 2)(n - 3) on (1.5, 2.5): Newton's first step from 1.5
    # lands on the root 3, outside the bracket; the bisection keeps the
    # root on its own segment
    # (the two rows' coefficients as columns)
    c = np.array([[-6.0, 11.0, -6.0, 1.0]] * 2).T
    n, p_n, mag = steady._bracketed_newton(c, np.array([1.5, 2.5]), np.array([1.5, 1.5]),
                                           np.array([2.5, 2.5]), np.array([1.0, 1.0]))
    assert n.tolist() == [2.0, 2.0]
    # P and its magnitude at the root, from the Newton's own evaluation
    assert p_n.tolist() == [0.0, 0.0]
    assert mag.tolist() == [6.0 + 11.0 * 2.0 + 6.0 * 4.0 + 8.0] * 2


def test_each_row_caps_the_last_segment_by_its_own_root_bound():
    # at the bare threshold with the shared Q/R factor divided out, I(n)
    # falls to zero on the last segment, so a tiny input's roots reach out
    # near 1/I: its Fujiwara bound, and the segment's table, run to 1e38.
    # The root near n = 67 at the other input is reached only inside its
    # own row's bound
    p = SystemParams(kappa_l=1.6968462675217262, kappa_r=1.6968462675217262,
                     g=1.625, g_nl_mag=0.8484231337608631)
    grid = [1e-40, 1.37e-4]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        curve = trace_hysteresis(p, grid)
        for x in grid:
            ref = [s.n_c for s in solve_steady_states(at_input(p, x))]
            assert curve.n_c[curve.input_intensity == x].tolist() == pytest.approx(
                ref, rel=1e-12)
    assert len(curve.n_c) == 3


def counting_curve_solve(monkeypatch):
    """Count the calls of the curve kernel and of the one-node stage, with
    the shape of every eigvals stack inside each, the eigvals stacks in all
    and the SteadyStates built; any other solve fails.  The curve is read
    from the kernel's columns: only the one-node stage builds SteadyStates."""
    eigvals, kernel, node = steady._eigenvalues, sweep.solve_curve_columns, sweep._node_states
    shapes, calls, built = [], [], []

    def counting_eigvals(a):
        shapes.append(np.shape(a))
        return eigvals(a)

    def counting_kernel(poly, drives):
        before = len(shapes)
        out = kernel(poly, drives)
        calls.append(("curve", len(drives), shapes[before:]))
        return out

    def counting_node(poly, w):
        before = len(shapes)
        out = node(poly, w)
        calls.append(("node", len(out), shapes[before:]))
        return out

    def counting_state(*args):
        built.append(args)
        return SteadyState(*args)

    def elsewhere(*args, **kwargs):
        raise AssertionError("trace_hysteresis solved outside its kernel call")

    monkeypatch.setattr(steady, "_eigenvalues", counting_eigvals)
    monkeypatch.setattr(sweep, "solve_curve_columns", counting_kernel)
    monkeypatch.setattr(sweep, "_node_states", counting_node)
    monkeypatch.setattr(steady, "SteadyState", counting_state)
    for module, name in ((sweep, "solve_steady_states"),
                         (steady, "solve_steady_states"), (steady, "solve_node"),
                         (cpa, "verify_cpa"), (cpa, "solve_steady_states"),
                         (cpa, "solve_node")):
        monkeypatch.setattr(module, name, elsewhere)
    return shapes, calls, built


@pytest.mark.parametrize("start, geometry", [(0.0, 1), (1.0, 1)])
def test_a_curve_is_one_kernel_call(monkeypatch, start, geometry):
    # no per-node loop and no second solve: the grid is one kernel call,
    # whose roots are bracketed on the curve's segments with no eigen-solve.
    # The undriven node at I = 0 reuses the zeros of Q the geometry found,
    # and the stability labels take none: no Jacobian of this curve is
    # undecided by the Lienard-Chipart test.  The CPA drive's one-node stage
    # brackets its roots on the same segments and takes one stack of its
    # three Jacobians, and builds the only SteadyStates
    p = fig3_preset("fig3c", 4.5)
    grid = np.linspace(start, reproduce_span(p), 301)
    shapes, calls, built = counting_curve_solve(monkeypatch)
    curve = trace_hysteresis(p, grid)
    assert calls == [("curve", 301, []), ("node", 3, [(3, 5, 5)])]
    assert len(built) == 3
    # plus the curve geometry's: the roots of V (Q's coefficients keep one
    # sign, so it has no positive root and takes no eigvals)
    assert shapes[:geometry] == [(6, 6)] and len(shapes) == geometry + 1
    assert [m.branch for m in curve.cpa_markers] == [
        BranchLocation.INSIDE_BISTABLE_STABLE]


def test_a_curve_solve_makes_no_eigen_solve(monkeypatch):
    # below the CPA input there is no one-node stage: no eigvals at all
    p = fig3_preset("fig3c", 4.5)
    shapes, calls, built = counting_curve_solve(monkeypatch)
    curve = trace_hysteresis(p, np.linspace(0.0, 20.0, 301))
    assert calls == [("curve", 301, [])] and built == []
    assert shapes == [(6, 6)] and curve.cpa_markers == []
    assert set(curve.branch_id.tolist()) == {0, 1, 2}


def counting_builds(monkeypatch):
    """Count ``build_polynomial`` calls, through every module that imports
    it, and the computations of a polynomial's folds (its ``edges``, which
    ``folds`` reads)."""
    calls = {"builds": 0, "folds": 0}
    build, folds = steady.build_polynomial, steady.SelfConsistencyPolynomial.edges.func

    def counting_build(p):
        calls["builds"] += 1
        return build(p)

    def counting_folds(poly):
        calls["folds"] += 1
        return folds(poly)

    for module in (steady, sweep, cpa, cli):
        monkeypatch.setattr(module, "build_polynomial", counting_build)
    prop = cached_property(counting_folds)
    prop.__set_name__(steady.SelfConsistencyPolynomial, "edges")
    monkeypatch.setattr(steady.SelfConsistencyPolynomial, "edges", prop)
    return calls


@pytest.mark.parametrize("figure", ["fig3a", "fig3b", "fig3c"])
def test_a_reproduced_figure_builds_one_polynomial_and_its_folds_once(
        monkeypatch, tmp_path, figure):
    # scan_folds, the curve and its CPA marker share one polynomial; the
    # command draws two figures, at delta_tls 4.5 and 1.5
    calls = counting_builds(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert cli.main(["reproduce", figure, "--out", str(tmp_path)]) == 0
    assert calls == {"builds": 2, "folds": 2}


def test_verify_cpa_builds_one_polynomial_and_its_folds_once(monkeypatch):
    calls = counting_builds(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for k, key in enumerate(FIG3, 1):
            assert cpa.verify_cpa(fig3_preset(*key)).feasible
            assert calls == {"builds": k, "folds": k}


def sign_changes(c):
    signs = [x > 0.0 for x in c if x != 0.0]
    return sum(u != v for u, v in zip(signs, signs[1:]))


def test_a_one_node_solve_computes_its_folds_once_per_build(monkeypatch):
    # a one-node solve brackets its roots between the folds, which its
    # polynomial computes once, for every drive; where P's coefficients
    # change sign once (a single positive root, by Descartes' rule of
    # signs) the whole axis is its one segment and no folds are needed
    points = [at_input(p, x) for p in map(fig3_preset, *zip(*FIG3))
              for x in (0.0, 1.0, 0.5 * reproduce_span(p))]
    with_folds = sum(q.omega_d > 0.0 and sign_changes(build_polynomial(q).coeffs) > 1
                     for q in points)
    assert 0 < with_folds < len(points)
    calls = counting_builds(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for q in points:
            solve_steady_states(q)
        assert calls == {"builds": len(points), "folds": with_folds}
        poly = steady.build_polynomial(at_input(fig3_preset("fig3c", 4.5), 20.0))
        for x in (20.0, 25.0, 1.0):
            solve_node(poly, drive_for_input_intensity(x, poly.p))
    assert calls == {"builds": len(points) + 1, "folds": with_folds + 1}


def here(w):
    return os.path.samefile(w.filename, __file__)


def test_regime_warning_once_per_kernel_call_at_the_callers_line():
    p = fig3_preset("fig3b", 1.5)
    assert bare_threshold_margin(p) < 0.0
    grid = np.linspace(0.0, reproduce_span(p), 301)
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        trace_hysteresis(p, grid)
    regime = [w for w in seen if w.category is ParametricRegimeWarning]
    # one for the whole curve: the CPA node's one-node stage adds none
    assert len(regime) == 1
    assert seen and all(here(w) for w in seen)

    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        solve_steady_states(at_input(p, grid[-1]))
    assert [w.category for w in seen] == [ParametricRegimeWarning]
    assert here(seen[0])


def test_a_curve_builds_no_parameter_set_per_node(monkeypatch):
    # the grid reaches the kernel as an array of drives and the CPA drive
    # the one-node stage as a float: a curve validates no parameter set
    p = fig3_preset("fig3c", 4.5)
    built = []
    post_init = SystemParams.__post_init__

    def counting_post_init(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(SystemParams, "__post_init__", counting_post_init)
    counts = []
    for nodes in (11, 301):
        built.clear()
        trace_hysteresis(p, np.linspace(0.0, reproduce_span(p), nodes))
        counts.append(len(built))
    assert counts == [0, 0]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0])
def test_drives_and_grids_are_validated_at_entry(bad):
    # a non-finite or negative drive is a ValueError at the boundary, not a
    # numpy.linalg error from inside the solve
    p = fig3_preset("fig3c", 4.5)
    poly = build_polynomial(p)
    with pytest.raises(ValueError, match="omega_d"):
        solve_node(poly, bad)
    with pytest.raises(ValueError, match="omega_d"):
        steady.solve_curve_columns(poly, [1.0, bad])
    with pytest.raises(ValueError, match="input"):
        trace_hysteresis(p, [bad])
    with pytest.raises(ValueError, match="input"):
        trace_hysteresis(p, [0.0, 1.0, bad])
    # a sequence is not one drive, nor a nested one a curve's drives
    with pytest.raises(ValueError, match="omega_d"):
        solve_node(poly, [1.0])
    with pytest.raises(ValueError, match="omega_d"):
        steady.solve_curve_columns(poly, [[1.0]])
    assert steady.solve_curve_columns(poly, []).n_c.size == 0


@pytest.mark.parametrize("w, what", [(1e160, "its square"),
                                     (1e154, "P = free - omega_d^2 drive"),
                                     (1e150, "|free| + omega_d^2 |drive| at P's root bound")])
def test_a_drive_too_large_for_p_is_a_value_error_naming_it(w, what):
    # the square of 1e160 overflows, 1e154^2 times drive's coefficients
    # does, and at 1e150 P's magnitude overflows below its root bound
    # n_c ~ 1e298
    p = fig3_preset("fig3c", 4.5)
    poly = build_polynomial(p)
    message = re.escape(f"drive omega_d = {w!r} is too large: {what}")
    with pytest.raises(ValueError, match=message):
        solve_node(poly, w)
    # the curve decides the range by the same rule, also among other drives
    with pytest.raises(ValueError, match=message):
        steady.solve_curve_columns(poly, [w])
    with pytest.raises(ValueError, match=message):
        steady.solve_curve_columns(poly, [0.0, 1.0, w, 2.0])
    if w > 1e150:  # P's coefficients overflow
        with pytest.raises(ValueError, match=message):
            build_polynomial(replace(p, omega_d=w)).coeffs
    else:  # they do not: only the solves' range rule refuses this drive
        assert np.isfinite(build_polynomial(replace(p, omega_d=w)).coeffs).all()
    if w > 1e154:
        # checked where it enters, before the regime warning of a set
        # above the bare threshold
        above = build_polynomial(fig3_preset("fig3b", 1.5))
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            with pytest.raises(ValueError, match=message):
                solve_node(above, w)
        assert seen == []


def solved(solve):
    """What ``solve()`` returns, or the message of its ValueError."""
    try:
        return solve()
    except ValueError as exc:
        return str(exc)


@pytest.mark.parametrize("tag, dtls", [("fig3c", 4.5), ("fig3b", 1.5)])
def test_a_one_node_drive_is_checked_by_the_curves_rule(tag, dtls):
    # solve_node checks its drive as a curve checks each of its drives: a
    # drive gives a curve at it the same states (to the two root stages'
    # rounding), or the same message, and the same regime warning
    # (fig3b/1.5 is above the bare threshold).  A bool, a string and an
    # array are no drive for either
    poly = build_polynomial(fig3_preset(tag, dtls))

    def checked(solve):
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            got = solved(solve)
        return got, [w.category for w in seen]

    for w in (0.0, -0.0, 0.5, 1e154, np.float64(0.5), 1, True, np.True_,
              np.float32(0.5), np.array(0.5), "0.5", 1 + 0j, None, 10 ** 400,
              math.nan, math.inf, -1.0, -math.inf, np.float64(-1.0), 1e160,
              np.float64(1e160), [1.0], np.array([0.5])):
        node, node_warnings = checked(lambda: solve_node(poly, w))
        cols, curve_warnings = checked(lambda: steady.solve_curve_columns(poly, [w]))
        assert node_warnings == curve_warnings, w
        if isinstance(node, str):
            assert cols == node, w
            continue
        assert cols.n_c.tolist() == pytest.approx([s.n_c for s in node], rel=1e-12), w
        assert cols.stability == [s.stability for s in node], w
    for w in (True, np.True_, "0.5", np.array(0.5), [1.0]):
        assert solved(lambda: solve_node(poly, w)).startswith(
            "drive omega_d must be a finite real number"), w


@pytest.mark.parametrize("p", [
    *(fig3_preset(tag, dtls) for tag, dtls in FIG3),
    SystemParams(kappa_l=10.0, kappa_r=10.0, g=1.0, delta_tls=4.5),  # |G| = 0
], ids=[f"{tag}/{dtls}" for tag, dtls in FIG3] + ["G0"])
def test_a_curve_and_a_node_agree_at_every_input_or_both_raise(p):
    # every half decade of input from 1 to 1e306: a curve at one drive and
    # solve_node find the same states, or both name the drive out of range,
    # and no reported state has a non-finite residual.  A curve over all the
    # drives in range finds them too, and one more drive out of range makes
    # it raise, naming that drive
    poly = build_polynomial(p)
    drives = [drive_for_input_intensity(10.0 ** (k / 2.0), p) for k in range(613)]
    in_range, states = [], []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ParametricRegimeWarning)
        for w in drives:
            node = solved(lambda: [(s.n_c, s.residual) for s in solve_node(poly, w)])
            cols = solved(lambda: steady.solve_curve_columns(poly, [w]))
            if isinstance(node, str):
                assert node.startswith(f"drive omega_d = {w!r} is too large")
                assert cols == node
                continue
            assert not isinstance(cols, str), (w, cols)
            assert len(cols.n_c) == len(node), w
            assert cols.n_c.tolist() == pytest.approx([n for n, _ in node], rel=1e-9)
            assert all(math.isfinite(r) for _, r in node)
            assert np.isfinite(cols.residual).all()
            in_range.append(w)
            states.append(node)
        # the range ends below the top of the scan, so both outcomes are seen
        assert 0 < len(in_range) < len(drives)
        curve = steady.solve_curve_columns(poly, in_range)
        for k, node in enumerate(states):
            assert curve.n_c[curve.node == k].tolist() == pytest.approx(
                [n for n, _ in node], rel=1e-9)
        assert np.isfinite(curve.residual).all()
        out = next(w for w in drives if w not in in_range)
        with pytest.raises(ValueError, match=re.escape(f"drive omega_d = {out!r} is too large")):
            steady.solve_curve_columns(poly, in_range + [out])


def assert_states_match_the_scalar_formulas(p, grid):
    """Every one-node state at the drives of ``grid``, and every curve
    point's field and output intensity at its own photon number, equal the
    model's scalar functions, exactly."""
    poly = build_polynomial(p)
    for w in drive_for_input_intensity(grid, p).tolist():
        q = replace(p, omega_d=w)
        for s in solve_node(poly, w):
            # the vacuum of an undriven node is reported even where the
            # denominator at n = 0 is singular
            assert s.c_bar == (intracavity_field(s.n_c, q) if w > 0.0 else 0.0)
            assert atomic_expectations(s.c_bar, q) == (s.sigma_minus_bar,
                                                       s.sigma_z_bar)
    for point in trace_hysteresis(p, grid).points:
        q = replace(p, omega_d=drive_for_input_intensity(point.input_intensity, p))
        c_bar = intracavity_field(point.n_c, q) if q.omega_d > 0.0 else 0j
        assert point.output_intensity == max(output_intensities(c_bar, q.omega_d, q))


@pytest.mark.parametrize("key", FIG3)
def test_states_match_the_scalar_formulas_on_the_fig3_grids(key):
    p = fig3_preset(*key)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert_states_match_the_scalar_formulas(
            p, np.linspace(0.0, reproduce_span(p), 301))


@settings(max_examples=30, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(curve_params())
@example(SystemParams(kappa_l=2.0, kappa_r=0.5, g=1.5, delta_c=1.0,
                      delta_tls=-2.0))  # |G| = 0, kappa_l != kappa_r
@example(SystemParams(kappa_l=2.0, kappa_r=3.0, delta_c=1.0, delta_tls=-1.0,
                      g_nl_mag=0.4, phi=2.0))  # g = 0
# g = 0 at the bare threshold: the denominator at n = 0 is exactly zero
@example(SystemParams(kappa_l=1.0, kappa_r=1.0, g_nl_mag=0.5))
@example(SystemParams(kappa_l=1.6968462675217262, kappa_r=1.6968462675217262,
                      g=1.625, g_nl_mag=0.8484231337608631))  # bare threshold
def test_states_match_the_scalar_formulas(p):
    folds = [x for x, _ in positive_folds(p)]
    grid = np.union1d(np.linspace(0.0, 1.5 * max(folds, default=1.0), 7), folds)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert_states_match_the_scalar_formulas(p, grid)


def test_a_root_at_the_singularity_is_excluded_at_the_callers_line():
    # a tiny drive pulls the pair at fig3a/4.5's undriven singular state so
    # close to it that one polished root's denominator is under the guard
    p = fig3_preset("fig3a", 4.5)
    poly = build_polynomial(p)
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        tiny = solve_node(poly, 1e-10)
    assert [w.category for w in seen] == [RuntimeWarning]
    assert "parametric singularity" in str(seen[0].message) and here(seen[0])
    # the near-vacuum root
    assert [s.n_c < 1e-20 for s in tiny] == [True]
    for w, states in ((1e-10, tiny), (1.0, solve_node(poly, 1.0))):
        q = replace(p, omega_d=w)
        for s in states:
            assert s.c_bar == intracavity_field(s.n_c, q)
            assert atomic_expectations(s.c_bar, q) == (s.sigma_minus_bar,
                                                       s.sigma_z_bar)


# The one-node root stage: a bracketed Newton per monotone segment of the
# curve, in Python floats

@pytest.mark.parametrize("p, shapes", [
    # three roots of the quintic inside fig3c/4.5's window; Q's coefficients
    # keep one sign
    (at_input(fig3_preset("fig3c", 4.5), 20.0), [(6, 6), (3, 5, 5)]),
    # |G| = 0: the cubic, one root, and V's coefficients keep one sign
    (SystemParams(kappa_l=2.0, kappa_r=3.0, g=1.5, delta_c=1.0, delta_tls=-1.0,
                  omega_d=2.0), [(1, 5, 5)]),
    # a window anchored at zero input: Q has a positive root
    (at_input(fig3_preset("fig3a", 4.5), 0.1), [(2, 2), (6, 6), (3, 5, 5)]),
])
def test_a_one_node_solve_is_two_eigvals_and_no_hurwitz_test(monkeypatch, p, shapes):
    # no eigvals of P: the folds' companion matrices of Q and V, each
    # skipped where Descartes' rule of signs leaves no positive root, and
    # one eigvals of the Jacobian stack, which is below HURWITZ_MIN_ROWS
    seen, eigvals = [], steady._eigenvalues

    def counting_eigvals(a):
        seen.append(np.shape(a))
        return eigvals(a)

    def no_test(j):
        raise AssertionError("a one-node solve ran the Lienard-Chipart test")

    monkeypatch.setattr(steady, "_eigenvalues", counting_eigvals)
    monkeypatch.setattr(steady, "_hurwitz_conditions", no_test)
    states = solve_steady_states(p)
    assert seen == shapes and len(states) == shapes[-1][0]


def test_eigenvalues_are_numpys_to_the_bit(monkeypatch):
    # every matrix the solves of the fig3 presets' windows and of random
    # parameter sets hand to steady._eigenvalues (the companion matrices of
    # Q and V and the Jacobian stacks) gets numpy.linalg.eigvals' bits, and
    # a matrix with an inf or NaN entry raises its LinAlgError, also where
    # the private LAPACK gufunc is missing and numpy.linalg.eigvals serves
    seen, eigvals = [], steady._eigenvalues

    def recording_eigvals(a):
        seen.append(a.copy())
        return eigvals(a)

    monkeypatch.setattr(steady, "_eigenvalues", recording_eigvals)
    rng = np.random.default_rng(7)
    points = []
    for preset in FIG3:
        p = fig3_preset(*preset)
        ins = [at for at, _ in build_polynomial(p).folds if at < math.inf]
        points.append(at_input(p, 0.5 * (min(ins) + max(ins))))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for p in points + [random_params(rng) for _ in range(40)]:
            solve_steady_states(p)
    monkeypatch.undo()
    assert {a.shape[-1] for a in seen} >= {2, 5, 6}
    for lapack in (steady._lapack_eigvals, None):
        monkeypatch.setattr(steady, "_lapack_eigvals", lapack)
        for a in seen:
            got, want = steady._eigenvalues(a), np.linalg.eigvals(a)
            assert got.real.tobytes() == want.real.tobytes()
            assert np.array_equal(got.imag, np.imag(want))
        for a in (seen[0], seen[-1]):
            for bad in (math.inf, -math.inf, math.nan):
                b = a.copy()
                b[..., 0, -1] = bad
                with pytest.raises(np.linalg.LinAlgError, match="infs or NaNs"):
                    steady._eigenvalues(b)


def recorded(stage, *args):
    """``stage(*args)`` and its warnings' category, message, file and line."""
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        out = stage(*args)
    return out, [(w.category.__name__, str(w.message), w.filename, w.lineno)
                 for w in seen]


def column_bytes(node, states):
    """``node`` and the states' columns, each as its dtype and bytes, and
    their labels."""
    cols = [np.array(node, dtype=np.intp)] + [
        np.array([getattr(s, name) for s in states], dtype=t) for name, t in (
            ("n_c", float), ("c_bar", complex), ("sigma_minus_bar", complex),
            ("sigma_z_bar", float), ("residual", float))]
    return [(c.dtype.str, c.tobytes()) for c in cols], [s.stability for s in states]


@settings(max_examples=40, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(curve_params())
# a window anchored at zero input: the undriven singular state, and a root
# at the singularity at drive 1e-10
@example(fig3_preset("fig3a", 4.5))
@example(fig3_preset("fig3b", 1.5))  # above the bare threshold
@example(fig3_preset("fig3c", 4.5))
@example(SystemParams(kappa_l=2.0, kappa_r=0.5, g=1.5, delta_c=1.0,
                      delta_tls=-2.0))  # |G| = 0, kappa_l != kappa_r
@example(SystemParams(kappa_l=2.0, kappa_r=3.0, delta_c=1.0, delta_tls=-1.0,
                      g_nl_mag=0.4, phi=2.0))  # g = 0
@example(SystemParams(kappa_l=1.0, kappa_r=2.5, g=2.0, delta_c=0.5,
                      delta_tls=1.0, g_nl_mag=1.0, phi=3.0))  # above, asymmetric
@example(SystemParams(kappa_l=1.6968462675217262, kappa_r=1.6968462675217262,
                      g=1.625, g_nl_mag=0.8484231337608631))  # bare threshold
# g = 0 at the bare threshold: no root at any drive
@example(SystemParams(kappa_l=1.0, kappa_r=1.0, g_nl_mag=0.5))
def test_the_per_root_states_are_the_stacked_states(p):
    # the one-node states stage, root by root in Python floats, against the
    # stacked stage of a curve fed the same roots, bit for bit: a tiny
    # drive, a grid from zero drive and nodes on and beside every fold, one
    # drive at a time (eigvals) and all at once, past HURWITZ_MIN_ROWS
    # wherever the drives have roots (the Lienard-Chipart labels)
    poly = build_polynomial(p)
    drives = [1e-10] + drive_for_input_intensity(
        fold_grid(p, HURWITZ_MIN_ROWS), p).tolist()
    per_root = [recorded(steady._node_states, poly, w) for w in drives]
    for w, (states, seen) in zip(drives, per_root):
        cols, stacked_seen = recorded(steady._states, poly, *one_node_roots(poly, [w]))
        assert column_bytes(cols.node, states_of(cols)) == column_bytes(
            [0] * len(states), states)
        assert stacked_seen == seen
    cols, seen = recorded(steady._states, poly, *one_node_roots(poly, drives))
    assert column_bytes(cols.node, states_of(cols)) == column_bytes(
        [k for k, (states, _) in enumerate(per_root) for _ in states],
        [s for states, _ in per_root for s in states])
    # the stacked stage names the undriven singular states after every
    # excluded root, not in drive order
    assert sorted(seen) == sorted(w for _, ws in per_root for w in ws)


@pytest.mark.parametrize("key, warned", [
    (("fig3a", 4.5), [RuntimeWarning]),
    (("fig3b", 1.5), [ParametricRegimeWarning, RuntimeWarning]),
    (("fig3c", 4.5), []),
])
def test_an_undriven_one_node_solve_is_the_vacuum(key, warned):
    # no roots at zero drive: the vacuum alone, with the singular states
    # of an anchored window named once, at the caller's line
    p = replace(fig3_preset(*key), omega_d=0.0)
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        states = solve_steady_states(p)
    assert [(s.n_c, s.c_bar, s.sigma_z_bar, s.residual) for s in states] == [
        (0.0, 0j, -0.5, 0.0)]
    assert [w.category for w in seen] == warned and all(here(w) for w in seen)
    singular = build_polynomial(p).singular_states
    assert bool(singular) == (RuntimeWarning in warned)
    if singular:
        assert f"n_c = {singular[0]:.9g} excluded" in str(seen[-1].message)


def test_a_one_node_root_at_the_singularity_is_excluded():
    # the tiny drive of test_a_root_at_the_singularity_is_excluded_at_the_
    # callers_line, solved from its parameter set: the same warning, at the
    # caller's line, and the same kept state as solve_node at that drive
    p = replace(fig3_preset("fig3a", 4.5), omega_d=1e-10)
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        states = solve_steady_states(p)
        node = solve_node(build_polynomial(p), 1e-10)
    assert [w.category for w in seen] == [RuntimeWarning] * 2
    assert str(seen[0].message) == str(seen[1].message) == (
        "root n_c=0.738878529 lies at the parametric singularity "
        "(denominator under the guard) and was excluded")
    assert all(here(w) for w in seen)
    assert states == node and len(states) == 1 and states[0].n_c < 1e-20


def test_the_root_rule(monkeypatch):
    def roots(c):
        return steady.positive_roots(list(c))

    # a near-double pair within MERGE_RADIUS is one root, its lower member
    pair = roots(P.polyfromroots([1.0, 1.0 + 1e-10, 3.0]))
    assert len(pair) == 2 and pair == pytest.approx([1.0, 3.0], rel=1e-9)
    # only positive roots count
    assert roots(P.polyfromroots([-1e-13, 2.0])) == pytest.approx([2.0])
    assert roots(P.polyfromroots([0.0, -1.0, 2.0])) == pytest.approx([2.0])
    # an imaginary part within IMAG_RTOL is rounding: the pair is one root
    assert roots(P.polyadd(P.polyfromroots([2.0, 2.0]), [1e-20])) == pytest.approx(
        [2.0])
    assert roots(P.polyadd(P.polyfromroots([2.0, 2.0]), [1e-6])) == []
    # trailing zeros are ignored; constants and zero have no roots
    assert roots([-2.0, 1.0, 0.0, 0.0]) == [2.0]
    assert roots([5.0]) == roots([0.0, 0.0]) == roots([2.0, 1.0]) == []

    # coefficients that keep one sign have no positive root: no eigen-solve
    def no_eigvals(a):
        raise AssertionError("an eigen-solve for coefficients of one sign")

    monkeypatch.setattr(steady, "_eigenvalues", no_eigvals)
    assert roots(P.polyfromroots([-1.0, -2.0, -3.0])) == []
    assert roots([0.0, -1.0, 0.0, -2.0]) == []


FLAT_FOLD = SystemParams(kappa_l=1.805564499711501, kappa_r=2.789917444759545,
                         g=3.805564499711501, delta_c=2.635456707814578,
                         delta_tls=0.01, g_nl_mag=1.6469878144290593, phi=3.0)
FLAT_FOLD_INPUT, FLAT_FOLD_N = 0.13581843111452677, 1.0539852863445822


def test_a_flat_folds_pair_keeps_its_polished_roots():
    # at the fold's own input the near-double pair, flat there (P ~ (n - e)^2),
    # is the edge state itself, exactly the fold's photon number.  The
    # companion matrix gave two states, n_c = 1.0539852913550016 and
    # 1.0539864454594072, where the exact pair is complex by a hair
    assert max(scan_folds(FLAT_FOLD, 0.2)) == (FLAT_FOLD_INPUT, FLAT_FOLD_N)
    states = solve_steady_states(at_input(FLAT_FOLD, FLAT_FOLD_INPUT))
    assert [s.n_c for s in states][1:] == [FLAT_FOLD_N]


def test_a_flat_folds_state_is_reported_once():
    states = solve_steady_states(at_input(FLAT_FOLD, FLAT_FOLD_INPUT))
    near = [s.n_c for s in states if abs(s.n_c - FLAT_FOLD_N) <= 1e-4 * FLAT_FOLD_N]
    assert near == pytest.approx([FLAT_FOLD_N], rel=1e-8)


# Stability labels: the kernel's Lienard-Chipart test of each Jacobian's
# characteristic polynomial against classify_stability's eigenvalues

def states_and_jacobians(p, grid):
    """The states over ``grid``, labelled as one stack by the curve's states
    stage (fed every node's one-node roots), and the stack of their
    Jacobians."""
    poly = build_polynomial(p)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        states = states_of(steady._states(poly, *one_node_roots(
            poly, drive_for_input_intensity(grid, p).tolist())))
    return states, np.array([jacobian(s, p) for s in states]).reshape(-1, 5, 5)


def fold_grid(p, nodes):
    """``nodes`` inputs from 0, plus nodes on and beside every positive fold."""
    folds = [x for x, _ in positive_folds(p)]
    beside = [x * f for x in folds for f in (1.0 - 1e-9, 1.0 + 1e-14, 1.0 + 1e-9)]
    return np.union1d(np.linspace(0.0, 1.5 * max(folds, default=1.0), nodes),
                      folds + beside)


@settings(max_examples=40, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(curve_params())
@example(fig3_preset("fig3c", 4.5))
@example(fig3_preset("fig3b", 1.5))  # above the bare threshold
@example(SystemParams(kappa_l=2.0, kappa_r=0.5, g=1.5, delta_c=1.0,
                      delta_tls=-2.0))  # |G| = 0, kappa_l != kappa_r
@example(SystemParams(kappa_l=2.0, kappa_r=3.0, delta_c=1.0, delta_tls=-1.0,
                      g_nl_mag=0.4, phi=2.0))  # g = 0
@example(SystemParams(kappa_l=1.0, kappa_r=2.5, g=2.0, delta_c=0.5,
                      delta_tls=1.0, g_nl_mag=1.0, phi=3.0))  # above, asymmetric
@example(SystemParams(kappa_l=1.6968462675217262, kappa_r=1.6968462675217262,
                      g=1.625, g_nl_mag=0.8484231337608631))  # bare threshold
def test_kernel_labels_equal_classify_stability(p):
    states, j = states_and_jacobians(p, fold_grid(p, 30))
    expected = [classify_stability(jk).stability for jk in j]
    assert [s.stability for s in states] == expected
    # the test alone, whatever the stack's size: every row it decides gets
    # the eigenvalues' label
    if len(j):
        labels, undecided = steady._hurwitz_test(j)
        assert [a for a, u in zip(labels, undecided) if not u] == [
            b for b, u in zip(expected, undecided) if not u]


@pytest.mark.parametrize("rows", [3, HURWITZ_MIN_ROWS])
def test_labels_at_the_edges_of_the_marginal_band(rows):
    # a leading eigenvalue at -2 eps, 0 and +2 eps: Stable, Marginal and
    # Unstable, decided by the test itself and by the whole labelling, on a
    # stack of a few rows (eigvals) and of HURWITZ_MIN_ROWS (the test)
    lead = np.array([-2.0, 0.0, 2.0]) * EPS_STAB
    j = np.zeros((rows, 5, 5))
    j[:, range(5), range(5)] = [-1.0, -2.0, -3.0, -4.0, 0.0]
    j[:, 4, 4] = np.resize(lead, rows)
    expected = np.resize(np.array([Stability.STABLE, Stability.MARGINAL,
                                   Stability.UNSTABLE]), rows).tolist()
    assert steady._stability_labels(j) == expected
    labels, undecided = steady._hurwitz_test(j)
    assert labels == expected and not undecided.any()


def exact_conditions(a, shift):
    """a_1, a_3, a_5, Delta_2, Delta_4 of a + shift I, in rationals, from
    the Faddeev-LeVerrier recursion: no power sums."""
    a = [[Fraction(float(a[i, k])) + (Fraction(shift) if i == k else 0)
          for k in range(5)] for i in range(5)]
    m, coeffs = [[Fraction(0)] * 5 for _ in range(5)], [Fraction(1)]
    for k in range(1, 6):
        m = [[sum(a[i][l] * m[l][c] for l in range(5)) + (coeffs[-1] if i == c else 0)
              for c in range(5)] for i in range(5)]
        coeffs.append(-sum(a[i][l] * m[l][i] for i in range(5) for l in range(5)) / k)
    _, a1, a2, a3, a4, a5 = coeffs
    d2 = a1 * a2 - a3
    return [a1, a3, a5, d2, d2 * (a3 * a4 - a2 * a5) - (a1 * a4 - a5) ** 2]


def test_condition_rounding_stays_far_inside_its_bound():
    # the conditions of the scaled, shifted matrices against exact rational
    # arithmetic, on fig3c/4.5's Jacobians with nodes on its folds: the
    # rounding stays below 4 machine epsilons of the magnitude, far inside
    # HURWITZ_RTOL
    p = fig3_preset("fig3c", 4.5)
    _, j = states_and_jacobians(p, fold_grid(p, 12))
    cond = steady._hurwitz_conditions(j)
    e = math.frexp(np.abs(j).max())[1]
    sigma = math.ldexp(EPS_STAB, -e)
    worst = 0.0
    for row in range(len(j)):
        a = np.ldexp(j[row], -e)
        for test, shift in ((0, sigma), (1, -sigma)):
            exact = exact_conditions(a, shift)
            for k in range(5):
                error = abs(Fraction(float(cond[test, k, row])) - exact[k])
                worst = max(worst, float(error) / float(cond[2, k, row]))
    assert worst < 4.0 * np.finfo(float).eps < HURWITZ_RTOL / 1000.0


def test_contradicting_tests_leave_the_row_to_eigvals(monkeypatch):
    # J + eps I passing while J - eps I fails is impossible in exact
    # arithmetic; where the conditions say so, the row is undecided and the
    # eigenvalues label it
    j = np.zeros((HURWITZ_MIN_ROWS, 5, 5))
    j[:, range(5), range(5)] = [-1.0, -2.0, -3.0, -4.0, -5.0]
    cond = np.ones((3, 5, len(j)))
    cond[1, 4] = -1.0  # Delta_4 of J - eps I
    monkeypatch.setattr(steady, "_hurwitz_conditions", lambda j: cond)
    assert steady._hurwitz_test(j)[1].all()
    assert steady._stability_labels(j) == [Stability.STABLE] * len(j)

"""The exact root oracle (oracles.exact_root_count, oracles.exact_roots) and
the one-node solve's contract against it: P rebuilt in rational arithmetic
from the same float parameters, its roots counted by a Sturm sequence and
isolated by bisection.  The oracle settles the near-double pairs that no
float grid can: a flat fold's, and the pair that hugs an anchored window's
singular state at tiny inputs."""

import math
import warnings

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from oracles import count_sign_changes, exact_root_count, exact_roots, root_scan_bound
from test_curve_geometry import at_input, curve_params
from test_kernel import FLAT_FOLD, FLAT_FOLD_INPUT, FLAT_FOLD_N
from cpasim.cli import fig3_preset
from cpasim.model import SystemParams
from cpasim.steady import build_polynomial, solve_steady_states
from cpasim.sweep import trace_hysteresis


def solved(q):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return [s.n_c for s in solve_steady_states(q)]


@pytest.mark.parametrize("q", [
    at_input(fig3_preset("fig3c", 4.5), 20.0),  # three roots
    at_input(fig3_preset("fig3c", 4.5), 5.0),
    at_input(fig3_preset("fig3a", 4.5), 0.1),  # an anchored window
    SystemParams(kappa_l=2.0, kappa_r=3.0, g=1.5, delta_c=1.0, delta_tls=-1.0,
                 omega_d=2.0),  # |G| = 0
])
def test_the_exact_oracle_agrees_with_the_dense_grid(q):
    count = exact_root_count(q)
    roots = exact_roots(q)
    assert len(roots) == count == count_sign_changes(
        q, root_scan_bound(build_polynomial(q)))
    assert roots == sorted(roots) and all(r > 0 for r in roots)
    # a bound splits the count
    split = float(roots[0]) * 1.5
    assert exact_root_count(q, split) + sum(r > split for r in roots) == count
    below = [float(r) for r in roots if r <= split]
    assert [float(r) for r in exact_roots(q, split)] == pytest.approx(below, rel=1e-15)


def test_the_oracle_settles_the_flat_fold():
    # at the fold's own input the exact pair is complex by a hair: the exact
    # count is the one root near the vacuum.  The one-node solve reports the
    # pair once, as the edge state, within the contract's band of the fold
    q = at_input(FLAT_FOLD, FLAT_FOLD_INPUT)
    (root,) = exact_roots(q)
    states = solved(q)
    assert states[0] == pytest.approx(float(root), rel=1e-12)
    assert states[1:] == [FLAT_FOLD_N]


@pytest.mark.parametrize("x", [1e-14, 2.5e-13, 7.5e-13, 1e-12, 1e-10])
def test_the_oracle_settles_the_pair_at_a_singular_state(x):
    # fig3a/1.5's window is anchored at zero input: at tiny inputs a pair
    # hugs the undriven singular state at n = 7.204021, closer than P's
    # rounding floor resolves.  The exact count is 3, and P's local
    # quadratic there places the pair to 1e-12 (the companion matrix was
    # 3e-9 off at 2.5e-13 to 1e-12).  A curve starts there too, and keeps
    # the pair to 1e-10 (it was 3.3e-9 off at 1e-14 while it moved only
    # starts within that floor)
    p = fig3_preset("fig3a", 1.5)
    q = at_input(p, x)
    exact = [float(r) for r in exact_roots(q)]
    assert len(exact) == 3
    assert solved(q) == pytest.approx(exact, rel=1e-12)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        curve = trace_hysteresis(p, [0.0, x])
    assert curve.n_c[curve.input_intensity == x].tolist() == pytest.approx(exact, rel=1e-10)


# The contract (steady.solve_node): outside BAND of every edge of the curve
# (the n_c of its folds and singular states) the reported states and the
# exact roots correspond one to one, to ACCURATE farther than FAR from every
# edge and to NEAR_ACCURATE between; within BAND a near-double pair P's
# rounding floor does not resolve may be reported as one state, two or none.
# Roots at the parametric singularity are excluded, and exact roots past the
# float polynomial's Fujiwara bound come from coefficients zeroed as
# rounding (``steady.build_polynomial``).
BAND, FAR = 1e-6, 1e-4
ACCURATE, NEAR_ACCURATE = 1e-9, 1e-6


def off_the_edges(roots, edges, band):
    return [n for n in roots if all(abs(n - e) > band * max(1.0, e) for e in edges)]


def assert_the_contract(p, x):
    q = at_input(p, x)
    poly = build_polynomial(q)
    edges = [n for _, n in poly.folds]
    found = solved(q)
    exact = [float(r) for r in exact_roots(
        q, root_scan_bound(poly) if poly.degree > 0 else 0.0)]
    found, exact = off_the_edges(found, edges, BAND), off_the_edges(exact, edges, BAND)
    assert len(found) == len(exact)
    far = off_the_edges(exact, edges, FAR)
    for n, m in zip(found, exact):
        tol = ACCURATE if m in far else NEAR_ACCURATE
        assert abs(n - m) <= tol * max(1.0, m)


@settings(max_examples=60, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(curve_params(), st.floats(-14.0, 6.0))
@example(fig3_preset("fig3a", 1.5), math.log10(2.5e-13))  # the singular pair
@example(fig3_preset("fig3b", 1.5), 2.0)  # above the bare threshold
@example(SystemParams(kappa_l=2.0, kappa_r=0.5, g=1.5, delta_c=1.0,
                      delta_tls=-2.0), 0.0)  # |G| = 0, kappa_l != kappa_r
@example(SystemParams(kappa_l=2.0, kappa_r=3.0, delta_c=1.0, delta_tls=-1.0,
                      g_nl_mag=0.4, phi=2.0), 1.0)  # g = 0
@example(SystemParams(kappa_l=1.6968462675217262, kappa_r=1.6968462675217262,
                      g=1.625, g_nl_mag=0.8484231337608631), -4.0)  # bare threshold
def test_one_node_solves_keep_the_contract(p, u):
    assert_the_contract(p, 10.0 ** u)


@settings(max_examples=60, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(curve_params(), st.floats(-14.0, -1.0), st.sampled_from([-1.0, 1.0]),
       st.integers(0, 3))
@example(fig3_preset("fig3c", 4.5), -14.0, 1.0, 1)
@example(FLAT_FOLD, -12.0, -1.0, 1)
def test_one_node_solves_keep_the_contract_beside_the_folds(p, v, side, k):
    # inputs 1e-14 to 0.1 (relative) beside a positive fold, where a
    # near-double pair's members close in on the fold's n_c
    folds = [x for x, _ in build_polynomial(p).folds if 0.0 < x < math.inf]
    if folds:
        assert_the_contract(p, folds[k % len(folds)] * (1.0 + side * 10.0 ** v))

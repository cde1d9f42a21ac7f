"""Property tests of the closed-form curve geometry (steady.curve_geometry)
against the solver and the dense-grid bisection oracle, on parameters biased
toward the edge regimes: |G| = 0, g = 0, asymmetric mirrors, crystals above
the bare parametric threshold, and windows anchored at zero input."""

import math
import warnings
from dataclasses import replace

import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from oracles import bisect_fold
from cpasim.cli import fig3_preset
from cpasim.model import SystemParams, drive_for_input_intensity
from cpasim.steady import build_polynomial, curve_geometry, solve_steady_states
from cpasim.sweep import trace_hysteresis

PROPERTY_SETTINGS = settings(
    max_examples=80, deadline=None, derandomize=True, database=None,
    suppress_health_check=[HealthCheck.too_slow])


def at_input(p, intensity):
    return replace(p, omega_d=drive_for_input_intensity(intensity, p))


def root_count(p, intensity):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return len(solve_steady_states(at_input(p, intensity)))


@st.composite
def curve_params(draw):
    # small mirror decay and strong coupling make the atom's saturation
    # bistable; a crystal near threshold with phi near pi does the same
    kappa_l = draw(st.floats(0.3, 6.0))
    kappa_r = draw(st.one_of(st.just(kappa_l), st.floats(0.3, 6.0)))
    delta_c = draw(st.floats(-3.0, 3.0))
    # |G| as a multiple of the bare threshold sqrt((kappa/2)^2 + delta_c^2)/2:
    # 0 is the cubic, just above 1 puts Q's zero (the anchored window edge)
    # at positive n, above it the bare cavity is past threshold
    ratio = draw(st.one_of(st.just(0.0), st.floats(0.5, 0.999),
                           st.floats(1.0, 1.3)))
    threshold = 0.5 * math.hypot(0.5 * (kappa_l + kappa_r), delta_c)
    return SystemParams(
        kappa_l=kappa_l, kappa_r=kappa_r,
        g=draw(st.one_of(st.just(0.0), st.floats(0.5, 4.0))),
        delta_c=delta_c,
        delta_tls=draw(st.floats(-3.0, 3.0)),
        g_nl_mag=ratio * threshold,
        phi=draw(st.one_of(st.floats(0.0, 2.0 * math.pi),
                           st.floats(math.pi - 0.3, math.pi + 0.3))))


def positive_folds(p):
    folds, _ = curve_geometry(build_polynomial(p), p.kappa)
    return [(x, n) for x, n in folds if 0.0 < x < math.inf]


def isolated(x, folds, width):
    return all(abs(x - y) > 2.0 * width for y, _ in folds if y != x)


@PROPERTY_SETTINGS
@given(curve_params())
@example(fig3_preset("fig3a", 4.5))
@example(fig3_preset("fig3b", 1.5))
@example(fig3_preset("fig3c", 4.5))
@example(replace(fig3_preset("fig3c", 4.5), g_nl_mag=0.0))
@example(SystemParams(kappa_l=1.0, kappa_r=1.0, g=1.0, g_nl_mag=0.5))
@example(SystemParams(kappa_l=0.5487181091841372, kappa_r=0.5487181091841372,
                      g=0.5487181091841372, delta_c=1.7432851410788572,
                      delta_tls=1.7432851410788572, g_nl_mag=0.9138017627545028,
                      phi=2.8415926535897933))
def test_folds_match_oracle_and_change_root_count_by_two(p):
    folds = positive_folds(p)
    for x, n in folds:
        # a relative bracket: folds at tiny input have their pair leave the
        # oracle's n-window within an absolute 1e-4
        w = 1e-4 * x
        if not isolated(x, folds, w):
            continue
        x_dense = bisect_fold(lambda i: at_input(p, i), x - w, x + w,
                              0.5 * n, 1.5 * n, tol=1e-9)
        assert abs(x_dense - x) <= 1e-6
        assert abs(root_count(p, x * (1.0 + 1e-6))
                   - root_count(p, x * (1.0 - 1e-6))) == 2


@PROPERTY_SETTINGS
@given(curve_params())
@example(fig3_preset("fig3a", 1.5))
@example(fig3_preset("fig3b", 4.5))
@example(SystemParams(kappa_l=0.3, kappa_r=0.3, delta_c=-1.272987125551721,
                      g_nl_mag=0.6539297022273176))
@example(SystemParams(kappa_l=5.533255439097392, kappa_r=2.5, g=0.5, delta_c=2.5,
                      g_nl_mag=2.3655495258737957, phi=5.731381056198782))
@example(SystemParams(kappa_l=0.5, kappa_r=0.5, g=3.1632846691216905,
                      g_nl_mag=0.25, phi=3.1632846691216905))
def test_anchored_pairs_open_at_zero_input(p):
    poly = build_polynomial(p)
    if not poly.free.any():
        # a linear cavity at its parametric threshold: I(n) = 0 for every
        # n, so no steady state survives any drive
        assert root_count(p, 1e-8) == 0
        return
    folds, _ = curve_geometry(poly, p.kappa)
    if any(0.0 < x <= 1e-7 for x, _ in folds):
        return
    # I(n) = 0 at n = 0, on both sides of each anchored edge, and as n -> inf
    # when free has the lower degree (exactly at the bare threshold); that
    # tail root sits near n ~ 1/I, where the parametric denominator can fall
    # under the solver's singularity guard, which then excludes it
    anchored = sum(x == 0.0 for x, _ in folds)
    tail = len(np.trim_zeros(poly.free, "b")) < len(np.trim_zeros(poly.drive, "b"))
    assert root_count(p, 0.0) == 1
    assert 0 <= root_count(p, 1e-8) - (1 + 2 * anchored) <= tail


@PROPERTY_SETTINGS
@given(curve_params(), st.sampled_from([11, 41]))
@example(fig3_preset("fig3b", 1.5), 41)
def test_no_branch_holds_two_roots(p, nodes):
    # trace_hysteresis raises MalformedCurve when two roots of one node
    # fall on one monotone segment of I(n); nodes on the folds themselves
    # hold the near-double roots
    fold_inputs = [x for x, _ in positive_folds(p)]
    grid = np.union1d(np.linspace(0.0, 1.5 * max(fold_inputs, default=1.0),
                                  nodes), fold_inputs)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        curve = trace_hysteresis(p, grid)
    for x in grid:
        ids = [q.branch_id for q in curve.points if q.input_intensity == x]
        assert len(ids) == len(set(ids))

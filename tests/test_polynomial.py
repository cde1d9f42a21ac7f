"""``steady.build_polynomial``'s straight-line assembly against its bit
reference, ``oracles.series_polynomial`` (the same pieces assembled by the
series helpers): free, drive and q have the same lengths and the same bits,
signed zeros included, on every branch of the model's degrees."""

import math
import struct
from dataclasses import replace

import pytest
from hypothesis import example, given

from oracles import exact_factors, series_polynomial
from test_curve_geometry import PROPERTY_SETTINGS, curve_params
from test_sweep import at_required_detuning
from cpasim import steady
from cpasim.cli import fig3_preset, fig4_preset
from cpasim.model import SystemParams

PRESETS = [*(fig3_preset(tag, dtls) for tag in ("fig3a", "fig3b", "fig3c")
             for dtls in (4.5, 1.5)), fig4_preset()]


def _r_constant():
    # kappa/2 = -2 Re(G) and delta_c = 2 Im(G) exactly: both factors of R
    # lose their n coefficient, so R is a constant (at the bare threshold)
    p = SystemParams(kappa_l=1.0, kappa_r=1.0, g=1.0, delta_tls=1.0, g_nl_mag=0.5, phi=2.0)
    g_re2, g_im2 = p.crystal_quadratures
    return replace(p, kappa_l=-g_re2, kappa_r=-g_re2, delta_c=g_im2)


def _shared_at_threshold():
    # 2 Re(G) = kappa/2 - 6e-17 and 2 Im(G) D - B = 0: the shared factor
    # A - 2 Re(G) D at the bare threshold, its n coefficient rounding
    p = SystemParams(kappa_l=0.5, kappa_r=0.5, g=1.0, g_nl_mag=0.25 / math.cos(0.3),
                     phi=0.3)
    return replace(p, delta_c=p.crystal_quadratures[1])


# one parameter set per branch, and the lengths of its free, drive and q
# (None for no q) that show the branch taken
BRANCHES = {
    "|G| = 0": (replace(fig3_preset("fig3c", 4.5), g_nl_mag=0.0), (4, 3, None)),
    "g = 0": (SystemParams(kappa_l=1.0, kappa_r=1.0, delta_c=0.5, delta_tls=1.0,
                           g_nl_mag=0.3, phi=1.0), (2, 1, 1)),
    "delta_c = 0": (SystemParams(kappa_l=2.0, kappa_r=2.0, g=1.0, delta_tls=1.0,
                                 g_nl_mag=0.3, phi=1.0), (6, 5, 3)),
    "shared factor": (at_required_detuning(kappa_l=1.0, kappa_r=1.0, g=2.0,
                                           g_nl_mag=0.6, phi=math.pi), (4, 3, 2)),
    # Q's n^2 and n coefficients are zero
    "bare threshold": (SystemParams(kappa_l=1.0, kappa_r=1.0, g=1.0, delta_c=1.0,
                                    delta_tls=0.5, g_nl_mag=math.sqrt(0.5)), (2, 5, 1)),
    # ... and q's n coefficient in the shared factor, where it is 2e-16
    "bare threshold, shared factor": (_shared_at_threshold(), (2, 3, 1)),
    # Q is zero, and free = n Q with it
    "g = 0 at the bare threshold": (
        SystemParams(kappa_l=1.0, kappa_r=1.0, g_nl_mag=0.5), (1, 1, 1)),
    "R trimmed": (_r_constant(), (4, 3, 2)),
}


def _bits(piece):
    return None if piece is None else (len(piece), struct.pack(f"{len(piece)}d", *piece))


def _with_examples(test):
    for p in [*PRESETS, *(p for p, _ in BRANCHES.values())]:
        test = example(p)(test)
    return test


@PROPERTY_SETTINGS
@given(curve_params())
@_with_examples
def test_the_same_bits_as_the_series_assembly(p):
    poly = steady.build_polynomial(p)
    got = [_bits(piece) for piece in (poly.free, poly.drive, poly.q)]
    assert got == [_bits(piece) for piece in series_polynomial(p)]


@pytest.mark.parametrize("p, lengths", BRANCHES.values(), ids=BRANCHES)
def test_each_example_takes_its_branch(p, lengths):
    poly = steady.build_polynomial(p)
    assert (len(poly.free), len(poly.drive),
            None if poly.q is None else len(poly.q)) == lengths


def test_no_series_helper_builds_a_polynomial(monkeypatch):
    # the pieces are written out: none of the helpers that the folds' V
    # (``edges``) and P (``coeffs``) still use is called
    params = [*PRESETS, *(p for p, _ in BRANCHES.values())]
    want = [series_polynomial(p) for p in params]

    def forbidden(*args):
        raise AssertionError("build_polynomial called a series helper")

    for name in ("_mul", "_add", "_mulx", "_der", "_trim"):
        monkeypatch.setattr(steady, name, forbidden)
    got = [steady.build_polynomial(p) for p in params]
    assert [(poly.free, poly.drive, poly.q) for poly in got] == want


def test_a_kappa_g2_underflow_keeps_q_whole():
    # kappa/2 times 2 g^2 underflows to 0 while 2 g^2 does not: A has no n
    # coefficient though D has one.  The series assembly took A and D as one
    # length there and raised IndexError; Q's n coefficient is 2 B0 B1 -
    # 8 |G|^2 D0 D1, to rounding
    p = SystemParams(kappa_l=1e-30, kappa_r=1e-30, g=1.6e-152, delta_c=1.0,
                     delta_tls=1.0, g_nl_mag=1.0, phi=0.3)
    assert 0.0 < 2.0 * p.g ** 2 and p.kappa / 2.0 * (2.0 * p.g ** 2) == 0.0
    poly = steady.build_polynomial(p)
    (_, _, q), _ = exact_factors(p)
    assert len(poly.q) == 2
    assert poly.q[1] == pytest.approx(float(q[1]), rel=1e-12)
    assert all(math.isfinite(c) for c in (*poly.free, *poly.drive))

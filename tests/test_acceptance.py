"""End-to-end acceptance gate.

Each criterion records one summary line (rendered by the conftest terminal
hook) before any assertion runs, so the closing report always lists every
criterion with its measured numbers, including a failing one.
"""

import math
import time
import warnings
from dataclasses import replace

import numpy as np
import pytest

from criteria import cpa_invariance_check, record_criterion
from oracles import (
    bisect_fold,
    bloch_norm,
    count_sign_changes,
    numerical_jacobian,
    numerical_stability,
    root_scan_bound,
    soc_setting_for_beta,
)
from cpasim.cli import fig3_preset, fig4_preset
from cpasim.cpa import (
    cpa_input_amplitude,
    cpa_photon_number,
    critical_detuning,
    verify_cpa,
)
from cpasim.dynamics import integrate, vacuum_state
from cpasim.model import (
    SystemParams,
    balanced_input_fields,
    drive_for_input_intensity,
    output_fields,
    soc_effective_params,
)
from cpasim.steady import build_polynomial, jacobian, solve_steady_states

SEED = 20260821
KAPPA = 20.0
BETA = 0.02

FIG3_TAGS = ("fig3a", "fig3b", "fig3c")
DTLS = (4.5, 1.5)

# Bistable window of each crystal setting: its number of positive folds (one
# when the window is anchored at zero input) and the stability of its three
# roots in order of photon number.  A root is a saddle exactly where
# t(n) h'(n) > 0, with t the parametric denominator and h the balance mismatch
# of tests/oracles.py.  fig3c keeps t > 0 and the textbook S/U/S; in fig3a
# t < 0 below the undriven singular point, so the lowest root is the saddle;
# in fig3b the bare cavity is above threshold, t < 0 on the upper branch, and
# that branch is a saddle too.
FIG3_WINDOWS = {"fig3a": (1, "USS"),
                "fig3b": (1, "SUU"),
                "fig3c": (2, "SUS")}


def at_input(p, intensity):
    return replace(p, omega_d=drive_for_input_intensity(intensity, p))


def quiet_solve(p):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return solve_steady_states(p)


def state_vector(s):
    return np.array([s.c_bar.real, s.c_bar.imag, s.sigma_minus_bar.real,
                     s.sigma_minus_bar.imag, s.sigma_z_bar])


def random_driven(rng):
    return SystemParams(
        kappa_l=10.0, kappa_r=10.0,
        g=rng.uniform(0.2, 2.0),
        delta_c=rng.uniform(-5.0, 5.0),
        delta_tls=rng.uniform(-3.0, 3.0),
        g_nl_mag=rng.uniform(0.0, 0.3),
        phi=rng.uniform(0.0, 2.0 * math.pi),
        omega_d=rng.uniform(0.5, 6.0))


def test_criterion_01_critical_detuning():
    critical_detuning(1.0, BETA, 1.0)  # warm up
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        value = critical_detuning(1.0, BETA, 1.0)
        best = min(best, time.perf_counter() - t0)
    err = abs(value - 4.9749)
    record_criterion(1, "PASS" if err <= 1e-3 and best < 1e-3 else "FAIL",
                     f"critical detuning {value:.6f} (err {err:.1e}, "
                     f"{best * 1e6:.0f} us)")
    assert err <= 1e-3
    assert best < 1e-3


def test_criterion_02_effective_decay_consistency():
    settings = [(9.98, 2.0 * math.pi / 3.0), (9.98, 4.0 * math.pi / 3.0),
                (4.99, math.pi)]
    ps = [SystemParams(kappa_l=KAPPA / 2, kappa_r=KAPPA / 2, g_nl_mag=m, phi=f)
          for m, f in settings]
    soc_effective_params(ps[0])  # warm up
    t0 = time.perf_counter()
    betas = [soc_effective_params(p)[0] for p in ps]
    elapsed = time.perf_counter() - t0
    err = max(abs(b - BETA) for b in betas)
    record_criterion(2, "PASS" if err <= 1e-12 and elapsed < 1e-3 else "FAIL",
                     f"three crystal settings give beta {BETA} to {err:.1e} "
                     f"({elapsed * 1e6:.0f} us)")
    assert err <= 1e-12
    assert elapsed < 1e-3


def test_criterion_03_output_nulling():
    t0 = time.perf_counter()
    worst = 0.0
    for tag in ("fig3a", "fig3c"):
        for dtls in DTLS:
            p = fig3_preset(tag, dtls)
            n = cpa_photon_number(p)
            omega, intensity = cpa_input_amplitude(p, n)
            p_run = replace(p, omega_d=omega)
            roots = quiet_solve(p_run)
            s = min(roots, key=lambda r: abs(r.n_c - n))
            a_l, a_r = balanced_input_fields(p_run)
            out_l, out_r = output_fields(s.c_bar, a_l, a_r, p_run)
            worst = max(worst, abs(out_l) ** 2 / intensity,
                        abs(out_r) ** 2 / intensity)
    elapsed = time.perf_counter() - t0
    record_criterion(3, "PASS" if worst < 1e-12 and elapsed < 1.0 else "FAIL",
                     f"both output intensities < {worst:.1e} x input "
                     f"({elapsed * 1e3:.0f} ms)")
    assert worst < 1e-12
    assert elapsed < 1.0


def test_criterion_04_absorption_photon_numbers():
    expected = {4.5: 2.25, 1.5: 11.25}
    worst_formula = 0.0
    worst_root = 0.0
    for tag in FIG3_TAGS:
        for dtls, target in expected.items():
            p = fig3_preset(tag, dtls)
            n = cpa_photon_number(p)
            worst_formula = max(worst_formula, abs(n - target))
            omega, _ = cpa_input_amplitude(p, n)
            roots = quiet_solve(replace(p, omega_d=omega))
            best = min(abs(r.n_c - n) / n for r in roots)
            worst_root = max(worst_root, best)
    ok = worst_formula <= 1e-9 and worst_root <= 1e-8
    record_criterion(4, "PASS" if ok else "FAIL",
                     f"photon numbers 2.25/11.25 (formula err {worst_formula:.1e}, "
                     f"solver root match {worst_root:.1e} rel)")
    assert worst_formula <= 1e-9
    assert worst_root <= 1e-8


def test_criterion_05_branch_placement():
    expected = {"fig3a": "OutsideBistableStable",
                "fig3b": "InsideBistableUnstable",
                "fig3c": "InsideBistableStable"}
    details = []
    ok = True
    for tag in FIG3_TAGS:
        for dtls in DTLS:
            t0 = time.perf_counter()
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                report = verify_cpa(fig3_preset(tag, dtls))
            elapsed = time.perf_counter() - t0
            got = str(report.branch_location) if report.branch_location else "none"
            ok = ok and got == expected[tag] and elapsed < 10.0
            details.append(f"{tag}/{dtls:g}={got} ({elapsed:.2f}s)")
    record_criterion(5, "PASS" if ok else "FAIL", "; ".join(details))
    assert ok, details


def test_criterion_06_crystal_invariance():
    rng = np.random.default_rng(SEED)
    passed = 0
    worst = 0.0
    for _ in range(20):
        phi1, phi2 = rng.uniform(math.pi / 2 + 0.2, 3 * math.pi / 2 - 0.2,
                                 size=2)
        mag1, beta1 = soc_setting_for_beta(BETA, phi1)
        # the partner targets the first member's achieved decay so both sit
        # on the same representable float, not just within rounding of 0.02
        mag2, _ = soc_setting_for_beta(beta1, phi2)
        p1 = SystemParams(kappa_l=KAPPA / 2, kappa_r=KAPPA / 2, g=1.0,
                          delta_tls=4.5, g_nl_mag=mag1, phi=phi1)
        p2 = SystemParams(kappa_l=KAPPA / 2, kappa_r=KAPPA / 2, g=1.0,
                          delta_tls=4.5, g_nl_mag=mag2, phi=phi2)
        if cpa_invariance_check(p1, p2):
            passed += 1
        n1, n2 = cpa_photon_number(p1), cpa_photon_number(p2)
        worst = max(worst, abs(n1 - n2) / n1)
    record_criterion(6, "PASS" if passed == 20 else "FAIL",
                     f"{passed}/20 randomized crystal pairs identical "
                     f"(worst rel diff {worst:.1e})")
    assert passed == 20


def test_criterion_07_bistable_window_structure():
    from cpasim.sweep import scan_folds

    window_ok = True
    worst_fold = 0.0
    shapes = {}
    confirmed = 0
    labelled = 0
    for tag in FIG3_TAGS:
        for dtls in DTLS:
            p = fig3_preset(tag, dtls)
            span = 2.5 * 0.5 * p.kappa * cpa_photon_number(p)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                folds = scan_folds(p, span)
            # the window edge pinned at zero input is the boundary of the
            # undriven singular pair, not a turning point; true folds are the
            # strictly positive ones
            pos = [(x, n) for x, n in folds if x > 1e-6]
            lo = 0.0 if len(pos) == 1 else min(x for x, _ in pos)
            hi = max(x for x, _ in pos)
            arrangements = []
            for frac in (0.25, 0.5, 0.75):
                probe = lo + frac * (hi - lo)
                p_run = at_input(p, probe)
                roots = sorted(quiet_solve(p_run), key=lambda s: s.n_c)
                poly = build_polynomial(p_run)
                dense = count_sign_changes(p_run, root_scan_bound(poly))
                window_ok = window_ok and len(roots) == 3 and dense == 3
                arrangements.append("".join(str(s.stability)[0] for s in roots))
                for s in roots:
                    labelled += 1
                    confirmed += (numerical_stability(state_vector(s), p_run)
                                  == str(s.stability))
            shapes[(tag, dtls)] = (len(pos), arrangements)
            for x, n in pos:
                w = 1e-4 * max(1.0, x)
                x_dense = bisect_fold(lambda i: at_input(p, i),
                                      max(0.0, x - w), x + w,
                                      0.5 * n, 1.5 * n, tol=1e-9)
                worst_fold = max(worst_fold, abs(x_dense - x))
    fold_ok = worst_fold <= 1e-6

    def describe(n_folds, arrangement):
        return f"{n_folds}-fold {arrangement}"

    measured = []
    off = []
    for (tag, dtls), (n_folds, arrangements) in shapes.items():
        want = describe(*FIG3_WINDOWS[tag])
        got = describe(n_folds, "/".join(dict.fromkeys(arrangements)))
        measured.append(f"{tag}/{dtls:g} {got}")
        if got != want:
            off.append(f"{tag}/{dtls:g} is {got}, want {want}")
    shape_ok = not off
    oracle_ok = confirmed == labelled
    ok = window_ok and fold_ok and shape_ok and oracle_ok
    record_criterion(
        7, "PASS" if ok else "FAIL",
        f"3-root windows dual-confirmed on 6 configs "
        f"(fold agreement {worst_fold:.1e}); "
        + ("arrangements as expected: " + ", ".join(measured) if shape_ok
           else "arrangements off: " + "; ".join(off))
        + f"; finite-difference Jacobian confirms {confirmed}/{labelled} "
          f"root stabilities")
    assert window_ok, "some window probe did not show exactly 3 roots both ways"
    assert fold_ok, f"fold locations disagree by {worst_fold:.1e}"
    assert shape_ok, f"window anchoring or stability arrangement off: {off}"
    assert oracle_ok, (f"only {confirmed}/{labelled} probe-root stabilities "
                       "match the finite-difference Jacobian")


def test_criterion_08_dynamics_consistency():
    t0 = time.perf_counter()
    rng = np.random.default_rng(SEED)

    relaxed = 0
    tries = 0
    while relaxed < 50 and tries < 2000:
        tries += 1
        p = random_driven(rng)
        roots = quiet_solve(p)
        if len(roots) != 1 or str(roots[0].stability) != "Stable":
            continue
        trace = integrate(p, 0.0, vacuum_state(), 60.0, 60.0,
                          rtol=1e-9, atol=1e-12)
        assert abs(trace.n_c[-1] - roots[0].n_c) <= 1e-6
        relaxed += 1

    p4 = fig4_preset()
    intensity = p4.omega_d ** 2 / (2.0 * p4.kappa)
    plans = {1.0: (100.0, 0.1), 0.1: (350.0, 0.2), 0.01: (400.0, 0.5)}
    shape_ok = True
    freq_notes = []
    for delta, (t_end, dt) in plans.items():
        trace = integrate(p4, delta, vacuum_state(), t_end, dt,
                          rtol=1e-8, atol=1e-10)
        out = trace.out_intensity
        dip = out[trace.t <= 5.0].min()
        growth = out.max()
        shape_ok = shape_ok and dip <= 0.05 * intensity
        shape_ok = shape_ok and growth >= 1e3 * intensity
        if delta >= 0.1:
            t_win = 5.0 * 2.0 * math.pi / delta
            seg = out[trace.t >= t_end - t_win]
            seg = seg - seg.mean()
            freqs = np.fft.rfftfreq(seg.size, d=dt) * 2.0 * math.pi
            amps = np.abs(np.fft.rfft(seg))
            k = 1 + int(np.argmax(amps[1:]))
            bin_w = freqs[1] - freqs[0]
            shape_ok = shape_ok and abs(freqs[k] - delta) <= bin_w
            freq_notes.append(f"d={delta:g}: w={freqs[k]:.4f}")
        else:
            i_max = int(np.argmax(out))
            shape_ok = (shape_ok and 0 < i_max < out.size - 1
                        and out[-1] < out[i_max])
            freq_notes.append(f"d={delta:g}: peak then fall")
    elapsed = time.perf_counter() - t0
    ok = relaxed == 50 and shape_ok and elapsed < 30.0
    record_criterion(8, "PASS" if ok else "FAIL",
                     f"{relaxed}/50 vacuum relaxations to the stable root; "
                     f"dip/growth/oscillation at 3 pump detunings "
                     f"({'; '.join(freq_notes)}) in {elapsed:.1f}s")
    assert relaxed == 50
    assert shape_ok
    assert elapsed < 30.0


def test_criterion_09_property_suites():
    t0 = time.perf_counter()
    rng = np.random.default_rng(SEED)

    # invariant: the atomic Bloch vector never leaves its sphere
    worst_bloch = 0.0
    for _ in range(100):
        p = random_driven(rng)
        v = rng.normal(size=3)
        v *= rng.uniform(0.0, 0.5) / np.linalg.norm(v)
        init = np.array([rng.uniform(-1, 1), rng.uniform(-1, 1),
                         v[0], v[1], v[2]])
        trace = integrate(p, 0.0, init, 15.0, 0.5, rtol=1e-8, atol=1e-10)
        worst_bloch = max(worst_bloch,
                          max(bloch_norm(s) for s in trace.state))
    bloch_ok = worst_bloch <= 0.25 + 1e-7

    # analytic Jacobian against central differences at solver fixed points
    checked = 0
    worst_jac = 0.0
    while checked < 100:
        p = random_driven(rng)
        for s in quiet_solve(p):
            if checked >= 100:
                break
            diff = np.max(np.abs(jacobian(s, p)
                                 - numerical_jacobian(state_vector(s), p)))
            worst_jac = max(worst_jac, diff)
            checked += 1
    jac_ok = worst_jac <= 1e-6

    # a positive leading coefficient forces an odd number of steady states,
    # and every reported root must satisfy the scaled residual bound
    odd_ok = True
    residual_ok = True
    sets = 0
    while sets < 500:
        p = random_driven(rng)
        poly = build_polynomial(p)
        if poly.coeffs[-1] <= 0.0:
            continue
        sets += 1
        roots = quiet_solve(p)
        odd_ok = odd_ok and len(roots) % 2 == 1
        for s in roots:
            scale = max(1.0, sum(abs(c) * s.n_c ** k
                                 for k, c in enumerate(poly.coeffs)))
            residual_ok = residual_ok and abs(poly(s.n_c)) <= 1e-9 * scale
    elapsed = time.perf_counter() - t0
    ok = bloch_ok and jac_ok and odd_ok and residual_ok
    record_criterion(9, "PASS" if ok else "FAIL",
                     f"Bloch bound {worst_bloch:.6f} on 100 trajectories; "
                     f"Jacobian vs differences {worst_jac:.1e} at 100 fixed "
                     f"points; odd root count and residual bound on 500 sets "
                     f"({elapsed:.1f}s)")
    assert bloch_ok, f"Bloch norm reached {worst_bloch}"
    assert jac_ok, f"Jacobian mismatch {worst_jac}"
    assert odd_ok
    assert residual_ok
    assert elapsed < 120.0

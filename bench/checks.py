"""Correctness checks on a pass's outputs, made apart from the solver.

The references are the closed forms and dense-grid oracles of
``tests/oracles.py`` (complex arithmetic, sign changes, bisection, finite
differences), the paper's closed-form photon numbers, and the acceptance
criteria's physical properties.  Each check function returns a ``Report``
whose ``problems`` is empty when every check held.
"""

from __future__ import annotations

import math
import xml.etree.ElementTree as ET
from collections import Counter
from dataclasses import replace

import numpy as np

import oracles
from cpasim import io, steady
from workloads import T_RELAX, bare_margin

# A root n is a zero of the balance mismatch h(n) = |c(n)|^2 - n when
# |h(n)| <= ROOT_TOL max(1, n) max(1, |h'(n)|): the rounding error of h grows
# with its slope near a parametric singularity.  The worst seen on the
# workloads is about 3e-12 (3e-14 once scaled by the slope).
ROOT_TOL = 1e-10
CURVE_HEADER = ["input_intensity", "n_c", "output_intensity", "stability",
                "branch_id"]
FIG3_EXPECTED = {  # pattern, CPA branch location
    "fig3a": ("UnconventionalBistable", "OutsideBistableStable"),
    "fig3b": ("UnconventionalBistable", "InsideBistableUnstable"),
    "fig3c": ("ConventionalBistable", "InsideBistableStable"),
}
BETA = 0.02
CPA_PHOTONS = {4.5: 2.25, 1.5: 11.25}
NULLING_RTOL = 1e-12
FOLD_ATOL = 1e-6
POSITIVE_FOLD = 1e-6
# steady_batch points per family checked against the dense sign-change count
DENSE_SUBSET = 6
BLOCH_MAX = 0.25 + 1e-7
RELAX_ATOL = 1e-6


class Report:
    def __init__(self) -> None:
        self.problems: list[str] = []
        self.counts: Counter = Counter()

    def expect(self, ok: bool, what: str, detail: str = "") -> None:
        self.counts[what] += 1
        if not ok:
            self.problems.append(f"{what}: {detail}")


def at_input(p, intensity):
    """Parameters at per-mirror input intensity I: omega_d = sqrt(2 kappa I)."""
    return replace(p, omega_d=math.sqrt(2.0 * p.kappa * intensity))


def root_mismatch(n, p) -> float:
    """Scaled balance mismatch of a claimed root n (see ROOT_TOL)."""
    lo, hi = max(n - 1e-7 * max(1.0, n), 0.0), n + 1e-7 * max(1.0, n)
    h_lo, h, h_hi = oracles.balance_mismatch(np.array([lo, n, hi]), p)
    slope = (h_hi - h_lo) / (hi - lo)
    return float(abs(h) / (max(1.0, n) * max(1.0, abs(slope))))


def state_vector(s) -> np.ndarray:
    return np.array([s.c_bar.real, s.c_bar.imag, s.sigma_minus_bar.real,
                     s.sigma_minus_bar.imag, s.sigma_z_bar])


def closed_form_outputs(p, n):
    """Both mirror outputs at photon number n from the closed-form field
    <c> = ((kappa0 - i delta0) + 2G) Omega_d / t, with the balanced inputs
    c_in = sqrt(kappa_m) Omega_d / kappa and c_out = sqrt(kappa_m) <c> - c_in."""
    kappa0, delta0, t, _ = oracles.field_gain_pieces(n, p)
    g_nl = p.g_nl_mag * complex(math.cos(p.phi), math.sin(p.phi))
    c = ((float(kappa0) - 1j * float(delta0)) + 2.0 * g_nl) * p.omega_d / float(t)
    outs = []
    for k in (p.kappa_l, p.kappa_r):
        c_in = math.sqrt(k) * p.omega_d / p.kappa
        outs.append(math.sqrt(k) * c - c_in)
    return outs


def fold_agrees(p, x, n) -> float:
    """Distance from fold (x, n) to the dense-grid bisection oracle's fold."""
    w = 1e-4 * max(1.0, x)
    x_dense = oracles.bisect_fold(lambda i: at_input(p, i), max(0.0, x - w),
                                  x + w, 0.5 * n, 1.5 * n, tol=1e-9)
    return abs(x_dense - x)


# ----------------------------------------------------------- fig3_sweeps ----

def check_fig3(figures) -> Report:
    rep = Report()
    for f in figures:
        if f is None:
            continue
        name = f"{f.tag}/{f.dtls:g}"
        p = f.params
        pattern, branch = FIG3_EXPECTED[f.tag]
        rep.expect(str(f.curve.pattern) == pattern, "pattern",
                   f"{name} is {f.curve.pattern}, want {pattern}")
        got = str(f.report.branch_location)
        rep.expect(got == branch, "branch location",
                   f"{name} is {got}, want {branch}")
        markers = [str(m.branch) for m in f.curve.cpa_markers]
        rep.expect(markers == [got], "marker branch",
                   f"{name}: curve markers {markers}, verify_cpa {got}")

        beta = 0.5 * p.kappa + 2.0 * p.g_nl_mag * math.cos(p.phi)
        n_formula = 0.25 * (p.gamma / beta - (p.gamma ** 2 + 4.0 * p.delta_tls ** 2)
                            / (2.0 * p.g ** 2))
        want = CPA_PHOTONS[f.dtls]
        rep.expect(abs(beta - BETA) <= 1e-12 and abs(n_formula - want) <= 1e-9
                   and abs(f.report.n_c_cpa - n_formula) <= 1e-9 * want,
                   "CPA photon number",
                   f"{name}: report {f.report.n_c_cpa!r}, formula {n_formula!r}, "
                   f"want {want}")
        intensity = 0.5 * p.kappa * n_formula
        p_cpa = at_input(p, intensity)
        worst = max(abs(o) ** 2 for o in closed_form_outputs(p_cpa, n_formula))
        rep.expect(f.report.feasible and worst < NULLING_RTOL * intensity
                   and f.report.residual_out < NULLING_RTOL * intensity,
                   "outputs nulled",
                   f"{name}: closed form {worst:.2e}, report "
                   f"{f.report.residual_out:.2e}, input {intensity:.6g}")

        for q in f.curve.points:
            mis = root_mismatch(q.n_c, at_input(p, q.input_intensity))
            rep.expect(mis <= ROOT_TOL, "curve point is a root",
                       f"{name}: ({q.input_intensity!r}, {q.n_c!r}) mismatch {mis:.2e}")

        for source, folds in (("scan_folds", f.folds), ("trace", f.curve.folds)):
            for x, n in folds:
                if x <= POSITIVE_FOLD:
                    continue
                err = fold_agrees(p, x, n)
                rep.expect(err <= FOLD_ATOL, "fold matches oracle",
                           f"{name} {source} fold {x!r} off by {err:.1e}")

        header, rows = io.read_csv(f.stem + ".csv")
        pts = sorted(f.curve.points, key=lambda q: (q.input_intensity, q.n_c))
        rep.expect(header == CURVE_HEADER and len(rows) == len(pts), "CSV shape",
                   f"{name}: header {header}, {len(rows)} rows for {len(pts)} points")
        same = all(float(r[0]) == q.input_intensity and float(r[1]) == q.n_c
                   and float(r[2]) == q.output_intensity
                   and r[3] == str(q.stability) and int(r[4]) == q.branch_id
                   for r, q in zip(rows, pts))
        rep.expect(same, "CSV round trip", f"{name}: rows differ from the curve")
        root = ET.parse(f.stem + ".svg").getroot()
        rep.expect(root.tag.endswith("svg"), "SVG parses", f"{name}: root {root.tag}")
    return rep


# ----------------------------------------------------------- steady_batch ---

def check_steady(points, results, warned, subset_rng) -> Report:
    """``points`` are (family, params), ``results`` the root lists and
    ``warned`` the warning class names the pass emitted, in order."""
    rep = Report()
    for (family, p), roots in zip(points, results):
        if roots is None:
            continue
        for s in roots:
            mis = root_mismatch(s.n_c, p)
            rep.expect(mis <= ROOT_TOL, "root is a zero",
                       f"{family} {p}: n_c {s.n_c!r} mismatch {mis:.2e}")
            label = oracles.numerical_stability(state_vector(s), p)
            if label is not None:
                rep.expect(label == str(s.stability), "stability matches oracle",
                           f"{family} {p}: n_c {s.n_c!r} is {s.stability}, "
                           f"finite differences say {label}")
        # the leading coefficient of the cleared polynomial is
        # 16 g^8 margin^2 (4 g^4 margin for |G| = 0): positive for g > 0 off
        # the threshold, and P(0) < 0 for a nonzero drive, so the count is odd
        if p.g > 0.0 and bare_margin(p) != 0.0:
            rep.expect(len(roots) % 2 == 1, "odd root count",
                       f"{family} {p}: {len(roots)} roots")
        if family == "window":
            rep.expect(len(roots) == 3, "three roots in a window",
                       f"{p}: {len(roots)} roots")

    for family in ("weak", "window", "above"):
        idx = [i for i, (fam, _) in enumerate(points)
               if fam == family and results[i] is not None]
        for i in subset_rng.choice(idx, size=min(DENSE_SUBSET, len(idx)),
                                   replace=False):
            p = points[i][1]
            bound = oracles.root_scan_bound(steady.build_polynomial(p))
            dense = oracles.count_sign_changes(p, bound)
            rep.expect(dense == len(results[i]), "dense root count",
                       f"{family} {p}: solver {len(results[i])}, dense {dense}")

    above = sum(bare_margin(p) <= 0.0 for (_, p), r in zip(points, results)
                if r is not None)
    kinds = Counter(warned)
    rep.expect(kinds == Counter({"ParametricRegimeWarning": above} if above else {}),
               "warnings", f"{dict(kinds)} for {above} above-threshold points")
    return rep


# --------------------------------------------------------- time_evolution ---

def check_time(inputs, outputs, fig4_params) -> Report:
    """``inputs`` are the workload's ("panel", (delta, t_end, sample_dt)) and
    ("relax", params) operations, ``outputs`` their traces and
    (roots, trace) pairs."""
    rep = Report()
    p4 = fig4_params
    intensity = p4.omega_d ** 2 / (2.0 * p4.kappa)
    for (kind, arg), out in zip(inputs, outputs):
        if out is None:
            continue
        if kind == "relax":
            roots, trace = out
            ok = len(roots) == 1 and str(roots[0].stability) == "Stable"
            rep.expect(ok, "single stable target", f"{arg}: {roots}")
            if ok:
                err = abs(trace.n_c[-1] - roots[0].n_c)
                rep.expect(trace.t[-1] == T_RELAX and err <= RELAX_ATOL,
                           "relaxes to root",
                           f"{arg}: ends {err:.2e} from n_c {roots[0].n_c!r}")
        else:
            trace = out
            delta, t_end, dt = arg
            out_i = trace.out_intensity
            rep.expect(trace.t[-1] == t_end, "reaches t_end",
                       f"delta {delta}: {trace.t[-1]}")
            dip = out_i[trace.t <= 5.0].min()
            rep.expect(dip <= 0.05 * intensity, "output dip",
                       f"delta {delta}: min {dip:.3e} of input {intensity:.6g}")
            rep.expect(out_i.max() >= 1e3 * intensity, "output growth",
                       f"delta {delta}: max {out_i.max():.3e}")
            t_win = 5.0 * 2.0 * math.pi / delta
            seg = out_i[trace.t >= t_end - t_win]
            seg = seg - seg.mean()
            freqs = np.fft.rfftfreq(seg.size, d=dt) * 2.0 * math.pi
            k = 1 + int(np.argmax(np.abs(np.fft.rfft(seg))[1:]))
            rep.expect(abs(freqs[k] - delta) <= freqs[1] - freqs[0],
                       "oscillates at delta", f"delta {delta}: peak at {freqs[k]:.4f}")
        worst = float(np.max(oracles.bloch_norm(trace.state.T)))
        rep.expect(worst <= BLOCH_MAX, "Bloch bound", f"{kind} {arg}: {worst!r}")
    return rep

"""Acceptance-criterion logic and summary lines.

Collected by the acceptance tests; the terminal-summary hook in conftest.py
prints them once the run is over, so each criterion gets a visible PASS/FAIL
line even when pytest captures stdout.  A plain module rather than
conftest.py, whose name is shared with bench/conftest.py when both
directories are collected.
"""

from cpasim.cpa import cpa_input_amplitude, cpa_photon_number
from cpasim.model import soc_effective_params

# beta values are considered shared when they differ by at most this (per gamma).
BETA_MATCH_ATOL = 1e-12
# Operating points agree to this, relative, in cpa_invariance_check.
INVARIANCE_RTOL = 1e-12

CRITERION_LINES = []


def record_criterion(number, outcome, detail):
    CRITERION_LINES.append((number, outcome, detail))


def cpa_invariance_check(p1, p2):
    """Criterion 6: True iff the two parameter sets, differing only in the
    crystal settings (|G|, phi) at equal beta, predict the same operating
    point (photon number and input intensity) to INVARIANCE_RTOL relative.

    The required cavity detuning is allowed to differ (it tracks
    2|G|sin(phi)); only the location in the input/output plane is invariant.
    A pair that differs in anything else, or in beta, is a ValueError naming
    what differs.
    """
    for name in ("gamma", "kappa_l", "kappa_r", "g", "delta_tls"):
        if getattr(p1, name) != getattr(p2, name):
            raise ValueError(
                f"parameter sets differ in {name}; only (g_nl_mag, phi) may vary")
    b1, _ = soc_effective_params(p1)
    b2, _ = soc_effective_params(p2)
    if abs(b1 - b2) > BETA_MATCH_ATOL * p1.gamma:
        raise ValueError(f"beta values differ: {b1:.15g} vs {b2:.15g}")

    n1 = cpa_photon_number(p1)
    n2 = cpa_photon_number(p2)

    def rel(a, b):
        return abs(a - b) / max(abs(a), abs(b), 1e-300)

    if rel(n1, n2) > INVARIANCE_RTOL:
        return False
    if n1 > 0.0 and n2 > 0.0:
        _, i1 = cpa_input_amplitude(p1, n1)
        _, i2 = cpa_input_amplitude(p2, n2)
        if rel(i1, i2) > INVARIANCE_RTOL:
            return False
    return True

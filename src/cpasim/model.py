"""Closed-form mean-field algebra of the driven cavity + two-level-system + pumped crystal model.

All rates and detunings are expressed in units of the atomic decay rate
``gamma``; formulas keep ``gamma`` explicit so any consistent unit system
works.  Field amplitudes carry sqrt(rate) units, intensities rate units.
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ParametricSingularity

# Guard for the parametric-oscillation denominator, in units of gamma^2.
EPS_DEN = 1e-9
# The types a number may have, a bool aside (see ``_finite_real``).
REAL_SCALARS = (int, float, np.integer, np.floating)


def _finite_real(name: str, value) -> float:
    """The number rule of every public numeric argument: ``value`` as a
    Python float (itself, when it is one), if it is a finite Python or
    numpy int or float; else a ValueError naming the argument ``name``.  A
    bool is no number, and an int past the float range is not finite."""
    if type(value) is float and math.isfinite(value):  # the common case
        return value
    try:
        if (isinstance(value, REAL_SCALARS) and not isinstance(value, bool)
                and math.isfinite(value)):
            return float(value)
    except OverflowError:  # an int past the float range
        pass
    raise ValueError(f"{name} must be a finite real number, got {value!r}")


def _finite_reals(name: str, values) -> list[float]:
    """``_finite_real`` of each entry of the sequence ``values``, as a list.
    An ndarray is read by ``tolist``, in Python numbers."""
    if isinstance(values, np.ndarray):
        values = values.tolist()
    return [_finite_real(name, v) for v in values]


class Stability(enum.Enum):
    STABLE = "Stable"
    UNSTABLE = "Unstable"
    MARGINAL = "Marginal"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class SystemParams:
    """Model parameters.

    Attributes
    ----------
    kappa_l, kappa_r : float
        Left/right mirror decay rates (> 0).
    g : float
        Atom-cavity coupling strength (>= 0).
    delta_c : float
        Cavity detuning from the drive.
    delta_tls : float
        Two-level-system detuning from the drive.
    g_nl_mag : float
        Magnitude |G| of the pump-induced nonlinear coefficient (>= 0).
    phi : float
        Pump relative phase, normalized into [0, 2*pi).
    omega_d : float
        Total drive amplitude (sum over both mirrors), real and >= 0.
    gamma : float
        Atomic decay rate, the global unit (> 0, default 1).
    """

    kappa_l: float
    kappa_r: float
    g: float = 0.0
    delta_c: float = 0.0
    delta_tls: float = 0.0
    g_nl_mag: float = 0.0
    phi: float = 0.0
    omega_d: float = 0.0
    gamma: float = 1.0

    def __post_init__(self) -> None:
        for name in ("kappa_l", "kappa_r", "g", "delta_c", "delta_tls",
                     "g_nl_mag", "phi", "omega_d", "gamma"):
            object.__setattr__(self, name, _finite_real(name, getattr(self, name)))
        for name in ("gamma", "kappa_l", "kappa_r"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be positive")
        for name in ("g", "g_nl_mag", "omega_d"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be nonnegative")
        if not self.kappa < math.inf:
            raise ValueError(f"kappa_l + kappa_r = {self.kappa_l!r} + {self.kappa_r!r} overflows")
        # a tiny negative phi rounds up to 2 pi itself
        phi = self.phi % (2.0 * math.pi)
        object.__setattr__(self, "phi", 0.0 if phi == 2.0 * math.pi else phi)

    @property
    def kappa(self) -> float:
        """Total cavity decay rate kappa_l + kappa_r."""
        return self.kappa_l + self.kappa_r

    @property
    def g_nl(self) -> complex:
        """Complex nonlinear coefficient G = |G| e^{i phi}."""
        return self.g_nl_mag * cmath.exp(1j * self.phi)

    @cached_property
    def crystal_quadratures(self) -> tuple[float, float]:
        """(2|G| cos(phi), 2|G| sin(phi)), the real and imaginary parts of
        2 G, computed on first use and held on the instance."""
        g_nl2 = 2.0 * self.g_nl_mag
        return g_nl2 * math.cos(self.phi), g_nl2 * math.sin(self.phi)

    @cached_property
    def rhs_coefficients(self) -> tuple[float, ...]:
        """The constant coefficients of ``dynamics.mean_field_rhs``, computed
        on first use and held on the instance: -kappa/2, delta_c, g, 2 g,
        -gamma/2, -gamma, delta_tls, omega_d, 2|G|, phi, 2|G| cos(phi) and
        2|G| sin(phi).  ``-a * x`` parses as ``(-a) * x``, so the negated
        rates give the state's arithmetic the same bits."""
        return (-(0.5 * (self.kappa_l + self.kappa_r)), self.delta_c, self.g,
                2.0 * self.g, -(0.5 * self.gamma), -self.gamma, self.delta_tls,
                self.omega_d, 2.0 * self.g_nl_mag, self.phi,
                *self.crystal_quadratures)


@dataclass
class SteadyState:
    """One self-consistent fixed point of the mean-field equations."""

    n_c: float
    c_bar: complex
    sigma_minus_bar: complex
    sigma_z_bar: float
    stability: Stability
    residual: float


def saturation_denominator(n_c, p: SystemParams):
    """D = gamma^2/4 + delta_tls^2 + 2 g^2 n_c, for n_c >= 0 positive in
    exact arithmetic; in floats gamma^2/4 underflows to 0 for gamma below
    about 1e-154, so D(0) is 0 there when delta_tls = 0.  ``n_c`` may be an
    array."""
    return p.gamma ** 2 / 4.0 + p.delta_tls ** 2 + 2.0 * p.g ** 2 * n_c


def dressed_cavity(n_c, p: SystemParams):
    """(kappa0, delta0, den) at photon number ``n_c``, a float or an array:
    the atom-dressed cavity decay and detuning and the parametric
    denominator den = kappa0^2 + delta0^2 - 4|G|^2.

    This is the one formula behind the scalar functions below and the
    solver's mapping of all its roots at once.  Squares of n_c-dependent
    terms are products, so a float and an array element round alike.
    """
    D = saturation_denominator(n_c, p)
    kappa0 = p.kappa / 2.0 + (p.g ** 2 * p.gamma / 2.0) / D
    delta0 = p.delta_c - p.g ** 2 * p.delta_tls / D
    return kappa0, delta0, kappa0 * kappa0 + delta0 * delta0 - 4.0 * p.g_nl_mag ** 2


def parametric_denominator(n_c: float, p: SystemParams) -> float:
    """kappa0^2 + delta0^2 - 4|G|^2 evaluated at ``n_c``.

    Vanishes at the dressed parametric-oscillation threshold, where the linear
    steady-state response diverges.
    """
    n_c = _finite_real("n_c", n_c)
    if n_c < 0:
        raise ValueError("n_c must be nonnegative")
    return dressed_cavity(n_c, p)[2]


def at_singularity(den, p: SystemParams):
    """Whether the parametric denominator ``den`` (a float, or elementwise
    for an array) is below the guard EPS_DEN * gamma^2, where the
    steady-state response is undefined."""
    return abs(den) < EPS_DEN * p.gamma ** 2


def driven_field(kappa0, delta0, den, omega_d, p: SystemParams):
    """<c> = [(kappa0 - i delta0) + 2 G] omega_d / den from ``dressed_cavity``'s
    terms, elementwise for arrays, in real arithmetic: a float and an array
    element give the same bits."""
    g_re, g_im = p.crystal_quadratures
    return ((kappa0 * omega_d + g_re * omega_d) / den
            + 1j * ((g_im * omega_d - delta0 * omega_d) / den))


def intracavity_field(n_c: float, p: SystemParams) -> complex:
    """Steady-state field amplitude <c> at self-consistent photon number ``n_c``.

    <c> = [(kappa0 - i delta0) + 2 G] Omega_d / (kappa0^2 + delta0^2 - 4|G|^2)

    Raises
    ------
    ParametricSingularity
        If the denominator magnitude is below EPS_DEN * gamma^2.
    """
    n_c = _finite_real("n_c", n_c)
    kappa0, delta0, den = dressed_cavity(n_c, p)
    if at_singularity(den, p):
        raise ParametricSingularity(
            f"effective denominator {den:.3e} at n_c={n_c:.6g} is below the "
            f"threshold guard; steady-state response undefined")
    return driven_field(kappa0, delta0, den, p.omega_d, p)


def atomic_expectations(c_bar, p: SystemParams):
    """Mean atomic coherence and inversion driven by field ``c_bar``.

    Closed-form fixed point of the atomic mean-field equations under the
    factorization <c sigma_z> = <c><sigma_z>:

        <sigma_z> = -(1/2) D0 / (D0 + 2 g^2 |c|^2),  D0 = gamma^2/4 + delta_tls^2
        <sigma_-> = 2 i g <c> <sigma_z> / (gamma/2 + i delta_tls)

    Returns (<sigma_->, <sigma_z>).  The pair always satisfies the Bloch bound
    |<sigma_->|^2 + <sigma_z>^2 <= 1/4, with equality only for c_bar = 0.
    ``c_bar`` may be an array; the arithmetic is real, so a complex and an
    array element give the same bits.
    """
    D0 = p.gamma ** 2 / 4.0 + p.delta_tls ** 2
    re, im = c_bar.real, c_bar.imag
    sigma_z = -0.5 * D0 / (D0 + 2.0 * p.g ** 2 * (re * re + im * im))
    # 2 i g / (gamma/2 + i delta_tls) = 2 g (delta_tls + i gamma/2) / D0
    k_re, k_im = 2.0 * p.g * p.delta_tls / D0, p.g * p.gamma / D0
    sigma_minus = ((k_re * re - k_im * im) * sigma_z
                   + 1j * ((k_re * im + k_im * re) * sigma_z))
    return sigma_minus, sigma_z


def output_fields(c_bar: complex, c_in_l: complex, c_in_r: complex,
                  p: SystemParams) -> tuple[complex, complex]:
    """Mean output field at each mirror: c_out = sqrt(kappa_mirror) <c> - c_in."""
    out_l = math.sqrt(p.kappa_l) * c_bar - c_in_l
    out_r = math.sqrt(p.kappa_r) * c_bar - c_in_r
    return out_l, out_r


def output_intensities(c_bar, omega_d, p: SystemParams):
    """The output intensities |c_out|^2 at the left and right mirror (see
    ``output_fields``) at field ``c_bar`` under the balanced drive
    ``omega_d`` (see ``balanced_input_fields``); floats, or arrays of one
    shape, in real arithmetic as ``driven_field``."""
    re, im = c_bar.real, c_bar.imag
    out = []
    for kappa_m in (p.kappa_l, p.kappa_r):
        root = math.sqrt(kappa_m)
        out_re = root * re - root * omega_d / p.kappa
        out_im = root * im
        out.append(out_re * out_re + out_im * out_im)
    return out[0], out[1]


def soc_effective_params(p: SystemParams) -> tuple[float, float]:
    """Crystal-dressed decay and detuning (beta, delta_c_prime).

    beta = kappa/2 + 2|G|cos(phi)   (may be negative; callers must check)
    delta_c_prime = delta_c - 2|G|sin(phi)
    """
    g_re, g_im = p.crystal_quadratures
    return p.kappa / 2.0 + g_re, p.delta_c - g_im


def balanced_input_fields(p: SystemParams) -> tuple[complex, complex]:
    """Per-mirror input amplitudes for the in-phase, mirror-balanced drive.

    c_in_m = sqrt(kappa_m) Omega_d / kappa.  This is the unique in-phase split
    with c_in_l / c_in_r = sqrt(kappa_l / kappa_r) and
    sqrt(kappa_l) c_in_l + sqrt(kappa_r) c_in_r = Omega_d, the only split for
    which both outputs can vanish simultaneously.
    """
    c_in_l = math.sqrt(p.kappa_l) * p.omega_d / p.kappa
    c_in_r = math.sqrt(p.kappa_r) * p.omega_d / p.kappa
    return c_in_l, c_in_r


def _check_nonnegative(values, name: str) -> None:
    """ValueError naming ``name`` unless ``values`` (a number or an array)
    is >= 0 throughout: a negative or NaN value fails."""
    if not (values >= 0 if np.ndim(values) == 0 else np.all(np.greater_equal(values, 0))):
        raise ValueError(f"{name} must be nonnegative and not NaN")


def drive_for_input_intensity(input_intensity, p: SystemParams):
    """Total drive amplitude giving per-mirror input intensity I = |c_in|^2.

    Omega_d = 2 sqrt(kappa/2) sqrt(I).  (Symmetric-mirror convention; for the
    balanced split each mirror then carries exactly intensity I.)  An array
    of intensities gives the array of drives; numpy's square root is
    correctly rounded, as math.sqrt is, so each drive has the same bits.
    ValueError for a negative or NaN intensity.
    """
    _check_nonnegative(input_intensity, "input intensity")
    sqrt = math.sqrt if np.ndim(input_intensity) == 0 else np.sqrt
    return 2.0 * math.sqrt(p.kappa / 2.0) * sqrt(input_intensity)


def input_intensity_for_drive(omega_d, p: SystemParams):
    """Inverse of :func:`drive_for_input_intensity`: I = Omega_d^2 / (2 kappa),
    for a number or an array; ValueError for a negative or NaN drive."""
    _check_nonnegative(omega_d, "drive omega_d")
    return omega_d ** 2 / (2.0 * p.kappa)

"""Exception and warning types shared across the package."""


class CpasimError(Exception):
    """Base class for all package-specific errors."""


class ParametricSingularity(CpasimError):
    """The effective-cavity denominator vanished: operation at or above the
    parametric-oscillation threshold, where the steady-state field diverges."""


class NonPositiveBeta(CpasimError):
    """The effective decay parameter beta = kappa/2 + 2|G|cos(phi) is not
    positive; the absorption condition stack is undefined there."""


class Infeasible(CpasimError):
    """A requested operating point lies outside the feasible region."""


class AsymmetricMirrors(CpasimError):
    """Operation requires symmetric mirrors (kappa_l == kappa_r)."""


class StepFailure(CpasimError):
    """The adaptive integrator could not meet its local error tolerance.

    The partial trace accumulated before the failure is attached as `trace`.
    """

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace


class MalformedCurve(CpasimError):
    """Two steady states at one input fell on the same branch, i.e. the same
    monotone segment of the closed-form curve I(n): the solver and the curve
    geometry disagree."""


class ParseError(CpasimError):
    """Configuration text could not be parsed; message carries line/key info."""


class ValidationError(CpasimError):
    """Configuration parsed but violates a parameter invariant."""


class IoError(CpasimError):
    """A result file could not be written."""


class ParametricRegimeWarning(UserWarning):
    """The bare cavity is at or above the parametric-oscillation threshold,
    (kappa/2)^2 + delta_c^2 <= 4|G|^2: large-photon-number branches are
    unreliable and only residual-verified roots are reported."""

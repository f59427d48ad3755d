"""Exception taxonomy shared by all minksurf modules.

Every failure mode that callers may want to branch on gets its own class.
All inherit from MinksurfError, so `except MinksurfError` catches anything
raised by this package on purpose.
"""

from __future__ import annotations


class MinksurfError(Exception):
    """Base class for all errors raised deliberately by minksurf."""


class NonSmoothPoint(MinksurfError):
    """Derivative of a gauge/support function requested at a point where it is not smooth (e.g. the origin)."""


class InvalidParameter(MinksurfError):
    """A norm or surface family received a parameter outside its admissible range."""


class MissingDualJets(MinksurfError):
    """A custom norm has no dual jets and the Newton fallback is disabled."""


class NewtonDivergence(MinksurfError):
    """The Newton solve for the Birkhoff point (the gauge's minimum on the
    plane x . xi = 1) failed: a singular Hessian, a stall or no convergence.

    location is the chart point (s, t) whose normal failed, when the solve
    ran for a surface's geometry; else None.
    """

    def __init__(self, message: str, location: tuple | None = None):
        super().__init__(message)
        self.location = location


class SingularRestriction(MinksurfError):
    """The dual Hessian restricted to the tangent plane is numerically singular (admissibility violated)."""


class OutOfDomain(MinksurfError):
    """Chart evaluated outside its parameter rectangle (after periodic wrapping)."""


class DegenerateJet(MinksurfError):
    """|f_s x f_t| below the immersion guard: the chart is not an immersion there."""


class ComplexEigenvalues(MinksurfError):
    """The Weingarten eigenproblem produced complex values; signals upstream jet error."""


class ZeroDirection(MinksurfError):
    """A direction-dependent quantity was requested for the zero vector."""


class SingularMetric(MinksurfError):
    """A metric determinant vanished where a nonsingular metric is required."""


class DegeneratePairing(MinksurfError):
    """The transversality pairing <eta, xi> vanished; distance decompositions undefined."""


class NotCritical(MinksurfError):
    """A Hessian-at-critical-point was requested at a non-critical point, where the connection term would matter."""


class DegenerateH(MinksurfError):
    """The affine fundamental form has rank < 2 where rank 2 is required."""


class NonElliptic(MinksurfError):
    """Affine normal requested at a point with Euclidean Gaussian curvature <= 0."""


class NonConvexCurve(MinksurfError):
    """Planar support function violates g'' + g > 0 somewhere on the sample grid."""


class NotSPD(MinksurfError):
    """A matrix required to be symmetric positive definite is not."""


class OddSampleCount(MinksurfError):
    """Composite Simpson rule needs an even number of panels."""


class EvaluationFailure(MinksurfError):
    """A user-supplied callable raised or returned non-finite values."""


class ConfigError(MinksurfError):
    """Run configuration failed validation (CLI exit code 2)."""


class NumericalFailure(MinksurfError):
    """A numerical guard tripped during a run (CLI exit code 3)."""

    def __init__(self, message: str, location: tuple | None = None):
        super().__init__(message)
        self.location = location

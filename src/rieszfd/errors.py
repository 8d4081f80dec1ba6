"""Exception types shared across the package.

Anything a user can fix by changing inputs derives from ValidationError
(the CLI maps these to exit code 2); genuine runtime failures such as a
singular linear system map to exit code 1.
"""


class ValidationError(ValueError):
    """Invalid user input: bad parameters, config, or preconditions."""


class OutOfRangeAlpha(ValidationError):
    """Operator order outside (0, 2]."""


class AlphaNearOne(ValidationError):
    """Operator order inside the excluded band around 1."""


class SkewnessTooLarge(ValidationError):
    """|theta| exceeds min(alpha, 2 - alpha)."""


class DegenerateDomain(ValidationError):
    """Empty or under-resolved spatial domain."""


class DeltaNeedsEvenN(ValidationError):
    """Unit-mass spike requires an even cell count so it sits on a node."""


class BoxOutOfDomain(ValidationError):
    """Box initial condition extends outside the grid."""


class WindowTooSmall(ValidationError):
    """Weight table does not cover the index range the grid requires."""


class UnstableTimestep(ValidationError):
    """Explicit time step at or above the positivity bound."""


class DimensionMismatch(ValidationError):
    """Array lengths or grids inconsistent with the linear system."""


class NonpositiveTime(ValidationError):
    """Analytic kernels are defined for t > 0 only."""


class ConfigInvalid(ValidationError):
    """Simulation configuration violates a cross-field constraint."""


class ParseError(ValidationError):
    """Config document is not syntactically valid."""


class UnknownKey(ValidationError):
    """Config document contains a key this tool does not define."""


class SingularMatrix(ArithmeticError):
    """A system is singular to working precision: a pivot of the LU or
    tridiagonal factorization, a Strang circulant eigenvalue or the first
    generator entry |x_0| below 1e-300, GMRES not converging, or a
    Gohberg-Semencul generator backward error above 1e-10."""


class NoSuchSnapshot(LookupError):
    """No recorded snapshot near the requested time."""

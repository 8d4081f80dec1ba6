"""Exception types shared across the package.

Anything a user can fix by changing inputs is a ValidationError (the CLI
maps these to exit code 2); its message names the field and the value.
ConfigInvalid is the ValidationError of a refusal that compares inputs
with each other or with a budget.  A genuine runtime failure such as a
singular linear system maps to exit code 1.
"""


class ValidationError(ValueError):
    """Invalid user input: bad parameters, config, or preconditions."""


class ConfigInvalid(ValidationError):
    """Inputs that are each valid but refused together: a cross-field
    constraint, an unstable time step, or a step or byte budget."""


class SingularMatrix(ArithmeticError):
    """A system is singular to working precision: a pivot of the LU or
    tridiagonal factorization, a Strang circulant eigenvalue or the first
    generator entry |x_0| below 1e-300, GMRES not converging, or a
    Gohberg-Semencul generator backward error above 1e-10."""


class NoSuchSnapshot(LookupError):
    """No recorded snapshot near the requested time."""

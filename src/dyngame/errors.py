"""Exception types shared across the solver library."""


class DynGameError(Exception):
    """Base class for all errors raised by this package."""


class InvalidGameError(DynGameError, ValueError):
    """A game definition (or an argument derived from one) is malformed.

    Carries the list of human-readable violations when raised from a
    validation gate.
    """

    def __init__(self, message, violations=()):
        super().__init__(message)
        self.violations = list(violations)


class SingularSystemError(DynGameError, ArithmeticError):
    """A numerical failure: a dense linear system was singular (or
    numerically rank deficient), or a result came out NaN or infinite.

    ``context`` names the system being solved so solver failures point at
    the originating equation (e.g. the stacked stage gain system).
    """

    def __init__(self, message, context=None, cond_estimate=None):
        if context:
            message = f"{context}: {message}"
        super().__init__(message)
        self.context = context
        self.cond_estimate = cond_estimate

"""Exception types shared across the package."""


class InputError(ValueError):
    """A caller-supplied value was rejected (bad type string, bad prime, ...)."""


class InvariantViolation(RuntimeError):
    """An internal consistency check failed; signals a bug, not a user error."""


class BudgetExceeded(RuntimeError):
    """An orbit search exceeded its configured node budget."""


class FingerprintError(RuntimeError):
    """The coset orders fit no candidate group; the class count picks at most one."""


class WitnessSearchExhausted(RuntimeError):
    """No point of the torus has the requested alcove wall set."""

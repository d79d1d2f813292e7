"""Exception types shared across the package."""


class PadicError(Exception):
    """Base class for all library errors."""


class PrecisionExhausted(PadicError):
    """A quantity is not determined by the digits available at the current precision."""


class DivisionByZeroAtPrecision(PadicError, ZeroDivisionError):
    """Division by a value that is exactly zero (or zero as far as precision can tell)."""


class NotHyperbolicError(PadicError):
    """A linear fractional transformation failed one of the hyperbolicity conditions.

    The attribute `condition` holds the number (1..4) of the first failing condition.
    """

    _NAMES = {1: "i", 2: "ii", 3: "iii", 4: "iv"}

    def __init__(self, condition: int, detail: str = ""):
        self.condition = condition
        self.detail = detail
        msg = f"not hyperbolic: condition ({self._NAMES[condition]}) failed"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)

    def __reduce__(self):
        # pickle rebuilds from the constructor's arguments, not from args
        # (the message), so the error can cross a process boundary
        return type(self), (self.condition, self.detail)


class InvalidDigit(PadicError):
    """A digit does not satisfy the invariants of its algorithm family."""


class ExpansionTerminated(PadicError):
    """The orbit hit an exact zero in the pivot coordinate; no further digits exist."""


class InsufficientData(PadicError):
    """Too few Monte Carlo observations completed to report a meaningful estimate."""


class WordTooShort(PadicError):
    """The requested iterate count is shorter than the conditioning word."""


class ShardProcessDied(PadicError):
    """A forked Monte Carlo shard process exited before returning its result,
    or its outcome could not be pickled to send back."""

"""Exception hierarchy shared by every nura module.

Everything raised on purpose derives from NuraError so callers can catch
library failures without also swallowing genuine programming errors.
"""

from __future__ import annotations


class NuraError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(NuraError, ValueError):
    """An argument lies outside the mathematical domain of an operation.

    Examples: a negative rate handed to a utility curve, a non-positive
    price handed to a demand solver.
    """


class ContractError(NuraError, ValueError):
    """A cross-argument precondition was violated.

    Unlike DomainError the individual values are fine; the combination
    is not (wrong vector length, budget below the committed floor, a
    problem too large for an exhaustive solver).
    """


class SolverError(NuraError, RuntimeError):
    """A numerical routine found no answer in float range.

    Raised when a demand leaves float range, when demand saturates (no
    price above the floor spends the budget), or when a search exhausts
    its iteration budget. ``bracket`` carries the last enclosing interval
    so the caller can see how far the search got.
    """

    def __init__(self, message: str, *, bracket: tuple[float, float] | None = None):
        super().__init__(message)
        self.bracket = bracket


class ValidationError(NuraError, ValueError):
    """A configuration file failed validation.

    ``violations`` lists every problem found, not just the first, so a
    user can fix a file in one pass.
    """

    def __init__(self, message: str, *, violations: list[str] | None = None):
        super().__init__(message)
        self.violations = list(violations) if violations else [message]

    def __str__(self) -> str:
        base = super().__str__()
        if self.violations == [base]:
            return base
        lines = "\n  - ".join(self.violations)
        return f"{base}\n  - {lines}"


class ProtocolError(NuraError, RuntimeError):
    """The bidding protocol was driven into an illegal state."""


class NonConvergenceError(ProtocolError):
    """The bidding loop hit its round limit before the stop test fired.

    The partial ``trace`` (list of per-round records) and the number of
    ``rounds`` executed are attached for post-mortem inspection.
    """

    def __init__(self, message: str, *, trace: list | None = None, rounds: int = 0):
        super().__init__(message)
        self.trace = trace if trace is not None else []
        self.rounds = rounds


class SweepError(NuraError, RuntimeError):
    """One or more points of a capacity sweep failed.

    The sweep runs to completion before raising; ``completed`` holds the
    successful records and ``failures`` the (R, exception) pairs.
    """

    def __init__(self, message: str, *, failures: list | None = None,
                 completed: list | None = None):
        super().__init__(message)
        self.failures = failures if failures is not None else []
        self.completed = completed if completed is not None else []

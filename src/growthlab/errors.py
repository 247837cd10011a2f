"""Exception types shared across the package."""


class GrowthLabError(Exception):
    """Base class for all package-specific errors."""


class UnknownSymbol(GrowthLabError):
    """A word used a symbol that is not in the group's alphabet."""


class GroupMismatch(GrowthLabError):
    """An operation combined words from different marked groups."""


class BudgetExceeded(GrowthLabError):
    """An enumeration or search hit its configured element cap."""


class WindowTooSmall(GrowthLabError):
    """A growth estimate was requested on too short a radius window."""


class NotFreeGroup(GrowthLabError):
    """A Stallings-graph operation was applied to a non-free group."""


class PowerIterationDiverged(GrowthLabError):
    """Power iteration failed to converge within the iteration cap."""


class CrossCheckFailed(GrowthLabError):
    """Two independent computations of the same quantity disagreed."""


class FiniteOrderElement(GrowthLabError):
    """An axis or root was requested for a torsion (or trivial) element."""


class NotFoundWithinBound(GrowthLabError):
    """A bounded search exhausted its budget without a witness."""

    def __init__(self, message, best=None):
        super().__init__(message)
        self.best = best


class EmptyInteriorSet(GrowthLabError):
    """A buffering sequence had an empty interior Y-set."""


class PreconditionFailed(GrowthLabError):
    """A stated hypothesis of the operation does not hold for the input."""


class InvalidAlternatingWord(GrowthLabError):
    """An alternating-word specification was empty or malformed."""


class HypothesisFailed(GrowthLabError):
    """A theorem pipeline hypothesis check failed.  Carries the name."""

    def __init__(self, hypothesis):
        super().__init__(f"hypothesis failed: {hypothesis}")
        self.hypothesis = hypothesis


class CounterexampleFound(GrowthLabError):
    """An exhaustive refutation attempt actually found a counterexample."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


"""Exception types shared across the package."""


class SplitPlanError(Exception):
    """Base class for every error raised by this package."""


class NonPositiveOutput(SplitPlanError):
    """A layer output-size formula produced fewer than one element."""


class ShapeMismatch(SplitPlanError):
    """Branch shapes disagree, or a layer does not fit its input."""


class PairingError(SplitPlanError):
    """An unpooling stage has no matching earlier pooling stage."""


class ParseError(SplitPlanError):
    """Config text is not well-formed."""


class ValidationError(SplitPlanError):
    """Config parsed but violates a structural invariant."""


class DomainError(SplitPlanError):
    """A physical parameter is outside its domain."""


class ZeroRate(SplitPlanError):
    """Data must be transmitted but the link rate is zero."""


class MissingServerCompute(SplitPlanError):
    """Residual work exists but no server compute was allocated."""


class NonConvergence(SplitPlanError):
    """An iterative solver hit its iteration cap without converging."""


class Infeasible(SplitPlanError):
    """No allocation satisfies the resource budgets."""


class StalledBreak(SplitPlanError):
    """A queue-gap donor cannot be retuned to its target arrival time."""


class NoExcess(SplitPlanError):
    """Bandwidth reallocation would move a non-positive amount."""


class TooLarge(SplitPlanError):
    """Instance exceeds the brute-force enumeration guards."""


class NoBracket(SplitPlanError):
    """A dense scan found no (or no unique) sign-change bracket."""

"""Exception types shared across the package."""


class ConfigError(ValueError):
    """A scenario or input file is malformed."""


class NotSymmetricError(ConfigError):
    """Adjacency matrix is not symmetric."""


class SelfLoopError(ConfigError):
    """Adjacency matrix has a nonzero diagonal entry."""


class DisconnectedError(ConfigError):
    """Communication graph is not connected."""


class BudgetInfeasibleError(ValueError):
    """Attack budget admits no data-flow guarantee (duty-cycle ratio >= 1)."""


class AttemptSpacingError(ValueError):
    """Transmission attempts are closer together than the channel minimum."""


class CriterionViolatedError(ValueError):
    """Design inequalities do not hold; no certificate can be issued."""

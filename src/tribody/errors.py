"""Exception hierarchy shared across the library."""


class TribodyError(Exception):
    """Base class for all library errors."""


class DomainError(TribodyError, ValueError):
    """Input outside the mathematical domain of an operation."""


class DegenerateConfigurationError(TribodyError):
    """Body configuration with a vanishing separation; angles undefined."""


class ForbiddenRegionError(TribodyError):
    """Conformal factor at or below its positive floor; metric undefined."""


class DegenerateMetricError(TribodyError):
    """Metric block not positive definite; frame equations unsolvable."""


class ResolutionError(TribodyError):
    """Stability limit pushed the time step below the configured floor."""


class FitError(TribodyError):
    """Not enough usable samples for a growth-rate fit."""


class EmptyDensityError(TribodyError):
    """All ensemble samples fell outside the histogram grid."""


class ConfigError(TribodyError):
    """Invalid or ambiguous run configuration."""


class DependencyError(TribodyError):
    """A pipeline stage is missing an upstream artifact."""

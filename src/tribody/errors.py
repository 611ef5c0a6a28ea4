"""Exception hierarchy shared across the library: one class for each exit
code of the command line that a library error ends in (cli.main)."""


class TribodyError(Exception):
    """Base class for all library errors."""


class DomainError(TribodyError, ValueError):
    """Input outside the mathematical domain of an operation, or a
    numerical failure on it (a step below the floor, an unusable fit)."""


class ConfigError(TribodyError):
    """Invalid or ambiguous run configuration."""


class DependencyError(TribodyError):
    """A pipeline stage is missing an upstream artifact."""

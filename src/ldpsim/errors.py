"""Exception types shared across the package."""


class LdpSimError(Exception):
    """Base class for all package-specific errors."""


class DomainError(LdpSimError, ValueError):
    """Raised for degenerate or inconsistent attribute domains (k < 2, bad labels)."""


class ParameterError(LdpSimError, ValueError):
    """Raised for invalid privacy parameters or inconsistent probabilities."""


class ConfigError(LdpSimError, ValueError):
    """Raised for malformed experiment configurations."""

"""Exception taxonomy shared across the package.

The CLI maps these onto distinct exit codes, so raise the most specific
class available.
"""


class HakanError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(HakanError):
    """Invalid configuration: bad key, bad value, or inconsistent settings."""


class BasisParameterError(ConfigError):
    """Polynomial basis parameters that break the recurrence (zero or overflowing
    coefficient, degree out of range)."""


class DataError(HakanError):
    """Dataset loading or splitting failure."""


class DimensionError(HakanError):
    """Array shapes incompatible with the requested operation."""


class ContractError(HakanError):
    """An internal invariant or call contract was violated."""

"""Exception taxonomy shared across the package.

One class per CLI exit code: ConfigError exits 2, DataError 3, ContractError 4.
"""


class HakanError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(HakanError):
    """Invalid configuration: a bad key or value, inconsistent settings, or basis
    parameters that break the recurrence."""


class DataError(HakanError):
    """A dataset or checkpoint that cannot be loaded or split."""


class ContractError(HakanError):
    """A broken invariant or call contract: incompatible shapes, a non-finite value."""

"""Exception types shared across the package."""


class BgcError(Exception):
    """Base class for all package errors."""


class DimensionError(BgcError):
    """Tensor shapes or axes inconsistent with the requested operation."""


class ConfigError(BgcError):
    """Invalid or inconsistent configuration."""


class DataError(BgcError):
    """Input data violates the expected format or value range."""


class ParseError(DataError):
    """Malformed record in an input file; message carries the location."""


class ContractError(BgcError):
    """Caller violated a documented precondition."""


"""BiGRU-ensemble capsule network for text classification.

Everything runs on the package's own numpy-backed gradient tape; no
deep-learning framework is required. ``text`` reads the data formats,
``training`` trains and evaluates, and ``artifact`` saves and loads
models.
"""

from .errors import (
    BgcError,
    ConfigError,
    ContractError,
    DataError,
    DimensionError,
    ParseError,
)
from .tensor import Tape, Tensor, grad_check

__all__ = [
    "BgcError",
    "ConfigError",
    "ContractError",
    "DataError",
    "DimensionError",
    "ParseError",
    "Tape",
    "Tensor",
    "grad_check",
]

__version__ = "0.1.0"

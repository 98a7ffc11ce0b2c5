"""BiGRU-ensemble capsule network for text classification.

Everything runs on the package's own numpy-backed gradient tape; no
deep-learning framework is required. ``text`` reads the data formats,
``training`` trains and evaluates, and ``artifact`` saves and loads
models. The finite-difference gradient checks are test code and live in
``tests/``.
"""

from .errors import (
    BgcError,
    ConfigError,
    ContractError,
    DataError,
    DimensionError,
    ParseError,
)
from .tensor import Tape, Tensor

__all__ = [
    "BgcError",
    "ConfigError",
    "ContractError",
    "DataError",
    "DimensionError",
    "ParseError",
    "Tape",
    "Tensor",
]

__version__ = "0.1.0"

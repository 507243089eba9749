"""Significant discriminative pattern mining on two-class transaction data."""

from .dataset import (
    DatasetFormatError,
    TwoClassDataset,
    from_transactions,
    load_genotype_matrix,
    load_transactions,
)
from .measures import Thresholds
from .miner import (
    InternalInvariantError,
    MineStats,
    PatternRecord,
    TraceNode,
    mine,
)

__version__ = "0.1.0"

__all__ = [
    "DatasetFormatError",
    "InternalInvariantError",
    "MineStats",
    "PatternRecord",
    "Thresholds",
    "TraceNode",
    "TwoClassDataset",
    "from_transactions",
    "load_genotype_matrix",
    "load_transactions",
    "mine",
    "__version__",
]


"""Significant discriminative pattern mining on two-class transaction data."""

from .dataset import (
    DatasetFormatError,
    Tidset,
    TwoClassDataset,
    from_transactions,
    load_genotype_matrix,
    load_transactions,
)
from .measures import Thresholds
from .miner import (
    InternalInvariantError,
    MinerConfig,
    MineStats,
    PatternRecord,
    TraceNode,
    mine,
)
from .oracle import mine_oracle

__version__ = "0.1.0"

__all__ = [
    "DatasetFormatError",
    "InternalInvariantError",
    "MineStats",
    "MinerConfig",
    "PatternRecord",
    "Thresholds",
    "Tidset",
    "TraceNode",
    "TwoClassDataset",
    "from_transactions",
    "load_genotype_matrix",
    "load_transactions",
    "mine",
    "mine_oracle",
    "__version__",
]

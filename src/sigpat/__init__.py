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


def __getattr__(name: str):  # the oracle is imported on first use, which mine never makes
    if name != "mine_oracle":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from .oracle import mine_oracle
    return mine_oracle

"""Distributed damped-Newton solver for l2-regularized ERM.

The package simulates an m-node cluster in one process, meters every
collective round and byte, and solves the Newton systems with PCG under two
data layouts: partition by samples (full-length vectors on a master) or by
features (all vectors block-partitioned across nodes). The two layouts run
the same mathematics and differ only in what they communicate, which is the
point: the cost counters make the layout tradeoff directly measurable.

The names below are the entry points, plus ``Objective``,
``objective_value`` and ``full_gradient``, which evaluate f and its gradient
on unpartitioned data to check a solve. Everything else is imported from its
submodule (``disco.linalg``, ``disco.losses``, ``disco.partition``,
``disco.solver``, ``disco.harness``).
"""

from .comm import Cluster, CommStats
from .linalg import SparseBlock
from .losses import LossKind, Objective, full_gradient, objective_value
from .partition import partition_by_features, partition_by_samples
from .solver import PartitionMode, SolverConfig, disco_outer, pcg_features, pcg_samples
from .harness import Dataset

__version__ = "0.1.0"

__all__ = [
    "Cluster",
    "CommStats",
    "SparseBlock",
    "LossKind",
    "Objective",
    "full_gradient",
    "objective_value",
    "partition_by_samples",
    "partition_by_features",
    "PartitionMode",
    "SolverConfig",
    "disco_outer",
    "pcg_samples",
    "pcg_features",
    "Dataset",
]

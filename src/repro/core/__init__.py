"""Core P2HNNS indexes: Ball-Tree, BC-Tree, linear scan, KD-Tree baseline.

Besides the static paper indexes, the subpackage also provides the
extensions built on the same tree machinery: maximum inner product search
(:mod:`repro.core.mips`), an insert/delete-capable wrapper
(:mod:`repro.core.dynamic`), and a sharded index
(:mod:`repro.core.partitioned`).
"""

from repro.core.ball_tree import BallTree
from repro.core.bc_tree import BCTree
from repro.core.distances import (
    augment_points,
    normalize_query,
    p2h_distance,
    p2h_distance_raw,
)
from repro.core.dynamic import DynamicP2HIndex
from repro.core.index_base import P2HIndex
from repro.core.kd_tree import KDTree
from repro.core.linear_scan import LinearScan
from repro.core.mips import BallTreeMIPS, linear_mips, linear_mips_batch
from repro.core.partitioned import PartitionedP2HIndex, partition_indices
from repro.core.policies import BranchPreference
from repro.core.results import SearchResult, SearchStats
from repro.core.rp_tree import RPTree

__all__ = [
    "BallTree",
    "BCTree",
    "KDTree",
    "RPTree",
    "LinearScan",
    "P2HIndex",
    "BranchPreference",
    "SearchResult",
    "SearchStats",
    "BallTreeMIPS",
    "linear_mips",
    "linear_mips_batch",
    "DynamicP2HIndex",
    "PartitionedP2HIndex",
    "partition_indices",
    "augment_points",
    "normalize_query",
    "p2h_distance",
    "p2h_distance_raw",
]

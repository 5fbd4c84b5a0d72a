"""Query-execution engine shared by every index in the library.

This subpackage owns *how* queries are answered; the index classes under
:mod:`repro.core` own *what* is indexed.  Four pieces:

* :mod:`repro.engine.traversal` — :class:`TraversalEngine`, the flat tree
  geometry of one fitted Ball-Tree, BC-Tree or KD-Tree plus its cached
  search kernels.
* :mod:`repro.engine.block` — :class:`BlockTraversalKernel`, the one exact
  tree executor: a multi-query block DFS whose answers and work counters
  do not depend on the block a query runs in, so ``search`` is a block of
  one.
* :mod:`repro.engine.batch` — :func:`execute_batch` and
  :class:`BatchSearchResult`, the batched path behind every index's
  ``batch_search`` (vectorized schedule seeding, block/hashing kernel
  dispatch, thread/process worker pools, pooled statistics, bit-identical
  to sequential ``search``).
* :mod:`repro.engine.budget` — :func:`resolve_budget`, the one translation
  of the approximate-search knobs into a candidate budget.

Future backends (sharded execution, async serving, compiled kernels) plug
in here without touching the index classes.
"""

from repro.engine.batch import (
    BatchSearchResult,
    execute_batch,
    pool_results,
)
from repro.engine.block import BlockTraversalKernel
from repro.engine.budget import resolve_budget
from repro.engine.traversal import LeafPruningData, TraversalEngine

__all__ = [
    "BatchSearchResult",
    "BlockTraversalKernel",
    "LeafPruningData",
    "TraversalEngine",
    "execute_batch",
    "pool_results",
    "resolve_budget",
]

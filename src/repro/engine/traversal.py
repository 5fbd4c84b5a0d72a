"""Flat tree geometry shared by every tree index's search kernels.

The paper's search is one depth-first branch-and-bound (Algorithms 3 and
5): a node is pruned when its lower bound reaches the current k-th best
distance, the two children of an expanded node are visited in
branch-preference order, and leaves are scanned exhaustively (Ball-Tree,
KD-Tree) or with BC-Tree's point-level ball and cone bounds.  That search
is implemented exactly once, by the block traversal kernel
(:mod:`repro.engine.block`); a single ``search`` is a block of one query.

:class:`TraversalEngine` is the per-index holder the kernels read.  It
converts the per-node integer/scalar arrays to plain Python lists once per
fitted index, keeps the vector payloads (centers, leaf-ordered points,
BC-Tree's per-point leaf structures) as arrays, evaluates node values
lazily for the tight-budget strategy (:meth:`_lazy_node_values`) and box
bounds for KD-Tree (:meth:`_box_bounds`), builds the exact block kernel,
and caches the fast-mode kernels and arrays.

This module is on the **exact path**: ``repro check`` statically enforces
that it never imports the fast tier (rule REP101) and never introduces a
float32 dtype (REP102) — the exact kernel computes in float64 end to end,
and its answers are checked against brute force (see README,
"Correctness tooling").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.policies import BranchPreference
from repro.engine.block import NO_CHILD, BlockTraversalKernel


class _LazyNodeValues:
    """List-like per-node values computed on first access.

    Tight candidate budgets visit only a sliver of the tree, so paying the
    full vectorized per-node precompute would dominate the query; this
    wrapper gives the kernel the same ``values[node]`` interface while
    computing (and caching) each node's value on demand.
    """

    __slots__ = ("_values", "_fn")

    def __init__(self, size: int, fn) -> None:
        self._values = [None] * size
        self._fn = fn

    def __getitem__(self, node):
        value = self._values[node]
        if value is None:
            value = self._values[node] = self._fn(node)
        return value


@dataclass
class FastArrays:
    """Reduced-precision copies of the tree geometry for the fast mode.

    Built lazily (and cached per dtype) by
    :meth:`TraversalEngine.fast_arrays`; consumed by
    :class:`repro.engine.fast.FastTreeKernel`.  Center trees populate
    ``centers``/``radii``; KD trees populate ``lower``/``upper``.  Like the
    engine's leaf-ordered float64 copy, these are derived runtime caches:
    excluded from ``index_size_bytes`` and rebuilt on demand after
    unpickling.
    """

    dtype: np.dtype
    points_leaf: np.ndarray
    centers: Optional[np.ndarray] = None
    radii: Optional[np.ndarray] = None
    lower: Optional[np.ndarray] = None
    upper: Optional[np.ndarray] = None


@dataclass
class LeafPruningData:
    """Per-point leaf structures used by BC-Tree's point-level bounds."""

    point_radius: np.ndarray    # r_x, sorted descending within each leaf
    point_cos: np.ndarray       # ||x|| cos(phi_x)
    point_sin: np.ndarray       # ||x|| sin(phi_x)
    center_norms: np.ndarray    # per-node ||c||, precomputed at build time
    use_ball_bound: bool
    use_cone_bound: bool


class TraversalEngine:
    """Flat tree geometry plus the search kernels over it.

    The engine is built once per fitted index (and rebuilt on re-fit); it
    converts the per-node integer/scalar arrays to plain Python lists so the
    interpreter-bound kernel loops avoid NumPy scalar boxing, and keeps
    the vector payloads (centers, points, leaf structures) as arrays for
    the vectorized per-query preparation and leaf scans.

    Memory: the engine reads the index's *leaf-ordered* point copy (every
    leaf's points occupy one contiguous block) so leaf verification is a
    GEMV on a slice instead of a gather.  The copy is owned by the index's
    :class:`~repro.storage.base.ArrayStore` — since the storage layer it is
    the only resident point array a fitted tree index holds (the
    un-permuted matrix is rebuilt lazily by ``index.points``), and under
    the mmap backend it is not resident at all.

    Use the ``for_ball_tree`` / ``for_bc_tree`` / ``for_kd_tree`` factories
    rather than the constructor.
    """

    def __init__(
        self,
        *,
        points_leaf: np.ndarray,
        start: np.ndarray,
        end: np.ndarray,
        left_child: np.ndarray,
        right_child: np.ndarray,
        perm: np.ndarray,
        centers: Optional[np.ndarray] = None,
        radii: Optional[np.ndarray] = None,
        lower: Optional[np.ndarray] = None,
        upper: Optional[np.ndarray] = None,
        leaf_data: Optional[LeafPruningData] = None,
        collaborative_ip: bool = False,
        default_preference: BranchPreference = BranchPreference.CENTER,
        store=None,
    ) -> None:
        self._perm = perm
        # Leaf-ordered data: every leaf's points occupy one contiguous
        # block, so leaf verification is a GEMV on a slice with no gather
        # copy (the layout scikit-learn's neighbor trees use).  Since the
        # storage layer this is the index's *only* point copy — owned by
        # the index's ArrayStore (possibly a read-only memmap), not by the
        # engine.
        self._points_leaf = points_leaf
        self._store = store
        self._start = start.tolist()
        self._end = end.tolist()
        self._left = left_child.tolist()
        self._right = right_child.tolist()
        self._centers = centers
        self._radii = radii
        self._radii_list = None if radii is None else radii.tolist()
        self._lower = lower
        self._upper = upper
        self._leaf = leaf_data
        self.collaborative_ip = bool(collaborative_ip)
        self.default_preference = BranchPreference.coerce(default_preference)
        if leaf_data is not None:
            self._center_norms = leaf_data.center_norms.tolist()
            # Sign of x_cos, fixed at build time, feeds the cone bound's
            # case analysis without recomputing the comparison per leaf.
            self._point_cos_pos = leaf_data.point_cos > 0.0
            self._point_radius = leaf_data.point_radius
            self._point_cos = leaf_data.point_cos
            self._point_sin = leaf_data.point_sin
            self._use_ball_bound = leaf_data.use_ball_bound
            self._use_cone_bound = leaf_data.use_cone_bound
        self.num_nodes = len(self._start)
        self.max_leaf = max(
            (
                stop - first
                for first, stop, left in zip(
                    self._start, self._end, self._left
                )
                if left == NO_CHILD
            ),
            default=0,
        )
        self._fast_arrays = {}
        self._fast_kernels = {}

    # ------------------------------------------------------------- factories

    @classmethod
    def for_ball_tree(cls, index) -> "TraversalEngine":
        """Engine over a fitted :class:`~repro.core.ball_tree.BallTree`."""
        tree = index.tree
        return cls(
            points_leaf=index._leaf_points(),
            start=tree.start,
            end=tree.end,
            left_child=tree.left_child,
            right_child=tree.right_child,
            perm=tree.perm,
            centers=tree.centers,
            radii=tree.radii,
            collaborative_ip=False,
            default_preference=index.branch_preference,
            store=index._store,
        )

    @classmethod
    def for_bc_tree(cls, index) -> "TraversalEngine":
        """Engine over a fitted :class:`~repro.core.bc_tree.BCTree`."""
        tree = index.tree
        return cls(
            points_leaf=index._leaf_points(),
            start=tree.start,
            end=tree.end,
            left_child=tree.left_child,
            right_child=tree.right_child,
            perm=tree.perm,
            centers=tree.centers,
            radii=tree.radii,
            store=index._store,
            leaf_data=LeafPruningData(
                point_radius=index.point_radius,
                point_cos=index.point_cos,
                point_sin=index.point_sin,
                center_norms=tree.center_norms,
                use_ball_bound=index.use_ball_bound,
                use_cone_bound=index.use_cone_bound,
            ),
            collaborative_ip=index.collaborative_ip,
            default_preference=index.branch_preference,
        )

    @classmethod
    def for_kd_tree(cls, index) -> "TraversalEngine":
        """Engine over a fitted :class:`~repro.core.kd_tree.KDTree`."""
        tree = index.tree
        return cls(
            points_leaf=index._leaf_points(),
            start=tree.start,
            end=tree.end,
            left_child=tree.left_child,
            right_child=tree.right_child,
            perm=tree.perm,
            lower=tree.lower,
            upper=tree.upper,
            store=index._store,
        )

    # ------------------------------------------------------------------- API

    def block_kernel(self) -> BlockTraversalKernel:
        """The exact block kernel over this engine.

        The one exact executor: ``search`` runs it on a block of one
        query and ``batch_search`` on whole blocks, exact or under a
        candidate budget — see :mod:`repro.engine.block` for the
        block-shape independence contract.  Built per call and not
        cached: a cached kernel would point back at the engine, and that
        cycle would keep a discarded engine's arrays alive until a full
        garbage collection (every rebuild of a dynamic index discards
        one).
        """
        return BlockTraversalKernel(self)

    # repro: allow[REP102] default names the fast tier's storage dtype; the
    # exact search path never calls this entry point.
    def fast_arrays(self, dtype="float32") -> FastArrays:
        """Reduced-precision tree geometry, built once per storage dtype.

        The fast mode's working set: a leaf-ordered point copy plus the
        center/radius (or KD box) arrays, all cast to ``dtype``.  Cached on
        the engine so a warm worker process (or a long-lived
        :class:`~repro.api.Searcher`) pays the cast once per fitted index.
        """
        dtype = np.dtype(dtype)
        arrays = self._fast_arrays.get(dtype.str)
        if arrays is None:
            if self._store is not None and "points_leaf" in self._store:
                # Route the cast through the index's store, so an mmap
                # backend keeps the reduced-precision copy on disk rather
                # than in the process heap.
                points_leaf = self._store.derive("points_leaf", dtype)
            else:
                points_leaf = np.ascontiguousarray(
                    self._points_leaf, dtype=dtype
                )
            arrays = FastArrays(
                dtype=dtype,
                points_leaf=points_leaf,
                centers=(
                    None
                    if self._centers is None
                    else np.ascontiguousarray(self._centers, dtype=dtype)
                ),
                radii=(
                    None
                    if self._radii is None
                    else np.ascontiguousarray(self._radii, dtype=dtype)
                ),
                lower=(
                    None
                    if self._lower is None
                    else np.ascontiguousarray(self._lower, dtype=dtype)
                ),
                upper=(
                    None
                    if self._upper is None
                    else np.ascontiguousarray(self._upper, dtype=dtype)
                ),
            )
            self._fast_arrays[dtype.str] = arrays
        return arrays

    # repro: allow[REP102] default names the fast tier's storage dtype; the
    # exact search path never calls this entry point.
    def fast_kernel(self, dtype="float32"):
        """The cached approximate fast-mode kernel over this engine.

        Unlike :meth:`block_kernel`, the fast kernel is **not** bound by
        the bit-identity contract: it computes in the reduced-precision
        storage dtype with cross-query GEMMs — see
        :mod:`repro.engine.fast` for the approximation contract.
        """
        # repro: allow[REP101] lazy import inside the opt-in fast-mode entry
        # point; no exact-path code reaches it.
        from repro.engine.fast import FastTreeKernel

        key = np.dtype(dtype).str
        kernel = self._fast_kernels.get(key)
        if kernel is None:
            kernel = self._fast_kernels[key] = FastTreeKernel(self, dtype)
        return kernel

    def _lazy_node_values(self, query, query_norm, preference):
        """The ``(ips, bounds, keys)`` lazy-value triple for one query.

        The tight-budget strategy (``budget < num_nodes``): one
        ``centers[node] @ query`` ddot per touched node, python-float
        bound/key arithmetic on top.  A tight budget visits only a sliver
        of the tree, so evaluating every node's bound up front would
        dominate the query.  The block kernel (:mod:`repro.engine.block`)
        picks this strategy from ``(budget, tree)`` alone, never from the
        block, because the ddot here and the eager GEMV rows differ in the
        last ulp on this BLAS.
        """
        centers = self._centers
        radii = self._radii_list

        def node_ip(node):
            return float(centers[node] @ query)

        ips = _LazyNodeValues(self.num_nodes, node_ip)

        def node_bound(node):
            ip = ips[node]
            bound = (ip if ip >= 0.0 else -ip) - query_norm * radii[node]
            return bound if bound > 0.0 else 0.0

        bounds = _LazyNodeValues(self.num_nodes, node_bound)
        if preference is BranchPreference.CENTER:
            keys = _LazyNodeValues(
                self.num_nodes, lambda node: abs(ips[node])
            )
        else:
            keys = bounds
        return ips, bounds, keys

    # ------------------------------------------------------------- internals

    def _box_bounds(self, query: np.ndarray) -> np.ndarray:
        """Vectorized KD box bound over every node (one pass, no Python loop)."""
        prod_lower = self._lower * query
        prod_upper = self._upper * query
        lo = np.minimum(prod_lower, prod_upper).sum(axis=1)
        hi = np.maximum(prod_lower, prod_upper).sum(axis=1)
        straddles = (lo <= 0.0) & (hi >= 0.0)
        return np.where(straddles, 0.0, np.minimum(np.abs(lo), np.abs(hi)))



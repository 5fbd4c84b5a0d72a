"""Approximate fast-mode tree kernel: float32 storage + cross-query GEMM.

:class:`FastTreeKernel` is the execution path behind ``exact=False``.  It
answers whole query blocks over the same flat tree the exact engine walks,
but drops the exact paths' bit-identity contract, which unlocks the
arithmetic the exact :class:`~repro.engine.block.BlockTraversalKernel` must
forgo:

* **Reduced-precision storage.**  The kernel works on a leaf-ordered
  float32 copy of the points plus float32 center/radius (or KD box) arrays
  (:meth:`~repro.engine.traversal.TraversalEngine.fast_arrays`), halving
  memory traffic on every bound and distance evaluation.
* **Cross-query GEMM everywhere.**  Node bounds come from one eager
  ``Q @ centers.T`` GEMM per sub-block, and every leaf is verified with a
  single ``Q[live] @ points_leaf[s:e].T`` GEMM for the whole surviving
  group — the per-query GEMVs (and the per-(node, query) ddots of the
  budgeted exact path) are gone.
* **No group splitting.**  The exact kernel must replay every query's solo
  DFS order, so groups split whenever branch preferences disagree.  Here a
  popped group stays intact: children are visited in the *majority*
  preference order, trading per-query descent optimality for much larger
  (and therefore cheaper) group events.
* **Compiled scalar hot spots.**  The per-candidate top-k offers and the
  single-query leaf scans run through :mod:`repro.engine.kernels` —
  Numba-compiled when available, vectorized NumPy otherwise.

Approximation contract
----------------------
Results are *near-exact*, not bit-exact.  Distances are computed in the
storage dtype, so candidates whose true distances differ by less than the
float32 rounding error (relative ~1e-6) may swap at the top-k boundary;
node pruning applies a relative slack of :data:`FAST_PRUNE_SLACK` so a
rounded-up float32 bound cannot prune a node the float64 bound would keep.
The property suite and `benchmarks/bench_fast_mode.py` hold the mode to
recall@k >= 0.999 against the exact oracle (recall counted with a 1e-5
relative distance tolerance, the standard epsilon-recall for
reduced-precision ANN).  ``SearchStats`` counters are populated with the
fast traversal's own (smaller) work counts; they are **not** comparable to
the exact path's counters, and the per-point pruning counters stay zero —
fast mode always verifies whole leaves with one GEMM, which is cheaper
than point-level bound evaluation at float32 GEMM speed.

Results do not depend on how a batch is *chunked across workers* only up
to the majority vote: chunking changes group composition and thereby child
visit order, so two pool sizes may disagree on near-tie candidates.  Fast
mode therefore promises recall, never bitwise batch invariance.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.core.policies import BranchPreference
from repro.core.results import SearchResult, SearchStats
from repro.engine import kernels

NO_CHILD = -1

_INF = float("inf")

#: Relative pruning slack: a node (or scalar-descent frontier entry) is
#: visited while ``bound < threshold * FAST_PRUNE_SLACK``.  Float32 bound
#: arithmetic has relative error around 1e-6; the 1e-4 slack makes a
#: wrongly-pruned-by-rounding subtree essentially impossible at the cost of
#: visiting a sliver of extra borderline nodes.
FAST_PRUNE_SLACK = 1.0001

#: Target element count of one sub-block's transient arrays; float32
#: elements, so the bound matrices plus the leaf GEMM buffer stay around
#: 32 MB regardless of tree depth.
BLOCK_TARGET_ELEMENTS = 8_000_000

#: Upper bound on queries per internal sub-block (same rationale as the
#: exact block kernel's cap).
BLOCK_QUERIES = 4096

#: Groups at or below this size leave the shared frontier and finish on
#: the scalar per-query descent (compiled leaf scans); NumPy/GEMM dispatch
#: on tiny groups costs more than it saves.
SCALAR_GROUP_CUTOFF = 4


class FastTreeKernel:
    """Multi-query approximate DFS over one fitted traversal engine.

    Built (and cached per storage dtype) by
    :meth:`TraversalEngine.fast_kernel`; holds the engine's
    :class:`~repro.engine.traversal.FastArrays` plus static leaf geometry.
    """

    def __init__(self, engine, dtype: str = "float32") -> None:
        self._engine = engine
        self._arrays = engine.fast_arrays(dtype)
        self.dtype = self._arrays.dtype
        # Array mirrors of the engine's per-node lists for the vectorized
        # warm-start descent (the DFS proper reads the lists scalar-wise).
        self._left_np = np.asarray(engine._left, dtype=np.int64)
        self._right_np = np.asarray(engine._right, dtype=np.int64)
        self._max_leaf = engine.max_leaf
        points_leaf = self._arrays.points_leaf
        if points_leaf.shape[0]:
            self._max_point_norm = float(
                np.sqrt(
                    np.einsum("ij,ij->i", points_leaf, points_leaf).max()
                )
            )
        else:
            self._max_point_norm = 0.0

    # ------------------------------------------------------------------- API

    def search_block(
        self,
        matrix: np.ndarray,
        k: int,
        *,
        preference=None,
        budget: float = _INF,
    ) -> List[SearchResult]:
        """Answer every row of the already-normalized query ``matrix``.

        ``matrix`` arrives in float64 from the index's normalization path
        and is cast to the storage dtype here, so the whole traversal —
        bounds, distances, thresholds — runs in reduced precision.  The
        candidate ``budget`` retires a query once its verified count
        reaches it, mirroring the exact semantics coarsely (whole leaves
        are always verified at once).
        """
        engine = self._engine
        preference = (
            engine.default_preference
            if preference is None
            else BranchPreference.coerce(preference)
        )
        num_queries = matrix.shape[0]
        if num_queries == 0:
            return []
        block = max(1, min(BLOCK_QUERIES, self._block_queries()))
        results: List[SearchResult] = []
        for start in range(0, num_queries, block):
            results.extend(
                self._run_block(
                    matrix[start: start + block], k, preference, budget
                )
            )
        return results

    def _block_queries(self) -> int:
        """Sub-block size bounding the kernel's transient memory."""
        engine = self._engine
        num_nodes = engine.num_nodes
        if self._arrays.centers is not None:
            per_query = 5 * num_nodes + self._max_leaf
        else:
            # KD box bounds materialize a (B, nodes, d) product pair.
            dim = self._arrays.points_leaf.shape[1]
            per_query = 2 * num_nodes * dim + 2 * num_nodes + self._max_leaf
        return max(1, BLOCK_TARGET_ELEMENTS // max(1, per_query))

    # ------------------------------------------------------------ block DFS

    def _run_block(self, matrix, k, preference, budget=_INF):
        engine = self._engine
        arrays = self._arrays
        dtype = arrays.dtype
        left_child = engine._left
        right_child = engine._right
        start_arr = engine._start
        end_arr = engine._end
        perm = engine._perm
        points_leaf = arrays.points_leaf
        centers = arrays.centers

        Q = np.ascontiguousarray(matrix, dtype=dtype)
        B = Q.shape[0]
        qn = np.sqrt(np.einsum("ij,ij->i", Q, Q, dtype=dtype))

        # -- eager vectorized node values: one GEMM (or one box-bound pass)
        # for the whole (sub-block, tree) cross product.
        if centers is not None:
            IPS = Q @ centers.T
            np.abs(IPS, out=IPS)               # ABS, reused as the key
            BOUNDS = IPS - qn[:, None] * arrays.radii[None, :]
            np.maximum(BOUNDS, 0.0, out=BOUNDS)
            KEYS = IPS if preference is BranchPreference.CENTER else BOUNDS
        else:
            prod_lower = arrays.lower[None, :, :] * Q[:, None, :]
            prod_upper = arrays.upper[None, :, :] * Q[:, None, :]
            lo = np.minimum(prod_lower, prod_upper).sum(axis=2)
            hi = np.maximum(prod_lower, prod_upper).sum(axis=2)
            straddles = (lo <= 0.0) & (hi >= 0.0)
            BOUNDS = np.where(
                straddles, dtype.type(0.0), np.minimum(np.abs(lo), np.abs(hi))
            )
            KEYS = BOUNDS
        # node-major copies: frontier gathers touch one contiguous row
        BT = np.ascontiguousarray(BOUNDS.T)
        KT = BT if KEYS is BOUNDS else np.ascontiguousarray(KEYS.T)

        # -- per-query top-k state (shared with the compiled kernels)
        top_d = np.full((B, k), _INF, dtype=dtype)
        top_i = np.full((B, k), -1, dtype=np.int64)
        THR = np.full(B, _INF, dtype=dtype)

        # -- warm start: every query greedily descends to one leaf (its own
        # branch preference, vectorized across the block) and THR is seeded
        # with the k-th smallest distance inside that leaf — a valid upper
        # bound on the final k-th distance.  The first few leaf events of
        # the DFS would otherwise run with THR = +inf and merge the full
        # block; with the seed they are threshold-filtered from the start.
        # Candidates are NOT inserted here (values only, no index select),
        # so the DFS re-verifies the warm leaf without deduplication; the
        # warm pass is a presearch and stays out of the work counters.
        #
        # The seed must survive re-evaluation through a *different* BLAS
        # path: the DFS recomputes the warm leaf's distances with another
        # GEMM shape (or the scalar dot kernel), whose rounding can land a
        # few ulps above this one's.  Inflate by the relative pruning
        # slack plus an absolute dot-product rounding bound so the <=
        # admission can never reject the very point the seed came from.
        slack = dtype.type(FAST_PRUNE_SLACK)
        if k <= self._max_leaf:
            seed_eps = (
                Q.shape[1]
                * float(np.finfo(dtype).eps)
                * self._max_point_norm
            ) * qn
            left_np = self._left_np
            right_np = self._right_np
            flat_keys = KT.ravel()
            rows_idx = np.arange(B, dtype=np.int64)
            cur = np.zeros(B, dtype=np.int64)
            while True:
                ln = left_np[cur]
                internal = ln != NO_CHILD
                if not internal.any():
                    break
                rn = right_np[cur]
                # leaf rows gather a garbage key (ln == -1 wraps around);
                # harmless — np.where discards their next-node choice.
                kl = flat_keys[ln * B + rows_idx]
                kr = flat_keys[rn * B + rows_idx]
                cur = np.where(internal, np.where(kl < kr, ln, rn), cur)
            order = np.argsort(cur, kind="stable")
            sorted_nodes = cur[order]
            cuts = np.nonzero(np.diff(sorted_nodes))[0] + 1
            for g in np.split(order, cuts):
                node = int(cur[g[0]])
                s = start_arr[node]
                e = end_arr[node]
                if e - s < k:
                    continue
                Dg = Q.take(g, axis=0) @ points_leaf[s:e].T
                np.abs(Dg, out=Dg)
                THR[g] = (
                    np.partition(Dg, k - 1, axis=1)[:, k - 1] * slack
                    + seed_eps[g]
                )

        budgeted = budget != _INF
        VER = np.zeros(B, dtype=np.int64) if budgeted else None

        nv_arr = np.zeros(B, dtype=np.int64)
        exps_arr = np.zeros(B, dtype=np.int64)
        cand_arr = np.zeros(B, dtype=np.int64)
        nleaves_arr = np.zeros(B, dtype=np.int64)

        offer_rows = kernels.offer_rows
        scan_leaf = kernels.scan_leaf

        def scalar_descend(node, q):
            """Finish one query from ``node`` with the compiled leaf scans."""
            thr = float(THR[q])
            qrow = Q[q]
            if budgeted:
                verified = int(VER[q])
            nvq = exq = candq = nlq = 0
            stack = [node]
            push = stack.append
            pop = stack.pop
            while stack:
                if budgeted and verified >= budget:
                    break
                nd = pop()
                nvq += 1
                if BT[nd, q] > thr * FAST_PRUNE_SLACK:  # <= visits; see DFS
                    continue
                left = left_child[nd]
                if left == NO_CHILD:
                    s = start_arr[nd]
                    e = end_arr[nd]
                    nlq += 1
                    candq += e - s
                    if budgeted:
                        verified += e - s
                    thr = float(
                        scan_leaf(
                            points_leaf, s, e, qrow, perm, top_d, top_i, q, thr
                        )
                    )
                    continue
                right = right_child[nd]
                exq += 1
                if KT[left, q] < KT[right, q]:
                    push(right)
                    push(left)
                else:
                    push(left)
                    push(right)
            nv_arr[q] += nvq
            exps_arr[q] += exq
            cand_arr[q] += candq
            nleaves_arr[q] += nlq
            THR[q] = thr
            if budgeted:
                VER[q] = verified

        stack = [(0, np.arange(B, dtype=np.int64))]
        while stack:
            node, qs = stack.pop()
            if budgeted:
                alive = VER.take(qs) < budget
                if not alive.all():
                    qs = qs[alive]
                    if qs.shape[0] == 0:
                        continue
            n = qs.shape[0]
            if n <= SCALAR_GROUP_CUTOFF:
                for q in qs.tolist():
                    scalar_descend(node, q)
                continue
            nv_arr[qs] += 1
            # <= (not <): the warm-start threshold is reachable exactly —
            # e.g. k-th distance 0 with node bounds 0 — and pruning the
            # tie would leave the top-k unfilled.
            mask = BT[node].take(qs) <= THR.take(qs) * slack
            nlive = int(mask.sum())
            if nlive == 0:
                continue
            live = qs if nlive == n else qs[mask]
            left = left_child[node]
            if left == NO_CHILD:
                s = start_arr[node]
                e = end_arr[node]
                size = e - s
                nleaves_arr[live] += 1
                cand_arr[live] += size
                if budgeted:
                    VER[live] += size
                if size == 0:
                    continue
                # the cross-query leaf GEMM the exact kernel must not use
                D = Q.take(live, axis=0) @ points_leaf[s:e].T
                np.abs(D, out=D)
                offer_rows(D, live, size, perm[s:e], top_d, top_i, THR)
                continue
            right = right_child[node]
            exps_arr[live] += 1
            # majority branch preference: the whole group descends one way
            left_votes = int(
                np.count_nonzero(KT[left].take(live) < KT[right].take(live))
            )
            if 2 * left_votes >= nlive:
                stack.append((right, live))
                stack.append((left, live))
            else:
                stack.append((left, live))
                stack.append((right, live))

        # ------------------------------------------------- materialization

        count_ips = centers is not None
        ip_increment = 1 if engine.collaborative_ip else 2
        results = []
        for q in range(B):
            stats = SearchStats()
            stats.nodes_visited = int(nv_arr[q])
            if count_ips:
                stats.center_inner_products = 1 + ip_increment * int(
                    exps_arr[q]
                )
            stats.candidates_verified = int(cand_arr[q])
            stats.leaves_scanned = int(nleaves_arr[q])
            found = int(np.count_nonzero(top_i[q] >= 0))
            results.append(
                SearchResult(
                    indices=top_i[q, :found].copy(),
                    distances=top_d[q, :found].astype(np.float64),
                    stats=stats,
                )
            )
        return results

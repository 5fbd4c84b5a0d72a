"""In-process references behind the per-layer metrics every workload reports.

The result line of a traced run must hold the same per-layer metrics on
every workload, so each workload measures the ``core``, ``engine`` and
``api`` numbers on the index family it serves, the same way: inline
``index.batch_search`` per mode, a ``Searcher`` session with
``n_jobs = nproc`` over the same blocks, the paper's work counters of the
session's exact answers, and the brute-force floor on the same points.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from harness import K, NPROC, Metrics, Tracer, median

#: Per-exact-query work counters reported on every workload.  The cone
#: bound exists only in BC-Tree, so ``points_pruned_cone`` is not among them.
COUNTERS = ("nodes_visited", "center_inner_products", "leaves_scanned",
            "candidates_verified", "points_pruned_ball")
#: Queries in the first ``exact=False`` call on a fresh index.
WARM_BLOCK = 16


def timed_blocks(
    call: Any, queries: np.ndarray, offset: int, block: int, seconds: float
) -> Tuple[List[float], List[Any], List[np.ndarray]]:
    """Call ``call(block_of_queries)`` until ``seconds`` pass (3 blocks at least)."""
    rates, results, sent = [], [], []
    deadline = time.perf_counter() + seconds
    while len(rates) < 3 or time.perf_counter() < deadline:
        rows = (offset + np.arange(block)) % len(queries)
        offset += block
        tic = time.perf_counter()
        result = call(queries[rows])
        rates.append(block / (time.perf_counter() - tic))
        results.append(result)
        sent.append(rows)
    return rates, results, sent


def fast_warmup_s(tracer: Tracer, index: Any, queries: np.ndarray) -> float:
    """Time of the first ``exact=False`` call on an index that has had none."""
    tic = time.perf_counter()
    with tracer.span("engine.index.batch_search"):
        index.batch_search(queries[:WARM_BLOCK], k=K, exact=False)
    return time.perf_counter() - tic


def _session_blocks(
    tracer: Tracer,
    index: Any,
    queries: np.ndarray,
    exact_block: int,
    fast_block: int,
    seconds: float,
) -> Tuple[Tuple[List[float], List[Any]], Tuple[List[float], List[Any]]]:
    """Rates and results of a fresh ``Searcher`` session, each mode for ``seconds``."""
    from repro.api import SearchOptions, Searcher

    with Searcher(index, SearchOptions(k=K, n_jobs=NPROC)) as session:
        def pooled(exact: bool) -> Any:
            def call(rows: np.ndarray) -> Any:
                with tracer.span("api.Searcher.batch_search"):
                    return session.batch_search(rows, exact=exact)
            return call

        # One untimed call of each mode starts the pool.
        pooled(True)(queries[:exact_block])
        pooled(False)(queries[:fast_block])
        exact_rates, exact_results, _ = timed_blocks(pooled(True), queries, 0, exact_block,
                                                     seconds)
        fast_rates, fast_results, _ = timed_blocks(pooled(False), queries, 0, fast_block,
                                                   seconds)
    return (exact_rates, exact_results), (fast_rates, fast_results)


def index_references(
    metrics: Metrics,
    tracer: Tracer,
    index: Any,
    points: np.ndarray,
    queries: np.ndarray,
    *,
    exact_block: int,
    fast_block: int,
    session_exact: Optional[Tuple[List[float], List[Any]]] = None,
    session_fast: Optional[Tuple[List[float], List[Any]]] = None,
    seconds: float = 1.0,
) -> None:
    """The ``core``, ``engine`` and ``api`` per-layer metrics of ``index``.

    ``session_exact`` and ``session_fast`` are the block rates and
    ``BatchSearchResult``s of a workload that already drives a session;
    without them a session is measured here for ``seconds`` per mode.
    """
    from repro import LinearScan

    if session_exact is None or session_fast is None:
        session_exact, session_fast = _session_blocks(
            tracer, index, queries, exact_block, fast_block, seconds
        )
    exact_rates, exact_results = session_exact
    fast_rates, fast_results = session_fast

    def inline(exact: bool, block: int, offset: int) -> float:
        def call(rows: np.ndarray) -> Any:
            with tracer.span("engine.index.batch_search"):
                return index.batch_search(rows, k=K, exact=exact)
        rates, _, _ = timed_blocks(call, queries, offset, block, seconds)
        return median(rates)

    exact_inline = inline(True, exact_block, 0)
    fast_inline = inline(False, fast_block, len(queries) // 4)
    metrics.add("engine.exact_ms_per_q", 1e3 / exact_inline, "ms")
    metrics.add("engine.approx_ms_per_q", 1e3 / fast_inline, "ms")
    metrics.add("api.pool_speedup_exact", median(exact_rates) / exact_inline, "ratio",
                len(exact_rates))
    metrics.add("api.pool_speedup_approx", median(fast_rates) / fast_inline, "ratio",
                len(fast_rates))
    metrics.add(
        "api.cpu_per_wall",
        sum(b.cpu_seconds for b in exact_results) / sum(b.wall_seconds for b in exact_results),
        "ratio", len(exact_results),
    )

    served = sum(len(b) for b in exact_results)
    pooled: Dict[str, float] = {}
    for batch in exact_results:
        for name, value in batch.stats.as_dict().items():
            pooled[name] = pooled.get(name, 0.0) + value
    for name in COUNTERS + ("points_pruned_cone",):
        metrics.add(f"core.{name}", pooled[name] / served, "count", served)
    verified = pooled["candidates_verified"] / served
    metrics.add("core.verified_frac", verified / len(points), "fraction", served)
    metrics.add("core.verify_yield", K / verified, "fraction", served)
    fast_served = sum(len(b) for b in fast_results)
    metrics.add(
        "engine.approx_candidates_verified",
        sum(b.stats.candidates_verified for b in fast_results) / fast_served,
        "count", fast_served,
    )

    scan = LinearScan().fit(points)

    def floor_call(rows: np.ndarray) -> Any:
        with tracer.span("core.LinearScan.batch_search"):
            return scan.batch_search(rows, k=K, vectorized=True)

    floor_rates, _, _ = timed_blocks(floor_call, queries, 0, exact_block, seconds)
    floor_ms = 1e3 / median(floor_rates)
    metrics.add("core.floor_ms_per_q", floor_ms, "ms", len(floor_rates))
    metrics.add("core.exact_over_floor", (1e3 / exact_inline) / floor_ms, "ratio")

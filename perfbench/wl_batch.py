"""``batch_sift65k``: the library answering query blocks offline.

BC-Tree (leaf 100) over a 65,536-point Sift surrogate (d = 128), driven
through ``repro.api``: ``Searcher.batch_search`` with ``n_jobs = nproc``,
first exact, then ``exact=False``, plus single-query ``Searcher.search``.
No server is involved; the engine, the bounds and the pool do all the
work.  The brute-force floor (``LinearScan(vectorized=True)``) is measured
beside the tree in the traced run.
"""

from __future__ import annotations

import gc
import os
import time
from typing import Any, List, Tuple

import numpy as np

from harness import (
    K,
    NPROC,
    Checker,
    Metrics,
    Tracer,
    augment,
    check_topk,
    median,
    peak_rss_mb,
    percentile,
    recall_at_k,
    tail_ms,
)
from refs import index_references

#: The layer that receives this workload's requests.
FRONT_LAYER = "api"
NUM_POINTS = 65_536
LEAF_SIZE = 100
QUERY_POOL = 4096
#: Queries in the first call of each mode during set-up.
WARM_BLOCK = 16
EXACT_BLOCK = 64
FAST_BLOCK = 256
SINGLE_CHUNK = 100
#: exact=False answers whose recall is checked against brute force.
RECALL_QUERIES = 1024
SETUP_REPS = 3
#: Rounds at the least: 1,000 single queries, so each of the five windows
#: of the p95 has ten samples beyond it.
MIN_ROUNDS = 10


def run(seed: int, seconds: float, tracer: Tracer, workdir: Any) -> Tuple[Metrics, Checker]:
    from repro.api import SearchOptions, Searcher, build_index
    from repro.datasets import load_dataset, random_hyperplane_queries

    metrics = Metrics()
    checker = Checker()
    points = load_dataset("Sift", num_points=NUM_POINTS, seed=seed).points
    queries = random_hyperplane_queries(points, QUERY_POOL, rng=seed + 1)
    options = SearchOptions(k=K, n_jobs=NPROC)

    # Set-up: fit plus the first call of each mode, repeated; the last
    # tree and session serve the measured phases.
    setups, fits, warmups = [], [], []
    tree = session = None
    for _ in range(SETUP_REPS):
        if session is not None:
            session.close()
        # Free the previous repetition's tree before the next fit, so the
        # high-water RSS holds one tree, not a varying number of them.
        tree = session = None
        gc.collect()
        tic = time.perf_counter()
        with tracer.span("core.BCTree.fit"):
            tree = build_index("bc_tree", leaf_size=LEAF_SIZE, random_state=seed).fit(points)
        fits.append(time.perf_counter() - tic)
        session = Searcher(tree, options)
        with tracer.span("api.Searcher.batch_search"):
            session.batch_search(queries[:WARM_BLOCK], exact=True)
        fast_tic = time.perf_counter()
        with tracer.span("api.Searcher.batch_search"):
            session.batch_search(queries[:WARM_BLOCK], exact=False)
        warmups.append(time.perf_counter() - fast_tic)
        setups.append(time.perf_counter() - tic)
    assert tree is not None and session is not None
    metrics.add("setup_s", median(setups), "s", len(setups))

    # Measured rounds: one exact block, one exact=False block and a chunk
    # of single queries each, repeated until the run's seconds pass, so a
    # slow spell of the machine lands on every metric alike.  In a traced
    # run, single-query spans are recorded in every other round, to
    # measure their cost.
    exact_rates: List[float] = []
    fast_rates: List[float] = []
    exact_results: List[Any] = []
    fast_results: List[Any] = []
    exact_rows: List[np.ndarray] = []
    fast_rows: List[np.ndarray] = []
    latencies: List[float] = []
    traced: List[bool] = []
    single_answers, single_rows = [], []
    enabled = tracer.enabled
    deadline = time.perf_counter() + seconds
    rounds = 0
    # The session's pool runs threads, so process CPU time covers it.
    cpu_tic = time.process_time()
    with tracer.span("bench.rounds"):
        while rounds < MIN_ROUNDS or time.perf_counter() < deadline:
            for exact, block, rates, results, rows in (
                (True, EXACT_BLOCK, exact_rates, exact_results, exact_rows),
                (False, FAST_BLOCK, fast_rates, fast_results, fast_rows),
            ):
                picked = (rounds * block + np.arange(block)) % QUERY_POOL
                tic = time.perf_counter()
                with tracer.span("api.Searcher.batch_search"):
                    result = session.batch_search(queries[picked], exact=exact)
                rates.append(block / (time.perf_counter() - tic))
                results.append(result)
                rows.append(picked)
            tracer.enabled = enabled and rounds % 2 == 0
            for i in range(SINGLE_CHUNK):
                row = (rounds * SINGLE_CHUNK + i) % QUERY_POOL
                tic = time.perf_counter()
                with tracer.span("api.Searcher.search", request=rounds * SINGLE_CHUNK + i):
                    result = session.search(queries[row])
                latencies.append((time.perf_counter() - tic) * 1e3)
                traced.append(tracer.enabled)
                single_answers.append((result.indices, result.distances))
                single_rows.append(row)
            tracer.enabled = enabled
            rounds += 1
    rounds_cpu = time.process_time() - cpu_tic

    exact_answers = [(r.indices, r.distances) for batch in exact_results for r in batch]
    fast_answers = [r.indices for batch in fast_results for r in batch]
    exact_query_rows = np.concatenate(exact_rows)
    fast_query_rows = np.concatenate(fast_rows)
    # A library call that fails raises and ends the run; every answer here
    # was returned.
    checker.attempted += len(exact_answers) + len(fast_answers) + len(latencies)

    metrics.add("p50_ms", percentile(latencies, 50), "ms", len(latencies))
    metrics.add("p95_ms", tail_ms(latencies, 95, "single-query latency"), "ms",
                len(latencies))
    metrics.add("capacity_per_s", median(exact_rates), "1/s", len(exact_answers))
    metrics.add("approx_qps", median(fast_rates), "1/s", len(fast_answers))
    # High-water RSS of this process, read before the brute-force checks.
    rss = peak_rss_mb([os.getpid()])

    augmented = augment(points)
    ids = np.arange(NUM_POINTS)
    with tracer.span("bench.check"):
        check_topk(checker, augmented, ids, queries[exact_query_rows], exact_answers,
                   "exact batch_search")
        check_topk(checker, augmented, ids, queries[single_rows], single_answers,
                   "exact search")
        recall = recall_at_k(augmented, ids, queries[fast_query_rows[:RECALL_QUERIES]],
                             fast_answers[:RECALL_QUERIES])
    metrics.add("approx_recall", recall, "fraction", min(RECALL_QUERIES, len(fast_answers)))
    metrics.add("success_rate", 1.0 - checker.failed / checker.attempted, "fraction",
                checker.attempted)
    metrics.add("peak_rss_mb", rss, "MiB", 1)

    if tracer.enabled:
        metrics.add("core.fit_s", median(fits), "s", len(fits))
        metrics.add("engine.fast_warmup_s", median(warmups), "s", len(warmups))
        # The front of this workload is the Searcher session itself.
        metrics.add("front.ready_s", median([s - f for s, f in zip(setups, fits)]), "s",
                    len(setups))
        metrics.add("front.cpu_ms_per_req", rounds_cpu * 1e3 / checker.attempted, "ms",
                    checker.attempted)
        index_references(metrics, tracer, tree, points, queries,
                         exact_block=EXACT_BLOCK, fast_block=FAST_BLOCK,
                         session_exact=(exact_rates, exact_results),
                         session_fast=(fast_rates, fast_results))
        metrics.add(
            "bench.trace_overhead_ms",
            median([v for v, t in zip(latencies, traced) if t])
            - median([v for v, t in zip(latencies, traced) if not t]),
            "ms", len(latencies),
        )
    session.close()
    return metrics, checker

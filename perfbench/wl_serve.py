"""``serve_sift8k``: ``repro serve`` answering single queries over HTTP.

A Ball-Tree (leaf 100) over an 8,192-point Sift surrogate is saved and
served by ``python -m repro serve`` with the default ``ServeConfig``.  The
load generator holds two keep-alive connections:

* open loop at :data:`OPEN_RATE` requests/s on a fixed schedule, latency
  counted from each request's due time;
* closed loop with two callers, exact and then ``exact=False``.

Compute is a small share of a request here, so HTTP, JSON and the
coalescer do most of the work.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Tuple

import numpy as np

from harness import (
    K,
    Checker,
    Metrics,
    Op,
    ServerProcess,
    Tracer,
    ab_overhead_ms,
    augment,
    check_topk,
    closed_ops,
    cpu_seconds,
    encode,
    http_get,
    median,
    peak_rss_mb,
    percentile,
    recall_at_k,
    run_load,
    search_request,
    start_server,
    tail_ms,
    warm_up,
)
from refs import fast_warmup_s, index_references

#: The layer that receives this workload's requests.
FRONT_LAYER = "serve"
NUM_POINTS = 8192
LEAF_SIZE = 100
QUERY_POOL = 512
#: Query blocks of the in-process references of the traced run.
EXACT_BLOCK, FAST_BLOCK = 64, 256
SETUP_REPS = 5
#: Open-loop rate (requests/s): about a third of what two closed-loop
#: callers sustain on a 2-core machine at the commit that defined it
#: (~380 req/s).  At half, the p95 doubled between runs of the same code.
OPEN_RATE = 125.0
#: Share of the run's seconds given to each phase.
OPEN_SHARE, EXACT_SHARE = 0.6, 0.25


def open_schedule(rate: float, seconds: float, raw: List[bytes]) -> List[Op]:
    """Evenly spaced requests cycling through ``raw``, due from time 0."""
    count = int(rate * seconds)
    return [Op("serve./search", raw[i % len(raw)], tag=i % len(raw), due=i / rate)
            for i in range(count)]


def spawn_server(tracer: Tracer, path: Any, workdir: Any, name: str, *extra: str) -> ServerProcess:
    return start_server(tracer, "serve", ["serve", str(path), "--port", "0", *extra],
                        workdir, name)


def run(seed: int, seconds: float, tracer: Tracer, workdir: Any) -> Tuple[Metrics, Checker]:
    from repro.api import SearchOptions, Searcher, build_index, load_index, save_index
    from repro.datasets import load_dataset, random_hyperplane_queries

    metrics = Metrics()
    checker = Checker()
    workdir.mkdir(parents=True, exist_ok=True)
    points = load_dataset("Sift", num_points=NUM_POINTS, seed=seed).points
    queries = random_hyperplane_queries(points, QUERY_POOL, rng=seed + 1)
    tic = time.perf_counter()
    with tracer.span("core.BallTree.fit"):
        tree = build_index("ball_tree", leaf_size=LEAF_SIZE, random_state=seed).fit(points)
    fit_s = time.perf_counter() - tic

    # Set-up: save, spawn, first 200 on /healthz; repeated, last one kept.
    setups, ready = [], []
    server = None
    for rep in range(SETUP_REPS):
        if server is not None:
            server.stop()
        server = None
        tic = time.perf_counter()
        path = workdir / f"serve-{rep}.idx"
        with tracer.span("api.save_index"):
            save_index(tree, path)
        spawn_tic = time.perf_counter()
        server = spawn_server(tracer, path, workdir, f"serve-{rep}.log")
        done = time.perf_counter()
        setups.append(done - tic)
        ready.append(done - spawn_tic)
    assert server is not None
    metrics.add("setup_s", median(setups), "s", len(setups))

    try:
        results = _measure(metrics, checker, tracer, server, seconds, queries)
        rss = peak_rss_mb(server.pids)
        if tracer.enabled:
            _server_references(metrics, checker, tracer, server, path, workdir, seconds,
                               queries)
    finally:
        server.stop()
    metrics.add("peak_rss_mb", rss, "MiB", 1)

    # Served answers must be bit-identical to in-process Searcher.search
    # over the same payload, with the server's default options.
    compute_ms: List[float] = []
    with tracer.span("api.load_index"):
        tic = time.perf_counter()
        index = load_index(path)
        load_s = time.perf_counter() - tic
    expected: Dict[Tuple[int, bool], Tuple[List[int], List[float]]] = {}
    with Searcher(index, SearchOptions(k=K)) as searcher:
        for row in range(QUERY_POOL):
            for exact in (True, False):
                tic = time.perf_counter()
                with tracer.span("api.Searcher.search"):
                    result = searcher.search(queries[row], exact=exact)
                if exact:
                    compute_ms.append((time.perf_counter() - tic) * 1e3)
                expected[(row, exact)] = (
                    [int(i) for i in result.indices], [float(d) for d in result.distances]
                )
    open_ops, exact_ops, fast_ops = results["open"].ops, results["exact"].ops, results["fast"].ops
    for op in open_ops + exact_ops + fast_ops:
        exact = op.kind != "serve./search_fast"
        if op.status == 200:
            checker.expect(
                (op.body["indices"], op.body["distances"]) == expected[(op.tag, exact)],
                f"served answer to query {op.tag} (exact={exact}) differs from Searcher.search",
            )
    exact_rows = sorted({op.tag for op in open_ops if op.status == 200})
    check_topk(checker, augment(points), np.arange(NUM_POINTS), queries[exact_rows],
               [expected[(row, True)] for row in exact_rows], "served exact answers")
    fast_answered = [op for op in fast_ops if op.status == 200]
    metrics.add(
        "approx_recall",
        recall_at_k(augment(points), np.arange(NUM_POINTS),
                    queries[[op.tag for op in fast_answered]],
                    [op.body["indices"] for op in fast_answered]),
        "fraction", len(fast_answered),
    )
    metrics.add("success_rate", 1.0 - checker.failed / checker.attempted, "fraction",
                checker.attempted)

    if tracer.enabled:
        metrics.add("api.load_index_s", load_s, "s")
        compute_p50 = percentile(compute_ms, 50)
        metrics.add("serve.compute_p50_ms", compute_p50, "ms", len(compute_ms))
        metrics.add("serve.overhead_p50_ms", metrics.values["p50_ms"]["value"] - compute_p50,
                    "ms", len(compute_ms))
        metrics.add("front.ready_s", median(ready), "s", len(ready))
        # The fitted tree has answered nothing in this process yet.
        metrics.add("core.fit_s", fit_s, "s")
        metrics.add("engine.fast_warmup_s", fast_warmup_s(tracer, tree, queries), "s")
        index_references(metrics, tracer, tree, points, queries,
                         exact_block=EXACT_BLOCK, fast_block=FAST_BLOCK)
    return metrics, checker


def _measure(
    metrics: Metrics,
    checker: Checker,
    tracer: Tracer,
    server: ServerProcess,
    seconds: float,
    queries: np.ndarray,
) -> Dict[str, Any]:
    exact_raw = [search_request(q) for q in queries]
    fast_raw = [search_request(q, exact=False) for q in queries]
    warm = warm_up(server.port, exact_raw + fast_raw, tracer)
    pids = server.pids
    cpu_tic = cpu_seconds(pids)

    open_run = run_load(server.port, open_schedule(OPEN_RATE, OPEN_SHARE * seconds, exact_raw),
                        open_loop=True, tracer=tracer, name="open_loop", ab_tracing=True)
    exact_s = EXACT_SHARE * seconds
    exact_run = run_load(server.port, closed_ops(exact_raw, "serve./search", exact_s),
                         open_loop=False, duration=exact_s, tracer=tracer, name="closed_exact")
    fast_s = (1.0 - OPEN_SHARE - EXACT_SHARE) * seconds
    fast_run = run_load(server.port, closed_ops(fast_raw, "serve./search_fast", fast_s),
                        open_loop=False, duration=fast_s, tracer=tracer, name="closed_fast")
    runs = (open_run, exact_run, fast_run)
    server_cpu = cpu_seconds(pids) - cpu_tic
    for run_ in (warm,) + runs:
        for op in run_.ops:
            checker.op(op.status == 200)

    # The end-to-end latencies come from the closed loop: on a 2-core
    # machine that a hypervisor shares, the open loop's p95 moved by half
    # its value between runs of the same code, as steal queued requests.
    latencies = exact_run.latencies_ms()
    metrics.add("p50_ms", percentile(latencies, 50), "ms", len(latencies))
    metrics.add("p95_ms", tail_ms(latencies, 95, "closed-loop latency"), "ms", len(latencies))
    metrics.add("capacity_per_s", exact_run.rate_per_s(), "1/s",
                exact_run.answered())
    metrics.add("approx_qps", fast_run.rate_per_s(), "1/s", fast_run.answered())

    if tracer.enabled:
        with tracer.span("serve./stats"):
            stats = http_get(server.port, "/stats")
        requests = sum(len(r.ops) for r in runs)
        metrics.add("serve.mean_batch_size", stats["mean_batch_size"], "count",
                    stats["batches_executed"])
        metrics.add("serve.flushes", stats["flushes"], "count")
        metrics.add("serve.rejected_429", stats["rejected_429"], "count")
        metrics.add("serve.timeouts_504", stats["timeouts_504"], "count")
        metrics.add("front.cpu_ms_per_req", server_cpu * 1e3 / requests, "ms", requests)
        metrics.add("bench.client_cpu_ms_per_req",
                    sum(r.client_cpu for r in runs) * 1e3 / requests, "ms", requests)
        open_ms = open_run.latencies_ms()
        metrics.add("serve.open_p50_ms", percentile(open_ms, 50), "ms", len(open_ms))
        metrics.add("serve.open_p95_ms", tail_ms(open_ms, 95, "open-loop latency"), "ms",
                    len(open_ms))
        metrics.add("bench.late_ms_p99", percentile(open_run.late, 99), "ms", len(open_run.late))
        metrics.add("bench.trace_overhead_ms", ab_overhead_ms(open_run.ops), "ms",
                    len(open_run.ops))
    return {"open": open_run, "exact": exact_run, "fast": fast_run}


def _server_references(
    metrics: Metrics,
    checker: Checker,
    tracer: Tracer,
    server: ServerProcess,
    path: Any,
    workdir: Any,
    seconds: float,
    queries: np.ndarray,
) -> None:
    """The HTTP floor and the ``--max-batch 1`` reference (traced run only)."""
    healthz = run_load(server.port, closed_ops([encode("GET", "/healthz")], "serve./healthz", 1.0),
                       open_loop=False, duration=1.0, tracer=tracer, name="healthz")
    lat = [op.done - op.sent for op in healthz.ops if op.status == 200]
    metrics.add("serve.healthz_p50_ms", median(lat) * 1e3, "ms", len(lat))

    exact_raw = [search_request(q) for q in queries]
    plain = spawn_server(tracer, path, workdir, "serve-nocoalesce.log", "--max-batch", "1")
    try:
        replay = run_load(plain.port, open_schedule(OPEN_RATE, 0.3 * seconds, exact_raw),
                          open_loop=True, tracer=tracer, name="open_loop_nocoalesce")
    finally:
        plain.stop()
    lat_ms = replay.latencies_ms()
    metrics.add("serve.nocoalesce_p50_ms", percentile(lat_ms, 50), "ms", len(lat_ms))
    for op in replay.ops:
        checker.op(op.status == 200)

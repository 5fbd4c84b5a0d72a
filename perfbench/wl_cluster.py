"""``cluster_rw_sift16k``: ``repro cluster`` under a read/write mix.

Two process shards, each a ``dynamic`` index over a Ball-Tree (leaf 100),
hold a 16,384-point Sift surrogate behind ``python -m repro cluster``.
Two closed-loop callers first measure the read capacity of the fresh
cluster, exact and ``exact=False``.  Then the same two callers send a
seeded 90% ``/search``, 10% ``/update`` mix (16 fresh surrogate points
inserted, 16 random live ids deleted per update).  Afterwards routed
answers for a fixed query set are checked against brute force over the
live points the benchmark tracked from the ``/update`` answers.

The mix is a closed loop although its users are independent: on a 2-core
machine that a hypervisor shares, an open loop queued requests behind
every rebuild stall and its p95 moved by half its value between runs of
the same code; two callers bound the queue, so the read latency measured
is the read path's under concurrent writes, and the stalls show in the
per-layer write latencies.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Set, Tuple

import numpy as np

from harness import (
    K,
    BenchError,
    Checker,
    Metrics,
    Op,
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
FRONT_LAYER = "cluster"
NUM_POINTS = 16_384
NUM_SHARDS = 2
LEAF_SIZE = 100
UPDATE_SHARE = 0.10
UPDATE_SIZE = 16
QUERY_POOL = 512
CHECK_QUERIES = 64
#: Query blocks of the in-process references of the traced run.
EXACT_BLOCK, FAST_BLOCK = 64, 256
SETUP_REPS = 3
#: Most requests per second the mix is generated for (the phase ends at
#: its deadline long before the list runs out).
MAX_RATE = 400
#: ``rebuild_threshold`` of the dynamic shards: a shard rebuilds once its
#: buffered inserts plus tombstones exceed this share of its points.
REBUILD_THRESHOLD = 0.04
#: Automatic rebuilds every shard must go through in the write mix.
MIN_REBUILDS = 3
MIX_SHARE, EXACT_SHARE = 0.6, 0.2


def cluster_spec(seed: int) -> Dict[str, Any]:
    return {
        "num_shards": NUM_SHARDS,
        "index": {
            "kind": "dynamic",
            "params": {
                "rebuild_threshold": REBUILD_THRESHOLD,
                "index": {"kind": "ball_tree",
                          "params": {"leaf_size": LEAF_SIZE, "random_state": seed}},
            },
        },
    }


class LiveSet:
    """The live points, tracked from the answers to ``/update``."""

    def __init__(self, points: np.ndarray, rng: np.random.Generator) -> None:
        self.points: Dict[int, np.ndarray] = {i: row for i, row in enumerate(points)}
        self.ids: List[int] = list(range(len(points)))
        self.pending: Set[int] = set()
        self.rng = rng

    def pick_deletes(self) -> List[int]:
        chosen: List[int] = []
        while len(chosen) < UPDATE_SIZE:
            candidate = self.ids[int(self.rng.integers(len(self.ids)))]
            if candidate not in self.pending:
                self.pending.add(candidate)
                chosen.append(candidate)
        return chosen

    def apply(self, inserted: np.ndarray, insert_ids: List[int], deleted: List[int]) -> None:
        for gid, row in zip(insert_ids, inserted):
            self.points[int(gid)] = row
            self.ids.append(int(gid))
        gone = set(deleted)
        self.ids = [i for i in self.ids if i not in gone]
        for gid in deleted:
            del self.points[gid]
        self.pending -= gone

    def arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        ids = np.array(sorted(self.ids))
        return np.vstack([self.points[int(i)] for i in ids]), ids


def run(seed: int, seconds: float, tracer: Tracer, workdir: Any) -> Tuple[Metrics, Checker]:
    from repro.cluster import ClusterSpec, build_cluster_dir
    from repro.datasets import load_dataset, random_hyperplane_queries

    metrics = Metrics()
    checker = Checker()
    workdir.mkdir(parents=True, exist_ok=True)
    mix_s = MIX_SHARE * seconds
    schedule_rng = np.random.default_rng(seed + 2)
    kinds = schedule_rng.random(int(MAX_RATE * mix_s)) < UPDATE_SHARE
    updates = int(kinds.sum())
    everything = load_dataset(
        "Sift", num_points=NUM_POINTS + updates * UPDATE_SIZE, seed=seed
    ).points
    points, fresh = everything[:NUM_POINTS], everything[NUM_POINTS:]
    queries = random_hyperplane_queries(points, QUERY_POOL, rng=seed + 1)
    spec = ClusterSpec.from_dict(cluster_spec(seed))

    # Set-up: build the directory, spawn, first 200 on the router's
    # /healthz; repeated, the last cluster kept.
    setups, builds, ready = [], [], []
    server = None
    for rep in range(SETUP_REPS):
        if server is not None:
            server.stop()
        server = None
        tic = time.perf_counter()
        with tracer.span("cluster.build_cluster_dir"):
            manifest = build_cluster_dir(points, spec, workdir / f"cluster-{rep}")
        spawn_tic = time.perf_counter()
        server = start_server(
            tracer, "cluster", ["cluster", str(manifest.directory), "--router-port", "0"],
            workdir, f"cluster-{rep}.log",
        )
        done = time.perf_counter()
        setups.append(done - tic)
        builds.append(spawn_tic - tic)
        ready.append(done - spawn_tic)
    assert server is not None
    metrics.add("setup_s", median(setups), "s", len(setups))

    live = LiveSet(points, np.random.default_rng(seed + 3))
    try:
        with tracer.span("cluster./healthz"):
            shard_ports = [int(s["address"].rsplit(":", 1)[1])
                           for s in http_get(server.port, "/healthz")["shards"]]
        exact_raw = [search_request(q) for q in queries]
        fast_raw = [search_request(q, exact=False) for q in queries]
        warm = warm_up(server.port, exact_raw + fast_raw, tracer)
        pids = server.pids
        cpu_tic = cpu_seconds(pids)
        # Read capacity is measured on the freshly built cluster: after
        # the mix it would depend on where each shard stands between two
        # rebuilds.
        exact_s = EXACT_SHARE * seconds
        exact_run = run_load(server.port, closed_ops(exact_raw, "cluster./search", exact_s),
                             open_loop=False, duration=exact_s, tracer=tracer,
                             name="closed_exact")
        fast_s = (1.0 - MIX_SHARE - EXACT_SHARE) * seconds
        fast_run = run_load(server.port, closed_ops(fast_raw, "cluster./search_fast", fast_s),
                            open_loop=False, duration=fast_s, tracer=tracer,
                            name="closed_fast")
        fast_live = live.arrays()
        mixed = _mixed_phase(server.port, queries, fresh, kinds, live, tracer, mix_s)
        check_rows = np.arange(CHECK_QUERIES)
        check_run = run_load(
            server.port, [Op("cluster./search", exact_raw[r], tag=int(r)) for r in check_rows],
            open_loop=True, tracer=tracer, name="check",
        )
        server_cpu = cpu_seconds(pids) - cpu_tic
        rss = peak_rss_mb(pids)
        if tracer.enabled:
            _traced_server(metrics, tracer, server.port, shard_ports, exact_raw,
                           [mixed, exact_run, fast_run, check_run], server_cpu)
    finally:
        server.stop()

    for run_ in (warm, mixed, exact_run, fast_run, check_run):
        for op in run_.ops:
            checker.op(op.status == 200)
    search_ms = mixed.latencies_ms("cluster./search")
    metrics.add("p50_ms", percentile(search_ms, 50), "ms", len(search_ms))
    metrics.add("p95_ms", tail_ms(search_ms, 95, "mixed /search latency"), "ms",
                len(search_ms))
    # Every shard must go through several automatic rebuilds: each update
    # leaves about UPDATE_SIZE pending inserts plus tombstones per shard,
    # and a shard rebuilds past REBUILD_THRESHOLD of its points.
    applied = len(mixed.latencies_ms("cluster./update"))
    rebuilds = applied * UPDATE_SIZE / (REBUILD_THRESHOLD * NUM_POINTS / NUM_SHARDS)
    if rebuilds < MIN_REBUILDS:
        raise BenchError(
            f"{applied} updates give about {rebuilds:.1f} rebuilds per shard; "
            f"at least {MIN_REBUILDS} are needed — raise --seconds"
        )
    metrics.add("capacity_per_s", exact_run.rate_per_s(), "1/s",
                exact_run.answered())
    metrics.add("approx_qps", fast_run.rate_per_s(), "1/s", fast_run.answered())
    metrics.add("peak_rss_mb", rss, "MiB", len(pids))

    live_points, live_ids = live.arrays()
    augmented = augment(live_points)
    answered = [op for op in check_run.ops if op.status == 200]
    check_topk(checker, augmented, live_ids, queries[[op.tag for op in answered]],
               [(op.body["indices"], op.body["distances"]) for op in answered],
               "routed answers after the write mix")
    fast_answered = [op for op in fast_run.ops if op.status == 200]
    metrics.add(
        "approx_recall",
        recall_at_k(augment(fast_live[0]), fast_live[1],
                    queries[[op.tag for op in fast_answered]],
                    [op.body["indices"] for op in fast_answered]),
        "fraction", len(fast_answered),
    )
    metrics.add("success_rate", 1.0 - checker.failed / checker.attempted, "fraction",
                checker.attempted)

    if tracer.enabled:
        metrics.add("cluster.build_dir_s", median(builds), "s", len(builds))
        metrics.add("front.ready_s", median(ready), "s", len(ready))
        write_ms = mixed.latencies_ms("cluster./update")
        metrics.add("cluster.write_p50_ms", percentile(write_ms, 50), "ms", len(write_ms))
        metrics.add("cluster.update_p95_ms", percentile(write_ms, 95), "ms", len(write_ms))
        metrics.add("cluster.update_max_ms", max(write_ms), "ms", len(write_ms))
        metrics.add("bench.trace_overhead_ms", ab_overhead_ms(
            [op for op in mixed.ops if op.kind == "cluster./search"]), "ms", len(search_ms))
        _dynamic_references(metrics, tracer, points, queries, seed)
    return metrics, checker


def _mixed_phase(
    port: int,
    queries: np.ndarray,
    fresh: np.ndarray,
    kinds: np.ndarray,
    live: LiveSet,
    tracer: Tracer,
    seconds: float,
) -> Any:
    """Two closed-loop callers sending the seeded read/write sequence."""
    search_raw = [search_request(q) for q in queries]
    ops: List[Op] = []
    cursor = 0
    for i, is_update in enumerate(kinds):
        if is_update:
            ops.append(Op("cluster./update", b"", tag=fresh[cursor:cursor + UPDATE_SIZE]))
            cursor += UPDATE_SIZE
        else:
            ops.append(Op("cluster./search", search_raw[i % QUERY_POOL], tag=i % QUERY_POOL))

    def prepare(op: Op) -> None:
        # Deletes name ids known live when the update is sent.
        if op.kind == "cluster./update":
            deletes = live.pick_deletes()
            op.tag = (op.tag, deletes)
            op.raw = encode("POST", "/update", {
                "inserts": [[float(v) for v in row] for row in op.tag[0]],
                "deletes": deletes,
            })

    def on_answer(op: Op) -> None:
        if op.kind != "cluster./update":
            return
        inserted, deletes = op.tag
        if op.status != 200:
            live.pending -= set(deletes)
            return
        if op.body["deleted"] != len(deletes) or len(op.body["insert_ids"]) != len(inserted):
            raise BenchError(f"update applied partially: {op.body}")
        live.apply(inserted, op.body["insert_ids"], deletes)

    return run_load(port, ops, open_loop=False, duration=seconds, tracer=tracer,
                    name="mixed", ab_tracing=True, prepare=prepare, on_answer=on_answer)


def _traced_server(
    metrics: Metrics,
    tracer: Tracer,
    port: int,
    shard_ports: List[int],
    exact_raw: List[bytes],
    runs: List[Any],
    server_cpu: float,
) -> None:
    """Hops, /stats and CPU of the router and shards (traced run only)."""
    ops = [Op("cluster./search", exact_raw[i % len(exact_raw)]) for i in range(200)]
    # One request at a time, quiesced: routed versus direct to each shard.
    def sequential(target: int, name: str) -> float:
        result = run_load(target, [Op(o.kind, o.raw) for o in ops], open_loop=True,
                          tracer=tracer, name=name)
        return median([op.done - op.sent for op in result.ops if op.status == 200]) * 1e3

    routed = sequential(port, "routed_quiesced")
    shard = median([sequential(p, f"shard{i}_quiesced") for i, p in enumerate(shard_ports)])
    metrics.add("cluster.shard_p50_ms", shard, "ms", 200 * len(shard_ports))
    metrics.add("cluster.router_overhead_p50_ms", routed - shard, "ms", 200)

    with tracer.span("cluster./stats"):
        router_stats = http_get(port, "/stats")
        shard_stats = [http_get(p, "/stats") for p in shard_ports]
    metrics.add("cluster.mean_batch_size", router_stats["mean_batch_size"], "count",
                router_stats["batches_executed"])
    metrics.add("cluster.shard_mean_batch_size",
                median([s["mean_batch_size"] for s in shard_stats]), "count")
    requests = sum(len(r.ops) for r in runs)
    metrics.add("cluster.errors_503",
                sum(op.status == 503 for r in runs for op in r.ops), "count", requests)
    metrics.add("front.cpu_ms_per_req", server_cpu * 1e3 / requests, "ms", requests)
    metrics.add("bench.client_cpu_ms_per_req",
                sum(r.client_cpu for r in runs) * 1e3 / requests, "ms", requests)


def _dynamic_references(
    metrics: Metrics,
    tracer: Tracer,
    points: np.ndarray,
    queries: np.ndarray,
    seed: int,
) -> None:
    """The dynamic index in-process on one shard's slice (traced run only).

    Static Ball-Tree, the shard's base family, with the ``core``,
    ``engine`` and ``api`` references every workload reports; a freshly
    rebuilt dynamic index, and the same index carrying the most buffered
    inserts and tombstones a shard holds before its next automatic
    rebuild; then that rebuild.
    """
    from repro.api import build_index

    slice_points = points[: NUM_POINTS // NUM_SHARDS]
    block = queries[:128]

    def ms_per_q(index: Any, name: str) -> float:
        times = []
        for _ in range(3):
            tic = time.perf_counter()
            with tracer.span(name):
                index.batch_search(block, k=K)
            times.append(time.perf_counter() - tic)
        return median(times) * 1e3 / len(block)

    tic = time.perf_counter()
    with tracer.span("core.BallTree.fit"):
        static = build_index("ball_tree", leaf_size=LEAF_SIZE, random_state=seed).fit(slice_points)
    metrics.add("core.fit_s", time.perf_counter() - tic, "s")
    metrics.add("engine.fast_warmup_s", fast_warmup_s(tracer, static, queries), "s")
    index_references(metrics, tracer, static, slice_points, queries,
                     exact_block=EXACT_BLOCK, fast_block=FAST_BLOCK)
    metrics.add("core.static_ms_per_q", ms_per_q(static, "engine.index.batch_search"), "ms", 384)
    spec = cluster_spec(seed)["index"]
    dynamic = build_index(dict(spec, params=dict(spec["params"], auto_rebuild=False)))
    with tracer.span("core.DynamicP2HIndex.insert"):
        dynamic.insert(slice_points)
        dynamic.rebuild()
    metrics.add("core.dynamic_clean_ms_per_q",
                ms_per_q(dynamic, "core.DynamicP2HIndex.batch_search"), "ms", 384)
    pending = int(REBUILD_THRESHOLD * len(slice_points)) // 2
    rng = np.random.default_rng(seed + 4)
    with tracer.span("core.DynamicP2HIndex.insert"):
        dynamic.insert(slice_points[rng.integers(len(slice_points), size=pending)] + 1e-3)
    with tracer.span("core.DynamicP2HIndex.delete"):
        dynamic.delete(rng.choice(len(slice_points), size=pending, replace=False))
    metrics.add("core.dynamic_dirty_ms_per_q",
                ms_per_q(dynamic, "core.DynamicP2HIndex.batch_search"), "ms", 384)
    tic = time.perf_counter()
    with tracer.span("core.DynamicP2HIndex.rebuild"):
        dynamic.rebuild()
    metrics.add("core.dynamic_rebuild_s", time.perf_counter() - tic, "s")

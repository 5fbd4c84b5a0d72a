"""Shared machinery of the benchmark: tracing, statistics, processes, HTTP.

Everything here runs on the benchmark side.  The system under test is
reached only through its public entry points: ``repro.api`` calls made by
the workload modules, and ``python -m repro serve`` / ``python -m repro
cluster`` processes driven over HTTP by the load generator below.
"""

from __future__ import annotations

import asyncio
import ctypes
import gc
import json
import os
import re
import select
import signal
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

#: Top-k size of every query the benchmark sends (the paper's k = 10).
K = 10
#: Connections (open loop) or callers (closed loop) the load generator uses.
NPROC = os.cpu_count() or 1
CONNECTIONS = min(2, NPROC)
#: Seconds a spawned server gets to print its announce line.
SPAWN_TIMEOUT_S = 120.0
#: Requests per chunk when the traced run alternates tracing on and off.
AB_CHUNK = 50
#: Most consecutive windows a tail percentile is taken over (see :func:`tail_ms`).
WINDOWS = 5

_ANNOUNCE = re.compile(r"http://([0-9.]+):(\d+)")
_CLK_TCK = os.sysconf("SC_CLK_TCK")
_PR_SET_PDEATHSIG = 1


# ------------------------------------------------------------------ tracing


class Tracer:
    """In-memory spans around every call the benchmark makes into a layer.

    A span is ``(id, name, layer, start, end, parent, request)``.  Sync
    code nests spans through :meth:`span`; the async load generator
    records finished spans with :meth:`record` and an explicit parent.
    When disabled, both are no-ops, so untraced runs pay one attribute
    check per call.
    """

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: List[Tuple[int, str, str, float, float, Optional[int], Optional[int]]] = []
        self._stack: List[int] = []
        self._next_id = 0

    def _new_id(self) -> int:
        self._next_id += 1
        return self._next_id

    @property
    def current(self) -> Optional[int]:
        return self._stack[-1] if self._stack else None

    @contextmanager
    def span(self, name: str, request: Optional[int] = None) -> Iterator[None]:
        if not self.enabled:
            yield
            return
        span_id = self._new_id()
        parent = self.current
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append(
                (span_id, name, name.split(".", 1)[0], start, end, parent, request)
            )

    def record(
        self,
        name: str,
        start: float,
        end: float,
        *,
        parent: Optional[int],
        request: Optional[int] = None,
    ) -> None:
        if self.enabled:
            self.spans.append(
                (self._new_id(), name, name.split(".", 1)[0], start, end, parent, request)
            )

    def self_seconds(self) -> Dict[str, float]:
        """Per-layer self time: span time not covered by child spans."""
        children: Dict[Optional[int], List[Tuple[float, float]]] = {}
        for _, _, _, start, end, parent, _ in self.spans:
            children.setdefault(parent, []).append((start, end))
        totals: Dict[str, float] = {}
        for span_id, _, layer, start, end, _, _ in self.spans:
            covered = 0.0
            cursor = start
            for c_start, c_end in sorted(children.get(span_id, [])):
                c_start, c_end = max(c_start, cursor), min(c_end, end)
                if c_end > c_start:
                    covered += c_end - c_start
                    cursor = c_end
            totals[layer] = totals.get(layer, 0.0) + (end - start) - covered
        return totals

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        keys = ("id", "name", "layer", "start", "end", "parent", "request")
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(dict(zip(keys, span))) + "\n")


def span_cost_seconds(samples: int = 20000) -> float:
    """Measured cost of recording one nested span."""
    tracer = Tracer(True)
    with tracer.span("bench.calibrate"):
        tic = time.perf_counter()
        for _ in range(samples):
            with tracer.span("bench.empty"):
                pass
        return (time.perf_counter() - tic) / samples


# --------------------------------------------------------------- statistics


def percentile(values: Sequence[float], q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def tail_ms(latencies: Sequence[float], q: float, what: str) -> float:
    """The q-th percentile of time-ordered latencies, taken in each of up
    to :data:`WINDOWS` consecutive windows that keep ten samples beyond it;
    the median window is reported, so one slow spell of the machine moves
    it little."""
    windows = max(1, min(WINDOWS, int(len(latencies) * (1.0 - q / 100.0) / 10)))
    size = len(latencies) // windows
    require_tail(latencies[:size], q, what)
    return median([
        percentile(latencies[i * size:(i + 1) * size], q) for i in range(windows)
    ])


def require_tail(samples: Sequence[float], q: float, what: str) -> None:
    """A q-th percentile needs at least ten samples beyond it."""
    beyond = len(samples) * (1.0 - q / 100.0)
    if beyond < 10:
        raise BenchError(
            f"{what}: {len(samples)} samples leave {beyond:.1f} beyond p{q:g}; "
            "at least 10 are needed"
        )


class BenchError(RuntimeError):
    """The benchmark could not produce a valid measurement."""


class Metrics:
    """Named metrics with units and the sample count behind each."""

    def __init__(self) -> None:
        self.values: Dict[str, Dict[str, Any]] = {}

    def add(self, name: str, value: float, unit: str, samples: int = 1) -> None:
        self.values[name] = {
            "value": float(value), "unit": unit, "samples": int(samples),
        }


# ---------------------------------------------------------- correctness


class Checker:
    """Counts operations and wrong answers; wrong answers fail the run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.wrong: List[str] = []

    def op(self, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1

    def expect(self, ok: bool, message: str) -> None:
        if not ok and len(self.wrong) < 20:
            self.wrong.append(message)
        elif not ok:
            self.wrong.append("...")

    @property
    def correct(self) -> bool:
        return not self.wrong


def augment(points: np.ndarray) -> np.ndarray:
    """Points with the appended 1 coordinate every P2H distance uses."""
    return np.hstack([points, np.ones((points.shape[0], 1))])


def normalized(queries: np.ndarray) -> np.ndarray:
    """Queries scaled so their normal (all but the last entry) has unit norm."""
    queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    return queries / np.linalg.norm(queries[:, :-1], axis=1, keepdims=True)


def _brute_force(
    augmented: np.ndarray, queries: np.ndarray
) -> Iterator[Tuple[int, np.ndarray, np.ndarray, float]]:
    """Per block of queries: ``(offset, |<p, q>| for every point, sorted
    top-k distances, tolerance)``.  The tolerance bounds the rounding by
    which two BLAS paths may disagree on one distance."""
    qn = normalized(queries)
    scale = np.max(np.linalg.norm(augmented, axis=1))
    tol = 64 * np.finfo(np.float64).eps * augmented.shape[1] * scale
    k = min(K, augmented.shape[0])
    for start in range(0, len(qn), 256):
        true = np.abs(qn[start:start + 256] @ augmented.T)
        best = np.sort(np.partition(true, k - 1, axis=1)[:, :k], axis=1)
        yield start, true, best, tol


def check_topk(
    checker: Checker,
    augmented: np.ndarray,
    ids: np.ndarray,
    queries: np.ndarray,
    answers: Sequence[Tuple[Sequence[int], Sequence[float]]],
    what: str,
) -> None:
    """Exact answers equal brute force, ties included.

    ``augmented`` holds the live points (``n, d``), ``ids`` their public
    identifiers.  Each answer must list ``min(K, n)`` distinct live ids
    whose reported distances match brute force and, position by
    position, the brute-force top-k distances.  Distances are compared up
    to BLAS rounding, so tied points may appear in either order.
    """
    row_of = {int(i): r for r, i in enumerate(ids)}
    for start, true, best, tol in _brute_force(augmented, queries):
        k = best.shape[1]
        for row, (got_ids, got_dist) in enumerate(answers[start:start + len(true)]):
            got_ids = [int(i) for i in got_ids]
            got_dist = np.asarray(got_dist, dtype=np.float64)
            rows = [row_of.get(i) for i in got_ids]
            ok = (
                len(got_ids) == k
                and len(set(got_ids)) == k
                and None not in rows
                and bool(np.all(np.abs(true[row, rows] - got_dist) <= tol))
                and bool(np.all(np.abs(best[row] - got_dist) <= tol))
            )
            checker.expect(ok, f"{what}: query {start + row} differs from brute force")


def recall_at_k(
    augmented: np.ndarray,
    ids: np.ndarray,
    queries: np.ndarray,
    answers: Sequence[Sequence[int]],
) -> float:
    """Mean recall@K of ``answers`` against brute force, ties counted as hits."""
    row_of = {int(i): r for r, i in enumerate(ids)}
    hits = total = 0
    for start, true, best, tol in _brute_force(augmented, queries):
        for row, got in enumerate(answers[start:start + len(true)]):
            rows = [row_of[int(i)] for i in got if int(i) in row_of]
            hits += int(np.sum(true[row, rows] <= best[row, -1] + tol))
            total += best.shape[1]
    return hits / total


# ------------------------------------------------------------------- /proc


def cpu_ticks() -> Tuple[int, int]:
    """``(steal, total)`` clock ticks of the whole machine, from /proc/stat."""
    with open("/proc/stat", encoding="ascii") as handle:
        fields = [int(v) for v in handle.readline().split()[1:]]
    return fields[7], sum(fields)


def peak_rss_mb(pids: Sequence[int]) -> float:
    """Summed VmHWM (high-water RSS) of ``pids``, in MiB."""
    total_kb = 0
    for pid in pids:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    total_kb += int(line.split()[1])
    return total_kb / 1024.0


def cpu_seconds(pids: Sequence[int]) -> float:
    """Summed user + system CPU time of ``pids``, from /proc/<pid>/stat."""
    ticks = 0
    for pid in pids:
        with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        ticks += int(fields[11]) + int(fields[12])
    return ticks / _CLK_TCK


def group_pids(pgid: int) -> List[int]:
    """Every live process in process group ``pgid``."""
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[2]) == pgid and fields[0] != "Z":
            pids.append(int(entry))
    return sorted(pids)


# ---------------------------------------------------------------- processes


def _interrupt_when_parent_dies() -> None:
    """Ask the kernel to send SIGINT (a graceful stop) to the server if the
    benchmark process dies first, so no server outlives a killed run."""
    libc = ctypes.CDLL(None, use_errno=True)
    libc.prctl(_PR_SET_PDEATHSIG, signal.SIGINT)


class ServerProcess:
    """One ``python -m repro <command>`` process group and its bound port.

    Started in its own session so every process it spawns (cluster
    shards) shares its process group; :meth:`stop` interrupts the leader
    for a graceful drain, then kills whatever of the group is left and
    waits for the leader.
    """

    def __init__(self, args: Sequence[str], workdir: Path, log_name: str) -> None:
        env = dict(os.environ)
        src = str(Path.cwd() / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        self.log_path = workdir / log_name
        self._log = open(self.log_path, "wb")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", *args],
            stdout=subprocess.PIPE,
            stderr=self._log,
            env=env,
            start_new_session=True,
            preexec_fn=_interrupt_when_parent_dies,
        )
        self.port = self._read_port()

    def _read_port(self) -> int:
        stdout = self.proc.stdout
        assert stdout is not None
        deadline = time.monotonic() + SPAWN_TIMEOUT_S
        buffered = b""
        while time.monotonic() < deadline:
            ready, _, _ = select.select([stdout], [], [], 0.5)
            if ready:
                chunk = os.read(stdout.fileno(), 4096)
                if not chunk:
                    break
                buffered += chunk
                match = _ANNOUNCE.search(buffered.decode("utf-8", "replace"))
                if match:
                    return int(match.group(2))
            elif self.proc.poll() is not None:
                break
        self.stop()
        raise BenchError(
            f"server did not announce a port; log: {self.log_path.read_text()[-2000:]}"
        )

    @property
    def pids(self) -> List[int]:
        return group_pids(self.proc.pid)

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                pass
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.proc.wait()
        deadline = time.monotonic() + 10
        while group_pids(self.proc.pid) and time.monotonic() < deadline:
            time.sleep(0.05)
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        self._log.close()


# --------------------------------------------------------------------- HTTP


class HttpConnection:
    """One keep-alive HTTP/1.1 connection, written for the load generator."""

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port
        self.reader: Optional[asyncio.StreamReader] = None
        self.writer: Optional[asyncio.StreamWriter] = None

    async def __aenter__(self) -> "HttpConnection":
        self.reader, self.writer = await asyncio.open_connection(self.host, self.port)
        return self

    async def __aexit__(self, *exc: Any) -> None:
        if self.writer is not None:
            self.writer.close()
            try:
                await self.writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def send(self, raw: bytes) -> Tuple[int, Any]:
        """Send one pre-encoded request; returns ``(status, decoded body)``."""
        assert self.reader is not None and self.writer is not None
        self.writer.write(raw)
        await self.writer.drain()
        status_line = await self.reader.readline()
        if not status_line:
            raise ConnectionError("server closed the connection")
        status = int(status_line.split()[1])
        length = 0
        while True:
            line = await self.reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.partition(b":")
            if name.strip().lower() == b"content-length":
                length = int(value)
        body = await self.reader.readexactly(length) if length else b""
        return status, (json.loads(body) if body else {})

    async def request(self, method: str, path: str, payload: Any = None) -> Tuple[int, Any]:
        return await self.send(encode(method, path, payload))


def http_get(port: int, path: str) -> Any:
    """One synchronous ``GET``; raises unless the answer is 200."""

    async def call() -> Tuple[int, Any]:
        async with HttpConnection("127.0.0.1", port) as conn:
            return await conn.request("GET", path)

    status, body = asyncio.run(call())
    if status != 200:
        raise BenchError(f"GET {path} on port {port} answered {status}: {body}")
    return body


def start_server(
    tracer: "Tracer", layer: str, args: Sequence[str], workdir: Path, log_name: str
) -> ServerProcess:
    """Spawn ``python -m repro <args>`` and wait for its first 200 on
    ``/healthz``; a server that never gets there is stopped."""
    with tracer.span(f"{layer}.spawn"):
        server = ServerProcess(args, workdir, log_name)
    try:
        with tracer.span(f"{layer}./healthz"):
            wait_healthy(server.port)
    except BaseException:
        server.stop()
        raise
    return server


def wait_healthy(port: int, timeout: float = 60.0) -> None:
    """Poll ``/healthz`` until it answers 200."""
    deadline = time.monotonic() + timeout
    while True:
        try:
            http_get(port, "/healthz")
            return
        except (OSError, BenchError):
            if time.monotonic() > deadline:
                raise BenchError(f"port {port} never answered /healthz with 200")
            time.sleep(0.01)


class Op:
    """One request of a load schedule and what became of it."""

    __slots__ = ("kind", "raw", "tag", "due", "sent", "done", "status", "body", "traced")

    def __init__(self, kind: str, raw: bytes, tag: Any = None, due: float = 0.0) -> None:
        self.kind = kind
        self.raw = raw
        self.tag = tag
        self.due = due
        self.sent = 0.0
        self.done = 0.0
        self.status = 0
        self.body: Any = None
        self.traced = False

    @property
    def latency_ms(self) -> float:
        return (self.done - self.due) * 1e3


class LoadResult:
    """Outcome of one load phase, measured by the generator itself."""

    def __init__(
        self, ops: List[Op], start: float, wall: float, client_cpu: float, late: List[float]
    ) -> None:
        self.ops = ops
        self.start = start
        self.wall = wall
        self.client_cpu = client_cpu
        self.late = late

    def latencies_ms(self, kind: Optional[str] = None) -> List[float]:
        """Latency of each answered request, from its due time."""
        return [
            op.latency_ms for op in self.ops
            if op.status == 200 and (kind is None or op.kind == kind)
        ]

    def answered(self) -> int:
        return sum(op.status == 200 for op in self.ops)

    def rate_per_s(self) -> float:
        """Answers per second, as the median over the phase's whole seconds
        of each second's answers over the time they spanned."""
        slots: Dict[int, List[float]] = {}
        for op in self.ops:
            if op.status == 200:
                slots.setdefault(int(op.done - self.start), []).append(op.done)
        rates = [
            (len(done) - 1) / (max(done) - min(done))
            for slot, done in slots.items()
            if slot < int(self.wall) and len(done) > 1
        ]
        return median(rates) if rates else self.answered() / self.wall


async def _drive(
    port: int,
    ops: List[Op],
    *,
    open_loop: bool,
    duration: float,
    tracer: Tracer,
    parent: Optional[int],
    ab_tracing: bool,
    prepare: Any,
    on_answer: Any,
) -> LoadResult:
    """Run ``ops`` over ``CONNECTIONS`` keep-alive connections.

    Open loop: every op carries a due time relative to the start; a free
    connection takes the next op and sends it at its due time, so a
    stalled server makes later requests wait, and their latency counts
    from when they were due.  Closed loop: each connection sends its next
    op as soon as the previous answer arrives, until ``duration`` ends.
    ``prepare`` builds an op's request at send time (for requests that
    depend on earlier answers); ``on_answer`` sees every answer.
    """
    late: List[float] = []
    cursor = 0
    cpu_tic = time.process_time()
    start = time.perf_counter()
    deadline = start + duration

    async def worker(conn: HttpConnection) -> None:
        nonlocal cursor
        while cursor < len(ops):
            op = ops[cursor]
            request_id = cursor
            cursor += 1
            free = time.perf_counter()
            if open_loop:
                op.due += start
                delay = op.due - free
                if delay > 0:
                    await asyncio.sleep(delay)
            elif free >= deadline:
                return
            else:
                op.due = free
            if prepare is not None:
                prepare(op)
            op.traced = tracer.enabled and (
                not ab_tracing or (request_id // AB_CHUNK) % 2 == 0
            )
            op.sent = time.perf_counter()
            if open_loop:
                late.append(max(0.0, op.sent - max(op.due, free)) * 1e3)
            op.status, op.body = await conn.send(op.raw)
            op.done = time.perf_counter()
            if op.traced:
                tracer.record(op.kind, op.sent, op.done, parent=parent, request=request_id)
            if on_answer is not None:
                on_answer(op)

    conns = [HttpConnection("127.0.0.1", port) for _ in range(CONNECTIONS)]
    for conn in conns:
        await conn.__aenter__()
    try:
        await asyncio.gather(*(worker(conn) for conn in conns))
    finally:
        for conn in conns:
            await conn.__aexit__()
    wall = time.perf_counter() - start
    done = [op for op in ops if op.done > 0]
    return LoadResult(done, start, wall, time.process_time() - cpu_tic, late)


def run_load(
    port: int,
    ops: List[Op],
    *,
    open_loop: bool,
    tracer: Tracer,
    name: str,
    duration: float = 0.0,
    ab_tracing: bool = False,
    prepare: Any = None,
    on_answer: Any = None,
) -> LoadResult:
    """Drive one load phase under a ``bench.<name>`` span.

    With ``ab_tracing`` (traced runs only) per-request spans are recorded
    for every other chunk of :data:`AB_CHUNK` requests, so one phase
    measures traced and untraced latency side by side
    (:func:`ab_overhead_ms`).
    """
    # The generator's own garbage collector stays off during a phase: a
    # full collection over the phase's requests would stall sends and be
    # charged to the system under test.
    gc.collect()
    gc.disable()
    try:
        with tracer.span(f"bench.{name}"):
            return asyncio.run(_drive(
                port, ops, open_loop=open_loop, duration=duration, tracer=tracer,
                parent=tracer.current, ab_tracing=ab_tracing, prepare=prepare,
                on_answer=on_answer,
            ))
    finally:
        gc.enable()


def closed_ops(raw: Sequence[bytes], kind: str, seconds: float) -> List[Op]:
    """More requests than closed-loop callers can send in ``seconds``,
    cycling through ``raw``; each op's tag is its index in ``raw``."""
    return [Op(kind, raw[i % len(raw)], tag=i % len(raw)) for i in range(int(20000 * seconds))]


def warm_up(port: int, raws: Sequence[bytes], tracer: Tracer, seconds: float = 1.0) -> LoadResult:
    """Closed-loop requests before any timing, so lazy set-up in the
    server (imports, first-call paths) does not land in a measured phase."""
    return run_load(port, closed_ops(raws, "bench.warm_up", seconds), open_loop=False,
                    duration=seconds, tracer=tracer, name="warm_up")


def ab_overhead_ms(ops: Sequence[Op]) -> float:
    """p50 latency of traced ops minus p50 latency of untraced ops."""
    traced = [op.latency_ms for op in ops if op.status == 200 and op.traced]
    plain = [op.latency_ms for op in ops if op.status == 200 and not op.traced]
    return median(traced) - median(plain)


def encode(method: str, path: str, payload: Any = None) -> bytes:
    """One HTTP/1.1 keep-alive request, encoded once up front."""
    body = b"" if payload is None else json.dumps(payload).encode("utf-8")
    head = (
        f"{method} {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
        f"Content-Length: {len(body)}\r\nConnection: keep-alive\r\n\r\n"
    )
    return head.encode("latin-1") + body


def search_request(query: np.ndarray, **options: Any) -> bytes:
    payload: Dict[str, Any] = {"query": [float(v) for v in query], "k": K}
    if options:
        payload["options"] = options
    return encode("POST", "/search", payload)

"""VaultBench workloads: the deployment, seeded inputs, the oracle and the load.

:func:`run_workload` runs one workload in the calling process:

1. untimed preparation - train the citeseer stand-in (832 nodes, series
   rectifier, ``TrainConfig(epochs=60, patience=20)``, training seed 1)
   and seal the weights and the private graph as the vendor would;
2. untimed inputs and oracle - every query stream, arrival time, update
   and tenant id comes from ``seed``; reference labels come from a
   separate vendor-side deployment's full-graph
   ``SecureInferenceSession.predict``, re-run at every graph version;
3. ``setup_s`` - device-side cold starts from the sealed blobs;
4. an untimed warm-up, then the measured, untraced pass; the process's
   resident-set high-water mark restarts where the measured pass starts;
5. with ``trace_run``: a fresh deployment, the same warm-up and one
   traced pass, with spans recorded by :mod:`bench.spans`.

Load comes from this process alone: the closed loops run on the calling
thread; ``mb_open`` (open-loop ladder and saturation phase) adds one
completion-waiter thread.
"""

from __future__ import annotations

import copy
import ctypes
import gc
import math
import queue
import resource
import statistics
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.deploy import (
    BatchPolicy,
    EnclaveSupervisor,
    GraphUpdate,
    MicroBatchScheduler,
    RecoveryPolicy,
    SchedulerOverloaded,
    SecureInferenceSession,
    VaultServer,
    seal_graph_update,
)
from repro.experiments import run_gnnvault
from repro.graph import CooAdjacency
from repro.obs import PipelineProfiler, StructuredLogger, TenantCostLedger
from repro.tee import seal_private_graph, seal_rectifier_weights
from repro.training import TrainConfig

from . import spans, spec

ZIPF_ALPHA = 1.2
#: Popularity is a property of the catalogue, like the graph: the ranking
#: is fixed and the seed draws which requests arrive. With a seeded
#: ranking the hot set changes per seed and p50 and the simulated cost
#: spread ~20% across seeds; with a fixed one, ~2%.
POPULARITY_SEED = 0
UPDATE_NEIGHBOURS = 3
TENANTS = 8
#: open-loop ladder (offered queries per second); stops at the first failure
LADDER = (1500, 3000, 4500, 6000, 8000, 10000, 12000)
SMOKE_LADDER = (1500, 3000)
HEADLINE_RATE = 3000
#: a ladder step fails on p99 above 25x the 2 ms batching wait, on any
#: refused or failed query, or on completing below 98% of the offered rate
P99_LIMIT_S = 0.050
COMPLETION_FLOOR = 0.98
REQUEST_DEADLINE_S = 5.0
#: before its ladder, mb_open measures capacity: 64 requests in flight
#: (four full batches) for the run's seconds, counted in windows of 500
#: completions; the stream is sized for up to 40k queries a second. The
#: host's speed shifts over seconds, so a 5 s phase spread its qps ~16%
#: across phases in one process, a 10 s phase ~9%.
SATURATION_OUTSTANDING = 64
SATURATION_WINDOW = 500
SATURATION_MAX_QPS = 40_000
#: metrics pool the fastest eighth of a run's windows of about 0.1 s of
#: work (see :func:`window_metrics`)
WINDOW_QUERIES = 250  # closed loops
WINDOW_SECONDS = 0.1  # open loop
FASTEST_SHARE = 1 / 8


@dataclass(frozen=True)
class Sizes:
    warmup: int
    queries: int  # per repeat (closed loops)
    repeats: int  # at least this many; more while the time budget lasts
    cold_starts: int = 5
    update_every: int = 50


FULL = {
    "seq_hot": Sizes(warmup=2000, queries=10_000, repeats=3),
    "seq_cold": Sizes(warmup=2000, queries=5000, repeats=3),
    "mb_open": Sizes(warmup=2000, queries=0, repeats=1),
    # Every update clears the plan cache, so the cache is as warm as it
    # gets after one round; a 2000-query warm-up would also seal ~60
    # supervisor snapshots (~18 s) for nothing.
    "update_mix": Sizes(warmup=100, queries=1200, repeats=1),
}
SMOKE = {
    "seq_hot": Sizes(warmup=100, queries=500, repeats=1, cold_starts=1),
    "seq_cold": Sizes(warmup=100, queries=300, repeats=1, cold_starts=1),
    "mb_open": Sizes(warmup=100, queries=0, repeats=1, cold_starts=1),
    "update_mix": Sizes(warmup=20, queries=40, repeats=1, cold_starts=1,
                        update_every=20),
}


def step_seconds(rate: int, seconds: float) -> float:
    """The headline step runs the whole budget, every other step 30%."""
    return seconds if rate == HEADLINE_RATE else 0.3 * seconds


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------

def make_inputs(workload: str, seed: int, num_nodes: int, seconds: float,
                smoke: bool = False) -> Dict[str, np.ndarray]:
    """Every generated input of one workload run, a pure function of seed."""
    sizes = (SMOKE if smoke else FULL)[workload]
    rng = np.random.default_rng([seed, list(spec.WORKLOADS).index(workload)])
    popular = np.random.default_rng(POPULARITY_SEED).permutation(num_nodes)

    def zipf(count: int) -> np.ndarray:
        ranks = np.minimum(rng.zipf(ZIPF_ALPHA, size=count), num_nodes) - 1
        return popular[ranks]

    def uniform(count: int) -> np.ndarray:
        return rng.integers(0, num_nodes, count)

    # update_mix reads are uniform too: every update clears the plan
    # cache, and with Zipf reads only ~53% of the next 50 hit it, which
    # puts the read median on the hit/miss boundary (28% spread across
    # seeds) and the enclave peak on which tail nodes a seed draws (12%).
    draw = zipf if workload in ("seq_hot", "mb_open") else uniform
    inputs = {"warmup": draw(sizes.warmup)}
    if workload in ("seq_hot", "seq_cold"):
        inputs["stream"] = draw(sizes.queries)
    elif workload == "update_mix":
        inputs["stream"] = draw(sizes.queries)
        inputs["neighbours"] = np.stack([
            rng.choice(num_nodes, UPDATE_NEIGHBOURS, replace=False)
            for _ in range(sizes.queries // sizes.update_every)
        ])
    else:
        inputs["tenants"] = np.array([
            f"tenant-{int(t):08x}" for t in rng.integers(0, 2**32, TENANTS)
        ])
        for rate in (SMOKE_LADDER if smoke else LADDER):
            duration = step_seconds(rate, seconds)
            gaps = rng.exponential(1.0 / rate, int(rate * duration * 1.2) + 64)
            offsets = np.cumsum(gaps)
            inputs[f"offsets_{rate}"] = offsets[offsets < duration]
            inputs[f"nodes_{rate}"] = zipf(len(inputs[f"offsets_{rate}"]))
        inputs["saturate"] = zipf(int(SATURATION_MAX_QPS * seconds))
    return inputs


# ----------------------------------------------------------------------
# Deployment and oracle
# ----------------------------------------------------------------------

@dataclass
class Artifacts:
    """The trained model and the vendor's sealed blobs."""

    backbone: object
    rectifier: object
    substitute: CooAdjacency
    features: np.ndarray
    private: CooAdjacency  # vendor side only: the oracle's deployment
    sealed_weights: object
    sealed_graph: object

    @property
    def num_nodes(self) -> int:
        return int(self.features.shape[0])

    def public_copy(self) -> tuple:
        """Fresh device-side objects, as a cold device loads them.

        The adjacency is rebuilt rather than copied so that none of the
        trained object's memoised derivations (CSR, degrees, Â) carry
        over into a cold start.
        """
        sub = self.substitute
        return (
            copy.deepcopy(self.backbone),
            copy.deepcopy(self.rectifier),
            CooAdjacency(sub.num_nodes, sub.rows.copy(), sub.cols.copy(),
                         sub.values.copy()),
        )


def prepare() -> Artifacts:
    run = run_gnnvault(
        dataset="citeseer",
        schemes=("series",),
        train_config=TrainConfig(epochs=60, patience=20),
        seed=1,
    )
    rectifier = run.rectifiers["series"]
    return Artifacts(
        backbone=run.backbone,
        rectifier=rectifier,
        substitute=run.substitute,
        features=run.graph.features,
        private=run.graph.adjacency,
        sealed_weights=seal_rectifier_weights(rectifier),
        sealed_graph=seal_private_graph(run.graph.adjacency, rectifier),
    )


@dataclass(frozen=True)
class Update:
    features_row: np.ndarray
    neighbours: List[int]
    sealed: object


def make_updates(art: Artifacts, neighbours: np.ndarray) -> List[Update]:
    """Vendor-sealed ``GraphUpdate``s; each new node's public features
    are the mean of its neighbours' rows."""
    updates = []
    for row in neighbours:
        ids = [int(n) for n in row]
        updates.append(Update(
            features_row=art.features[ids].mean(axis=0),
            neighbours=ids,
            sealed=seal_graph_update(GraphUpdate(tuple(ids)), art.rectifier),
        ))
    return updates


def oracle_labels(art: Artifacts,
                  updates: Sequence[Update] = ()) -> List[np.ndarray]:
    """Full-graph labels of a separate deployment, one array per version."""
    backbone, rectifier, substitute = art.public_copy()
    session = SecureInferenceSession(backbone, rectifier, substitute,
                                     art.private)
    features = art.features
    versions = [session.predict(features)[0]]
    for update in updates:
        session.add_node(update.neighbours, update.sealed)
        features = np.vstack([features, update.features_row])
        versions.append(session.predict(features)[0])
    return versions


@dataclass
class Deployment:
    server: VaultServer
    scheduler: Optional[MicroBatchScheduler] = None

    def query(self, node: int) -> int:
        if self.scheduler is not None:
            return self.scheduler.query(node)
        return self.server.query(node)

    def serve(self, nodes: np.ndarray) -> np.ndarray:
        if self.scheduler is not None:
            return self.scheduler.serve(nodes)
        return self.server.serve(nodes)

    def close(self) -> None:
        if self.scheduler is not None:
            self.scheduler.close()


def cold_start(art: Artifacts, workload: str,
               first_node: int) -> Tuple[Deployment, float, int]:
    """Build a device-side deployment and return its first answer.

    Returns ``(deployment, seconds, label)``; ``seconds`` is one
    ``setup_s`` sample.
    """
    backbone, rectifier, substitute = art.public_copy()
    gc.collect()
    started = time.perf_counter()
    session = SecureInferenceSession(
        backbone, rectifier, substitute,
        sealed_weights=art.sealed_weights, sealed_graph=art.sealed_graph,
    )
    server = VaultServer(session, art.features)
    deployment = Deployment(server)
    if workload == "update_mix":
        server.attach_supervisor(EnclaveSupervisor(session, RecoveryPolicy()))
    elif workload == "mb_open":
        server.attach_tenancy(
            TenantCostLedger(registry=server.telemetry.registry)
        )
        server.attach_logger(StructuredLogger())
        deployment.scheduler = MicroBatchScheduler(
            server, BatchPolicy(), profiler=PipelineProfiler()
        ).start()
    label = deployment.query(first_node)
    return deployment, time.perf_counter() - started, label


# ----------------------------------------------------------------------
# Load
# ----------------------------------------------------------------------

@dataclass
class Tally:
    """Failure accounting over everything one run checked.

    Every oracle mismatch is a failure, warm-up included; exceptions,
    refusals and timeouts are failures when they happen in a measured
    phase, which is also what ``attempted`` counts.
    """

    attempted: int = 0
    failed: int = 0
    mismatches: int = 0
    errors: List[str] = field(default_factory=list)

    def note_error(self, exc: BaseException) -> None:
        if len(self.errors) < 5:
            self.errors.append(f"{type(exc).__name__}: {exc}")

    def check(self, answers: np.ndarray, expected: np.ndarray,
              answered: np.ndarray) -> None:
        wrong = int(np.count_nonzero(answered & (answers != expected)))
        self.mismatches += wrong
        self.failed += wrong


def percentile_ms(seconds: np.ndarray, q: float) -> float:
    """A percentile in milliseconds; a failed query (inf) misses every
    limit, so a percentile that reaches the failures is inf."""
    with np.errstate(invalid="ignore"):
        value = float(np.percentile(seconds, q))
    return math.inf if math.isnan(value) else 1e3 * value


@dataclass
class Window:
    """A stretch of one run: its latencies and the wall time it took."""

    latency: np.ndarray
    wall: float


@dataclass
class Pass:
    """One closed-loop pass: per-query send times and latencies."""

    sent: np.ndarray
    latency: np.ndarray  # seconds; inf for a failed query
    wall: float

    def windows(self, size: int = WINDOW_QUERIES) -> List[Window]:
        windows = []
        for first in range(0, len(self.latency), size):
            last = min(first + size, len(self.latency)) - 1
            windows.append(Window(
                self.latency[first:last + 1],
                self.sent[last] + self.latency[last] - self.sent[first],
            ))
        return windows


def window_metrics(windows: Sequence[Window], rank_by: float = 50,
                   with_qps: bool = True) -> Dict[str, float]:
    """qps, p50 and p99 of the run's fastest eighth of windows, pooled.

    A shared host can run at full, half or a third of its speed,
    switching within seconds (on the 2-vCPU host in bench/README.md a
    fixed pure-Python loop takes 3.0 to 11.8 ms, in thread CPU time as
    well as wall time), so a whole-run statistic lands on the boundary
    between speeds. Short
    windows are ranked by their ``rank_by`` percentile latency and the
    fastest eighth is pooled: the uncontended performance, which
    reproduces between runs. A fixed share, not a fixed count, keeps a
    run with more repeats from being more selective.
    """
    ranked = sorted(windows, key=lambda w: percentile_ms(w.latency, rank_by))
    fastest = ranked[:max(1, round(len(ranked) * FASTEST_SHARE))]
    latency = np.concatenate([w.latency for w in fastest])
    metrics = {"p50_ms": percentile_ms(latency, 50),
               "p99_ms": percentile_ms(latency, 99),
               "samples": len(latency)}
    if with_qps:
        metrics["qps"] = (int(np.isfinite(latency).sum())
                          / sum(w.wall for w in fastest))
    return metrics


def closed_loop(call: Callable[[int], int], nodes: np.ndarray,
                expected: np.ndarray, tally: Tally,
                tag: Optional[Callable[[int], None]] = None) -> Pass:
    """One client: each query is sent when the previous one returned."""
    clock = time.perf_counter
    sent = np.empty(len(nodes))
    latency = np.empty(len(nodes))
    answers = np.full(len(nodes), -1, dtype=np.int64)
    started = clock()
    for i, node in enumerate(nodes.tolist()):
        if tag is not None:
            tag(i)
        sent[i] = clock()
        try:
            answers[i] = call(node)
        except Exception as exc:  # a failed query is a result, not a crash
            latency[i] = math.inf
            tally.note_error(exc)
            continue
        latency[i] = clock() - sent[i]
    wall = clock() - started
    answered = np.isfinite(latency)
    tally.check(answers, expected[nodes], answered)
    tally.attempted += len(nodes)
    tally.failed += int(np.count_nonzero(~answered))
    return Pass(sent, latency, wall)


@dataclass
class Step:
    """One open-loop ladder step."""

    rate: int
    duration: float
    start: float
    due: np.ndarray
    done: np.ndarray  # nan: refused, failed or timed out
    late: np.ndarray
    refused: np.ndarray  # bool

    @property
    def latency(self) -> np.ndarray:
        return np.where(np.isnan(self.done), math.inf, self.done - self.due)

    @property
    def failures(self) -> int:
        return int(np.count_nonzero(np.isnan(self.done)))

    @property
    def completion_rate(self) -> float:
        answered = int(np.count_nonzero(~np.isnan(self.done)))
        return answered / (np.nanmax(self.done) - self.start) if answered else 0.0

    @property
    def passed(self) -> bool:
        offered = len(self.due) / self.duration
        return (self.failures == 0
                and percentile_ms(self.latency, 99) <= 1e3 * P99_LIMIT_S
                and self.completion_rate >= COMPLETION_FLOOR * offered)

    def windows(self) -> List[Window]:
        """Requests grouped by the window of the step they were due in."""
        window = ((self.due - self.start) // WINDOW_SECONDS).astype(int)
        latency = self.latency
        return [Window(latency[window == k], WINDOW_SECONDS)
                for k in np.unique(window)]

    def metrics(self) -> Dict[str, float]:
        return window_metrics(self.windows(), rank_by=90, with_qps=False)

    def summary(self) -> dict:
        return {
            "rate": self.rate, "seconds": self.duration,
            "offered": len(self.due), "failed": self.failures,
            "completion_rate": self.completion_rate,
            "p50_ms": percentile_ms(self.latency, 50),
            "p99_ms": percentile_ms(self.latency, 99),
            "passed": self.passed,
        }


def open_step(scheduler: MicroBatchScheduler, rate: int, duration: float,
              offsets: np.ndarray, nodes: np.ndarray, tenants: np.ndarray,
              expected: np.ndarray, tally: Tally,
              tag: Optional[Callable[[int], None]] = None) -> Step:
    """Send on a seeded Poisson schedule; one waiter collects in order.

    Each request is timed from its scheduled send time, so a stall in
    the program also delays every request due behind it; how late the
    generator itself sent is recorded separately. Batches complete in
    admission order, so the in-order waiter sees each answer as it lands.
    """
    clock = time.perf_counter
    count = len(offsets)
    done = np.full(count, np.nan)
    answers = np.full(count, -1, dtype=np.int64)
    late = np.zeros(count)
    refused = np.zeros(count, dtype=bool)
    handoff: "queue.SimpleQueue" = queue.SimpleQueue()
    start = clock() + 0.002
    due = start + offsets

    def waiter() -> None:
        while True:
            item = handoff.get()
            if item is None:
                return
            i, pending = item
            try:
                labels = pending.result(
                    max(0.001, due[i] + REQUEST_DEADLINE_S - clock())
                )
            except Exception as exc:  # timeout or failed batch
                tally.note_error(exc)
                continue
            done[i] = clock()
            answers[i] = labels[0]

    thread = threading.Thread(target=waiter, name="bench-waiter")
    thread.start()
    try:
        node_list = nodes.tolist()
        tenant_list = tenants.tolist()
        for i in range(count):
            delay = due[i] - clock()
            if delay > 0:
                time.sleep(delay)
            late[i] = clock() - due[i]
            if tag is not None:
                tag(i)
            try:
                pending = scheduler.submit(
                    [node_list[i]], client=tenant_list[i % len(tenant_list)]
                )
            except SchedulerOverloaded:
                refused[i] = True
                continue
            handoff.put((i, pending))
    finally:
        handoff.put(None)
        thread.join()
    tally.check(answers, expected[nodes], ~np.isnan(done))
    return Step(rate, duration, start, due, done, late, refused)


@dataclass
class Saturation:
    """The saturation phase: when each answered request completed."""

    done: np.ndarray  # completion times of the answered requests, in order

    def qps(self) -> Tuple[float, int]:
        """``(qps, windows)``: completions per second over the fastest
        eighth of windows of ``SATURATION_WINDOW`` completions, for the
        same reason as :func:`window_metrics`."""
        walls = np.diff(self.done[::SATURATION_WINDOW])
        fastest = np.sort(walls)[:max(1, round(len(walls) * FASTEST_SHARE))]
        return SATURATION_WINDOW * len(fastest) / fastest.sum(), len(walls)


def saturate(scheduler: MicroBatchScheduler, duration: float,
             nodes: np.ndarray, tenants: np.ndarray, expected: np.ndarray,
             tally: Tally) -> Saturation:
    """Keep ``SATURATION_OUTSTANDING`` requests in flight for ``duration``
    seconds; one waiter collects in order and frees a slot per answer.

    The queue then always holds full batches, so the scheduler runs at
    its capacity and nothing is refused.
    """
    clock = time.perf_counter
    done = np.full(len(nodes), np.nan)
    answers = np.full(len(nodes), -1, dtype=np.int64)
    slots = threading.Semaphore(SATURATION_OUTSTANDING)
    handoff: "queue.SimpleQueue" = queue.SimpleQueue()

    def waiter() -> None:
        while True:
            item = handoff.get()
            if item is None:
                return
            i, pending = item
            try:
                labels = pending.result(REQUEST_DEADLINE_S)
            except Exception as exc:  # timeout or failed batch
                tally.note_error(exc)
            else:
                done[i] = clock()
                answers[i] = labels[0]
            finally:
                slots.release()

    thread = threading.Thread(target=waiter, name="bench-waiter")
    thread.start()
    sent = 0
    try:
        node_list = nodes.tolist()
        tenant_list = tenants.tolist()
        stop = clock() + duration
        for i in range(len(nodes)):
            slots.acquire()
            if clock() >= stop:
                break
            try:
                pending = scheduler.submit(
                    [node_list[i]], client=tenant_list[i % len(tenant_list)]
                )
            except SchedulerOverloaded as exc:
                tally.note_error(exc)
                slots.release()
            else:
                handoff.put((i, pending))
            sent = i + 1
    finally:
        handoff.put(None)
        thread.join()
    answered = ~np.isnan(done[:sent])
    tally.check(answers[:sent], expected[nodes[:sent]], answered)
    tally.attempted += sent
    tally.failed += int(np.count_nonzero(~answered))
    return Saturation(done[:sent][answered])


# ----------------------------------------------------------------------
# One workload run
# ----------------------------------------------------------------------

def _median(values) -> float:
    return float(statistics.median(list(values)))


def reset_rss_peak() -> None:
    """Restart the process's resident-set high-water mark from the
    memory it holds live, so that the peak read later belongs to serving
    and not to training, the oracle or the cold starts.

    Heap that training freed stays resident until it is trimmed, and how
    much stays varied by up to 30 MB between processes; trimmed, the
    starting size repeats within 0.5 MB. Linux with glibc only; elsewhere
    the peak stays the whole process's.
    """
    gc.collect()
    try:
        ctypes.CDLL(None).malloc_trim(0)
        with open("/proc/self/clear_refs", "w") as clear_refs:
            clear_refs.write("5")
    except (AttributeError, OSError):
        pass


def rss_peak_mb() -> float:
    """The resident-set high-water mark (``ru_maxrss``, which the reset
    above also restarts)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Counters:
    """ServerStats readings at one instant."""

    sim_seconds: float
    queries: int
    embed_hits: int
    embed_misses: int

    @classmethod
    def read(cls, server: VaultServer) -> "Counters":
        s = server.stats
        return cls(s.total_seconds, s.queries_served,
                   s.embedding_cache_hits, s.embedding_cache_misses)

    def sim_us_since(self, before: "Counters") -> float:
        return (1e6 * (self.sim_seconds - before.sim_seconds)
                / (self.queries - before.queries))

    def embed_hit_ratio_since(self, before: "Counters") -> float:
        hits = self.embed_hits - before.embed_hits
        return hits / (hits + self.embed_misses - before.embed_misses)


@dataclass
class UpdateRepeat:
    """One pass of the update mix: a closed-loop pass per update round."""

    rounds: List[Pass]
    update_ms: List[float]
    wall: float

    @property
    def latency(self) -> np.ndarray:
        return np.concatenate([r.latency for r in self.rounds])


def update_metrics(repeats: Sequence[UpdateRepeat]) -> Dict[str, float]:
    """qps and p99 per whole repeat (a round's 50 queries are too few for
    a p99); p50 from the fastest rounds, pooled like windows."""
    rounds = [Window(r.latency, r.wall)
              for repeat in repeats for r in repeat.rounds]
    return {
        "qps": _median(int(np.isfinite(r.latency).sum()) / r.wall
                       for r in repeats),
        "p99_ms": _median(percentile_ms(r.latency, 99) for r in repeats),
        "p50_ms": window_metrics(rounds, with_qps=False)["p50_ms"],
        "update_p50_ms": _median(ms for r in repeats for ms in r.update_ms),
    }


class Run:
    """One workload run: inputs, oracle, tally and the measured passes."""

    def __init__(self, workload: str, seed: int, seconds: float,
                 smoke: bool, art: Artifacts) -> None:
        self.workload = workload
        self.seconds = seconds
        self.smoke = smoke
        self.sizes = (SMOKE if smoke else FULL)[workload]
        self.ladder = SMOKE_LADDER if smoke else LADDER
        self.art = art
        self.inputs = make_inputs(workload, seed, art.num_nodes, seconds,
                                  smoke)
        self.updates = (make_updates(art, self.inputs["neighbours"])
                        if workload == "update_mix" else [])
        self.oracle = oracle_labels(art, self.updates)
        self.tally = Tally()

    def deploy(self) -> Tuple[Deployment, float]:
        """A cold start (checked first answer) and its setup seconds."""
        first = int(self.inputs["warmup"][0])
        deployment, seconds, label = cold_start(self.art, self.workload,
                                                first)
        self.tally.check(np.array([label]), self.oracle[0][[first]],
                         np.array([True]))
        return deployment, seconds

    def warm(self, deployment: Deployment) -> None:
        """Run the stream's warm-up queries untimed (answers checked)."""
        warmup = self.inputs["warmup"]
        labels = deployment.serve(warmup)
        self.tally.check(labels, self.oracle[0][warmup],
                         np.ones(len(warmup), dtype=bool))
        gc.collect()

    def repeats(self, measure: Callable[[int], object]) -> list:
        """``measure(index)`` at least ``sizes.repeats`` times, then again
        while another repeat of the same length fits the time budget."""
        done: list = []
        started = time.perf_counter()
        while (len(done) < self.sizes.repeats
               or time.perf_counter() - started + done[-1].wall
               <= self.seconds):
            done.append(measure(len(done)))
        return done

    # -- closed loops --------------------------------------------------
    def sequential(self, deployment: Deployment,
                   recorder: Optional[spans.SpanRecorder] = None) -> Pass:
        call, tag = deployment.query, None
        if recorder is not None:
            call = recorder.wrap(spans.REQUEST_SPAN, call)
            tag = recorder.set_request
        return closed_loop(call, self.inputs["stream"], self.oracle[0],
                           self.tally, tag=tag)

    def update_mix(self, deployment: Deployment,
                   recorder: Optional[spans.SpanRecorder] = None
                   ) -> UpdateRepeat:
        """``add_node`` then ``update_every`` queries, once per update;
        records the milliseconds from each ``add_node`` call to the first
        answer after it."""
        server = deployment.server
        add_node, call, tag = server.add_node, deployment.query, None
        if recorder is not None:
            add_node = recorder.wrap(spans.UPDATE_SPAN, add_node)
            call = recorder.wrap(spans.REQUEST_SPAN, call)
            tag = recorder.set_request
        every = self.sizes.update_every
        stream = self.inputs["stream"]
        rounds, update_ms = [], []
        started = time.perf_counter()
        for index, update in enumerate(self.updates):
            called = time.perf_counter()
            add_node(update.features_row, update.neighbours, update.sealed)
            chunk = closed_loop(call, stream[index * every:(index + 1) * every],
                                self.oracle[index + 1], self.tally, tag=tag)
            rounds.append(chunk)
            update_ms.append(
                1e3 * (chunk.sent[0] + chunk.latency[0] - called))
        return UpdateRepeat(rounds, update_ms, time.perf_counter() - started)

    # -- open loop -----------------------------------------------------
    def step(self, deployment: Deployment, rate: int,
             recorder: Optional[spans.SpanRecorder] = None) -> Step:
        return open_step(
            deployment.scheduler, rate, step_seconds(rate, self.seconds),
            self.inputs[f"offsets_{rate}"], self.inputs[f"nodes_{rate}"],
            self.inputs["tenants"], self.oracle[0], self.tally,
            tag=None if recorder is None else recorder.set_request,
        )

    def saturate(self, deployment: Deployment) -> Saturation:
        return saturate(
            deployment.scheduler, self.seconds, self.inputs["saturate"],
            self.inputs["tenants"], self.oracle[0], self.tally,
        )

    # -- measured passes ------------------------------------------------
    def measure(self, deployment: Deployment) -> Tuple[dict, dict]:
        """The untraced pass: ``(metrics, details)``; closes ``deployment``."""
        reset_rss_peak()
        if self.workload == "mb_open":
            return self._measure_ladder(deployment)
        before = Counters.read(deployment.server)
        if self.workload == "update_mix":
            def one_repeat(index: int) -> UpdateRepeat:
                nonlocal deployment, before
                if index:  # the graph grew: start from a fresh device
                    deployment.close()
                    deployment, _ = self.deploy()
                    self.warm(deployment)
                    before = Counters.read(deployment.server)
                return self.update_mix(deployment)

            repeats = self.repeats(one_repeat)
            metrics = update_metrics(repeats)
            details = {"repeats": len(repeats),
                       "windows": sum(len(r.rounds) for r in repeats),
                       "pooled_samples": len(repeats[0].latency)}
        else:
            passes = self.repeats(lambda _: self.sequential(deployment))
            windows = [w for p in passes for w in p.windows()]
            metrics = window_metrics(windows)
            details = {"repeats": len(passes), "windows": len(windows),
                       "pooled_samples": metrics.pop("samples")}
        metrics["sim_sgx_us_per_query"] = (
            Counters.read(deployment.server).sim_us_since(before))
        metrics["enclave_peak_mb"] = self._enclave_peak_mb(deployment)
        deployment.close()
        metrics["rss_peak_mb"] = rss_peak_mb()
        return metrics, details

    def _measure_ladder(self, deployment: Deployment) -> Tuple[dict, dict]:
        """The saturation phase, then offered rates in ascending order
        until the first failing step.

        The saturation phase, where every batch is full, supplies qps,
        the simulated cost and memory. In the ladder, a step that passes
        delivers its offered rate, so it reads the generator's schedule;
        batches are as large as the host's speed lets requests queue,
        which spread the simulated cost per query 10% across runs; and the
        probe step above the max rate backs up as many requests as the
        host allows, memory the allocator keeps. The ladder supplies p50
        and p99 (from the headline step, which always runs) and
        max_rate_qps. A step fails only when two attempts in a row fail,
        so one stall from outside the program does not cut the ladder
        short.
        """
        before = Counters.read(deployment.server)
        saturation = self.saturate(deployment)
        metrics = {
            "sim_sgx_us_per_query":
                Counters.read(deployment.server).sim_us_since(before),
            "enclave_peak_mb": self._enclave_peak_mb(deployment),
            "rss_peak_mb": rss_peak_mb(),
        }
        metrics["qps"], saturation_windows = saturation.qps()
        attempts: List[Step] = []
        top: Optional[Step] = None  # highest step below the first failure
        failed_at = None
        for rate in self.ladder:
            for _ in range(2):
                gc.collect()
                step = self.step(deployment, rate)
                attempts.append(step)
                if step.passed:
                    break
            if rate == HEADLINE_RATE:
                headline = step.metrics()
                metrics.update(p50_ms=headline["p50_ms"],
                               p99_ms=headline["p99_ms"])
                details = {
                    "repeats": 1, "windows": len(step.windows()),
                    "pooled_samples": headline["samples"],
                    "gen_late_p99_ms": percentile_ms(step.late, 99),
                    "saturation_windows": saturation_windows,
                }
            if not step.passed and failed_at is None:
                failed_at = rate
            if failed_at is None:
                top = step
            elif rate >= HEADLINE_RATE:
                break
        deployment.close()
        # error_rate covers the saturation phase and every step up to the
        # max rate; refusals at the probe step above the max rate are how
        # the ladder finds the limit.
        for s in attempts:
            if top is None or s.rate <= top.rate:
                self.tally.attempted += len(s.due)
                self.tally.failed += s.failures
        metrics["max_rate_qps"] = top.rate if top is not None else 0
        details["ladder"] = [s.summary() for s in attempts]
        return metrics, details

    @staticmethod
    def _enclave_peak_mb(deployment: Deployment) -> float:
        return deployment.server.stats.peak_enclave_memory_bytes / 2**20

    # -- traced pass -----------------------------------------------------
    def traced(self, untraced_p50_ms: float, details: dict,
               results_dir: Optional[Path]) -> dict:
        """A fresh, warmed deployment with one traced pass."""
        deployment, _ = self.deploy()
        self.warm(deployment)
        server = deployment.server
        recorder = spans.SpanRecorder()
        extra: Dict[str, float] = {}
        before = Counters.read(server)
        with spans.Patches(recorder) as patches:
            if self.workload == "mb_open":
                pipeline_before = deployment.scheduler.stats.snapshot()
                step = self.step(deployment, HEADLINE_RATE, recorder)
                pipeline = deployment.scheduler.stats.snapshot()
            elif self.workload == "update_mix":
                repeat = self.update_mix(deployment, recorder)
            else:
                done = self.sequential(deployment, recorder)
        extra["server.embed_hit_ratio"] = (
            Counters.read(server).embed_hit_ratio_since(before))
        deployment.close()
        summary = spans.Summary(recorder, patches.layers)
        if self.workload == "mb_open":
            self.tally.attempted += len(step.due)
            self.tally.failed += step.failures
            queries = len(step.due) - step.failures
            traced_p50 = step.metrics()["p50_ms"]
            extra.update(self._scheduler_layers(
                recorder, step, pipeline_before, pipeline))
            extra["harness.gen_late_p99_ms"] = details["gen_late_p99_ms"]
        else:
            if self.workload == "update_mix":
                latency = repeat.latency
                traced_p50 = update_metrics([repeat])["p50_ms"]
            else:
                latency = done.latency
                traced_p50 = window_metrics(done.windows())["p50_ms"]
            queries = int(np.isfinite(latency).sum())
            extra["trace.coverage"] = spans.sequential_coverage(recorder,
                                                                summary)
        extra["trace.overhead_frac"] = traced_p50 / untraced_p50_ms - 1.0
        layers = spans.layer_metrics(
            summary, queries, spans.hits_inside_ecalls(recorder), extra
        )
        if results_dir is not None:
            spans.write_chrome_trace(
                recorder, patches.layers,
                results_dir / f"trace-{self.workload}.json",
            )
        return {
            "layers": {
                m.name: layers.get(m.name) if spec.applies(m, self.workload)
                else None
                for m in spec.LAYER_METRICS
            },
            "layer_budget_us": spans.layer_budget(summary, queries),
            "traced_queries": queries,
        }

    @staticmethod
    def _scheduler_layers(recorder: spans.SpanRecorder, step: Step,
                          before: dict, after: dict) -> Dict[str, float]:
        submits = [
            span[spans.END]
            for log in recorder.logs for span in log.spans
            if span[spans.NAME] == "MicroBatchScheduler.submit"
            and not step.refused[span[spans.REQUEST]]
        ]
        waits = spans.queue_waits(recorder, submits)
        batches = after["batches"] - before["batches"]
        queries = after["queries"] - before["queries"]
        unique = after["targets_unique"] - before["targets_unique"]
        requested = after["targets_requested"] - before["targets_requested"]
        return {
            "scheduler.queue_wait_us": 1e6 * _median(waits),
            "scheduler.batch_size_mean": queries / batches,
            "scheduler.dedup_fraction": 1.0 - unique / requested,
            "scheduler.ecalls_per_query": batches / queries,
            # the root is the queue wait plus the carrying batch span,
            # both scheduler-layer spans, so all of it is attributed
            "trace.coverage": 1.0,
        }


def run_workload(workload: str, seed: int, seconds: float,
                 trace_run: bool = False, smoke: bool = False,
                 results_dir: Optional[Path] = None) -> dict:
    """Run one workload; returns its full result record."""
    if workload not in spec.WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; "
                         f"choose from {', '.join(spec.WORKLOADS)}")
    run = Run(workload, seed, seconds, smoke, prepare())
    setups = []
    deployment = None
    for _ in range(run.sizes.cold_starts):
        if deployment is not None:
            deployment.close()
        deployment, setup = run.deploy()
        setups.append(setup)
    run.warm(deployment)
    metrics, details = run.measure(deployment)
    metrics["setup_s"] = _median(setups)
    record = {"workload": workload, "seed": seed, "seconds": seconds,
              "smoke": smoke, "details": details}
    if trace_run:
        record.update(run.traced(metrics["p50_ms"], details, results_dir))
    tally = run.tally
    metrics["error_rate"] = tally.failed / max(1, tally.attempted)
    record["metrics"] = {
        m.name: metrics[m.name]
        for m in spec.END_TO_END + spec.WORKLOAD_METRICS
        if spec.applies(m, workload)
    }
    record.update(correct=tally.mismatches == 0, attempted=tally.attempted,
                  failed=tally.failed, errors=tally.errors)
    return record

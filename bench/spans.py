"""Span recording for the traced VaultBench pass.

The benchmark records spans from its own files only: :class:`Patches`
swaps a timing wrapper in for each layer's public entry points (class or
module attributes, in this process only) and restores the originals on
exit. Nothing under ``src/`` knows it is being traced.

A span is ``[name, start, end, parent, request, note]`` on the
``perf_counter`` clock. Each thread appends to its own log and keeps its
own stack, so parents are always on the same thread and spans nest
properly; a span's self time is its duration minus its children's.
"""

from __future__ import annotations

import functools
import json
import math
import sys
import threading
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

NAME, START, END, PARENT, REQUEST, NOTE = range(6)

#: span names of the ECALLs a query can enter
ECALLS = (
    "RectifierEnclave.ecall_infer_nodes",
    "RectifierEnclave.ecall_infer_microbatch",
)
#: the harness's own spans (the roots of sequential requests and updates)
REQUEST_SPAN = "harness.request"
UPDATE_SPAN = "harness.update"
#: the scheduler's per-batch span on the enclave-worker thread
BATCH_SPAN = "MicroBatchScheduler._execute"
#: spans written to trace-<workload>.json (~15 MB); all are analysed
TRACE_FILE_SPANS = 100_000


class _ThreadLog:
    __slots__ = ("thread", "spans", "stack", "request")

    def __init__(self, thread: str) -> None:
        self.thread = thread
        self.spans: List[list] = []
        self.stack: List[int] = []
        self.request = None


class SpanRecorder:
    """Per-thread span logs, kept in memory until the run ends."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self.logs: List[_ThreadLog] = []

    def log(self) -> _ThreadLog:
        log = getattr(self._local, "log", None)
        if log is None:
            log = _ThreadLog(threading.current_thread().name)
            self._local.log = log
            with self._lock:
                self.logs.append(log)
        return log

    def set_request(self, request) -> None:
        """Tag every span this thread opens from now on with ``request``."""
        self.log().request = request

    def wrap(self, name: str, fn: Callable,
             note: Optional[Callable] = None) -> Callable:
        """``fn`` recording one span per call; ``note(args, result)``
        stores a number (bytes, rows, batch size) on the span."""
        log_of = self.log
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            log = log_of()
            stack = log.stack
            span = [name, 0.0, 0.0, stack[-1] if stack else -1,
                    log.request, None]
            stack.append(len(log.spans))
            log.spans.append(span)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if note is not None:
                span[NOTE] = note(args, result)
            return result

        return traced


# ----------------------------------------------------------------------
# What gets wrapped
# ----------------------------------------------------------------------

def _rows(args, _result):
    return args[1][0].shape[0]


def _batch_size(args, _result):
    return len(args[1].requests)


def _blob_in(args, _result):
    return args[0].num_bytes


def _blob_out(_args, result):
    return result.num_bytes


def _returned(_args, result):
    return result


#: (layer, module, class or None for a module function, attrs, note)
TARGETS = (
    ("deploy.server", "repro.deploy.server", "VaultServer",
     ("query_batch", "flush_health", "add_node", "_complete_microbatch"), None),
    ("deploy.scheduler", "repro.deploy.scheduler", "MicroBatchScheduler",
     ("submit",), None),
    ("deploy.scheduler", "repro.deploy.scheduler", "MicroBatchScheduler",
     ("_execute",), _batch_size),
    ("deploy.inference", "repro.deploy.inference", "SecureInferenceSession",
     ("predict_nodes_precomputed", "predict_microbatch_precomputed", "embed",
      "add_node"), None),
    ("tee.channel", "repro.tee.channel", "OneWayChannel",
     ("push", "push_coalesced"), _returned),
    ("tee.channel", "repro.tee.channel", "OneWayChannel", ("collect",), None),
    ("tee.enclave", "repro.tee.enclave", "RectifierEnclave",
     ("ecall_infer_nodes", "ecall_infer_microbatch",
      "provision_graph_update", "seal_snapshot"), None),
    # the enclave imported extract_subgraph by name: patch that name
    ("graph.subgraph", "repro.tee.enclave", None, ("extract_subgraph",), None),
    ("graph.subgraph", "repro.graph.subgraph", "Subgraph",
     ("normalized_adjacency", "lift_labels"), None),
    ("deploy.resilience", "repro.deploy.resilience", "EnclaveSupervisor",
     ("snapshot_now", "call_with_retry"), None),
    ("obs", "repro.obs.tracing", "Tracer", ("open_record", "close_record"),
     None),
    ("obs", "repro.obs.audit", "AuditLog", ("append",), None),
    ("obs", "repro.obs.health", "HealthMonitor", ("observe_batch",), None),
    ("obs", "repro.obs.patterns", "QueryPatternMonitor", ("observe",), None),
    ("obs", "repro.obs.tenancy", "TenantCostLedger",
     ("defer_batch", "tenant_id"), None),
    ("obs", "repro.obs.logging", "StructuredLogger", ("emit", "mint"), None),
    ("obs", "repro.obs.profiling", "PipelineProfiler",
     ("record", "record_sequential"), None),
    ("obs", "repro.obs.profiling", None, ("enclave_cost_record",), None),
    ("obs", "repro.obs.redaction", "EnclaveTelemetryGate",
     ("record_ecall", "inc", "audit"), None),
)


class Patches:
    """Context manager installing the wrappers; restores them on exit."""

    def __init__(self, recorder: SpanRecorder) -> None:
        self.recorder = recorder
        self.layers: Dict[str, str] = {
            REQUEST_SPAN: "harness", UPDATE_SPAN: "harness",
        }
        self._undo: List[tuple] = []

    def _patch(self, owner, attr: str, name: str, layer: str,
               note=None) -> None:
        original = (owner.__dict__[attr] if isinstance(owner, type)
                    else getattr(owner, attr))
        self._undo.append((owner, attr, original))
        setattr(owner, attr, self.recorder.wrap(name, original, note))
        self.layers[name] = layer

    def __enter__(self) -> "Patches":
        import importlib

        from repro.models.rectifier import Rectifier
        from repro.tee import sealed

        for layer, module_name, class_name, attrs, note in TARGETS:
            module = importlib.import_module(module_name)
            owner = module if class_name is None else getattr(module, class_name)
            for attr in attrs:
                name = attr if class_name is None else f"{class_name}.{attr}"
                self._patch(owner, attr, name, layer, note)
        # forward_with_intermediates is overridden per scheme, so patch
        # every class that defines it (patching the base records nothing
        # for SeriesRectifier).
        pending = [Rectifier]
        while pending:
            cls = pending.pop()
            pending.extend(cls.__subclasses__())
            if "forward_with_intermediates" in cls.__dict__:
                self._patch(cls, "forward_with_intermediates",
                            f"{cls.__name__}.forward_with_intermediates",
                            "models.rectifier", _rows)
        # seal/unseal were imported by name into several modules.
        for attr, note in (("seal", _blob_out), ("unseal", _blob_in)):
            original = getattr(sealed, attr)
            for module in [m for n, m in list(sys.modules.items())
                           if n.startswith("repro") and m is not None]:
                if module.__dict__.get(attr) is original:
                    self._patch(module, attr, attr, "tee.sealed", note)
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()


# ----------------------------------------------------------------------
# Analysis
# ----------------------------------------------------------------------

def self_times(spans: Sequence[list]) -> List[float]:
    """Duration minus children's durations (children nest on one thread)."""
    own = [span[END] - span[START] for span in spans]
    for span in spans:
        if span[PARENT] >= 0:
            own[span[PARENT]] -= span[END] - span[START]
    return own


class Summary:
    """Per-name span aggregates of a traced pass."""

    def __init__(self, recorder: SpanRecorder, layers: Dict[str, str]) -> None:
        self.count: Dict[str, int] = {}
        self.total: Dict[str, float] = {}
        self.own: Dict[str, float] = {}
        self.note: Dict[str, float] = {}
        self.layer_own: Dict[str, float] = {}
        self.self_by_log: List[List[float]] = []
        for log in recorder.logs:
            own = self_times(log.spans)
            self.self_by_log.append(own)
            for span, self_time in zip(log.spans, own):
                name = span[NAME]
                self.count[name] = self.count.get(name, 0) + 1
                self.total[name] = (self.total.get(name, 0.0)
                                    + span[END] - span[START])
                self.own[name] = self.own.get(name, 0.0) + self_time
                if span[NOTE] is not None:
                    self.note[name] = self.note.get(name, 0.0) + span[NOTE]
                layer = layers[name]
                self.layer_own[layer] = (self.layer_own.get(layer, 0.0)
                                         + self_time)

    def calls(self, *names: str) -> int:
        return sum(self.count.get(n, 0) for n in names)

    def own_of(self, *names: str) -> float:
        return sum(self.own.get(n, 0.0) for n in names)

    def total_of(self, *names: str) -> float:
        return sum(self.total.get(n, 0.0) for n in names)

    def mean(self, *names: str, scale: float = 1e6) -> Optional[float]:
        calls = self.calls(*names)
        return scale * self.total_of(*names) / calls if calls else None

    def names_in(self, prefix: str) -> List[str]:
        return [n for n in self.count if n.startswith(prefix)]


def _per_query(value: float, queries: int, scale: float = 1e6) -> float:
    return scale * value / queries


def sequential_coverage(recorder: SpanRecorder,
                        summary: Summary) -> float:
    """Layer self time over request time, summed over request spans."""
    covered = root = 0.0
    for log, own in zip(recorder.logs, summary.self_by_log):
        for span, self_time in zip(log.spans, own):
            if span[NAME] == REQUEST_SPAN:
                duration = span[END] - span[START]
                root += duration
                covered += duration - self_time
    return covered / root if root else float("nan")


def queue_waits(recorder: SpanRecorder,
                submits: Sequence[float]) -> List[float]:
    """Per admitted request: end of its submit to start of its batch span.

    ``submits`` are the ends of the admitted requests' submit spans, in
    submission order. Batches form FIFO from the admission queue, so the
    k-th batch span carries the next ``size`` requests by cumulative
    count (its note is the batch size).
    """
    batches = sorted(
        (span for log in recorder.logs for span in log.spans
         if span[NAME] == BATCH_SPAN),
        key=lambda span: span[START],
    )
    waits: List[float] = []
    for span in batches:
        for end_of_submit in submits[len(waits):len(waits) + span[NOTE]]:
            waits.append(max(0.0, span[START] - end_of_submit))
    if len(waits) != len(submits):
        raise RuntimeError(
            f"{len(submits)} requests admitted but batch spans carry "
            f"{len(waits)}"
        )
    return waits


def layer_metrics(summary: Summary, queries: int, ecalls_hit: int,
                  extra: Dict[str, float]) -> Dict[str, Optional[float]]:
    """Every per-layer metric of :data:`bench.spec.LAYER_METRICS`.

    ``extra`` carries the numbers that come from the program's own
    counters (ServerStats, PipelineStats) or from the harness; a metric
    whose layer did not run is ``None``.
    """
    s = summary
    ecalls = s.calls(*ECALLS)
    sealed_calls = s.calls("seal", "unseal")
    forwards = [n for n in s.count if n.endswith("forward_with_intermediates")]
    metrics = {
        "server.self_us": _per_query(
            s.own_of("VaultServer.query_batch",
                     "VaultServer._complete_microbatch"), queries),
        "server.flush_health_us": _per_query(
            s.own_of("VaultServer.flush_health"), queries),
        "server.add_node_ms": s.mean("VaultServer.add_node", scale=1e3),
        "scheduler.submit_us": s.mean("MicroBatchScheduler.submit"),
        "session.self_us": _per_query(s.own_of(
            "SecureInferenceSession.predict_nodes_precomputed",
            "SecureInferenceSession.predict_microbatch_precomputed",
            "SecureInferenceSession.embed"), queries),
        "session.embed_ms": s.mean("SecureInferenceSession.embed", scale=1e3),
        "session.embed_calls": s.calls("SecureInferenceSession.embed"),
        "channel.push_us": _per_query(s.total_of(
            "OneWayChannel.push", "OneWayChannel.push_coalesced"), queries),
        "channel.collect_us": _per_query(
            s.total_of("OneWayChannel.collect"), queries),
        "channel.bytes_per_query": (
            s.note.get("OneWayChannel.push", 0.0)
            + s.note.get("OneWayChannel.push_coalesced", 0.0)) / queries,
        "enclave.ecall_self_us": _per_query(s.own_of(*ECALLS), queries),
        "enclave.plan_hit_ratio": ecalls_hit / ecalls if ecalls else None,
        "enclave.ecalls": ecalls,
        "subgraph.extract_us": s.mean("extract_subgraph"),
        "subgraph.normalize_us": s.mean("Subgraph.normalized_adjacency"),
        "subgraph.calls_per_query": s.calls("extract_subgraph") / queries,
        "rectifier.forward_us": s.mean(*forwards),
        "rectifier.rows_per_call": (
            sum(s.note.get(n, 0.0) for n in forwards) / s.calls(*forwards)
            if s.calls(*forwards) else None),
        "sealed.seal_ms": s.mean("seal", scale=1e3),
        "sealed.unseal_ms": s.mean("unseal", scale=1e3),
        "sealed.calls": sealed_calls,
        "sealed.kb_per_call": (
            (s.note.get("seal", 0.0) + s.note.get("unseal", 0.0))
            / 1024.0 / sealed_calls if sealed_calls else None),
        "supervisor.snapshot_ms": s.mean("EnclaveSupervisor.snapshot_now",
                                         scale=1e3),
        "supervisor.snapshots_per_1k_queries": (
            1e3 * s.calls("EnclaveSupervisor.snapshot_now") / queries),
        "supervisor.self_us": (
            _per_query(s.own_of("EnclaveSupervisor.call_with_retry"), queries)
            if s.calls("EnclaveSupervisor.call_with_retry") else None),
        "obs.tracer_us": _per_query(
            s.own_of("Tracer.open_record", "Tracer.close_record"), queries),
        "obs.audit_us": _per_query(s.own_of("AuditLog.append"), queries),
        "obs.health_us": _per_query(
            s.own_of("HealthMonitor.observe_batch"), queries),
        "obs.patterns_us": _per_query(
            s.own_of("QueryPatternMonitor.observe"), queries),
        "obs.gate_us": _per_query(
            s.own_of(*s.names_in("EnclaveTelemetryGate.")), queries),
        "obs.tenancy_us": _per_query(
            s.own_of(*s.names_in("TenantCostLedger.")), queries),
        "obs.logger_us": _per_query(
            s.own_of(*s.names_in("StructuredLogger.")), queries),
        "obs.profiler_us": _per_query(
            s.own_of(*s.names_in("PipelineProfiler."),
                     "enclave_cost_record"), queries),
    }
    metrics.update(extra)
    return metrics


def hits_inside_ecalls(recorder: SpanRecorder) -> int:
    """ECALLs that did not extract a subgraph, i.e. plan-cache hits."""
    hits = 0
    for log in recorder.logs:
        spans = log.spans
        missed = {span[PARENT] for span in spans
                  if span[NAME] == "extract_subgraph"}
        hits += sum(1 for index, span in enumerate(spans)
                    if span[NAME] in ECALLS and index not in missed)
    return hits


def layer_budget(summary: Summary, queries: int) -> Dict[str, float]:
    """Self time per layer in microseconds per query (sums to the total)."""
    return {layer: round(_per_query(own, queries), 3)
            for layer, own in sorted(summary.layer_own.items())}


def write_chrome_trace(recorder: SpanRecorder, layers: Dict[str, str],
                       path: Path) -> None:
    """The earliest :data:`TRACE_FILE_SPANS` spans as Chrome trace JSON.

    Cutting by start time keeps every written span's parent in the file
    (a parent starts before its children). Open in ``chrome://tracing``
    or Perfetto.
    """
    starts = sorted(span[START] for log in recorder.logs for span in log.spans)
    if not starts:
        return
    origin = starts[0]
    cutoff = (starts[TRACE_FILE_SPANS] if len(starts) > TRACE_FILE_SPANS
              else math.inf)
    events: List[dict] = []
    for tid, log in enumerate(recorder.logs):
        events.append({"name": "thread_name", "ph": "M", "pid": 1,
                       "tid": tid, "args": {"name": log.thread}})
        for index, span in enumerate(log.spans):
            if span[START] >= cutoff:
                continue
            args = {"span": index, "parent": span[PARENT],
                    "request": span[REQUEST]}
            if span[NOTE] is not None:
                args["note"] = span[NOTE]
            events.append({
                "name": span[NAME], "cat": layers[span[NAME]], "ph": "X",
                "pid": 1, "tid": tid,
                "ts": round((span[START] - origin) * 1e6, 3),
                "dur": round((span[END] - span[START]) * 1e6, 3),
                "args": args,
            })
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"traceEvents": events},
                               separators=(",", ":")))

"""What VaultBench measures: workloads, metrics, bounds and the layer map.

This module is the single source for every table the benchmark uses.
``BENCHMARK.json`` at the repository root is :func:`benchmark_json`
rendered once; ``bench/test_bench.py`` fails when the two drift apart.

``BENCHMARK.json`` can only carry metrics that every workload produces
and that never read zero, so two groups of end-to-end metrics exist:

* :data:`END_TO_END` - measured on all four workloads (in the JSON);
* :data:`WORKLOAD_METRICS` - measured on some workloads only, or zero by
  design (``error_rate``); printed by ``python -m bench run`` and judged
  by ``python -m bench compare`` with the bounds given here.

Layer metrics measured on all four workloads go into the JSON's
``per_layer`` list; the rest are printed by ``python -m bench run --trace``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

#: seconds one run measures (BENCHMARK.json ``run_seconds``)
RUN_SECONDS = 10

#: workload name -> why it is in the benchmark (one line each)
WORKLOADS: Dict[str, str] = {
    "seq_hot": (
        "closed loop, Zipf queries whose hot set fits the plan cache: "
        "per-query fixed cost (forward pass, ECALL body, observers) dominates"
    ),
    "seq_cold": (
        "closed loop, uniform queries over 3.25x the plan cache: most queries "
        "miss, so subgraph extraction and normalisation dominate"
    ),
    "mb_open": (
        "open loop, Poisson arrivals from 8 tenants through the micro-batch "
        "scheduler: the only load where admission, coalescing and queueing matter"
    ),
    "update_mix": (
        "closed loop with an add_node every 50 queries and a supervisor: "
        "re-embedding and sealed snapshots, which no other workload runs"
    ),
}
ALL: Tuple[str, ...] = tuple(WORKLOADS)


@dataclass(frozen=True)
class Metric:
    """One reported number: name, unit, direction, bound and scope."""

    name: str
    unit: str
    better: str  # "lower" or "higher"
    definition: str
    workloads: Tuple[str, ...] = ALL
    #: share of the parent's median by which the metric may get worse
    #: before a change counts as a regression (end-to-end metrics only)
    bound: float = 0.0
    #: layer metrics: the repository module the number comes from
    layer: str = ""
    #: layer metrics: the end-to-end (metric, workload) pairs it should move
    moves: str = ""
    #: True for numbers from SgxCostModel or the simulated EPC, not a clock
    simulated: bool = False


END_TO_END: Tuple[Metric, ...] = (
    Metric(
        "setup_s", "s", "lower", bound=0.25,
        definition="device cold start: attest, unseal, provision, build the "
        "server, observers and supervisor, return the first answer; median "
        "of 5 cold starts",
    ),
    Metric(
        "qps", "1/s", "higher", bound=0.25,
        definition="completed queries per wall second: the fastest eighth "
        "of 250-query windows, pooled (seq_*), the whole pass "
        "(update_mix); on mb_open the scheduler's capacity, the fastest "
        "eighth of 500-completion windows with 64 requests in flight",
    ),
    Metric(
        "p50_ms", "ms", "lower", bound=0.25,
        definition="query latency median of the run's fastest eighth of "
        "windows, pooled: 250 queries (seq_*), 0.1 s of arrivals at the "
        "headline step (mb_open), one 50-query round (update_mix); "
        "closed loop: call to return, open loop: due time to answer",
    ),
    Metric(
        "p99_ms", "ms", "lower", bound=0.25,
        definition="99th percentile of the same pool (update_mix: its "
        "whole pass); at least 1000 samples behind it",
    ),
    Metric(
        "sim_sgx_us_per_query", "us", "lower", bound=0.15, simulated=True,
        definition="ServerStats.total_seconds per query served in the "
        "measured phase (mb_open: its saturation phase), from SgxCostModel",
    ),
    Metric(
        "enclave_peak_mb", "MB", "lower", bound=0.25, simulated=True,
        definition="ServerStats.peak_enclave_memory_bytes (simulated EPC) "
        "after the run (mb_open: after its saturation phase)",
    ),
    Metric(
        "rss_peak_mb", "MB", "lower", bound=0.15,
        definition="peak resident set of the workload process over the "
        "measured pass (mb_open: its saturation phase); the high-water "
        "mark restarts after training, oracle, cold starts and warm-up",
    ),
)

WORKLOAD_METRICS: Tuple[Metric, ...] = (
    Metric(
        "update_p50_ms", "ms", "lower", bound=0.25, workloads=("update_mix",),
        definition="from the add_node call to the first answer after it; "
        "the re-embed and the re-snapshot land here",
    ),
    Metric(
        "max_rate_qps", "1/s", "higher", bound=0.20, workloads=("mb_open",),
        definition="highest ladder step below the first failed step "
        "(nominal offered rate)",
    ),
    Metric(
        "error_rate", "fraction", "lower", bound=0.0,
        definition="failed over attempted; failures are exceptions, "
        "refusals, timeouts and oracle mismatches; on mb_open the "
        "saturation phase and every step up to the max rate",
    ),
)


def _layer(name, unit, better, layer, definition, moves, workloads=ALL):
    return Metric(name, unit, better, definition, workloads=workloads,
                  layer=layer, moves=moves)


_MB = ("mb_open",)
_UPD = ("update_mix",)

LAYER_METRICS: Tuple[Metric, ...] = (
    _layer("server.self_us", "us", "lower", "deploy.server",
           "self time of VaultServer.query_batch and _complete_microbatch "
           "per query", "p50_ms on seq_hot"),
    _layer("server.flush_health_us", "us", "lower", "deploy.server",
           "self time of VaultServer.flush_health per query",
           "p50_ms on seq_hot"),
    _layer("server.add_node_ms", "ms", "lower", "deploy.server",
           "duration of VaultServer.add_node per call",
           "update_p50_ms on update_mix", workloads=_UPD),
    _layer("server.embed_hit_ratio", "ratio", "higher", "deploy.server",
           "ServerStats embedding-cache hits over lookups",
           "update_p50_ms on update_mix"),
    _layer("scheduler.submit_us", "us", "lower", "deploy.scheduler",
           "duration of MicroBatchScheduler.submit per call",
           "p50_ms and max_rate_qps on mb_open", workloads=_MB),
    _layer("scheduler.queue_wait_us", "us", "lower", "deploy.scheduler",
           "p50 of end of submit to start of the carrying batch span",
           "p50_ms and max_rate_qps on mb_open", workloads=_MB),
    _layer("scheduler.batch_size_mean", "queries", "higher",
           "deploy.scheduler", "PipelineStats queries per batch",
           "max_rate_qps on mb_open (bigger batches also lengthen the queue wait)",
           workloads=_MB),
    _layer("scheduler.dedup_fraction", "ratio", "higher", "deploy.scheduler",
           "PipelineStats share of targets answered from a batch-mate's plan",
           "max_rate_qps on mb_open", workloads=_MB),
    _layer("scheduler.ecalls_per_query", "ratio", "lower", "deploy.scheduler",
           "PipelineStats batches per query", "max_rate_qps on mb_open",
           workloads=_MB),
    _layer("session.self_us", "us", "lower", "deploy.inference",
           "self time of predict_nodes_precomputed, "
           "predict_microbatch_precomputed and embed per query",
           "p50_ms on seq_hot"),
    _layer("session.embed_ms", "ms", "lower", "deploy.inference",
           "duration of SecureInferenceSession.embed per call",
           "update_p50_ms on update_mix", workloads=_UPD),
    _layer("session.embed_calls", "count", "lower", "deploy.inference",
           "SecureInferenceSession.embed calls", "update_p50_ms on update_mix"),
    _layer("channel.push_us", "us", "lower", "tee.channel",
           "duration of OneWayChannel.push and push_coalesced per query",
           "p50_ms on seq_hot"),
    _layer("channel.collect_us", "us", "lower", "tee.channel",
           "duration of OneWayChannel.collect per query", "p50_ms on seq_hot"),
    _layer("channel.bytes_per_query", "B", "lower", "tee.channel",
           "bytes staged through the one-way channel per query",
           "sim_sgx_us_per_query on all workloads"),
    _layer("enclave.ecall_self_us", "us", "lower", "tee.enclave",
           "self time of ecall_infer_nodes and ecall_infer_microbatch per "
           "query: drain, validate, gather, EPC accounting, argmax",
           "p50_ms on seq_hot; qps on seq_cold"),
    _layer("enclave.plan_hit_ratio", "ratio", "higher", "tee.enclave",
           "ECALLs that found their receptive-field plan cached",
           "qps on seq_cold; p99_ms on seq_hot"),
    _layer("enclave.ecalls", "count", "lower", "tee.enclave",
           "ECALLs in the traced phase", "max_rate_qps on mb_open"),
    _layer("subgraph.extract_us", "us", "lower", "graph.subgraph",
           "duration of extract_subgraph per call",
           "qps and p50_ms on seq_cold; p99_ms on seq_hot"),
    _layer("subgraph.normalize_us", "us", "lower", "graph.subgraph",
           "duration of Subgraph.normalized_adjacency per call",
           "qps and p50_ms on seq_cold; p99_ms on seq_hot"),
    _layer("subgraph.calls_per_query", "ratio", "lower", "graph.subgraph",
           "extract_subgraph calls per query", "qps on seq_cold"),
    _layer("rectifier.forward_us", "us", "lower", "models.rectifier",
           "duration of forward_with_intermediates per call",
           "p50_ms on seq_hot; max_rate_qps on mb_open"),
    _layer("rectifier.rows_per_call", "rows", "lower", "models.rectifier",
           "input rows (receptive-field nodes) per forward call",
           "p50_ms on seq_cold; max_rate_qps on mb_open"),
    _layer("sealed.seal_ms", "ms", "lower", "tee.sealed",
           "duration of seal per call",
           "qps, p99_ms and update_p50_ms on update_mix", workloads=_UPD),
    _layer("sealed.unseal_ms", "ms", "lower", "tee.sealed",
           "duration of unseal per call",
           "update_p50_ms on update_mix; setup_s on all", workloads=_UPD),
    _layer("sealed.calls", "count", "lower", "tee.sealed",
           "seal and unseal calls in the traced phase",
           "qps and p99_ms on update_mix"),
    _layer("sealed.kb_per_call", "KB", "lower", "tee.sealed",
           "sealed blob size per seal or unseal call",
           "qps and p99_ms on update_mix", workloads=_UPD),
    _layer("supervisor.snapshot_ms", "ms", "lower", "deploy.resilience",
           "duration of EnclaveSupervisor.snapshot_now per call",
           "qps and p99_ms on update_mix", workloads=_UPD),
    _layer("supervisor.snapshots_per_1k_queries", "count", "lower",
           "deploy.resilience", "snapshot_now calls per 1000 queries",
           "qps and p99_ms on update_mix"),
    _layer("supervisor.self_us", "us", "lower", "deploy.resilience",
           "self time of EnclaveSupervisor.call_with_retry per query",
           "qps on update_mix", workloads=_UPD),
    _layer("obs.tracer_us", "us", "lower", "obs",
           "Tracer.open_record and close_record per query",
           "p50_ms on seq_hot"),
    _layer("obs.audit_us", "us", "lower", "obs",
           "AuditLog.append per query", "p50_ms on seq_hot"),
    _layer("obs.health_us", "us", "lower", "obs",
           "HealthMonitor.observe_batch per query", "p50_ms on seq_hot"),
    _layer("obs.patterns_us", "us", "lower", "obs",
           "QueryPatternMonitor.observe per query", "p50_ms on seq_hot"),
    _layer("obs.gate_us", "us", "lower", "obs",
           "EnclaveTelemetryGate record_ecall, inc and audit per query",
           "p50_ms on seq_hot"),
    _layer("obs.tenancy_us", "us", "lower", "obs",
           "TenantCostLedger.defer_batch and tenant_id per query",
           "max_rate_qps on mb_open", workloads=_MB),
    _layer("obs.logger_us", "us", "lower", "obs",
           "StructuredLogger.emit and mint per query", "max_rate_qps on mb_open",
           workloads=_MB),
    _layer("obs.profiler_us", "us", "lower", "obs",
           "PipelineProfiler.record, record_sequential and "
           "enclave_cost_record per query", "max_rate_qps on mb_open", workloads=_MB),
    _layer("harness.gen_late_p99_ms", "ms", "lower", "harness",
           "p99 of how late the open-loop generator sent, headline step",
           "none; validates the run", workloads=_MB),
    _layer("trace.overhead_frac", "ratio", "lower", "harness",
           "traced p50 over untraced p50, minus one",
           "none; validates the run"),
    _layer("trace.coverage", "ratio", "higher", "harness",
           "share of each request's root span covered by layer self times",
           "none; validates the run"),
)


def applies(metric: Metric, workload: str) -> bool:
    return workload in metric.workloads


def by_name() -> Dict[str, Metric]:
    return {m.name: m for m in END_TO_END + WORKLOAD_METRICS + LAYER_METRICS}


def benchmark_json() -> dict:
    """The ``BENCHMARK.json`` contents this spec implies."""
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS.items()],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better,
             "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better}
            for m in LAYER_METRICS if m.workloads == ALL
        ],
    }


def benchmark_layer_names() -> List[str]:
    """Layer metrics printed on the last line of a ``--trace 1`` run."""
    return [m.name for m in LAYER_METRICS if m.workloads == ALL]

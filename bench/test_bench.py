"""VaultBench self-test: ``PYTHONPATH=src python -m pytest bench -q``.

Runs every workload at ``--smoke`` sizes through the real command line
(traced, so both metric sets print) and checks the benchmark's own
contract: metric names and units, seeded inputs, the oracle, and span
nesting. It sits outside the tier-1 ``testpaths``.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from bench import spans, spec, workloads

ROOT = Path(__file__).resolve().parents[1]
NAME = re.compile(r"^[A-Za-z0-9_.-]+$")


@pytest.fixture(scope="module")
def smoke_run(tmp_path_factory):
    results = tmp_path_factory.mktemp("results")
    proc = subprocess.run(
        [sys.executable, "-m", "bench", "run", "--smoke", "--trace",
         "--seed", "0", "--results", str(results)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-4000:]
    return proc.stdout, results


def test_benchmark_json_matches_spec():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert declared == spec.benchmark_json()


def test_names_are_valid_and_unique():
    names = list(spec.WORKLOADS) + list(spec.by_name())
    assert all(NAME.match(name) for name in names), names
    declared = spec.END_TO_END + spec.WORKLOAD_METRICS + spec.LAYER_METRICS
    assert len(declared) == len(spec.by_name())
    assert "setup_s" in [m.name for m in spec.END_TO_END]


def test_every_metric_prints_with_its_unit(smoke_run):
    stdout, results = smoke_run
    for workload in spec.WORKLOADS:
        for metric in spec.END_TO_END + spec.WORKLOAD_METRICS + spec.LAYER_METRICS:
            if not spec.applies(metric, workload):
                continue
            line = re.compile(
                rf"^\s+{workload}\s+{re.escape(metric.name)}\s+\S+\s+"
                rf"{re.escape(metric.unit)}(\s+#.*)?$", re.M,
            )
            assert line.search(stdout), (workload, metric.name)
    record = json.loads(next(results.glob("*-0.json")).read_text())
    assert all(r["correct"] and r["failed"] == 0
               for r in record["workloads"].values())


def test_last_line_has_exactly_the_declared_metrics(tmp_path):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "seq_hot", "--seed",
         "1", "--seconds", "0.5", "--trace", "0", "--smoke", "--results",
         str(tmp_path)],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-4000:]
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["attempted"] >= 1
    assert {name: m["unit"] for name, m in last["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared["end_to_end"]
    }
    assert all(m["value"] > 0 for m in last["metrics"].values())


@pytest.mark.parametrize("workload", list(spec.WORKLOADS))
def test_inputs_depend_on_the_seed_only(workload):
    def inputs(seed):
        return workloads.make_inputs(workload, seed, 832, 1.0, smoke=True)

    first, again, other = inputs(3), inputs(3), inputs(4)
    assert first.keys() == again.keys() == other.keys()
    for key in first:
        np.testing.assert_array_equal(first[key], again[key])
    assert any(
        first[key].shape != other[key].shape
        or not np.array_equal(first[key], other[key])
        for key in first
    )


def test_a_wrong_label_is_caught(monkeypatch):
    from repro.deploy import SecureInferenceSession

    honest = SecureInferenceSession.predict_nodes_precomputed

    def off_by_one(self, *args, **kwargs):
        labels, profile = honest(self, *args, **kwargs)
        return labels + 1, profile

    monkeypatch.setattr(SecureInferenceSession, "predict_nodes_precomputed",
                        off_by_one)
    record = workloads.run_workload("seq_hot", 0, 0.2, smoke=True)
    assert not record["correct"]
    assert record["failed"] > 0 and record["metrics"]["error_rate"] > 0


def test_spans_nest(smoke_run):
    _, results = smoke_run
    for workload in spec.WORKLOADS:
        trace = json.loads((results / f"trace-{workload}.json").read_text())
        by_thread = {}
        for event in trace["traceEvents"]:
            if event["ph"] == "X":
                by_thread.setdefault(event["tid"], {})[
                    event["args"]["span"]] = event
        assert by_thread, workload
        for events in by_thread.values():
            children = {}
            for event in events.values():
                parent = event["args"]["parent"]
                if parent < 0:
                    continue
                outer = events[parent]
                # timestamps are rounded to the nanosecond
                assert outer["ts"] <= event["ts"] + 1e-3
                assert (event["ts"] + event["dur"]
                        <= outer["ts"] + outer["dur"] + 2e-3)
                children[parent] = children.get(parent, 0.0) + event["dur"]
            for index, spent in children.items():
                assert events[index]["dur"] - spent >= -5e-3


def test_compare_verdicts():
    from bench.compare import judge, verdict

    p50 = spec.by_name()["p50_ms"]
    parent = [1.00, 1.02, 0.98, 1.01, 0.99] * 2
    assert verdict(p50, parent, parent)[0] == "no worse"
    assert verdict(p50, parent, [v * 1.4 for v in parent])[0] == "regressed"
    assert verdict(p50, parent, [v * 0.8 for v in parent])[0] == "improved"
    # five wins in five is not enough evidence for a gain
    assert verdict(p50, parent[:5], [v * 0.8 for v in parent[:5]])[0] == (
        "no worse")
    assert verdict(p50, parent, [0.5, 2.0] * 5)[0] == "unresolved"
    errors = spec.by_name()["error_rate"]
    assert verdict(errors, [0.0] * 10, [0.01] * 10)[0] == "regressed"
    # a zero bound admits no new failures, however spread the runs are
    occasional = [0.0, 0.001, 0.002, 0.001, 0.0]
    assert verdict(errors, [0.0] * 5, occasional)[0] == "regressed"
    assert verdict(errors, [0.0] * 5, [0.0, 0.0, 0.0, 0.0, 0.001])[0] == (
        "regressed")
    assert verdict(errors, occasional, [0.0] * 5)[0] == "no worse"
    # a gain does not count when more operations failed
    faster = [v * 0.8 for v in parent]
    verdicts = judge({"p50_ms": (parent, faster),
                      "error_rate": ([0.0] * 10, [0.0] * 9 + [0.01])})
    assert verdicts["p50_ms"][0] == "no worse"
    assert verdicts["error_rate"][0] == "regressed"
    assert judge({"p50_ms": (parent, faster),
                  "error_rate": ([0.0] * 10, [0.0] * 10)})["p50_ms"][0] == (
        "improved")


def test_self_time_excludes_children():
    recorder = spans.SpanRecorder()

    def inner():
        return sum(range(1000))

    traced_inner = recorder.wrap("inner", inner)
    outer = recorder.wrap("outer", lambda: traced_inner() + traced_inner())
    outer()
    (log,) = recorder.logs
    own = spans.self_times(log.spans)
    outer_span = log.spans[0]
    children = [s for s in log.spans if s[spans.PARENT] == 0]
    assert [s[spans.NAME] for s in children] == ["inner", "inner"]
    assert own[0] == pytest.approx(
        outer_span[spans.END] - outer_span[spans.START]
        - sum(s[spans.END] - s[spans.START] for s in children)
    )
    assert all(value >= 0 for value in own)

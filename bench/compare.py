"""Judge a change against its parent from two sets of VaultBench runs.

    python -m bench compare --parent DIR --change DIR

Each directory holds run records written by ``python -m bench run`` (one
``<sha>-<seed>.json`` per seed), measured with identical benchmark code
and settings. Runs pair by seed when both sides used the same seeds, and
by position otherwise. One row per (end-to-end metric, workload) shows
each side's median and quartiles, the change's win fraction, and one of
these verdicts:

* ``improved`` - at least ten pairs were run, the change wins at least 9
  in 10 of them (ties count for neither), and the medians differ by more
  than the distance between the parent's quartiles; with fewer pairs,
  five wins in five happen by chance for one continuous metric in 32.
  A gain does not count on a workload whose ``error_rate`` regressed;
* ``unresolved`` - the run-to-run spread (quartile distance over median,
  either side) is wider than the metric's bound, unless every change run
  reads better than every parent run;
* ``regressed`` - the change's median is worse than the parent's by more
  than the bound, as a share of the parent's median; for a metric with a
  bound of 0 (``error_rate``), a median or a worst run worse than the
  parent's at all, whatever the spread;
* ``no worse`` - otherwise.

Bounds come from ``bench/spec.py``, which ``BENCHMARK.json`` mirrors.
Exits 1 when any row regressed.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

from . import spec

WIN_SHARE = 0.9
MIN_PAIRS = 10


def add_arguments(parser) -> None:
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)


def load(directory: Path) -> Dict[int, dict]:
    """Run records by seed (``*.json`` files holding a ``workloads`` key)."""
    runs = {}
    for path in sorted(directory.glob("*.json")):
        record = json.loads(path.read_text())
        if "workloads" in record:
            runs[record["seed"]] = record
    if not runs:
        raise SystemExit(f"no run records in {directory}")
    return runs


def pair(parent: Dict[int, dict],
         change: Dict[int, dict]) -> List[Tuple[dict, dict]]:
    if set(parent) == set(change):
        return [(parent[seed], change[seed]) for seed in sorted(parent)]
    return list(zip((parent[s] for s in sorted(parent)),
                    (change[s] for s in sorted(change))))


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(metric: spec.Metric, parent: Sequence[float],
            change: Sequence[float]) -> Tuple[str, float]:
    """``(verdict, win fraction)`` for paired samples of one metric."""
    worse = 1.0 if metric.better == "lower" else -1.0
    wins = sum(1 for p, c in zip(parent, change) if worse * (c - p) < 0)
    win_share = wins / len(parent)
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    if metric.bound == 0:
        # No worsening is allowed, whatever the spread: a median or a
        # worst run beyond the parent's is a regression.
        worst = max if metric.better == "lower" else min
        if (worse * (cm - pm) > 0
                or worse * (worst(change) - worst(parent)) > 0):
            return "regressed", win_share
    if (len(parent) >= MIN_PAIRS and win_share >= WIN_SHARE
            and abs(cm - pm) > p3 - p1):
        return "improved", win_share
    if metric.bound == 0:
        return "no worse", win_share
    spread = max((p3 - p1) / abs(pm) if pm else 0.0,
                 (c3 - c1) / abs(cm) if cm else 0.0)
    if spread > metric.bound:
        all_better = all(worse * (c - p) < 0 for c in change for p in parent)
        return ("no worse" if all_better else "unresolved"), win_share
    worse_by = worse * (cm - pm)
    if worse_by > metric.bound * abs(pm):
        return "regressed", win_share
    return "no worse", win_share


def judge(samples: Dict[str, Tuple[Sequence[float], Sequence[float]]]
          ) -> Dict[str, Tuple[str, float]]:
    """Verdicts for one workload, from ``{metric: (parent, change)}``.

    A gain does not count when more operations failed: when
    ``error_rate`` regressed, every ``improved`` on the workload reads
    ``no worse``.
    """
    metrics = spec.by_name()
    verdicts = {name: verdict(metrics[name], *sides)
                for name, sides in samples.items()}
    if verdicts.get("error_rate", ("",))[0] == "regressed":
        verdicts = {
            name: ("no worse" if outcome == "improved" else outcome, wins)
            for name, (outcome, wins) in verdicts.items()
        }
    return verdicts


def main(args) -> int:
    pairs = pair(load(args.parent), load(args.change))
    print(f"{len(pairs)} paired runs; parent {args.parent}, change "
          f"{args.change}")
    print(f"{'workload':<10} {'metric':<22} {'parent median [q1, q3]':>36} "
          f"{'change median [q1, q3]':>36} {'wins':>5}  verdict")
    regressed = False
    for workload in spec.WORKLOADS:
        samples = {}
        for metric in spec.END_TO_END + spec.WORKLOAD_METRICS:
            if not spec.applies(metric, workload):
                continue
            sides = tuple([run["workloads"][workload]["metrics"][metric.name]
                           for run in side]
                          for side in zip(*pairs))
            if any(v is None for side in sides for v in side):
                print(f"{workload:<10} {metric.name:<22} missing values")
                continue
            samples[metric.name] = sides
        for name, (outcome, wins) in judge(samples).items():
            regressed = regressed or outcome == "regressed"
            cells = []
            for values in samples[name]:
                q1, mid, q3 = quartiles(values)
                cells.append(f"{mid:.5g} [{q1:.5g}, {q3:.5g}]")
            print(f"{workload:<10} {name:<22} {cells[0]:>36} "
                  f"{cells[1]:>36} {wins:>5.0%}  {outcome}")
    return 1 if regressed else 0

"""Run one VaultBench workload.

    python3 bench/run.py --workload seq_hot --seed 0 --seconds 10 --trace 0

Prints a readable summary, then, as its last line, one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics of ``BENCHMARK.json`` with ``--trace 0``, its
per-layer metrics with ``--trace 1``. End-to-end numbers always come from
the untraced pass; ``--trace 1`` adds a traced pass after it.

Exit status: 0 when every answer matched the oracle, 1 when one did not,
2 when the program under test (``src/repro``) cannot be imported.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, for the self-test")
    parser.add_argument("--out", type=Path,
                        help="also write the full result record here")
    parser.add_argument("--results", type=Path, default=ROOT / "bench" / "results",
                        help="directory for trace-<workload>.json")
    return parser.parse_args(argv)


def clean(value):
    """JSON-safe copy: numpy scalars become Python, non-finite becomes null."""
    if isinstance(value, dict):
        return {key: clean(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [clean(item) for item in value]
    if hasattr(value, "item"):
        value = value.item()
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def report_lines(record: dict) -> list:
    """A header, then one ``<workload> <metric> <value> <unit>`` row per
    metric; numbers from the simulated clock are marked ``# simulated``."""
    from bench import spec

    metrics = spec.by_name()
    workload = record["workload"]
    details = record["details"]
    lines = [
        f"{workload}: seed={record['seed']} seconds={record['seconds']} "
        f"correct={record['correct']} attempted={record['attempted']} "
        f"failed={record['failed']} repeats={details['repeats']} "
        f"windows={details['windows']} "
        f"pooled_samples={details['pooled_samples']}"
    ]
    for name, value in {**record["metrics"],
                        **(record.get("layers") or {})}.items():
        if value is None:
            continue
        metric = metrics[name]
        clock = "  # simulated" if metric.simulated else ""
        lines.append(f"  {workload:<10} {name:<36} {value:>14.6g} "
                     f"{metric.unit}{clock}")
    lines += [f"  {workload:<10} error: {error}" for error in record["errors"]]
    return lines


def main(argv=None) -> int:
    args = parse_args(argv)
    # The script's own directory must not shadow top-level modules; the
    # package is imported from the checkout root, the program from src/.
    sys.path[:1] = [str(ROOT / "src"), str(ROOT)]
    try:
        import repro  # noqa: F401
    except ImportError as exc:
        print(f"cannot import the program under test: {exc}", file=sys.stderr)
        return 2
    from bench import spec, workloads

    record = clean(workloads.run_workload(
        args.workload, args.seed, args.seconds, trace_run=bool(args.trace),
        smoke=args.smoke, results_dir=args.results,
    ))
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(record, indent=1))
    for line in report_lines(record):
        print(line)
    if args.trace:
        names = spec.benchmark_layer_names()
        values = record["layers"]
    else:
        names = [m.name for m in spec.END_TO_END]
        values = record["metrics"]
    units = {m.name: m.unit for m in spec.END_TO_END + spec.LAYER_METRICS}
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            name: {"value": values[name], "unit": units[name]}
            for name in names
        },
    }), flush=True)
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    # Hash randomisation changes set and dict layouts between processes;
    # pin it so repeated runs execute the same code paths.
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  dict(os.environ, PYTHONHASHSEED="0"))
    sys.exit(main())

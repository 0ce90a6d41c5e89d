"""VaultBench command line.

    PYTHONPATH=src python -m bench run [--seed S] [--trace] [--smoke]
    python -m bench compare --parent DIR --change DIR
    PYTHONPATH=src python -m bench stability [--runs 5] [--seed S]

``run`` runs every workload in its own process, one after another, prints
every metric with its unit, and writes ``<results>/<sha>-<seed>.json``.
``stability`` repeats ``run`` over consecutive seeds and prints each
end-to-end metric's median and range per workload. ``compare`` judges a
change's result set against its parent's (see ``bench/compare.py``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from typing import List, Optional, Sequence

from . import compare, spec
from .run import report_lines

ROOT = Path(__file__).resolve().parents[1]
RESULTS = ROOT / "bench" / "results"
SMOKE_SECONDS = 1.0


def git_sha() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short=12", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, timeout=30,
        )
    except OSError:
        return "nogit"
    return out.stdout.strip() or "nogit"


def run_workload_process(workload: str, seed: int, seconds: float,
                         trace: bool, smoke: bool, results: Path) -> dict:
    """One workload in a fresh interpreter; returns its result record."""
    part = results / f".{workload}-{seed}.part.json"
    command = [
        sys.executable, str(ROOT / "bench" / "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "1" if trace else "0",
        "--out", str(part), "--results", str(results),
    ] + (["--smoke"] if smoke else [])
    proc = subprocess.run(
        command, cwd=ROOT, capture_output=True, text=True, timeout=900,
        env=dict(os.environ, PYTHONHASHSEED="0"),
    )
    if not part.exists():
        raise RuntimeError(
            f"{workload} exited {proc.returncode} without a result:\n"
            f"{proc.stderr[-4000:]}"
        )
    record = json.loads(part.read_text())
    part.unlink()
    return record


def run(seed: int, seconds: float, trace: bool, smoke: bool,
        results: Path) -> dict:
    results.mkdir(parents=True, exist_ok=True)
    sha = git_sha()
    record = {
        "sha": sha, "seed": seed, "seconds": seconds, "trace": trace,
        "smoke": smoke, "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "workloads": {
            name: run_workload_process(name, seed, seconds, trace, smoke,
                                       results)
            for name in spec.WORKLOADS
        },
    }
    (results / f"{sha}-{seed}.json").write_text(json.dumps(record, indent=1))
    return record


def print_run(record: dict) -> None:
    print(f"VaultBench sha={record['sha']} seed={record['seed']} "
          f"seconds={record['seconds']} nproc={record['nproc']} "
          f"python={record['python']}")
    print("clocks: wall perf_counter, except metrics marked # simulated "
          "(SgxCostModel time, simulated EPC)")
    for result in record["workloads"].values():
        print("\n".join(report_lines(result)))


def stability(runs: int, seed: int, seconds: float, smoke: bool,
              results: Path) -> List[dict]:
    records = []
    for index in range(runs):
        records.append(run(seed + index, seconds, False, smoke, results))
        print(f"run {index + 1}/{runs} (seed {seed + index}) done",
              flush=True)
    print(f"{'workload':<10} {'metric':<22} {'median':>12} {'min':>12} "
          f"{'max':>12} {'range%':>7} {'bound%':>7}")
    for name in spec.WORKLOADS:
        for metric in spec.END_TO_END + spec.WORKLOAD_METRICS:
            if not spec.applies(metric, name):
                continue
            values = [r["workloads"][name]["metrics"][metric.name]
                      for r in records]
            if any(v is None for v in values):
                print(f"{name:<10} {metric.name:<22} missing values")
                continue
            mid = statistics.median(values)
            spread = (max(values) - min(values)) / abs(mid) if mid else 0.0
            flag = "  > bound" if spread > metric.bound and mid else ""
            print(f"{name:<10} {metric.name:<22} {mid:>12.6g} "
                  f"{min(values):>12.6g} {max(values):>12.6g} "
                  f"{100 * spread:>6.1f}% {100 * metric.bound:>6.1f}%{flag}")
    return records


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench")
    commands = parser.add_subparsers(dest="command", required=True)
    for command in ("run", "stability"):
        sub = commands.add_parser(command)
        sub.add_argument("--seed", type=int, default=0)
        sub.add_argument("--seconds", type=float,
                         help=f"measured seconds per workload (default "
                         f"{spec.RUN_SECONDS}, {SMOKE_SECONDS} with --smoke)")
        sub.add_argument("--smoke", action="store_true")
        sub.add_argument("--results", type=Path, default=RESULTS)
        if command == "run":
            sub.add_argument("--trace", action="store_true")
        else:
            sub.add_argument("--runs", type=int, default=5)
    compare_parser = commands.add_parser("compare")
    compare.add_arguments(compare_parser)
    args = parser.parse_args(argv)

    if args.command == "compare":
        return compare.main(args)
    seconds = args.seconds or (SMOKE_SECONDS if args.smoke
                               else spec.RUN_SECONDS)
    if args.command == "stability":
        records = stability(args.runs, args.seed, seconds, args.smoke,
                            args.results)
    else:
        records = [run(args.seed, seconds, args.trace, args.smoke,
                       args.results)]
        print_run(records[0])
    correct = all(result["correct"] for record in records
                  for result in record["workloads"].values())
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

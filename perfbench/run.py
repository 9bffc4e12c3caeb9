"""Benchmark entry point: run one workload, or every workload, and report.

    python3 perfbench/run.py --workload train-l336 --seed 1 --seconds 10 --trace 0

runs one workload in this process and prints the end-to-end metrics
(`--trace 0`) or the per-layer metrics (`--trace 1`); the last line of
standard output is one JSON object with the keys `correct`, `attempted`,
`failed` and `metrics`.  The exit code is 0 only when every operation and
every correctness check passed.

    python3 perfbench/run.py --workload all --seed 1 [--out results.json]

runs each workload twice, untraced and traced, each in its own process so
that `peak_rss_mb` is that workload's own, and prints every metric with
its unit and, for per-layer metrics, the end-to-end metric it should move.

    python3 perfbench/run.py --record-reference

re-records the correctness gate's reference values from the code as it is.

The program is imported from `src/` beside this directory.  A run writes
only under `.bench_work/` in the checkout: its scratch files, removed at
the end, and with `--trace 1` its spans, one JSON object per line, in
`.bench_work/spans/<workload>-seed<seed>.jsonl`.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SOURCE = ROOT / "src"
SPEC_PATH = ROOT / "BENCHMARK.json"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
CHILD_TIMEOUT_S = 900


def pin_blas_threads() -> None:
    """Cap BLAS threads at the CPUs this process may use; numpy is not loaded yet."""
    cpus = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        try:
            wanted = int(os.environ.get(var, cpus))
        except ValueError:
            wanted = cpus
        os.environ[var] = str(min(max(wanted, 1), cpus))


def parse_args(argv, spec: dict) -> argparse.Namespace:
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="with --workload all: write every result here")
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)
    if args.workload is None and not args.record_reference:
        parser.error("give --workload or --record-reference")
    return args


def run_one(args, spec: dict) -> int:
    import harness

    declared = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=_work_root()))
    try:
        outcome = harness.run_workload(harness.WORKLOADS[args.workload], args.seed,
                                       args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        _remove_if_empty(workdir.parent)
    if outcome.spans:
        outcome.details["spans_file"] = str(write_spans(outcome.spans, args).relative_to(ROOT))
    ops = outcome.ops
    correct = ops.failed == 0
    if correct and set(outcome.metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(outcome.metrics)} differ from BENCHMARK.json "
                           f"{sorted(units)}")
    for name, value in outcome.metrics.items():
        print(f"{args.workload:<18} {name:<26} {value:>16.6g} {units[name]}")
    print(f"{args.workload:<18} {'error_rate':<26} {ops.failed / ops.attempted:>16.6g} "
          f"({ops.failed} of {ops.attempted} ops)")
    print(json.dumps({"environment": harness.environment()}))
    print(json.dumps({"details": outcome.details}))
    result = {
        "correct": correct,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in outcome.metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


def run_all(args, spec: dict) -> int:
    """Every workload, untraced then traced, each run in a process of its own."""
    import metrics

    runs = {}
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode not in (0, 1) or not lines:
                sys.stderr.write(proc.stderr)
                raise RuntimeError(f"{workload} trace {trace} exited {proc.returncode}")
            result = json.loads(lines[-1])
            record = {"result": result, **json.loads(lines[-3]), **json.loads(lines[-2])}
            runs[f"{workload}/trace{trace}"] = record
            total["correct"] &= result["correct"]
            total["attempted"] += result["attempted"]
            total["failed"] += result["failed"]
            print(f"== {workload}, trace {trace}: "
                  f"{result['failed']} of {result['attempted']} ops failed")
            for name, m in result["metrics"].items():
                moves = f"  -> {metrics.TARGETS[name][1]}" if trace else ""
                print(f"  {name:<26} {m['value']:>16.6g} {m['unit']:<6}{moves}")
                total["metrics"][f"{workload}/{name}"] = m
            for error in record["details"]["errors"]:
                print(f"  FAILED: {error}")
    if args.out:
        args.out.write_text(json.dumps({"seed": args.seed, "seconds": args.seconds,
                                        "runs": runs}, indent=1) + "\n")
    print(json.dumps(total))
    return 0 if total["correct"] else 1


def write_spans(spans: list, args) -> Path:
    """Write spans as JSON lines: name, start and end in seconds from the first, parent."""
    path = _work_root() / "spans" / f"{args.workload}-seed{args.seed}.jsonl"
    path.parent.mkdir(exist_ok=True)
    origin = spans[0].start
    with path.open("w", encoding="utf-8") as fh:
        for s in spans:
            fh.write(json.dumps({"name": s.name, "start": s.start - origin,
                                 "end": s.end - origin, "parent": s.parent}) + "\n")
    return path


def _work_root() -> Path:
    root = ROOT / ".bench_work"
    root.mkdir(exist_ok=True)
    return root


def _remove_if_empty(path: Path) -> None:
    try:
        path.rmdir()
    except OSError:
        pass


def main(argv=None) -> int:
    if not (SOURCE / "hakan" / "__init__.py").is_file() or not SPEC_PATH.is_file():
        sys.stderr.write(f"run.py: needs src/hakan and BENCHMARK.json under {ROOT}\n")
        return 2
    spec = json.loads(SPEC_PATH.read_text())
    args = parse_args(argv, spec)
    pin_blas_threads()
    sys.path[:0] = [str(SOURCE), str(HERE)]
    if args.record_reference:
        import harness

        workdir = Path(tempfile.mkdtemp(prefix="reference-", dir=_work_root()))
        try:
            names = list(harness.WORKLOADS) if args.workload in (None, "all") else [args.workload]
            print(json.dumps(harness.record_reference(names, workdir), indent=2))
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
            _remove_if_empty(workdir.parent)
        return 0
    if args.workload == "all":
        return run_all(args, spec)
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())

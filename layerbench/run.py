"""Layered benchmark of the amalgam package: one workload per run.

    python3 layerbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from its `src/`.
Each run starts the workload in a fresh interpreter (layerbench/worker.py).
With --trace 0 it prints the end-to-end metrics; with --trace 1 it makes the
same untraced run, then a traced run of exactly the same queries, and prints
the per-layer metrics, the tracing overhead, and whether both runs produced
the same outputs.  The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics.  The full record (the
environment, input sizes and every measurement) goes to
layerbench/out/<workload>-seed<N>-trace<T>.json.  Exit code 0 means every
output checked correct; 1 means some did not; 2 means the run could not be
made.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKLOADS = ("word-problem", "conjugacy", "cold-cli", "blowup")
TIME_LIMIT_S = 170

END_TO_END_UNITS = {
    "throughput_qps": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "setup_s": "s",
    "decided_frac": "fraction",
    "peak_rss_mb": "MiB",
}


def environment() -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "commit": git_commit(),
    }


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def worker(args, deadline: float, extra: list[str]) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--workdir", os.path.join(OUT, f"files-{os.getpid()}"), *extra]
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("PYTHONOPTIMIZE", None)
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    start = time.monotonic()
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "amalgam", "__init__.py")):
        print(f"no amalgam package under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    deadline = start + TIME_LIMIT_S
    try:
        plain = worker(args, deadline, [])
        traced = None
        if args.trace:
            spans = os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.jsonl")
            traced = worker(args, deadline, ["--trace-to", spans])
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 2

    failed = plain["failed"]
    correct = failed == 0
    if traced is None:
        metrics = {name: plain[name] for name in END_TO_END_UNITS}
        if metrics["decided_frac"] is None:
            metrics["decided_frac"] = 1.0  # no conjugacy queries, so none undecided
        units = END_TO_END_UNITS
    else:
        failed += traced["failed"]
        same_outputs = traced["digest"] == plain["digest"]
        correct = correct and traced["failed"] == 0 and same_outputs
        overhead = 1 - traced["throughput_qps"] / plain["throughput_qps"]
        metrics = {**traced["layers"], "trace.overhead_frac": overhead}
        units = {name: layer_unit(name) for name in metrics}

    record = {
        "environment": environment(),
        "arguments": vars(args),
        "untraced": plain,
        "traced": traced,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    path = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    env = record["environment"]
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}")
    print(f"environment: {env['nproc']} cpus, {env['cpu_model']}, Python {env['python']}, "
          f"commit {env['commit']}")
    print(f"queries {plain['queries']}  failed {plain['failed']}  "
          f"failed_frac {plain['failed'] / plain['queries']:.4g}  "
          f"tail percentile p{plain['tail_percentile']:g}")
    for problem in plain["failures"] + (traced["failures"] if traced else []):
        print(f"FAILED: {problem}")
    if traced is not None and not same_outputs:
        print("FAILED: traced and untraced runs produced different outputs")
    for name, value in metrics.items():
        print(f"  {name:40s} {value:14.6g} {units[name]}")
    print(f"record: {os.path.relpath(path, ROOT)}")
    print(json.dumps({
        "correct": correct,
        "attempted": plain["queries"] + (traced["queries"] if traced else 0),
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0 if correct else 1


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio") or name.endswith("_frac"):
        return "fraction"
    if name.endswith("_us_per_letter"):
        return "us/letter"
    return "count"


if __name__ == "__main__":
    sys.exit(main())

"""Run alternating pairs of the layered benchmark on two checkouts.

    python3 tools/bench_pairs.py --parent DIR --change DIR --workload NAME \
        --pairs N --seed S --name NAME

Each pair runs `layerbench/run.py --workload NAME --seed SEED --seconds 12
--trace 0` once in each checkout, on the same seed, one run after the other;
pair i uses seed S + i, and the parent runs first on even i and second on
odd i, so neither side always meets a warmer or a cooler machine.  Each run
is made from the root of its checkout, so it imports that checkout's `src/`
and writes its record under that checkout's `layerbench/out/`.

The result goes to BENCH_pairs_<NAME>.json in this checkout (or --out): the
machine, the Python version, and per workload each checkout's git commit, the
seeds, every run (side, order, exit code, end-to-end metrics, the worker's output
digest and its speed factor: the nominal over the measured time of the worker's
reference routine, below 1 while the host runs slow), whether the digests
of the two sides match on every seed (null, with the reason, on cold-cli,
whose records name each run's own work directory), and per metric the
medians and quartiles of each side and the number of pairs in which the change
is strictly better (the direction of each metric comes from BENCHMARK.json).  Quartiles are `statistics.quantiles(n=4,
method="inclusive")`.  A workload already in the file is replaced, and the
other workloads are kept, so one file can collect several invocations.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SECONDS = 12  # every run's length, the same on both sides


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def commit(checkout: str) -> str | None:
    """The checkout's HEAD commit, or None when it is not a git checkout."""
    proc = subprocess.run(["git", "-C", checkout, "rev-parse", "HEAD"], capture_output=True,
                          text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def run_once(checkout: str, workload: str, seed: int) -> dict:
    """One `layerbench/run.py` run in `checkout`: its exit code, metrics, digest and speed
    factor."""
    cmd = [sys.executable, "layerbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(SECONDS), "--trace", "0"]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    wall = time.monotonic() - t0
    out = {"exit": proc.returncode, "wall_s": round(wall, 3)}
    lines = proc.stdout.strip().splitlines()
    if not lines:
        out["stderr"] = proc.stderr[-2000:]
        return out
    last = json.loads(lines[-1])
    out.update(failed=last["failed"], attempted=last["attempted"],
               metrics={k: v["value"] for k, v in last["metrics"].items()})
    record = os.path.join(checkout, "layerbench", "out", f"{workload}-seed{seed}-trace0.json")
    with open(record, encoding="utf-8") as fh:
        untraced = json.load(fh)["untraced"]
    out.update(digest=untraced.get("digest"), speed_factor=untraced.get("speed_factor"))
    return out


# why a workload's run digests cannot be compared between two runs
NO_DIGEST = {
    "cold-cli": "each record holds its argv, which names the run's own work directory "
                "(layerbench/out/files-<pid>), so two runs never share a digest; "
                "tools/ab_inproc.py compares cold-cli outputs with that directory masked",
}


def summarise(runs: list[dict], better: dict[str, str], workload: str) -> dict:
    """Per metric: medians, quartiles and wins of the change over its pairs."""
    pairs = {}
    for run in runs:
        pairs.setdefault(run["pair"], {})[run["side"]] = run
    complete = [p for p in pairs.values() if "metrics" in p.get("parent", {})
                and "metrics" in p.get("change", {})]
    summary: dict = {
        "pairs": len(complete),
        "all_exit_0": all(r["exit"] == 0 for r in runs),
        "failed_runs": sum(1 for r in runs if r.get("failed")),
        "digests_equal_per_seed": None if workload in NO_DIGEST else all(
            p["parent"]["digest"] == p["change"]["digest"] for p in complete
        ),
    }
    if workload in NO_DIGEST:
        summary["digests_not_compared"] = NO_DIGEST[workload]
    for name, direction in better.items():
        values = {side: [p[side]["metrics"][name] for p in complete] for side in
                  ("parent", "change")}
        if not complete or any(v is None for vs in values.values() for v in vs):
            continue
        sign = 1 if direction == "higher" else -1
        row = {}
        for side, vs in values.items():
            row[f"{side}_median"] = statistics.median(vs)
            row[f"{side}_quartiles"] = (
                statistics.quantiles(vs, n=4, method="inclusive") if len(vs) > 1 else [vs[0]] * 3
            )[::2]
        row["change_over_parent"] = (
            row["change_median"] / row["parent_median"] if row["parent_median"] else None
        )
        row["change_better_in"] = sum(
            1 for a, b in zip(values["parent"], values["change"]) if sign * (b - a) > 0
        )
        summary[name] = row
    return summary


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="checkout of the parent commit")
    ap.add_argument("--change", required=True, help="checkout of the change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seed", type=int, required=True, help="seed of the first pair")
    ap.add_argument("--name", required=True, help="the file is BENCH_pairs_<name>.json")
    ap.add_argument("--out", default="", help="write here instead of this checkout's root")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        better = {m["name"]: m["better"] for m in json.load(fh)["end_to_end"]}
    checkouts = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    runs = []
    for i in range(args.pairs):
        seed = args.seed + i
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for position, side in enumerate(order):
            run = {"pair": i, "seed": seed, "side": side, "first": position == 0}
            run.update(run_once(checkouts[side], args.workload, seed))
            runs.append(run)
            shown = run.get("metrics", {}).get("throughput_qps")
            print(f"{args.workload} pair {i} seed {seed} {side:6s} exit {run['exit']} "
                  f"qps {shown}", file=sys.stderr, flush=True)
    path = args.out or os.path.join(ROOT, f"BENCH_pairs_{args.name}.json")
    result = {}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            result = json.load(fh)
    result.update({
        "command": "python3 layerbench/run.py --workload WORKLOAD --seed N "
                   f"--seconds {SECONDS} --trace 0",
        "machine": {"nproc": os.cpu_count(), "cpu_model": cpu_model(),
                    "python": platform.python_version(),
                    "implementation": platform.python_implementation()},
        "method": "pairs alternate which side runs first (the parent first on even pairs); "
                  "quartiles are statistics.quantiles(n=4, method='inclusive'); "
                  "change_better_in counts pairs where the change is strictly better",
    })
    result.setdefault("workloads", {})[args.workload] = {
        "commits": {side: commit(path) for side, path in checkouts.items()},
        "seeds": [args.seed + i for i in range(args.pairs)],
        "summary": summarise(runs, better, args.workload),
        "runs": runs,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
        fh.write("\n")
    print(json.dumps(result["workloads"][args.workload]["summary"], indent=1))
    return 0 if all(r["exit"] == 0 for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())

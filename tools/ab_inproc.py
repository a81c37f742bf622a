"""In-process A/B of one benchmark workload's fixed query list, with an A/A control.

    python3 tools/ab_inproc.py --src A --src B --workload NAME [--rounds R] \
        [--queries N] [--seed S] [--out FILE]

A and B are checkouts; each side imports its own `src/`.  The queries come
from this checkout's `layerbench/workloads.py`, imported as it is: a process
builds the workload on the round's seed, runs its set-up, and times the
first N queries of `queries("queries")` one call at a time (N defaults to the
workload's count for a 12-second `layerbench/run.py` run).  So both sides
answer the same list.

Round i uses seed S + i and runs three fresh processes one after the other:
A, B, A.  B's busy time over the mean of the two A's is the round's B/A
ratio; the later A over the earlier one (the earlier over the later on odd
rounds) is its A/A ratio, the control: a B/A median inside the A/A spread is
no change.  Times are summed per query kind (the CLI command on cold-cli,
the query type on conjugacy, the case on blowup, the word length on
word-problem) and in total.  Each process also writes the sha256 of its
records, as `layerbench/worker.py` hashes them, with the process's own work
directory masked, so the outputs of the two sides compare on cold-cli too.
One more untimed process per side counts calls of a few package functions
and of the checking constructors of `Word` and `Alphabet`; counts do not
move with the host.

The result goes to BENCH_ab_<workload>.json in this checkout (or --out): the
machine, the Python version, each side's git commit, every process
(round, seed, side, position, busy seconds per kind, queries per kind,
digest, failed checks), per kind the median and quartiles of the B/A and A/A
ratios and the rounds in which B was faster than both A's, whether the
digests of A and B are equal on every seed, and the call counts.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from collections import Counter
from itertools import islice

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
from bench_pairs import commit, machine, spread  # noqa: E402

SECONDS = 12  # the default query count is the workload's for a run of this length
MASK = "{workdir}"

# (module, class or None, attribute) whose calls the counting process counts
COUNTED = (
    ("words", None, "parse_word"), ("words", "Word", "__init__"),
    ("words", "Alphabet", "__init__"), ("stallings", None, "build"), ("stallings", None, "fold"),
    ("stallings", "SubgroupGraph", "coset_rep"), ("stallings", "SubgroupGraph", "loop_word"),
    ("stallings", None, "meet"), ("cosetalg", None, "shift"),
    ("group", None, "build_context"), ("group", None, "normal_form"),
    ("group", None, "_principal_solution"), ("group", None, "_propagate_solution"),
    ("group", "AmalgamContext", "transfer_letters"),
)


def kind(workload: str, q) -> str:
    if workload == "blowup":
        return "/".join(map(str, q[0]))
    if workload == "word-problem":
        return f"{len(q[1].letters)} letters"
    return q[0]


def _install_counters(calls: Counter) -> None:
    """Count COUNTED calls at every binding in the package's modules; a name it lacks reads 0."""
    import amalgam
    from amalgam import cli, cosetalg, fixtures, group, stallings, words
    modules = {"words": words, "stallings": stallings, "cosetalg": cosetalg, "group": group}
    for module, owner, name in COUNTED:
        holder = getattr(modules[module], owner) if owner else modules[module]
        original = getattr(holder, name, None)
        if original is None:
            continue
        label = ".".join(filter(None, (module, owner, name)))

        def counting(*args, _original=original, _label=label, **kwargs):
            calls[_label] += 1
            return _original(*args, **kwargs)
        if owner:
            setattr(holder, name, counting)
            continue
        for namespace in (amalgam, words, stallings, cosetalg, group, cli, fixtures):
            if getattr(namespace, name, None) is original:
                setattr(namespace, name, counting)


def child(args) -> int:
    """One process: set up, run the query list, print its times, digest and checks."""
    sys.path[:0] = [os.path.join(args.src, "src"), os.path.join(ROOT, "layerbench")]
    import workloads
    calls: Counter = Counter()
    if args.count:
        _install_counters(calls)
    scratch = tempfile.mkdtemp(prefix="ab-inproc-")
    workdir = os.path.join(scratch, "files")
    wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
    try:
        wl.setup()
        queries = list(islice(wl.queries("queries"), args.queries or wl.query_count(SECONDS)))
        busy, counts, records = Counter(), Counter(), []
        clock = time.perf_counter
        calls.clear()  # count the queries only
        for q in queries:
            wl.prepare(q)
            t0 = clock()
            out = wl.run(q)
            dt = clock() - t0
            k = kind(args.workload, q)
            busy[k] += dt
            counts[k] += 1
            records.append(wl.record(q, out))
        counted = dict(sorted(calls.items()))
        digest = hashlib.sha256()
        failures, verdicts = [], {}
        for rec in records:
            digest.update(repr(rec).replace(workdir, MASK).encode())
            problem = wl.check(rec, verdicts)
            if problem is not None:
                failures.append(problem.replace(workdir, MASK))
    finally:
        wl.close()
        shutil.rmtree(scratch, ignore_errors=True)
    print(json.dumps({"busy_s": dict(busy), "queries": dict(counts), "digest": digest.hexdigest(),
                      "failed": len(failures), "failures": failures[:3], "calls": counted}))
    return 0


def spawn(src: str, workload: str, seed: int, queries: int, count: bool = False) -> dict:
    cmd = [sys.executable, os.path.abspath(__file__), "--child", "--src", src, "--workload",
           workload, "--seed", str(seed), "--queries", str(queries)] + ["--count"] * count
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("PYTHONOPTIMIZE", None)
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env)
    if proc.returncode != 0:
        raise RuntimeError(f"{src}: exit {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarise(processes: list[dict], rounds: int) -> dict:
    """Per kind and in total: the B/A and A/A ratios' medians and quartiles."""
    by_round = [[p for p in processes if p["round"] == i] for i in range(rounds)]
    kinds = sorted({k for p in processes for k in p["busy_s"]}) + ["all"]
    summary = {}
    for k in kinds:
        b_over_a, a_over_a, faster = [], [], 0
        for i, (a1, b, a2) in enumerate(by_round):
            a, later, mid = (p["busy_s"].get(k, 0.0) if k != "all" else sum(p["busy_s"].values())
                             for p in (a1, a2, b))
            b_over_a.append(2 * mid / (a + later))
            a_over_a.append(later / a if i % 2 == 0 else a / later)
            faster += mid < min(a, later)
        summary[k] = {"b_over_a": spread(b_over_a), "a_over_a": spread(a_over_a),
                      "b_faster_than_both_a_in": faster}
    summary["digests_equal_per_seed"] = all(
        len({p["digest"] for p in ps}) == 1 for ps in by_round
    )
    summary["failed_checks"] = sum(p["failed"] for p in processes)
    return summary


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--src", action="append", required=True,
                    help="checkout of side A, then of side B")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--rounds", type=int, default=10)
    ap.add_argument("--queries", type=int, default=0, help="default: a 12-second run's count")
    ap.add_argument("--seed", type=int, default=1, help="seed of the first round")
    ap.add_argument("--out", default="", help="write here instead of this checkout's root")
    ap.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--count", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.child:
        args.src = args.src[0]
        return child(args)
    if len(args.src) != 2:
        ap.error("give --src twice: side A, then side B")
    sides = dict(zip("AB", map(os.path.abspath, args.src)))
    processes = []
    for i in range(args.rounds):
        seed = args.seed + i
        for position, side in enumerate("ABA"):
            run = spawn(sides[side], args.workload, seed, args.queries)
            processes.append({"round": i, "seed": seed, "side": side, "position": position, **run})
            args.queries = args.queries or sum(run["queries"].values())
            print(f"{args.workload} round {i} seed {seed} {side} "
                  f"busy {sum(run['busy_s'].values()):.4f} s", file=sys.stderr, flush=True)
    calls = {side: spawn(path, args.workload, args.seed, args.queries, count=True)["calls"]
             for side, path in sides.items()}
    result = {
        "command": f"python3 tools/ab_inproc.py --src A --src B --workload {args.workload} "
                   f"--rounds {args.rounds} --queries {args.queries} --seed {args.seed}",
        "machine": machine(),
        "method": "each round runs A, B, A in fresh processes on seed S + round; b_over_a is "
                  "B's busy time over the two A's mean, a_over_a the later A over the earlier "
                  "on even rounds and the earlier over the later on odd ones; quartiles are "
                  "statistics.quantiles(n=4, method='inclusive'); digests mask the work "
                  "directory; calls count the queries of one more process per side",
        "workload": args.workload,
        "queries": args.queries,
        "commits": {side: commit(path) for side, path in sides.items()},
        "summary": summarise(processes, args.rounds),
        "calls": calls,
        "processes": processes,
    }
    path = args.out or os.path.join(ROOT, f"BENCH_ab_{args.workload}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
        fh.write("\n")
    print(json.dumps(result["summary"], indent=1))
    return 0 if result["summary"]["failed_checks"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

"""Run one workload in this interpreter and print its measurements as JSON.

Started by run.py, once per workload run, in a fresh interpreter without -O
so that the package's own `assert` verification runs and is timed:

    python3 layerbench/worker.py --workload NAME --seed N --seconds S --workdir DIR [--trace-to FILE]

S sets the amount of work: the workload's rate times S, rounded to whole
cycles of its query mix.  With --trace-to the same queries run with the
tracer active in the last set-up and in every query, and the spans go to
FILE.  The worker prints one JSON object as its last line.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import layertrace  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 9
# Every time the benchmark reports is scaled to a nominal host speed.  The
# shared 2-vCPU host this was built on (Intel Xeon VM, 2.1 GHz, Python 3.11)
# runs the same pure-Python code at speeds that swing by a factor of up to
# 1.7 over minutes.  So right after each set-up and each cycle of queries a
# run times a fixed reference routine for REF_DUTY of that busy time.  Set-up
# times are multiplied by REF_NOMINAL_S / (mean time of a reference call
# after the set-ups), query times by the same ratio for the calls after the
# cycles.  REF_NOMINAL_S is the routine's time on that host when it is quiet.
# The raw times and both factors are kept in the record.
REF_NOMINAL_S = 0.0023
REF_DUTY = 0.1
# Tail percentiles tried from the highest down; the first with at least
# TAIL_BEYOND samples above it is reported.
TAIL_LADDER = (99.9, 99.0, 90.0, 50.0)
TAIL_BEYOND = 10
RAISED = "raised"  # first field of the record of a query that raised


def tail(latencies: list[float]) -> tuple[float, float]:
    """(percentile, value) at the highest ladder percentile with 10 samples beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    for pct in TAIL_LADDER:
        rank = math.ceil(pct / 100 * n)  # nearest-rank percentile
        if n - rank >= TAIL_BEYOND:
            return pct, ordered[rank - 1]
    return 100.0, ordered[-1]


def _step(state: tuple, x: int) -> tuple:
    return state[1:] + (x,) if len(state) > 6 else state + (x,)


def reference(n: int = 4000) -> int:
    """Fixed interpreter-bound work (tuples, dicts, lists, calls); uses no amalgam code."""
    table: dict = {}
    state: tuple = ()
    out: list = []
    for i in range(n):
        state = _step(state, i & 7)
        key = state[-3:]
        table[key] = table.get(key, 0) + 1
        if i % 5 == 0:
            out.append(tuple(reversed(state)))
        elif out and i % 7 == 0:
            out.pop()
    return len(table) + len(out)


class Speed:
    """Host speed, from reference calls interleaved with the measured work."""

    def __init__(self):
        self.calls = 0
        self.seconds = 0.0

    def sample(self, busy_s: float) -> None:
        """Run the reference for about REF_DUTY * busy_s seconds (one call at least)."""
        clock = time.perf_counter
        # a collection here would traverse the program's heap, so keep the
        # reference's time independent of how much the program holds
        gc.disable()
        try:
            t0 = clock()
            while True:
                reference()
                self.calls += 1
                spent = clock() - t0
                if spent >= REF_DUTY * busy_s:
                    break
            self.seconds += spent
        finally:
            gc.enable()

    def factor(self) -> float:
        """Multiply a measured time by this to get the time at nominal speed."""
        return REF_NOMINAL_S / (self.seconds / self.calls)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace-to", default="")
    ap.add_argument("--workdir", required=True)
    args = ap.parse_args()
    if sys.flags.optimize:
        print("the worker must run without -O", file=sys.stderr)
        return 2

    wl = workloads.WORKLOADS[args.workload](args.seed, args.workdir)
    total = wl.query_count(args.seconds)
    tracer = layertrace.Tracer() if args.trace_to else None
    clock = time.perf_counter
    setup_speed, speed = Speed(), Speed()
    try:
        setup_times = []
        for i in range(SETUP_REPEATS):
            if tracer is not None and i == SETUP_REPEATS - 1:
                tracer.install()
                tracer.active = True
            t0 = clock()
            wl.setup()
            setup_times.append(clock() - t0)
            if tracer is not None:
                tracer.active = False
            setup_speed.sample(setup_times[-1])

        # queries are drawn one at a time between timed calls; the tracer is
        # active only inside the timed call
        stream = wl.queries("queries")
        latencies: list[float] = []
        records: list[tuple] = []
        for i in range(total):
            q = next(stream)
            wl.prepare(q)
            if tracer is not None:
                tracer.query = i
                tracer.active = True
            t0 = clock()
            try:
                out = wl.run(q)
            except Exception as exc:  # a query that raises counts as failed
                out, raised = None, f"query {i}: {type(exc).__name__}: {exc}"
            else:
                raised = None
            dt = clock() - t0
            if tracer is not None:
                tracer.active = False
            latencies.append(dt)
            records.append((RAISED, raised) if raised else wl.record(q, out))
            if (i + 1) % wl.cycle == 0:
                speed.sample(sum(latencies[-wl.cycle:]))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        gc_stats = gc.get_stats()
        if tracer is not None:
            tracer.uninstall()

        digest = hashlib.sha256()
        failures: list[str] = []
        verdicts: dict[str, int] = {}
        for rec in records:
            digest.update(repr(rec).encode())
            problem = rec[1] if rec[0] == RAISED else wl.check(rec, verdicts)
            if problem is not None:
                failures.append(problem)
        notes = wl.notes([rec for rec in records if rec[0] != RAISED])
    finally:
        wl.close()

    n = len(latencies)
    k = speed.factor()
    pct, tail_s = tail(latencies)
    asked = sum(verdicts.values())
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "traced": tracer is not None,
        "queries": n,
        "throughput_qps": n / sum(latencies) / k,
        "latency_p50_ms": statistics.median(latencies) * k * 1e3,
        "latency_tail_ms": tail_s * k * 1e3,
        "tail_percentile": pct,
        "setup_s": statistics.median(setup_times) * setup_speed.factor(),
        "peak_rss_mb": peak_rss_mb,
        "decided_frac": (asked - verdicts.get("undecided", 0)) / asked if asked else None,
        "speed_factor": k,
        "setup_speed_factor": setup_speed.factor(),
        "raw": {
            "throughput_qps": n / sum(latencies),
            "latency_p50_ms": statistics.median(latencies) * 1e3,
            "latency_tail_ms": tail_s * 1e3,
            "setup_s": statistics.median(setup_times),
            "busy_s": sum(latencies),
            "setup_runs_s": setup_times,
        },
        "gc_collections": [g["collections"] for g in gc_stats],
        "failed": len(failures),
        "failures": failures[:5],
        "conjugacy_verdicts": verdicts,
        "digest": digest.hexdigest(),
        "sizes": wl.sizes(),
        "notes": notes,
    }
    if tracer is not None:
        report["layers"] = tracer.metrics(time_scale=k)
        report["spans"] = {"kept": len(tracer.spans), "dropped": tracer.dropped, "file": args.trace_to}
        tracer.write_spans(args.trace_to)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())

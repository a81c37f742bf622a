"""Time `normal_form` per word, warm and cold, on short to mid-length words.

    python3 tools/sweep_curve.py [--src DIR ...] [--out FILE]

Two contexts: the paper's first example at p = 2 (`ex1-p2`) and the
word-problem workload's rank-3 random presentation (`random-rank3`, the
benchmark's set-up seed).  For each length of 2, 4, 8, 40 and 256 letters,
200 seeded random reduced words over the union alphabet are swept under the
canonical policy.  Warm: the words are swept once, so the step memo knows
every step, and then each pass over them is timed as a whole.  Cold:
`ctx.cache` is cleared before every word, and only the sweep is timed.

Each --src (this checkout's by default; give it twice to compare two
commits) is timed in a fresh interpreter, which imports DIR/src and the
workload's presentation from DIR/layerbench, once per round; the rounds
alternate which checkout runs first.  A point is the best of 7 passes in
each of 5 rounds, in microseconds per word, so a host whose speed swings
over seconds still shows each checkout at its fastest.  The result is one
JSON object: the machine, the Python version, the method, and per checkout
its directory's name, its git commit, its points and a digest of every form
it computed (sha256 over head side, head and syllables), so two checkouts
can be seen to agree.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "tools"))
from bench_pairs import commit, cpu_model  # noqa: E402

LENGTHS = (2, 4, 8, 40, 256)
WORDS = 200
REPEATS = 7
ROUNDS = 5

CHILD = """
import hashlib, json, random, sys, time
root, count, lengths, repeats = sys.argv[1], int(sys.argv[2]), json.loads(sys.argv[3]), int(sys.argv[4])
sys.path[:0] = [root + "/src", root + "/layerbench"]
import gen, workloads
from amalgam import group
from amalgam.fixtures import example_one_context
from amalgam.words import Word
contexts = {
    "ex1-p2": example_one_context(2),
    "random-rank3": group.build_context(*workloads.WordProblem(0, "").presentations[3].arguments()),
}
digest, points = hashlib.sha256(), {}
for name, ctx in contexts.items():
    for n in lengths:
        rng = random.Random(f"sweep:{name}:{n}")
        union = ctx.union_alphabet
        words = [Word(union, gen.random_reduced(rng, len(union), n)) for _ in range(count)]
        cold = []
        for _ in range(repeats):
            busy = 0.0
            for w in words:
                ctx.cache.clear()
                t0 = time.perf_counter()
                group.normal_form(ctx, w)
                busy += time.perf_counter() - t0
            cold.append(busy)
        forms = [group.normal_form(ctx, w) for w in words]  # the memo now knows every step
        warm = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            for w in words:
                group.normal_form(ctx, w)
            warm.append(time.perf_counter() - t0)
        for f in forms:
            digest.update(repr((f.head_side, f.head_letters, f.syllable_letters)).encode())
        points.setdefault(name, {})[str(n)] = {
            "warm_us": round(min(warm) / count * 1e6, 3),
            "cold_us": round(min(cold) / count * 1e6, 3),
        }
print(json.dumps({"points": points, "digest": digest.hexdigest()}))
"""


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--src", action="append", help="checkout to time (repeatable)")
    ap.add_argument("--out", default="", help="write the JSON here as well as to stdout")
    args = ap.parse_args()
    checkouts = [os.path.abspath(src) for src in args.src or [ROOT]]
    runs = {src: {"checkout": os.path.basename(src), "commit": commit(src), "points": None,
                  "digest": None} for src in checkouts}
    for r in range(ROUNDS):
        for src in checkouts if r % 2 == 0 else checkouts[::-1]:
            proc = subprocess.run(
                [sys.executable, "-c", CHILD, src, str(WORDS), json.dumps(LENGTHS),
                 str(REPEATS)], capture_output=True, text=True, check=True)
            child, run = json.loads(proc.stdout.strip().splitlines()[-1]), runs[src]
            if run["digest"] not in (None, child["digest"]):
                raise SystemExit(f"{src}: the forms differ between rounds")
            run["digest"], best = child["digest"], run["points"] or child["points"]
            for name, points in child["points"].items():
                for n, point in points.items():
                    best[name][n] = {k: min(v, best[name][n][k]) for k, v in point.items()}
            run["points"] = best
    for run in runs.values():
        print(run["checkout"], run["commit"], file=sys.stderr)
        for name, points in run["points"].items():
            shown = "  ".join(f"{n}: {p['warm_us']}/{p['cold_us']}" for n, p in points.items())
            print(f"  {name} warm/cold us per word  {shown}", file=sys.stderr)
    result = {
        "method": f"normal_form, canonical policy, {WORDS} seeded random reduced words per "
                  f"context and length; best of {REPEATS} passes in each of {ROUNDS} "
                  "rounds, in us per word; warm: the step memo holds every step; cold: "
                  "ctx.cache cleared before each word, the clear untimed; one fresh interpreter "
                  "per checkout and round, the rounds alternating which checkout runs first",
        "machine": {"nproc": os.cpu_count(), "cpu_model": cpu_model()},
        "python": platform.python_version(),
        "lengths": list(LENGTHS),
        "runs": list(runs.values()),
    }
    text = json.dumps(result, indent=1)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Time both sweeps on the C-heavy word (b z)^n of the paper's first example.

    python3 tools/bz_curve.py [--src DIR] [--cap SECONDS] [--out FILE]

On ex1 (p = 2), b lies in C_A and transfers to y^2, so every representative
of a z block lands beside the syllable before it: each sweep step is a join.
For each length from 4,000 letters, doubling up to 2,048,000, and then 2^21,
each sweep (`normal_form` under the canonical policy, and `reduced_form`)
runs once in a fresh interpreter on an empty cache.  The package is imported
from DIR/src, this checkout's by default, so one copy of the script times any
commit.  Once a sweep takes longer than --cap seconds, its longer lengths are
skipped.  The result is one JSON object: the machine, the Python version, the
package's directory, the timed checkout's git commit, the lengths, and per
sweep and length the seconds of the call alone, the child's peak RSS, the
syllable count and a digest of the form (sha256 over its head side, head and
syllables).
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

LENGTHS = [4000 * 2**k for k in range(10)] + [2**21]
SWEEPS = ("normal_form", "reduced_form")

CHILD = """
import hashlib, json, resource, sys, time
sys.path.insert(0, sys.argv[1])
from amalgam import group
from amalgam.fixtures import example_one_context
from amalgam.words import parse_word
ctx = example_one_context(2)
word = parse_word("b z", ctx.union_alphabet) ** (int(sys.argv[3]) // 2)
sweep = getattr(group, sys.argv[2])
t0 = time.perf_counter()
form = sweep(ctx, word)
seconds = time.perf_counter() - t0
spelled = repr((form.head_side, form.head_letters, form.syllable_letters)).encode()
print(json.dumps({
    "seconds": seconds,
    "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    "syllables": len(form.syllable_letters),
    "digest": hashlib.sha256(spelled).hexdigest(),
}))
"""


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--src", default=ROOT, help="checkout whose src/ is timed")
    ap.add_argument("--cap", type=float, default=10.0, help="seconds after which a sweep stops")
    ap.add_argument("--out", default="", help="write the JSON here as well as to stdout")
    args = ap.parse_args()
    checkout = os.path.abspath(args.src)
    src = os.path.join(checkout, "src")
    curves: dict[str, dict[str, object]] = {}
    for sweep in SWEEPS:
        points: dict[str, object] = {}
        capped = False
        for n in LENGTHS:
            if capped:
                points[str(n)] = None
                continue
            proc = subprocess.run([sys.executable, "-c", CHILD, src, sweep, str(n)],
                                  capture_output=True, text=True, check=True)
            point = json.loads(proc.stdout.strip().splitlines()[-1])
            points[str(n)] = point
            capped = point["seconds"] > args.cap
            print(f"{sweep} {n:>9,} letters: {point['seconds']:.3f} s", file=sys.stderr)
        curves[sweep] = points
    result = {
        "word": "(b z)^n on ex1 (p = 2), canonical policy, empty cache, one fresh process per point",
        "machine": {"nproc": os.cpu_count(), "cpu_model": cpu_model()},
        "python": platform.python_version(),
        "src": src,
        "commit": commit(checkout),
        "cap_s": args.cap,
        "lengths": LENGTHS,
        "curves": curves,
    }
    text = json.dumps(result, indent=1)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())

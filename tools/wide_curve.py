"""Time `amalgam validate` on the wide presentation C: a_i^2 = x_i^2, i < N.

    python3 tools/wide_curve.py [--src DIR] [--cap SECONDS] [--out FILE] [--label NAME]

The file declares A: a0 ... a(N-1) and B: x0 ... x(N-1) and has one line
`C: ai^2 = xi^2` per i, so each side's C graph is a rose of N petals of two
edges: N + 1 states and 2N edges, over an alphabet of N letters.  For each N
from 1,000, doubling up to 64,000, and at 10,000, 20,000 and 40,000,
`validate` runs once in a fresh interpreter through `amalgam.cli.main`.  The
package is imported from DIR/src, this checkout's by default, so one copy of
the script times any commit.  Once a run takes longer than --cap seconds, the
larger sizes are skipped.  The result is one JSON object: the machine, the
Python version, the timed checkout's git commit, the sizes, and per size the
seconds of the call alone, the child's peak RSS, the exit code and a digest
of the output (sha256 over what the call printed).  With --out, the file
holds one such object per --label (default `change`); a label already in it
is replaced and the others are kept, so one file can hold a parent's curve
beside its change's.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "tools"))
from bench_pairs import commit, cpu_model  # noqa: E402

SIZES = sorted([1000 * 2**k for k in range(7)] + [10_000, 20_000, 40_000])

CHILD = """
import contextlib, hashlib, io, json, resource, sys, time
sys.path.insert(0, sys.argv[1])
from amalgam import cli
out = io.StringIO()
t0 = time.perf_counter()
with contextlib.redirect_stdout(out):
    code = cli.main(["validate", "-g", sys.argv[2]])
seconds = time.perf_counter() - t0
print(json.dumps({
    "seconds": seconds,
    "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    "exit_code": code,
    "digest": hashlib.sha256(out.getvalue().encode()).hexdigest(),
}))
"""


def wide_file(n: int) -> str:
    """The presentation's text: two factors of n generators and n squares paired."""
    lines = ["A: " + " ".join(f"a{i}" for i in range(n))]
    lines += ["B: " + " ".join(f"x{i}" for i in range(n))]
    lines += [f"C: a{i}^2 = x{i}^2" for i in range(n)]
    return "\n".join(lines) + "\n"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--src", default=ROOT, help="checkout whose src/ is timed")
    ap.add_argument("--cap", type=float, default=10.0, help="seconds after which the curve stops")
    ap.add_argument("--out", default="", help="write the JSON here as well as to stdout")
    ap.add_argument("--label", default="change", help="the curve's key in the --out file")
    args = ap.parse_args()
    src = os.path.join(os.path.abspath(args.src), "src")
    points: dict[str, object] = {}
    capped = False
    with tempfile.TemporaryDirectory() as tmp:
        for n in SIZES:
            if capped:
                points[str(n)] = None
                continue
            path = os.path.join(tmp, f"wide-{n}.txt")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(wide_file(n))
            proc = subprocess.run([sys.executable, "-c", CHILD, src, path],
                                  capture_output=True, text=True, check=True)
            point = json.loads(proc.stdout.strip().splitlines()[-1])
            points[str(n)] = point
            capped = point["seconds"] > args.cap
            print(f"N = {n:>6,}: {point['seconds']:.3f} s", file=sys.stderr)
    result = {
        "presentation": "A: a0..a(N-1), B: x0..x(N-1), C: ai^2 = xi^2 for i < N",
        "command": "validate, one fresh process per point",
        "machine": {"nproc": os.cpu_count(), "cpu_model": cpu_model()},
        "python": platform.python_version(),
        "commit": commit(args.src),
        "cap_s": args.cap,
        "sizes": SIZES,
        "points": points,
    }
    text = json.dumps(result, indent=1)
    if args.out:
        curves = {}
        if os.path.exists(args.out):
            with open(args.out, encoding="utf-8") as fh:
                curves = json.load(fh)
        curves[args.label] = result
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(curves, indent=1) + "\n")
    print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())

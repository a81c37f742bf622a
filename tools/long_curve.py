"""Time conjugacy search, cr_membership and cyclic_form on long words of the first paper example.

    python3 tools/long_curve.py [--src DIR] [--cap SECONDS] [--mem MIB] [--out FILE] [--label NAME]

The group is paper-ex1, F(a,b,d) * F(x,y,z) amalgamated over <a^2, b> =
<x, y^2>.  A generic word of n letters alternates d^±1 and z^±1 with random
signs, so each letter is a syllable and its cyclic length is n.  The series:

- `conj-conjugate`: `conjugacy_search(u, v)`, v the half rotation of u,
  at n = 1,000 doubling to 16,000;
- `conj-not-conjugate`: `conjugacy_search(u, v)`, v another generic word
  of n letters, at the same sizes;
- `cr-membership`: `cr_membership(u)` at n = 2,000 doubling to 16,000;
- `cyclic-form`: `cyclic_form(X d y ~X)`, X generic, at 2^13 + 2 doubling
  to 2^19 + 2 letters, keyed by the whole length;
- `cli-conj`: `amalgam conj` on the conjugate pair through `amalgam.cli.main`,
  the presentation read from a file, at n = 4,000 doubling to 16,000.

Each point runs once in a fresh interpreter, which first limits its own
address space to --mem MiB (RLIMIT_AS; 1,024 by default) and builds its
inputs from a fixed seed, then times the call alone.  The package is imported
from DIR/src, this checkout's by default, so one copy of the script times any
commit.  A point records the seconds, the child's peak RSS, the exit code and
a digest (sha256 over the result's letters, or over what the CLI printed); a
child that dies (a `MemoryError` under the limit, say) records its exit code
and the last line of its stderr.  Once a point fails or takes longer than
--cap seconds, the larger sizes of its series are skipped.  The result is one
JSON object: the machine, the Python version, the timed checkout's git commit,
the sizes and the points.  With --out, the file holds one such object per
--label (default `change`); a label already in it is replaced and the others
are kept, so one file can hold a parent's curves beside its change's.
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

SERIES = {
    "conj-conjugate": [1000 * 2**k for k in range(5)],
    "conj-not-conjugate": [1000 * 2**k for k in range(5)],
    "cr-membership": [2000 * 2**k for k in range(4)],
    "cyclic-form": [2**k + 2 for k in range(13, 20)],
    "cli-conj": [4000 * 2**k for k in range(3)],
}
SEED = 1
PRESENTATION = "A: a b d\nB: x y z\nC: a^2 = x\nC: b = y^2\n"

CHILD = """
import contextlib, hashlib, io, json, random, resource, sys, time
src, series, n, mem, path = sys.argv[1], sys.argv[2], int(sys.argv[3]), int(sys.argv[4]), sys.argv[5]
resource.setrlimit(resource.RLIMIT_AS, (mem * 2**20, mem * 2**20))
sys.path.insert(0, src)
from amalgam import cli, group
from amalgam.fixtures import example_one_context
from amalgam.words import parse_word

rng = random.Random(int(sys.argv[6]))


def generic(k):
    return " ".join("dz"[i % 2] + rng.choice(("", "^-1")) for i in range(k))


ctx = example_one_context(2)
up = lambda text: parse_word(text, ctx.union_alphabet)
if series == "cyclic-form":
    x = up(generic((n - 2) // 2))
    w = x * up("d y") * ~x
    call = lambda: group.cyclic_form(ctx, w)
    letters = lambda cf: (cf.form.head_letters, cf.form.syllable_letters, cf.conjugator.letters)
elif series == "cr-membership":
    u = up(generic(n))
    call = lambda: group.cr_membership(ctx, u)
    letters = lambda out: (out[0], out[1] and (out[1].form.syllable_letters, out[1].conjugator.letters))
else:
    u = generic(n)
    toks = u.split()
    v = " ".join(toks[n // 2:] + toks[:n // 2]) if series != "conj-not-conjugate" else generic(n)
    if series == "cli-conj":
        out = io.StringIO()
        call = lambda: cli.main(["conj", "-g", path, "-u", u, "-v", v])
    else:
        u, v = up(u), up(v)
        call = lambda: group.conjugacy_search(ctx, u, v)
        letters = lambda o: (o.tag, o.reason, o.conjugator and o.conjugator.letters)
t0 = time.perf_counter()
if series == "cli-conj":
    with contextlib.redirect_stdout(out):
        code = call()
    result = out.getvalue()
else:
    code, result = 0, repr(letters(call()))
seconds = time.perf_counter() - t0
print(json.dumps({
    "seconds": seconds,
    "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    "exit_code": code,
    "digest": hashlib.sha256(result.encode()).hexdigest(),
}))
"""


def run_point(src: str, series: str, n: int, mem: int, path: str) -> dict:
    """One point in a fresh interpreter: its record, or its exit code and error line."""
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, src, series, str(n), str(mem), path, str(SEED)],
        capture_output=True, text=True,
    )
    if proc.returncode == 0:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    lines = proc.stderr.strip().splitlines()
    return {"seconds": None, "peak_rss_mb": None, "exit_code": proc.returncode,
            "error": lines[-1] if lines else ""}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--src", default=ROOT, help="checkout whose src/ is timed")
    ap.add_argument("--cap", type=float, default=10.0, help="seconds after which a series stops")
    ap.add_argument("--mem", type=int, default=1024, help="each child's address-space limit, MiB")
    ap.add_argument("--out", default="", help="write the JSON here as well as to stdout")
    ap.add_argument("--label", default="change", help="the curves' key in the --out file")
    args = ap.parse_args()
    src = os.path.join(os.path.abspath(args.src), "src")
    points: dict[str, dict[str, object]] = {}
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "ex1.group")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(PRESENTATION)
        for series, sizes in SERIES.items():
            stopped = False
            points[series] = {}
            for n in sizes:
                if stopped:
                    points[series][str(n)] = None
                    continue
                point = run_point(src, series, n, args.mem, path)
                points[series][str(n)] = point
                stopped = point["exit_code"] != 0 or point["seconds"] > args.cap
                shown = "exit %d: %s" % (point["exit_code"], point.get("error", "")) \
                    if point["seconds"] is None else f"{point['seconds']:.3f} s"
                print(f"{series} n = {n:>7,}: {shown}", file=sys.stderr)
    result = {
        "presentation": "paper-ex1: A: a b d, B: x y z, C: a^2 = x, b = y^2",
        "words": "generic: n letters alternating d^±1 and z^±1, random signs, seed %d" % SEED,
        "command": "one fresh process per point, RLIMIT_AS set in the child",
        "machine": {"nproc": os.cpu_count(), "cpu_model": cpu_model()},
        "python": platform.python_version(),
        "commit": commit(args.src),
        "cap_s": args.cap,
        "mem_limit_mib": args.mem,
        "sizes": SERIES,
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

"""Time one scaling series of the package, one fresh interpreter per point.

    python3 tools/curve.py --series NAME [--src DIR ...] [--cap SECONDS] [--mem MIB]
        [--out FILE] [--label NAME]

A point's interpreter limits its address space to --mem MiB (RLIMIT_AS),
imports DIR/src of its --src (by default this checkout), builds the inputs
and times the call alone.  It records the seconds, its peak RSS, its exit code
(the CLI's, on a CLI series), a sha256 digest of the result and the series'
own fields, or, if it dies, its exit code and last stderr line.  Once a point
fails or takes longer than --cap seconds, that checkout's larger sizes are
skipped.  Rounds keep each figure at its lowest and alternate which --src
runs first.  --out merges the record into a file under --label and series.

A series is a row of `SERIES`: sizes n, a builder, its data and rounds.  The
child calls `build(n, tmp, **data)`, which writes any file under tmp and
returns the timed call and a reader: the text to hash and the point's fields.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import resource
import subprocess
import sys
import tempfile
import time
from collections import namedtuple
from pathlib import Path

from bench_pairs import commit, machine

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOOLS = os.path.join(ROOT, "tools")

CHILD = "import sys; sys.path.insert(0, sys.argv[1]); import curve; curve.child(*sys.argv[2:])"


def _cli(argv: list[str], tmp: str, text: str):
    """`amalgam.cli.main(argv)` on `-g` a file holding `text`; the digest hashes its output."""
    from amalgam import cli

    path = os.path.join(tmp, "group.txt")
    Path(path).write_text(text, encoding="utf-8")
    out = io.StringIO()

    def call():
        with contextlib.redirect_stdout(out):
            return cli.main([argv[0], "-g", path, *argv[1:]])

    return call, lambda code: (out.getvalue(), {"exit_code": code})


def bz(n: int, tmp: str, sweep: str):
    """`sweep` (`normal_form` or `reduced_form`) of (b z)^(n/2) on ex1 (p = 2), empty cache:
    b lies in C_A and transfers to y^2, so every sweep step is a join."""
    from amalgam import group
    from amalgam.fixtures import example_one_context
    from amalgam.words import parse_word

    ctx = example_one_context(2)
    word, run = parse_word("b z", ctx.union_alphabet) ** (n // 2), getattr(group, sweep)
    return (lambda: run(ctx, word),
            lambda f: (repr((f.head_side, f.head_letters, f.syllable_letters)),
                       {"syllables": len(f.syllable_letters)}))


def wide_validate(n: int, tmp: str):
    """`amalgam validate` on A: a0..a(n-1), B: x0..x(n-1), C: ai^2 = xi^2 for i < n."""
    lines = [f"{side}: " + " ".join(f"{g}{i}" for i in range(n)) for side, g in ("Aa", "Bx")]
    text = "\n".join(lines + [f"C: a{i}^2 = x{i}^2" for i in range(n)]) + "\n"
    return _cli(["validate"], tmp, text)


def wide_meet(n: int, tmp: str):
    """`stallings.meet(C, C)` of the rose of n petals ai^2, the wide presentation's C graph."""
    from amalgam import stallings
    from amalgam.words import Alphabet

    rose = stallings.fold([(i, i) for i in range(1, n + 1)], Alphabet(f"a{i}" for i in range(n)))
    return (lambda: stallings.meet(rose, rose),
            lambda out: (repr((sorted(out[0].moves.items()), out[1])), {}))


def circle_transversal(n: int, tmp: str):
    """`amalgam transversal` on A: a, B: x, C: a^n = x^n, whose C graphs are n-state circles."""
    return _cli(["transversal"], tmp, f"A: a\nB: x\nC: a^{n} = x^{n}\n")


def _ex1(seed: int):
    """ex1 (p = 2), a maker of generic words from `seed`, and a parser.  A generic word of k
    letters alternates d^±1 and z^±1 with random signs, so each letter is a syllable."""
    from amalgam.fixtures import example_one_context
    from amalgam.words import parse_word

    rng, ctx = random.Random(seed), example_one_context(2)
    generic = lambda k: " ".join("dz"[i % 2] + rng.choice(("", "^-1")) for i in range(k))
    return ctx, generic, lambda text: parse_word(text, ctx.union_alphabet)


def _pair(n: int, generic, rotate: bool) -> tuple[str, str]:
    u = generic(n)
    toks = u.split()
    return u, " ".join(toks[n // 2:] + toks[:n // 2]) if rotate else generic(n)


def conj(n: int, tmp: str, seed: int, rotate: bool):
    """`conjugacy_search(u, v)` on ex1, u generic, v its half rotation or another generic."""
    from amalgam import group

    ctx, generic, up = _ex1(seed)
    u, v = map(up, _pair(n, generic, rotate))
    return (lambda: group.conjugacy_search(ctx, u, v),
            lambda o: (repr((o.tag, o.reason, o.conjugator and o.conjugator.letters)), {}))


def cli_conj(n: int, tmp: str, seed: int):
    """`amalgam conj` on `conj`'s conjugate pair, ex1 read from a file."""
    _, generic, _ = _ex1(seed)
    u, v = _pair(n, generic, True)
    text = "A: a b d\nB: x y z\nC: a^2 = x\nC: b = y^2\n"
    return _cli(["conj", "-u", u, "-v", v], tmp, text)


def cr_membership(n: int, tmp: str, seed: int):
    """`cr_membership(u)` on ex1, u generic of n letters."""
    from amalgam import group

    ctx, generic, up = _ex1(seed)
    u = up(generic(n))
    return (lambda: group.cr_membership(ctx, u),
            lambda o: (repr((o[0], o[1] and (o[1].form.syllable_letters,
                                             o[1].conjugator.letters))), {}))


def cyclic_form(n: int, tmp: str, seed: int):
    """`cyclic_form(X d y ~X)` on ex1, X generic, n the whole length."""
    from amalgam import group

    ctx, generic, up = _ex1(seed)
    x = up(generic((n - 2) // 2))
    w = x * up("d y") * ~x
    return (lambda: group.cyclic_form(ctx, w),
            lambda cf: (repr((cf.form.head_letters, cf.form.syllable_letters,
                              cf.conjugator.letters)), {}))


def sweep(n: int, tmp: str, lengths: list[int], words: int, repeats: int):
    """`normal_form` per word on ex1 (p = 2) and workloads' random rank-3 presentation, `words`
    random words of each length up to n: the best of `repeats` passes, warm (the step memo
    knows every step, the pass timed whole) and cold (the cache cleared untimed per word)."""
    import gen
    import workloads
    from amalgam import group
    from amalgam.fixtures import example_one_context
    from amalgam.words import Word

    contexts = {"ex1-p2": example_one_context(2), "random-rank3": group.build_context(
        *workloads.WordProblem(0, "").presentations[3].arguments())}

    def call():
        us, forms = {}, []
        for name, ctx in contexts.items():
            for k in (k for k in lengths if k <= n):
                rng, union = random.Random(f"sweep:{name}:{k}"), ctx.union_alphabet
                ws = [Word(union, gen.random_reduced(rng, len(union), k)) for _ in range(words)]
                cold = []
                for _ in range(repeats):
                    busy = 0.0
                    for w in ws:
                        ctx.cache.clear()
                        t0 = time.perf_counter()
                        group.normal_form(ctx, w)
                        busy += time.perf_counter() - t0
                    cold.append(busy)
                forms += [group.normal_form(ctx, w) for w in ws]  # the memo now knows every step
                warm = []
                for _ in range(repeats):
                    t0 = time.perf_counter()
                    for w in ws:
                        group.normal_form(ctx, w)
                    warm.append(time.perf_counter() - t0)
                us.setdefault(name, {})[str(k)] = {"warm_us": round(min(warm) / words * 1e6, 3),
                                                   "cold_us": round(min(cold) / words * 1e6, 3)}
        return us, forms

    return call, lambda out: ("".join(repr((f.head_side, f.head_letters, f.syllable_letters))
                                      for f in out[1]), {"us_per_word": out[0]})


Series = namedtuple("Series", "sizes build data rounds", defaults=({}, 1))

BZ = [4000 * 2**k for k in range(10)] + [2**21]
LONG = [1000 * 2**k for k in range(5)]
SERIES = {
    "bz-normal-form": Series(BZ, bz, {"sweep": "normal_form"}),
    "bz-reduced-form": Series(BZ, bz, {"sweep": "reduced_form"}),
    "wide-validate": Series(sorted([1000 * 2**k for k in range(7)] + [10_000, 20_000, 40_000]),
                            wide_validate),
    "wide-meet": Series([1000 * 2**k for k in range(7)], wide_meet),
    "circle-transversal": Series([200 * 2**k for k in range(7)], circle_transversal),
    "conj-conjugate": Series(LONG, conj, {"seed": 1, "rotate": True}),
    "conj-not-conjugate": Series(LONG, conj, {"seed": 1, "rotate": False}),
    "cr-membership": Series(LONG[1:], cr_membership, {"seed": 1}),
    "cyclic-form": Series([2**k + 2 for k in range(13, 20)], cyclic_form, {"seed": 1}),
    "cli-conj": Series(LONG[2:], cli_conj, {"seed": 1}),
    "sweep": Series([256], sweep, {"lengths": [2, 4, 8, 40, 256], "words": 200, "repeats": 7},
                    rounds=5),
}


def child(src: str, build: str, n: str, mem: str, tmp: str, data: str) -> None:
    """One point, inside the interpreter that `run_point` starts: print its record."""
    resource.setrlimit(resource.RLIMIT_AS, (int(mem) * 2**20,) * 2)
    # the sweep series reads the word-problem workload's presentation from layerbench/
    sys.path[:0] = [os.path.join(src, "src"), os.path.join(src, "layerbench")]
    call, read = globals()[build](int(n), tmp, **json.loads(data))
    t0 = time.perf_counter()
    result = call()
    seconds = time.perf_counter() - t0
    text, fields = read(result)
    print(json.dumps({"seconds": seconds,
                      "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                      "exit_code": 0, "digest": hashlib.sha256(text.encode()).hexdigest(),
                      **fields}))


def run_point(src: str, series: Series, n: int, mem: int, tmp: str) -> dict:
    """One point of checkout `src` in a fresh interpreter: its record, or its error."""
    proc = subprocess.run([sys.executable, "-c", CHILD, TOOLS, src, series.build.__name__, str(n),
                           str(mem), tmp, json.dumps(series.data)], capture_output=True, text=True)
    if proc.returncode == 0:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    lines = proc.stderr.strip().splitlines()
    return {"seconds": None, "peak_rss_mb": None, "exit_code": proc.returncode,
            "error": lines[-1] if lines else ""}


def best(a, b):
    """Two rounds' records of one point: each figure at its lowest; the rest must agree."""
    if isinstance(a, dict):
        return {k: best(v, b[k]) for k, v in a.items()}
    if isinstance(a, float):
        return min(a, b)
    if a != b:
        raise SystemExit(f"a point's output differs between rounds: {a!r} != {b!r}")
    return a


def run(name: str, srcs: list[str], cap: float, mem: int) -> dict:
    """The series' record over the checkouts `srcs`."""
    series = SERIES[name]
    points = {src: dict.fromkeys(map(str, series.sizes)) for src in srcs}
    stopped: set[str] = set()
    with tempfile.TemporaryDirectory() as tmp:
        for n in series.sizes:
            for r in range(series.rounds):
                for src in srcs if r % 2 == 0 else srcs[::-1]:
                    old = points[src][str(n)]
                    if src in stopped or (old and old["exit_code"]):
                        continue
                    new = run_point(src, series, n, mem, tmp)
                    points[src][str(n)] = new if old is None or new["exit_code"] else best(old, new)
                    print(name, os.path.basename(src), f"round {r} n = {n:,}:",
                          new["seconds"] or new, file=sys.stderr, flush=True)
            stopped.update(src for src in srcs if src not in stopped and (
                points[src][str(n)]["exit_code"] or points[src][str(n)]["seconds"] > cap))
    return {
        "series": name,
        "what": " ".join(series.build.__doc__.split()),
        "data": series.data,
        "method": "one fresh interpreter per point and round, RLIMIT_AS set in the child; each "
                  "figure the lowest over the rounds, which alternate the checkout run first",
        "machine": machine(),
        "cap_s": cap,
        "mem_limit_mib": mem,
        "rounds": series.rounds,
        "runs": [{"checkout": os.path.basename(src), "commit": commit(src), "points": points[src]}
                 for src in srcs],
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--series", required=True, choices=SERIES)
    ap.add_argument("--src", action="append",
                    help="checkout whose src/ is timed; repeat it to compare commits")
    ap.add_argument("--cap", type=float, default=10.0, help="seconds after which a series stops")
    ap.add_argument("--mem", type=int, default=1024, help="each child's address-space limit, MiB")
    ap.add_argument("--out", default="", help="merge the record into this JSON file")
    ap.add_argument("--label", default="change", help="the record's key in the --out file")
    args = ap.parse_args()
    record = run(args.series, [os.path.abspath(s) for s in args.src or [ROOT]], args.cap, args.mem)
    if args.out:
        out = Path(args.out)
        curves = json.loads(out.read_text(encoding="utf-8")) if out.exists() else {}
        curves.setdefault(args.label, {})[args.series] = record
        out.write_text(json.dumps(curves, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(record, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())

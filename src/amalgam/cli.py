"""Command-line surface: presentation parsing, queries, and the benchmark harness.

Exit codes: 0 decided/success, 2 parse or parameter error, 3 invalid
presentation, 4 conjugacy undecided.
"""

from __future__ import annotations

import argparse
import ast
import functools
import json
import random
import re
import sys
import time
from collections import deque
from dataclasses import asdict, dataclass, field
from typing import Optional

from .fixtures import example_one_context, example_two_context
from .group import (
    AmalgamContext,
    CANONICAL,
    InvalidPresentationError,
    RepPolicy,
    build_context,
    classify,
    conjugacy_search,
    cyclic_form,
    normal_form,
    reduced_form,
)
from .stallings import SubgroupGraph
from .words import (
    _SHOWN, MAX_LETTERS, Alphabet, Word, WordSyntaxError, _quote, format_word, parse_word
)

EXIT_OK = 0
EXIT_SYNTAX = 2
EXIT_INVALID = 3
EXIT_UNDECIDED = 4


class PresentationSyntaxError(ValueError):
    def __init__(self, message: str, line: int, column: int = 1):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


@dataclass
class PresentationFile:
    alphabet_a: Alphabet
    alphabet_b: Alphabet
    pairs: tuple[tuple[Word, Word], ...]

    def context(self) -> AmalgamContext:
        return build_context(self.alphabet_a, self.alphabet_b, self.pairs)


def _names(line: str, start: int, lineno: int) -> Alphabet:
    """The generators named in line[start:]; the first bad or repeated one is placed in the file."""
    try:
        return Alphabet(line[start:].split())
    except ValueError:
        seen: set[str] = set()
        for m in re.finditer(r"\S+", line[start:]):
            name, column = m.group(), start + m.start() + 1
            try:
                if name in seen:
                    raise ValueError(f"duplicate generator name {_quote(name)}")
                Alphabet((name,))  # the name's own check
            except ValueError as exc:
                raise PresentationSyntaxError(str(exc), lineno, column) from None
            seen.add(name)
        raise


def parse_presentation(text: str) -> PresentationFile:
    """Line-oriented group file: one A: and B: line, one C: line per pair; errors carry their place."""
    alphabets: dict[str, Alphabet] = {}  # "A" and "B"
    words: list[tuple[int, int, str, str]] = []  # line, column, text and side of each C: word
    for lineno, raw_line in enumerate(text.splitlines(), 1):
        line = raw_line.split("#", 1)[0]
        if not line.strip():
            continue
        tag, colon, rest = line.partition(":")
        if not colon:
            raise PresentationSyntaxError("expected 'A:', 'B:' or 'C:'", lineno)
        tag, start = tag.strip(), len(line) - len(rest)
        if tag == "A" or tag == "B":
            if tag in alphabets:
                raise PresentationSyntaxError(f"duplicate {tag}: line", lineno)
            if not rest.split():
                raise PresentationSyntaxError(f"empty {tag}: line", lineno)
            alphabets[tag] = _names(line, start, lineno)
        elif tag == "C":
            left, eq, right = rest.partition("=")
            if not eq:
                raise PresentationSyntaxError("C: line needs 'word = word'", lineno)
            words += [(lineno, start + 1, left, "A"), (lineno, start + len(left) + 2, right, "B")]
        else:
            raise PresentationSyntaxError(f"unknown tag {_quote(tag)}", lineno)
    for tag in "AB":
        if tag not in alphabets:
            raise PresentationSyntaxError(f"missing {tag}: line", 1)
    if not words:
        raise PresentationSyntaxError("missing C: lines", 1)
    parsed = []
    for lineno, column, word, side in words:
        try:
            parsed.append(parse_word(word, alphabets[side]))
        except WordSyntaxError as exc:  # its column counts from the word's start
            message = str(exc).split(": ", 1)[1]
            raise PresentationSyntaxError(message, lineno, column + exc.column - 1) from None
    pairs = tuple(zip(parsed[::2], parsed[1::2]))
    return PresentationFile(alphabets["A"], alphabets["B"], pairs)


def _load_context(path: str) -> AmalgamContext:
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise PresentationSyntaxError(str(exc), 0)
    # splitlines ends a line at \r\n and \r as the text mode's newline translation did
    return parse_presentation(data.decode("utf-8")).context()


def _parse_policy(text: str) -> RepPolicy:
    if text == "canonical":
        return CANONICAL
    if text.startswith("paper-ex1:"):
        try:  # a p that is not an int, or below 2
            return RepPolicy.paper_example_one(int(text.split(":", 1)[1]))
        except ValueError:
            pass
    raise argparse.ArgumentTypeError(f"bad policy {_quote(text)}")


# --- output helpers -----------------------------------------------------------


def _side_word(side: str, w: Word) -> dict:
    return {"side": side, "word": format_word(w)}


def _emit(args, payload: dict, lines: list[str]) -> None:
    if args.json:
        base = {
            "verdict": None,
            "normal_form": None,
            "head": None,
            "conjugator": None,
            "trace": None,
            "reason": None,
        }
        base.update(payload)
        print(json.dumps(base, sort_keys=True))
    else:
        for line in lines:
            print(line)


def _emit_form(args, form, lines: list[str], extra: dict) -> int:
    """Print the form's line and the command's `lines`, or its JSON plus `extra` keys."""
    if args.json:
        sylls = [_side_word(s.side, s.word) for s in form.syllables]
        payload = {"verdict": "ok", "normal_form": sylls, "head": _side_word(form.head_side, form.head)}
        _emit(args, payload | extra, [])
    else:
        head = format_word(form.head) or "1"
        sylls = "".join(f"  [{s.side}] {format_word(s.word)}" for s in form.syllables)
        _emit(args, {}, [f"head[{form.head_side}] {head}{sylls}", *lines])
    return EXIT_OK


# --- subcommands ----------------------------------------------------------------


def _cmd_validate(args) -> int:
    ctx = _load_context(args.group)
    rank, mal_a, mal_b = ctx.graph_ca.rank, ctx.malnormal_a, ctx.malnormal_b
    lines = [
        "valid presentation",
        f"rank of C: {rank}",
        f"malnormal in A: {mal_a}",
        f"malnormal in B: {mal_b}",
        f"double transversal sizes: A={len(ctx.transversal_a)} B={len(ctx.transversal_b)}",
    ]
    reason = f"rank {rank}, malnormal A={mal_a} B={mal_b}"
    _emit(args, {"verdict": "valid", "reason": reason}, lines)
    return EXIT_OK


def _cmd_nf(args) -> int:
    ctx = _load_context(args.group)
    trace: Optional[list[int]] = [] if args.trace else None
    nf = normal_form(ctx, parse_word(args.word, ctx.union_alphabet), args.policy, trace=trace)
    lines = [f"syllable length: {nf.syllable_length}"]
    if trace is not None:
        lines.append("head lengths: " + " ".join(map(str, trace)))
    return _emit_form(args, nf, lines, {"trace": trace})


def _cmd_reduce(args) -> int:
    ctx = _load_context(args.group)
    rf = reduced_form(ctx, parse_word(args.word, ctx.union_alphabet))
    return _emit_form(args, rf, [f"syllable length: {rf.syllable_length}"], {})


def _cmd_cyclic(args) -> int:
    ctx = _load_context(args.group)
    cf = cyclic_form(ctx, parse_word(args.word, ctx.union_alphabet), args.policy)
    lines = [
        f"cyclic length: {cf.cyclic_length}",
        f"conjugator: {format_word(cf.conjugator) or '1'}",
    ]
    return _emit_form(args, cf.form, lines, {"conjugator": format_word(cf.conjugator)})


def _cmd_classify(args) -> int:
    ctx = _load_context(args.group)
    w = parse_word(args.word, ctx.union_alphabet)
    report = classify(ctx, w, args.policy)
    lines = [report.verdict]
    if report.witness_kind:
        lines.append(f"witness ({report.witness_kind}):")
        lines.extend(
            f"  {name}[{side}] = {format_word(word) or '1'}"
            for name, side, word in report.witness
        )
    _emit(args, {"verdict": report.verdict, "reason": report.detail or None}, lines)
    return EXIT_OK


def _cmd_transversal(args) -> int:
    ctx = _load_context(args.group)
    words = {side: [format_word(t) for t in ts]
             for side, ts in (("A", ctx.transversal_a), ("B", ctx.transversal_b))}
    lines = [f"N*_{side}(C): " + ", ".join(w or "1" for w in ws) for side, ws in words.items()]
    _emit(args, {"verdict": "ok", "reason": json.dumps(words)}, lines)
    return EXIT_OK


def _cmd_conj(args) -> int:
    ctx = _load_context(args.group)
    u = parse_word(args.u, ctx.union_alphabet)
    v = parse_word(args.v, ctx.union_alphabet)
    out = conjugacy_search(ctx, u, v, args.policy)
    conjugator = None if out.conjugator is None else format_word(out.conjugator)
    lines = [out.tag]
    if conjugator is not None:
        lines.append(f"conjugator: {conjugator or '1'}")
    if out.reason:
        lines.append(f"reason: {out.reason}")
    payload = {"verdict": out.tag, "conjugator": conjugator, "reason": out.reason or None}
    _emit(args, payload, lines)
    return EXIT_UNDECIDED if out.tag == "undecided" else EXIT_OK


# --- benchmarks -------------------------------------------------------------------


@dataclass
class BenchReport:
    subcase: str
    policy: str
    k: int
    head_lengths: list[int]
    growth: list[float]
    elapsed: float
    final_head_length: int
    notes: dict = field(default_factory=dict)

    def json(self) -> dict:
        fields = asdict(self)
        notes = fields.pop("notes")
        return fields | notes


def _growth(trace: list[int]) -> list[float]:
    return [
        round(b / a, 4) if a else 0.0 for a, b in zip(trace, trace[1:])
    ]


def diameter(graph: SubgroupGraph) -> int:
    """Largest distance between two states, by a breadth-first search from each."""
    best = 0
    for start in range(graph.nstates):
        dist = {start: 0}
        queue = deque([start])
        while queue:
            v = queue.popleft()
            for lab in range(1, len(graph.alphabet) + 1):
                for slet in (lab, -lab):
                    w = graph.step(v, slet)
                    if w is not None and w not in dist:
                        dist[w] = dist[v] + 1
                        queue.append(w)
        best = max(best, max(dist.values()))
    return best


def bench_paper_ex1(p: int, m: int) -> list[BenchReport]:
    """Run (z d)^m x through both policies, reporting per-step head lengths."""
    ctx = example_one_context(p)
    z = Word(ctx.union_alphabet, (6,))
    d = Word(ctx.union_alphabet, (3,))
    x = Word(ctx.union_alphabet, (4,))
    w = (z * d) ** m * x
    head_bound = len(w) + 2 * max(diameter(ctx.graph_ca), diameter(ctx.graph_cb))
    reports = []
    for policy in (RepPolicy.paper_example_one(p), CANONICAL):
        trace: list[int] = []
        start = time.perf_counter()
        nf = normal_form(ctx, w, policy, trace=trace)
        elapsed = time.perf_counter() - start
        reports.append(
            BenchReport(
                "paper-ex1",
                policy.kind,
                len(trace),
                trace,
                _growth(trace),
                elapsed,
                len(nf.head),
                {"input_length": len(w), "head_bound": head_bound},
            )
        )
    return reports


def bench_paper_ex2(p: int, n: int) -> BenchReport:
    """Verify (b y)^-n a (b y)^n has the same normal form as a^(p^n)."""
    ctx = example_two_context(p)
    b = Word(ctx.union_alphabet, (2,))
    y = Word(ctx.union_alphabet, (4,))
    a = Word(ctx.union_alphabet, (1,))
    conj = (b * y) ** n
    lhs = ~conj * a * conj
    rhs = a ** (p**n)
    trace: list[int] = []
    start = time.perf_counter()
    nf_l = normal_form(ctx, lhs, trace=trace)
    nf_r = normal_form(ctx, rhs)
    elapsed = time.perf_counter() - start
    return BenchReport(
        "paper-ex2",
        "canonical",
        len(trace),
        trace,
        _growth(trace),
        elapsed,
        len(nf_l.head),
        {"identity_holds": nf_l == nf_r, "power": p**n},
    )


def bench_random(length: int, count: int, seed: int) -> BenchReport:
    """Random reduced words through the canonical policy; max head length seen."""
    ctx = example_one_context(2)
    rng = random.Random(seed)
    nlet = len(ctx.union_alphabet)
    worst = 0
    longest_trace: list[int] = []
    start = time.perf_counter()
    for _ in range(count):
        letters: list[int] = []
        while len(letters) < length:
            lt = rng.choice([s * i for i in range(1, nlet + 1) for s in (1, -1)])
            if letters and letters[-1] == -lt:
                continue
            letters.append(lt)
        trace: list[int] = []
        normal_form(ctx, Word(ctx.union_alphabet, letters), trace=trace)
        peak = max(trace, default=0)
        if peak >= worst:
            worst = peak
            longest_trace = trace
    elapsed = time.perf_counter() - start
    return BenchReport(
        "random",
        "canonical",
        len(longest_trace),
        longest_trace,
        _growth(longest_trace),
        elapsed,
        worst,
        {"samples": count, "input_length": length},
    )


def _bench_out_of_range(args) -> bool:
    """A parameter below its minimum, or a longest word past MAX_LETTERS letters.

    That word is the head p^(2m) for paper-ex1, p^n for paper-ex2 and the
    length x count sampled letters for random; no power is built.
    """
    if args.p < 2 or args.m < 1 or args.n < 1 or args.length < 1 or args.count < 1:
        return True
    if args.subcase == "random":
        return args.length * args.count > MAX_LETTERS
    e = 2 * args.m if args.subcase == "paper-ex1" else args.n
    # p >= 2, so p^e >= 2^e passes MAX_LETTERS once e reaches its bit length
    return e >= MAX_LETTERS.bit_length() or args.p**e > MAX_LETTERS


def _cmd_bench(args) -> int:
    if args.subcase == "paper-ex1":
        reports = bench_paper_ex1(args.p, args.m)
    elif args.subcase == "paper-ex2":
        reports = [bench_paper_ex2(args.p, args.n)]
    else:
        reports = [bench_random(args.length, args.count, args.seed)]
    if args.json:
        print(json.dumps([r.json() for r in reports], sort_keys=True))
    else:
        for r in reports:
            print(
                f"{r.subcase} policy={r.policy} steps={r.k} "
                f"final_head={r.final_head_length} time={r.elapsed:.4f}s"
            )
            print("  head lengths: " + " ".join(map(str, r.head_lengths)))
            if r.growth:
                print("  growth: " + " ".join(f"{g:g}" for g in r.growth))
            for key, value in r.notes.items():
                print(f"  {key}: {value}")
    return EXIT_OK


# --- entry point -------------------------------------------------------------------


# argparse's messages that repr the argument they reject
_ECHOED = re.compile(
    r"""(invalid choice: |invalid \w+ value: |ignored explicit argument )"""
    r"""('(?:[^'\\]|\\.)*'|"(?:[^"\\]|\\.)*")"""
)


class _Parser(argparse.ArgumentParser):
    """argparse with every argument its errors echo shortened by `_quote`."""

    def parse_args(self, args=None, namespace=None):
        argv = sys.argv[1:] if args is None else list(args)
        sub = self.commands.get(argv[0]) if argv and namespace is None else None
        if sub is None:  # no arguments, -h or an unknown command: through the main parser
            args, extras = self.parse_known_args(argv, namespace)
        else:  # what _SubParsersAction.__call__ does for a known command, whose
            # arguments are all its own while the main parser has no option but -h/--help
            args, extras = sub.parse_known_args(argv[1:])
            args.command = argv[0]
        if extras:
            shown = (arg if len(arg) <= _SHOWN else _quote(arg) for arg in extras)
            self.error("unrecognized arguments: " + " ".join(shown))
        return args

    def error(self, message):
        super().error(_ECHOED.sub(lambda m: m[1] + _quote(ast.literal_eval(m[2])), message))


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # cached: parse_args keeps no state, and help and errors are formatted when printed
    parser = _Parser(
        prog="amalgam",
        description="normal forms and conjugacy search in amalgams of free groups",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, word=False, pair=False, policy=True):
        sp.add_argument("-g", "--group", required=True, help="presentation file")
        if word:
            sp.add_argument("-w", "--word", required=True)
        if pair:
            sp.add_argument("-u", required=True)
            sp.add_argument("-v", required=True)
        if policy:  # a reduced form uses no coset representatives
            sp.add_argument(
                "--policy", type=_parse_policy, default=CANONICAL,
                help="canonical or paper-ex1:P",
            )
        sp.add_argument("--json", action="store_true")

    sp = sub.add_parser("validate")
    sp.add_argument("-g", "--group", required=True)
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=_cmd_validate)

    sp = sub.add_parser("nf")
    common(sp, word=True)
    sp.add_argument("--trace", action="store_true")
    sp.set_defaults(func=_cmd_nf)

    sp = sub.add_parser("reduce")
    common(sp, word=True, policy=False)
    sp.set_defaults(func=_cmd_reduce)

    sp = sub.add_parser("cyclic")
    common(sp, word=True)
    sp.set_defaults(func=_cmd_cyclic)

    sp = sub.add_parser("classify")
    common(sp, word=True)
    sp.set_defaults(func=_cmd_classify)

    sp = sub.add_parser("transversal")
    sp.add_argument("-g", "--group", required=True)
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=_cmd_transversal)

    sp = sub.add_parser("conj")
    common(sp, pair=True)
    sp.set_defaults(func=_cmd_conj)

    sp = sub.add_parser("bench")
    sp.add_argument("subcase", choices=("paper-ex1", "paper-ex2", "random"))
    sp.add_argument("-p", type=int, default=2)
    sp.add_argument("-m", type=int, default=3)
    sp.add_argument("-n", type=int, default=3)
    sp.add_argument("--length", type=int, default=12)
    sp.add_argument("--count", type=int, default=20)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=_cmd_bench)
    parser.commands = sub.choices  # `_Parser.parse_args` hands a known command straight on
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_SYNTAX if exc.code else EXIT_OK
    if getattr(args, "command", None) == "bench" and _bench_out_of_range(args):
        print("bench parameters out of range", file=sys.stderr)
        return EXIT_SYNTAX
    try:
        return args.func(args)
    except (PresentationSyntaxError, WordSyntaxError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SYNTAX
    except InvalidPresentationError as exc:
        print(f"invalid presentation: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SYNTAX


if __name__ == "__main__":
    sys.exit(main())

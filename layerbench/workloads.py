"""The four workloads: seeded inputs, set-up, queries and output checks.

A workload object is made from a seed (input generation, never timed), then
`setup()` builds every context it uses and runs a warm-up pass (timed as
`setup_s`).  `queries(tag)` yields an endless deterministic query stream;
`run(query)` is the one timed call into the program.  `record` reduces a
query and its output to plain data (ints, strings, tuples) right after the
query, without calling the program, and `check` verifies the records after
the timed phase.  Plain data keeps the benchmark's own bookkeeping out of the
garbage collector's way while the program is timed.  Every call into the
package goes through a module attribute (`group.normal_form`, `cli.main`), so
the tracer's rebinding reaches it.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from collections import deque
from itertools import count, islice
from typing import Iterator, Optional

import gen
from amalgam import cli, group, words
from amalgam.group import RepPolicy
from amalgam.words import Word

SETUP_SEED = 0


def form_key(nf) -> tuple:
    """A normal (or cyclically reduced) form as plain data."""
    return (nf.head_side, nf.head.letters, tuple((s.side, s.word.letters) for s in nf.syllables))


def _random_word(rng: random.Random, alphabet, lo: int, hi: int) -> Word:
    return Word(alphabet, gen.random_reduced(rng, len(alphabet), rng.randint(lo, hi)))


def _conjugate_pair(rng: random.Random, alphabet, known: bool) -> tuple[Word, Word]:
    """(g, ~z g z) with |g| in 1..8 and |z| in 0..6, or two unrelated words."""
    g = _random_word(rng, alphabet, 1, 8)
    if known:
        z = _random_word(rng, alphabet, 0, 6)
        return g, ~z * g * z
    return g, _random_word(rng, alphabet, 1, 8)


class Workload:
    name = ""
    warmup = 0  # warm-up queries per set-up
    cycle = 1  # the query mix repeats exactly every `cycle` queries
    # Queries per --seconds.  A run does a fixed amount of work, so its cache
    # contents, memory and tail percentile do not depend on the program's
    # speed.  The rates keep a run near --seconds of busy time at the commit
    # that added the benchmark, and keep the query count of a 12-second run
    # inside one band of the tail ladder (p99 for 1,000 to 9,999 queries, p90
    # for 100 to 999), where at least 24 samples lie beyond the percentile.
    rate = 1.0

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.presentations: list[gen.Presentation] = []
        self.contexts: list = []

    def query_count(self, seconds: float) -> int:
        """Queries in a run: seconds * rate, in whole cycles of the query mix."""
        return self.cycle * max(1, round(seconds * self.rate / self.cycle))

    def _rng(self, tag: str) -> random.Random:
        # The set-up (the random presentations and the warm-up queries) is the
        # same for every --seed: presentation costs differ several-fold, so
        # drawing them per seed would make runs on different seeds
        # incomparable.  The seed draws every timed query.
        seed = SETUP_SEED if tag in ("presentations", "warmup") else self.seed
        return random.Random(f"{seed}:{self.name}:{tag}")

    def build_contexts(self) -> None:
        self.contexts = [group.build_context(*p.arguments()) for p in self.presentations]

    def setup(self) -> None:
        self.build_contexts()
        for q in islice(self.queries("warmup"), self.warmup):
            self.prepare(q)
            self.run(q)

    def queries(self, tag: str) -> Iterator:
        raise NotImplementedError

    def prepare(self, q) -> None:
        """Untimed step before a query."""

    def run(self, q):
        raise NotImplementedError

    def record(self, q, out) -> tuple:
        raise NotImplementedError

    def check(self, rec: tuple, verdicts: dict) -> Optional[str]:
        raise NotImplementedError

    def sizes(self) -> dict:
        return {"presentations": [p.record() for p in self.presentations]}

    def notes(self, records) -> dict:
        """Observations worth keeping with the result."""
        return {}

    def close(self) -> None:
        """Remove what the workload wrote."""


# --- word-problem -----------------------------------------------------------------


class WordProblem(Workload):
    """Decide u == v in G by comparing normal forms, on warm contexts."""

    name = "word-problem"
    lengths = (8, 32, 32, 128, 256)
    warmup = 60
    rate = 750.0

    def __init__(self, seed: int, workdir: str):
        super().__init__(seed, workdir)
        rng = self._rng("presentations")
        self.presentations = [gen.fixture(n) for n in ("ex1-p2", "ex1-p3", "ex2-p2")] + [
            gen.random_presentation(rng, f"random-rank{r}", r) for r in (3, 4, 5)
        ]
        self.relators = [p.union_pair_letters() for p in self.presentations]
        self.cycle = 2 * len(self.presentations) * len(self.lengths)

    def queries(self, tag: str) -> Iterator:
        rng = self._rng(tag)
        schedule = [(ci, n) for n in self.lengths for ci in range(len(self.presentations))]
        for i in count():
            ci, n = schedule[i % len(schedule)]
            alphabet = self.contexts[ci].union_alphabet
            u = gen.random_reduced(rng, len(alphabet), n)
            equal = (i // len(schedule)) % 2 == 0
            if equal:
                v = list(u)
                for _ in range(2):
                    rel = rng.choice(self.relators[ci])
                    if rng.random() < 0.5:
                        rel = tuple(-lt for lt in reversed(rel))
                    pos = rng.randint(0, len(v))
                    v[pos:pos] = rel
                for _ in range(2):
                    lt = rng.choice((1, -1)) * rng.randint(1, len(alphabet))
                    pos = rng.randint(0, len(v))
                    v[pos:pos] = (lt, -lt)
            else:
                lt = rng.choice((1, -1)) * rng.randint(1, len(alphabet))
                v = list(u) + [lt]
            yield ci, Word(alphabet, u), Word(alphabet, v), equal

    def run(self, q):
        ci, u, v, _ = q
        ctx = self.contexts[ci]
        nu = group.normal_form(ctx, u)
        return nu == group.normal_form(ctx, v), nu

    def record(self, q, out):
        return q[0], q[3], out[0], form_key(out[1])

    def check(self, rec, verdicts):
        ci, expected, verdict, _ = rec
        if verdict != expected:
            return f"word problem on context {ci}: expected equal={expected}, got {verdict}"
        return None

    def sizes(self):
        return {**super().sizes(), "word_lengths": sorted(set(self.lengths)),
                "equal_pairs": "half: relators and cancellations inserted; half: one extra letter"}


# --- conjugacy ------------------------------------------------------------------------


class Conjugacy(Workload):
    """Warm-context stream of conjugacy_search (80%) and classify (20%) queries."""

    name = "conjugacy"
    warmup = 70
    rate = 800.0

    def __init__(self, seed: int, workdir: str):
        super().__init__(seed, workdir)
        rng = self._rng("presentations")
        self.presentations = [gen.fixture(n) for n in ("ex1-p2", "ex2-p2", "malnormal")] + [
            gen.random_presentation(rng, f"random-rank{r}", r) for r in (2, 3, 4, 5)
        ]
        self.cycle = 10 * len(self.presentations)

    def queries(self, tag: str) -> Iterator:
        rng = self._rng(tag)
        nctx = len(self.presentations)
        for i in count():
            ci = i % nctx
            alphabet = self.contexts[ci].union_alphabet
            if (i // nctx) % 5 == 4:
                yield "classify", ci, _random_word(rng, alphabet, 1, 8), None, None
            else:
                known = (i // nctx) % 2 == 0
                u, v = _conjugate_pair(rng, alphabet, known)
                yield "conj", ci, u, v, known

    def run(self, q):
        kind, ci, u, v, _ = q
        if kind == "classify":
            return group.classify(self.contexts[ci], u)
        return group.conjugacy_search(self.contexts[ci], u, v)

    def record(self, q, out):
        kind, ci, u, v, known = q
        if kind == "classify":
            return kind, ci, u.letters, out.verdict, out.witness_kind
        z = None if out.conjugator is None else out.conjugator.letters
        return kind, ci, u.letters, v.letters, known, out.tag, z

    def check(self, rec, verdicts):
        if rec[0] == "classify":
            verdict = rec[3]
            return None if verdict in ("regular", "singular") else f"classify returned {verdict!r}"
        _, ci, u, v, known, tag, z = rec
        return _check_conjugacy(self.contexts[ci], u, v, known, tag, z, verdicts)

    def sizes(self):
        return {**super().sizes(), "g_length": [1, 8], "z_length": [0, 6],
                "mix": "80% conjugacy_search (half (g, ~z g z), half random), 20% classify"}


def _check_conjugacy(ctx, u_letters, v_letters, known, tag, z_letters, verdicts) -> Optional[str]:
    """Count the verdict; verify any conjugator as normal_form(~z u z) == normal_form(v)."""
    verdicts[tag] = verdicts.get(tag, 0) + 1
    if tag == "conjugate":
        if z_letters is None:
            return "conjugate verdict without a conjugator"
        u, v, z = (Word(ctx.union_alphabet, ls) for ls in (u_letters, v_letters, z_letters))
        if group.normal_form(ctx, ~z * u * z) != group.normal_form(ctx, v):
            return f"unverified conjugator {words.format_word(z)!r}"
    elif tag == "not-conjugate":
        if known:
            return "a pair conjugate by construction was answered not-conjugate"
    elif tag != "undecided":
        return f"unknown verdict {tag!r}"
    return None


# --- cold-cli --------------------------------------------------------------------------


class ColdCli(Workload):
    """One in-process `amalgam` CLI call per query: parse, build_context, answer."""

    name = "cold-cli"
    commands = ("nf", "cyclic", "classify", "conj", "validate", "transversal")
    rate = 300.0

    def __init__(self, seed: int, workdir: str):
        super().__init__(seed, workdir)
        rng = self._rng("presentations")
        self.presentations = [gen.fixture(n) for n in ("ex1-p2", "ex2-p2", "malnormal")] + [
            gen.random_presentation(rng, f"random-rank{r}", r) for r in (2, 3, 4, 5)
        ]
        os.makedirs(workdir, exist_ok=True)
        self.files = []
        for p in self.presentations:
            path = os.path.join(workdir, f"{p.name}.txt")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(p.text())
            self.files.append(path)
        self._check_contexts: dict[int, object] = {}
        self.cycle = 2 * len(self.files) * len(self.commands)

    def setup(self) -> None:
        # the program keeps nothing between CLI calls; set-up is a warm-up
        # pass that validates every presentation file once
        for path in self.files:
            self.run(("validate", 0, ("validate", "-g", path, "--json"), None, None, None))

    def queries(self, tag: str) -> Iterator:
        rng = self._rng(tag)
        ncmd, nfile = len(self.commands), len(self.files)
        alphabets = [words.Alphabet(p.names_a + p.names_b) for p in self.presentations]
        for i in count():
            cmd = self.commands[i % ncmd]
            fi = (i // ncmd) % nfile
            path = self.files[fi]
            if cmd in ("validate", "transversal"):
                yield cmd, fi, (cmd, "-g", path, "--json"), None, None, None
            elif cmd == "conj":
                known = (i // (ncmd * nfile)) % 2 == 0
                u, v = _conjugate_pair(rng, alphabets[fi], known)
                argv = (cmd, "-g", path, "-u", words.format_word(u), "-v", words.format_word(v), "--json")
                yield cmd, fi, argv, u.letters, v.letters, known
            else:
                w = _random_word(rng, alphabets[fi], 4, 16)
                yield cmd, fi, (cmd, "-g", path, "-w", words.format_word(w), "--json"), w.letters, None, None

    def run(self, q):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(q[2]))
        return code, out.getvalue(), err.getvalue()

    def record(self, q, out):
        return (*q, *out)

    def _context(self, fi: int):
        if fi not in self._check_contexts:
            self._check_contexts[fi] = group.build_context(*self.presentations[fi].arguments())
        return self._check_contexts[fi]

    def check(self, rec, verdicts):
        cmd, fi, argv, w1, w2, known, code, out, err = rec
        if code not in (0, 4):
            return f"{' '.join(argv)}: exit code {code}: {err.strip()}"
        try:
            payload = json.loads(out.strip().splitlines()[-1])
        except (ValueError, IndexError):
            return f"{' '.join(argv)}: output is not JSON: {out!r}"
        ctx = self._context(fi)
        verdict = payload.get("verdict")
        if (code == 4) != (verdict == "undecided"):
            return f"{' '.join(argv)}: exit code {code} with verdict {verdict!r}"
        if cmd == "validate":
            return None if verdict == "valid" else f"validate said {verdict!r}"
        if cmd == "transversal":
            expect = {side: [words.format_word(t) for t in ts]
                      for side, ts in (("A", ctx.transversal_a), ("B", ctx.transversal_b))}
            return None if json.loads(payload["reason"]) == expect else "transversal mismatch"
        if cmd == "classify":
            expect = group.classify(ctx, Word(ctx.union_alphabet, w1)).verdict
            return None if verdict == expect else f"classify said {verdict!r}, library {expect!r}"
        if cmd == "nf":
            nf = group.normal_form(ctx, Word(ctx.union_alphabet, w1))
            expect = (
                {"side": nf.head_side, "word": words.format_word(nf.head)},
                [{"side": s.side, "word": words.format_word(s.word)} for s in nf.syllables],
            )
            if (payload["head"], payload["normal_form"]) != expect:
                return f"{' '.join(argv)}: normal form differs from the library's"
            return None
        if cmd == "cyclic":
            w = Word(ctx.union_alphabet, w1)
            z = words.parse_word(payload["conjugator"], ctx.union_alphabet)
            form = _parse_form(ctx, payload)
            if group.normal_form(ctx, z * form * ~z) != group.normal_form(ctx, w):
                return f"{' '.join(argv)}: cyclic form is not conjugate to the input"
            return None
        z = payload.get("conjugator")
        z_letters = None if z is None else words.parse_word(z, ctx.union_alphabet).letters
        return _check_conjugacy(ctx, w1, w2, known, verdict, z_letters, verdicts)

    def sizes(self):
        return {**super().sizes(), "commands": list(self.commands), "word_length": [4, 16],
                "g_length": [1, 8], "z_length": [0, 6]}

    def close(self) -> None:
        for path in self.files:
            if os.path.exists(path):
                os.remove(path)
        os.rmdir(self.workdir)


def _parse_form(ctx, payload: dict) -> Word:
    """The head and syllables of a CLI JSON form as one word over the union alphabet."""
    out = Word(ctx.union_alphabet, ())
    for part in [payload["head"], *payload["normal_form"]]:
        factor = ctx.factor_alphabet(part["side"])
        out = out * ctx.to_union(part["side"], words.parse_word(part["word"], factor))
    return out


# --- blowup ---------------------------------------------------------------------------


class Blowup(Workload):
    """The paper's worst cases, each query on an empty ctx.cache."""

    name = "blowup"
    # (kind, p, m or n); adversarial and canonical runs of (z d)^m x, and ex2
    cases = (("adversarial", 2, 8), ("adversarial", 3, 5), ("canonical", 2, 8),
             ("canonical", 3, 5), ("ex2-identity", 2, 12))
    warm_cases = (("adversarial", 2, 3), ("adversarial", 3, 2), ("canonical", 2, 3),
                  ("canonical", 3, 2), ("ex2-identity", 2, 4))
    warmup = len(warm_cases)
    cycle = len(cases)
    rate = 20.0

    def __init__(self, seed: int, workdir: str):
        super().__init__(seed, workdir)
        self.presentations = [gen.fixture(n) for n in ("ex1-p2", "ex1-p3", "ex2-p2")]
        self._diameters: dict[int, int] = {}

    def _context_index(self, kind: str, p: int) -> int:
        return 2 if kind == "ex2-identity" else p - 2

    def _query(self, case):
        kind, p, k = case
        ci = self._context_index(kind, p)
        alphabet = self.contexts[ci].union_alphabet
        if kind == "ex2-identity":
            a, b, y = (Word(alphabet, (i,)) for i in (1, 2, 4))
            conj = (b * y) ** k
            return case, ci, ~conj * a * conj, a ** (p ** k)
        z, d, x = (Word(alphabet, (i,)) for i in (6, 3, 4))
        return case, ci, (z * d) ** k * x, None

    def queries(self, tag: str) -> Iterator:
        rng = self._rng(tag)
        if tag == "warmup":
            yield from (self._query(c) for c in self.warm_cases)
            return
        while True:
            order = list(self.cases)
            rng.shuffle(order)
            yield from (self._query(c) for c in order)

    def prepare(self, q):
        # every query pays the transfers the paper counts
        self.contexts[q[1]].cache.clear()

    def run(self, q):
        (kind, p, k), ci, w, rhs = q
        ctx = self.contexts[ci]
        if kind == "ex2-identity":
            lhs = group.normal_form(ctx, w)
            return lhs == group.normal_form(ctx, rhs), lhs
        policy = RepPolicy.paper_example_one(p) if kind == "adversarial" else RepPolicy.canonical()
        trace: list[int] = []
        nf = group.normal_form(ctx, w, policy, trace)
        return nf, trace

    def record(self, q, out):
        case, ci, w, _ = q
        if case[0] == "ex2-identity":
            return case, ci, len(w.letters), out[0], len(out[1].head.letters)
        nf, trace = out
        return case, ci, len(w.letters), len(nf.head.letters), tuple(trace)

    def notes(self, records) -> dict:
        """Head length after every sweep step, once per case."""
        seen = {}
        for case, _, length, head, trace in records:
            if case[0] != "ex2-identity" and case not in seen:
                seen[case] = {"input_length": length, "final_head": head, "head_lengths": list(trace)}
        return {"/".join(map(str, case)): v for case, v in seen.items()}

    def _diameter(self, ci: int) -> int:
        """Largest distance between states of either C graph, by BFS over graph.step."""
        if ci not in self._diameters:
            ctx = self.contexts[ci]
            best = 0
            for g in (ctx.graph_ca.graph, ctx.graph_cb.graph):
                nlet = len(g.alphabet)
                for start in range(g.nstates):
                    dist = {start: 0}
                    frontier = deque([start])
                    while frontier:
                        s = frontier.popleft()
                        for lt in range(-nlet, nlet + 1):
                            t = g.step(s, lt) if lt else None
                            if t is not None and t not in dist:
                                dist[t] = dist[s] + 1
                                frontier.append(t)
                    best = max(best, max(dist.values()))
            self._diameters[ci] = best
        return self._diameters[ci]

    def check(self, rec, verdicts):
        (kind, p, k), ci, length, result, trace = rec
        if kind == "ex2-identity":
            return None if result else f"(b y)^-{k} a (b y)^{k} != a^({p}^{k})"
        head = result
        if kind == "adversarial":
            want = p ** (2 * k)
            return None if head == want else f"adversarial head {head}, expected p^(2m) = {want}"
        bound = length + 2 * self._diameter(ci)
        longest = max(head, *trace)
        return None if longest <= bound else f"canonical head {longest} exceeds |w| + 2 diam = {bound}"

    def sizes(self):
        return {**super().sizes(), "cases": [list(c) for c in self.cases],
                "cache": "cleared before every query"}


WORKLOADS = {w.name: w for w in (WordProblem, Conjugacy, ColdCli, Blowup)}

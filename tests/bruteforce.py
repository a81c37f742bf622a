"""Independent brute-force oracles used by the test suite.

Everything here works by enumeration and free reduction only, so it never
shares a code path with the machinery it checks (beyond plain word algebra
and graph tracing).  The conjugacy oracle and the cyclic permutations by
definition are the exceptions: they call `normal_form`, so they check the
conjugacy decider and the one-sweep permutations, not the word problem.
`double_transversal_with_pruning` is the older double transversal, which
re-checked every pair of candidates with `conjugate_by_copy` and a coset
`meet`; it checks that no candidate ever needs pruning.
`conjugate_by_copy`, `pullback_by_steps` and `coset_intersection_by_copy`
are the older meets, which copied a whole graph to conjugate it, copied
both transition tables to hang a coset representative on them and walked
the product once for the witness and again for the meet; `shift_by_copy`
is the older coset-algebra shift built on them.  They check the one
product walk, `stallings.meet`, which is the only meet in the package.
`conjugacy_search_two_calls` is the older cyclic-length >= 2 decision,
which solved again from v's regular permutation when u had none; it checks
that a regular permutation of v alone decides not-conjugate.
`reduced_form_by_rescan` is the older reduced form, which built `Syllable`
objects, merged neighbours with `_squash` and rescanned from the left for a
C-syllable after every transfer; it checks the one-pass `reduced_form`.
`principal_system_solve_two_pass` is the older principal-system solver,
which ran the D-recursion from the last syllable and then pulled its coset
back through the whole chain; it checks the one pass from the first
syllable.  `form_sides` spells a form's syllable sides for the references
and tests that compare them; the package compares first sides only.
`normal_form_unmemoised` is the older sweep, which ran every step and split
every join (a representative landing beside a syllable of its side) whole;
it checks the sweep that looks a repeated (side, syllable, carry) step up in
`ctx.cache` and grows a joined syllable in place.
`split_by_groupby` is the older block split, which grouped a word's union
letters by side with `itertools.groupby`; the two sweep references split with
it, so they share no splitter with the package's block codec, which it checks.
`transfer_through_basis` is the older transfer, which spelled a C-element
over the free basis of C and substituted the basis images letter by letter;
it checks the walk that multiplies the images of the fold's edge words.
`basis_images_by_generators` and `basis_edge_words` are the older context
construction, which spelled each basis element of C over the generators,
substituted the other side's targets and spread those images onto the basis
edges; `build_context_through_basis` runs the pairing check on them.  They
check the images that substitute the targets into the fold's edge words.
`express_in_generators` spells a member over the generators from the fold's
edge words, as a witness the tests substitute back.
`basis_words` is the older cached free basis: the loops through the
non-tree edges as `Word`s, the alphabet b1, b2, ... and the coordinate
edge words; `express_in_basis`, `cr0_conjugator_through_basis` and
`z_set_witness_through_basis` are the older routes through it.
`classify_through_basis`, `cr0_outcome_through_basis` and
`transfer_key_through_basis` run them where the package now reads the
basis loops off the graph: the witnesses of `classify`, the cyclic-length-0
branch of `conjugacy_search` and the coset transfer.
`adversarial_rep_by_cancellation` is the older `paper-ex1` representative,
which recovered the head by cancelling `w * ~rep` letter by letter; it
checks the head that `_rep` derives from the canonical one.
`walk_letter_by_letter` reads a word one lookup per letter, as the graph
does below `_RUN_MIN` letters; it checks the run walker of longer inputs.
`free_conjugacy_by_least_rotation` and `conjugacy_into_by_rotation_scan` are
the older cyclic-word searches, which built every rotation and traced each
one from every state; they check the searches that trace the core once.
`build_by_rose_folding` is the older fold, which kept the subdivided rose as
dicts of ends, labels and words and re-sorted a vertex's edges before every
fold; it checks that the fold on flat edge lists makes the same folds in the
same order, so every graph, tree and edge word is unchanged.
`renumber_by_alphabet_scan` is the older graph constructor's renumbering,
which tabled the trimmed edge map's moves, numbered the states breadth first
by looking up every signed letter of the alphabet at each state, and tabled
the moves again on the new numbers; it checks the constructor that walks each
state's own edges in the tie-break order and tables the moves once.
`double_transversal_by_count` is the older double transversal, which
counted the vertices and edges of every component of the product
(`product_components_by_count`) and kept those with a cycle; it checks the
rule that a product edge whose ends already share a root closes a cycle.
`parse_args_through_main` is the older `_Parser.parse_args`, which sent
every command line through the main parser and its subparsers action; it
checks the parser that hands a known command's arguments straight to that
command's subparser.
`parse_word_by_tokens` is the older word parser, which split the text on
whitespace, found each token's column with `str.index`, matched the token
against the grammar and built the word through the checking `Word`
constructor; it checks the one compiled scan of `parse_word`.
`transfer_word` is `AmalgamContext.transfer_letters` on a Word, for the
references that transfer Words.
"""

from __future__ import annotations

import argparse
import re
from collections import Counter, deque
from itertools import groupby, product
from typing import Optional, Sequence

from amalgam import group, words
from amalgam.cosetalg import CosetOfC, c_coset, shift, transfer
from amalgam.group import (
    CANONICAL,
    AmalgamContext,
    ConjugacyOutcome,
    InvalidPresentationError,
    NormalForm,
    RepPolicy,
    Syllable,
    cyclic_form,
    normal_form,
)
from amalgam.stallings import Edges, NotAMemberError, SubgroupGraph, _trim, build, meet
from amalgam.words import (
    Alphabet,
    VerificationError,
    Word,
    WordSyntaxError,
    _SHOWN,
    _quote,
    free_conjugacy,
    identity,
    letters_cyclic_reduce,
    letters_inverse,
    letters_product,
    substitute,
)


def transfer_word(ctx: AmalgamContext, side: str, w: Word) -> Word:
    """`ctx.transfer_letters` on a Word over the factor alphabet of `side`."""
    return Word(ctx.factor_alphabet(ctx.other(side)), ctx.transfer_letters(side, w.letters))


def reduced_words(alphabet: Alphabet, max_len: int) -> list[Word]:
    """All freely reduced words of length at most max_len, shortest first."""
    out = [identity(alphabet)]
    frontier: list[tuple[int, ...]] = [()]
    letters = [s * i for i in range(1, len(alphabet) + 1) for s in (1, -1)]
    for _ in range(max_len):
        nxt = []
        for ls in frontier:
            for lt in letters:
                if ls and ls[-1] == -lt:
                    continue
                ext = ls + (lt,)
                nxt.append(ext)
                out.append(Word(alphabet, ext))
        frontier = nxt
    return out


def subgroup_elements(g: SubgroupGraph, max_len: int) -> list[Word]:
    """All subgroup elements of reduced length at most max_len (loop words)."""
    letters = [s * i for i in range(1, len(g.alphabet) + 1) for s in (1, -1)]
    found = {(): True}
    stack = [(g.base, ())]
    while stack:
        state, ls = stack.pop()
        if len(ls) == max_len:
            continue
        for lt in letters:
            if ls and ls[-1] == -lt:
                continue
            t = g.step(state, lt)
            if t is None:
                continue
            ext = ls + (lt,)
            if t == g.base:
                found[ext] = True
            stack.append((t, ext))
    return [Word(g.alphabet, ls) for ls in sorted(found, key=lambda x: (len(x), x))]


def generated_elements(generators: list[Word], max_factors: int) -> set[Word]:
    """Products of at most max_factors generators or inverses, freely reduced."""
    alphabet = generators[0].alphabet
    pieces = [g for g in generators] + [~g for g in generators]
    out = {identity(alphabet)}
    frontier = {identity(alphabet)}
    for _ in range(max_factors):
        frontier = {w * p for w in frontier for p in pieces}
        out |= frontier
    return out


def coset_members(subgroup_elems: list[Word], rep: Word) -> set[Word]:
    return {h * rep for h in subgroup_elems}


def form_sides(nf: NormalForm) -> tuple[str, ...]:
    """The sides of a normal form's syllables, in order."""
    return tuple(side for side, _ in nf.syllable_letters)


def brute_conjugacy_oracle(
    ctx: AmalgamContext, u: Word, v: Word, bound: int
) -> Optional[Word]:
    """Search all conjugators z with |z| <= bound; sound but incomplete.

    Meets in the middle: z = z1 z2 works iff ~z1 u z1 equals z2 v ~z2, so both
    halves only need length ceil(bound/2).
    """
    half_r = bound // 2
    half_l = bound - half_r
    right: dict[NormalForm, Word] = {}
    for z2 in reduced_words(ctx.union_alphabet, half_r):
        key = normal_form(ctx, z2 * v * ~z2)
        right.setdefault(key, z2)
    for z1 in reduced_words(ctx.union_alphabet, half_l):
        key = normal_form(ctx, ~z1 * u * z1)
        z2 = right.get(key)
        if z2 is not None:
            z = z1 * z2
            assert normal_form(ctx, ~z * u * z) == normal_form(ctx, v)
            return z
    return None


def cyclic_perms_by_definition(
    ctx: AmalgamContext, form: NormalForm, policy: RepPolicy
) -> list[tuple[Word, NormalForm]]:
    """The cyclic permutations of a cyclically reduced form, spelled out.

    Entry j is (w_j, normal_form(s_{j+1} ... s_k h s_1 ... s_j)) with w_j the
    head h followed by the first j syllables s_1 ... s_j.
    """
    k = form.syllable_length
    out = []
    head_u = ctx.to_union(form.head_side, form.head)
    for j in range(k):
        prefix = head_u
        for s in form.syllables[:j]:
            prefix = prefix * ctx.to_union(s.side, s.word)
        word = identity(ctx.union_alphabet)
        for s in form.syllables[j:]:
            word = word * ctx.to_union(s.side, s.word)
        word = word * head_u
        for s in form.syllables[:j]:
            word = word * ctx.to_union(s.side, s.word)
        pi = normal_form(ctx, word, policy)
        assert pi.syllable_length == k, "cyclic permutation changed the syllable length"
        out.append((prefix, pi))
    return out


def check_folded(graph: SubgroupGraph) -> None:
    """Assert that a graph is a folded core-plus-base automaton with one move table.

    The table holds exactly two moves per edge, forwards with eid and back
    with ~eid, and `edges()` yields each edge once; a dict is deterministic,
    so this is foldedness both ways.
    """
    edges = list(graph.edges())
    assert len(edges) == len({eid for *_, eid in edges}) == graph.nedges
    assert len(graph.moves) == 2 * graph.nedges
    for s, lab, d, eid in edges:
        assert 0 <= s < graph.nstates and 0 <= d < graph.nstates
        assert 1 <= lab <= len(graph.alphabet)
        assert graph.moves[(s + 1) * graph.width + lab] == (d, eid)
        assert graph.moves[(d + 1) * graph.width - lab] == (s, ~eid)
    # degrees of non-base states must be >= 2
    degree = [0] * graph.nstates
    for s, _, d, _ in edges:
        degree[s] += 1
        degree[d] += 1
    for v in range(1, graph.nstates):
        assert degree[v] >= 2, f"state {v} not in core"


def renumber_by_alphabet_scan(
    alphabet: Alphabet, edges: Edges, base: int
) -> tuple[tuple[Optional[tuple[int, int]], ...], dict[int, tuple[int, int]]]:
    """(tree, moves) of the edge map trimmed at `base`, by a scan of the alphabet per state.

    From each state in breadth-first order, the signed letters 1, -1, 2, -2,
    ... are looked up in the old numbering's table, and a state first reached
    becomes the next number with (parent, signed letter) as its tree edge.
    """
    width = 2 * len(alphabet) + 1
    live = _trim(edges, base)[0]
    raw = {}
    for eid, (s, lab, d) in live.items():
        raw[(s + 1) * width + lab] = (d, eid)
        raw[(d + 1) * width - lab] = (s, ~eid)
    if len(raw) != 2 * len(live):
        raise VerificationError("graph is not folded")
    old_of = [base]
    new_of = {base: 0}
    tree: list[Optional[tuple[int, int]]] = [None]
    for i, v in enumerate(old_of):
        for lab in range(1, len(alphabet) + 1):
            for slet in (lab, -lab):
                hit = raw.get((v + 1) * width + slet)
                if hit is not None and hit[0] not in new_of:
                    new_of[hit[0]] = len(old_of)
                    old_of.append(hit[0])
                    tree.append((i, slet))
    moves = {}
    for eid, (s, lab, d) in live.items():
        s, d = new_of[s], new_of[d]
        moves[(s + 1) * width + lab] = (d, eid)
        moves[(d + 1) * width - lab] = (s, ~eid)
    return tuple(tree), moves


def parse_args_through_main(parser: argparse.ArgumentParser, argv: list[str]) -> argparse.Namespace:
    """`cli._Parser.parse_args` as argparse routes it: the main parser, then a subparser."""
    args, extras = parser.parse_known_args(argv)
    if extras:
        shown = (arg if len(arg) <= _SHOWN else _quote(arg) for arg in extras)
        parser.error("unrecognized arguments: " + " ".join(shown))
    return args


_TOKEN_RE = re.compile(r"([A-Za-z][A-Za-z0-9_]*)(?:\^(-?\d+))?\Z")


def parse_word_by_tokens(text: str, alphabet: Alphabet) -> Word:
    """`parse_word` by one grammar match per whitespace-separated token.

    It reads `words.MAX_LETTERS` at call time, as `parse_word` does.
    """
    letters: list[int] = []
    pos = 0
    for token in text.split():
        column = text.index(token, pos) + 1
        pos = column - 1 + len(token)
        m = _TOKEN_RE.match(token)
        if not m:
            raise WordSyntaxError(f"bad token {_quote(token)}", column)
        name, exp = m.group(1), m.group(2)
        if name not in alphabet:
            raise WordSyntaxError(f"unknown generator {_quote(name)}", column)
        digits = "1" if exp is None else exp.lstrip("-").lstrip("0")
        if not digits:
            raise WordSyntaxError(f"zero exponent in {_quote(token)}", column)
        n = int(digits) if len(digits) <= len(str(words.MAX_LETTERS)) else words.MAX_LETTERS + 1
        if len(letters) + n > words.MAX_LETTERS:
            past = f"takes the word past {words.MAX_LETTERS} letters"
            raise WordSyntaxError(f"{_quote(token)} {past}", column)
        sign = -1 if exp and exp[0] == "-" else 1
        letters.extend([sign * (alphabet.index(name) + 1)] * n)
    return Word(alphabet, letters)


def product_edges(g: SubgroupGraph) -> list[tuple[int, int]]:
    """Edges (p * n + q, p' * n + q') of the product of g with itself, one per pair of
    equally labelled edges p -> p' and q -> q' of g (n states)."""
    n = g.nstates
    by_letter: dict[int, list[tuple[int, int]]] = {}
    for s, lab, d, _ in g.edges():
        by_letter.setdefault(lab, []).append((s, d))
    return [
        (p * n + q, tp_ * n + tq)
        for pairs in by_letter.values()
        for p, tp_ in pairs
        for q, tq in pairs
    ]


def product_components_by_count(g: SubgroupGraph) -> tuple[int, dict[int, tuple[int, int]]]:
    """(the diagonal's root, {min root: (vertices, edges)}) of the product's components."""
    edges = product_edges(g)
    parent = {x: x for edge in edges for x in edge}

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in edges:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    nverts = Counter(map(find, parent))
    nedges = Counter(find(a) for a, _ in edges)
    return find(0), {root: (nverts[root], nedges[root]) for root in sorted(nverts)}


def double_transversal_by_count(g: SubgroupGraph) -> tuple[Word, ...]:
    """`SubgroupGraph.double_transversal` by counting: a component carries a cycle
    when its edges outnumber its vertices less one."""
    one = identity(g.alphabet)
    if g.is_trivial():
        return (one,)
    diag, components = product_components_by_count(g)
    reps = []
    for root, (nv, ne) in components.items():
        if root == diag or ne - nv + 1 < 1:
            continue
        p, q = divmod(root, g.nstates)
        tp, tq = (Word(g.alphabet, g.tree_path_letters(x)) for x in (p, q))
        reps.append(tp * ~tq)
    reps.sort(key=lambda w: (len(w), w.letters))
    return (one, *reps)


def double_transversal_with_pruning(g: SubgroupGraph) -> tuple[Word, ...]:
    """Double-coset representatives, candidates pruned pairwise.

    Components of the product of the graph with itself carrying a
    nontrivial loop each contribute treePath(p) * ~treePath(q); the
    diagonal component is the empty word, listed first.  Duplicates are
    pruned with the pairwise test H t H = H t' H iff Ht meets t'H.
    """
    one, *reps = double_transversal_by_count(g)
    kept: list[Word] = [one]
    for t in reps:
        if any(_same_double_coset(g, t, t2) for t2 in kept):
            continue
        kept.append(t)
    return tuple(kept)


def _same_double_coset(g: SubgroupGraph, t: Word, t2: Word) -> bool:
    """H t H = H t' H iff Ht meets t'H (t'H as a coset of the conjugate subgroup)."""
    shifted = conjugate_by_copy(g, ~t2)
    return meet(g, shifted, accepts=(t.letters, t2.letters)) is not None


def conjugate_by_copy(g: SubgroupGraph, z: Word) -> SubgroupGraph:
    """Automaton of ~z * H * z: a copy of H's graph with a fresh path for z.

    z is read from the basepoint as far as the graph allows and a fresh path
    spells the rest; the basepoint moves to its end, and the copy is trimmed
    and renumbered.
    """
    edges = {eid: (s, lab, d) for s, lab, d, eid in g.edges()}
    s, i = g.base, 0
    for lt in z.letters:
        t = g.step(s, lt)
        if t is None:
            break
        s, i = t, i + 1
    v, eid = g.nstates, max(edges, default=-1) + 1
    for lt in z.letters[i:]:
        edges[eid] = (s, lt, v) if lt > 0 else (v, -lt, s)
        s, v, eid = v, v + 1, eid + 1
    return SubgroupGraph(g.alphabet, edges, s)


def pullback_by_steps(a: SubgroupGraph, b: SubgroupGraph) -> SubgroupGraph:
    """The (base, base) product component, one `step` per letter and factor."""
    order = [(a.base, b.base)]
    ids = {order[0]: 0}
    edges = {}
    for pid, (p, q) in enumerate(order):
        for lab in range(1, len(a.alphabet) + 1):
            for slet in (lab, -lab):
                tp_, tq = a.step(p, slet), b.step(q, slet)
                if tp_ is None or tq is None:
                    continue
                tid = ids.setdefault((tp_, tq), len(order))
                if tid == len(order):
                    order.append((tp_, tq))
                if slet > 0:
                    edges[len(edges)] = (pid, lab, tid)
    return SubgroupGraph(a.alphabet, edges, 0)


def _coset_automaton(g: SubgroupGraph, rep: Word) -> tuple[dict, int]:
    """Transitions of the subgroup graph with a tail spelling rep; returns accept state."""
    trans: dict[tuple[int, int], int] = {}
    for s, lab, d, _ in g.edges():
        trans[(s, lab)] = d
        trans[(d, -lab)] = s
    cur, fresh = g.base, g.nstates
    for lt in rep.letters:
        nxt = trans.get((cur, lt))
        if nxt is None:
            nxt, fresh = fresh, fresh + 1
            trans[(cur, lt)] = nxt
            trans[(nxt, -lt)] = cur
        cur = nxt
    return trans, cur


def coset_intersection_by_copy(
    K: SubgroupGraph, a: Word, L: SubgroupGraph, b: Word
) -> Optional[tuple[SubgroupGraph, Word]]:
    """Ka meet Lb: breadth first through the product of the two coset automata."""
    ta, acc_a = _coset_automaton(K, a)
    tb, acc_b = _coset_automaton(L, b)
    start, target = (K.base, L.base), (acc_a, acc_b)
    parents = {start: (start, 0)}
    queue = deque([start])
    while queue and target not in parents:
        p, q = queue.popleft()
        for lab in range(1, len(K.alphabet) + 1):
            for slet in (lab, -lab):
                key = (ta.get((p, slet)), tb.get((q, slet)))
                if None not in key and key not in parents:
                    parents[key] = ((p, q), slet)
                    queue.append(key)
    if target not in parents:
        return None
    letters: list[int] = []
    node = target
    while node != start:
        node, slet = parents[node]
        letters.append(slet)
    h = Word(K.alphabet, tuple(reversed(letters)))
    if not (K.contains((h * ~a).letters) and L.contains((h * ~b).letters)):
        raise VerificationError("coset intersection witness failed verification")
    return pullback_by_steps(K, L), h


def shift_by_copy(ctx: AmalgamContext, d: CosetOfC, p: tuple, q: tuple) -> Optional[CosetOfC]:
    """(p * d * q) meet C through a cached conjugate copy of d's subgroup."""
    key = ("shift", d.key(), p, q)
    if key not in ctx.cache:
        alphabet = d.subgroup.alphabet
        p, q, rep = Word(alphabet, p), Word(alphabet, q), Word(alphabet, d.rep)
        conj_key = ("conj", d.subgroup.canonical_key(), (~p).letters)
        if conj_key not in ctx.cache:
            ctx.cache[conj_key] = conjugate_by_copy(d.subgroup, ~p)
        hit = coset_intersection_by_copy(
            ctx.cache[conj_key], p * rep * q, ctx.graph_c(d.side), identity(alphabet)
        )
        result = None
        if hit is not None:
            canon, _ = hit[0].coset_rep(hit[1].letters)
            result = CosetOfC(d.side, hit[0], canon)
        ctx.cache[key] = result
    return ctx.cache[key]


def _solve_from_regular_permutation(
    ctx: AmalgamContext, u: Word, v: Word, perms_u: list, perms_v: list, policy: RepPolicy
) -> Optional[ConjugacyOutcome]:
    """Solve from u's first regular cyclic permutation; None when it has none."""
    reg = next((x for x in perms_u if group._classify_nf(ctx, x[1]).is_regular), None)
    if reg is None:
        return None
    u_prefix, g_star = reg
    for w_j, pi_j in perms_v:
        if form_sides(pi_j) != form_sides(g_star):
            continue
        e = group.principal_system_solve(ctx, g_star, pi_j)
        if e is None:
            continue
        c = Word(ctx.factor_alphabet(e.side), e.rep)  # the singleton's element
        c_k = group._propagate_solution(ctx, g_star, pi_j, c.letters, e.side)
        side1 = g_star.syllables[0].side
        c_on_1 = c if e.side == side1 else transfer_word(ctx, e.side, c)
        if g_star.head * Word(g_star.head.alphabet, c_k) != c_on_1 * pi_j.head:
            continue
        z = letters_product(u_prefix, ctx.union_letters(e.side, c.letters))
        z = Word(ctx.union_alphabet, letters_product(z, letters_inverse(w_j)))
        return group._assemble_and_verify(ctx, u, v, z, policy, {})
    reason = "a regular cyclic permutation admits no conjugating C-element"
    return ConjugacyOutcome("not-conjugate", None, reason)


def conjugacy_search_two_calls(
    ctx: AmalgamContext, u: Word, v: Word, policy: RepPolicy = CANONICAL
) -> ConjugacyOutcome:
    """The cyclic-length >= 2 decision from u's regular permutation, else from v's.

    Other cyclic lengths go to `conjugacy_search`.
    """
    cf_u, cf_v = cyclic_form(ctx, u, policy), cyclic_form(ctx, v, policy)
    if not cf_u.cyclic_length == cf_v.cyclic_length >= 2:
        return group.conjugacy_search(ctx, u, v, policy)
    # each list is read twice, once per direction
    perms_u, perms_v = (list(group._cyclic_perms(ctx, cf, policy)) for cf in (cf_u, cf_v))
    out = _solve_from_regular_permutation(ctx, u, v, perms_u, perms_v, policy)
    if out is not None:
        return out
    out = _solve_from_regular_permutation(ctx, v, u, perms_v, perms_u, policy)
    if out is not None and out.tag == "conjugate":
        return group._assemble_and_verify(ctx, u, v, ~out.conjugator, policy, {})
    reason = "every cyclic permutation of both forms is singular"
    return out or ConjugacyOutcome("undecided", None, reason)


def principal_system_solve_two_pass(
    ctx: AmalgamContext, g: NormalForm, h: NormalForm
) -> Optional[CosetOfC]:
    """E_{g,h} by the D-recursion from the last syllable, then a back-substitution.

    D_0 = C on the side of p_k and D_i = (p_{k-i+1} D_{i-1} ~p'_{k-i+1}) meet C;
    D_k is pulled back through the chain from p_1.
    """
    k = g.syllable_length
    if k != h.syllable_length or k < 1:
        raise ValueError("principal systems need equal syllable lengths >= 1")
    if form_sides(g) != form_sides(h):
        return None
    ps = list(zip(g.syllables, h.syllables))
    d = c_coset(ctx, ps[-1][0].side)
    for p, p2 in reversed(ps):
        if d.side != p.side:
            d = transfer(ctx, d)
        d = shift(ctx, d, p.word.letters, (~p2.word).letters)
        if d is None:
            return None
    for p, p2 in ps:
        if d.side != p.side:
            d = transfer(ctx, d)
        d = shift(ctx, d, (~p.word).letters, p2.word.letters)
        if d is None:
            raise VerificationError("back-substitution left C")
    return d


def _squash(sylls: list[Syllable]) -> list[Syllable]:
    out: list[Syllable] = []
    for s in sylls:
        if not s.word:
            continue
        if out and out[-1].side == s.side:
            w = out.pop().word * s.word
            if w:
                out.append(Syllable(s.side, w))
        else:
            out.append(s)
    return out


def split_by_groupby(ctx: AmalgamContext, raw: Word) -> list[tuple[str, tuple[int, ...]]]:
    """Maximal one-side blocks of a union word as (side, factor letters), by grouping."""
    off = len(ctx.alphabet_a)
    return [
        ("B", tuple(lt - off if lt > 0 else lt + off for lt in block)) if b else ("A", tuple(block))
        for b, block in groupby(raw.letters, key=lambda lt: abs(lt) > off)
    ]


def reduced_form_by_rescan(
    ctx: AmalgamContext, raw: Word, lengths: Optional[list[int]] = None
) -> NormalForm:
    """Transfer the leftmost C-syllable into its neighbours until none is left.

    `lengths`, when given, records the syllable count after every transfer.
    """
    sylls = _squash([
        Syllable(side, Word(ctx.factor_alphabet(side), letters))
        for side, letters in split_by_groupby(ctx, raw)
    ])
    while True:
        idx = next(
            (i for i, s in enumerate(sylls) if ctx.graph_c(s.side).contains(s.word.letters)), None
        )
        if idx is None:
            break
        s = sylls[idx]
        if len(sylls) == 1:
            head = s.word if s.side == "A" else transfer_word(ctx, "B", s.word)
            return NormalForm("A", head, ())
        moved = transfer_word(ctx, s.side, s.word)
        repl = [Syllable(ctx.other(s.side), moved)] if moved else []
        sylls = _squash(sylls[:idx] + repl + sylls[idx + 1 :])
        if lengths is not None:
            lengths.append(len(sylls))
    head_side = sylls[0].side if sylls else "A"
    return NormalForm(head_side, identity(ctx.factor_alphabet(head_side)), sylls)


def normal_form_unmemoised(
    ctx: AmalgamContext,
    raw: Word,
    policy: RepPolicy = CANONICAL,
    trace: Optional[list[int]] = None,
    joins: Optional[list[tuple]] = None,
) -> NormalForm:
    """The right-to-left sweep with every step run: transfer, multiply, split.

    `joins`, when given, records (side, rep, syllable) for every join, in sweep order.
    """
    reps = group._coset_reps(ctx, policy)
    done: list[tuple[str, tuple[int, ...]]] = []  # output syllables, last first
    carry_side, carry = "A", ()
    for side, word in reversed(split_by_groupby(ctx, raw)):
        if carry and carry_side != side:
            carry = ctx.transfer_letters(carry_side, carry)
        rep, head = reps[side](letters_product(word, carry))
        if rep:
            if done and done[-1][0] == side:
                tail = done.pop()[1]
                if joins is not None:
                    joins.append((side, rep, tail))
                rep, head2 = reps[side](letters_product(rep, tail))
                head = letters_product(head, head2)
            if rep:
                done.append((side, rep))
        carry_side, carry = side, head
        if trace is not None:
            trace.append(len(carry))
    target = done[-1][0] if done else "A"
    if carry and carry_side != target:
        carry = ctx.transfer_letters(carry_side, carry)
    graph = ctx.graph_c(target)
    if not graph.contains(carry):
        raise VerificationError("normal-form head escaped C")
    return group._form(ctx, target, carry, reversed(done))


def express_in_generators(g: SubgroupGraph, w: Word, ngens: int) -> Word:
    """Word over t1..t_ngens whose substitution by the folded generators is w."""
    t_alphabet = Alphabet(tuple(f"t{i + 1}" for i in range(ngens)))
    return Word(t_alphabet, g.loop_word(w.letters, g.edge_words))


def basis_words(g: SubgroupGraph) -> tuple[tuple[Word, ...], Alphabet, dict]:
    """The older cached free basis: (its Words, the alphabet b1, b2, ..., the edge words).

    Basis word j is treePath(s) lab ~treePath(d) for the j-th least non-tree
    edge (s, lab, d, eid), built with the reducing `Word` constructor, and the
    edge words put (j,) on eid and (-j,) on ~eid.
    """
    non_tree = sorted(
        (s, lab, d, eid) for s, lab, d, eid in g.edges()
        if g.tree[d] != (s, lab) and g.tree[s] != (d, -lab)
    )
    basis, words = [], {}
    for j, (s, lab, d, eid) in enumerate(non_tree, 1):
        loop = g.tree_path_letters(s) + (lab,) + letters_inverse(g.tree_path_letters(d))
        basis.append(Word(g.alphabet, loop))
        words[eid], words[~eid] = (j,), (-j,)
    alphabet = Alphabet(tuple(f"b{j}" for j in range(1, len(basis) + 1)) or ("b1",))
    return tuple(basis), alphabet, words


def express_in_basis(g: SubgroupGraph, w: Word) -> Word:
    """Word over the basis alphabet whose substitution by `basis_words` reduces to w."""
    if w.alphabet != g.alphabet:
        raise ValueError("word over wrong alphabet")
    _, alphabet, words = basis_words(g)
    return Word(alphabet, g.loop_word(w.letters, words))


def cr0_conjugator_through_basis(ctx: AmalgamContext, hu: Word, hv: Word) -> Optional[Word]:
    """The cyclic-length-0 conjugator in A: free_conjugacy over C's basis words, substituted."""
    g = ctx.graph_ca
    z_b = free_conjugacy(express_in_basis(g, hu), express_in_basis(g, hv))
    return None if z_b is None else substitute(z_b, basis_words(g)[0], ctx.alphabet_a)


def z_set_witness_through_basis(g: SubgroupGraph, c: Word) -> Optional[tuple[Word, Word, Word]]:
    """The older z_set_witness: c and every Z_t(H) over H's basis words, nothing memoised."""
    if not g.contains(c.letters):
        raise NotAMemberError(f"{c!r} is not in the subgroup")
    ts = g.double_transversal()[1:]
    one = identity(g.alphabet)
    if not ts:
        return None
    if not c:
        return ts[0], one, one
    basis, alphabet, _ = basis_words(g)
    cb = express_in_basis(g, c)
    for t in ts:
        zb = [express_in_basis(g, b) for b in basis_words(g.z_subgroup(t.letters))[0]]
        hit = build(zb, alphabet).conjugacy_into(cb.letters)
        if hit is not None:
            target, conj = (Word(alphabet, x) for x in hit)
            return t, substitute(target, basis, g.alphabet), substitute(conj, basis, g.alphabet)
    return None


def classify_through_basis(ctx: AmalgamContext, raw: Word, policy: RepPolicy = CANONICAL):
    """(verdict, witness kind, witness) of classify, every witness through `basis_words`.

    A bad pair and a normalizer hit are witnessed by the first basis word of
    the principal system's solution and of the meet, a Z-set hit by
    `z_set_witness_through_basis` on side A, then on the transferred side B.
    """
    nf = normal_form(ctx, raw, policy)
    found: list = []
    if nf.syllable_length >= 2:
        e = group.principal_system_solve(ctx, nf, nf)
        kind = "bad-pair"
        if not e.subgroup.is_trivial():
            found = [("solution", e.side, basis_words(e.subgroup)[0][0])]
    elif nf.syllable_length == 1:
        side, word = nf.syllable_letters[0]
        w = Word(ctx.factor_alphabet(side), nf.head_letters + word)
        meet_ = ctx.graph_c(side).z_subgroup((~w).letters)
        kind = "normalizer"
        if not meet_.is_trivial():
            found = [("intersection", side, basis_words(meet_)[0][0])]
    else:
        kind = "z-set"
        for side, w in (("A", nf.head), ("B", transfer_word(ctx, "A", nf.head))):
            hit = z_set_witness_through_basis(ctx.graph_c(side), w)
            if hit is not None:
                names = ("transversal", "target", "conjugator")
                found = [(name, side, x) for name, x in zip(names, hit)]
                break
    return ("singular", kind, tuple(found)) if found else ("regular", None, ())


def cr0_outcome_through_basis(
    ctx: AmalgamContext, u: Word, v: Word, policy: RepPolicy = CANONICAL
) -> Optional[tuple[str, Optional[Word]]]:
    """(tag, conjugator) of conjugacy_search's cyclic-length-0 branch through `basis_words`.

    None when the pair does not reach that branch: a cyclic length is not 0,
    or neither cyclically reduced form is regular.
    """
    cf_u, cf_v = cyclic_form(ctx, u, policy), cyclic_form(ctx, v, policy)
    if cf_u.cyclic_length or cf_v.cyclic_length:
        return None
    if not any(group._classify_nf(ctx, cf.form).is_regular for cf in (cf_u, cf_v)):
        return None
    z_f = cr0_conjugator_through_basis(ctx, cf_u.form.head, cf_v.form.head)
    if z_f is None:
        return "not-conjugate", None
    return "conjugate", cf_u.conjugator * ctx.to_union("A", z_f) * ~cf_v.conjugator


def transfer_key_through_basis(ctx: AmalgamContext, d: CosetOfC) -> tuple:
    """The older coset transfer's key: the basis words' images folded again, rep canonical."""
    side2 = ctx.other(d.side)
    gens = [transfer_word(ctx, d.side, b) for b in basis_words(d.subgroup)[0]]
    graph = build(gens, ctx.factor_alphabet(side2))
    rep, _ = graph.coset_rep(ctx.transfer_letters(d.side, d.rep))
    return side2, graph.canonical_key(), rep


def basis_images_by_generators(ctx: AmalgamContext, side: str) -> tuple[Word, ...]:
    """Images of the basis of C: each over the generators, then the targets substituted."""
    g = ctx.graph_c(side)
    targets = [pair["BA".index(side)] for pair in ctx.pairs]
    alphabet = ctx.factor_alphabet(ctx.other(side))
    return tuple(
        substitute(express_in_generators(g, b, len(targets)), targets, alphabet)
        for b in basis_words(g)[0]
    )


def basis_edge_words(g: SubgroupGraph, images) -> dict[int, tuple[int, ...]]:
    """Edge words for loop_word that send each basis element b_j to images[j]."""
    return {
        eid: images[j - 1] if j > 0 else letters_inverse(images[-j - 1])
        for eid, (j,) in basis_words(g)[2].items()
    }


def build_context_through_basis(
    alphabet_a: Alphabet, alphabet_b: Alphabet, pairs
) -> AmalgamContext:
    """The pairing check on basis images spread onto the basis edges, then the context."""
    pairs = tuple(pairs)
    words = ([u for u, _ in pairs], [v for _, v in pairs])
    alphabets = (alphabet_a, alphabet_b)
    graphs = [build(w, alphabet) for w, alphabet in zip(words, alphabets)]
    unchecked = AmalgamContext(alphabet_a, alphabet_b, pairs, *graphs, ({}, {}))
    edges = []
    for side in "AB":
        images = basis_images_by_generators(unchecked, side)
        edges.append(basis_edge_words(unchecked.graph_c(side), [b.letters for b in images]))
    for this, that, pairing in ((0, 1, "pairing"), (1, 0, "reverse pairing")):
        for i, (w, target) in enumerate(zip(words[this], words[that]), 1):
            img = Word(alphabets[that], graphs[this].loop_word(w.letters, edges[this]))
            if img != target:
                raise InvalidPresentationError(
                    f"pair {i}: the {pairing} is not an isomorphism of C"
                    f" ({'uv'[this]}_{i} maps to {img!r}, expected {target!r})",
                    index=i,
                )
    return AmalgamContext(alphabet_a, alphabet_b, pairs, *graphs, tuple(edges))


def transfer_through_basis(
    ctx: AmalgamContext, side: str, letters: tuple[int, ...]
) -> tuple[int, ...]:
    """phi (A to B) or psi (B to A) as basis coordinates, then substitution."""
    graph = ctx.graph_c(side)
    images = basis_images_by_generators(ctx, side)
    expr = express_in_basis(graph, Word(graph.alphabet, letters))
    return substitute(expr, images, ctx.factor_alphabet(ctx.other(side))).letters


def adversarial_rep_by_cancellation(
    ctx: AmalgamContext, side: str, w: tuple[int, ...], p: int
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(rep, head) of the adversarial policy, with head = w * ~rep freely reduced."""
    rep, head = ctx.graph_c(side).coset_rep(w)
    run, swap = (1, 2) if side == "A" else (2, 1)
    tail = rep[1:]
    if rep[:1] != (3,) or not tail or abs(tail[0]) != run:
        return rep, head
    if tail.count(tail[0]) != len(tail) or len(tail) % p:
        return rep, head
    rep = (-swap if tail[0] > 0 else swap,) * len(tail) + (3,) + tail
    return rep, letters_product(w, letters_inverse(rep))


def walk_letter_by_letter(
    graph: SubgroupGraph, letters: tuple[int, ...], start: int, words: Optional[dict] = None
) -> tuple[int, int, tuple[int, ...]]:
    """(state reached, letters read, edge-word product of the read prefix), a letter at a time."""
    s, out = start, []
    for i, lt in enumerate(letters):
        hit = graph.moves.get((s + 1) * graph.width + lt)
        if hit is None:
            return s, i, tuple(out)
        s, key = hit  # eid forwards, ~eid backwards
        for x in (words or {}).get(key, ()):
            if out and out[-1] == -x:
                out.pop()
            else:
                out.append(x)
    return s, len(letters), tuple(out)


def _rotation(ls: tuple[int, ...], i: int) -> tuple[int, ...]:
    return ls[i:] + ls[:i]


def _least_rotation(ls: tuple[int, ...]) -> tuple[int, ...]:
    """Lexicographically least cyclic rotation (letter index, + before -)."""
    if not ls:
        return ls
    key = lambda r: tuple((abs(lt), lt < 0) for lt in r)
    return min((_rotation(ls, i) for i in range(len(ls))), key=key)


def free_conjugacy_by_least_rotation(u: Word, v: Word) -> Optional[Word]:
    """z with ~z * u * z == v: compare least rotations, then scan rotations of u's core."""
    cu, zu = (Word(u.alphabet, x) for x in letters_cyclic_reduce(u.letters))
    cv, zv = (Word(v.alphabet, x) for x in letters_cyclic_reduce(v.letters))
    if len(cu) != len(cv):
        return None
    if _least_rotation(cu.letters) != _least_rotation(cv.letters):
        return None
    for i in range(max(len(cu), 1)):
        if Word(u.alphabet, _rotation(cu.letters, i)) == cv:
            z = zu * Word(u.alphabet, cu.letters[:i]) * ~zv
            if ~z * u * z != v:
                raise VerificationError("free conjugator failed verification")
            return z
    return None


def conjugacy_into_by_rotation_scan(
    g: SubgroupGraph, letters: tuple[int, ...]
) -> Optional[tuple[tuple[int, ...], tuple[int, ...]]]:
    """(h, z) as letter tuples for the first state s, then rotation r, reading a loop at s."""
    w = Word(g.alphabet, letters)
    core, u = (Word(g.alphabet, x) for x in letters_cyclic_reduce(w.letters))
    if not core:
        return (), (~u).letters
    for s in range(g.nstates):
        for r in range(len(core)):
            rot = _rotation(core.letters, r)
            if g.read(rot, s) == (s, len(rot)):
                tp = Word(g.alphabet, g.tree_path_letters(s))
                h = tp * Word(g.alphabet, rot) * ~tp
                z = tp * ~Word(g.alphabet, core.letters[:r]) * ~u
                if ~z * h * z != w:
                    raise VerificationError("conjugacy_into witness failed verification")
                return h.letters, z.letters
    return None


class _RoseFolding:
    """Mutable builder: subdivided rose and folding with generator words on edges.

    Each edge carries a word over the t-alphabet.  Every basepoint loop
    multiplies the words along it (inverted on backward edges) to a word
    whose substitution by the generators is the loop's label.
    """

    def __init__(self, alphabet: Alphabet):
        self.alphabet = alphabet
        self.base = 0
        self.nverts = 1
        self.ends: dict[int, list[int]] = {}  # eid -> [src, dst]
        self.labels: dict[int, int] = {}  # eid -> positive letter
        self.words: dict[int, tuple[int, ...]] = {}  # eid -> t-letters
        self.inc: dict[int, set[int]] = {0: set()}
        self.next_eid = 0

    def new_vertex(self) -> int:
        v = self.nverts
        self.nverts += 1
        self.inc[v] = set()
        return v

    def add_edge(self, src: int, lab: int, dst: int, word: tuple[int, ...] = ()) -> int:
        eid = self.next_eid
        self.next_eid += 1
        self.ends[eid] = [src, dst]
        self.labels[eid] = lab
        self.words[eid] = word
        self.inc[src].add(eid)
        self.inc[dst].add(eid)
        return eid

    def add_loop(self, letters: Sequence[int], t: int) -> None:
        """Attach a subdivided loop at the basepoint spelling generator t's letters."""
        cur = self.base
        last = len(letters) - 1
        for j, lt in enumerate(letters):
            nxt = self.base if j == last else self.new_vertex()
            word = (t,) if j == last else ()
            if lt > 0:
                self.add_edge(cur, lt, nxt, word)
            else:
                self.add_edge(nxt, -lt, cur, letters_inverse(word))
            cur = nxt

    def _find_foldable(self, v: int) -> Optional[tuple[int, int]]:
        seen: dict[int, int] = {}  # signed letter -> the first edge that moves on it from v
        for eid in sorted(self.inc[v]):
            (src, dst), lab = self.ends[eid], self.labels[eid]
            for end, slet in ((src, lab), (dst, -lab)):
                if end == v:
                    other = seen.setdefault(slet, eid)
                    if other != eid:
                        return other, eid
        return None

    def _fold(self, e: int, f: int) -> list[int]:
        """Merge the dead edge into the kept one; returns the vertices to revisit.

        Parallel edges: the dead one is dropped; its word and the kept one's
        substitute to the same element, the label between the same ends.
        Otherwise the far ends merge, the dead vertex b (never the base) into
        a.  First a gauge g at b, applied to every edge at b (end: w -> w g,
        start: w -> ~g w), makes the two words equal; a basepoint loop leaves
        b right after each visit, so its product only gains g ~g there.
        """
        kept, dead = (e, f) if e < f else (f, e)
        ke, de = self.ends[kept], self.ends.pop(dead)
        slot = 1 if ke[0] == de[0] else 0  # the ends that may differ
        self.inc[de[0]].discard(dead)
        self.inc[de[1]].discard(dead)
        wd, wk = self.words.pop(dead), self.words[kept]
        touched = [ke[0], ke[1]]
        a, b = ke[slot], de[slot]
        if a != b:
            if b == self.base:
                a, b = b, a
                wk, wd = wd, wk  # wd is now the word of the edge that meets b
            if slot:
                g = letters_product(letters_inverse(wd), wk)
            else:
                g = letters_product(wd, letters_inverse(wk))
            for eid in self.inc[b]:
                ends = self.ends[eid]
                if g:
                    word = self.words[eid]
                    if ends[1] == b:
                        word = letters_product(word, g)
                    if ends[0] == b:
                        word = letters_product(letters_inverse(g), word)
                    self.words[eid] = word
                for i in (0, 1):
                    if ends[i] == b:
                        ends[i] = a
            self.inc[a] |= self.inc[b]
            del self.inc[b]
            touched.append(a)
        return [v for v in touched if v in self.inc]

    def fold_all(self) -> None:
        queue = deque(sorted(self.inc))
        queued = set(queue)
        while queue:
            v = queue.popleft()
            queued.discard(v)
            while v in self.inc:
                found = self._find_foldable(v)
                if found is None:
                    break
                for w in self._fold(*found):
                    if w != v and w not in queued:
                        queue.append(w)
                        queued.add(w)


def build_by_rose_folding(
    generators: Sequence[Word], alphabet: Optional[Alphabet] = None
) -> SubgroupGraph:
    """`build` through the older dict-based fold of the subdivided rose."""
    gens = tuple(g for g in generators if len(g))
    if alphabet is None:
        alphabet = generators[0].alphabet
    folding = _RoseFolding(alphabet)
    for gi, g in enumerate(gens):
        folding.add_loop(g.letters, gi + 1)
    folding.fold_all()
    edges = {eid: (s, folding.labels[eid], d) for eid, (s, d) in folding.ends.items()}
    words = {}
    for eid, word in folding.words.items():
        if word:
            words[eid], words[~eid] = word, letters_inverse(word)
    return SubgroupGraph(alphabet, edges, folding.base, words)

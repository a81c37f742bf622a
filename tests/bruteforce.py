"""Independent brute-force oracles used by the test suite.

Everything here works by enumeration and free reduction only, so it never
shares a code path with the machinery it checks (beyond plain word algebra
and graph tracing).  The conjugacy oracle and the cyclic permutations by
definition are the exceptions: they call `normal_form`, so they check the
conjugacy decider and the one-sweep permutations, not the word problem.
`double_transversal_with_pruning` is the older double transversal, which
re-checked every pair of candidates with `conjugate_by_copy` and
`coset_intersection`; it checks that no candidate ever needs pruning.
`conjugate_by_copy`, `pullback_by_steps` and `coset_intersection_by_copy`
are the older meets, which copied a whole graph to conjugate it, copied
both transition tables to hang a coset representative on them and walked
the product once for the witness and again for the meet; `shift_by_copy`
is the older coset-algebra shift built on them.  They check the one
product walk, `stallings.meet`.
`conjugacy_search_two_calls` is the older cyclic-length >= 2 decision,
which solved again from v's regular permutation when u had none; it checks
that a regular permutation of v alone decides not-conjugate.
`normal_form_unmemoised` is the older sweep, which ran every step; it checks
the sweep that looks a repeated (side, syllable, carry) step up in
`ctx.cache`.
`transfer_through_basis` is the older transfer, which spelled a C-element
over the free basis of C and substituted the basis images letter by letter;
it checks the walk that multiplies the images on the basis edges.
`adversarial_rep_by_cancellation` is the older `paper-ex1` representative,
which recovered the head by cancelling `w * ~rep` letter by letter; it
checks the head that `_rep` derives from the canonical one.
`walk_letter_by_letter` reads a word one lookup per letter, as the graph
does below `_RUN_MIN` letters; it checks the run walker of longer inputs.
`free_conjugacy_by_least_rotation` and `conjugacy_into_by_rotation_scan` are
the older cyclic-word searches, which built every rotation and traced each
one from every state; they check the searches that trace the core once.
"""

from __future__ import annotations

from collections import deque
from itertools import product
from typing import Optional

from amalgam import group
from amalgam.cosetalg import CosetOfC
from amalgam.group import (
    CANONICAL,
    AmalgamContext,
    ConjugacyOutcome,
    NormalForm,
    RepPolicy,
    cyclic_form,
    normal_form,
)
from amalgam.stallings import GeneratingTuple, SubgroupGraph, coset_intersection
from amalgam.words import (
    Alphabet,
    VerificationError,
    Word,
    identity,
    letters_inverse,
    letters_product,
    substitute,
)


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


def subgroup_elements(g: GeneratingTuple, max_len: int) -> list[Word]:
    """All subgroup elements of reduced length at most max_len (loop words)."""
    graph = g.graph
    letters = [s * i for i in range(1, len(g.alphabet) + 1) for s in (1, -1)]
    found = {(): True}
    stack = [(graph.base, ())]
    while stack:
        state, ls = stack.pop()
        if len(ls) == max_len:
            continue
        for lt in letters:
            if ls and ls[-1] == -lt:
                continue
            t = graph.step(state, lt)
            if t is None:
                continue
            ext = ls + (lt,)
            if t == graph.base:
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
    """Assert that a graph is a folded core-plus-base automaton."""
    seen = set()
    for (s, lab) in graph.fwd:
        assert (s, lab) not in seen
        seen.add((s, lab))
    # foldedness of inverse edges is determinism of `back`, which holds by
    # construction (dict); degrees of non-base states must be >= 2
    degree = [0] * graph.nstates
    for (s, _), (d, _) in graph.fwd.items():
        degree[s] += 1
        degree[d] += 1
    for v in range(1, graph.nstates):
        assert degree[v] >= 2, f"state {v} not in core"


def double_transversal_with_pruning(g: GeneratingTuple) -> tuple[Word, ...]:
    """Double-coset representatives, candidates pruned pairwise.

    Components of the product of the graph with itself carrying a
    nontrivial loop each contribute treePath(p) * ~treePath(q); the
    diagonal component is the empty word, listed first.  Duplicates are
    pruned with the pairwise test H t H = H t' H iff Ht meets t'H.
    """
    graph = g.graph
    one = identity(g.alphabet)
    if graph.is_trivial():
        return (one,)
    # the product's edges pair equally labeled edges of the two factors
    n = graph.nstates
    by_letter: dict[int, list[tuple[int, int]]] = {}
    for (s, lab), (d, _) in graph.fwd.items():
        by_letter.setdefault(lab, []).append((s, d))
    edges = [
        (p * n + q, tp_ * n + tq)
        for pairs in by_letter.values()
        for p, tp_ in pairs
        for q, tq in pairs
    ]
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
    nverts: dict[int, int] = {}
    for x in parent:
        r = find(x)
        nverts[r] = nverts.get(r, 0) + 1
    nedges: dict[int, int] = {}
    for a, _ in edges:
        r = find(a)
        nedges[r] = nedges.get(r, 0) + 1
    diag = find(0)
    reps = []
    for root, ne in sorted(nedges.items()):
        if root == diag or ne - nverts[root] + 1 < 1:
            continue
        p, q = divmod(root, n)
        reps.append(graph.tree_path(p) * ~graph.tree_path(q))
    reps.sort(key=lambda w: (len(w), w.letters))
    kept: list[Word] = [one]
    for t in reps:
        if any(_same_double_coset(g, t, t2) for t2 in kept):
            continue
        kept.append(t)
    return tuple(kept)


def _same_double_coset(g: GeneratingTuple, t: Word, t2: Word) -> bool:
    """H t H = H t' H iff Ht meets t'H (t'H as a coset of the conjugate subgroup)."""
    shifted = conjugate_by_copy(g, ~t2)
    return coset_intersection(g, t, shifted, t2) is not None


def conjugate_by_copy(g: GeneratingTuple, z: Word) -> GeneratingTuple:
    """Automaton of ~z * H * z: a copy of H's graph with a fresh path for z.

    z is read from the basepoint as far as the graph allows and a fresh path
    spells the rest; the basepoint moves to its end, and the copy is trimmed
    and renumbered.
    """
    graph = g.graph
    edges = {eid: (s, lab, d) for (s, lab), (d, eid) in graph.fwd.items()}
    s, i = graph.base, 0
    for lt in z.letters:
        t = graph.step(s, lt)
        if t is None:
            break
        s, i = t, i + 1
    v, eid = graph.nstates, max(edges, default=-1) + 1
    for lt in z.letters[i:]:
        edges[eid] = (s, lt, v) if lt > 0 else (v, -lt, s)
        s, v, eid = v, v + 1, eid + 1
    return GeneratingTuple(SubgroupGraph(g.alphabet, edges, s))


def pullback_by_steps(g1: GeneratingTuple, g2: GeneratingTuple) -> GeneratingTuple:
    """The (base, base) product component, one `step` per letter and factor."""
    a, b = g1.graph, g2.graph
    order = [(a.base, b.base)]
    ids = {order[0]: 0}
    edges = {}
    for pid, (p, q) in enumerate(order):
        for lab in range(1, len(g1.alphabet) + 1):
            for slet in (lab, -lab):
                tp_, tq = a.step(p, slet), b.step(q, slet)
                if tp_ is None or tq is None:
                    continue
                tid = ids.setdefault((tp_, tq), len(order))
                if tid == len(order):
                    order.append((tp_, tq))
                if slet > 0:
                    edges[len(edges)] = (pid, lab, tid)
    return GeneratingTuple(SubgroupGraph(g1.alphabet, edges, 0))


def _coset_automaton(g: GeneratingTuple, rep: Word) -> tuple[dict, int]:
    """Transitions of the subgroup graph with a tail spelling rep; returns accept state."""
    graph = g.graph
    trans: dict[tuple[int, int], int] = {}
    for (s, lab), (d, _) in graph.fwd.items():
        trans[(s, lab)] = d
        trans[(d, -lab)] = s
    cur, fresh = graph.base, graph.nstates
    for lt in rep.letters:
        nxt = trans.get((cur, lt))
        if nxt is None:
            nxt, fresh = fresh, fresh + 1
            trans[(cur, lt)] = nxt
            trans[(nxt, -lt)] = cur
        cur = nxt
    return trans, cur


def coset_intersection_by_copy(
    K: GeneratingTuple, a: Word, L: GeneratingTuple, b: Word
) -> Optional[tuple[GeneratingTuple, Word]]:
    """Ka meet Lb: breadth first through the product of the two coset automata."""
    ta, acc_a = _coset_automaton(K, a)
    tb, acc_b = _coset_automaton(L, b)
    start, target = (K.graph.base, L.graph.base), (acc_a, acc_b)
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
    if not (K.contains(h * ~a) and L.contains(h * ~b)):
        raise VerificationError("coset intersection witness failed verification")
    return pullback_by_steps(K, L), h


def shift_by_copy(ctx: AmalgamContext, d: CosetOfC, p: Word, q: Word) -> Optional[CosetOfC]:
    """(p * d * q) meet C through a cached conjugate copy of d's subgroup."""
    key = ("shift", d.key(), p.letters, q.letters)
    if key not in ctx.cache:
        conj_key = ("conj", d.subgroup.graph.canonical_key(), (~p).letters)
        if conj_key not in ctx.cache:
            ctx.cache[conj_key] = conjugate_by_copy(d.subgroup, ~p)
        hit = coset_intersection_by_copy(
            ctx.cache[conj_key], p * d.rep * q, ctx.graph_c(d.side), identity(p.alphabet)
        )
        result = None
        if hit is not None:
            canon, _ = hit[0].coset_rep(hit[1])
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
        if pi_j.sides() != g_star.sides():
            continue
        e = group.principal_system_solve(ctx, g_star, pi_j)
        if e is None:
            continue
        c = group.cardinality(e).element
        c_k = group._propagate_solution(ctx, g_star, pi_j, c, e.side)
        side1 = g_star.syllables[0].side
        c_on_1 = c if e.side == side1 else ctx.transfer_word(e.side, c)
        if g_star.head * c_k != c_on_1 * pi_j.head:
            continue
        z = letters_product(u_prefix, ctx.union_letters(e.side, c.letters))
        z = Word(ctx.union_alphabet, letters_product(z, letters_inverse(w_j)))
        return group._assemble_and_verify(ctx, u, v, z, policy)
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
    perms_u, perms_v = (
        [(letters_product(cf.conjugator.letters, w), pi)
         for w, pi in group._cyclic_perms(ctx, cf.form, policy)]
        for cf in (cf_u, cf_v)
    )
    out = _solve_from_regular_permutation(ctx, u, v, perms_u, perms_v, policy)
    if out is not None:
        return out
    out = _solve_from_regular_permutation(ctx, v, u, perms_v, perms_u, policy)
    if out is not None and out.tag == "conjugate":
        return group._assemble_and_verify(ctx, u, v, ~out.conjugator, policy)
    reason = "every cyclic permutation of both forms is singular"
    return out or ConjugacyOutcome("undecided", None, reason)


def normal_form_unmemoised(
    ctx: AmalgamContext,
    raw: Word,
    policy: RepPolicy = CANONICAL,
    trace: Optional[list[int]] = None,
) -> NormalForm:
    """The right-to-left sweep with every step run: transfer, multiply, split."""
    reps = group._coset_reps(ctx, policy)
    done: list[tuple[str, tuple[int, ...]]] = []  # output syllables, last first
    carry_side, carry = "A", ()
    for side, word in reversed(group._split(ctx, raw)):
        if carry and carry_side != side:
            carry = ctx.transfer_letters(carry_side, carry)
        rep, head = reps[side](letters_product(word, carry))
        if rep:
            if done and done[-1][0] == side:
                rep, head2 = reps[side](letters_product(rep, done.pop()[1]))
                head = letters_product(head, head2)
            if rep:
                done.append((side, rep))
        carry_side, carry = side, head
        if trace is not None:
            trace.append(len(carry))
    target = done[-1][0] if done else "A"
    if carry and carry_side != target:
        carry = ctx.transfer_letters(carry_side, carry)
    graph = ctx.graph_c(target).graph
    if not graph.reads_loop(carry, graph.base):
        raise VerificationError("normal-form head escaped C")
    return group._form(ctx, target, carry, reversed(done))


def transfer_through_basis(
    ctx: AmalgamContext, side: str, letters: tuple[int, ...]
) -> tuple[int, ...]:
    """phi (A to B) or psi (B to A) as basis coordinates, then substitution."""
    graph = ctx.graph_c(side)
    images = ctx.phi_images if side == "A" else ctx.psi_images
    expr = graph.express_in_basis(Word(graph.alphabet, letters))
    return substitute(expr, images, ctx.factor_alphabet(ctx.other(side))).letters


def adversarial_rep_by_cancellation(
    ctx: AmalgamContext, side: str, w: tuple[int, ...], p: int
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(rep, head) of the adversarial policy, with head = w * ~rep freely reduced."""
    rep, head = ctx.graph_c(side).graph.coset_rep(w)
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
        hit = (graph.fwd if lt > 0 else graph.back).get((s, abs(lt)))
        if hit is None:
            return s, i, tuple(out)
        s, eid = hit
        for x in (words or {}).get(eid if lt > 0 else ~eid, ()):
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
    cu, zu = u.cyclic_reduce()
    cv, zv = v.cyclic_reduce()
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
    g: GeneratingTuple, w: Word
) -> Optional[tuple[Word, Word]]:
    """(h, z) for the first state s, then rotation r, reading a loop at s."""
    core, u = w.cyclic_reduce()
    graph = g.graph
    if not core:
        return identity(g.alphabet), ~u
    for s in range(graph.nstates):
        for r in range(len(core)):
            rot = _rotation(core.letters, r)
            if graph.trace(rot, s) == s:
                tp = graph.tree_path(s)
                h = tp * Word(g.alphabet, rot) * ~tp
                z = tp * ~Word(g.alphabet, core.letters[:r]) * ~u
                if ~z * h * z != w:
                    raise VerificationError("conjugacy_into witness failed verification")
                return h, z
    return None

"""Independent brute-force oracles used by the test suite.

Everything here works by enumeration and free reduction only, so it never
shares a code path with the machinery it checks (beyond plain word algebra
and graph tracing).  The conjugacy oracle and the cyclic permutations by
definition are the exceptions: they call `normal_form`, so they check the
conjugacy decider and the one-sweep permutations, not the word problem.
`double_transversal_with_pruning` is the older double transversal, which
re-checked every pair of candidates with `conjugate` and
`coset_intersection`; it checks that no candidate ever needs pruning.
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

from itertools import product
from typing import Optional

from amalgam.group import AmalgamContext, NormalForm, RepPolicy, normal_form
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
    shifted = g.conjugate(~t2)
    return coset_intersection(g, t, shifted, t2) is not None


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

"""Folded subgroup automata for finitely generated subgroups of free groups.

A subgroup graph is a folded, pointed, edge-labeled digraph whose basepoint
loops spell exactly the elements of the subgroup.  The graph kept here is the
core together with the geodesic from the basepoint ("core-plus-base"), with a
breadth-first geodesic tree fixed by a deterministic tie-break (smallest
letter index, sign + before -), so coset representatives and the free basis,
the loops through the non-tree edges (`basis_loops`), are stable across runs.

`SubgroupGraph` has one constructor: a folded edge map and a basepoint,
trimmed to core-plus-base by `_trim` and renumbered breadth first from each
state's own edges in the tie-break order, which builds the tree.  Its one
table of moves, built once on the new numbers, holds each edge both ways, so
no walk branches on a letter's sign.  Two constructions feed it.  `fold`
folds the subdivided rose on the generators' letter tuples (`build` takes
them as Words), on flat lists indexed by edge id (source, target, positive
letter, t-word) with one incidence set per vertex.  `meet` walks the product
of two graphs breadth first from a pair of start states and passes on the
component it reaches, which is folded because both factors are.  Beside
each graph it keeps the paths of a start word and an accept word in a small
overlay, so `z_subgroup` and the coset algebra's `shift` read conjugates and
cosets off the graphs they already have and copy none; every meet in the
package is this walk.  The Stallings graph of a subgroup is unique as a
pointed graph (Kapovich-Myasnikov, J. Algebra 248, 2002), so the walk gives
exactly the graph that folding any generating set of the same subgroup
would give.

Words over the generators are read off the graph itself.  `fold` writes
t_i on the closing edge of loop i of the subdivided rose and keeps the edge
words consistent while it folds (Kapovich-Myasnikov): before a vertex is
merged away, a gauge at it makes the two folded edges' words equal, and a
dropped parallel edge differs from the kept one only by a relation among the
generators.  So `g.loop_word(w.letters, g.edge_words)` multiplies the
words along the basepoint loop of w to a word over the generators that
substitutes to w.  Substituting other targets for the t_i edge by edge
gives the image of every loop under u_i -> target_i; the group layer's
transfers walk those images.  The graph does not depend on the order of the
folds, but the edge words do, and they reach the text of invalid-pairing
errors, so `fold` states its fold order as part of its contract.  A graph
that `meet` returns, or one made from an edge map alone, has no edge words.
Edge words that put b_j on the j-th non-tree edge spell a member over the
basis (`basis_coordinates`).

Each question about a word has one walk: `read` (where does it stop?),
`contains` (is it a loop at the base?) and `loop_word` (what does the loop
spell?).  `coset_rep` splits where `read` stops; a state's tree path and its
inverse are cached for that state alone, by one walk up the tree.

Inputs of `_RUN_MIN` letters or more are read a run `x^k` at a time.  In a
folded graph each letter is a partial injection on the states, so reading
x repeatedly from a state s either gets stuck or comes back to s after a
period L <= nstates (Kapovich-Myasnikov).  `_walk` finds the end of the run
with galloping slice compares (one count when the run fills the input),
steps through the orbit of s once, and skips k // L whole cycles, so a run
costs O(L) lookups however large k is.  A loop word gains the cycle's
edge-word product W = c W0 ~c as c, then the tuple W0^q, then ~c; the
product is kept as a list of tuple parts, so a loop word that is one block
is built by a single tuple repeat.  Shorter inputs keep the plain
letter-at-a-time loops, which are cheaper when there is little to skip.
"""

from __future__ import annotations

from collections import deque
from itertools import accumulate, chain
from typing import Iterator, Optional, Sequence

from .words import (
    Alphabet,
    VerificationError,
    Word,
    identity,
    letters_cyclic_reduce,
    letters_inverse,
    letters_product,
    letters_substitute,
)


_RUN_MIN = 64  # inputs this long are walked a run at a time


class NotAMemberError(ValueError):
    """Witness requested for a word outside the subgroup."""


Edges = dict[int, tuple[int, int, int]]  # eid -> (src, positive letter, dst)


def _trim(edges: Edges, base: int) -> tuple[Edges, dict[int, list[tuple[int, int, int, int]]]]:
    """Core-plus-base: drop hanging trees away from the basepoint.

    Returns the caller's edge map itself when no vertex hangs, else a trimmed
    copy, and each vertex's moves as (2 * lab, +lab, target, eid) and
    (2 * lab + 1, -lab, source, ~eid), so they sort in the tree's tie-break
    order; the dropped edges' moves stay in these lists.
    """
    inc: dict[int, list[tuple[int, int, int, int]]] = {}
    for eid, (s, lab, d) in edges.items():
        inc.setdefault(s, []).append((2 * lab, lab, d, eid))
        inc.setdefault(d, []).append((2 * lab + 1, -lab, s, ~eid))
    degree = {v: len(es) for v, es in inc.items()}
    leaves = [v for v, k in degree.items() if k <= 1 and v != base]
    if not leaves:
        return edges, inc
    live = dict(edges)
    while leaves:
        for *_, key in inc[leaves.pop()]:
            hit = live.pop(max(key, ~key), None)  # the eid, whichever way the move goes
            if hit is None:
                continue
            for w in (hit[0], hit[2]):
                degree[w] -= 1
                if degree[w] == 1 and w != base:
                    leaves.append(w)
    return live, inc


def _run_end(letters: Sequence[int], i: int, n: int) -> int:
    """End of the run of letters[i] that starts at i, by galloping slice compares."""
    lt, j, step = letters[i], i + 1, 1
    if not i and letters[-1] == lt and letters.count(lt) == n:  # fills the input: one count
        return n
    while j < n:
        end = min(j + step, n)
        if letters[j:end].count(lt) != end - j:
            break
        j, step = end, 2 * step
    else:
        return n
    while step > 1:  # the run ends in [j, j + step)
        step //= 2
        if letters[j : j + step].count(lt) == step:
            j += step
    return j


def _push(parts: list, word: tuple[int, ...]) -> None:
    """Multiply the reduced product of parts by the reduced word in place.

    A tuple part that loses letters becomes a list, so it is copied once at most.
    """
    while word and parts:
        last = parts[-1]
        k, m = 0, min(len(last), len(word))
        while k < m and last[-1 - k] == -word[k]:
            k += 1
        if not k:
            break
        if k == len(last):
            parts.pop()
        else:
            if isinstance(last, tuple):
                last = parts[-1] = list(last)
            del last[-k:]
        word = word[k:]
    if word:
        parts.append(word)


class SubgroupGraph:
    """Immutable folded core-plus-base automaton with its geodesic tree.

    Its one transition table `moves`, built once as the states are renumbered,
    maps the int (s + 1) * width + slet, for signed letter slet at state s and
    width = 2 * |alphabet| + 1, to (state reached, eid), or to (state reached,
    ~eid) on a backward move.  Int keys hash faster than (s, slet) tuples, and
    the offset keeps them positive: CPython hashes -1 like -2.  Only `edges()`
    decodes a key; fewer keys than two per edge reject the edge map as unfolded.

    `edge_words` maps an edge id to the fold's word over the generators' t-alphabet
    (absent means empty) and ~eid to its inverse (see `loop_word`); `meet` leaves none.
    """

    # the graph itself, for the `.graph` reads in layerbench/; ROADMAP item 7 removes it
    graph = property(lambda self: self)

    def __init__(self, alphabet: Alphabet, edges: Edges, base: int, edge_words: Optional[dict] = None):
        """Trim a folded, connected edge map at `base` and renumber it along the tree."""
        self.alphabet = alphabet
        self.edge_words = edge_words or {}
        self.width = width = 2 * len(alphabet) + 1
        live, inc = _trim(edges, base)
        trimmed = live is not edges
        # renumbering breadth first along each state's own moves builds the geodesic tree
        old_of = [base]
        new_of = {base: 0}
        tree: list[Optional[tuple[int, int]]] = [None]  # (parent, slet)
        self.moves = moves = {}
        for i, v in enumerate(old_of):  # old_of grows while it is scanned
            for _, slet, w, key in sorted(inc.get(v, ())):
                if not trimmed or max(key, ~key) in live:  # an edge the trim kept
                    j = new_of.setdefault(w, len(old_of))
                    if j == len(old_of):
                        old_of.append(w)
                        tree.append((i, slet))
                    moves[(i + 1) * width + slet] = (j, key)
        if len(moves) != 2 * len(live):  # two edges share a move, or one is out of reach
            raise VerificationError("graph is not folded")
        self.nstates = len(old_of)
        self.base = 0
        self.tree = tuple(tree)
        self._paths = {0: ((), ())}  # state -> (tree path, its inverse), filled state by state
        self._key: Optional[tuple] = None
        self._transversal: Optional[tuple[Word, ...]] = None
        self._z_graphs: Optional[dict[tuple[int, ...], SubgroupGraph]] = None  # t -> Z_t(H)

    @property
    def nedges(self) -> int:
        return len(self.moves) // 2

    @property
    def rank(self) -> int:
        return self.nedges - self.nstates + 1

    def edges(self) -> Iterator[tuple[int, int, int, int]]:
        """Each edge once, forwards: (source, positive letter, target, eid)."""
        for key, (d, eid) in self.moves.items():
            if eid >= 0:
                s, lab = divmod(key, self.width)
                yield s - 1, lab, d, eid

    def is_trivial(self) -> bool:
        return self.rank == 0

    def step(self, state: int, slet: int) -> Optional[int]:
        hit = self.moves.get((state + 1) * self.width + slet)
        return None if hit is None else hit[0]

    def read(self, letters: Sequence[int], start: int = 0) -> tuple[int, int]:
        """(state reached, letters read) from `start`, up to the first unreadable letter."""
        if len(letters) >= _RUN_MIN:
            return self._walk(letters, start)
        moves, width = self.moves, self.width
        s = start
        for i, lt in enumerate(letters):
            hit = moves.get((s + 1) * width + lt)
            if hit is None:
                return s, i
            s = hit[0]
        return s, len(letters)

    def contains(self, letters: Sequence[int]) -> bool:
        """Whether the letters spell a member of the subgroup: a loop at the base."""
        if len(letters) >= _RUN_MIN:
            return self._walk(letters, self.base) == (self.base, len(letters))
        moves, width = self.moves, self.width
        s = self.base
        for lt in letters:
            hit = moves.get((s + 1) * width + lt)
            if hit is None:
                return False
            s = hit[0]
        return s == self.base

    def _tree_pair(self, state: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """(treePath(state), its inverse) by one walk up the tree, cached for this state alone."""
        pair = self._paths.get(state)
        if pair is None:
            up, s = [], state
            while s:  # up to the base, state 0
                s, slet = self.tree[s]
                up.append(slet)
            pair = self._paths[state] = (tuple(reversed(up)), tuple(-slet for slet in up))
        return pair

    def tree_path_letters(self, state: int) -> tuple[int, ...]:
        return self._tree_pair(state)[0]

    def coset_rep(self, letters: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Split a reduced letter tuple as head * rep, head in the subgroup.

        rep is treePath(p) * s for p the state reached by the longest
        readable prefix and s the unreadable suffix; it depends only on the
        coset, is freely reduced (the geodesic never ends with the inverse of
        the stuck letter), and |rep| <= |letters|.
        """
        s, i = self.read(letters)
        if not s:  # split at the base
            return letters[i:], letters[:i]
        path, inverse = self._paths.get(s) or self._tree_pair(s)
        return path + letters[i:], letters_product(letters[:i], inverse)

    def _walk(
        self,
        letters: Sequence[int],
        s: int,
        words: Optional[dict] = None,
        out: Optional[list] = None,
    ) -> tuple[int, int]:
        """Read letters from state s a run at a time: (state reached, letters read).

        Fewer than len(letters) letters read means the next one is unreadable
        at the returned state.  With `words`, a walk that reads every letter
        multiplies the edge words along it (words[~eid] on an edge crossed
        backwards, nothing on an edge absent from `words`) onto the parts
        list `out` (see `_push`).
        """
        get, width = self.moves.get, self.width
        n, i = len(letters), 0
        while i < n:
            lt = letters[i]
            if i + 1 == n or letters[i + 1] != lt:  # a lone letter: one step
                hit = get((s + 1) * width + lt)
                if hit is None:
                    return s, i
                s, key = hit
                if words is not None:
                    _push(out, words.get(key, ()))
                i += 1
                continue
            k = _run_end(letters, i, n) - i
            orbit, keys = [s], []  # the orbit of s under lt, and the edges it takes
            for _ in range(k):
                hit = get((s + 1) * width + lt)
                if hit is None:
                    return s, i + len(keys)
                s, key = hit
                keys.append(key)
                if s == orbit[0]:
                    break
                orbit.append(s)
            if s == orbit[0]:  # back at the start: skip the whole cycles
                cycles, r = divmod(k, len(keys))
                s = orbit[r]
            else:
                cycles, r = 0, k
            if words is not None:
                if cycles:
                    parts: list = []
                    for key in keys:
                        _push(parts, words.get(key, ()))
                    cycle = tuple(chain.from_iterable(parts))
                    c, m = 0, len(cycle)  # cycle = c W0 ~c with W0 cyclically reduced
                    while m - 2 * c >= 2 and cycle[c] == -cycle[m - 1 - c]:
                        c += 1
                    _push(out, cycle[:c])
                    _push(out, cycle[c : m - c] * cycles)
                    _push(out, cycle[m - c :])
                for key in keys[:r]:
                    _push(out, words.get(key, ()))
            i += k
        return s, n

    def canonical_key(self) -> tuple:
        if self._key is None:
            self._key = (
                self.alphabet.names,
                self.nstates,
                tuple(sorted((s, lab, d) for s, lab, d, _ in self.edges())),
            )
        return self._key

    def basis_loops(self) -> list[tuple[int, tuple[int, ...]]]:
        """Free basis: (eid, treePath(s) lab ~treePath(d)) per non-tree edge, by (s, lab, d)."""
        return [  # reduced: the tree edge into s or d never shares the slot of a non-tree edge
            (eid, self.tree_path_letters(s) + (lab,) + letters_inverse(self.tree_path_letters(d)))
            for s, lab, d, eid in sorted(self.edges())
            if self.tree[d] != (s, lab) and self.tree[s] != (d, -lab)  # neither end's tree edge
        ]

    def loop_word(self, letters: Sequence[int], words: dict) -> tuple[int, ...]:
        """The reduced product of the edge words along the basepoint loop reading letters.

        A loop crossing edge eid backwards reads words[~eid], the inverse of
        words[eid], and an edge absent from `words` reads nothing.  The product
        and each edge word are reduced, so they cancel only where they meet.
        """
        out: list = []  # letters on the short path, tuple parts on the long one
        if len(letters) >= _RUN_MIN:
            s, i = self._walk(letters, self.base, words, out)
            if i == len(letters) and s == self.base:  # a lone tuple part is returned as it is
                return tuple(out[0]) if len(out) == 1 else tuple(chain.from_iterable(out))
        else:
            moves, width, get = self.moves, self.width, words.get
            s = self.base
            for lt in letters:
                hit = moves.get((s + 1) * width + lt)
                if hit is None:
                    break
                s, key = hit
                word = get(key)
                if word:
                    if out and out[-1] == -word[0]:
                        out.pop()
                        k, n = 1, len(word)
                        while k < n and out and out[-1] == -word[k]:
                            out.pop()
                            k += 1
                        word = word[k:]
                    out.extend(word)
            else:
                if s == self.base:
                    return tuple(out)
        w = Word._make(self.alphabet, tuple(letters))
        raise NotAMemberError(f"{w!r} is not in the subgroup")

    def conjugacy_into(self, w: tuple[int, ...]) -> Optional[tuple[tuple, tuple]]:
        """Find h in the subgroup and z with ~z * h * z == w, all letter tuples, else None.

        h is treePath(s) * rot_r * ~treePath(s) for the least (s, r) such that
        rotation r of the cyclic core of w reads a loop at s; completeness is
        the standard core-graph criterion.  Rotation r reads a loop at s
        exactly when the core reads a loop at the state t that core[r:] leads
        to from s, and then s is where core[:r] leads from t.  So the core is
        read once from each state, and each loop found is walked once.
        """
        ls, u = letters_cyclic_reduce(w)
        if not ls:
            return (), letters_inverse(u)
        hits = []
        for t in range(self.nstates):
            if self.read(ls, t) == (t, len(ls)):
                states = list(accumulate(ls[:-1], self.step, initial=t))
                s = min(states)
                hits.append((s, states.index(s)))
        if not hits:
            return None
        s, r = min(hits)
        tp = self.tree_path_letters(s)
        h = letters_product(letters_product(tp, ls[r:] + ls[:r]), letters_inverse(tp))
        z = letters_product(letters_product(tp, letters_inverse(ls[:r])), letters_inverse(u))
        if letters_product(letters_product(letters_inverse(z), h), z) != w:
            raise VerificationError("conjugacy_into witness failed verification")
        return h, z

    def double_transversal(self) -> tuple[Word, ...]:
        """Double-coset representatives {t_i} with N*(H) the union of H t_i H.

        The empty word comes first, then treePath(p) * ~treePath(q) for the
        min-root (p, q) of every other component of the product of the graph
        with itself that carries a cycle, sorted by length and letters.

        Each such component is one double coset, and no two share one.  F acts
        diagonally on H\\F x H\\F with one orbit per double coset, through
        (Ha, Hb) -> H a ~b H, and the orbit's graph has a cycle exactly when
        a ~b is in N*(H).  Every cycle of that infinite product projects to
        cycles in each factor, which lie in the core of the graph of H.  So
        the connected core of an orbit lies inside one finite component, and
        two components that each carry a cycle lie in different orbits
        (Kapovich-Myasnikov, J. Algebra 248, 2002, section 9).
        """
        if self._transversal is not None:
            return self._transversal
        one = identity(self.alphabet)
        if self.is_trivial():
            self._transversal = (one,)
            return self._transversal
        # the product's edges pair equally labeled edges of the two factors
        n = self.nstates
        by_letter: dict[int, list[tuple[int, int]]] = {}
        for s, lab, d, _ in self.edges():
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

        cyclic = []  # a root of each edge whose ends are already joined: it closes a cycle
        for a, b in edges:
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[max(ra, rb)] = min(ra, rb)
            else:
                cyclic.append(ra)
        reps = []
        for root in sorted({find(r) for r in cyclic} - {find(0)}):  # but the diagonal's
            p, q = divmod(root, n)
            reps.append(letters_product(self._tree_pair(p)[0], self._tree_pair(q)[1]))
        reps.sort(key=lambda t: (len(t), t))
        self._transversal = (one, *(Word._make(self.alphabet, t) for t in reps))
        return self._transversal

    def is_malnormal(self) -> bool:
        return len(self.double_transversal()) == 1

    def z_subgroup(self, t: tuple[int, ...]) -> "SubgroupGraph":
        """Z_t(H) = {h in H : ~t h t in H} = H^{t^-1} meet H, for letters t."""
        z = letters_inverse(t)
        return meet(self, self, (z, ()), (z, ()))[0]

    def z_set_witness(self, c: tuple[int, ...]) -> Optional[tuple[Word, Word, Word]]:
        """If the letters c lie in the Z-set, return (t, target, conjugator_in_H).

        c belongs iff it is conjugate within H into Z_t(H) for some nontrivial
        transversal element t; the test runs in H's `basis_coordinates`.
        """
        if not self.contains(c):
            raise NotAMemberError(f"{Word._make(self.alphabet, c)!r} is not in the subgroup")
        ts = self.double_transversal()[1:]
        one = identity(self.alphabet)
        if not ts:
            return None
        if not c:
            return ts[0], one, one
        alphabet, words, basis = basis_coordinates(self)
        cb = self.loop_word(c, words)
        zgraphs = self._z_graphs = self._z_graphs or {}  # t -> Z_t(H) over the basis alphabet
        for t in ts:
            if t.letters not in zgraphs:
                loops = self.z_subgroup(t.letters).basis_loops()
                zgraphs[t.letters] = fold([self.loop_word(x, words) for _, x in loops], alphabet)
            hit = zgraphs[t.letters].conjugacy_into(cb)
            if hit is not None:  # target and conjugator, spelled back over H's alphabet
                return t, *(Word._make(self.alphabet, letters_substitute(x, basis)) for x in hit)
        return None


def basis_coordinates(g: SubgroupGraph) -> tuple[Alphabet, dict, tuple[tuple[int, ...], ...]]:
    """A subgroup as a free group in its own coordinates: (alphabet, edge words, basis).

    `g.loop_word(w.letters, words)` spells a member w over b1, b2, ...; substituting
    the basis (the loops as letter tuples) spells it back.
    """
    loops = g.basis_loops()
    words = {k: (j if k >= 0 else -j,) for j, (eid, _) in enumerate(loops, 1) for k in (eid, ~eid)}
    alphabet = Alphabet(tuple(f"b{j}" for j in range(1, len(loops) + 1)) or ("b1",))
    return alphabet, words, tuple(loop for _, loop in loops)


def build(generators: Sequence[Word], alphabet: Optional[Alphabet] = None) -> SubgroupGraph:
    """`fold` on Words over one alphabet; an empty list needs an explicit alphabet."""
    if alphabet is None and not generators:
        raise ValueError("alphabet required for an empty generating set")
    alphabet = alphabet or generators[0].alphabet
    if any(g.alphabet != alphabet for g in generators if g):
        raise ValueError("generators over mixed alphabets")
    return fold([g.letters for g in generators], alphabet)


def fold(generators: Sequence[tuple[int, ...]], alphabet: Alphabet) -> SubgroupGraph:
    """Fold the rose on the given reduced letter tuples into the core automaton.

    Trivial generators are dropped; with none left it is a lone basepoint.

    The rose's edges are numbered loop by loop.  The fold order fixes the
    edge words, so it is part of the contract: vertices come off a queue that
    starts sorted and gains each touched vertex once; at a vertex the edges
    are scanned in ascending id, the source end first, and the first edge
    whose signed letter was seen folds with the first edge that had it; the
    smaller id is kept, and the base is never merged away.
    """
    gens = tuple(g for g in generators if g)
    src: list[int] = []  # per edge id: source, target, positive letter (0 once folded away)
    dst: list[int] = []
    labs: list[int] = []
    words: list[tuple[int, ...]] = []  # per edge id: its t-word
    inc: list[Optional[set[int]]] = [set()]  # per vertex: its edges, None once merged away
    for t, g in enumerate(gens, 1):  # loop t of the subdivided rose, edge ids in order
        cur, last = 0, len(g) - 1
        for j, lt in enumerate(g):
            nxt = len(inc) if j < last else 0
            if nxt:
                inc.append(set())
            inc[cur].add(len(labs))
            inc[nxt].add(len(labs))
            src.append(cur if lt > 0 else nxt)
            dst.append(nxt if lt > 0 else cur)
            labs.append(abs(lt))
            cur = nxt
        words += [()] * last
        words.append((t,) if g[-1] > 0 else (-t,))
    # a rose vertex inside a loop sits between two letters of a reduced word, so
    # only the base and the vertices that gained edges by a merge can fold
    grown = [False] * len(inc)
    grown[0] = True
    queue = deque(range(len(inc)))
    queued = [True] * len(inc)
    while queue:
        v = queue.popleft()
        queued[v] = False
        while grown[v] and inc[v] is not None:
            seen: dict[int, int] = {}  # signed letter -> the first edge that moves on it from v
            for dead in sorted(inc[v]):  # the source end before the target end
                kept = seen.setdefault(labs[dead], dead) if src[dead] == v else dead
                if kept == dead and dst[dead] == v:
                    kept = seen.setdefault(-labs[dead], dead)
                if kept != dead:
                    break
            else:
                break
            touched = [src[kept], dst[kept]]
            ends = dst if src[kept] == src[dead] else src  # the ends that may differ
            a, b = ends[kept], ends[dead]
            inc[src[dead]].discard(dead)
            inc[dst[dead]].discard(dead)
            labs[dead] = 0
            if a != b:
                wk, wd = words[kept], words[dead]
                if not b:
                    a, b, wk, wd = b, a, wd, wk  # wd is now the word of the edge that meets b
                if ends is dst:
                    g = letters_product(letters_inverse(wd), wk)
                else:
                    g = letters_product(wd, letters_inverse(wk))
                gi = letters_inverse(g)  # an edge gains ~g where it leaves b, g where it enters
                for e in inc[b]:
                    if src[e] == b:
                        src[e] = a
                        if g:
                            words[e] = letters_product(gi, words[e])
                    if dst[e] == b:
                        dst[e] = a
                        if g:
                            words[e] = letters_product(words[e], g)
                inc[a] |= inc[b]
                inc[b] = None
                grown[a] = True
                touched.append(a)
            for w in touched:
                if w != v and inc[w] is not None and not queued[w]:
                    queue.append(w)
                    queued[w] = True
    edges: Edges = {}
    edge_words = {}
    for e, lab in enumerate(labs):
        if lab:
            edges[e] = (src[e], lab, dst[e])
            if words[e]:
                edge_words[e], edge_words[~e] = words[e], letters_inverse(words[e])
    return SubgroupGraph(alphabet, edges, 0, edge_words)


def _overlay(g: SubgroupGraph, *words: tuple[int, ...]) -> tuple[dict, list[int]]:
    """Paths of reduced words read from the base: (their fresh transitions, their ends).

    Where a letter is unreadable a fresh state, numbered from g.nstates,
    takes it.  The overlay holds only these transitions, both ways, on the
    keys of `g.moves`, so the graph itself is never copied.
    """
    extra: dict[int, int] = {}
    ends = []
    for letters in words:
        s = g.base
        for lt in letters:
            t = g.step(s, lt)
            if t is None:  # a fresh state comes with its move back
                t = extra.setdefault((s + 1) * g.width + lt, g.nstates + len(extra) // 2)
                extra.setdefault((t + 1) * g.width - lt, s)
            s = t
        ends.append(s)
    return extra, ends


def meet(
    K: SubgroupGraph,
    L: SubgroupGraph,
    starts: tuple[tuple[int, ...], tuple[int, ...]] = ((), ()),
    accepts: tuple[tuple[int, ...], tuple[int, ...]] = ((), ()),
) -> Optional[tuple[SubgroupGraph, tuple[int, ...]]]:
    """Walk the product of two graphs: (the meet, a witness h), or None.

    Each graph carries the paths of its start word s and accept word f (see
    `_overlay`).  The component of the start pair is the graph of
    (~s1 K s1) meet (~s2 L s2); the product of two folded graphs is folded,
    so its edges go straight to the graph constructor.  The first path to the
    accept pair, breadth first, spells a shortest h in both ~s1 K f1 and
    ~s2 L f2 (verified); None when the walk never reaches that pair.
    """
    if K.alphabet != L.alphabet:
        raise ValueError("meet over mixed alphabets")
    xa, (start_a, acc_a) = _overlay(K, starts[0], accepts[0])
    xb, (start_b, acc_b) = _overlay(L, starts[1], accepts[1])
    order = [(start_a, start_b)]
    ids = {order[0]: 0}
    via = [(0, 0)]  # (parent id, letter) where each pair was first reached
    edges: Edges = {}
    ma, mb, width = K.moves, L.moves, K.width
    slets = [slet for lab in range(1, len(K.alphabet) + 1) for slet in (lab, -lab)]
    for pid, (p, q) in enumerate(order):  # order grows while it is scanned
        kp, kq = (p + 1) * width, (q + 1) * width
        for slet in slets:
            hit = ma.get(kp + slet)
            tp = xa.get(kp + slet) if hit is None else hit[0]
            if tp is None:
                continue
            hit = mb.get(kq + slet)
            tq = xb.get(kq + slet) if hit is None else hit[0]
            if tq is None:
                continue
            tid = ids.setdefault((tp, tq), len(order))
            if tid == len(order):
                order.append((tp, tq))
                via.append((pid, slet))
            if slet > 0:
                edges[len(edges)] = (pid, slet, tid)
    node = ids.get((acc_a, acc_b))
    if node is None:
        return None
    path = []
    while node:
        node, slet = via[node]
        path.append(slet)
    h = tuple(reversed(path))
    for g, s, f in ((K, starts[0], accepts[0]), (L, starts[1], accepts[1])):
        if not g.contains(letters_product(letters_product(s, h), letters_inverse(f))):
            raise VerificationError("meet witness failed verification")
    return SubgroupGraph(K.alphabet, edges, 0), h

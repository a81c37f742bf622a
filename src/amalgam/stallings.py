"""Folded subgroup automata for finitely generated subgroups of free groups.

A subgroup graph is a folded, pointed, edge-labeled digraph whose basepoint
loops spell exactly the elements of the subgroup.  The graph kept here is the
core together with the geodesic from the basepoint ("core-plus-base"), with a
breadth-first geodesic tree fixed by a deterministic tie-break (smallest
letter index, sign + before -), so coset representatives and the free basis
are stable across runs.

`SubgroupGraph` has one constructor: a folded edge map and a basepoint,
trimmed to core-plus-base by `_trim` and renumbered along the tree.  Two
constructions feed it.  `build` folds the subdivided rose on the given
generators.  `meet` walks the product of two graphs breadth first from a
pair of start states and passes on the component it reaches, which is
folded because both factors are.  Beside each graph it keeps the paths of a
start word and an accept word in a small overlay, so `pullback`,
`coset_intersection`, `z_subgroup` and the coset algebra's `shift` read
conjugates and cosets off the graphs they already have and copy none.  The
Stallings graph of a subgroup is unique as a pointed graph
(Kapovich-Myasnikov, J. Algebra 248, 2002), so the walk gives exactly the
graph that folding any generating set of the same subgroup would give.

Membership witnesses over the generators are read off the graph itself.
`build` writes t_i on the closing edge of loop i of the subdivided rose and
keeps the edge words consistent while it folds (Kapovich-Myasnikov): before
a vertex is merged away, a gauge at it makes the two folded edges' words
equal, and a dropped parallel edge differs from the kept one only by a
relation among the generators.  A basepoint loop then multiplies the words
on its edges to a word over the generators.  A tuple made directly from a
graph is generated by the graph's free basis, with t_j on non-tree edge j.

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

from collections import Counter, deque
from itertools import accumulate, chain
from typing import Optional, Sequence

from .words import (
    Alphabet,
    VerificationError,
    Word,
    identity,
    letters_inverse,
    letters_product,
    substitute,
)


_RUN_MIN = 64  # inputs this long are walked a run at a time


class NotAMemberError(ValueError):
    """Witness requested for a word outside the subgroup."""


class _Folding:
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
        seen: dict[tuple[int, int], int] = {}
        for eid in sorted(self.inc[v]):
            src, dst = self.ends[eid]
            lab = self.labels[eid]
            if src == v:
                other = seen.setdefault((lab, 0), eid)
                if other != eid:
                    return other, eid
            if dst == v:
                other = seen.setdefault((lab, 1), eid)
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


Edges = dict[int, tuple[int, int, int]]  # eid -> (src, positive letter, dst)


def _trim(edges: Edges, base: int) -> Edges:
    """Core-plus-base: drop hanging trees away from the basepoint."""
    inc: dict[int, list[int]] = {}
    for eid, (s, _, d) in edges.items():
        inc.setdefault(s, []).append(eid)
        inc.setdefault(d, []).append(eid)
    degree = {v: len(es) for v, es in inc.items()}
    live = dict(edges)
    leaves = [v for v, k in degree.items() if k <= 1 and v != base]
    while leaves:
        for eid in inc[leaves.pop()]:
            hit = live.pop(eid, None)
            if hit is None:
                continue
            for w in (hit[0], hit[2]):
                degree[w] -= 1
                if degree[w] == 1 and w != base:
                    leaves.append(w)
    return live


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
    """Immutable folded core-plus-base automaton with its geodesic tree."""

    def __init__(self, alphabet: Alphabet, edges: Edges, base: int):
        """Trim a folded, connected edge map at `base` and renumber it along the tree."""
        self.alphabet = alphabet
        n = len(alphabet)
        live = _trim(edges, base)
        raw_fwd: dict[tuple[int, int], tuple[int, int]] = {}
        raw_back: dict[tuple[int, int], tuple[int, int]] = {}
        for eid, (s, lab, d) in live.items():
            raw_fwd[(s, lab)] = (d, eid)
            raw_back[(d, lab)] = (s, eid)
        if not len(raw_fwd) == len(live) == len(raw_back):
            raise VerificationError("graph is not folded")
        # breadth-first renumbering doubles as geodesic tree construction
        old_of = [base]
        new_of = {base: 0}
        tree: list[Optional[tuple[int, int, int]]] = [None]  # (parent, slet, eid)
        tree_eids: set[int] = set()
        i = 0
        while i < len(old_of):
            v = old_of[i]
            for lab in range(1, n + 1):
                for table, sign in ((raw_fwd, 1), (raw_back, -1)):
                    hit = table.get((v, lab))
                    if hit is None or hit[0] in new_of:
                        continue
                    w, eid = hit
                    new_of[w] = len(old_of)
                    old_of.append(w)
                    tree.append((i, sign * lab, eid))
                    tree_eids.add(eid)
            i += 1
        self.nstates = len(old_of)
        self.base = 0
        self.tree = tuple(tree)
        self.tree_eids = frozenset(tree_eids)
        self.fwd = {
            (new_of[s], lab): (new_of[d], eid)
            for (s, lab), (d, eid) in raw_fwd.items()
        }
        self.back = {
            (new_of[d], lab): (new_of[s], eid)
            for (d, lab), (s, eid) in raw_back.items()
        }
        self._tree_words: list[Optional[tuple[int, ...]]] = [None] * self.nstates
        self._tree_words[0] = ()
        self._tree_inverses: Optional[dict[int, tuple[int, ...]]] = None  # made by coset_rep
        self._key: Optional[tuple] = None

    @property
    def nedges(self) -> int:
        return len(self.fwd)

    @property
    def rank(self) -> int:
        return self.nedges - self.nstates + 1

    def is_trivial(self) -> bool:
        return self.rank == 0

    def step(self, state: int, slet: int) -> Optional[int]:
        hit = (self.fwd if slet > 0 else self.back).get((state, abs(slet)))
        return None if hit is None else hit[0]

    def trace(self, letters: Sequence[int], start: int = 0) -> Optional[int]:
        if len(letters) >= _RUN_MIN:
            s, i = self._walk(letters, start)
            return s if i == len(letters) else None
        fwd, back = self.fwd, self.back
        s = start
        for lt in letters:
            hit = fwd.get((s, lt)) if lt > 0 else back.get((s, -lt))
            if hit is None:
                return None
            s = hit[0]
        return s

    def reads_loop(self, letters: Sequence[int], at: int) -> bool:
        return self.trace(letters, at) == at

    def tree_path_letters(self, state: int) -> tuple[int, ...]:
        cached = self._tree_words[state]
        if cached is None:
            parent, slet, _ = self.tree[state]
            cached = self.tree_path_letters(parent) + (slet,)
            self._tree_words[state] = cached
        return cached

    def coset_rep(self, letters: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Split a reduced letter tuple as head * rep, head in the subgroup.

        rep is treePath(p) * s for p the state reached by the longest
        traceable prefix and s the untraceable suffix; it depends only on the
        coset, is freely reduced (the geodesic never ends with the inverse of
        the stuck letter), and |rep| <= |letters|.
        """
        if len(letters) >= _RUN_MIN:
            s, i = self._walk(letters, self.base)
        else:
            fwd, back = self.fwd, self.back
            s = self.base
            i = 0
            for lt in letters:
                hit = fwd.get((s, lt)) if lt > 0 else back.get((s, -lt))
                if hit is None:
                    break
                s = hit[0]
                i += 1
        path = self.tree_path_letters(s)
        if not path:
            return letters[i:], letters[:i]
        inverses = self._tree_inverses = self._tree_inverses or {}
        inverse = inverses.get(s)
        if inverse is None:
            inverse = inverses[s] = letters_inverse(path)
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
        fwd, back = self.fwd, self.back
        n, i = len(letters), 0
        while i < n:
            lt = letters[i]
            get, lab = (fwd.get, lt) if lt > 0 else (back.get, -lt)
            if i + 1 == n or letters[i + 1] != lt:  # a lone letter: one step
                hit = get((s, lab))
                if hit is None:
                    return s, i
                s, eid = hit
                if words is not None:
                    _push(out, words.get(eid if lt > 0 else ~eid, ()))
                i += 1
                continue
            k = _run_end(letters, i, n) - i
            orbit, keys = [s], []  # the orbit of s under lt, and the edges it takes
            for _ in range(k):
                hit = get((s, lab))
                if hit is None:
                    return s, i + len(keys)
                s, eid = hit
                keys.append(eid if lt > 0 else ~eid)
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

    def tree_path(self, state: int) -> Word:
        return Word._make(self.alphabet, self.tree_path_letters(state))

    def canonical_key(self) -> tuple:
        if self._key is None:
            self._key = (
                self.alphabet.names,
                self.nstates,
                tuple(sorted((s, lab, d) for (s, lab), (d, _) in self.fwd.items())),
            )
        return self._key


class GeneratingTuple:
    """A subgroup graph bundled with the generators it was built from.

    `edge_words` maps edge ids to words over the t-alphabet (absent means
    empty), and ~eid to the inverse of the word of eid, which a loop reads
    when it crosses the edge backwards.  Multiplied along a basepoint loop,
    they give a word whose substitution by the generators is the loop's
    label.  Without generators it is the tuple of a graph made directly:
    generated by the graph's free basis, with non-tree edge j labeled t_j,
    both computed on first use.
    """

    def __init__(
        self,
        graph: SubgroupGraph,
        generators: Optional[tuple[Word, ...]] = None,
        edge_words: Optional[dict[int, tuple[int, ...]]] = None,
    ):
        self.graph = graph
        self._basis: Optional[tuple[Word, ...]] = None
        self._basis_alphabet: Optional[Alphabet] = None
        self._basis_words: Optional[dict[int, tuple[int, ...]]] = None  # (b_j,) on non-tree edges
        self._transversal: Optional[tuple[Word, ...]] = None
        self._z_graphs: Optional[dict[tuple[int, ...], GeneratingTuple]] = None
        self._generators = generators
        self._edge_words = edge_words or {}

    @property
    def generators(self) -> tuple[Word, ...]:
        if self._generators is None:  # a graph-made tuple: its basis, on first use
            self._generators = self.basis()
            self._edge_words = self._basis_words
        return self._generators

    @property
    def t_alphabet(self) -> Alphabet:
        return Alphabet(tuple(f"t{i + 1}" for i in range(len(self.generators))) or ("t1",))

    @property
    def alphabet(self) -> Alphabet:
        return self.graph.alphabet

    def contains(self, w: Word) -> bool:
        if w.alphabet != self.alphabet:
            raise ValueError("word over wrong alphabet")
        return self.graph.reads_loop(w.letters, self.graph.base)

    def _ensure_basis(self) -> None:
        if self._basis is not None:
            return
        g = self.graph
        non_tree = sorted(
            (s, lab, d, eid)
            for (s, lab), (d, eid) in g.fwd.items()
            if eid not in g.tree_eids
        )
        basis = []
        words = {}
        for bi, (s, lab, d, eid) in enumerate(non_tree):
            # reduced: the tree edge into s or d never shares the slot of a non-tree edge
            basis.append(
                Word._make(
                    self.alphabet,
                    g.tree_path_letters(s) + (lab,) + letters_inverse(g.tree_path_letters(d)),
                )
            )
            words[eid], words[~eid] = (bi + 1,), (-bi - 1,)
        self._basis = tuple(basis)
        self._basis_words = words
        self._basis_alphabet = Alphabet(
            tuple(f"b{i + 1}" for i in range(len(basis))) or ("b1",)
        )

    def basis(self) -> tuple[Word, ...]:
        """Free basis from the non-tree edges; size = edges - states + 1."""
        self._ensure_basis()
        return self._basis

    @property
    def basis_alphabet(self) -> Alphabet:
        self._ensure_basis()
        return self._basis_alphabet

    def basis_edge_words(self, images: Sequence[tuple[int, ...]]) -> dict[int, tuple[int, ...]]:
        """Edge words for loop_word that send each basis element b_j to images[j]."""
        self._ensure_basis()
        return {
            eid: images[j - 1] if j > 0 else letters_inverse(images[-j - 1])
            for eid, (j,) in self._basis_words.items()
        }

    def express_in_basis(self, w: Word) -> Word:
        """Word over the basis alphabet whose substitution reduces to w."""
        if w.alphabet != self.alphabet:
            raise ValueError("word over wrong alphabet")
        self._ensure_basis()
        return Word._make(self._basis_alphabet, self.loop_word(w.letters, self._basis_words))

    def express_in_generators(self, w: Word) -> Word:
        """Word over the t-alphabet whose substitution by the generators is w."""
        if w.alphabet != self.alphabet:
            raise ValueError("word over wrong alphabet")
        t_alphabet = self.t_alphabet  # also sets a graph-made tuple's edge words
        return Word._make(t_alphabet, self.loop_word(w.letters, self._edge_words))

    def loop_word(self, letters: Sequence[int], words: dict) -> tuple[int, ...]:
        """The reduced product of the edge words along the basepoint loop reading letters.

        A loop crossing edge eid backwards reads words[~eid], the inverse of
        words[eid], and an edge absent from `words` reads nothing.  The product
        and each edge word are reduced, so they cancel only where they meet.
        """
        g = self.graph
        out: list = []  # letters on the short path, tuple parts on the long one
        if len(letters) >= _RUN_MIN:
            s, i = g._walk(letters, g.base, words, out)
            if i == len(letters) and s == g.base:  # a lone tuple part is returned as it is
                return tuple(out[0]) if len(out) == 1 else tuple(chain.from_iterable(out))
        else:
            fwd, back, get = g.fwd, g.back, words.get
            s = g.base
            for lt in letters:
                hit = fwd.get((s, lt)) if lt > 0 else back.get((s, -lt))
                if hit is None:
                    break
                s, eid = hit
                word = get(eid if lt > 0 else ~eid)
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
                if s == g.base:
                    return tuple(out)
        w = Word._make(self.alphabet, tuple(letters))
        raise NotAMemberError(f"{w!r} is not in the subgroup")

    def conjugacy_into(self, w: Word) -> Optional[tuple[Word, Word]]:
        """Find h in the subgroup and z with ~z * h * z == w, else None.

        h is treePath(s) * rot_r * ~treePath(s) for the least (s, r) such that
        rotation r of the cyclic core of w reads a loop at s; completeness is
        the standard core-graph criterion.  Rotation r reads a loop at s
        exactly when the core reads a loop at the state t that core[r:] leads
        to from s, and then s is where core[:r] leads from t.  So the core is
        traced once from each state, and each loop found is walked once.
        """
        if w.alphabet != self.alphabet:
            raise ValueError("word over wrong alphabet")
        core, u = w.cyclic_reduce()
        g = self.graph
        if not core:
            return identity(self.alphabet), ~u
        ls = core.letters
        hits = []
        for t in range(g.nstates):
            if g.trace(ls, t) == t:
                states = list(accumulate(ls[:-1], g.step, initial=t))
                s = min(states)
                hits.append((s, states.index(s)))
        if not hits:
            return None
        s, r = min(hits)
        tp = g.tree_path(s)
        h = tp * Word._make(self.alphabet, ls[r:] + ls[:r]) * ~tp
        z = tp * ~Word._make(self.alphabet, ls[:r]) * ~u
        if ~z * h * z != w:
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
        g = self.graph
        one = identity(self.alphabet)
        if g.is_trivial():
            self._transversal = (one,)
            return self._transversal
        # the product's edges pair equally labeled edges of the two factors
        n = g.nstates
        by_letter: dict[int, list[tuple[int, int]]] = {}
        for (s, lab), (d, _) in g.fwd.items():
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
        nverts = Counter(map(find, parent))
        nedges = Counter(find(a) for a, _ in edges)
        diag = find(0)
        reps = []
        for root, ne in sorted(nedges.items()):
            if root == diag or ne - nverts[root] + 1 < 1:
                continue
            p, q = divmod(root, n)
            reps.append(g.tree_path(p) * ~g.tree_path(q))
        reps.sort(key=lambda w: (len(w), w.letters))
        self._transversal = (one, *reps)
        return self._transversal

    def is_malnormal(self) -> bool:
        return len(self.double_transversal()) == 1

    def z_subgroup(self, t: Word) -> "GeneratingTuple":
        """Z_t(H) = {h in H : ~t h t in H} = H^{t^-1} meet H."""
        if t.alphabet != self.alphabet:
            raise ValueError("word over wrong alphabet")
        z = letters_inverse(t.letters)
        return meet(self, self, (z, ()), (z, ()))[0]

    def z_set_witness(self, c: Word) -> Optional[tuple[Word, Word, Word]]:
        """If c lies in the Z-set, return (t, target, conjugator_in_H).

        c belongs iff it is conjugate within H into Z_t(H) for some nontrivial
        transversal element t; the test runs over basis coordinates.
        """
        if not self.contains(c):
            raise NotAMemberError(f"{c!r} is not in the subgroup")
        ts = self.double_transversal()[1:]
        one = identity(self.alphabet)
        if not ts:
            return None
        if c.is_identity():
            return ts[0], one, one
        cb = self.express_in_basis(c)
        basis = self.basis()
        zgraphs = self._z_graphs = self._z_graphs or {}  # t -> Z_t(H) over the basis alphabet
        for t in ts:
            if t.letters not in zgraphs:
                zb = [self.express_in_basis(b) for b in self.z_subgroup(t).basis()]
                zgraphs[t.letters] = build(zb, self.basis_alphabet)
            hit = zgraphs[t.letters].conjugacy_into(cb)
            if hit is not None:
                hb, zb_conj = hit
                target = substitute(hb, basis, self.alphabet)
                conj = substitute(zb_conj, basis, self.alphabet)
                return t, target, conj
        return None


def build(generators: Sequence[Word], alphabet: Optional[Alphabet] = None) -> GeneratingTuple:
    """Fold the rose on the given generators into the core automaton.

    Trivial generators are dropped; an explicit alphabet is required when the
    generator list is empty (the trivial subgroup is a lone basepoint).
    """
    gens = tuple(g for g in generators if len(g))
    if alphabet is None:
        if not generators:
            raise ValueError("alphabet required for an empty generating set")
        alphabet = generators[0].alphabet
    for g in gens:
        if g.alphabet != alphabet:
            raise ValueError("generators over mixed alphabets")
    folding = _Folding(alphabet)
    for gi, g in enumerate(gens):
        folding.add_loop(g.letters, gi + 1)
    folding.fold_all()
    edges = {eid: (s, folding.labels[eid], d) for eid, (s, d) in folding.ends.items()}
    words = {}
    for eid, word in folding.words.items():
        if word:
            words[eid], words[~eid] = word, letters_inverse(word)
    return GeneratingTuple(SubgroupGraph(alphabet, edges, folding.base), gens, words)


def _overlay(g: SubgroupGraph, *words: tuple[int, ...]) -> tuple[dict, list[int]]:
    """Paths of reduced words read from the base: (their fresh transitions, their ends).

    Where a letter is unreadable a fresh state, numbered from g.nstates,
    takes it.  The overlay holds only these transitions, keyed
    (state, signed letter) both ways, so the graph itself is never copied.
    """
    extra: dict[tuple[int, int], int] = {}
    ends = []
    for letters in words:
        s = g.base
        for lt in letters:
            t = g.step(s, lt)
            if t is None:
                t = extra.get((s, lt))
                if t is None:
                    t = extra[(s, lt)] = g.nstates + len(extra) // 2
                    extra[(t, -lt)] = s
            s = t
        ends.append(s)
    return extra, ends


def meet(
    K: GeneratingTuple,
    L: GeneratingTuple,
    starts: tuple[tuple[int, ...], tuple[int, ...]] = ((), ()),
    accepts: tuple[tuple[int, ...], tuple[int, ...]] = ((), ()),
) -> Optional[tuple[GeneratingTuple, tuple[int, ...]]]:
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
    a, b = K.graph, L.graph
    xa, (start_a, acc_a) = _overlay(a, starts[0], accepts[0])
    xb, (start_b, acc_b) = _overlay(b, starts[1], accepts[1])
    order = [(start_a, start_b)]
    ids = {order[0]: 0}
    via = [(0, 0)]  # (parent id, letter) where each pair was first reached
    edges: Edges = {}
    moves = [
        (lab, ta, tb, sign * lab)
        for lab in range(1, len(K.alphabet) + 1)
        for ta, tb, sign in ((a.fwd, b.fwd, 1), (a.back, b.back, -1))
    ]
    for pid, (p, q) in enumerate(order):  # order grows while it is scanned
        for lab, ta, tb, slet in moves:
            hit = ta.get((p, lab))
            tp = xa.get((p, slet)) if hit is None else hit[0]
            if tp is None:
                continue
            hit = tb.get((q, lab))
            tq = xb.get((q, slet)) if hit is None else hit[0]
            if tq is None:
                continue
            tid = ids.setdefault((tp, tq), len(order))
            if tid == len(order):
                order.append((tp, tq))
                via.append((pid, slet))
            if slet > 0:
                edges[len(edges)] = (pid, lab, tid)
    node = ids.get((acc_a, acc_b))
    if node is None:
        return None
    path = []
    while node:
        node, slet = via[node]
        path.append(slet)
    h = tuple(reversed(path))
    for g, s, f in ((a, starts[0], accepts[0]), (b, starts[1], accepts[1])):
        if not g.reads_loop(letters_product(letters_product(s, h), letters_inverse(f)), g.base):
            raise VerificationError("meet witness failed verification")
    return GeneratingTuple(SubgroupGraph(K.alphabet, edges, 0)), h


def pullback(g1: GeneratingTuple, g2: GeneratingTuple) -> GeneratingTuple:
    """Automaton of the intersection: the (base, base) product component."""
    return meet(g1, g2)[0]


def coset_intersection(
    K: GeneratingTuple, a: Word, L: GeneratingTuple, b: Word
) -> Optional[tuple[GeneratingTuple, Word]]:
    """Intersect the cosets Ka and Lb: None if empty, else (K meet L, h).

    One `meet` walk from the two basepoints with accept words a and b;
    h is a shortest word in both cosets (verified).
    """
    if not (K.alphabet == a.alphabet == L.alphabet == b.alphabet):
        raise ValueError("coset data over mixed alphabets")
    hit = meet(K, L, accepts=(a.letters, b.letters))
    return None if hit is None else (hit[0], Word._make(K.alphabet, hit[1]))

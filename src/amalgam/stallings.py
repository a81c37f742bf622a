"""Folded subgroup automata for finitely generated subgroups of free groups.

A subgroup graph is a folded, pointed, edge-labeled digraph whose basepoint
loops spell exactly the elements of the subgroup.  The graph kept here is the
core together with the geodesic from the basepoint ("core-plus-base"), with a
breadth-first geodesic tree fixed by a deterministic tie-break (smallest
letter index, sign + before -), so coset representatives and the free basis
are stable across runs.

Membership witnesses over the original generators are produced by lifting a
basepoint loop backwards through the recorded folding history to the
subdivided rose: each elementary fold merges two equally labeled edges, and a
path lifts through one fold by choosing either preimage edge and inserting a
label-trivial connector at merged-vertex mismatches.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Optional, Sequence

from .words import Alphabet, Word, identity, letters_inverse, letters_product, substitute


class NotAMemberError(ValueError):
    """Witness requested for a word outside the subgroup."""


@dataclass(frozen=True, slots=True)
class FoldRecord:
    """One elementary fold: `dead` was merged into `kept`.

    Endpoint pairs are as they stood immediately before the fold; `rewrites`
    lists the (edge, slot) endpoint references that were renamed from the dead
    vertex to the kept vertex, so the fold can be undone exactly.
    """

    kept: int
    dead: int
    kept_ends: tuple[int, int]
    dead_ends: tuple[int, int]
    merged: Optional[tuple[int, int]]  # (kept vertex, dead vertex)
    rewrites: tuple[tuple[int, int], ...]


class _Folding:
    """Mutable builder: subdivided rose, folding with history, core trim."""

    def __init__(self, alphabet: Alphabet):
        self.alphabet = alphabet
        self.base = 0
        self.nverts = 1
        self.ends: dict[int, list[int]] = {}  # eid -> [src, dst]
        self.labels: dict[int, int] = {}  # eid -> positive letter
        self.inc: dict[int, set[int]] = {0: set()}
        self.next_eid = 0
        self.history: list[FoldRecord] = []

    def new_vertex(self) -> int:
        v = self.nverts
        self.nverts += 1
        self.inc[v] = set()
        return v

    def add_edge(self, src: int, lab: int, dst: int) -> int:
        eid = self.next_eid
        self.next_eid += 1
        self.ends[eid] = [src, dst]
        self.labels[eid] = lab
        self.inc[src].add(eid)
        self.inc[dst].add(eid)
        return eid

    def add_loop(self, letters: Sequence[int]) -> list[tuple[int, int]]:
        """Attach a subdivided loop at the basepoint spelling `letters`."""
        steps: list[tuple[int, int]] = []
        cur = self.base
        last = len(letters) - 1
        for j, lt in enumerate(letters):
            nxt = self.base if j == last else self.new_vertex()
            if lt > 0:
                steps.append((self.add_edge(cur, lt, nxt), 1))
            else:
                steps.append((self.add_edge(nxt, -lt, cur), -1))
            cur = nxt
        return steps

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
        kept, dead = (e, f) if e < f else (f, e)
        ke = tuple(self.ends[kept])
        de = tuple(self.ends[dead])
        if ke[0] == de[0] and self.labels[kept] == self.labels[dead]:
            pair = (ke[1], de[1])
        else:
            pair = (ke[0], de[0])
        merged = None
        if pair[0] != pair[1]:
            a, b = pair
            if b == self.base:
                a, b = b, a
            merged = (a, b)
        # retire the dead edge before renaming vertices
        self.inc[de[0]].discard(dead)
        self.inc[de[1]].discard(dead)
        del self.ends[dead]
        rewrites: list[tuple[int, int]] = []
        touched = [ke[0], ke[1]]
        if merged is not None:
            a, b = merged
            for eid in sorted(self.inc[b]):
                for slot in (0, 1):
                    if self.ends[eid][slot] == b:
                        self.ends[eid][slot] = a
                        rewrites.append((eid, slot))
            self.inc[a] |= self.inc[b]
            del self.inc[b]
            touched.append(a)
        self.history.append(
            FoldRecord(kept, dead, ke, de, merged, tuple(rewrites))
        )
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

    def trim(self) -> set[int]:
        """Remove hanging trees away from the basepoint; return live edge ids."""
        live = set(self.ends)
        degree: dict[int, int] = {v: 0 for v in self.inc}
        for eid in live:
            s, d = self.ends[eid]
            degree[s] += 1
            degree[d] += 1
        queue = deque(v for v, deg in degree.items() if deg <= 1 and v != self.base)
        dead_verts = set()
        while queue:
            v = queue.popleft()
            if v in dead_verts:
                continue
            dead_verts.add(v)
            for eid in list(self.inc[v] & live):
                live.discard(eid)
                s, d = self.ends[eid]
                for w in (s, d):
                    degree[w] -= 1
                    if degree[w] <= 1 and w != self.base and w not in dead_verts:
                        queue.append(w)
        return live


class SubgroupGraph:
    """Immutable folded core-plus-base automaton with its geodesic tree."""

    def __init__(self, alphabet: Alphabet, folding: _Folding, live: set[int]):
        self.alphabet = alphabet
        n = len(alphabet)
        raw_fwd: dict[tuple[int, int], tuple[int, int]] = {}
        raw_back: dict[tuple[int, int], tuple[int, int]] = {}
        for eid in live:
            s, d = folding.ends[eid]
            lab = folding.labels[eid]
            raw_fwd[(s, lab)] = (d, eid)
            raw_back[(d, lab)] = (s, eid)
        assert len(raw_fwd) == len(live) == len(raw_back), "graph is not folded"
        # breadth-first renumbering doubles as geodesic tree construction
        old_of = [folding.base]
        new_of = {folding.base: 0}
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
        self._new_of = new_of
        self._tree_words: list[Optional[tuple[int, ...]]] = [None] * self.nstates
        self._tree_words[0] = ()
        self._diameter: Optional[int] = None
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

    def step_edge(self, state: int, slet: int) -> Optional[tuple[int, int, int]]:
        """Return (next state, edge id, traversal direction) or None."""
        if slet > 0:
            hit = self.fwd.get((state, slet))
            return None if hit is None else (hit[0], hit[1], 1)
        hit = self.back.get((state, -slet))
        return None if hit is None else (hit[0], hit[1], -1)

    def trace(self, letters: Sequence[int], start: int = 0) -> Optional[int]:
        s = start
        for lt in letters:
            s = self.step(s, lt)
            if s is None:
                return None
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
        return path + letters[i:], letters_product(letters[:i], letters_inverse(path))

    def tree_path(self, state: int) -> Word:
        return Word._make(self.alphabet, self.tree_path_letters(state))

    def diameter(self) -> int:
        if self._diameter is None:
            best = 0
            for start in range(self.nstates):
                dist = {start: 0}
                queue = deque([start])
                while queue:
                    v = queue.popleft()
                    for lab in range(1, len(self.alphabet) + 1):
                        for slet in (lab, -lab):
                            w = self.step(v, slet)
                            if w is not None and w not in dist:
                                dist[w] = dist[v] + 1
                                queue.append(w)
                best = max(best, max(dist.values()))
            self._diameter = best
        return self._diameter

    def canonical_key(self) -> tuple:
        if self._key is None:
            self._key = (
                self.alphabet.names,
                self.nstates,
                tuple(sorted((s, lab, d) for (s, lab), (d, _) in self.fwd.items())),
            )
        return self._key

    def check_folded(self) -> None:
        seen = set()
        for (s, lab) in self.fwd:
            assert (s, lab) not in seen
            seen.add((s, lab))
        # foldedness of inverse edges is determinism of `back`, which holds by
        # construction (dict); degrees of non-base states must be >= 2
        degree = [0] * self.nstates
        for (s, _), (d, _) in self.fwd.items():
            degree[s] += 1
            degree[d] += 1
        for v in range(1, self.nstates):
            assert degree[v] >= 2, f"state {v} not in core"


class GeneratingTuple:
    """A subgroup graph bundled with the generators it was built from."""

    def __init__(
        self,
        graph: SubgroupGraph,
        generators: tuple[Word, ...],
        t_alphabet: Alphabet,
        final_ends: dict[int, tuple[int, int]],
        history: list[FoldRecord],
        marked: dict[int, tuple[int, int]],
    ):
        self.graph = graph
        self.generators = generators
        self.t_alphabet = t_alphabet
        self._final_ends = final_ends
        self._history = history
        self._marked = marked
        self._basis: Optional[tuple[Word, ...]] = None
        self._basis_alphabet: Optional[Alphabet] = None
        self._basis_index: Optional[dict[int, int]] = None
        self._transversal: Optional[tuple[Word, ...]] = None

    @property
    def alphabet(self) -> Alphabet:
        return self.graph.alphabet

    def contains(self, w: Word) -> bool:
        if w.alphabet != self.alphabet:
            raise ValueError("word over wrong alphabet")
        return self.graph.reads_loop(w.letters, self.graph.base)

    def coset_rep(self, w: Word) -> tuple[Word, Word]:
        """Split w = head * rep with head in the subgroup and rep canonical."""
        if w.alphabet != self.alphabet:
            raise ValueError("word over wrong alphabet")
        rep, head = self.graph.coset_rep(w.letters)
        return Word._make(self.alphabet, rep), Word._make(self.alphabet, head)

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
        index = {}
        for bi, (s, lab, d, eid) in enumerate(non_tree):
            basis.append(
                Word(
                    self.alphabet,
                    g.tree_path_letters(s)
                    + (lab,)
                    + tuple(-lt for lt in reversed(g.tree_path_letters(d))),
                )
            )
            index[eid] = bi
        self._basis = tuple(basis)
        self._basis_index = index
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

    def express_in_basis(self, w: Word) -> Word:
        """Word over the basis alphabet whose substitution reduces to w."""
        if not self.contains(w):
            raise NotAMemberError(f"{w!r} is not in the subgroup")
        self._ensure_basis()
        g = self.graph
        out = []
        s = g.base
        for lt in w.letters:
            t, eid, direction = g.step_edge(s, lt)
            bi = self._basis_index.get(eid)
            if bi is not None:
                out.append(direction * (bi + 1))
            s = t
        return Word(self._basis_alphabet, out)

    def express_in_generators(self, w: Word) -> Word:
        """Word over the t-alphabet whose substitution by the generators is w.

        The basepoint loop of w is lifted backwards through the folding
        history to the subdivided rose and read off against one marked edge
        per generator circle.
        """
        if not self.contains(w):
            raise NotAMemberError(f"{w!r} is not in the subgroup")
        g = self.graph
        path: list[tuple[int, int]] = []
        s = g.base
        for lt in w.letters:
            t, eid, direction = g.step_edge(s, lt)
            path.append((eid, direction))
            s = t
        ends = {eid: list(pair) for eid, pair in self._final_ends.items()}
        base = 0
        for rec in reversed(self._history):
            if rec.merged is not None:
                b = rec.merged[1]
                for eid, slot in rec.rewrites:
                    ends[eid][slot] = b
            ends[rec.dead] = list(rec.dead_ends)
            ends[rec.kept] = list(rec.kept_ends)
            if rec.merged is not None:
                path = _lift_path(path, rec, ends, base)
        out = []
        for eid, direction in path:
            mark = self._marked.get(eid)
            if mark is not None:
                gi, mdir = mark
                out.append((gi + 1) * (direction * mdir))
        expr = Word(self.t_alphabet, out)
        return expr

    def conjugate(self, z: Word) -> "GeneratingTuple":
        """Automaton of the conjugate subgroup ~z * H * z."""
        if z.alphabet != self.alphabet:
            raise ValueError("word over wrong alphabet")
        return build([~z * g * z for g in self.generators], self.alphabet)

    def conjugacy_into(self, w: Word) -> Optional[tuple[Word, Word]]:
        """Find h in the subgroup and z with ~z * h * z == w, else None.

        Scans every state for a loop reading some rotation of the cyclic core
        of w; completeness is the standard core-graph criterion.
        """
        if w.alphabet != self.alphabet:
            raise ValueError("word over wrong alphabet")
        core, u = w.cyclic_reduce()
        g = self.graph
        if not core:
            return identity(self.alphabet), ~u
        n = len(core)
        for s in range(g.nstates):
            for r in range(n):
                rot = core.letters[r:] + core.letters[:r]
                if g.trace(rot, s) == s:
                    tp = g.tree_path(s)
                    h = tp * Word(self.alphabet, rot) * ~tp
                    prefix = Word(self.alphabet, core.letters[:r])
                    z = tp * ~prefix * ~u
                    assert ~z * h * z == w
                    return h, z
        return None

    def double_transversal(self) -> tuple[Word, ...]:
        """Double-coset representatives {t_i} with N*(H) the union of H t_i H.

        Components of the product of the graph with itself carrying a
        nontrivial loop each contribute treePath(p) * ~treePath(q); the
        diagonal component is the empty word, listed first.  Duplicates are
        pruned with the pairwise test H t H = H t' H iff Ht meets t'H.
        """
        if self._transversal is not None:
            return self._transversal
        g = self.graph
        one = identity(self.alphabet)
        if g.is_trivial():
            self._transversal = (one,)
            return self._transversal
        n = g.nstates
        nlet = len(self.alphabet)
        parent = list(range(n * n))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        edges: list[tuple[int, int]] = []
        for p in range(n):
            for q in range(n):
                for lab in range(1, nlet + 1):
                    tp_ = g.step(p, lab)
                    tq = g.step(q, lab)
                    if tp_ is None or tq is None:
                        continue
                    a, b = p * n + q, tp_ * n + tq
                    edges.append((a, b))
                    ra, rb = find(a), find(b)
                    if ra != rb:
                        parent[max(ra, rb)] = min(ra, rb)
        nverts: dict[int, int] = {}
        for x in range(n * n):
            nverts[find(x)] = nverts.get(find(x), 0) + 1
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
            reps.append(g.tree_path(p) * ~g.tree_path(q))
        reps.sort(key=lambda w: (len(w), w.letters))
        kept: list[Word] = [one]
        for t in reps:
            if any(_same_double_coset(self, t, t2) for t2 in kept):
                continue
            kept.append(t)
        self._transversal = tuple(kept)
        return self._transversal

    def is_malnormal(self) -> bool:
        return len(self.double_transversal()) == 1

    def z_subgroup(self, t: Word) -> "GeneratingTuple":
        """Z_t(H) = {h in H : ~t h t in H} = H^{t^-1} meet H."""
        return pullback(self.conjugate(~t), self)

    def in_generalized_normalizer(self, w: Word) -> bool:
        """w in N*(H), i.e. H meet H^w is nontrivial."""
        return not pullback(self.conjugate(w), self).graph.is_trivial()

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
        for t in ts:
            zt = self.z_subgroup(t)
            zb = [self.express_in_basis(b) for b in zt.basis()]
            zgraph = build(zb, self.basis_alphabet)
            hit = zgraph.conjugacy_into(cb)
            if hit is not None:
                hb, zb_conj = hit
                target = substitute(hb, basis, self.alphabet)
                conj = substitute(zb_conj, basis, self.alphabet)
                return t, target, conj
        return None

    def in_z_set(self, c: Word) -> bool:
        return self.z_set_witness(c) is not None


def _lift_path(
    path: list[tuple[int, int]],
    rec: FoldRecord,
    ends: dict[int, list[int]],
    base: int,
) -> list[tuple[int, int]]:
    """Rewrite a post-fold edge path into a pre-fold one (same label word)."""

    def start_of(eid: int, direction: int) -> int:
        s, d = ends[eid]
        return s if direction > 0 else d

    def end_of(eid: int, direction: int) -> int:
        s, d = ends[eid]
        return d if direction > 0 else s

    if rec.kept_ends[0] == rec.dead_ends[0]:
        pts = (rec.kept_ends[1], rec.dead_ends[1])
        conn = {
            pts[0]: ((rec.kept, -1), (rec.dead, 1)),
            pts[1]: ((rec.dead, -1), (rec.kept, 1)),
        }
    else:
        pts = (rec.kept_ends[0], rec.dead_ends[0])
        conn = {
            pts[0]: ((rec.kept, 1), (rec.dead, -1)),
            pts[1]: ((rec.dead, 1), (rec.kept, -1)),
        }

    out: list[tuple[int, int]] = []
    cur = base

    def connect_to(target: int) -> None:
        nonlocal cur
        for step in conn[cur]:
            out.append(step)
            cur = end_of(*step)
        assert cur == target, "connector failed to bridge the merged vertices"

    for eid, direction in path:
        cands = (eid, rec.dead) if eid == rec.kept else (eid,)
        chosen = next((c for c in cands if start_of(c, direction) == cur), None)
        if chosen is None:
            connect_to(start_of(cands[0], direction))
            chosen = next(c for c in cands if start_of(c, direction) == cur)
        out.append((chosen, direction))
        cur = end_of(chosen, direction)
    if cur != base:
        connect_to(base)
    return out


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
    marked: dict[int, tuple[int, int]] = {}
    for gi, g in enumerate(gens):
        steps = folding.add_loop(g.letters)
        last_eid, last_dir = steps[-1]
        marked[last_eid] = (gi, last_dir)
    folding.fold_all()
    live = folding.trim()
    graph = SubgroupGraph(alphabet, folding, live)
    t_names = tuple(f"t{i + 1}" for i in range(len(gens))) or ("t1",)
    final_ends = {eid: (s, d) for eid, (s, d) in folding.ends.items()}
    return GeneratingTuple(
        graph, gens, Alphabet(t_names), final_ends, folding.history, marked
    )


def pullback(g1: GeneratingTuple, g2: GeneratingTuple) -> GeneratingTuple:
    """Automaton of the intersection: core of the (base, base) product component."""
    if g1.alphabet != g2.alphabet:
        raise ValueError("pullback over mixed alphabets")
    alphabet = g1.alphabet
    nlet = len(alphabet)
    a, b = g1.graph, g2.graph
    start = (a.base, b.base)
    ids = {start: 0}
    order = [start]
    fwd: dict[tuple[int, int], int] = {}
    queue = deque([start])
    while queue:
        p, q = queue.popleft()
        pid = ids[(p, q)]
        for lab in range(1, nlet + 1):
            for slet in (lab, -lab):
                tp_ = a.step(p, slet)
                tq = b.step(q, slet)
                if tp_ is None or tq is None:
                    continue
                key = (tp_, tq)
                if key not in ids:
                    ids[key] = len(order)
                    order.append(key)
                    queue.append(key)
                tid = ids[key]
                if slet > 0:
                    fwd[(pid, lab)] = tid
                else:
                    fwd[(tid, lab)] = pid
    # trim to core-plus-base
    live = set(fwd)
    degree: dict[int, int] = {i: 0 for i in range(len(order))}
    for (s, _), d in fwd.items():
        degree[s] += 1
        degree[d] += 1
    changed = True
    while changed:
        changed = False
        for (s, lab), d in list(fwd.items()):
            if ((s, lab)) not in fwd:
                continue
            for v in set((s, d)):
                if v != 0 and degree[v] <= 1:
                    del fwd[(s, lab)]
                    degree[s] -= 1
                    degree[d] -= 1
                    changed = True
                    break
    # spanning tree over the surviving product graph, then a free basis
    back = {(d, lab): s for (s, lab), d in fwd.items()}
    tree_letters: dict[int, tuple[int, ...]] = {0: ()}
    tree_edges: set[tuple[int, int]] = set()
    bfs = deque([0])
    while bfs:
        v = bfs.popleft()
        for lab in range(1, nlet + 1):
            for table, sign in ((fwd, 1), (back, -1)):
                w = table.get((v, lab))
                if w is None or w in tree_letters:
                    continue
                tree_letters[w] = tree_letters[v] + (sign * lab,)
                tree_edges.add((v, lab) if sign > 0 else (w, lab))
                bfs.append(w)
    basis = []
    for (s, lab), d in sorted(fwd.items()):
        if (s, lab) in tree_edges or s not in tree_letters or d not in tree_letters:
            continue
        basis.append(
            Word(
                alphabet,
                tree_letters[s] + (lab,) + tuple(-lt for lt in reversed(tree_letters[d])),
            )
        )
    return build(basis, alphabet)


def _coset_automaton(g: GeneratingTuple, rep: Word):
    """Transitions of the subgroup graph with a tail spelling rep; returns accept state."""
    graph = g.graph
    trans: dict[tuple[int, int], int] = {}
    for (s, lab), (d, _) in graph.fwd.items():
        trans[(s, lab)] = d
        trans[(d, -lab)] = s
    cur = graph.base
    fresh = graph.nstates
    for lt in rep.letters:
        nxt = trans.get((cur, lt))
        if nxt is None:
            nxt = fresh
            fresh += 1
            trans[(cur, lt)] = nxt
            trans[(nxt, -lt)] = cur
        cur = nxt
    return trans, cur


def coset_intersection(
    K: GeneratingTuple, a: Word, L: GeneratingTuple, b: Word
) -> Optional[tuple[GeneratingTuple, Word]]:
    """Intersect the cosets Ka and Lb: None if empty, else (K meet L, h).

    Emptiness is reachability in the doubly pointed product of the two coset
    automata; h is the word of a shortest accepting path and lies in both
    cosets (verified).
    """
    if not (K.alphabet == a.alphabet == L.alphabet == b.alphabet):
        raise ValueError("coset data over mixed alphabets")
    alphabet = K.alphabet
    ta, acc_a = _coset_automaton(K, a)
    tb, acc_b = _coset_automaton(L, b)
    nlet = len(alphabet)
    start = (0, 0)
    target = (acc_a, acc_b)
    parents: dict[tuple[int, int], tuple[tuple[int, int], int]] = {start: (start, 0)}
    queue = deque([start])
    found = start == target
    while queue and not found:
        p, q = queue.popleft()
        for lab in range(1, nlet + 1):
            for slet in (lab, -lab):
                tp_ = ta.get((p, slet))
                tq = tb.get((q, slet))
                if tp_ is None or tq is None:
                    continue
                key = (tp_, tq)
                if key in parents:
                    continue
                parents[key] = ((p, q), slet)
                if key == target:
                    found = True
                    queue.clear()
                    break
                queue.append(key)
            if found:
                break
    if not found:
        return None
    letters: list[int] = []
    node = target
    while node != start:
        node, slet = parents[node]
        letters.append(slet)
    h = Word(alphabet, tuple(reversed(letters)))
    assert K.contains(h * ~a) and L.contains(h * ~b)
    return pullback(K, L), h


def _same_double_coset(g: GeneratingTuple, t: Word, t2: Word) -> bool:
    """H t H = H t' H iff Ht meets t'H (t'H as a coset of the conjugate subgroup)."""
    shifted = g.conjugate(~t2)
    return coset_intersection(g, t, shifted, t2) is not None

"""The amalgamated product layer.

A context validates a presentation of G = A *_C B over free factors and
precomputes the transfer tables for C on both sides; its normalizer data
(double transversals, malnormality) is computed on first use.  On top of it
live syllable decomposition, reduced and normal forms, cyclically reduced
forms, the principal-system solver, the regular/singular classifier, and
the partial conjugacy-search decider.  Undecided is a first-class
outcome: the decider halts with a verdict only on inputs it can certify.

The normal-form sweep runs on plain letter tuples: syllables are (side,
factor letters) pairs, coset representatives come from tracing the folded
C graph, and carries cross the amalgamation through one letter-tuple memo.
`Word` is the API boundary: a `NormalForm` compares on its tuples and builds
its `Word`s only when a caller reads `.head` or `.syllables`.  Cyclic forms
run on the same tuples, and one pass of the carry through the syllables
yields every cyclic permutation without normalising rotated words again.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial
from itertools import groupby
from typing import Iterable, Optional, Sequence

from .cosetalg import CosetOfC, c_coset, cardinality, shift, transfer
from .stallings import _RUN_MIN, GeneratingTuple, build
from .words import (
    Alphabet,
    VerificationError,
    Word,
    free_conjugacy,
    identity,
    letters_inverse,
    letters_product,
    substitute,
)


class InvalidPresentationError(ValueError):
    """The generator pairing does not extend to an isomorphism of C."""

    def __init__(self, message: str, index: Optional[int] = None):
        super().__init__(message)
        self.index = index


@dataclass(frozen=True)
class Syllable:
    side: str  # "A" | "B"
    word: Word


@dataclass(frozen=True, init=False, repr=False)
class NormalForm:
    """head * s1 * ... * sn with head in C and alternating coset representatives.

    Held as letter tuples and the (A, B) alphabets, None for an unused side;
    `head` and `syllables` build their `Word`s on first read.
    """

    head_side: str
    head_letters: tuple[int, ...]
    syllable_letters: tuple[tuple[str, tuple[int, ...]], ...]
    _alphabets: tuple[Optional[Alphabet], Optional[Alphabet]]

    def __init__(self, head_side: str, head: Word, syllables: Sequence[Syllable]):
        syllables = tuple(syllables)
        used = {s.side: s.word.alphabet for s in syllables} | {head_side: head.alphabet}
        sylls = tuple((s.side, s.word.letters) for s in syllables)
        self.__dict__.update(head=head, syllables=syllables)
        self._fill(head_side, head.letters, sylls, (used.get("A"), used.get("B")))

    def _fill(self, *values) -> None:
        self.__dict__.update(zip(self.__dataclass_fields__, values))  # in field order

    @cached_property
    def head(self) -> Word:
        return Word._make(self._alphabets["AB".index(self.head_side)], self.head_letters)

    @cached_property
    def syllables(self) -> tuple[Syllable, ...]:
        alphabet = dict(zip("AB", self._alphabets))
        return tuple(Syllable(s, Word._make(alphabet[s], w)) for s, w in self.syllable_letters)

    @property
    def syllable_length(self) -> int:
        return len(self.syllable_letters)

    def sides(self) -> tuple[str, ...]:
        return tuple(side for side, _ in self.syllable_letters)

    def __repr__(self) -> str:
        fields = f"head_side={self.head_side!r}, head={self.head!r}, syllables={self.syllables!r}"
        return f"NormalForm({fields})"


@dataclass(frozen=True)
class ReducedForm:
    head_side: str
    head: Word
    syllables: tuple[Syllable, ...]

    @property
    def syllable_length(self) -> int:
        return len(self.syllables)


@dataclass(frozen=True)
class CyclicForm:
    """form plus a conjugator with original = conjugator * form * ~conjugator."""

    form: NormalForm
    conjugator: Word  # over the union alphabet

    @property
    def cyclic_length(self) -> int:
        return self.form.syllable_length


@dataclass(frozen=True)
class RepPolicy:
    """Coset-representative policy: canonical geodesics or the adversarial set."""

    kind: str = "canonical"  # "canonical" | "paper-ex1"
    p: int = 0

    def __post_init__(self):
        if self.kind not in ("canonical", "paper-ex1"):
            raise ValueError(f"unknown policy {self.kind!r}")
        if self.kind == "paper-ex1" and self.p < 2:
            raise ValueError("adversarial policy needs p >= 2")

    @staticmethod
    def canonical() -> "RepPolicy":
        return RepPolicy()

    @staticmethod
    def paper_example_one(p: int) -> "RepPolicy":
        return RepPolicy("paper-ex1", p)


CANONICAL = RepPolicy()


@dataclass(frozen=True)
class RegularityReport:
    verdict: str  # "regular" | "singular"
    witness_kind: Optional[str] = None  # "bad-pair" | "normalizer" | "z-set"
    witness: tuple[tuple[str, str, Word], ...] = ()
    detail: str = ""

    @property
    def is_regular(self) -> bool:
        return self.verdict == "regular"


@dataclass(frozen=True)
class ConjugacyOutcome:
    tag: str  # "conjugate" | "not-conjugate" | "undecided"
    conjugator: Optional[Word] = None
    reason: str = ""


class AmalgamContext:
    """Validated presentation of G = A *_C B with precomputed transfer data.

    The double transversals and malnormality flags are read off the C graphs
    on first use and memoised there.  Immutable after construction apart from
    the memo dict `cache`; all queries are pure, so they may run concurrently.
    Its ("step", policy) kind maps a sweep step (side, syllable, carry) to its
    (rep, head) and grows like "xfer"; it answers 94% of the steps of the
    word-problem benchmark, 93% of conjugacy's and 38-39% of cold-cli's and blowup's.
    """

    transversal_a = property(lambda self: self.graph_ca.double_transversal())
    transversal_b = property(lambda self: self.graph_cb.double_transversal())
    malnormal_a = property(lambda self: self.graph_ca.is_malnormal())
    malnormal_b = property(lambda self: self.graph_cb.is_malnormal())

    def __init__(
        self,
        alphabet_a: Alphabet,
        alphabet_b: Alphabet,
        pairs: tuple[tuple[Word, Word], ...],
        graph_ca: GeneratingTuple,
        graph_cb: GeneratingTuple,
        phi_images: tuple[Word, ...],
        psi_images: tuple[Word, ...],
        edge_images: tuple[dict, dict],
    ):
        self.alphabet_a = alphabet_a
        self.alphabet_b = alphabet_b
        self.factor_alphabets = (alphabet_a, alphabet_b)
        self.union_alphabet = Alphabet(alphabet_a.names + alphabet_b.names)
        self.pairs = pairs
        self.graph_ca = graph_ca
        self.graph_cb = graph_cb
        self.phi_images = phi_images
        self.psi_images = psi_images
        self._edge_images = dict(zip("AB", edge_images))  # side -> C graph's edge images
        self.cache: dict = {}
        # union letter -> side and factor letter, for the syllable split
        off = len(alphabet_a)
        union = [lt for i in range(1, len(self.union_alphabet) + 1) for lt in (i, -i)]
        self._letter_side = {lt: self.side_of_letter(lt) for lt in union}
        self._factor_letter = {
            lt: lt if abs(lt) <= off else lt - off if lt > 0 else lt + off for lt in union
        }

    # --- sides and alphabets -------------------------------------------------

    def factor_alphabet(self, side: str) -> Alphabet:
        return self.alphabet_a if side == "A" else self.alphabet_b

    def graph_c(self, side: str) -> GeneratingTuple:
        return self.graph_ca if side == "A" else self.graph_cb

    @staticmethod
    def other(side: str) -> str:
        return "B" if side == "A" else "A"

    def side_of_letter(self, union_letter: int) -> str:
        return "A" if abs(union_letter) <= len(self.alphabet_a) else "B"

    def union_letters(self, side: str, letters: tuple[int, ...]) -> tuple[int, ...]:
        off = 0 if side == "A" else len(self.alphabet_a)
        return tuple(lt + off if lt > 0 else lt - off for lt in letters)

    def to_union(self, side: str, w: Word) -> Word:
        return Word._make(self.union_alphabet, self.union_letters(side, w.letters))

    # --- transfer through the amalgamation ----------------------------------

    def transfer_letters(self, side: str, letters: tuple[int, ...]) -> tuple[int, ...]:
        """phi (A to B) or psi (B to A) of a C-element, in one walk of its C graph.

        The walk multiplies the images that label the basis edges.  This is
        the one transfer memo: ("xfer", side, letters) maps to the image's
        letter tuple in ctx.cache.
        """
        key = ("xfer", side, letters)
        hit = self.cache.get(key)
        if hit is None:
            hit = self.cache[key] = self.graph_c(side).loop_word(letters, self._edge_images[side])
        return hit

    def transfer_word(self, side: str, w: Word) -> Word:
        """transfer_letters on a Word over the factor alphabet of `side`."""
        if w.alphabet != self.factor_alphabet(side):
            raise ValueError("word over wrong alphabet")
        return Word._make(
            self.factor_alphabet(self.other(side)), self.transfer_letters(side, w.letters)
        )

    def in_c(self, side: str, w: Word) -> bool:
        return self.graph_c(side).contains(w)


def build_context(
    alphabet_a: Alphabet | Iterable[str],
    alphabet_b: Alphabet | Iterable[str],
    pairs: Sequence[tuple[Word, Word]],
) -> AmalgamContext:
    """Validate a pairing u_i <-> v_i and assemble the context.

    The map defined on a free basis of each side is checked to send every u_i
    to v_i and back; passing certifies that the pairing extends to mutually
    inverse isomorphisms between the two copies of C.
    """
    if not isinstance(alphabet_a, Alphabet):
        alphabet_a = Alphabet(tuple(alphabet_a))
    if not isinstance(alphabet_b, Alphabet):
        alphabet_b = Alphabet(tuple(alphabet_b))
    overlap = set(alphabet_a.names) & set(alphabet_b.names)
    if overlap:
        raise InvalidPresentationError(
            f"factor alphabets share generator names {sorted(overlap)}"
        )
    pairs = tuple(pairs)
    if not pairs:
        raise InvalidPresentationError("at least one amalgamation pair is required")
    for i, (u, v) in enumerate(pairs, 1):
        if u.alphabet != alphabet_a or v.alphabet != alphabet_b:
            raise InvalidPresentationError(
                f"pair {i} is not over the declared alphabets", index=i
            )
        if not u or not v:
            raise InvalidPresentationError(f"pair {i} has a trivial side", index=i)
    words = ([u for u, _ in pairs], [v for _, v in pairs])
    alphabets = (alphabet_a, alphabet_b)
    # both folds first: interleaving the folds with the images timed slower
    graphs = [build(w, alphabet) for w, alphabet in zip(words, alphabets)]
    images, edges = [], []  # per side: transfer images, and the C graph's edge images
    for graph, targets, alphabet in zip(graphs, words[::-1], alphabets[::-1]):
        images.append(tuple(
            substitute(graph.express_in_generators(b), targets, alphabet) for b in graph.basis()
        ))
        edges.append(graph.basis_edge_words([w.letters for w in images[-1]]))
    # both checks walk the edge images that transfer_letters walks, forward first
    for this, that, pairing in ((0, 1, "pairing"), (1, 0, "reverse pairing")):
        for i, (w, target) in enumerate(zip(words[this], words[that]), 1):
            img = Word._make(alphabets[that], graphs[this].loop_word(w.letters, edges[this]))
            if img != target:
                raise InvalidPresentationError(
                    f"pair {i}: the {pairing} is not an isomorphism of C"
                    f" ({'uv'[this]}_{i} maps to {img!r}, expected {target!r})",
                    index=i,
                )
    return AmalgamContext(alphabet_a, alphabet_b, pairs, *graphs, *images, tuple(edges))


# --- syllables and reduced forms ---------------------------------------------


def _split(ctx: AmalgamContext, raw: Word) -> list[tuple[str, tuple[int, ...]]]:
    """Maximal alternating factor blocks of a union word as (side, factor letters)."""
    if raw.alphabet != ctx.union_alphabet:
        raise ValueError("word is not over the union alphabet")
    factor_letter = ctx._factor_letter.__getitem__
    return [
        (side, tuple(map(factor_letter, block)))
        for side, block in groupby(raw.letters, key=ctx._letter_side.__getitem__)
    ]


def syllable_decompose(ctx: AmalgamContext, raw: Word) -> list[Syllable]:
    """Maximal alternating factor blocks of a word over the union alphabet."""
    return [
        Syllable(side, Word._make(ctx.factor_alphabet(side), letters))
        for side, letters in _split(ctx, raw)
    ]


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


def reduced_form(ctx: AmalgamContext, syllables: Sequence[Syllable]) -> ReducedForm:
    """Eliminate C-syllables by transferring them into their neighbours."""
    sylls = _squash(list(syllables))
    while True:
        idx = next(
            (i for i, s in enumerate(sylls) if ctx.in_c(s.side, s.word)), None
        )
        if idx is None:
            break
        s = sylls[idx]
        if len(sylls) == 1:
            head = s.word if s.side == "A" else ctx.transfer_word("B", s.word)
            return ReducedForm("A", head, ())
        moved = ctx.transfer_word(s.side, s.word)
        repl = [Syllable(ctx.other(s.side), moved)] if moved else []
        sylls = _squash(sylls[:idx] + repl + sylls[idx + 1 :])
    head_side = sylls[0].side if sylls else "A"
    return ReducedForm(head_side, identity(ctx.factor_alphabet(head_side)), tuple(sylls))


# --- representative policies and normal forms ---------------------------------


def _is_example_one_fixture(ctx: AmalgamContext, p: int) -> bool:
    if len(ctx.alphabet_a) != 3 or len(ctx.alphabet_b) != 3 or len(ctx.pairs) != 2:
        return False
    (u1, v1), (u2, v2) = ctx.pairs
    return (
        u1.letters == (1,) * p
        and v1.letters == (1,)
        and u2.letters == (2,)
        and v2.letters == (2,) * p
    )


def _coset_reps(ctx: AmalgamContext, policy: RepPolicy) -> dict:
    """Side -> split w -> (rep, head) with w = head * rep, bound once per sweep."""
    if policy.kind == "canonical":
        return {"A": ctx.graph_ca.graph.coset_rep, "B": ctx.graph_cb.graph.coset_rep}
    if not _is_example_one_fixture(ctx, policy.p):
        raise ValueError("the adversarial policy is only defined for the worst-case fixture")
    return {side: partial(_rep, ctx, side, p=policy.p) for side in "AB"}


def _rep(
    ctx: AmalgamContext, side: str, w: tuple[int, ...], p: int
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(rep, head) with w = head * rep, head in C, rep from the adversarial set.

    A side: canonical rep d a^(pm) gets representative b^(-pm) d a^(pm);
    B side: canonical rep z y^(pm) gets representative x^(-pm) z y^(pm).
    The canonical rep's shape is tested in place: one count, no slice.
    """
    rep, head = ctx.graph_c(side).graph.coset_rep(w)
    run, swap = (1, 2) if side == "A" else (2, 1)
    k = len(rep) - 1
    if k < 1 or k % p or rep[0] != 3 or abs(rep[1]) != run or rep.count(rep[1]) != k:
        return rep, head
    s = -swap if rep[1] > 0 else swap
    # w = head * rep = (head * s^-k) * (s^k * rep), s^k in C: cancel only at the junction
    return (s,) * k + rep, letters_product(head, (-s,) * k)


def normal_form(
    ctx: AmalgamContext,
    raw: Word,
    policy: RepPolicy = CANONICAL,
    trace: Optional[list[int]] = None,
) -> NormalForm:
    """Right-to-left sweep into the unique normal form for the active policy.

    The carry (the C-element extracted from the current tail) is transferred
    across the amalgamation each time it moves past a syllable; `trace`, when
    given, records its length after every step.
    """
    reps = _coset_reps(ctx, policy)
    memo = ctx.cache.setdefault(("step", policy), {})
    done: list[tuple[str, tuple[int, ...]]] = []  # output syllables, last first
    carry_side, carry = "A", ()
    for side, word in reversed(_split(ctx, raw)):
        # a carry is on the other side, so (side, word, carry) names a step; long steps go unhashed
        key = (side, word, carry) if len(word) + len(carry) < _RUN_MIN else None
        step = memo.get(key)
        if step is None:
            if carry and carry_side != side:
                carry = ctx.transfer_letters(carry_side, carry)
            step = reps[side](letters_product(word, carry))
            if key:
                memo[key] = step
        rep, head = step
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
    return _form(ctx, target, carry, reversed(done))


def _form(
    ctx: AmalgamContext, head_side: str, head: tuple[int, ...], sylls: Iterable[tuple]
) -> NormalForm:
    """Trusted NormalForm constructor: a head and alternating (side, letters) syllables."""
    sylls = tuple(sylls)
    used = ctx.factor_alphabets
    if len(sylls) < 2:  # one side: the head's, which is the syllable's
        used = (used[0], None) if head_side == "A" else (None, used[1])
    nf = object.__new__(NormalForm)
    nf._fill(head_side, head, sylls, used)
    return nf


def _spell(ctx: AmalgamContext, head_side: str, head: tuple, sylls: Iterable[tuple]) -> tuple:
    """Union letters of head * s_1 * ... * s_n, the s_i as (side, factor letters)."""
    out = ctx.union_letters(head_side, head)
    for side, w in sylls:
        out = letters_product(out, ctx.union_letters(side, w))
    return out


def form_to_word(ctx: AmalgamContext, nf: NormalForm | ReducedForm) -> Word:
    """The normal form as a plain word over the union alphabet."""
    sylls = ((s.side, s.word.letters) for s in nf.syllables)
    return Word._make(ctx.union_alphabet, _spell(ctx, nf.head_side, nf.head.letters, sylls))


# --- cyclically reduced forms --------------------------------------------------


def cyclic_form(
    ctx: AmalgamContext,
    raw: Word,
    policy: RepPolicy = CANONICAL,
) -> CyclicForm:
    """Cyclically reduced conjugate with accumulated conjugator.

    The syllable-length-1 case is settled by conjugacy into C on the factor.
    """
    nf = normal_form(ctx, raw, policy)
    reps = _coset_reps(ctx, policy)
    conj = ()  # union letters until the form is built
    head_side, head = nf.head_side, nf.head_letters
    sylls = list(nf.syllable_letters)
    # while the outer syllables share a side, fold the last one into the head
    while len(sylls) >= 2 and sylls[0][0] == sylls[-1][0]:
        (side, first), last = sylls[0], sylls[-1][1]
        if head and head_side != side:
            head = ctx.transfer_letters(head_side, head)
        conj = letters_product(conj, ctx.union_letters(side, letters_inverse(last)))
        rep, head = reps[side](letters_product(letters_product(last, head), first))
        head_side = side
        sylls = ([(side, rep)] if rep else []) + sylls[1:-1]
    if sylls and head_side != sylls[0][0]:
        head = ctx.transfer_letters(head_side, head) if head else ()
        head_side = sylls[0][0]
    if len(sylls) == 1:
        side, word = sylls[0]
        w_full = Word._make(ctx.factor_alphabet(side), letters_product(head, word))
        hit = ctx.graph_c(side).conjugacy_into(w_full)
        if hit is not None:
            target, z = hit
            conj = letters_product(conj, ctx.union_letters(side, letters_inverse(z.letters)))
            head_side, head, sylls = side, target.letters, []
    if not sylls and head_side != "A":
        head = ctx.transfer_letters(head_side, head) if head else ()
        head_side = "A"
    form = _form(ctx, head_side, head, sylls)
    spelled = _spell(ctx, head_side, head, sylls)
    spelled = letters_product(letters_product(conj, spelled), letters_inverse(conj))
    if normal_form(ctx, Word._make(ctx.union_alphabet, spelled), policy) != nf:
        raise VerificationError("cyclic reduction lost the conjugacy class")
    return CyclicForm(form, Word._make(ctx.union_alphabet, conj))


def _cyclic_perms(
    ctx: AmalgamContext, form: NormalForm, policy: RepPolicy
) -> list[tuple[tuple[int, ...], NormalForm]]:
    """All cyclic permutations pi_j of a cyclically reduced normal form.

    Each entry is (w_j, pi_j) with form = w_j * pi_j * ~w_j, where w_j (in
    union letters) is the head followed by the first j syllables.  For
    form = h s_1 ... s_k the normal form of s_{j+1} ... s_k h s_1 ... s_j
    keeps s_1 ... s_j and has syllables r_{j+1} ... r_k before them and head
    c_{j+1}, where (r_i, c_i) = split(s_i * c_{i+1}) and c_{k+1} = h: one
    right-to-left sweep of the carry yields every permutation.
    """
    reps = _coset_reps(ctx, policy)
    sylls = form.syllable_letters
    steps: list[tuple[tuple, tuple[int, ...]]] = []  # (r_i, c_i) for i = k, ..., 1
    carry_side, carry = form.head_side, form.head_letters
    for side, word in reversed(sylls):
        if carry and carry_side != side:
            carry = ctx.transfer_letters(carry_side, carry)
        rep, carry = reps[side](letters_product(word, carry))
        carry_side = side
        if not rep:
            raise VerificationError("cyclic permutation changed the syllable length")
        graph = ctx.graph_c(side).graph
        if not graph.reads_loop(carry, graph.base):
            raise VerificationError("normal-form head escaped C")
        steps.append(((side, rep), carry))
    steps.reverse()
    rotated = tuple(r for r, _ in steps)
    out = []
    prefix = ctx.union_letters(form.head_side, form.head_letters)
    for j, (side, word) in enumerate(sylls):
        pi = _form(ctx, side, steps[j][1], rotated[j:] + sylls[:j])
        out.append((prefix, pi))
        prefix = letters_product(prefix, ctx.union_letters(side, word))
    return out


# --- principal systems ----------------------------------------------------------


def principal_system_solve(
    ctx: AmalgamContext, g: NormalForm, h: NormalForm
) -> Optional[CosetOfC]:
    """E_{g,h}: the coset of first components of solutions of the principal system.

    Runs the D-recursion D_i = p_{k-i+1} D_{i-1} p'_{k-i+1}^-1 meet C from
    D_0 = C, transferring sides as the conjugators alternate, then pulls the
    final coset back through the chain.  None means the system has no
    solution in C.
    """
    k = g.syllable_length
    if k != h.syllable_length or k < 1:
        raise ValueError("principal systems need equal syllable lengths >= 1")
    if g.sides() != h.sides():
        return None
    key = ("ps", g.syllable_letters, h.syllable_letters)
    if key in ctx.cache:
        return ctx.cache[key]
    ps = list(zip(g.syllables, h.syllables))
    d = c_coset(ctx, ps[-1][0].side)
    for i in range(1, k + 1):
        p, p2 = ps[k - i]
        if d.side != p.side:
            d = transfer(ctx, d)
        d = shift(ctx, d, p.word, ~p2.word)
        if d is None:
            ctx.cache[key] = None
            return None
    e = d
    for p, p2 in ps:
        if e.side != p.side:
            e = transfer(ctx, e)
        e = shift(ctx, e, ~p.word, p2.word)
        if e is None:
            raise VerificationError("back-substitution left C")
    ctx.cache[key] = e
    return e


def _propagate_solution(
    ctx: AmalgamContext, g: NormalForm, h: NormalForm, c: Word, side: str
) -> Word:
    """Push the first component c through the chain; returns c_k on side of p_1."""
    ps = list(zip(g.syllables, h.syllables))
    cur, cur_side = c, side
    for p, p2 in reversed(ps):
        if cur_side != p.side:
            cur = ctx.transfer_word(cur_side, cur)
            cur_side = p.side
        cur = p.word * cur * ~p2.word
        if not ctx.in_c(cur_side, cur):
            raise VerificationError("principal solution left C")
    return cur


# --- regularity -------------------------------------------------------------------


def classify(
    ctx: AmalgamContext, raw: Word, policy: RepPolicy = CANONICAL
) -> RegularityReport:
    """Regular/singular verdict with a witness for the singular cases."""
    return _classify_nf(ctx, normal_form(ctx, raw, policy))


def _classify_nf(ctx: AmalgamContext, nf: NormalForm) -> RegularityReport:
    k = nf.syllable_length
    if k >= 2:
        e = principal_system_solve(ctx, nf, nf)
        if e is None or not e.contains(identity(e.rep.alphabet)):
            raise VerificationError("principal system of a form with itself lost the identity")
        if not cardinality(e).is_infinite:
            return RegularityReport("regular")
        return RegularityReport(
            "singular",
            "bad-pair",
            (("solution", e.side, e.subgroup.basis()[0]),),
            "the principal system of the element against itself has a"
            " nontrivial solution",
        )
    if k == 1:
        side, word = nf.syllable_letters[0]
        key = ("classify1", side, letters_product(nf.head_letters, word))
        hit = ctx.cache.get(key)
        if hit is not None:
            return hit
        w = Word._make(ctx.factor_alphabet(side), key[2])
        meet = ctx.graph_c(side).z_subgroup(~w)
        if meet.graph.is_trivial():
            report = RegularityReport("regular")
        else:
            report = RegularityReport(
                "singular",
                "normalizer",
                (("intersection", side, meet.basis()[0]),),
                "the element lies in the generalized normalizer of C",
            )
        ctx.cache[key] = report
        return report
    key = ("classify0", nf.head_letters)
    hit = ctx.cache.get(key)
    if hit is not None:
        return hit
    report = None
    for side, w in (("A", nf.head), ("B", ctx.transfer_word("A", nf.head))):
        found = ctx.graph_c(side).z_set_witness(w)
        if found is not None:
            t, target, conj = found
            report = RegularityReport(
                "singular",
                "z-set",
                (
                    ("transversal", side, t),
                    ("target", side, target),
                    ("conjugator", side, conj),
                ),
                "a non-C element conjugates the representative back into C",
            )
            break
    if report is None:
        report = RegularityReport("regular")
    ctx.cache[key] = report
    return report


def cr_membership(
    ctx: AmalgamContext, raw: Word, policy: RepPolicy = CANONICAL
) -> tuple[str, Optional[CyclicForm]]:
    """Class of the element among CR>1 / CR0 / CR1 / not cyclically regular.

    For cyclic length above 1 every cyclic permutation is classified and the
    first regular one is returned together with its accumulated conjugator.
    """
    cf = cyclic_form(ctx, raw, policy)
    k = cf.cyclic_length
    if k == 1:
        return "cr1", cf
    if k == 0:
        if _classify_nf(ctx, cf.form).is_regular:
            return "cr0", cf
        return "not-cr", None
    for prefix, pi in _cyclic_perms(ctx, cf.form, policy):
        if _classify_nf(ctx, pi).is_regular:
            conj = Word._make(ctx.union_alphabet, letters_product(cf.conjugator.letters, prefix))
            return "cr>1", CyclicForm(pi, conj)
    return "not-cr", None


# --- conjugacy search ---------------------------------------------------------------


def _assemble_and_verify(
    ctx: AmalgamContext, u: Word, v: Word, z: Word, policy: RepPolicy
) -> ConjugacyOutcome:
    """The conjugate outcome for z, once ~z u z and v have the same normal form."""
    if normal_form(ctx, ~z * u * z, policy) != normal_form(ctx, v, policy):
        raise VerificationError("conjugator failed verification")
    return ConjugacyOutcome("conjugate", z)


_NO_C_ELEMENT = "a regular cyclic permutation admits no conjugating C-element"


def _solve_with_regular(
    ctx: AmalgamContext,
    u: Word,
    v: Word,
    perms_u: list[tuple[tuple[int, ...], NormalForm]],
    perms_v: list[tuple[tuple[int, ...], NormalForm]],
    policy: RepPolicy,
) -> Optional[ConjugacyOutcome]:
    """Decide conjugacy when some cyclic permutation of either form is regular.

    perms_u and perms_v list (conjugator * w_j, pi_j), in union letters, for
    the cyclically reduced forms of u and v.  Returns None when no pi_j of
    either form is regular; otherwise a definite outcome.  A regular
    permutation of u admits at most one principal solution, which must also
    satisfy c_g c_k = c c_g'.

    Having a regular cyclic permutation is a conjugacy invariant at cyclic
    length >= 2: cyclically reduced conjugates are C-conjugates of each
    other's cyclic permutations (Magnus-Karrass-Solitar, Combinatorial
    Group Theory, Thm 4.6), and singularity is invariant under
    C-conjugation.  So when only v's form has one, u and v are not conjugate.
    """
    reg = next(
        ((prefix, pi) for prefix, pi in perms_u if _classify_nf(ctx, pi).is_regular),
        None,
    )
    if reg is None:
        if not any(_classify_nf(ctx, pi).is_regular for _, pi in perms_v):
            return None
        return ConjugacyOutcome("not-conjugate", None, _NO_C_ELEMENT)
    u_prefix, g_star = reg
    sides = g_star.sides()
    for w_j, pi_j in perms_v:
        if pi_j.sides() != sides:
            continue
        e = principal_system_solve(ctx, g_star, pi_j)
        if e is None:
            continue
        card = cardinality(e)
        if card.is_infinite:
            raise VerificationError("regular element with non-unique solution")
        c = card.element
        c_k = _propagate_solution(ctx, g_star, pi_j, c, e.side)
        side1 = g_star.syllables[0].side
        c_on_1 = c if e.side == side1 else ctx.transfer_word(e.side, c)
        if g_star.head * c_k != c_on_1 * pi_j.head:
            continue
        z = letters_product(u_prefix, ctx.union_letters(e.side, c.letters))
        z = Word._make(ctx.union_alphabet, letters_product(z, letters_inverse(w_j)))
        return _assemble_and_verify(ctx, u, v, z, policy)
    return ConjugacyOutcome("not-conjugate", None, _NO_C_ELEMENT)


def conjugacy_search(
    ctx: AmalgamContext, u: Word, v: Word, policy: RepPolicy = CANONICAL
) -> ConjugacyOutcome:
    """Partial conjugacy decider; every Conjugate outcome carries a verified z.

    Halts with a definite answer whenever one side has a regular cyclically
    reduced permutation, on all cyclic length 0 pairs with a regular
    representative or a malnormal factor, and on all cyclic length 1 pairs.
    """
    cf_u = cyclic_form(ctx, u, policy)
    cf_v = cyclic_form(ctx, v, policy)

    def in_factor(side: str, z_f: Word) -> ConjugacyOutcome:
        # the cyclic forms are conjugate by z_f inside the factor of `side`
        z = cf_u.conjugator * ctx.to_union(side, z_f) * ~cf_v.conjugator
        return _assemble_and_verify(ctx, u, v, z, policy)

    k = cf_u.cyclic_length
    if k != cf_v.cyclic_length:
        return ConjugacyOutcome("not-conjugate", None, "cyclic lengths differ")
    if k == 1:
        su, sv = cf_u.form.syllables[0], cf_v.form.syllables[0]
        if su.side != sv.side:
            return ConjugacyOutcome(
                "not-conjugate", None, "cyclically reduced forms lie in different factors"
            )
        wu = cf_u.form.head * su.word
        wv = cf_v.form.head * sv.word
        z_f = free_conjugacy(wu, wv)
        if z_f is None:
            return ConjugacyOutcome(
                "not-conjugate", None, "not conjugate inside the common factor"
            )
        return in_factor(su.side, z_f)
    if k >= 2:
        # each form's permutations, with its conjugator, once per query
        perms_u, perms_v = (
            [(letters_product(cf.conjugator.letters, w), pi)
             for w, pi in _cyclic_perms(ctx, cf.form, policy)]
            for cf in (cf_u, cf_v)
        )
        out = _solve_with_regular(ctx, u, v, perms_u, perms_v, policy)
        return out or ConjugacyOutcome(
            "undecided", None, "every cyclic permutation of both forms is singular"
        )
    # cyclic length 0: both conjugate into C
    hu, hv = cf_u.form.head, cf_v.form.head
    reg_u = _classify_nf(ctx, cf_u.form).is_regular
    reg_v = _classify_nf(ctx, cf_v.form).is_regular
    if reg_u or reg_v:
        bu = ctx.graph_ca.express_in_basis(hu)
        bv = ctx.graph_ca.express_in_basis(hv)
        z_b = free_conjugacy(bu, bv)
        if z_b is None:
            return ConjugacyOutcome(
                "not-conjugate", None, "not conjugate within the amalgamated subgroup"
            )
        return in_factor("A", substitute(z_b, ctx.graph_ca.basis(), ctx.alphabet_a))
    for malnormal, side in ((ctx.malnormal_a, "B"), (ctx.malnormal_b, "A")):
        if not malnormal:
            continue
        w1 = hu if side == "A" else ctx.transfer_word("A", hu)
        w2 = hv if side == "A" else ctx.transfer_word("A", hv)
        z_f = free_conjugacy(w1, w2)
        if z_f is None:
            return ConjugacyOutcome(
                "not-conjugate",
                None,
                f"chains collapse into factor {side}, where the forms are not conjugate",
            )
        return in_factor(side, z_f)
    return ConjugacyOutcome(
        "undecided",
        None,
        "both representatives are singular and C is malnormal in neither factor",
    )

"""The amalgamated product layer.

A context validates a presentation of G = A *_C B over free factors and
precomputes the transfer tables for C on both sides; its normalizer data
(double transversals, malnormality) is computed on first use.  On top of it
live reduced and normal forms, cyclically reduced forms, the
principal-system solver, the regular/singular classifier, and the partial
conjugacy-search decider.  Undecided is a first-class outcome: the decider
halts with a verdict only on inputs it can certify.

The reduced-form pass and the normal-form sweep run on plain letter tuples:
syllables are (side, factor letters) pairs, membership in C and coset
representatives come from tracing the folded C graph, and C-elements cross
the amalgamation through one letter-tuple memo.  `Word` is the API boundary:
both forms are `NormalForm`s, which build their `Word`s only when a caller
reads `.head` or `.syllables`.  Cyclic forms run on the same tuples, and one
pass of the carry streams every cyclic permutation without normalising again.
A principal system is solved in one pass of coset shifts from its first
syllable, on letter tuples, pushing the element of a singleton coset on; the
solution is certified by pushing it back.  A conjugacy query sweeps each word once.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property, partial, reduce
from operator import itemgetter
from types import MappingProxyType
from typing import Iterable, Iterator, Optional, Sequence

from .cosetalg import CosetOfC, c_coset, shift, transfer
from .stallings import _RUN_MIN, SubgroupGraph, basis_coordinates, fold
from .words import (
    Alphabet,
    VerificationError,
    Word,
    letters_conjugator,
    letters_inverse,
    letters_product,
    letters_substitute,
    _quote,
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
    """head * s1 * ... * sn, head in C, alternating syllables outside C.

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
        d = self.__dict__  # frozen: the fields go straight into the instance dict
        d["head_side"], d["head_letters"], d["syllable_letters"], d["_alphabets"] = values

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

    def __repr__(self) -> str:
        fields = f"head_side={self.head_side!r}, head={self.head!r}, syllables={self.syllables!r}"
        return f"NormalForm({fields})"


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
MAX_GENERATORS = 557_055  # of both factors: the last union letter's code, 2n + 1, is U+10FFFF


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
    Its "shift" and "transfer" keys hold non-singleton cosets only.  Its ("step",
    policy.kind, policy.p) kind is the sweep's transducer: a carry under _RUN_MIN letters
    maps to its state, a dict from None to that carry and from a block's characters (see
    its codec) to the row ((side, rep) or None, next carry, its state, letters of rep its
    C graph reads, or None until a join needs them); longer carries share one empty state.
    Rows share their carries and, through memo[syll] = syll, their syllables.  It grows
    like "xfer", and answers 94% of the steps of word-problem, 87% of conjugacy's, 16% of
    cold-cli's and 39% of blowup's.
    """

    transversal_a = property(lambda self: self.graph_ca.double_transversal())
    transversal_b = property(lambda self: self.graph_cb.double_transversal())
    malnormal_a = property(lambda self: self.graph_ca.is_malnormal())
    malnormal_b = property(lambda self: self.graph_cb.is_malnormal())
    _trivial = cached_property(
        lambda self: {s: SubgroupGraph(self.factor_alphabet(s), {}, 0) for s in "AB"})

    def __init__(
        self,
        alphabet_a: Alphabet,
        alphabet_b: Alphabet,
        pairs: tuple[tuple[Word, Word], ...],
        graph_ca: SubgroupGraph,
        graph_cb: SubgroupGraph,
        edge_images: tuple[dict, dict],
    ):
        self.alphabet_a = alphabet_a
        self.alphabet_b = alphabet_b
        self.factor_alphabets = (alphabet_a, alphabet_b)
        self.union_alphabet = Alphabet._make(alphabet_a.names + alphabet_b.names)
        self.pairs = pairs
        self.graph_ca = graph_ca
        self.graph_cb = graph_cb
        self._edge_images = dict(zip("AB", edge_images))  # side -> C graph's edge images
        self.cache: dict = {}
        # block codec: union letter lt is character na + lt on side A and n + na + 1 + its factor
        # letter on side B, so one split (re caches the pattern) finds a word's one-side blocks
        na, n = len(alphabet_a), len(self.union_alphabet)
        union = [*range(n + 1), *range(-n, 0)]  # the lists take signed letters
        factor = [lt if abs(lt) <= na else lt - na if lt > 0 else lt + na for lt in union]
        codes = [chr(f + (na if abs(lt) <= na else n + na + 1)) for lt, f in zip(union, factor)]
        self._codes, self._factor_letter, self._b_code = codes, factor, chr(2 * na + 1)
        self._split_codes = re.compile(f"([\\x00-\\U{2 * na:08x}]+)").split
        self._b_to_union = [0, *range(na + 1, n + 1), *range(-n, -na)]

    # --- sides and alphabets -------------------------------------------------

    def factor_alphabet(self, side: str) -> Alphabet:
        return self.alphabet_a if side == "A" else self.alphabet_b

    def graph_c(self, side: str) -> SubgroupGraph:
        return self.graph_ca if side == "A" else self.graph_cb

    @staticmethod
    def other(side: str) -> str:
        return "B" if side == "A" else "A"

    def _blocks(self, letters: tuple[int, ...]) -> list[str]:
        """A word's blocks in the codec: B's, A's, B's, ... from 0; only the ends can be empty."""
        return self._split_codes("".join(itemgetter(*letters)(self._codes)) if letters else "")

    def union_letters(self, side: str, letters: tuple[int, ...]) -> tuple[int, ...]:
        return letters if side == "A" else tuple(map(self._b_to_union.__getitem__, letters))

    def to_union(self, side: str, w: Word) -> Word:
        return Word._make(self.union_alphabet, self.union_letters(side, w.letters))

    # --- transfer through the amalgamation ----------------------------------

    def transfer_letters(self, side: str, letters: tuple[int, ...]) -> tuple[int, ...]:
        """phi (A to B) or psi (B to A) of a C-element, in one walk of its C graph.

        The walk multiplies the images of the fold's edge words.  This is
        the one transfer memo: ("xfer", side, letters) maps to the image's
        letter tuple in ctx.cache.  As in the sweep's step memo, an input of
        _RUN_MIN letters or more is neither looked up nor stored.
        """
        key = ("xfer", side, letters) if len(letters) < _RUN_MIN else None
        hit = self.cache.get(key)
        if hit is None:
            hit = self.graph_c(side).loop_word(letters, self._edge_images[side])
            if key:
                self.cache[key] = hit
        return hit


def build_context(
    alphabet_a: Alphabet | Iterable[str],
    alphabet_b: Alphabet | Iterable[str],
    pairs: Sequence[tuple[Word, Word]],
) -> AmalgamContext:
    """Validate a pairing u_i <-> v_i and assemble the context.

    Substituting the other side's targets into the edge words of each side's
    fold gives the edge images that every transfer walks.  They are checked
    to send every u_i to v_i and back; passing certifies that the pairing
    extends to mutually inverse isomorphisms between the two copies of C.
    """
    if not isinstance(alphabet_a, Alphabet):
        alphabet_a = Alphabet(tuple(alphabet_a))
    if not isinstance(alphabet_b, Alphabet):
        alphabet_b = Alphabet(tuple(alphabet_b))
    if len(alphabet_a) + len(alphabet_b) > MAX_GENERATORS:
        raise InvalidPresentationError(f"the factors have more than {MAX_GENERATORS} generators")
    overlap = set(alphabet_a.names) & set(alphabet_b.names)
    if overlap:
        shown = ", ".join(map(_quote, sorted(overlap)[:3])) + ", ..." * (len(overlap) > 3)
        raise InvalidPresentationError(f"factor alphabets share generator names [{shown}]")
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
    graphs = [fold([w.letters for w in ws], alphabet) for ws, alphabet in zip(words, alphabets)]
    edges = []  # per side: the images of the C graph's edge words
    for graph, targets in zip(graphs, words[::-1]):
        image = {i: v.letters for i, v in enumerate(targets, 1)}
        image.update({-i: letters_inverse(v) for i, v in image.items()})
        side: dict[int, tuple[int, ...]] = {}
        for eid, word in graph.edge_words.items():
            if eid >= 0:  # reduction commutes with inversion, so ~eid's image is the inverse
                side[eid] = reduce(letters_product, map(image.__getitem__, word), ())
                side[~eid] = letters_inverse(side[eid])
        edges.append(side)
    # both checks walk the edge images that transfer_letters walks, forward first
    for this, that, pairing in ((0, 1, "pairing"), (1, 0, "reverse pairing")):
        for i, (w, target) in enumerate(zip(words[this], words[that]), 1):
            img = graphs[this].loop_word(w.letters, edges[this])
            if img != target.letters:
                img = Word._make(alphabets[that], img)
                raise InvalidPresentationError(
                    f"pair {i}: the {pairing} is not an isomorphism of C"
                    f" ({'uv'[this]}_{i} maps to {img!r}, expected {target!r})",
                    index=i,
                )
    return AmalgamContext(alphabet_a, alphabet_b, pairs, *graphs, tuple(edges))


# --- syllables and reduced forms ---------------------------------------------


def _split(ctx: AmalgamContext, raw: Word) -> list[tuple[str, tuple[int, ...]]]:
    """Maximal alternating factor blocks of a union word as (side, factor letters)."""
    if raw.alphabet is not ctx.union_alphabet and raw.alphabet != ctx.union_alphabet:
        raise ValueError("word is not over the union alphabet")
    letters, out, end = raw.letters, [], 0
    for i, block in enumerate(ctx._blocks(letters)):
        word, end = letters[end : end + len(block)], end + len(block)
        if i % 2:
            out.append(("A", word))
        elif block:
            out.append(("B", tuple(map(ctx._factor_letter.__getitem__, word))))
    return out


def _join(left: list[int], right: Sequence[int]) -> int:
    """Multiply the reduced letters in `left` by `right` in place; returns how many cancelled."""
    c = 0
    while left and c < len(right) and left[-1] == -right[c]:
        left.pop()
        c += 1
    left += right[c:]
    return c


def reduced_form(ctx: AmalgamContext, raw: Word) -> NormalForm:
    """Alternating syllables outside C, eliminating the leftmost C-syllable first.

    One pass over the split blocks; `done` holds finished blocks, none in C, as
    lists with the letters their C graph reads.  A block in C is transferred into
    both neighbours, which grow in place, and while their product cancels the
    blocks beyond them meet.  The merged block is read again only if the
    cancellation reached the letter its left part got stuck at.
    """
    todo: list = _split(ctx, raw)[::-1]  # blocks still to test, the leftmost last
    done: list = []  # (side, letters, letters read from the base)
    while todo:
        side, word = todo.pop()
        graph = ctx.graph_c(side)
        s, k = graph.read(word)
        if s != graph.base or k < len(word):
            done.append((side, word if type(word) is list else list(word), k))
            continue
        word = tuple(word)
        if not done and not todo:
            return _form(ctx, "A", word if side == "A" else ctx.transfer_letters(side, word), ())
        moved, side = ctx.transfer_letters(side, word), ctx.other(side)
        merged, k = done.pop()[1:] if done else ([], 0)
        low = len(merged) - _join(merged, moved)  # left letters never cancelled
        if todo:
            low = min(low, len(merged) - _join(merged, todo.pop()[1]))
        while not merged and done and todo:
            side, merged, k = done.pop()
            low = len(merged) - _join(merged, todo.pop()[1])
        if merged:
            if k < low:  # still stuck at k: not in C
                done.append((side, merged, k))
            else:
                todo.append((side, merged))
    return _form(ctx, done[0][0] if done else "A", (), [(side, tuple(w)) for side, w, _ in done])


# --- representative policies and normal forms ---------------------------------


def _is_example_one_fixture(ctx: AmalgamContext, p: int) -> bool:
    pairs = [(u.letters, v.letters) for u, v in ctx.pairs]
    # lengths first: a huge p is rejected before any p-letter tuple is built
    return (
        len(ctx.alphabet_a) == len(ctx.alphabet_b) == 3
        and [(len(u), len(v)) for u, v in pairs] == [(p, 1), (1, p)]
        and pairs == [((1,) * p, (1,)), ((2,), (2,) * p)]
    )


def _coset_reps(ctx: AmalgamContext, policy: RepPolicy) -> dict:
    """Side -> split w -> (rep, head) with w = head * rep, bound once per sweep."""
    if policy.kind == "canonical":
        return {"A": ctx.graph_ca.coset_rep, "B": ctx.graph_cb.coset_rep}
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
    rep, head = ctx.graph_c(side).coset_rep(w)
    run, swap = (1, 2) if side == "A" else (2, 1)
    k = len(rep) - 1
    if k < 1 or k % p or rep[0] != 3 or abs(rep[1]) != run or rep.count(rep[1]) != k:
        return rep, head
    s = -swap if rep[1] > 0 else swap
    # w = head * rep = (head * s^-k) * (s^k * rep), s^k in C: cancel only at the junction
    return (s,) * k + rep, letters_product(head, (-s,) * k)


def _state(memo: dict, carry: tuple[int, ...]) -> dict:
    """A carry's state, made on first use; it holds its key under None for rows to share."""
    return memo.get(carry) or memo.setdefault(carry, {None: carry})


_LONG_STATE = MappingProxyType({})  # the state of every carry of _RUN_MIN letters or more


def normal_form(
    ctx: AmalgamContext,
    raw: Word,
    policy: RepPolicy = CANONICAL,
    trace: Optional[list[int]] = None,
) -> NormalForm:
    """Right-to-left sweep into the unique normal form for the active policy.

    The carry (the C-element extracted from the current tail) is transferred
    across the amalgamation each time it moves past a syllable; `trace`, when
    given, records its length after every step.  One `split` of the word's codes (the block
    codec) gives the blocks, and the step memo is a transducer (see AmalgamContext): a known
    step is one `get` on the carry's state, keyed by the block's characters.  A miss reads the
    block's side and letters, and stores its row if block and carry hold under _RUN_MIN letters.

    When a block lies in C, the next rep r joins the syllable after it.  A canonical
    rep is a tree path and a letter its C graph cannot read there, so r * syllable
    is its own rep unless what is left of r after the junction reads to its end;
    only those joins, and every adversarial one, are split again.  A long syllable
    grows in place as a reversed list, so (b z)^n is swept in linear time.
    """
    if raw.alphabet is not ctx.union_alphabet and raw.alphabet != ctx.union_alphabet:
        raise ValueError("word is not over the union alphabet")
    memo = ctx.cache.get(("step", policy.kind, policy.p))  # no RepPolicy.__hash__ call
    reps = None  # bound on the first miss; a new memo checks the policy first
    if memo is None:
        reps = _coset_reps(ctx, policy)
        memo = ctx.cache[("step", policy.kind, policy.p)] = {}
    letters, blocks = raw.letters, ctx._blocks(raw.letters)
    done: list[tuple[str, tuple[int, ...]]] = []  # output syllables, the last first
    opened = None  # done[-1]'s letters reversed, once a join keeps it long
    state = _state(memo, ())  # the empty carry's
    carry, end = (), len(letters)
    for block in reversed(blocks[not blocks[0] : len(blocks) - (not blocks[-1])]):
        # blocks alternate, so the carry is on the other side: the block's characters name a row
        end -= len(block)
        step = state.get(block)
        if step is None:
            reps = reps or _coset_reps(ctx, policy)
            b, short = block >= ctx._b_code, len(block) + len(carry) < _RUN_MIN
            if carry:
                carry = ctx.transfer_letters("BA"[b], carry)
            word = letters[end : end + len(block)]
            word = tuple(map(ctx._factor_letter.__getitem__, word)) if b else word
            rep, carry = reps["AB"[b]](letters_product(word, carry))  # frees the old carry
            nxt = _state(memo, carry) if len(carry) < _RUN_MIN else _LONG_STATE
            carry = nxt.get(None, carry)
            syll = ("AB"[b], rep) if rep else None
            if short and syll:
                syll = memo.setdefault(syll, syll)
            step = syll, carry, nxt, None
            if short:
                state[block] = step
        syll, carry, nxt, reads = step
        if syll and done and done[-1][0] == syll[0]:  # the block before was in C: join
            (side, rep), syll, tail = syll, None, done[-1][1]
            if opened is None:
                merged = letters_product(rep, tail)
                cut = (len(rep) - len(tail) + len(merged)) // 2  # rep[:cut] is left
            else:
                cut = len(rep) - _join(opened, rep[::-1])
            if reads is None:  # the row's first join
                graph = ctx.graph_c(side)
                reads = graph.read(rep)[1] if policy.kind == "canonical" else len(rep)
                if block in state:
                    state[block] = step[0], carry, nxt, reads
            if reads >= cut:  # what is left of rep reads to its end: split again
                reps = reps or _coset_reps(ctx, policy)
                rep, head = reps[side](merged if opened is None else tuple(opened[::-1]))
                done.pop()
                opened, syll = None, (side, rep) if rep else None
                if head:
                    carry = letters_product(carry, head)
                    nxt = _state(memo, carry) if len(carry) < _RUN_MIN else _LONG_STATE
            elif opened is None:  # kept whole
                done[-1] = side, merged
                opened = list(merged[::-1]) if len(merged) >= _RUN_MIN else None
        if syll:
            if opened is not None:
                done[-1], opened = (done[-1][0], tuple(opened[::-1])), None
            done.append(syll)
        if trace is not None:
            trace.append(len(carry))
        state = nxt
    if opened is not None:
        done[-1] = done[-1][0], tuple(opened[::-1])
    target = done[-1][0] if done else "A"
    if carry and "BA"[not blocks[0]] != target:  # the carry lies on the first block's side
        carry = ctx.transfer_letters("BA"[not blocks[0]], carry)
    if not ctx.graph_c(target).contains(carry):
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


def _spell(ctx: AmalgamContext, head_side: str, head: tuple, sylls: Sequence[tuple]) -> tuple:
    """Union letters of head * s_1 * ... * s_n, the s_i as (side, factor letters).

    The s_i are nonempty and consecutive ones lie in different factors, so
    only the head and s_1 can cancel: one product, then one concatenation.
    """
    out = ctx.union_letters(head_side, head)
    if not sylls:
        return out
    out = letters_product(out, ctx.union_letters(*sylls[0]))
    return out + tuple(lt for side, w in sylls[1:] for lt in ctx.union_letters(side, w))


def form_to_word(ctx: AmalgamContext, nf: NormalForm) -> Word:
    """The form as one reduced word over the union alphabet, also for a hand-built form."""
    letters = _spell(ctx, nf.head_side, nf.head_letters, nf.syllable_letters)
    return Word(ctx.union_alphabet, letters)


# --- cyclically reduced forms --------------------------------------------------


def _swept(ctx: AmalgamContext, w: Word, policy: RepPolicy, forms: dict) -> NormalForm:
    """normal_form, once a query: `forms` maps letters to forms of words over ctx.union_alphabet."""
    hit = forms.get(w.letters) if w.alphabet is ctx.union_alphabet else None
    return hit or forms.setdefault(w.letters, normal_form(ctx, w, policy))


def cyclic_form(
    ctx: AmalgamContext,
    raw: Word,
    policy: RepPolicy = CANONICAL,
    forms: Optional[dict] = None,
) -> CyclicForm:
    """Cyclically reduced conjugate with accumulated conjugator.

    The syllable-length-1 case is settled by conjugacy into C on the factor.
    `forms` holds the query's normal forms (see `_swept`), a fresh dict by default.
    """
    forms = {} if forms is None else forms
    nf = _swept(ctx, raw, policy, forms)
    reps = _coset_reps(ctx, policy)
    head_side, head = nf.head_side, nf.head_letters
    sylls = list(nf.syllable_letters)
    lo, hi = 0, len(sylls)  # the live syllables are sylls[lo:hi]
    # while the outer syllables share a side, fold the last one into the head
    while hi - lo >= 2 and sylls[lo][0] == sylls[hi - 1][0]:
        (side, first), last = sylls[lo], sylls[hi - 1][1]
        if head and head_side != side:
            head = ctx.transfer_letters(head_side, head)
        rep, head = reps[side](letters_product(letters_product(last, head), first))
        head_side, hi, sylls[lo] = side, hi - 1, (side, rep)
        lo += not rep  # an empty rep leaves no first syllable
    # the peeled syllables are consecutive, so alternate factors: their inverses
    # concatenate to a reduced word, the conjugator in union letters
    peeled = reversed(nf.syllable_letters[hi:])
    conj = tuple(lt for s, w in peeled for lt in ctx.union_letters(s, letters_inverse(w)))
    sylls = sylls[lo:hi]
    if sylls and head_side != sylls[0][0]:
        head = ctx.transfer_letters(head_side, head) if head else ()
        head_side = sylls[0][0]
    if len(sylls) == 1:
        side, word = sylls[0]
        hit = ctx.graph_c(side).conjugacy_into(letters_product(head, word))
        if hit is not None:
            head, z = hit
            conj = letters_product(conj, ctx.union_letters(side, letters_inverse(z)))
            head_side, sylls = side, []
    if not sylls and head_side != "A":
        head = ctx.transfer_letters(head_side, head) if head else ()
        head_side = "A"
    form = _form(ctx, head_side, head, sylls)
    spelled = _spell(ctx, head_side, head, sylls)
    spelled = letters_product(letters_product(conj, spelled), letters_inverse(conj))
    if _swept(ctx, Word._make(ctx.union_alphabet, spelled), policy, forms) != nf:
        raise VerificationError("cyclic reduction lost the conjugacy class")
    return CyclicForm(form, Word._make(ctx.union_alphabet, conj))


def _cyclic_perms(
    ctx: AmalgamContext, cf: CyclicForm, policy: RepPolicy
) -> Iterator[tuple[tuple[int, ...], NormalForm]]:
    """The cyclic permutations pi_j of a cyclic form's normal form, j = 0, ..., k - 1, lazily.

    Each item is (w_j, pi_j) with original = w_j * pi_j * ~w_j, where w_j
    (in union letters) is cf.conjugator followed by the form's head and its
    first j syllables.  For form = h s_1 ... s_k the normal form of
    s_{j+1} ... s_k h s_1 ... s_j keeps s_1 ... s_j and has syllables
    r_{j+1} ... r_k before them and head c_{j+1}, where
    (r_i, c_i) = split(s_i * c_{i+1}) and c_{k+1} = h: one right-to-left
    sweep of the carry, on the first read, yields every permutation.  Each is
    spelled when read and kept by no memo, so the stream holds O(k) syllables.
    """
    reps = _coset_reps(ctx, policy)
    form = cf.form
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
        if not ctx.graph_c(side).contains(carry):
            raise VerificationError("normal-form head escaped C")
        steps.append(((side, rep), carry))
    steps.reverse()
    rotated = tuple(r for r, _ in steps)
    prefix = letters_product(
        cf.conjugator.letters, ctx.union_letters(form.head_side, form.head_letters)
    )
    for j, (side, word) in enumerate(sylls):
        yield prefix, _form(ctx, side, steps[j][1], rotated[j:] + sylls[:j])
        prefix = letters_product(prefix, ctx.union_letters(side, word))


# --- principal systems ----------------------------------------------------------


def principal_system_solve(
    ctx: AmalgamContext, g: NormalForm, h: NormalForm
) -> Optional[CosetOfC]:
    """E_{g,h}: the coset of first components of solutions of the principal system.

    One pass from the first syllable: e_0 = C on the side of p_1, then
    e_i = (~p_i e_{i-1} p'_i) meet C, transferring the coset where the sides
    alternate, and None at the first empty e_i.  Once e_i is a singleton {c},
    each later step is the push c -> ~p c p' and a test for membership in C,
    on letter tuples.  Each push x -> p x ~p' is injective, so e_k is exactly
    the set E of c in C whose pushes back through p_k, ..., p_1 all stay in C.
    A nonempty E's representative is certified by pushing it back through the
    chain with `_propagate_solution`, which checks every push for membership in C.
    """
    return _principal_solution(ctx, g, h)[0]


def _principal_solution(ctx: AmalgamContext, g: NormalForm, h: NormalForm) -> tuple:
    """(E_{g,h}, c_k of its certifying push) or (None, None); unmemoised (see README).

    At a syllable p_i with a middle, ~p_i C p_i meet C = 1, and `shift` reads e_i off the C
    graph: {~beta beta'} or None by (P, m, Q), with no `meet` (`SubgroupGraph.middle`).
    """
    k = g.syllable_length
    if k != h.syllable_length or k < 1:
        raise ValueError("principal systems need equal syllable lengths >= 1")
    if g.syllable_letters[0][0] != h.syllable_letters[0][0]:  # forms alternate: all sides differ
        return None, None
    chain = zip(g.syllable_letters, h.syllable_letters)
    e = c_coset(ctx, g.syllable_letters[0][0])
    for (side, p), (_, p2) in chain:
        if e.side != side:
            e = transfer(ctx, e)
        e = shift(ctx, e, letters_inverse(p), p2)
        if e is None or e.subgroup.is_trivial():
            break
    if e is not None and e.subgroup.is_trivial():  # e_i = {c}: push c on
        rest = ((s, letters_inverse(p), p2) for (s, p), (_, p2) in chain)
        c, side = _push(ctx, rest, e.side, e.rep), g.syllable_letters[-1][0]
        e = None if c is None else CosetOfC(side, ctx._trivial[side], c)
    return (None, None) if e is None else (e, _propagate_solution(ctx, g, h, e.rep, e.side))


def _push(ctx: AmalgamContext, chain: Iterable, side: str, c: tuple) -> Optional[tuple]:
    """c after c -> left * c * right along (side, left, right) steps; None once it leaves C."""
    for p_side, left, right in chain:
        if side != p_side:
            c, side = ctx.transfer_letters(side, c), p_side
        c = letters_product(letters_product(left, c), right)
        if not ctx.graph_c(side).contains(c):
            return None
    return c


def _propagate_solution(
    ctx: AmalgamContext, g: NormalForm, h: NormalForm, c: tuple[int, ...], side: str
) -> tuple[int, ...]:
    """Push the first component c through the chain; returns c_k on the side of p_1."""
    chain = zip(g.syllable_letters[::-1], h.syllable_letters[::-1])
    c = _push(ctx, ((s, p, letters_inverse(p2)) for (s, p), (_, p2) in chain), side, c)
    if c is None:
        raise VerificationError("principal solution left C")
    return c


# --- regularity -------------------------------------------------------------------


def classify(
    ctx: AmalgamContext, raw: Word, policy: RepPolicy = CANONICAL
) -> RegularityReport:
    """Regular/singular verdict with a witness for the singular cases."""
    return _classify_nf(ctx, normal_form(ctx, raw, policy))


def _classify_nf(ctx: AmalgamContext, nf: NormalForm) -> RegularityReport:
    """At syllable length >= 2, a syllable p_i with a middle (`SubgroupGraph.middle`)
    makes nf regular with no principal system: e_i lies in ~p_i C p_i meet C = 1."""
    k = nf.syllable_length
    if k >= 2 and any(ctx.graph_c(side).middle(p) for side, p in nf.syllable_letters):
        return RegularityReport("regular")
    if k >= 2:
        e = principal_system_solve(ctx, nf, nf)
        if e is None or not e.contains(()):
            raise VerificationError("principal system of a form with itself lost the identity")
        if e.subgroup.is_trivial():
            return RegularityReport("regular")
        loop = e.subgroup.basis_loops()[0][1]
        return RegularityReport(
            "singular",
            "bad-pair",
            (("solution", e.side, Word._make(e.subgroup.alphabet, loop)),),
            "the principal system of the element against itself has a nontrivial solution",
        )
    if k == 1:
        side, word = nf.syllable_letters[0]
        key = ("classify1", side, letters_product(nf.head_letters, word))
        hit = ctx.cache.get(key)
        if hit is not None:
            return hit
        meet = ctx.graph_c(side).z_subgroup(letters_inverse(key[2]))
        if meet.is_trivial():
            report = RegularityReport("regular")
        else:
            report = RegularityReport(
                "singular",
                "normalizer",
                (("intersection", side, Word._make(meet.alphabet, meet.basis_loops()[0][1])),),
                "the element lies in the generalized normalizer of C",
            )
        ctx.cache[key] = report
        return report
    key = ("classify0", nf.head_letters)
    hit = ctx.cache.get(key)
    if hit is not None:
        return hit
    report = None
    for side, c in (("A", nf.head_letters), ("B", ctx.transfer_letters("A", nf.head_letters))):
        found = ctx.graph_c(side).z_set_witness(c)
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

    For cyclic length above 1 the streamed cyclic permutations are classified in
    turn, and the first regular one is returned with its accumulated conjugator.
    """
    cf = cyclic_form(ctx, raw, policy)
    k = cf.cyclic_length
    if k == 1:
        return "cr1", cf
    if k == 0:
        if _classify_nf(ctx, cf.form).is_regular:
            return "cr0", cf
        return "not-cr", None
    for prefix, pi in _cyclic_perms(ctx, cf, policy):
        if _classify_nf(ctx, pi).is_regular:
            return "cr>1", CyclicForm(pi, Word._make(ctx.union_alphabet, prefix))
    return "not-cr", None


# --- conjugacy search ---------------------------------------------------------------


def _assemble_and_verify(
    ctx: AmalgamContext, u: Word, v: Word, z: Word, policy: RepPolicy, forms: dict
) -> ConjugacyOutcome:
    """The conjugate outcome for z, once ~z u z and v have the same normal form (`_swept`)."""
    zuz = letters_product(letters_product(letters_inverse(z.letters), u.letters), z.letters)
    zuz = Word._make(ctx.union_alphabet, zuz)
    if _swept(ctx, zuz, policy, forms) != _swept(ctx, v, policy, forms):
        raise VerificationError("conjugator failed verification")
    return ConjugacyOutcome("conjugate", z)


_NO_C_ELEMENT = "a regular cyclic permutation admits no conjugating C-element"


def _solve_with_regular(
    ctx: AmalgamContext,
    u: Word,
    v: Word,
    perms_u: Iterable[tuple[tuple[int, ...], NormalForm]],
    perms_v: Iterable[tuple[tuple[int, ...], NormalForm]],
    policy: RepPolicy,
    forms: dict,
) -> Optional[ConjugacyOutcome]:
    """Decide conjugacy when some cyclic permutation of either form is regular.

    perms_u and perms_v stream (conjugator * w_j, pi_j), in union letters, for
    the cyclically reduced forms of u and v; each is read once, u's up to its
    first regular pi_j.  Returns None when no pi_j of either form is regular;
    otherwise a definite outcome.  A regular permutation of u admits at most
    one principal solution, which must also satisfy c_g c_k = c c_g'.

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
    first = g_star.syllable_letters[0][0]  # equal k: the first sides fix all of them
    for w_j, pi_j in perms_v:
        if pi_j.syllable_letters[0][0] != first:
            continue
        e, c_k = _principal_solution(ctx, g_star, pi_j)
        if e is None:
            continue
        if not e.subgroup.is_trivial():
            raise VerificationError("regular element with non-unique solution")
        c = e.rep  # the singleton's element
        c_on_1 = c if e.side == g_star.head_side else ctx.transfer_letters(e.side, c)
        if letters_product(g_star.head_letters, c_k) != letters_product(c_on_1, pi_j.head_letters):
            continue
        z = letters_product(u_prefix, ctx.union_letters(e.side, c))
        z = Word._make(ctx.union_alphabet, letters_product(z, letters_inverse(w_j)))
        return _assemble_and_verify(ctx, u, v, z, policy, forms)
    return ConjugacyOutcome("not-conjugate", None, _NO_C_ELEMENT)


def conjugacy_search(
    ctx: AmalgamContext, u: Word, v: Word, policy: RepPolicy = CANONICAL
) -> ConjugacyOutcome:
    """Partial conjugacy decider; every Conjugate outcome carries a verified z.

    Halts with a definite answer whenever one side has a regular cyclically
    reduced permutation, on all cyclic length 0 pairs with a regular
    representative or a malnormal factor, and on all cyclic length 1 pairs.
    """
    forms: dict = {}  # each distinct word is swept once per query
    cf_u = cyclic_form(ctx, u, policy, forms)
    cf_v = cyclic_form(ctx, v, policy, forms)

    def in_factor(side: str, z_f: tuple[int, ...]) -> ConjugacyOutcome:
        # the cyclic forms are conjugate by the factor letters z_f of `side`
        z = letters_product(cf_u.conjugator.letters, ctx.union_letters(side, z_f))
        z = letters_product(z, letters_inverse(cf_v.conjugator.letters))
        return _assemble_and_verify(ctx, u, v, Word._make(ctx.union_alphabet, z), policy, forms)

    k = cf_u.cyclic_length
    if k != cf_v.cyclic_length:
        return ConjugacyOutcome("not-conjugate", None, "cyclic lengths differ")
    if k == 1:
        (su, wu), (sv, wv) = cf_u.form.syllable_letters[0], cf_v.form.syllable_letters[0]
        if su != sv:
            return ConjugacyOutcome(
                "not-conjugate", None, "cyclically reduced forms lie in different factors"
            )
        wu = letters_product(cf_u.form.head_letters, wu)
        wv = letters_product(cf_v.form.head_letters, wv)
        z_f = letters_conjugator(wu, wv)
        if z_f is None:
            return ConjugacyOutcome(
                "not-conjugate", None, "not conjugate inside the common factor"
            )
        return in_factor(su, z_f)
    if k >= 2:
        # each form's permutations, with its conjugator, streamed once per query
        perms_u, perms_v = (_cyclic_perms(ctx, cf, policy) for cf in (cf_u, cf_v))
        out = _solve_with_regular(ctx, u, v, perms_u, perms_v, policy, forms)
        return out or ConjugacyOutcome(
            "undecided", None, "every cyclic permutation of both forms is singular"
        )
    # cyclic length 0: both conjugate into C
    hu, hv = cf_u.form.head_letters, cf_v.form.head_letters  # on side A
    reg_u = _classify_nf(ctx, cf_u.form).is_regular
    reg_v = _classify_nf(ctx, cf_v.form).is_regular
    if reg_u or reg_v:
        _, words, basis = basis_coordinates(ctx.graph_ca)
        z_b = letters_conjugator(*(ctx.graph_ca.loop_word(h, words) for h in (hu, hv)))
        if z_b is None:
            return ConjugacyOutcome(
                "not-conjugate", None, "not conjugate within the amalgamated subgroup"
            )
        return in_factor("A", letters_substitute(z_b, basis))
    for malnormal, side in ((ctx.malnormal_a, "B"), (ctx.malnormal_b, "A")):
        if not malnormal:
            continue
        w1 = hu if side == "A" else ctx.transfer_letters("A", hu)
        w2 = hv if side == "A" else ctx.transfer_letters("A", hv)
        z_f = letters_conjugator(w1, w2)
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

import os
import random
import subprocess
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import amalgam
from amalgam import group
from amalgam.cosetalg import cardinality
from amalgam.fixtures import example_one_context, example_two_context, malnormal_context
from amalgam.group import (
    CANONICAL,
    InvalidPresentationError,
    NormalForm,
    RepPolicy,
    Syllable,
    build_context,
    classify,
    conjugacy_search,
    cr_membership,
    cyclic_form,
    form_to_word,
    normal_form,
    principal_system_solve,
    reduced_form,
    syllable_decompose,
    _cyclic_perms,
)
from amalgam.stallings import _RUN_MIN, GeneratingTuple, NotAMemberError, SubgroupGraph, build
from amalgam.words import (
    Alphabet,
    VerificationError,
    Word,
    format_word,
    identity,
    letters_product,
    parse_word,
)

from bruteforce import (
    adversarial_rep_by_cancellation,
    brute_conjugacy_oracle,
    conjugacy_search_two_calls,
    cyclic_perms_by_definition,
    normal_form_unmemoised,
    subgroup_elements,
    transfer_through_basis,
)
from conftest import random_member, random_reduced

ADVERSARIAL = RepPolicy.paper_example_one(2)


def up(ctx, text):
    return parse_word(text, ctx.union_alphabet)


def wa(ctx, text):
    return parse_word(text, ctx.alphabet_a)


def wb(ctx, text):
    return parse_word(text, ctx.alphabet_b)


@pytest.fixture(scope="module")
def powers():
    return powers_context()


def powers_context():
    """F(a,b) * F(x,y) over <a^2> = <x^2>: has singular elements of length >= 2."""
    x = Alphabet(("a", "b"))
    y = Alphabet(("x", "y"))
    return build_context(x, y, [(Word(x, (1, 1)), Word(y, (1, 1)))])


def insert_relator(rng, ctx, word):
    """Insert u_i v_i^-1 or v_i u_i^-1 at a random position; same group element."""
    u, v = rng.choice(ctx.pairs)
    ua = ctx.to_union("A", u)
    vb = ctx.to_union("B", v)
    rel = ua * ~vb if rng.random() < 0.5 else vb * ~ua
    pos = rng.randint(0, len(word))
    return Word(ctx.union_alphabet, word.letters[:pos] + rel.letters + word.letters[pos:])


# --- context construction ------------------------------------------------------


def test_build_context_examples(ex1):
    assert ex1.graph_ca.contains(wa(ex1, "a^2 b"))
    assert ex1.transfer_word("A", wa(ex1, "a^2")) == wb(ex1, "x")
    assert ex1.transfer_word("B", wb(ex1, "y^2")) == wa(ex1, "b")


def test_build_context_rejects_bad_pairing():
    x = Alphabet(("a", "b"))
    y = Alphabet(("x", "y"))
    with pytest.raises(InvalidPresentationError) as err:
        build_context(x, y, [(Word(x, (1,)), Word(y, (1,))),
                             (Word(x, (1,)), Word(y, (2,)))])
    assert err.value.index in (1, 2)


def test_build_context_rejects_by_the_reverse_pairing():
    # a -> x, b -> x is a homomorphism C_A -> C_B, but x has one preimage
    x = Alphabet(("a", "b"))
    y = Alphabet(("x", "y"))
    with pytest.raises(InvalidPresentationError) as err:
        build_context(x, y, [(Word(x, (1,)), Word(y, (1,))),
                             (Word(x, (2,)), Word(y, (1,)))])
    assert "reverse pairing" in str(err.value)
    assert err.value.index in (1, 2)


def test_invalid_pairing_reports_the_failing_pair_in_each_direction():
    # forward: C_A = <a> sends u_2 = a to x, not y; reverse: C_B = <x> sends v_2 = x to a,
    # not b; the last pairing fails both ways, and the forward check runs first
    forward = ("pair 2: the pairing is not an isomorphism of C"
               " (u_2 maps to Word('x'), expected Word('y'))")
    reverse = ("pair 2: the reverse pairing is not an isomorphism of C"
               " (v_2 maps to Word('a'), expected Word('b'))")
    for pairs, message in (
        ((("a", "x"), ("a", "y")), forward),
        ((("a", "x"), ("b", "x")), reverse),
        ((("a", "x"), ("a", "y"), ("b", "x")), forward),
    ):
        with pytest.raises(InvalidPresentationError) as err:
            pairing_context(*pairs)
        assert err.value.index == 2
        assert str(err.value) == message


def test_build_context_accepts_a_redundant_generator():
    # a^2 = x^2 is implied by a = x; its loop folds onto the loop of a
    x = Alphabet(("a", "b"))
    y = Alphabet(("x", "y"))
    ctx = build_context(x, y, [(parse_word("a", x), parse_word("x", y)),
                               (parse_word("a^2", x), parse_word("x^2", y)),
                               (parse_word("b", x), parse_word("y", y))])
    for u_text, v_text in (("a", "x"), ("b", "y"), ("a^-2 b a", "x^-2 y x")):
        u, v = parse_word(u_text, x), parse_word(v_text, y)
        assert ctx.transfer_word("A", u) == v
        assert ctx.transfer_word("B", v) == u


def test_build_context_accepts_non_basis_generators():
    x = Alphabet(("a", "b"))
    y = Alphabet(("x", "y"))
    ctx = build_context(
        x, y, [(parse_word("a b", x), Word(y, (1,))), (Word(x, (2,)), Word(y, (2,)))]
    )
    assert ctx.transfer_word("A", parse_word("a b", x)) == Word(y, (1,))
    assert ctx.transfer_word("A", Word(x, (1,))) == parse_word("x y^-1", y)


def test_build_context_rejects_overlapping_names():
    with pytest.raises(InvalidPresentationError):
        build_context(("a", "b"), ("b", "c"), [])


def test_build_context_needs_words_over_declared_alphabets(ex1):
    x = Alphabet(("a", "b"))
    y = Alphabet(("x", "y"))
    with pytest.raises(InvalidPresentationError):
        build_context(x, y, [(Word(x, (1,)), Word(x, (1,)))])
    with pytest.raises(InvalidPresentationError):
        build_context(x, y, [(Word(x, ()), Word(y, (1,)))])


def test_build_context_leaves_the_normalizer_data_for_first_use(monkeypatch):
    # the double transversals and malnormality flags are read off the C graphs
    # on first use; building a context computes neither
    calls = []
    double_transversal = GeneratingTuple.double_transversal

    def counted(self):
        calls.append(self)
        return double_transversal(self)

    monkeypatch.setattr(GeneratingTuple, "double_transversal", counted)
    contexts = {
        "ex1": example_one_context(2),
        "ex2": example_two_context(2),
        "malnormal": malnormal_context(),
    }
    assert calls == []
    for name, ctx in contexts.items():
        eager_a = build([u for u, _ in ctx.pairs], ctx.alphabet_a).double_transversal()
        eager_b = build([v for _, v in ctx.pairs], ctx.alphabet_b).double_transversal()
        assert (ctx.transversal_a, ctx.transversal_b) == (eager_a, eager_b), name
        assert ctx.malnormal_a is (len(eager_a) == 1), name
        assert ctx.malnormal_b is (len(eager_b) == 1), name
        with pytest.raises(AttributeError):
            ctx.transversal_a = eager_a
    assert contexts["malnormal"].malnormal_a is True
    assert contexts["malnormal"].malnormal_b is True
    assert len(contexts["ex1"].transversal_a) > 1


# --- transfer through the amalgamation -------------------------------------------


def pairing_context(*pairs):
    x = Alphabet(("a", "b"))
    y = Alphabet(("x", "y"))
    return build_context(x, y, [(parse_word(u, x), parse_word(v, y)) for u, v in pairs])


TRANSFER_CONTEXTS = {
    "ex1": example_one_context(2),
    "ex1(p=3)": example_one_context(3),
    "ex2": example_two_context(2),
    "malnormal": malnormal_context(),
    "non-basis": pairing_context(("a b", "x"), ("b", "y")),
    "redundant": pairing_context(("a", "x"), ("a^2", "x^2"), ("b", "y")),
}


def test_transfer_walk_matches_basis_substitution():
    # the walk multiplies the images on the basis edges; the older transfer
    # spelled the element over the basis and substituted letter by letter
    junctions = []

    @settings(max_examples=300, deadline=None)
    @given(name=st.sampled_from(sorted(TRANSFER_CONTEXTS)), data=st.data())
    def check(name, data):
        ctx = TRANSFER_CONTEXTS[name]
        ctx.cache.clear()
        factors = data.draw(
            st.lists(st.tuples(st.sampled_from(ctx.pairs), st.booleans()), max_size=40)
        )
        u = Word(ctx.alphabet_a, ())
        v = Word(ctx.alphabet_b, ())
        last = None
        for pair, inverted in factors:
            if last == (pair, not inverted):  # keep the product over the pairs reduced
                continue
            last = (pair, inverted)
            u = u * (~pair[0] if inverted else pair[0])
            v = v * (~pair[1] if inverted else pair[1])
        for side, w, image in (("A", u, v), ("B", v, u)):
            moved = ctx.transfer_letters(side, w.letters)
            assert moved == transfer_through_basis(ctx, side, w.letters)
            assert moved == image.letters
            assert ctx.transfer_letters(ctx.other(side), moved) == w.letters
            # an image cancelling into the one before it shortens the product
            graph = ctx.graph_c(side)
            images = ctx.phi_images if side == "A" else ctx.psi_images
            spelled = sum(len(images[abs(b) - 1]) for b in graph.express_in_basis(w).letters)
            if spelled > len(moved):
                junctions.append(name)

    check()
    assert junctions, "no example cancelled across the junction of two edge images"


def test_transfer_of_a_non_member_names_it(ex1):
    for side, letters, text in (("A", (3,), "d"), ("A", (1,), "a"), ("B", (2, 3), "y z")):
        with pytest.raises(NotAMemberError) as err:
            ex1.transfer_letters(side, letters)
        assert str(err.value) == f"Word({text!r}) is not in the subgroup"
        with pytest.raises(NotAMemberError) as ref:
            transfer_through_basis(ex1, side, letters)
        assert str(ref.value) == str(err.value)


def test_head_escaping_c_fails_verification(monkeypatch):
    # a coset_rep that moves one letter of rep into the head breaks the
    # head-in-C invariant that both sweeps check
    ctx = example_one_context(2)
    word = up(ctx, "d^2 z^2 d^2 z^2")
    cf = cyclic_form(ctx, word)
    assert cf.cyclic_length >= 2
    coset_rep = SubgroupGraph.coset_rep

    def leaky_coset_rep(self, letters):
        rep, head = coset_rep(self, letters)
        return rep[1:], letters_product(head, rep[:1])

    monkeypatch.setattr(SubgroupGraph, "coset_rep", leaky_coset_rep)
    with pytest.raises(VerificationError, match="normal-form head escaped C"):
        normal_form(ctx, up(ctx, "d"))
    monkeypatch.setattr(group, "cyclic_form", lambda *args, **kwargs: cf)
    with pytest.raises(VerificationError, match="normal-form head escaped C"):
        cr_membership(ctx, word)


# --- syllables -----------------------------------------------------------------


def test_syllable_decompose_examples(ex1):
    sylls = syllable_decompose(ex1, up(ex1, "a x b"))
    assert [(s.side, s.word) for s in sylls] == [
        ("A", wa(ex1, "a")), ("B", wb(ex1, "x")), ("A", wa(ex1, "b"))
    ]
    assert syllable_decompose(ex1, up(ex1, "a b^-1")) == [
        Syllable("A", wa(ex1, "a b^-1"))
    ]
    assert syllable_decompose(ex1, up(ex1, "")) == []


# --- reduced forms ---------------------------------------------------------------


def test_reduced_form_examples(ex1):
    rf = reduced_form(ex1, [Syllable("A", wa(ex1, "a^2"))])
    assert rf.syllable_length == 0
    assert rf.head == wa(ex1, "a^2")
    rf2 = reduced_form(
        ex1,
        [Syllable("A", wa(ex1, "d")), Syllable("B", wb(ex1, "x")),
         Syllable("A", wa(ex1, "d"))],
    )
    assert [s.word for s in rf2.syllables] == [wa(ex1, "d a^2 d")]
    both = [Syllable("A", wa(ex1, "d")), Syllable("B", wb(ex1, "z"))]
    assert reduced_form(ex1, both).syllables == tuple(both)


def test_reduced_form_matches_normal_form_length(ex1):
    rng = random.Random(17)
    for _ in range(60):
        word = random_reduced(rng, ex1.union_alphabet, rng.randint(0, 10))
        rf = reduced_form(ex1, syllable_decompose(ex1, word))
        nf = normal_form(ex1, word)
        assert rf.syllable_length == nf.syllable_length
        for s in rf.syllables:
            assert not ex1.in_c(s.side, s.word)
        assert normal_form(ex1, form_to_word(ex1, rf)) == nf


# --- normal forms ---------------------------------------------------------------


def test_normal_form_of_relator_is_identity(ex1):
    for text in ("a^2 x^-1", "x^-1 a^2", "y^2 b^-1", "b y^-2"):
        nf = normal_form(ex1, up(ex1, text))
        assert nf.syllable_length == 0 and nf.head.is_identity()


def test_normal_form_uniqueness_under_relator_insertion(ex1):
    rng = random.Random(4)
    for policy in (CANONICAL, ADVERSARIAL):
        for _ in range(100):
            word = random_reduced(rng, ex1.union_alphabet, rng.randint(0, 9))
            noisy = word
            for _ in range(rng.randint(1, 5)):
                noisy = insert_relator(rng, ex1, noisy)
            assert normal_form(ex1, noisy, policy) == normal_form(ex1, word, policy)


def test_normal_form_example_one_blowup(ex1):
    trace = []
    nf = normal_form(ex1, up(ex1, "z d x"), ADVERSARIAL, trace=trace)
    assert len(nf.head) == 4
    assert trace == [1, 2, 4]
    trace = []
    nf = normal_form(ex1, up(ex1, "z d x"), trace=trace)
    assert len(nf.head) == 0


def test_normal_form_example_two_identity(ex2):
    for n in range(1, 5):
        conj = up(ex2, "b y") ** n
        lhs = ~conj * up(ex2, "a") * conj
        assert normal_form(ex2, lhs) == normal_form(ex2, up(ex2, "a") ** (2**n))


def test_adversarial_policy_requires_its_fixture(malnormal_ctx):
    with pytest.raises(ValueError):
        normal_form(malnormal_ctx, up(malnormal_ctx, "a"), ADVERSARIAL)
    with pytest.raises(ValueError):
        RepPolicy.paper_example_one(1)


def test_normal_form_policies_agree_up_to_representatives(ex1):
    rng = random.Random(31)
    for _ in range(50):
        word = random_reduced(rng, ex1.union_alphabet, rng.randint(0, 8))
        a = normal_form(ex1, word, CANONICAL)
        b = normal_form(ex1, word, ADVERSARIAL)
        assert a.syllable_length == b.syllable_length
        assert normal_form(ex1, form_to_word(ex1, b)) == a


# (z d)^m x under paper-ex1:2: the carry doubles at every step and the head is
# x^(4^m); the canonical policy keeps it at length <= 1.
BLOWUP_PINS = [
    (1, [1, 2, 4], "x^4"),
    (2, [1, 2, 4, 8, 16], "x^16"),
    (3, [1, 2, 4, 8, 16, 32, 64], "x^64"),
    (4, [1, 2, 4, 8, 16, 32, 64, 128, 256], "x^256"),
]


@pytest.mark.parametrize("m, adversarial_trace, head", BLOWUP_PINS)
def test_normal_form_example_one_pinned_traces(ex1, m, adversarial_trace, head):
    word = up(ex1, "z d") ** m * up(ex1, "x")
    trace = []
    nf = normal_form(ex1, word, ADVERSARIAL, trace=trace)
    assert trace == adversarial_trace
    assert (nf.head_side, format_word(nf.head)) == ("B", head)
    assert [format_word(s.word) for s in nf.syllables[-2:]] == ["x^-4 z y^4", "b^-2 d a^2"]
    trace = []
    nf = normal_form(ex1, word, trace=trace)
    assert trace == [1] + [0] * (2 * m)
    assert (nf.head_side, format_word(nf.head)) == ("B", "")
    assert [format_word(s.word) for s in nf.syllables] == ["z", "d"] * (m - 1) + ["z", "d a^2"]


# --- the adversarial representative against the older composition ---------------

ADVERSARIAL_CONTEXTS = {p: example_one_context(p) for p in (2, 3)}


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_adversarial_rep_matches_the_cancelling_reference(data):
    # _rep derives the head from the canonical one; the reference cancels w * ~rep
    p = data.draw(st.sampled_from(sorted(ADVERSARIAL_CONTEXTS)))
    ctx = ADVERSARIAL_CONTEXTS[p]
    side = data.draw(st.sampled_from("AB"))
    alphabet = ctx.factor_alphabet(side)
    run = 1 if side == "A" else 2
    generators = [u if side == "A" else v for u, v in ctx.pairs]
    factor_letters = st.lists(st.sampled_from((1, -1, 2, -2, 3, -3)), max_size=6)
    member = identity(alphabet)
    for g, inverse in data.draw(st.lists(st.tuples(st.sampled_from(generators), st.booleans()))):
        member = member * (~g if inverse else g)
    letters = (
        member.letters
        + tuple(data.draw(factor_letters))
        + data.draw(st.sampled_from(((), (3,), (-3,))))
        + (run,) * data.draw(st.integers(-3 * p, 3 * p))
        + tuple(data.draw(factor_letters))
    )
    w = Word(alphabet, letters).letters
    got = group._rep(ctx, side, w, p)
    assert got == adversarial_rep_by_cancellation(ctx, side, w, p)
    assert letters_product(got[1], got[0]) == w


@pytest.mark.parametrize("p", sorted(ADVERSARIAL_CONTEXTS))
@pytest.mark.parametrize("side", "AB")
def test_adversarial_rep_edge_cases(p, side):
    ctx = ADVERSARIAL_CONTEXTS[p]
    run, swap = (1, 2) if side == "A" else (2, 1)
    canonical = ctx.graph_c(side).graph.coset_rep
    kept = [
        (3,),  # no tail
        (3,) + (run,) * (p + 1),  # tail length not a multiple of p
        (3,) + (-run,) * (2 * p - 1),
        (3,) + (run,) * (p - 1) + (swap,),  # a run followed by another letter
        (3,) + (-run,) * (2 * p - 1) + (3,),
        (3,) + (swap,) * p,  # a tail of the swap letter
        (-3,) + (run,) * p,  # starts with the inverse of d (z)
        (run, 3) + (run,) * p,  # a tree-path prefix before d (z)
    ]
    for w in kept:
        assert group._rep(ctx, side, w, p) == canonical(w)
    swapped = [(3,) + (run,) * p, (3,) + (-run,) * (3 * p), (swap, 3) + (-run,) * p]
    for w in kept + swapped:
        got = group._rep(ctx, side, w, p)
        assert got == adversarial_rep_by_cancellation(ctx, side, w, p)
        assert letters_product(got[1], got[0]) == w
    for w in swapped:
        assert group._rep(ctx, side, w, p) != canonical(w)


@pytest.mark.parametrize("p", sorted(ADVERSARIAL_CONTEXTS))
def test_adversarial_rep_matches_the_reference_on_every_blowup_step(monkeypatch, p):
    # every _rep call of the (z d)^m x sweeps, m <= 5, heads up to p^10 letters
    ctx = ADVERSARIAL_CONTEXTS[p]
    calls = []
    rep = group._rep

    def recorded(ctx, side, w, p):
        got = rep(ctx, side, w, p)
        calls.append((side, w, got))
        return got

    monkeypatch.setattr(group, "_rep", recorded)
    for m in range(1, 6):
        calls.clear()
        ctx.cache.clear()  # as in the blowup workload: memoised steps would skip _rep
        trace = []
        word = up(ctx, "z d") ** m * up(ctx, "x")
        nf = normal_form(ctx, word, RepPolicy.paper_example_one(p), trace=trace)
        assert trace == [p**k for k in range(2 * m + 1)]
        assert len(nf.head) == p ** (2 * m)
        assert len(calls) >= 2 * m + 1
        for side, w, got in calls:
            assert got == adversarial_rep_by_cancellation(ctx, side, w, p)


# --- kernel properties on the fixtures (Hypothesis) ---------------------------

KERNEL_CONTEXTS = {
    "ex1": (example_one_context(2), RepPolicy.paper_example_one(2)),
    "ex1(p=3)": (example_one_context(3), RepPolicy.paper_example_one(3)),
    "ex2": (example_two_context(2), None),
}
# the adversarial head grows as p^(2m) in the syllable count; keep it small
ADVERSARIAL_MAX_LEN = 10


def union_words(ctx, max_size=24):
    n = len(ctx.union_alphabet)
    letters = [lt for i in range(1, n + 1) for lt in (i, -i)]
    return st.lists(st.sampled_from(letters), max_size=max_size).map(
        lambda ls: Word(ctx.union_alphabet, ls)
    )


def kernel_policies(name, word):
    adversarial = KERNEL_CONTEXTS[name][1]
    if adversarial is None or len(word) > ADVERSARIAL_MAX_LEN:
        return (CANONICAL,)
    return (CANONICAL, adversarial)


@pytest.mark.parametrize("name", KERNEL_CONTEXTS)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_normal_form_invariant_under_relators_and_cancellations(name, data):
    ctx = KERNEL_CONTEXTS[name][0]
    word = data.draw(union_words(ctx, ADVERSARIAL_MAX_LEN))
    letters = list(word.letters)
    n = len(ctx.union_alphabet)
    for _ in range(data.draw(st.integers(1, 4))):
        pos = data.draw(st.integers(0, len(letters)))
        if data.draw(st.booleans()):
            u, v = data.draw(st.sampled_from(ctx.pairs))
            rel = ctx.to_union("A", u) * ~ctx.to_union("B", v)
            insert = (rel if data.draw(st.booleans()) else ~rel).letters
        else:
            lt = data.draw(st.integers(1, n)) * data.draw(st.sampled_from((1, -1)))
            insert = (lt, -lt)
        letters[pos:pos] = insert
    noisy = Word(ctx.union_alphabet, letters)
    for policy in kernel_policies(name, word):
        assert normal_form(ctx, noisy, policy) == normal_form(ctx, word, policy)


@pytest.mark.parametrize("name", KERNEL_CONTEXTS)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_normal_form_is_a_fixed_point_and_equals_its_input(name, data):
    ctx = KERNEL_CONTEXTS[name][0]
    word = data.draw(union_words(ctx))
    for policy in kernel_policies(name, word):
        nf = normal_form(ctx, word, policy)
        spelled = form_to_word(ctx, nf)
        assert normal_form(ctx, spelled, policy) == nf
        # equality in G, decided by the reduced form, which uses no coset reps
        rf = reduced_form(ctx, syllable_decompose(ctx, spelled * ~word))
        assert rf.syllable_length == 0 and rf.head.is_identity()


# --- the memoised sweep step against the unmemoised sweep -------------------------

STEP_CONTEXTS = {
    "ex1": (lambda: example_one_context(2), RepPolicy.paper_example_one(2)),
    "ex1(p=3)": (lambda: example_one_context(3), RepPolicy.paper_example_one(3)),
    "ex2": (lambda: example_two_context(2), None),
    "malnormal": (malnormal_context, None),
    "powers": (powers_context, None),
}


def step_keys(ctx):
    """Every memoised (side, word, carry) step in ctx.cache, over all policies."""
    return [key for kind, memo in ctx.cache.items() if kind[0] == "step" for key in memo]


def xfer_keys(ctx):
    return {key for key in ctx.cache if key[0] == "xfer"}


@pytest.mark.parametrize("name", STEP_CONTEXTS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_memoised_steps_match_the_unmemoised_sweep(name, data):
    # a step is a pure function of (side, syllable, carry): forms, traces and
    # transfers equal the reference's on a warm cache and after a clear
    make, adversarial = STEP_CONTEXTS[name]
    ctx, ref = make(), make()
    size = ADVERSARIAL_MAX_LEN if adversarial else 24
    words = data.draw(st.lists(union_words(ctx, size), min_size=1, max_size=6))
    queries = words + data.draw(st.permutations(words))  # the second pass repeats every step
    clear_at = data.draw(st.integers(0, len(queries)))
    policies = (CANONICAL,) if adversarial is None else (CANONICAL, adversarial)
    for i, word in enumerate(queries):
        if i == clear_at:
            ctx.cache.clear()
            ref.cache.clear()
        for policy in policies:
            trace, ref_trace = [], []
            nf = normal_form(ctx, word, policy, trace)
            assert nf == normal_form_unmemoised(ref, word, policy, ref_trace)
            assert trace == ref_trace
    assert xfer_keys(ctx) == xfer_keys(ref)


BLOWUP_CASES = [(2, 8), (3, 5)]  # (p, m) of the blowup workload's (z d)^m x


@pytest.mark.parametrize("p, m", BLOWUP_CASES)
def test_blowup_sweeps_memoise_only_short_steps(p, m):
    # carries of p^(2m) letters are never hashed into the step memo, and a warm
    # sweep, which looks the short steps up, keeps the heads at exactly p^(2m)
    ctx = example_one_context(p)
    word = up(ctx, "z d") ** m * up(ctx, "x")
    runs = []
    for policy in (RepPolicy.paper_example_one(p), CANONICAL) * 2:
        trace = []
        runs.append((normal_form(ctx, word, policy, trace), trace))
    (adv, adv_trace), (canon, canon_trace) = runs[:2]
    assert runs[2:] == runs[:2]
    assert len(adv.head) == p ** (2 * m) and max(adv_trace) >= _RUN_MIN
    assert canon == normal_form_unmemoised(ctx, word)
    assert step_keys(ctx)
    assert all(len(w) + len(carry) < _RUN_MIN for _, w, carry in step_keys(ctx))


def test_ex2_identity_memoises_only_short_steps():
    ctx = example_two_context(2)
    conj = up(ctx, "b y") ** 12
    lhs = ~conj * up(ctx, "a") * conj
    for _ in range(2):
        nf = normal_form(ctx, lhs)
        assert nf == normal_form(ctx, up(ctx, "a") ** 4096) and len(nf.head) == 4096
    assert step_keys(ctx)
    assert all(len(w) + len(carry) < _RUN_MIN for _, w, carry in step_keys(ctx))


def test_concurrent_sweeps_share_one_step_memo():
    # queries on one context may run concurrently; the step memo is shared state
    ctx, ref = example_one_context(2), example_one_context(2)
    rng = random.Random(17)
    queries = [
        (w, policy)
        for w in (random_reduced(rng, ctx.union_alphabet, rng.randint(1, 10)) for _ in range(30))
        for policy in (CANONICAL, ADVERSARIAL)
    ]
    want = [normal_form_unmemoised(ref, w, policy) for w, policy in queries]
    failures = []

    def sweep(k):
        order = list(range(len(queries))) * 20
        random.Random(k).shuffle(order)
        for n, i in enumerate(order):
            if k == 0 and n % 50 == 49:
                ctx.cache.clear()
            w, policy = queries[i]
            if normal_form(ctx, w, policy) != want[i]:
                failures.append((k, w, policy))

    threads = [threading.Thread(target=sweep, args=(k,)) for k in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=20)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not failures


# --- cyclic forms ----------------------------------------------------------------


def test_cyclic_form_examples(ex1):
    cf = cyclic_form(ex1, up(ex1, "d x d^-1"))
    assert cf.cyclic_length == 0
    assert cf.form.head == wa(ex1, "a^2")
    assert cf.conjugator == up(ex1, "d")
    cf2 = cyclic_form(ex1, up(ex1, "d z"))
    assert cf2.cyclic_length == 2 and cf2.conjugator.is_identity()


def test_cyclic_length_is_a_conjugacy_invariant(ex1):
    rng = random.Random(8)
    for _ in range(60):
        g = random_reduced(rng, ex1.union_alphabet, rng.randint(0, 6))
        base = cyclic_form(ex1, g).cyclic_length
        for _ in range(3):
            z = random_reduced(rng, ex1.union_alphabet, rng.randint(0, 5))
            assert cyclic_form(ex1, ~z * g * z).cyclic_length == base


def test_cyclic_form_wraps_syllables(ex1):
    # d z d spelled as an element conjugate to (d^-1 d z d) d^-1... the wrap case
    cf = cyclic_form(ex1, up(ex1, "d z d"))
    assert cf.cyclic_length <= 2
    check = cf.conjugator * form_to_word(ex1, cf.form) * ~cf.conjugator
    assert normal_form(ex1, check) == normal_form(ex1, up(ex1, "d z d"))


CYCLIC_CONTEXTS = {**KERNEL_CONTEXTS, "malnormal": (malnormal_context(), None)}


def draw_alternating(data, ctx, blocks=(2, 6)):
    """Alternating factor blocks, so that most cyclic forms keep length >= 2."""
    first = data.draw(st.integers(0, 1))
    word = Word(ctx.union_alphabet, ())
    for i in range(data.draw(st.integers(*blocks))):
        side = "AB"[(first + i) % 2]
        n = len(ctx.factor_alphabet(side))
        block = data.draw(
            st.lists(st.sampled_from([lt for j in range(1, n + 1) for lt in (j, -j)]),
                     min_size=1, max_size=3)
        )
        word = word * ctx.to_union(side, Word(ctx.factor_alphabet(side), block))
    return word


@pytest.mark.parametrize("name", CYCLIC_CONTEXTS)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_cyclic_perms_match_their_definition(name, data):
    ctx, adversarial = CYCLIC_CONTEXTS[name]
    word = draw_alternating(data, ctx)
    policies = (CANONICAL,)
    if adversarial is not None and len(word) <= ADVERSARIAL_MAX_LEN:
        policies = (CANONICAL, adversarial)
    for policy in policies:
        form = cyclic_form(ctx, word, policy).form
        if form.syllable_length >= 2:
            perms = [
                (Word(ctx.union_alphabet, w), pi) for w, pi in _cyclic_perms(ctx, form, policy)
            ]
            assert perms == cyclic_perms_by_definition(ctx, form, policy)


# --- normal forms as letter-tuple values -------------------------------------------


def public_form(ctx, nf):
    """The same form through the public constructor, from freshly built Words."""
    return NormalForm(
        nf.head_side,
        Word(ctx.factor_alphabet(nf.head_side), nf.head_letters),
        [Syllable(side, Word(ctx.factor_alphabet(side), w)) for side, w in nf.syllable_letters],
    )


@pytest.mark.parametrize("name", CYCLIC_CONTEXTS)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_lazy_forms_equal_publicly_constructed_forms(name, data):
    ctx, adversarial = CYCLIC_CONTEXTS[name]
    word = data.draw(union_words(ctx))
    policies = (CANONICAL,)
    if adversarial is not None and len(word) <= ADVERSARIAL_MAX_LEN:
        policies = (CANONICAL, adversarial)
    for policy in policies:
        cyclic = cyclic_form(ctx, word, policy).form
        forms = [normal_form(ctx, word, policy), cyclic]
        if cyclic.syllable_length >= 2:
            forms += [pi for _, pi in _cyclic_perms(ctx, cyclic, policy)]
        for nf in forms:
            public = public_form(ctx, nf)
            # compared and hashed before nf has built any Word, and again after
            assert nf == public and public == nf and hash(nf) == hash(public)
            assert nf.head == public.head and nf.syllables == public.syllables
            assert repr(nf) == repr(public)
            assert nf == public and not nf != public and hash(nf) == hash(public)
            assert (nf.syllable_length, nf.sides()) == (public.syllable_length, public.sides())


def test_form_equality_reads_the_alphabets_and_the_head_side(ex1):
    def renamed(names_a, names_b):
        a, b = Alphabet(names_a), Alphabet(names_b)
        pairs = [(Word(a, u.letters), Word(b, v.letters)) for u, v in ex1.pairs]
        return build_context(a, b, pairs)

    same = renamed(ex1.alphabet_a.names, ex1.alphabet_b.names)
    other = renamed(("e", "f", "g"), ("p", "q", "r"))
    other_b = renamed(ex1.alphabet_a.names, ("p", "q", "r"))
    rng = random.Random(12)
    for _ in range(120):
        letters = random_reduced(rng, ex1.union_alphabet, rng.randint(0, 12)).letters
        nf = normal_form(ex1, Word(ex1.union_alphabet, letters))
        # renaming B alone changes only forms with a B syllable, as Word equality does
        only_a = "B" not in nf.sides()
        for ctx, equal in ((same, True), (other, False), (other_b, only_a)):
            nf2 = normal_form(ctx, Word(ctx.union_alphabet, letters))
            assert (nf == nf2, nf2 == nf, nf != nf2) == (equal, equal, not equal)
            assert not equal or hash(nf) == hash(nf2)
    # equal letters and alphabets, different head sides
    sylls = (Syllable("B", wb(ex1, "z")), Syllable("A", wa(ex1, "d")))
    form_a = NormalForm("A", wa(ex1, ""), sylls)
    form_b = NormalForm("B", wb(ex1, ""), sylls)
    assert form_a != form_b and form_b != form_a


# --- principal systems ------------------------------------------------------------


def test_principal_system_spec_example(ex1):
    g = normal_form(ex1, up(ex1, "d z"))
    e = principal_system_solve(ex1, g, g)
    card = cardinality(e)
    assert card.tag == "singleton" and card.element.is_identity()


def test_principal_system_factor_mismatch(ex1):
    g = normal_form(ex1, up(ex1, "d z"))
    h = normal_form(ex1, up(ex1, "z d"))
    assert principal_system_solve(ex1, g, h) is None


def test_principal_system_against_brute_force(ex1):
    rng = random.Random(12)
    c_elements = subgroup_elements(ex1.graph_ca, 6)
    pairs_checked = 0
    while pairs_checked < 12:
        length = rng.randint(1, 3)
        g_w = random_reduced(rng, ex1.union_alphabet, rng.randint(2, 7))
        h_w = random_reduced(rng, ex1.union_alphabet, rng.randint(2, 7))
        g = normal_form(ex1, g_w)
        h = normal_form(ex1, h_w)
        if g.syllable_length != h.syllable_length or not (
            1 <= g.syllable_length <= 3
        ):
            continue
        if g.sides() != h.sides():
            continue
        pairs_checked += 1
        e = principal_system_solve(ex1, g, h)
        expected = set()
        for c in c_elements:
            cur, side = c, "A"
            ok = True
            for p, p2 in reversed(list(zip(g.syllables, h.syllables))):
                if side != p.side:
                    cur = ex1.transfer_word(side, cur)
                    side = p.side
                cur = p.word * cur * ~p2.word
                if not ex1.in_c(side, cur):
                    ok = False
                    break
            if ok:
                expected.add(c)
        if e is None:
            assert not expected
        else:
            if e.side != "A":
                from amalgam.cosetalg import transfer

                e = transfer(ex1, e)
            got = {c for c in c_elements if e.contains(c)}
            assert got == expected


# --- regularity -------------------------------------------------------------------


def test_classify_spot_checks(ex1):
    assert classify(ex1, up(ex1, "a")).verdict == "singular"
    assert classify(ex1, up(ex1, "b")).verdict == "singular"
    assert classify(ex1, up(ex1, "d")).verdict == "regular"
    assert classify(ex1, up(ex1, "d z")).verdict == "regular"
    assert classify(ex1, up(ex1, "a^2")).verdict == "singular"


def test_classify_witnesses_are_checkable(ex1, powers):
    rep = classify(ex1, up(ex1, "a"))
    assert rep.witness_kind == "normalizer"
    (_, side, u), = rep.witness
    g = ex1.graph_c(side)
    assert g.contains(u) and not u.is_identity()
    rep2 = classify(powers, parse_word("a x a", powers.union_alphabet))
    assert rep2.verdict == "singular" and rep2.witness_kind == "bad-pair"
    (_, side, c), = rep2.witness
    assert powers.graph_c(side).contains(c) and not c.is_identity()


def test_classify_is_constant_on_c_double_cosets(ex1):
    rng = random.Random(21)
    c_gens_a = [wa(ex1, "a^2"), wa(ex1, "b")]
    for _ in range(25):
        word = random_reduced(rng, ex1.union_alphabet, rng.randint(2, 7))
        nf = normal_form(ex1, word)
        if nf.syllable_length < 1:
            continue
        verdict = classify(ex1, word).verdict
        c1 = ex1.to_union("A", random_member(rng, c_gens_a, rng.randint(0, 2)))
        c2 = ex1.to_union("A", random_member(rng, c_gens_a, rng.randint(0, 2)))
        assert classify(ex1, c1 * word * c2).verdict == verdict


def test_singular_long_elements_exist_in_powers_fixture(powers):
    # a and x commute with a^2 = x^2, so a x a is singular of length 3
    rep = classify(powers, parse_word("a x a", powers.union_alphabet))
    assert rep.verdict == "singular"
    rep2 = classify(powers, parse_word("a y x", powers.union_alphabet))
    assert rep2.verdict == "regular"


def test_ps2_infinite_solutions_imply_singular(powers):
    g = normal_form(powers, parse_word("a x a", powers.union_alphabet))
    h = normal_form(powers, parse_word("a x^-1 a", powers.union_alphabet))
    for other in (g, h):
        e = principal_system_solve(powers, g, other)
        if e is not None and cardinality(e).is_infinite:
            assert classify(powers, form_to_word(powers, g)).verdict == "singular"
            assert (
                classify(powers, form_to_word(powers, other)).verdict == "singular"
            )


def test_malnormal_fixture_long_elements_regular(malnormal_ctx):
    rng = random.Random(6)
    assert malnormal_ctx.malnormal_a and malnormal_ctx.malnormal_b
    for _ in range(40):
        word = random_reduced(rng, malnormal_ctx.union_alphabet, rng.randint(2, 8))
        nf = normal_form(malnormal_ctx, word)
        if nf.syllable_length >= 2:
            assert classify(malnormal_ctx, word).verdict == "regular"


# --- CR membership ---------------------------------------------------------------


def test_cr_membership_examples(ex1):
    tag, cf = cr_membership(ex1, up(ex1, "d z"))
    assert tag == "cr>1" and cf is not None
    assert classify(ex1, form_to_word(ex1, cf.form)).verdict == "regular"
    tag, cf = cr_membership(ex1, up(ex1, "d^-1 a^4 d"))
    assert tag == "not-cr" and cf is None
    tag, cf = cr_membership(ex1, up(ex1, "a"))
    assert tag == "cr1"
    # powers of b transfer to powers of y^2 and are conjugated into C by y,
    # so b^3 is singular; the mixed word a^2 b is a regular representative
    tag, cf = cr_membership(ex1, up(ex1, "d^-1 b^3 d"))
    assert tag == "not-cr"
    tag, cf = cr_membership(ex1, up(ex1, "d^-1 a^2 b d"))
    assert tag == "cr0"
    assert cf.form.syllable_length == 0


def test_cr_membership_conjugator_transports(ex1):
    rng = random.Random(14)
    for _ in range(20):
        word = random_reduced(rng, ex1.union_alphabet, rng.randint(1, 7))
        tag, cf = cr_membership(ex1, word)
        if cf is None:
            continue
        rebuilt = cf.conjugator * form_to_word(ex1, cf.form) * ~cf.conjugator
        assert normal_form(ex1, rebuilt) == normal_form(ex1, word)


# --- conjugacy search -------------------------------------------------------------


def test_conjugacy_constructed_pairs(ex1):
    rng = random.Random(3)
    done = 0
    while done < 30:
        g = random_reduced(rng, ex1.union_alphabet, rng.randint(2, 6))
        z = random_reduced(rng, ex1.union_alphabet, rng.randint(0, 4))
        out = conjugacy_search(ex1, g, ~z * g * z)
        assert out.tag != "not-conjugate"
        if out.tag == "conjugate":
            w = out.conjugator
            assert normal_form(ex1, ~w * g * w) == normal_form(ex1, ~z * g * z)
            done += 1
        else:
            done += 1


def test_wrong_conjugator_fails_verification_under_optimize():
    # python -O strips assert statements; the conjugator check must still raise
    code = "\n".join((
        "if __debug__: raise SystemExit('not running under -O')",
        "from amalgam import VerificationError",
        "from amalgam.fixtures import example_one_context",
        "from amalgam.group import CANONICAL, _assemble_and_verify",
        "from amalgam.words import parse_word",
        "ctx = example_one_context(2)",
        "a, b = (parse_word(t, ctx.union_alphabet) for t in ('a', 'b'))",
        "try:",
        "    _assemble_and_verify(ctx, a, a, b, CANONICAL)",
        "except VerificationError:",
        "    raise SystemExit(0)",
        "raise SystemExit('a wrong conjugator passed verification')",
    ))
    src = os.path.dirname(os.path.dirname(amalgam.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = dict(os.environ, PYTHONPATH=path)
    done = subprocess.run(
        [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr


def test_conjugacy_rotation_example(ex1):
    out = conjugacy_search(ex1, up(ex1, "d z"), up(ex1, "z d"))
    assert out.tag == "conjugate"
    out2 = conjugacy_search(ex1, up(ex1, "d z"), ~up(ex1, "b") * up(ex1, "d z") * up(ex1, "b"))
    assert out2.tag == "conjugate"


def test_conjugacy_length_one(ex1):
    out = conjugacy_search(ex1, up(ex1, "a d a^-1"), up(ex1, "b^-1 d b"))
    assert out.tag == "conjugate"
    assert conjugacy_search(ex1, up(ex1, "d"), up(ex1, "z")).tag == "not-conjugate"
    assert conjugacy_search(ex1, up(ex1, "a"), up(ex1, "d^2")).tag == "not-conjugate"


def test_conjugacy_length_zero_regular(ex1):
    # a^2 b is a regular element of C; conjugates of it are decided through C
    u = up(ex1, "d^-1 a^2 b d")
    v = up(ex1, "b^-1 a^2 b^2")  # (a^2 b) conjugated by b
    out = conjugacy_search(ex1, u, v)
    assert out.tag == "conjugate"
    out2 = conjugacy_search(ex1, u, up(ex1, "a^2 b^2"))
    assert out2.tag == "not-conjugate"


def test_conjugacy_undecided_pair(ex1):
    out = conjugacy_search(ex1, up(ex1, "a^2"), up(ex1, "a^-1 a^2 a"))
    assert out.tag == "undecided"


def test_conjugacy_undecided_long_singular(powers):
    # a and x both commute with the amalgamated a^2 = x^2, so every cyclic
    # permutation of a x is singular and no malnormal shortcut applies
    u = parse_word("a x", powers.union_alphabet)
    assert classify(powers, u).verdict == "singular"
    out = conjugacy_search(powers, u, u)
    assert out.tag == "undecided"


def test_conjugacy_regular_side_decides_against_singular(powers):
    # a x is singular in every cyclic permutation, a y is regular; a regular
    # side always yields a definite verdict
    u = parse_word("a x", powers.union_alphabet)
    v = parse_word("a y", powers.union_alphabet)
    assert classify(powers, v).verdict == "regular"
    assert conjugacy_search(powers, u, v).tag == "not-conjugate"
    assert conjugacy_search(powers, v, u).tag == "not-conjugate"
    z = parse_word("b x", powers.union_alphabet)
    out = conjugacy_search(powers, u, ~z * v * z)
    assert out.tag == "not-conjugate"
    out2 = conjugacy_search(powers, v, ~z * v * z)
    assert out2.tag == "conjugate"
    # u has no regular permutation: v's alone decides, as solving from it did
    for x, y in ((u, v), (u, ~z * v * z), (v, u), (u * u, v * v)):
        assert conjugacy_search(powers, x, y) == conjugacy_search_two_calls(powers, x, y)


DECIDER_CONTEXTS = {
    "ex1": example_one_context(2),
    "ex2": example_two_context(2),
    "malnormal": malnormal_context(),
    "powers": powers_context(),
}


@pytest.mark.parametrize("name", DECIDER_CONTEXTS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_regular_permutation_of_v_alone_decides_as_the_swapped_solve_did(name, data):
    # having a regular cyclic permutation is a conjugacy invariant, so solving
    # again from v's regular permutation, when u has none, never finds a conjugator
    ctx = DECIDER_CONTEXTS[name]
    u = draw_alternating(data, ctx, (2, 4))
    if data.draw(st.booleans()):
        z = data.draw(union_words(ctx, 6))
        v = ~z * u * z
    else:
        v = draw_alternating(data, ctx, (2, 4))
    assert conjugacy_search(ctx, u, v) == conjugacy_search_two_calls(ctx, u, v)


def test_malnormal_fixture_never_undecided(malnormal_ctx):
    rng = random.Random(19)
    for _ in range(40):
        u = random_reduced(rng, malnormal_ctx.union_alphabet, rng.randint(0, 4))
        v = random_reduced(rng, malnormal_ctx.union_alphabet, rng.randint(0, 4))
        out = conjugacy_search(malnormal_ctx, u, v)
        assert out.tag != "undecided"


def test_conjugacy_verdicts_policy_independent(ex1):
    rng = random.Random(40)
    for _ in range(15):
        u = random_reduced(rng, ex1.union_alphabet, rng.randint(0, 6))
        v = random_reduced(rng, ex1.union_alphabet, rng.randint(0, 6))
        a = conjugacy_search(ex1, u, v, CANONICAL)
        b = conjugacy_search(ex1, u, v, ADVERSARIAL)
        assert a.tag == b.tag
        assert classify(ex1, u, CANONICAL).verdict == classify(ex1, u, ADVERSARIAL).verdict


def test_brute_oracle_examples(ex1):
    u = up(ex1, "d z")
    assert brute_conjugacy_oracle(ex1, u, u, 4).is_identity()
    assert brute_conjugacy_oracle(ex1, up(ex1, "a"), up(ex1, "b"), 4) is None
    z = brute_conjugacy_oracle(ex1, u, up(ex1, "z d"), 4)
    assert z is not None
    assert normal_form(ex1, ~z * u * z) == normal_form(ex1, up(ex1, "z d"))


def test_not_conjugate_never_contradicted_by_oracle(ex1):
    rng = random.Random(2024)
    checked = 0
    for _ in range(200):
        u = random_reduced(rng, ex1.union_alphabet, rng.randint(0, 5))
        v = random_reduced(rng, ex1.union_alphabet, rng.randint(0, 5))
        out = conjugacy_search(ex1, u, v)
        if out.tag != "not-conjugate":
            continue
        checked += 1
        assert brute_conjugacy_oracle(ex1, u, v, 6) is None
    assert checked >= 100


def test_brute_oracle_finds_search_results(ex1):
    rng = random.Random(77)
    found = 0
    while found < 6:
        g = random_reduced(rng, ex1.union_alphabet, rng.randint(1, 4))
        z = random_reduced(rng, ex1.union_alphabet, rng.randint(0, 2))
        out = conjugacy_search(ex1, g, ~z * g * z)
        if out.tag != "conjugate" or len(out.conjugator) > 4:
            continue
        assert brute_conjugacy_oracle(ex1, g, ~z * g * z, 4) is not None
        found += 1

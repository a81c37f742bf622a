import os
import random
import subprocess
import sys
import threading
import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import amalgam
from amalgam import cosetalg, group, stallings
from amalgam.fixtures import example_one_context, example_two_context, malnormal_context
from amalgam.cosetalg import c_coset
from amalgam.group import (
    CANONICAL,
    ConjugacyOutcome,
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
    _cyclic_perms,
)
from amalgam.stallings import _RUN_MIN, NotAMemberError, SubgroupGraph, build
from amalgam.words import (
    Alphabet,
    VerificationError,
    Word,
    format_word,
    identity,
    letters_inverse,
    letters_product,
    parse_word,
)

from bruteforce import (
    adversarial_rep_by_cancellation,
    basis_images_by_generators,
    brute_conjugacy_oracle,
    build_context_through_basis,
    classify_through_basis,
    conjugacy_search_two_calls,
    cr0_outcome_through_basis,
    cyclic_perms_by_definition,
    express_in_basis,
    form_sides,
    normal_form_unmemoised,
    principal_system_solve_two_pass,
    reduced_form_by_rescan,
    shift_by_copy,
    split_by_groupby,
    subgroup_elements,
    transfer_key_through_basis,
    transfer_through_basis,
    transfer_word,
)
from conftest import nielsen_pairs, random_member, random_reduced

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
    assert ex1.graph_ca.contains(wa(ex1, "a^2 b").letters)
    assert ex1.transfer_letters("A", wa(ex1, "a^2").letters) == wb(ex1, "x").letters
    assert ex1.transfer_letters("B", wb(ex1, "y^2").letters) == wa(ex1, "b").letters


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
        assert ctx.transfer_letters("A", u.letters) == v.letters
        assert ctx.transfer_letters("B", v.letters) == u.letters


def test_build_context_accepts_non_basis_generators():
    x = Alphabet(("a", "b"))
    y = Alphabet(("x", "y"))
    ctx = build_context(
        x, y, [(parse_word("a b", x), Word(y, (1,))), (Word(x, (2,)), Word(y, (2,)))]
    )
    assert ctx.transfer_letters("A", parse_word("a b", x).letters) == Word(y, (1,)).letters
    assert ctx.transfer_letters("A", Word(x, (1,)).letters) == parse_word("x y^-1", y).letters


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
    double_transversal = SubgroupGraph.double_transversal

    def counted(self):
        calls.append(self)
        return double_transversal(self)

    monkeypatch.setattr(SubgroupGraph, "double_transversal", counted)
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


def test_build_context_grows_linearly_with_the_number_of_pairs():
    # C: a_i^2 = x_i^2 for i < n makes each C graph a rose of n petals over n letters;
    # a graph constructor that looks up every letter at every state, or an alphabet
    # comparison that reads every name per pair, makes quadrupling n cost about 16x.
    # A ratio of the best of 3, the sizes taken in turn, because the host's speed
    # swings by up to 1.7x
    def wide(n):
        alphabet_a = Alphabet(tuple(f"a{i}" for i in range(n)))
        alphabet_b = Alphabet(tuple(f"x{i}" for i in range(n)))
        pairs = [(Word(alphabet_a, (i, i)), Word(alphabet_b, (i, i))) for i in range(1, n + 1)]
        return alphabet_a, alphabet_b, pairs

    sizes = {2000: wide(2000), 8000: wide(8000)}
    times = {n: [] for n in sizes}
    for _ in range(3):
        for n, args in sizes.items():
            start = time.perf_counter()
            build_context(*args)
            times[n].append(time.perf_counter() - start)
    small, large = min(times[2000]), min(times[8000])
    assert large < 9 * small, (small, large)


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
            images = basis_images_by_generators(ctx, side)
            spelled = sum(len(images[abs(b) - 1]) for b in express_in_basis(graph, w).letters)
            if spelled > len(moved):
                junctions.append(name)

    check()
    assert junctions, "no example cancelled across the junction of two edge images"


def _broken(pairs, kind):
    """The pairing with its targets in reverse order, a pair repeated with another
    target, or the first target given to the second pair too."""
    u, v = pairs[0]
    if kind == "reversed":
        return [(x, y) for (x, _), (_, y) in zip(pairs, pairs[::-1])]
    if kind == "duplicated":
        return [*pairs, (u, pairs[-1][1] if len(pairs) > 1 else v * v)]
    if kind == "merged" and len(pairs) > 1:
        return [pairs[0], (pairs[1][0], v), *pairs[2:]]
    return pairs


def _outcome(make, *args):
    try:
        return make(*args)
    except InvalidPresentationError as err:
        return str(err), err.index


def test_edge_word_images_match_the_basis_round_trip():
    # build_context substitutes the targets into the fold's edge words; the older
    # construction spelled the basis over the generators and spread its images onto
    # the basis edges: the same transfers, and the same rejection of a broken pairing
    fixtures = {ctx.pairs: ctx for ctx in TRANSFER_CONTEXTS.values()}
    seen = {"valid": 0, "pairing": 0, "reverse pairing": 0}

    @settings(max_examples=200, deadline=None)
    @given(
        source=st.one_of(st.sampled_from(sorted(fixtures, key=repr)), st.integers(0, 10**6)),
        kind=st.sampled_from(("none", "reversed", "duplicated", "merged")),
        data=st.data(),
    )
    def check(source, kind, data):
        if isinstance(source, int):
            alphabet_a, alphabet_b = Alphabet(("a", "b", "c")), Alphabet(("x", "y", "z"))
            pairs = nielsen_pairs(random.Random(source), alphabet_a, alphabet_b)
        else:
            alphabet_a, alphabet_b = fixtures[source].factor_alphabets
            pairs = list(source)
        pairs = _broken(pairs, kind)
        ctx = _outcome(build_context, alphabet_a, alphabet_b, pairs)
        ref = _outcome(build_context_through_basis, alphabet_a, alphabet_b, pairs)
        if isinstance(ref, tuple):
            seen["reverse pairing" if "reverse" in ref[0] else "pairing"] += 1
            assert ctx == ref
            return
        seen["valid"] += 1
        rng = random.Random(data.draw(st.integers(0, 2**32)))
        for side in "AB":
            members = [pair["AB".index(side)] for pair in pairs]
            for _ in range(6):
                letters = random_member(rng, members, rng.randint(0, 8)).letters
                moved = ctx.transfer_letters(side, letters)
                assert moved == transfer_through_basis(ctx, side, letters)
                assert moved == ref.transfer_letters(side, letters)

    check()
    assert all(seen.values()), seen


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


# --- reduced forms ---------------------------------------------------------------


def test_reduced_form_examples(ex1):
    rf = reduced_form(ex1, up(ex1, "a^2"))
    assert rf.syllable_length == 0
    assert rf.head == wa(ex1, "a^2")
    # a lone C-syllable on the B side becomes an A head
    rf = reduced_form(ex1, up(ex1, "x"))
    assert (rf.head_side, rf.head, rf.syllables) == ("A", wa(ex1, "a^2"), ())
    rf2 = reduced_form(ex1, up(ex1, "d x d"))
    assert [s.word for s in rf2.syllables] == [wa(ex1, "d a^2 d")]
    both = (Syllable("A", wa(ex1, "d")), Syllable("B", wb(ex1, "z")))
    assert reduced_form(ex1, up(ex1, "d z")).syllables == both
    empty = reduced_form(ex1, up(ex1, ""))
    assert (empty.head_side, empty.head, empty.syllables) == ("A", wa(ex1, ""), ())
    with pytest.raises(ValueError, match="not over the union alphabet"):
        reduced_form(ex1, wa(ex1, "d"))


def test_reduced_form_matches_normal_form_length(ex1):
    rng = random.Random(17)
    for _ in range(60):
        word = random_reduced(rng, ex1.union_alphabet, rng.randint(0, 10))
        rf = reduced_form(ex1, word)
        nf = normal_form(ex1, word)
        assert rf.syllable_length == nf.syllable_length
        for s in rf.syllables:
            assert not ex1.graph_c(s.side).contains(s.word.letters)
        assert normal_form(ex1, form_to_word(ex1, rf)) == nf


def c_element(rng, ctx):
    """A C-element as (u over A, v over B) union words, equal in G."""
    u, v = identity(ctx.alphabet_a), identity(ctx.alphabet_b)
    for _ in range(rng.randint(1, 3)):
        pu, pv = rng.choice(ctx.pairs)
        if rng.random() < 0.5:
            pu, pv = ~pu, ~pv
        u, v = u * pu, v * pv
    return ctx.to_union("A", u), ctx.to_union("B", v)


def c_heavy_word(rng, ctx):
    """Random words, conjugated C-elements and g v u^-1 g^-1 with u = v in G."""
    word = identity(ctx.union_alphabet)
    for _ in range(rng.randint(1, 5)):
        kind = rng.random()
        u, v = c_element(rng, ctx)
        g = random_reduced(rng, ctx.union_alphabet, rng.randint(0, 6))
        if kind < 0.3:
            piece = random_reduced(rng, ctx.union_alphabet, rng.randint(0, 8))
        elif kind < 0.6:  # the transfer of v cancels u^-1, and g cancels block by block
            piece = g * v * ~u * ~g
        elif kind < 0.8:
            piece = g * rng.choice((u, v)) * ~g
        else:
            piece = rng.choice((u, v))
        word = word * piece
    return word


def test_one_pass_reduced_form_matches_the_rescan():
    # leftmost C-syllable first, as the rescan does; C-heavy products make
    # transfers whose product with both neighbours cancels, so the blocks
    # beyond them meet (a drop of 4 or more syllables in one transfer).
    # "non-basis" and "redundant" amalgamate over a whole factor: no cascades
    rng = random.Random(18)
    cascaded = set()
    for name, ctx in {**TRANSFER_CONTEXTS, "powers": powers_context()}.items():
        for _ in range(300):
            word = c_heavy_word(rng, ctx)
            lengths = [len(group._split(ctx, word))]
            ref = reduced_form_by_rescan(ctx, word, lengths)
            rf = reduced_form(ctx, word)
            assert (rf.head_side, rf.head, rf.syllables) == (ref.head_side, ref.head, ref.syllables)
            assert rf == ref
            if any(a - b >= 4 for a, b in zip(lengths, lengths[1:])):
                cascaded.add(name)
    assert cascaded == {"ex1", "ex1(p=3)", "ex2", "malnormal", "powers"}


# (d z)^n (b z)^n: the rescan re-tests the n finished blocks after each transfer
ONE_PASS_INPUTS = {
    "(b z)^2000": [("b z", 2000)],
    "(a x)^500": [("a x", 500)],
    "(d z)^250 (b z)^250": [("d z", 250), ("b z", 250)],
}


@pytest.mark.parametrize("name", ONE_PASS_INPUTS)
def test_reduced_form_tests_each_block_at_most_twice(ex1, monkeypatch, name):
    # a block is tested when it is read, and a merge that makes a new block
    # consumes at least one, so a rescan's quadratic count cannot pass
    word = identity(ex1.union_alphabet)
    for text, n in ONE_PASS_INPUTS[name]:
        word = word * up(ex1, text) ** n
    calls = []
    read = SubgroupGraph.read

    def counted(graph, letters, start=0):
        calls.append(letters)
        return read(graph, letters, start)

    monkeypatch.setattr(SubgroupGraph, "read", counted)
    rf = reduced_form(ex1, word)
    monkeypatch.undo()
    assert len(calls) <= 2 * len(group._split(ex1, word))
    assert normal_form(ex1, form_to_word(ex1, rf)) == normal_form(ex1, word)


# --- normal forms ---------------------------------------------------------------


def test_normal_form_of_relator_is_identity(ex1):
    for text in ("a^2 x^-1", "x^-1 a^2", "y^2 b^-1", "b y^-2"):
        nf = normal_form(ex1, up(ex1, text))
        assert nf.syllable_length == 0 and not nf.head


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
    canonical = ctx.graph_c(side).coset_rep
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
        rf = reduced_form(ctx, spelled * ~word)
        assert rf.syllable_length == 0 and not rf.head


# --- the memoised sweep step against the unmemoised sweep -------------------------

STEP_CONTEXTS = {
    "ex1": (lambda: example_one_context(2), RepPolicy.paper_example_one(2)),
    "ex1(p=3)": (lambda: example_one_context(3), RepPolicy.paper_example_one(3)),
    "ex2": (lambda: example_two_context(2), None),
    "malnormal": (malnormal_context, None),
    "powers": (powers_context, None),
}


def is_syllable(key):
    return bool(key) and isinstance(key[0], str)  # (side, rep); a carry holds letters


def block_decoder(ctx):
    """A row's block (one character per union letter, from the context's codec) -> its
    union letters."""
    n = len(ctx.union_alphabet)
    decode = {ctx._codes[lt]: lt for lt in [*range(1, n + 1), *range(-n, 0)]}
    assert len(decode) == 2 * n  # one character per union letter
    return lambda block: tuple(map(decode.__getitem__, block))


def step_keys(ctx):
    """Every step of the sweep memos in ctx.cache, over all policies, as (block, carry):
    the block decoded to union letters, read off the state of its carry."""
    keys, decode = [], block_decoder(ctx)
    for kind, memo in ctx.cache.items():
        for key, value in memo.items() if kind[0] == "step" else ():
            keys += [] if is_syllable(key) else [(decode(b), key) for b in value if b]
    return keys


def assert_keys_within_the_gates(ctx):
    # a step is hashed below the 64-letter rule, and no join is stored
    off, decode = len(ctx.alphabet_a), block_decoder(ctx)
    keys = step_keys(ctx)
    assert keys
    for block, carry in keys:
        assert block and len({abs(lt) > off for lt in block}) == 1  # one side's block
        assert len(block) + len(carry) < _RUN_MIN
    # a state holds the rows of a carry under 64 letters and, under None, that carry; a
    # row links to its next carry's state (the one shared state of the long carries, which
    # holds no row) and, once a join has needed them, the letters of its rep that its C
    # graph reads (all of an adversarial rep).  A row keeps no copies: its carry is the key
    # of its next state, and its syllable is the memo's one copy, which the memo keeps only
    # for its rows
    for kind, memo in ctx.cache.items():
        if kind[0] != "step":
            continue
        used = set()
        for carry, state in memo.items():
            if is_syllable(carry):
                assert len(carry) == 2 and carry[0] in ("A", "B") and carry[1]
                assert state is carry
                continue
            assert len(carry) < _RUN_MIN and state[None] is carry
            rows = ((decode(block), row) for block, row in state.items() if block)
            for block, (syll, nxt, nxt_state, reads) in rows:
                assert syll is None or syll[0] == "AB"[abs(block[0]) > off]
                assert syll is None or memo[syll] is syll
                assert nxt_state is (memo[nxt] if len(nxt) < _RUN_MIN else group._LONG_STATE)
                assert nxt_state is group._LONG_STATE or nxt is nxt_state[None]
                if syll and reads is not None:  # kept by the row's first join
                    graph = ctx.graph_c(syll[0])
                    canonical = kind[1] == "canonical"
                    assert reads == (graph.read(syll[1])[1] if canonical else len(syll[1]))
                used.add(syll)
        assert {key for key in memo if is_syllable(key)} == used - {None}
    assert not group._LONG_STATE  # probed, never written


def cancelled(a, b):
    """Letters cancelled at the junction of the product a * b."""
    k = 0
    while k < min(len(a), len(b)) and a[-1 - k] == -b[k]:
        k += 1
    return k


def splits_again(ctx, side, rep, tail):
    """Whether the canonical sweep splits the join rep * tail again: only when what is
    left of rep after the junction reads to its end from the base of its C graph.
    Otherwise the merged syllable is its own representative, with an empty head."""
    return ctx.graph_c(side).read(rep)[1] >= len(rep) - cancelled(rep, tail)


def reference_joins(ctx, word, policy):
    """(merged letters, split again) for every join of the reference sweep, in order.

    A join kept whole is checked to be its own representative."""
    joins = []
    normal_form_unmemoised(ctx, word, policy, joins=joins)
    out = []
    for side, rep, tail in joins:
        merged = letters_product(rep, tail)
        again = splits_again(ctx, side, rep, tail)
        if policy == CANONICAL and not again:
            assert ctx.graph_c(side).coset_rep(merged) == (merged, ())
        out.append((merged, again))
    return out


def short_steps_only(ctx, word, policy):
    """Whether the memo stores every step of the sweep: each block with its carry under
    the 64-letter rule, the carry read off the reference's trace."""
    trace = []
    normal_form_unmemoised(ctx, word, policy, trace)
    blocks = split_by_groupby(ctx, word)[::-1]
    return all(len(b) + c < _RUN_MIN for (_, b), c in zip(blocks, [0] + trace))


@pytest.fixture
def coset_rep_calls(monkeypatch):
    """The letters of every SubgroupGraph.coset_rep call, in order."""
    calls = []
    coset_rep = SubgroupGraph.coset_rep

    def counted(graph, letters):
        calls.append(letters)
        return coset_rep(graph, letters)

    monkeypatch.setattr(SubgroupGraph, "coset_rep", counted)
    return calls


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


def test_long_transfers_are_walked_not_memoised():
    # (a x)^n carries up to 3n letters across; stored, they grew the memo
    # quadratically, so a transfer keeps the step memo's length gate
    ctx = example_one_context(2)
    word = up(ctx, "a x") ** 2000
    trace = []
    nf = normal_form(ctx, word, trace=trace)
    rf = reduced_form(ctx, word)
    assert max(trace) >= _RUN_MIN and len(rf.head) == 6000
    assert xfer_keys(ctx)
    assert all(len(letters) < _RUN_MIN for _, _, letters in xfer_keys(ctx))
    assert normal_form(ctx, form_to_word(ctx, rf)) == nf
    assert_keys_within_the_gates(ctx)


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
    assert_keys_within_the_gates(ctx)


def test_ex2_identity_memoises_only_short_steps():
    ctx = example_two_context(2)
    conj = up(ctx, "b y") ** 12
    lhs = ~conj * up(ctx, "a") * conj
    for _ in range(2):
        nf = normal_form(ctx, lhs)
        assert nf == normal_form(ctx, up(ctx, "a") ** 4096) and len(nf.head) == 4096
    assert_keys_within_the_gates(ctx)


def nielsen_context(seed):
    alphabet_a, alphabet_b = Alphabet(("a", "b", "c")), Alphabet(("x", "y", "z"))
    pairs = nielsen_pairs(random.Random(seed), alphabet_a, alphabet_b)
    return build_context(alphabet_a, alphabet_b, pairs)


@pytest.mark.parametrize("name", [*STEP_CONTEXTS, "nielsen"])
def test_memoised_joins_match_the_unmemoised_sweep(name, coset_rep_calls):
    # c_heavy_word puts C-letters between syllables, so a block is absorbed into
    # the carry and the next rep joins the syllable after it.  No join is stored: a
    # warm canonical sweep, whose steps are all in the memo, calls coset_rep for
    # exactly the joins it splits again, in order, and for no join it keeps whole
    outcomes = set()

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32))
    def check(seed):
        if name == "nielsen":
            ctx, ref, policies = nielsen_context(seed), nielsen_context(seed), (CANONICAL,)
        else:
            make, adversarial = STEP_CONTEXTS[name]
            ctx, ref = make(), make()
            policies = (CANONICAL,) if adversarial is None else (CANONICAL, adversarial)
        rng = random.Random(seed)
        words = [c_heavy_word(rng, ctx) for _ in range(6)]
        for warm in (False, True):
            for word in words:
                for policy in policies:
                    trace, ref_trace = [], []
                    coset_rep_calls.clear()
                    nf = normal_form(ctx, word, policy, trace)
                    calls = list(coset_rep_calls)
                    assert nf == normal_form_unmemoised(ref, word, policy, ref_trace)
                    assert trace == ref_trace
                    if warm and policy == CANONICAL and short_steps_only(ref, word, policy):
                        joins = reference_joins(ref, word, policy)
                        assert calls == [merged for merged, again in joins if again]
                        outcomes.update(again for _, again in joins)
            assert xfer_keys(ctx) == xfer_keys(ref)
        assert_keys_within_the_gates(ctx)

    check()
    assert outcomes == {False, True}


SHARED_CONTEXTS = {
    **{name: (make(), adversarial) for name, (make, adversarial) in STEP_CONTEXTS.items()},
    **{f"nielsen-{seed}": (nielsen_context(seed), None) for seed in (1, 2, 3)},
}


@pytest.mark.parametrize("name", SHARED_CONTEXTS)
def test_a_shared_state_is_read_by_the_side_of_its_block(name):
    # a carry such as (1,) is `a` after an A block and `x` after a B block, and both
    # read one state: the block's union letters pick the row.  One warm memo per
    # context serves every word of every example.
    ctx, adversarial = SHARED_CONTEXTS[name]
    policies = (CANONICAL,) if adversarial is None else (CANONICAL, adversarial)

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2**32))
    def check(seed):
        rng = random.Random(seed)
        for word in [c_heavy_word(rng, ctx) for _ in range(10)]:
            for policy in policies:
                trace, ref_trace = [], []
                nf = normal_form(ctx, word, policy, trace)
                assert nf == normal_form_unmemoised(ctx, word, policy, ref_trace)
                assert trace == ref_trace

    check()
    off, decode = len(ctx.alphabet_a), block_decoder(ctx)
    memos = [memo for kind, memo in ctx.cache.items() if kind[0] == "step"]
    states = [state for memo in memos for key, state in memo.items() if not is_syllable(key)]
    sides = [{abs(decode(block)[0]) > off for block in state if block} for state in states]
    assert any(len(side) == 2 for side in sides)
    assert_keys_within_the_gates(ctx)


def test_a_warm_sweep_splits_nothing(coset_rep_calls):
    # every step of a short word is in the memo after one sweep, and no join is: a
    # warm canonical sweep splits only the joins it splits again, and a warm
    # adversarial sweep sends every join through the policy's representative
    ctx = example_one_context(2)
    word = up(ctx, "d x d z y^2 z b d")
    for policy in (CANONICAL, ADVERSARIAL):
        form = normal_form_unmemoised(ctx, word, policy)
        joins = reference_joins(ctx, word, policy)
        assert joins and short_steps_only(ctx, word, policy)
        coset_rep_calls.clear()
        assert normal_form(ctx, word, policy) == form
        assert coset_rep_calls
        coset_rep_calls.clear()
        assert normal_form(ctx, word, policy) == form
        if policy == CANONICAL:
            assert coset_rep_calls == [merged for merged, again in joins if again]
        else:
            assert coset_rep_calls == [merged for merged, _ in joins]
    assert_keys_within_the_gates(ctx)


def test_a_warm_sweep_calls_no_alphabet_or_policy_dunder(monkeypatch):
    # the union alphabet is tested by identity and the step memo is keyed by the policy's
    # fields, so a warm sweep runs neither Alphabet.__eq__ nor RepPolicy.__hash__
    ctx = example_one_context(2)
    word = up(ctx, "d x d z y^2 z b d")
    policies = (CANONICAL, ADVERSARIAL)
    want = [normal_form(ctx, word, policy) for policy in policies]
    calls = []
    eq, policy_hash = Alphabet.__eq__, RepPolicy.__hash__
    monkeypatch.setattr(Alphabet, "__eq__", lambda a, b: calls.append("eq") or eq(a, b))
    monkeypatch.setattr(RepPolicy, "__hash__", lambda p: calls.append("hash") or policy_hash(p))
    got = [normal_form(ctx, word, policy) for policy in policies]
    assert not calls
    assert got == want
    # an equal alphabet that is another object still goes through Alphabet.__eq__
    assert normal_form(ctx, Word(Alphabet(ctx.union_alphabet.names), word.letters)) == got[0]
    assert calls == ["eq"]


def test_long_joins_are_split_not_memoised(coset_rep_calls):
    # on (b z)^n each rep z y^2 joins the growing syllable after it.  z cannot be
    # read at the base of C_B, so every join keeps the merged syllable whole with no
    # split and no memo entry: the memo does not grow with n, and a warm sweep calls
    # coset_rep for none of the n joins
    ctx = example_one_context(2)
    keys = []
    for n in (50, 200):
        ctx.cache.clear()
        word = up(ctx, "b z") ** n
        nf = normal_form(ctx, word)
        assert nf == normal_form_unmemoised(ctx, word) and len(nf.syllable_letters[0][1]) > n
        joins = reference_joins(ctx, word, CANONICAL)
        assert len(joins) == n - 1 and not any(again for _, again in joins)
        coset_rep_calls.clear()
        assert normal_form(ctx, word) == nf and not coset_rep_calls
        assert_keys_within_the_gates(ctx)
        keys.append((set(step_keys(ctx)), set(ctx.cache[("step", "canonical", 0)])))
    assert keys[0] == keys[1]


def astuple(form):
    return form.head_side, form.head, form.syllables


@pytest.mark.parametrize("name", [*STEP_CONTEXTS, "nielsen"])
def test_in_place_joins_match_the_references(name):
    # C-heavy words and powers of them, whose reps keep joining the syllable after
    # them: normal_form grows the joined syllable in place and reduced_form its left
    # block, and both equal the references that multiply and split whole tuples.
    # Joins come out both ways: kept whole, and split again
    outcomes = set()

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32))
    def check(seed):
        if name == "nielsen":
            ctx, ref, adversarial = nielsen_context(seed), nielsen_context(seed), None
        else:
            make, adversarial = STEP_CONTEXTS[name]
            ctx, ref = make(), make()
        rng = random.Random(seed)
        words = [c_heavy_word(rng, ctx) for _ in range(4)]
        powers = [c_heavy_word(rng, ctx) ** rng.randint(2, 8) for _ in range(2)]
        for word in words + powers:
            rf = reduced_form(ctx, word)
            assert astuple(rf) == astuple(reduced_form_by_rescan(ctx, word))
            both = adversarial is not None and word not in powers  # powers of p^(2m) heads
            for policy in (CANONICAL, adversarial) if both else (CANONICAL,):
                trace, ref_trace = [], []
                nf = normal_form(ctx, word, policy, trace)
                assert nf == normal_form_unmemoised(ref, word, policy, ref_trace)
                assert trace == ref_trace
                outcomes.update(again for _, again in reference_joins(ref, word, policy))

    check()
    assert outcomes == {False, True}


@pytest.mark.parametrize("sweep", [normal_form, reduced_form], ids=["normal", "reduced"])
def test_c_heavy_sweeps_build_linearly_many_letters(sweep, monkeypatch):
    # (b z)^n: b is in C_A and transfers to y^2, so each rep lands beside the syllable
    # (or block) before it.  The letters letters_product returns, and the letters
    # joined in place, at most about double when n doubles: no join copies what is
    # already there
    built, joined = [], []
    product, join = group.letters_product, group._join

    def counted_product(a, b):
        out = product(a, b)
        built.append(len(out))
        return out

    def counted_join(left, right):
        joined.append(len(right))
        return join(left, right)

    monkeypatch.setattr(group, "letters_product", counted_product)
    monkeypatch.setattr(group, "_join", counted_join)
    counts = []
    for n in (2**12, 2**13, 2**14):
        ctx = example_one_context(2)
        word = up(ctx, "b z") ** n
        built.clear()
        joined.clear()
        form = sweep(ctx, word)
        assert len(form.syllable_letters) == 1 and len(form.syllable_letters[0][1]) >= 2 * n
        counts.append((sum(built), sum(joined)))
    for (b1, j1), (b2, j2) in zip(counts, counts[1:]):
        assert b2 <= 2.3 * b1 and j2 <= 2.3 * j1, counts
    assert counts[-1][1] >= 2**14  # the joins are counted


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


# --- the block codec -------------------------------------------------------------


def wide_context(n, pairs=None):
    """F(a1..an) * F(x1..xn), over a Nielsen pairing unless `pairs` (index pairs, as
    (u letters, v letters)) is given."""
    alphabet_a = Alphabet(tuple(f"a{i}" for i in range(1, n + 1)))
    alphabet_b = Alphabet(tuple(f"x{i}" for i in range(1, n + 1)))
    if pairs is None:
        pairs = nielsen_pairs(random.Random(5), alphabet_a, alphabet_b)
    else:
        pairs = [(Word(alphabet_a, u), Word(alphabet_b, v)) for u, v in pairs]
    return build_context(alphabet_a, alphabet_b, pairs)


CODEC_CONTEXTS = {
    **{name: make for name, (make, _) in STEP_CONTEXTS.items()},
    **{f"nielsen-{seed}": lambda seed=seed: nielsen_context(seed) for seed in (1, 2, 3)},
    "wide-150": lambda: wide_context(150),  # B's codes run from U+012D to U+0259
}


def block_words(data, ctx, max_blocks=6):
    """Alternating one-side blocks, one of 64 to 128 pieces and the others of up to 64:
    a piece is a letter of the block's side, or a u_i or v_i (or an inverse), so some
    blocks lie in C."""
    first, count = data.draw(st.integers(0, 1)), data.draw(st.integers(1, max_blocks))
    long = data.draw(st.integers(0, count - 1))
    letters = ()
    for i in range(count):
        side = "AB"[(first + i) % 2]
        n = len(ctx.factor_alphabet(side))
        gens = [(lt,) for j in range(1, n + 1) for lt in (j, -j)]
        pair_words = [w.letters for pair in ctx.pairs for w in (pair["AB".index(side)],)]
        pair_words += [letters_inverse(w) for w in pair_words]
        size = data.draw(st.integers(*(_RUN_MIN, 2 * _RUN_MIN) if i == long else (1, _RUN_MIN)))
        pieces = st.one_of(st.sampled_from(gens), st.sampled_from(pair_words))
        block = sum(data.draw(st.lists(pieces, min_size=size, max_size=size)), ())
        letters += ctx.union_letters(side, block)
    return Word(ctx.union_alphabet, letters)  # reduced, so blocks may cancel and merge


def spelt(ctx, side, letters):
    """A side's factor letters in the codec's characters."""
    return "".join(ctx._codes[lt] for lt in ctx.union_letters(side, letters))


def assert_runs_alternate(ctx, word):
    # the codec's one split: runs of B, A, B, ... from index 0, of which only the first
    # and the last can be empty, and the nonempty runs are the grouped split's blocks
    runs, split = ctx._blocks(word.letters), split_by_groupby(ctx, word)
    assert len(runs) % 2 == 1 and all(runs[1:-1])
    assert [i % 2 for i, run in enumerate(runs) if run] == ["BA".index(s) for s, _ in split]
    assert [run for run in runs if run] == [spelt(ctx, side, block) for side, block in split]
    assert group._split(ctx, word) == split


@pytest.mark.parametrize("name", CODEC_CONTEXTS)
def test_codec_blocks_match_the_grouped_split(name):
    # the codec's blocks are the ones that grouping letters by side gives, and the sweep
    # that reads them matches the reference, which splits by grouping
    ctx, ref = CODEC_CONTEXTS[name](), CODEC_CONTEXTS[name]()
    longest = []

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def check(data):
        word = block_words(data, ctx) if data.draw(st.booleans()) else data.draw(union_words(ctx))
        split = split_by_groupby(ctx, word)
        assert_runs_alternate(ctx, word)
        trace, ref_trace = [], []
        assert normal_form(ctx, word, CANONICAL, trace) == normal_form_unmemoised(
            ref, word, CANONICAL, ref_trace
        )
        assert trace == ref_trace
        assert astuple(reduced_form(ctx, word)) == astuple(reduced_form_by_rescan(ctx, word))
        longest.append(max((len(block) for _, block in split), default=0))

    check()
    assert max(longest) >= _RUN_MIN  # one-side blocks of 64 letters or more were swept


@pytest.mark.parametrize("name", CODEC_CONTEXTS)
def test_codec_ends_sweep_cold_then_warm(name):
    # the split's ends: the empty word is one empty run, a one-letter word of A sits
    # between two empty runs, and a word may start and end with a block in C
    ctx, ref = CODEC_CONTEXTS[name](), CODEC_CONTEXTS[name]()
    union, n = ctx.union_alphabet, len(ctx.union_alphabet)
    u, v = ctx.pairs[0][0].letters, ctx.pairs[0][1].letters
    assert ctx.graph_ca.contains(u) and ctx.graph_cb.contains(v)
    u, v = ctx.union_letters("A", u), ctx.union_letters("B", v)
    words = [(), *((lt,) for lt in [*range(1, n + 1), *range(-n, 0)]), u + v[:1] + u,
             v + u[:1] + v]
    for word in (Word(union, letters) for letters in words):
        assert_runs_alternate(ctx, word)
        ctx.cache.clear()
        ref_trace = []
        expect = normal_form_unmemoised(ref, word, CANONICAL, ref_trace)
        for _ in range(2):  # cold, then warm
            trace = []
            assert normal_form(ctx, word, CANONICAL, trace) == expect and trace == ref_trace
        assert astuple(reduced_form(ctx, word)) == astuple(reduced_form_by_rescan(ctx, word))


def test_codes_past_the_surrogate_block_sweep():
    # 28,800 generators: A's codes are U+0000-U+7080 and B's U+7081-U+E101, so the
    # highest letters of B have codes in and past U+D800-U+DFFF, which a Python str
    # holds and the block pattern reads like any other code point
    n = 14_400
    pairs = [((1, 1), (n,)), ((n,), (n - 1, n))]  # a1^2 = x_n, a_n = x_(n-1) x_n
    ctx, ref = wide_context(n, pairs), wide_context(n, pairs)
    assert ord(ctx._codes[2 * n]) == 4 * n + 1 > 0xDFFF and ord(ctx._codes[-2 * n]) == 2 * n + 1
    edges = [c - 2 * n - 1 for c in (0xD7FF, 0xD800, 0xDFFF, 0xE000)]  # B letters by code
    assert [ord(ctx._codes[lt]) for lt in edges] == [0xD7FF, 0xD800, 0xDFFF, 0xE000]
    high = range(2 * n - 2400, 2 * n + 1)  # B's highest 2,401 letters
    rng = random.Random(11)
    blocks = [
        (n, rng.choice(high), n - 1, 2 * n),
        tuple(rng.choice(high) * rng.choice((1, -1)) for _ in range(80)),
        (1, 1, -n, 2, *edges, -2 * n, n, n - 1, 2 * n, 2 * n - 1),
        tuple(rng.choice(high) for _ in range(70)) + (2 * n - 1, 2 * n, -n, -n),
    ]
    word = Word(ctx.union_alphabet, sum(blocks, ()))
    split = split_by_groupby(ctx, word)
    assert group._split(ctx, word) == split and max(len(b) for _, b in split) >= _RUN_MIN
    for _ in range(2):  # cold, then warm
        trace, ref_trace = [], []
        nf = normal_form(ctx, word, CANONICAL, trace)
        assert nf == normal_form_unmemoised(ref, word, CANONICAL, ref_trace)
        assert trace == ref_trace
    spelled = form_to_word(ctx, nf)
    codes = {ord(ctx._codes[lt]) for lt in spelled.letters}
    assert max(codes) > 0xDFFF and any(0xD800 <= c <= 0xDFFF for c in codes)
    assert normal_form(ctx, spelled) == nf
    assert astuple(reduced_form(ctx, word)) == astuple(reduced_form_by_rescan(ctx, word))


def test_build_context_rejects_more_generators_than_codes(monkeypatch):
    # one code point per union letter: past group.MAX_GENERATORS generators the
    # context is refused before any per-letter work (no fold, no codec)
    assert 2 * group.MAX_GENERATORS + 1 == sys.maxunicode
    monkeypatch.setattr(group, "fold", None)
    monkeypatch.setattr(group, "AmalgamContext", None)
    alphabet_a = Alphabet(tuple(f"a{i}" for i in range(group.MAX_GENERATORS)))
    alphabet_b = Alphabet(("x",))
    pairs = [(Word(alphabet_a, (1,)), Word(alphabet_b, (1,)))]
    with pytest.raises(InvalidPresentationError, match="more than 557055 generators"):
        build_context(alphabet_a, alphabet_b, pairs)


# --- cyclic forms ----------------------------------------------------------------


def test_cyclic_form_examples(ex1):
    cf = cyclic_form(ex1, up(ex1, "d x d^-1"))
    assert cf.cyclic_length == 0
    assert cf.form.head == wa(ex1, "a^2")
    assert cf.conjugator == up(ex1, "d")
    cf2 = cyclic_form(ex1, up(ex1, "d z"))
    assert cf2.cyclic_length == 2 and not cf2.conjugator


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
        cf = cyclic_form(ctx, word, policy)
        if cf.cyclic_length >= 2:
            perms = [(Word(ctx.union_alphabet, w), pi) for w, pi in _cyclic_perms(ctx, cf, policy)]
            want = cyclic_perms_by_definition(ctx, cf.form, policy)
            assert perms == [(cf.conjugator * w, pi) for w, pi in want]


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
        cf = cyclic_form(ctx, word, policy)
        forms = [normal_form(ctx, word, policy), cf.form]
        if cf.cyclic_length >= 2:
            forms += [pi for _, pi in _cyclic_perms(ctx, cf, policy)]
        for nf in forms:
            public = public_form(ctx, nf)
            # compared and hashed before nf has built any Word, and again after
            assert nf == public and public == nf and hash(nf) == hash(public)
            assert nf.head == public.head and nf.syllables == public.syllables
            assert repr(nf) == repr(public)
            assert nf == public and not nf != public and hash(nf) == hash(public)
            assert nf.syllable_length == public.syllable_length
            assert form_sides(nf) == form_sides(public)


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
        only_a = "B" not in form_sides(nf)
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
    assert e is not None and e.subgroup.is_trivial() and e.rep == ()


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
        if form_sides(g) != form_sides(h):
            continue
        pairs_checked += 1
        e = principal_system_solve(ex1, g, h)
        expected = set()
        for c in c_elements:
            cur, side = c, "A"
            ok = True
            for p, p2 in reversed(list(zip(g.syllables, h.syllables))):
                if side != p.side:
                    cur = transfer_word(ex1, side, cur)
                    side = p.side
                cur = p.word * cur * ~p2.word
                if not ex1.graph_c(side).contains(cur.letters):
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
            got = {c for c in c_elements if e.contains(c.letters)}
            assert got == expected


PS_CONTEXTS = {
    "ex1": example_one_context(2),
    "ex2": example_two_context(2),
    "malnormal": malnormal_context(),
    "powers": powers_context(),
    **{f"nielsen{seed}": nielsen_context(seed) for seed in (1, 2, 3)},
}


def draw_form(data, ctx, sides):
    """Normal form of a product of factor words outside C on the given sides."""
    word = identity(ctx.union_alphabet)
    for side in sides:
        alphabet, graph = ctx.factor_alphabet(side), ctx.graph_c(side)
        letters = [lt for j in range(1, len(alphabet) + 1) for lt in (j, -j)]
        block = data.draw(
            st.lists(st.sampled_from(letters), min_size=1, max_size=4)
            .map(lambda b, alphabet=alphabet: Word(alphabet, b))
            .filter(lambda w, graph=graph: not graph.contains(w.letters))
        )
        word = word * ctx.to_union(side, block)
    nf = normal_form(ctx, word)
    assert form_sides(nf) == tuple(sides)  # alternating syllables outside C stay reduced
    return nf


@pytest.mark.parametrize("name", PS_CONTEXTS)
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_one_pass_principal_system_matches_the_two_pass_solver(name, data):
    ctx = PS_CONTEXTS[name]
    k = data.draw(st.integers(1, 4))
    first = data.draw(st.integers(0, 1))
    sides = ["AB"[(first + i) % 2] for i in range(k)]
    g = draw_form(data, ctx, sides)
    h = g if data.draw(st.booleans()) else draw_form(data, ctx, sides)
    got, want = principal_system_solve(ctx, g, h), principal_system_solve_two_pass(ctx, g, h)
    assert (got and got.key()) == (want and want.key())  # (side, subgroup graph, rep)


# (context, word, shifts, coset transfers) of the system of the word's form with itself:
# a shift for each e_i up to the first singleton, or for all k when none is, and a coset
# transfer before each shift but the first
ONE_PASS_COUNTS = [
    ("ex1", "d", 1, 0),
    ("ex1", "z d", 1, 0),
    ("ex1", "d z d", 1, 0),
    ("ex1", "z d^-1 z d", 1, 0),
    ("ex1", "a d z d y z^-1", 1, 0),
    ("powers", "a", 1, 0),  # e_1 = <a^2>, never a singleton
    ("powers", "a x", 2, 1),
    ("powers", "a x a x", 4, 3),
    ("powers", "a y a x", 2, 1),  # e_2 is the first singleton
    ("powers", "a x b x", 3, 2),  # e_3
    ("powers", "a x a y", 4, 3),  # e_4, the last
]


def test_principal_system_is_one_pass(monkeypatch):
    calls = {"shift": 0, "transfer": 0}
    for name in calls:
        def counted(*args, real=getattr(group, name), name=name):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(group, name, counted)
    contexts = {"ex1": example_one_context(2), "powers": powers_context()}
    lengths = set()
    for name, text, shifts, transfers in ONE_PASS_COUNTS:
        ctx = contexts[name]
        g = normal_form(ctx, up(ctx, text))
        ctx.cache.clear()
        calls.update(shift=0, transfer=0)
        assert principal_system_solve(ctx, g, g) is not None
        assert calls == {"shift": shifts, "transfer": transfers}, text
        lengths.add(g.syllable_length)
    assert lengths == {1, 2, 3, 4}


def test_singleton_chains_make_no_walk(monkeypatch):
    # once e_i is a singleton {c}, the later e_j are pushes of c on letter tuples: no
    # shift, coset transfer or meet follows the first shift that returns a singleton
    events = []
    for module, name in ((group, "shift"), (group, "transfer"), (cosetalg, "meet")):
        def logged(*args, real=getattr(module, name), name=name):
            out = real(*args)
            events.append((name, out))
            return out

        monkeypatch.setattr(module, name, logged)
    pushed = []

    @settings(max_examples=60, deadline=None)
    @given(name=st.sampled_from(sorted(PS_CONTEXTS)), data=st.data())
    def check(name, data):
        ctx = PS_CONTEXTS[name]
        k = data.draw(st.integers(1, 4))
        first = data.draw(st.integers(0, 1))
        sides = ["AB"[(first + i) % 2] for i in range(k)]
        g = draw_form(data, ctx, sides)
        h = g if data.draw(st.booleans()) else draw_form(data, ctx, sides)
        ctx.cache.clear()
        events.clear()
        got = principal_system_solve(ctx, g, h)
        shifts = [i for i, (kind, _) in enumerate(events) if kind == "shift"]
        single = next(
            (i for i in shifts if events[i][1] and events[i][1].subgroup.is_trivial()), None
        )
        assert len(shifts) <= k
        if single is not None:
            assert events[single + 1:] == []
            if len(shifts) < k:
                pushed.append(name)
        want = principal_system_solve_two_pass(ctx, g, h)
        assert (got and got.key()) == (want and want.key())

    check()
    assert pushed


def factor_letters(data, ctx, side, generic=False):
    """A reduced word over the side's factor; with `generic`, one with a middle in C's graph."""
    alphabet, graph = ctx.factor_alphabet(side), ctx.graph_c(side)
    letters = [lt for j in range(1, len(alphabet) + 1) for lt in (j, -j)]
    words = st.lists(st.sampled_from(letters), min_size=int(generic), max_size=6)
    words = words.map(lambda b: Word(alphabet, b).letters)
    return data.draw(words.filter(graph.middle) if generic else words)


def c_letters(data, ctx, side):
    """A product of up to three basis loops of the side's C graph, or their inverses."""
    loops = [loop for _, loop in ctx.graph_c(side).basis_loops()]
    c = ()
    for i, inverse in data.draw(
        st.lists(st.tuples(st.integers(0, len(loops) - 1), st.booleans()), max_size=3)
    ):
        c = letters_product(c, letters_inverse(loops[i]) if inverse else loops[i])
    return c


def test_shift_by_reads_matches_the_copy_path(monkeypatch):
    # for s with a middle, (~s d q) meet C is read off the C graph with no meet; it equals
    # the conjugate-copy reference for d drawn from principal-system chains and q in C s C
    # (the same (P, m, Q)) half the time, when the membership test passes and when it fails
    meets, seen = [], set()
    monkeypatch.setattr(cosetalg, "meet", lambda *args: meets.append(args))

    @settings(max_examples=200, deadline=None)
    @given(name=st.sampled_from(sorted(PS_CONTEXTS)), data=st.data(), seed=st.integers(0, 2**32))
    def check(name, data, seed):
        ctx = PS_CONTEXTS[name]
        k, first = data.draw(st.integers(2, 4)), data.draw(st.integers(0, 1))
        nf = draw_form(data, ctx, ["AB"[(first + i) % 2] for i in range(k)])
        with monkeypatch.context() as m:  # the chains' non-generic steps walk the meet
            m.setattr(cosetalg, "meet", stallings.meet)
            chain = coset_chain(random.Random(seed), ctx, nf)
        d = data.draw(st.sampled_from([c_coset(ctx, "A"), c_coset(ctx, "B"), *chain]))
        s = factor_letters(data, ctx, d.side, generic=True)
        same = data.draw(st.booleans())
        if same:
            q = letters_product(c_letters(data, ctx, d.side), s)
            q = letters_product(q, c_letters(data, ctx, d.side))
        else:
            q = factor_letters(data, ctx, d.side)
        ctx.cache.clear()
        meets.clear()
        got = cosetalg.shift(ctx, d, letters_inverse(s), q)
        assert meets == []
        ctx.cache.clear()
        want = shift_by_copy(ctx, d, letters_inverse(s), q)
        ctx.cache.clear()
        assert (got and got.key()) == (want and want.key())
        assert got is None or got.subgroup.is_trivial()
        seen.add((same, got is not None))

    check()
    assert {(True, True), (True, False), (False, False)} <= seen


# --- regularity -------------------------------------------------------------------


def test_middle_on_fixture_words(ex1, ex2):
    # (P, i, Q, j): alpha reads i letters to P, ~beta j letters to Q, and m is left between
    cases = [
        (ex1, "A", "a^2 b", None),  # a member of C
        (ex1, "A", "a", None),  # read to its end
        (ex1, "A", "d", (0, 0, 0, 0)),
        (ex1, "A", "a d a", (1, 1, 1, 1)),
        (ex1, "A", "b d^-1 b a", (0, 1, 1, 1)),
        (ex1, "B", "x z y", (0, 1, 1, 1)),
        (ex2, "A", "b", None),  # i + j = 1: b^-1 reads to the state b comes from
        (ex2, "A", "b^2", (0, 0, 1, 1)),
        (ex2, "A", "b a b", (0, 0, 1, 2)),
    ]
    for ctx, side, text, want in cases:
        assert ctx.graph_c(side).middle(parse_word(text, ctx.factor_alphabet(side)).letters) == want


def principal_system_solve_by_copy(ctx, nf):
    """E_{nf,nf} with every shift through conjugate copies, on a cleared cache."""
    real, group.shift = group.shift, shift_by_copy
    try:
        return principal_system_solve(ctx, nf, nf)
    finally:
        group.shift = real
        ctx.cache.clear()


@pytest.mark.parametrize("name", PS_CONTEXTS)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_generic_rule_matches_the_principal_system(name, data):
    # a syllable with a middle makes ~p C p meet C = 1, so E_{nf,nf} = {1}: the verdict
    # read off the C graph equals the one of the system solved through conjugate copies
    ctx = PS_CONTEXTS[name]
    k, first = data.draw(st.integers(2, 6)), data.draw(st.integers(0, 1))
    nf = draw_form(data, ctx, ["AB"[(first + i) % 2] for i in range(k)])
    ctx.cache.clear()
    solved = principal_system_solve_by_copy(ctx, nf)
    assert group._classify_nf(ctx, nf).is_regular == solved.subgroup.is_trivial()
    if any(ctx.graph_c(side).middle(p) for side, p in nf.syllable_letters):
        assert solved.subgroup.is_trivial()


def test_generic_forms_classify_and_search_without_a_meet(monkeypatch):
    # a form with a syllable that has a middle is regular by two reads a syllable: its
    # classification solves no principal system, and a conjugacy search shifts by reads
    calls = []
    for module, name in ((group, "shift"), (group, "_principal_solution"),
                         (cosetalg, "meet"), (stallings, "meet")):
        def counted(*args, real=getattr(module, name), name=name):
            calls.append(name)
            return real(*args)

        monkeypatch.setattr(module, name, counted)
    ex1, n1, n3 = example_one_context(2), nielsen_context(1), nielsen_context(3)
    for ctx, text in ((ex1, "d z"), (ex1, "z d^-1 z d"), (n1, "a x"), (n3, "a y b x")):
        calls.clear()
        assert classify(ctx, up(ctx, text)).verdict == "regular"
        assert calls == [], text
    for ctx, u, z in ((ex1, "d z", "z"), (ex1, "z d^-1 z d", "a d"), (n1, "a x", "b y")):
        u, z = up(ctx, u), up(ctx, z)
        calls.clear()
        assert conjugacy_search(ctx, u, ~z * u * z).tag == "conjugate"
        assert "meet" not in calls and "_principal_solution" in calls


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
    assert g.contains(u.letters) and u
    rep2 = classify(powers, parse_word("a x a", powers.union_alphabet))
    assert rep2.verdict == "singular" and rep2.witness_kind == "bad-pair"
    (_, side, c), = rep2.witness
    assert powers.graph_c(side).contains(c.letters) and c


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
        if e is not None and not e.subgroup.is_trivial():
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
        "    _assemble_and_verify(ctx, a, a, b, CANONICAL, {})",
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


@pytest.mark.parametrize("name", [*DECIDER_CONTEXTS, "nielsen"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_one_sweep_per_word_decides_as_the_two_call_reference(name, data):
    # a query reads each word's form from its own dict; the reference sweeps every
    # cyclic form and conjugator check afresh through the public cyclic_form
    if name == "nielsen":
        ctx = nielsen_context(data.draw(st.integers(0, 2**32)))
    else:
        ctx = DECIDER_CONTEXTS[name]
    draw = lambda: draw_alternating(data, ctx, (1, 4)) if data.draw(st.booleans()) else data.draw(
        union_words(ctx, 8)
    )
    u = draw()
    kind = data.draw(st.sampled_from(("conjugate", "same", "other")))
    if kind == "conjugate":
        z = data.draw(union_words(ctx, 6))
        v = ~z * u * z
    else:
        v = u if kind == "same" else draw()
    out = conjugacy_search(ctx, u, v)
    assert out == conjugacy_search_two_calls(ctx, u, v)  # tag, conjugator and reason
    if out.tag == "conjugate":
        z = out.conjugator
        assert normal_form_unmemoised(ctx, ~z * u * z) == normal_form_unmemoised(ctx, v)


def alternating_word(rng, ctx, blocks):
    first, word = rng.randint(0, 1), identity(ctx.union_alphabet)
    for i in range(blocks):
        side = "AB"[(first + i) % 2]
        block = random_reduced(rng, ctx.factor_alphabet(side), rng.randint(1, 3))
        word = word * ctx.to_union(side, block)
    return word


def test_one_certifying_push_per_nonempty_principal_solution(monkeypatch):
    # a principal system is solved afresh each time, with no memo: each nonempty E
    # carries the c_k of its one certifying push, so solving from a regular
    # permutation pushes nothing again
    makes = (lambda: example_one_context(2), lambda: example_two_context(2),
             malnormal_context, powers_context)
    rng = random.Random(23)
    runs = []
    for make in makes:
        ctx, ref = make(), make()
        queries = []
        for _ in range(50):
            u = alternating_word(rng, ctx, rng.randint(2, 4))
            z = random_reduced(rng, ctx.union_alphabet, rng.randint(0, 5))
            queries += [(u, ~z * u * z), (u, u), (u, alternating_word(rng, ctx, 2))]
        runs.append((ctx, queries, [conjugacy_search_two_calls(ref, u, v) for u, v in queries]))
    pushes, solved = [], []
    push, solve = group._propagate_solution, group._principal_solution
    monkeypatch.setattr(group, "_propagate_solution", lambda *a: pushes.append(a) or push(*a))
    monkeypatch.setattr(
        group, "_principal_solution", lambda *a: solved.append(solve(*a)) or solved[-1]
    )
    tags = set()
    for ctx, queries, want in runs:
        got = [conjugacy_search(ctx, u, v) for u, v in queries]
        assert got == want
        tags |= {out.tag for out in got}
        assert not [key for key in ctx.cache if key[0] == "ps"]
    assert tags == {"conjugate", "not-conjugate", "undecided"}
    assert all((e is None) == (c_k is None) for e, c_k in solved)
    assert 0 < len(pushes) == len([e for e, _ in solved if e is not None])


def test_conjugacy_search_sweeps_each_word_once(monkeypatch):
    swept = []
    sweep = group.normal_form

    def recorded(ctx, raw, policy=CANONICAL, trace=None):
        swept.append((raw.letters, policy))
        return sweep(ctx, raw, policy, trace)

    monkeypatch.setattr(group, "normal_form", recorded)
    rng = random.Random(22)
    tags = set()
    for name, ctx in DECIDER_CONTEXTS.items():
        policies = (CANONICAL, ADVERSARIAL) if name == "ex1" else (CANONICAL,)
        for _ in range(40):
            g = random_reduced(rng, ctx.union_alphabet, rng.randint(0, 8))
            z = random_reduced(rng, ctx.union_alphabet, rng.randint(0, 5))
            other = random_reduced(rng, ctx.union_alphabet, rng.randint(0, 8))
            for u, v in ((g, ~z * g * z), (g, g), (g, other)):
                for policy in policies:
                    swept.clear()
                    tags.add(conjugacy_search(ctx, u, v, policy).tag)
                    assert swept and len(swept) == len(set(swept)), (name, u, v, policy)
    assert tags == {"conjugate", "not-conjugate", "undecided"}
    # the check of a cyclic form that spells its own input reads the input's form
    ctx = DECIDER_CONTEXTS["ex1"]
    for text in ("d z", "a d z d y", "d", "a^2 b", "d^-1 a^2 b d"):
        word = form_to_word(ctx, cyclic_form(ctx, up(ctx, text)).form)
        swept.clear()
        assert not cyclic_form(ctx, word).conjugator
        assert swept == [(word.letters, CANONICAL)], text


def test_spell_grows_linearly_in_the_syllables(monkeypatch, ex1):
    # consecutive syllables lie in different factors, so only the head and s_1 can
    # cancel: the letters _spell returns, and those its products return, about double
    # when the syllable count doubles; a product per syllable made them quadruple
    forms = [normal_form(ex1, up(ex1, " ".join(("d", "z", "d^-1", "z^-1") * (k // 4))))
             for k in (2**10, 2**11, 2**12)]
    product, made = group.letters_product, []

    def counted(a, b):
        made.append(len(out := product(a, b)))
        return out
    monkeypatch.setattr(group, "letters_product", counted)
    counts = []
    for nf in forms:
        made.clear()
        spelled = group._spell(ex1, nf.head_side, nf.head_letters, nf.syllable_letters)
        counts.append(len(spelled) + sum(made))
    assert [nf.syllable_length for nf in forms] == [2**10, 2**11, 2**12]
    assert all(b <= 2.3 * a for a, b in zip(counts, counts[1:])), counts


def generic_word(rng, ctx, n):
    """n letters alternating d^±1 and z^±1 over paper-ex1: each letter is a syllable."""
    return up(ctx, " ".join("dz"[i % 2] + rng.choice(("", "^-1")) for i in range(n)))


def test_cyclic_form_peels_in_linear_letters(monkeypatch, ex1):
    # X d y ~X peels |X| syllable pairs; the conjugator is built once from the peeled
    # syllables, so the letters products return about double when |X| doubles, where
    # multiplying into a growing conjugator made them quadruple
    rng, words = random.Random(5), []
    for n in (2**10, 2**11, 2**12):
        x = generic_word(rng, ex1, n)
        words.append(x * up(ex1, "d y") * ~x)
    product, made = group.letters_product, []

    def counted(a, b):
        made.append(len(out := product(a, b)))
        return out
    monkeypatch.setattr(group, "letters_product", counted)
    counts = []
    for w in words:
        made.clear()
        assert cyclic_form(ex1, w).form.syllable_length == 2
        counts.append(sum(made))
    assert all(b <= 2.3 * a for a, b in zip(counts, counts[1:])), counts


def test_conjugacy_search_on_a_long_word_keeps_no_rotation():
    # the cyclic permutations are streamed and no principal system is memoised, so
    # a 2^11-letter search holds O(k) syllables, not k rotations of k syllables each
    ctx, rng = example_one_context(2), random.Random(11)
    u, other = generic_word(rng, ctx, 2**11), generic_word(rng, ctx, 2**11)
    half = Word(ctx.union_alphabet, u.letters[2**10:] + u.letters[:2**10])
    calls = [(lambda: conjugacy_search(ctx, u, half).tag, "conjugate"),
             (lambda: conjugacy_search(ctx, u, other).tag, "not-conjugate"),
             (lambda: cr_membership(ctx, u)[0], "cr>1")]
    peaks = []
    tracemalloc.start()
    try:
        for call, want in calls:
            tracemalloc.reset_peak()
            assert call() == want
            peaks.append(tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()
    assert max(peaks) < 4 * 2**20, peaks


def test_form_to_word_reduces_a_hand_built_form(ex1):
    # _spell concatenates past s_1, which is exact only for alternating syllables;
    # form_to_word is public, so a hand-built form with two A syllables still reduces
    sylls = [Syllable("A", wa(ex1, "d a")), Syllable("A", wa(ex1, "a^-1 d"))]
    nf = NormalForm("A", wa(ex1, ""), sylls)
    assert form_to_word(ex1, nf) == up(ex1, "d^2")


def test_query_checks_still_compare_the_swept_forms(monkeypatch, ex1):
    # the cyclic-form and conjugator checks read forms from the query's dict, and
    # still fail on a wrong spelling or a wrong conjugator
    u, v = up(ex1, "a d a^-1"), up(ex1, "b^-1 d b")
    assert conjugacy_search(ex1, u, v).tag == "conjugate"
    with monkeypatch.context() as patch:
        patch.setattr(group, "letters_conjugator", lambda a, b: (2,))
        with pytest.raises(VerificationError, match="conjugator failed verification"):
            conjugacy_search(ex1, u, v)
    spell = group._spell
    monkeypatch.setattr(group, "_spell", lambda *args: letters_product(spell(*args), (1,)))
    for query in (lambda: conjugacy_search(ex1, u, v), lambda: cyclic_form(ex1, u)):
        with pytest.raises(VerificationError, match="lost the conjugacy class"):
            query()


def test_query_forms_are_keyed_by_union_letters_only(ex1):
    # a word over an equal alphabet decides as the same word; over another alphabet with
    # the same letters, it is still rejected, though its letters were swept before
    u = up(ex1, "d z a")
    equal = Word(Alphabet(ex1.union_alphabet.names), u.letters)
    assert conjugacy_search(ex1, u, equal) == conjugacy_search(ex1, u, u)
    renamed = Word(Alphabet(tuple(n.upper() for n in ex1.union_alphabet.names)), u.letters)
    with pytest.raises(ValueError, match="union alphabet"):
        conjugacy_search(ex1, u, renamed)


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
    z = brute_conjugacy_oracle(ex1, u, u, 4)
    assert z is not None and not z
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


def coset_chain(rng, ctx, nf):
    """The cosets of nf's principal-system chain, with random accepts now and then."""
    d, chain = c_coset(ctx, nf.syllables[-1].side), []
    for s in reversed(nf.syllables):
        if d.side != s.side:
            chain.append(d)
            d = cosetalg.transfer(ctx, d)
        q = ~s.word
        if rng.random() < 0.3:
            q = q * random_reduced(rng, q.alphabet, rng.randint(1, 3))
        d = cosetalg.shift(ctx, d, s.word.letters, q.letters)
        if d is None:
            break
        chain.append(d)
    return chain


# index-2 normal subgroups on both sides: the meets and principal-system solutions
# have rank 3, so a witness is one loop of several
BASIS_CONTEXTS = {
    **PS_CONTEXTS,
    "normal": pairing_context(("a", "x"), ("b^2", "y^2"), ("b a b^-1", "y x y^-1")),
}


def test_basis_readers_match_the_basis_word_reference():
    # the cyclic-length-0 branch of conjugacy_search, the bad-pair, normalizer and
    # Z-set witnesses of classify and the coset transfer read the free basis off
    # the graph; the reference spells it as cached Words first, as the library did
    seen = {key: 0 for key in ("bad-pair", "normalizer", "z-set", "conjugate", "not-conjugate")}
    seen["transfer"] = 0

    @settings(max_examples=100, deadline=None)
    @given(name=st.sampled_from(sorted(BASIS_CONTEXTS)), seed=st.integers(0, 2**32))
    def check(name, seed):
        ctx = BASIS_CONTEXTS[name]
        ctx.cache.clear()
        rng = random.Random(seed)
        for i in range(12):  # short words times a C-element often meet a root of C
            w = c_heavy_word(rng, ctx) if i % 2 else random_reduced(
                rng, ctx.union_alphabet, rng.randint(1, 4)
            ) * rng.choice(c_element(rng, ctx))
            report = classify(ctx, w)
            got = (report.verdict, report.witness_kind, report.witness)
            assert got == classify_through_basis(ctx, w)
            seen[report.witness_kind] = seen.get(report.witness_kind, 0) + 1
            nf = normal_form(ctx, w)
            if nf.syllable_length >= 2:
                for d in coset_chain(rng, ctx, nf):
                    assert cosetalg.transfer(ctx, d).key() == transfer_key_through_basis(ctx, d)
                    seen["transfer"] += 1
        for _ in range(12):
            c = rng.choice(c_element(rng, ctx))
            g, h = (random_reduced(rng, ctx.union_alphabet, rng.randint(0, 4)) for _ in "gh")
            kind = rng.random()
            if kind < 0.4:  # conjugate inside C
                c2 = rng.choice(c_element(rng, ctx))
                c2 = ~c2 * c * c2
            elif kind < 0.7:  # conjugate in G by a factor element
                c2 = ~g * c * g
            else:
                c2 = rng.choice(c_element(rng, ctx))
            u, v = ~g * c * g, ~h * c2 * h
            ref = cr0_outcome_through_basis(ctx, u, v)
            if ref is not None:
                out = conjugacy_search(ctx, u, v)
                assert (out.tag, out.conjugator) == ref
                seen[ref[0]] += 1

    check()
    assert all(seen.values()), seen


def test_cr0_keeps_the_basis_coordinates_conjugator(ex2):
    # u and v conjugate into C = <a, b^-1 a b>, and both b^-1 a b and a b^-1 a^2 b
    # conjugate u to v.  The cyclic-length-0 branch runs letters_conjugator over C's own
    # basis and returns b^-1 a b; the least rotation of the cyclic core whose start
    # state matches, read on C's graph, would return a b^-1 a^2 b.  Both decide
    # alike, but they pick different conjugators, so the branch keeps coordinates.
    u, v = up(ex2, "a b^-1 a b"), up(ex2, "b^-1 a^-1 b a b^-1 a^2 b")
    out = conjugacy_search(ex2, u, v)
    assert out == ConjugacyOutcome("conjugate", up(ex2, "b^-1 a b"))
    for z in (out.conjugator, up(ex2, "a b^-1 a^2 b")):
        assert ~z * u * z == v
    assert cr0_outcome_through_basis(ex2, u, v) == (out.tag, out.conjugator)

import random

import pytest

from amalgam import group
from amalgam.cosetalg import CosetOfC, c_coset, shift, transfer
from amalgam.fixtures import example_one_context, example_two_context, malnormal_context
from amalgam.group import classify, conjugacy_search, normal_form, principal_system_solve
from amalgam.stallings import build, meet
from amalgam.words import Word, parse_word

from bruteforce import reduced_words, shift_by_copy, subgroup_elements, transfer_key_through_basis
from conftest import random_member, random_reduced


def wa(ctx, text):
    return parse_word(text, ctx.alphabet_a)


def wb(ctx, text):
    return parse_word(text, ctx.alphabet_b)


def members(d, max_len):
    """All elements of the coset of reduced length <= max_len."""
    alphabet = d.subgroup.alphabet
    return {u for u in reduced_words(alphabet, max_len) if d.contains(u.letters)}


def test_shift_examples(ex1):
    d = c_coset(ex1, "A")
    res = shift(ex1, d, wa(ex1, "a").letters, wa(ex1, "a^-1").letters)
    assert res is not None
    assert res.contains(wa(ex1, "a^2").letters)
    assert not res.contains(wa(ex1, "b").letters)
    unchanged = shift(ex1, d, (), ())
    assert unchanged is not None
    for u in reduced_words(ex1.alphabet_a, 4):
        assert unchanged.contains(u.letters) == d.contains(u.letters)


def test_shift_empty_result(ex1):
    sub_b = CosetOfC("A", build([wa(ex1, "b")], ex1.alphabet_a), ())
    # d <b> d^-1 meets C only in the identity
    res = shift(ex1, sub_b, wa(ex1, "d").letters, wa(ex1, "d^-1").letters)
    assert res.subgroup.is_trivial() and res.rep == ()
    # d <b> misses C entirely
    assert shift(ex1, sub_b, wa(ex1, "d").letters, ()) is None


def test_shift_matches_set_arithmetic(ex1):
    rng = random.Random(1)
    d = c_coset(ex1, "A")
    for _ in range(12):
        p = random_member(rng, [wa(ex1, "a"), wa(ex1, "b"), wa(ex1, "d")], rng.randint(0, 2))
        q = random_member(rng, [wa(ex1, "a"), wa(ex1, "b"), wa(ex1, "d")], rng.randint(0, 2))
        res = shift(ex1, d, p.letters, q.letters)
        c_graph = ex1.graph_ca
        brute = {
            p * k * q
            for k in subgroup_elements(c_graph, 5)
            if c_graph.contains((p * k * q).letters)
        }
        if res is None:
            assert not brute
        else:
            for u in brute:
                assert res.contains(u.letters)
            for u in members(res, 4):
                assert c_graph.contains(u.letters)
                assert c_graph.contains((~p * u * ~q).letters)


def test_intersect_examples(ex1):
    # Kc meet Lc' is one meet walk from the basepoints with the accept words c and c'
    X = ex1.alphabet_a
    K, L = build([wa(ex1, "a^2"), wa(ex1, "b")], X), build([wa(ex1, "a^2")], X)
    b = wa(ex1, "b").letters
    d1, d2 = CosetOfC("A", K, b), CosetOfC("A", L, b)
    M, h = meet(K, L, accepts=(d1.rep, d2.rep))
    res = CosetOfC("A", M, h)
    for u in (u.letters for u in reduced_words(X, 5)):
        assert res.contains(u) == (d1.contains(u) and d2.contains(u))
    M, h = meet(K, K, accepts=(d1.rep, d1.rep))
    same = CosetOfC("A", M, h)
    for u in (u.letters for u in reduced_words(X, 4)):
        assert same.contains(u) == d1.contains(u)
    tiny, h = meet(L, build([wa(ex1, "b")], X))
    assert tiny.is_trivial() and h == ()


def test_intersect_side_mismatch(ex1):
    # the two sides' C graphs are over different alphabets, and meet refuses them
    with pytest.raises(ValueError, match="mixed alphabets"):
        meet(c_coset(ex1, "A").subgroup, c_coset(ex1, "B").subgroup)


def test_cardinality_examples(ex1):
    # a coset K*c is the single element c exactly when K's graph is trivial; an
    # empty meet of cosets is None
    X = ex1.alphabet_a
    trivial = CosetOfC("A", build([], X), wa(ex1, "a^2 b").letters)
    assert trivial.subgroup.is_trivial() and trivial.rep == wa(ex1, "a^2 b").letters
    squares = build([wa(ex1, "a^2")], X)
    assert not squares.is_trivial()
    assert meet(squares, squares, accepts=(wa(ex1, "b").letters, wa(ex1, "d").letters)) is None


def test_cardinality_matches_enumeration(ex1):
    X = ex1.alphabet_a
    cosets = [
        CosetOfC("A", build([], X), wa(ex1, "b^2").letters),
        CosetOfC("A", build([wa(ex1, "a^2")], X), wa(ex1, "b").letters),
        c_coset(ex1, "A"),
    ]
    for d in cosets:
        rep = Word(X, d.rep)
        found = {k * rep for k in subgroup_elements(d.subgroup, 8)}
        if d.subgroup.is_trivial():
            assert found == {rep}
        else:
            assert len(found) > 1


def test_transfer_examples(ex1):
    X, Y = ex1.alphabet_a, ex1.alphabet_b
    d = CosetOfC("A", build([wa(ex1, "b")], X), ())
    out = transfer(ex1, d)
    assert out.side == "B"
    assert out.contains(wb(ex1, "y^2").letters)
    assert not out.contains(wb(ex1, "x").letters)
    whole = transfer(ex1, c_coset(ex1, "A"))
    for u in reduced_words(Y, 4):
        assert whole.contains(u.letters) == ex1.graph_cb.contains(u.letters)
    d2 = CosetOfC("A", build([wa(ex1, "a^2")], X), wa(ex1, "b").letters)
    out2 = transfer(ex1, d2)
    assert out2.contains(wb(ex1, "y^2").letters)
    assert out2.contains(wb(ex1, "x y^2").letters)


def test_transfer_round_trip(ex1):
    X = ex1.alphabet_a
    d = CosetOfC("A", build([wa(ex1, "a^2")], X), wa(ex1, "b^2").letters)
    back = transfer(ex1, transfer(ex1, d))
    assert back.side == "A"
    for u in (u.letters for u in reduced_words(X, 5)):
        assert back.contains(u) == d.contains(u)


def test_transfer_preserves_cardinality_and_commutes(ex1):
    X = ex1.alphabet_a
    pairs = [
        (CosetOfC("A", build([wa(ex1, "a^2")], X), ()),
         CosetOfC("A", build([wa(ex1, "a^2"), wa(ex1, "b")], X), wa(ex1, "b").letters)),
        (CosetOfC("A", build([], X), wa(ex1, "b").letters),
         CosetOfC("A", build([wa(ex1, "b")], X), ())),
    ]
    for d1, d2 in pairs:
        assert transfer(ex1, d1).subgroup.is_trivial() == d1.subgroup.is_trivial()
        hits = [
            meet(a.subgroup, b.subgroup, accepts=(a.rep, b.rep))
            for a, b in ((d1, d2), (transfer(ex1, d1), transfer(ex1, d2)))
        ]
        if None in hits:
            assert hits == [None, None]
            continue
        (m1, h1), (m2, h2) = hits
        lhs = transfer(ex1, CosetOfC("A", m1, h1))
        rhs = CosetOfC("B", m2, h2)
        for u in (u.letters for u in reduced_words(ex1.alphabet_b, 5)):
            assert lhs.contains(u) == rhs.contains(u)


def test_shift_chain_values_stay_cosets(ex1):
    # closure shape: every nonempty shift value is a coset K*c
    rng = random.Random(9)
    gens = [wa(ex1, "a"), wa(ex1, "b"), wa(ex1, "d")]
    d = c_coset(ex1, "A")
    for _ in range(6):
        p = random_member(rng, gens, 1)
        q = random_member(rng, gens, 1)
        nxt = shift(ex1, d, p.letters, q.letters)
        if nxt is None:
            break
        sub_elems = subgroup_elements(nxt.subgroup, 4)
        for k in sub_elems:
            assert nxt.contains((k * Word(k.alphabet, nxt.rep)).letters)
        d = nxt


def test_transfer_is_memoised_and_round_trips():
    ctx = example_one_context(2)
    fresh = example_one_context(2)
    rng = random.Random(3)
    chain = []
    while len(chain) < 24:
        nf = normal_form(ctx, random_reduced(rng, ctx.union_alphabet, rng.randint(3, 8)))
        if nf.syllable_length < 2:
            continue
        # the principal-system chain of the form against itself never empties
        d = c_coset(ctx, nf.syllables[-1].side)
        for s in reversed(nf.syllables):
            if d.side != s.side:
                d = transfer(ctx, d)
            d = shift(ctx, d, s.word.letters, (~s.word).letters)
            chain.append(d)
    for d in chain:
        moved = transfer(ctx, d)
        assert transfer(ctx, d) is moved
        assert ctx.cache[("transfer", d.key())] is moved
        assert moved.key() == transfer_key_through_basis(ctx, d)
        basis = [Word(d.subgroup.alphabet, loop) for _, loop in d.subgroup.basis_loops()]
        twin = CosetOfC(d.side, build(basis, d.subgroup.alphabet), d.rep)
        assert transfer(ctx, twin) is moved
        fresh.cache.clear()
        assert transfer(fresh, d).key() == moved.key()
        assert transfer(ctx, moved).key() == d.key()


def _fill_cache(ctx):
    """Principal systems, classifications and conjugacy searches; returns ctx.cache."""
    rng = random.Random(17)
    letters = ctx.union_alphabet
    for _ in range(40):
        classify(ctx, random_reduced(rng, letters, rng.randint(1, 3)))
        u = random_reduced(rng, letters, rng.randint(2, 9))
        z = random_reduced(rng, letters, rng.randint(0, 4))
        v = ~z * u * z if rng.random() < 0.5 else random_reduced(rng, letters, len(u))
        conjugacy_search(ctx, u, v)
        g, h = normal_form(ctx, u), normal_form(ctx, v)
        if g.syllable_length >= 1:
            principal_system_solve(ctx, g, g)
            if h.syllable_length == g.syllable_length:
                principal_system_solve(ctx, g, h)
    return ctx.cache


def _coset_key(value):
    return value if value is None else value.key()


def _rows(memo):
    """A step memo with each row but its link to the next state, and its stored syllables.

    A state keeps its carry under None.  A row's carry is the key of its next state and
    its syllable the memo's one copy, and the memo holds nothing else: no join.
    """
    for key, value in memo.items():
        if isinstance(value, tuple):  # a stored syllable, its own value
            assert value is key and len(key) == 2
            continue
        assert value[None] is key
        for syll, carry, nxt, *_ in (row for block, row in value.items() if block):
            assert syll is None or memo[syll] is syll
            assert nxt is None or nxt[None] is carry
    return {
        key: value if isinstance(value, tuple) else {
            b: row[:2] + row[3:] for b, row in value.items() if b
        }
        for key, value in memo.items()
    }


@pytest.mark.parametrize(
    "make", [lambda: example_one_context(2), lambda: example_two_context(2), malnormal_context],
    ids=["ex1", "ex2", "malnormal"],
)
def test_shift_walk_leaves_the_cache_of_the_copy_path(make, monkeypatch):
    # every kind but the copy path's conjugates holds the same keys and values
    walked = _fill_cache(make())
    monkeypatch.setattr(group, "shift", shift_by_copy)
    copied = _fill_cache(make())
    assert any(key[0] == "conj" for key in copied)
    assert walked.keys() == {key for key in copied if key[0] != "conj"}
    assert any(key[0] == "shift" for key in walked)
    for key, value in walked.items():
        other = copied[key]
        if key[0] in ("shift", "transfer"):
            assert _coset_key(value) == _coset_key(other), key
        elif key[0] == "step":  # a state's rows link to states: compare them without the link
            assert _rows(value) == _rows(other), key
        else:
            assert value == other, key

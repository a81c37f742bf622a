import random
from collections import Counter
from itertools import combinations, groupby
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from amalgam.cli import diameter
from amalgam.fixtures import example_one_context, example_two_context, malnormal_context
from amalgam import stallings
from amalgam.stallings import (
    NotAMemberError,
    SubgroupGraph,
    _trim,
    basis_coordinates,
    build,
    fold,
    meet,
)
from amalgam.words import (
    Alphabet,
    VerificationError,
    Word,
    free_conjugacy,
    identity,
    letters_conjugator,
    letters_cyclic_reduce,
    letters_inverse,
    letters_product,
    letters_substitute,
    parse_word,
    substitute,
)

from bruteforce import (
    basis_edge_words,
    basis_images_by_generators,
    basis_words,
    build_by_rose_folding,
    check_folded,
    conjugate_by_copy,
    coset_intersection_by_copy,
    conjugacy_into_by_rotation_scan,
    double_transversal_by_count,
    double_transversal_with_pruning,
    express_in_basis,
    express_in_generators,
    free_conjugacy_by_least_rotation,
    generated_elements,
    product_components_by_count,
    product_edges,
    reduced_words,
    renumber_by_alphabet_scan,
    subgroup_elements,
    walk_letter_by_letter,
)
from conftest import nielsen_pairs, random_member, random_reduced

F = Alphabet(("a", "b", "d"))


def w(text):
    return parse_word(text, F)


def C():
    return build([w("a^2"), w("b")])


def test_build_examples():
    g = C()
    assert g.nstates == 2
    assert g.nedges == 3
    assert build([w("a")]).nstates == 1
    assert build([w("a"), w("a^-1")]).nstates == 1
    assert build([w("a"), w("a^-1")]).nedges == 1


def test_build_drops_trivial_generators():
    g = build([w(""), w("a")])
    assert {abs(t) for word in g.edge_words.values() for t in word} == {1}
    trivial = build([], F)
    assert trivial.nstates == 1 and trivial.nedges == 0


def test_graphs_are_folded_cores():
    for gens in ([w("a^2"), w("b")], [w("a b a^-1")], [w("a b"), w("b d")],
                 [w("a b a b^-1"), w("d^2"), w("a^3")]):
        check_folded(build(gens))


def test_contains_examples():
    g = C()
    assert g.contains(w("a^2 b").letters)
    assert not g.contains(w("a").letters)
    assert g.contains(w("").letters)


def test_contains_matches_generated_products():
    rng = random.Random(5)
    for gens in ([w("a^2"), w("b")], [w("a b"), w("d")]):
        g = build(gens)
        elems = generated_elements(gens, 3)
        for e in elems:
            assert g.contains(e.letters)
        for cand in reduced_words(F, 3):
            if cand in elems:
                assert g.contains(cand.letters)


def test_coset_rep_examples():
    g = C()
    for text, rep, head in (("b^3", "", "b^3"), ("d a^4", "d a^4", ""), ("b^2 d", "d", "b^2")):
        assert g.coset_rep(w(text).letters) == (w(rep).letters, w(head).letters)


def test_coset_rep_at_the_base_multiplies_nothing():
    # a^2 d reads a^2 back to the base and stops at d: the split needs no tree
    # path and no product
    g = C()
    with patch.object(stallings, "letters_product", side_effect=AssertionError):
        assert g.coset_rep(w("a^2 d").letters) == (w("d").letters, w("a^2").letters)
        assert g.coset_rep(w("d a").letters) == (w("d a").letters, ())
    assert g._paths.keys() == {g.base}


def test_coset_rep_at_the_deepest_states_of_a_long_circle():
    # <a^n> is a circle of n states whose tree is n/2 levels deep; a split walks up the
    # tree in a loop, not one call per level, and caches the split state's path alone
    n = 2**14
    g = build([w(f"a^{n}")])
    deepest = (1,) * (n // 2) + (2,)  # a^(n/2) b stops at the deepest state, n - 1
    assert g.coset_rep(deepest) == (deepest, ())
    assert g._paths.keys() == {g.base, n - 1}
    assert sum(len(path) + len(inverse) for path, inverse in g._paths.values()) <= 2 * (n // 2)
    n = 2**12  # smaller, so that every state's path can be checked
    g = build([w(f"a^{n}")])
    assert g.coset_rep((-1,) * 10 + (2,)) == ((-1,) * 10 + (2,), ())
    # a^(n/2 + 1) b stops one level above the deepest state, on the a^-1 side, after
    # a split on that side that cached a^-10 alone
    rep, head = g.coset_rep((1,) * (n // 2 + 1) + (2,))
    assert rep == (-1,) * (n // 2 - 1) + (2,) and head == (1,) * n
    paths = [g.tree_path_letters(s) for s in range(n)]
    assert paths == [(1 if s % 2 else -1,) * ((s + 1) // 2) for s in range(n)]
    assert all(inverse == letters_inverse(path) for path, inverse in g._paths.values())


def test_coset_rep_contract():
    rng = random.Random(11)
    gens = [w("a^2"), w("b")]
    g = build(gens)
    diam = diameter(g)
    for _ in range(300):
        word = random_reduced(rng, F, rng.randint(0, 9))
        rep, head = g.coset_rep(word.letters)
        assert letters_product(head, rep) == word.letters
        assert g.contains(head)
        assert len(rep) <= len(word)
        assert len(head) <= len(word) + 2 * diam
        c = random_member(rng, gens, rng.randint(0, 3))
        rep2, _ = g.coset_rep((c * word).letters)
        assert rep2 == rep


def test_coset_rep_minimality():
    g = C()
    members = subgroup_elements(g, 6)
    for text in ("d a", "b a", "a b d", "a^3"):
        word = w(text)
        rep, _ = g.coset_rep(word.letters)
        shortest = min(len(h * word) for h in members)
        assert len(rep) == shortest


def loops(g):
    return [Word(g.alphabet, loop) for _, loop in g.basis_loops()]


def test_basis_examples():
    g = C()
    assert set(loops(g)) == {w("a^2"), w("b")}
    assert loops(build([w("a")])) == [w("a")]
    assert loops(build([w("a"), w("a^-1")])) == [w("a")]
    sub = build([w("a b a b^-1"), w("d^2")])
    assert len(sub.basis_loops()) == sub.rank
    for graph in (g, sub, build([], F), build([w("a b"), w("b a"), w("d b d^-1")])):
        # the loops are the reference's basis words, reduced and in the same order
        basis, alphabet, words = basis_words(graph)
        assert [loop for _, loop in graph.basis_loops()] == [b.letters for b in basis]
        assert basis_coordinates(graph) == (alphabet, words, tuple(b.letters for b in basis))


def test_express_roundtrips():
    rng = random.Random(23)
    for gens in ([w("a^2"), w("b")], [w("a b"), w("b")], [w("a b a^-1"), w("d")]):
        g = build(gens)
        for _ in range(170):
            member = random_member(rng, gens, rng.randint(0, 5))
            expr_t = express_in_generators(g, member, len(gens))
            assert substitute(expr_t, gens, F) == member
            alphabet, words, basis = basis_coordinates(g)
            expr_b = Word(alphabet, g.loop_word(member.letters, words))
            assert expr_b == express_in_basis(g, member)
            assert substitute(expr_b, [Word(F, b) for b in basis], F) == member
            assert letters_substitute(expr_b.letters, basis) == member.letters


def test_express_roundtrip_stress():
    # random generating tuples exercise deep folding histories
    rng = random.Random(99)
    for trial in range(40):
        gens = []
        for _ in range(rng.randint(1, 4)):
            gens.append(random_reduced(rng, F, rng.randint(1, 6)))
        g = build(gens)
        check_folded(g)
        for _ in range(25):
            member = random_member(rng, gens, rng.randint(0, 6))
            assert substitute(express_in_generators(g, member, len(gens)), gens, F) == member
            alphabet, words, basis = basis_coordinates(g)
            expr_b = Word(alphabet, g.loop_word(member.letters, words))
            assert expr_b == express_in_basis(g, member)
            assert substitute(expr_b, [Word(F, b) for b in basis], F) == member


def test_express_requires_membership():
    g = C()
    with pytest.raises(NotAMemberError):
        express_in_generators(g, w("a"), 2)
    _, words, _ = basis_coordinates(g)
    for text in ("d", "a"):  # "a" traces, but ends off the basepoint
        with pytest.raises(NotAMemberError) as err:
            g.loop_word(w(text).letters, words)
        with pytest.raises(NotAMemberError) as ref:
            express_in_basis(g, w(text))
        assert str(err.value) == str(ref.value) == f"{w(text)!r} is not in the subgroup"


def test_express_in_generators_spec_values():
    g = C()
    assert express_in_generators(g, w(""), 2) == Word(Alphabet(("t1", "t2")), ())
    expr = express_in_generators(g, w("a^2 b a^2"), 2)
    assert substitute(expr, [w("a^2"), w("b")], F) == w("a^2 b a^2")
    gens2 = [w("a b"), w("b")]
    expr2 = express_in_generators(build(gens2), w("a"), 2)
    assert substitute(expr2, gens2, F) == w("a")


def test_pullback_examples():
    # the (base, base) component of the product graph is the meet of the subgroups
    p, h = meet(C(), build([w("a^3")]))
    assert h == ()
    assert p.contains(w("a^6").letters)
    assert not p.contains(w("a^2").letters)
    assert not p.contains(w("a^3").letters)
    g = C()
    same, _ = meet(g, g)
    for cand in reduced_words(F, 5):
        assert same.contains(cand.letters) == g.contains(cand.letters)
    assert meet(build([w("a")]), build([w("b")]))[0].is_trivial()


def test_pullback_random_agreement():
    rng = random.Random(2)
    g1 = build([w("a^2"), w("b d")])
    g2 = build([w("a^2"), w("d")])
    p, _ = meet(g1, g2)
    for word in reduced_words(F, 6):
        assert p.contains(word.letters) == (g1.contains(word.letters) and g2.contains(word.letters))
    for _ in range(400):
        word = random_reduced(rng, F, rng.randint(7, 8))
        assert p.contains(word.letters) == (g1.contains(word.letters) and g2.contains(word.letters))


def test_conjugate_graph_examples():
    g = build([w("b")])
    conj = conjugate_by_copy(g, w("a"))
    assert conj.contains(w("a^-1 b a").letters)
    assert not conj.contains(w("b").letters)
    g2 = C()
    conj2 = conjugate_by_copy(g2, w("a^2 b"))  # z inside the subgroup
    for word in reduced_words(F, 5):
        assert conj2.contains(word.letters) == g2.contains(word.letters)
    both, _ = meet(conjugate_by_copy(g2, w("a")), g2)
    assert both.contains(w("a^2").letters)
    assert not both.contains(w("a^-1 b a").letters)


letters = st.integers(min_value=-3, max_value=3).filter(bool)
generating_lists = st.lists(st.lists(letters, min_size=1, max_size=6), max_size=4)


@settings(max_examples=200, deadline=None)
@given(generating_lists, generating_lists, st.lists(letters, max_size=8))
def test_graph_operations_equal_their_folded_definitions(gens1, gens2, z_letters):
    # conjugate_by_copy and meet build their graphs without folding; the Stallings
    # graph of a subgroup is unique, so folding a generating set must agree
    g1 = build([Word(F, ls) for ls in gens1], F)
    g2 = build([Word(F, ls) for ls in gens2], F)
    z = Word(F, z_letters)
    conj = conjugate_by_copy(g1, z)
    check_folded(conj)
    folded = build([~z * Word(F, ls) * z for ls in gens1], F)
    assert conj.canonical_key() == folded.canonical_key()
    both, _ = meet(g1, g2)
    check_folded(both)
    assert all(g1.contains(b.letters) and g2.contains(b.letters) for b in loops(both))
    assert both.canonical_key() == build(loops(both), F).canonical_key()


def assert_same_fold(gens, alphabet):
    """build and the older rose fold give one graph, tree and t-word on every edge."""
    got, ref = build(gens, alphabet), build_by_rose_folding(gens, alphabet)
    check_folded(got)
    check_folded(ref)
    assert got.canonical_key() == ref.canonical_key()
    assert got.tree == ref.tree

    def edge_words(g):
        return {(s, lab, d): g.edge_words.get(eid, ()) for s, lab, d, eid in g.edges()}

    assert edge_words(got) == edge_words(ref)
    # the letter-tuple kernel under build folds the same way
    folded = fold([g.letters for g in gens], alphabet)
    assert (folded.moves, folded.tree, folded.edge_words) == (got.moves, got.tree, got.edge_words)


@st.composite
def dependent_generating_sets(draw):
    """Generators over 2-3 letters, some of them repeats, powers or products of earlier ones."""
    alphabet = Alphabet(("a", "b", "d")[: draw(st.integers(2, 3))])
    letter = st.sampled_from([x for i in range(1, len(alphabet) + 1) for x in (i, -i)])
    gens = []
    for _ in range(draw(st.integers(0, 5))):
        kind = draw(st.sampled_from(("word", "repeat", "power", "product"))) if gens else "word"
        if kind == "word":
            gens.append(Word(alphabet, draw(st.lists(letter, max_size=8))))
        elif kind == "repeat":
            gens.append(draw(st.sampled_from(gens)))
        elif kind == "power":
            gens.append(draw(st.sampled_from(gens)) ** draw(st.integers(2, 4)))
        else:
            g, h = draw(st.sampled_from(gens)), draw(st.sampled_from(gens))
            gens.append(g * (h if draw(st.booleans()) else ~h))
    return gens, alphabet


@settings(max_examples=400, deadline=None)
@given(dependent_generating_sets())
@example(([Word(F, (1,)), Word(F, (1, 1, 1))], F))
@example(([Word(F, (1, 2)), Word(F, (1, 2)), Word(F, (1, 2, 1, 2))], F))
def test_fold_matches_the_rose_folding(case):
    # the fold on flat edge lists makes the older fold's folds in its order, so
    # the t-words it leaves on the edges are the same too
    assert_same_fold(*case)


def test_fold_matches_the_rose_folding_on_fixtures_and_nielsen_pairs():
    alphabet_a, alphabet_b = Alphabet(("a", "b", "c")), Alphabet(("x", "y", "z"))
    cases = [([], F)]
    for ctx in (example_one_context(2), example_one_context(3), example_two_context(2),
                malnormal_context()):
        cases += [([u for u, _ in ctx.pairs], ctx.alphabet_a), ([v for _, v in ctx.pairs], ctx.alphabet_b)]
    for seed in range(40):
        pairs = nielsen_pairs(random.Random(seed), alphabet_a, alphabet_b)
        cases += [([u for u, _ in pairs], alphabet_a), ([v for _, v in pairs], alphabet_b)]
    for gens, alphabet in cases:
        assert_same_fold(gens, alphabet)


class RecordedGraph(SubgroupGraph):
    """A subgroup graph that keeps the edge map and the base it was made from."""

    def __init__(self, alphabet, edges, base, edge_words=None):
        super().__init__(alphabet, edges, base, edge_words)
        self.made_from = (dict(edges), base)


def assert_renumbered_as_by_alphabet_scan(g, rng):
    """g's tree and moves are the alphabet scan's on its own edge map and on a renamed one."""
    edges, base = g.made_from
    assert (g.tree, g.moves) == renumber_by_alphabet_scan(g.alphabet, edges, base)
    # the numbering follows the graph alone: other names for the states, and a
    # hanging path at the base for the trim to drop, give the same tree and moves
    states = sorted({base} | {v for s, _, d in edges.values() for v in (s, d)})
    names = dict(zip(states, rng.sample(range(3 * len(states)), len(states))))
    renamed = {eid: (names[s], lab, names[d]) for eid, (s, lab, d) in edges.items()}
    eid, fresh = max(edges, default=-1) + 1, 3 * len(states)
    renamed[eid], renamed[eid + 1] = (names[base], 1, fresh), (fresh + 1, 1, fresh)
    other = SubgroupGraph(g.alphabet, renamed, names[base])
    assert (other.tree, other.moves) == (g.tree, g.moves)
    assert renumber_by_alphabet_scan(g.alphabet, renamed, names[base]) == (g.tree, g.moves)
    check_folded(g)


@settings(max_examples=200, deadline=None)
@given(dependent_generating_sets(), st.randoms(use_true_random=False))
def test_renumbering_matches_the_alphabet_scan_on_folds(case, rng):
    with patch.object(stallings, "SubgroupGraph", RecordedGraph):
        g = build(*case)
    assert_renumbered_as_by_alphabet_scan(g, rng)


def test_renumbering_matches_the_alphabet_scan_on_loops_and_a_deep_circle():
    # a loop at the base, a loop at another state (both of its moves leave that
    # state), a circle whose tree is 512 levels deep, and the lone base
    rng = random.Random(5)
    for gens in ([w("a")], [w("a b a^-1")], [w("a b^-1 a^-1"), w("b^2")], [w("a^1024")], []):
        with patch.object(stallings, "SubgroupGraph", RecordedGraph):
            g = build(gens, F)
        assert_renumbered_as_by_alphabet_scan(g, rng)


def test_an_unfolded_edge_map_is_rejected():
    # two a-edges leave state 0: to state 1, and to state 2 on a cycle with it,
    # so the trim keeps both; then two a-loops at the base
    for edges in ({0: (0, 1, 1), 1: (0, 1, 2), 2: (1, 2, 2)}, {0: (0, 1, 0), 1: (0, 1, 0)}):
        with pytest.raises(VerificationError, match="graph is not folded"):
            SubgroupGraph(F, edges, 0)
        with pytest.raises(VerificationError, match="graph is not folded"):
            renumber_by_alphabet_scan(F, edges, 0)


FIXTURE_C_GRAPHS = tuple(
    ctx.graph_c(side)
    for ctx in (example_one_context(2), example_two_context(2), malnormal_context())
    for side in "AB"
)


def _over(alphabet, ls):
    """The word of letters ls, their indices wrapped into the alphabet."""
    n = len(alphabet)
    return Word(alphabet, [(abs(x) - 1) % n + 1 if x > 0 else -((-x - 1) % n + 1) for x in ls])


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from((None, *range(len(FIXTURE_C_GRAPHS)))),
    generating_lists,
    generating_lists,
    st.booleans(),
    st.lists(st.lists(letters, max_size=6), min_size=4, max_size=4),
)
def test_meet_walk_matches_the_copy_path(fixture, gens1, gens2, same, words):
    # the walk reads ~s K s and the coset ~s K f off K's own graph; the old path
    # copied K to conjugate it and copied both tables to hang the accept word
    alphabet = F if fixture is None else FIXTURE_C_GRAPHS[fixture].alphabet
    K = build([_over(alphabet, ls) for ls in gens1], alphabet)
    if fixture is not None:
        K = FIXTURE_C_GRAPHS[fixture]
    L = K if same else build([_over(alphabet, ls) for ls in gens2], alphabet)
    s1, f1, s2, f2 = (_over(alphabet, ls) for ls in words)
    hit = meet(K, L, (s1.letters, s2.letters), (f1.letters, f2.letters))
    ref = coset_intersection_by_copy(
        conjugate_by_copy(K, s1), ~s1 * f1, conjugate_by_copy(L, s2), ~s2 * f2
    )
    assert (hit is None) == (ref is None)
    if hit is None:
        return
    sub, h = hit
    assert sub.canonical_key() == ref[0].canonical_key()
    h = Word(alphabet, h)
    assert K.contains((s1 * h * ~f1).letters) and L.contains((s2 * h * ~f2).letters)
    # same letter order and the same essential automata: the same shortest word
    assert h == ref[1]


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from((None, *range(len(FIXTURE_C_GRAPHS)))),
    generating_lists,
    st.lists(st.lists(letters, max_size=6), min_size=4, max_size=4),
    st.randoms(use_true_random=False),
)
def test_renumbering_matches_the_alphabet_scan_on_meets(fixture, gens, words, rng):
    # a meet's product states are numbered as the walk reaches them, overlay states
    # included; the second meet pairs each word with itself, so its accept pair is reached
    if fixture is None:
        K = build([_over(F, ls) for ls in gens], F)
    else:
        K = FIXTURE_C_GRAPHS[fixture]
    s1, f1, s2, f2 = (_over(K.alphabet, ls).letters for ls in words)
    with patch.object(stallings, "SubgroupGraph", RecordedGraph):
        hits = [meet(K, K, (s1, s2), (f1, f2)), meet(K, K, (s1, s1), (f1, f1))]
    assert hits[1] is not None
    for hit in filter(None, hits):
        assert_renumbered_as_by_alphabet_scan(hit[0], rng)


def test_coset_intersection_examples():
    # Ka meet Lb: one meet walk from the basepoints with the accept words a and b
    K, L = C(), build([w("a^2")])
    d = w("d").letters
    hit = meet(K, L, accepts=(d, d))
    assert hit is not None
    M, h = hit
    h = Word(F, h)
    assert K.contains((h * ~w("d")).letters) and L.contains((h * ~w("d")).letters)
    assert M.contains(w("a^2").letters) and not M.contains(w("b").letters)
    da = w("d a").letters
    assert meet(K, K, accepts=(da, da)) is not None
    only_a = build([w("a")])
    assert meet(only_a, only_a, accepts=(w("b").letters, d)) is None


def test_coset_intersection_against_enumeration():
    K, L = C(), build([w("a^2"), w("d b")])
    elems_k = subgroup_elements(K, 6)
    elems_l = subgroup_elements(L, 6)
    for a_txt, b_txt in (("d", "d"), ("a", "a b"), ("b d", "d"), ("a", "d")):
        a, b = w(a_txt), w(b_txt)
        hit = meet(K, L, accepts=(a.letters, b.letters))
        brute = {h * a for h in elems_k} & {h * b for h in elems_l}
        if hit is None:
            assert not brute
        else:
            M, h = hit[0], Word(F, hit[1])
            assert K.contains((h * ~a).letters) and L.contains((h * ~b).letters)
            for cand in brute:
                assert M.contains((cand * ~h).letters)


def test_conjugacy_into_examples():
    g = C()
    hit = g.conjugacy_into(w("a^-1 b a").letters)
    assert hit is not None
    h, z = (Word(F, x) for x in hit)
    assert g.contains(h.letters) and ~z * h * z == w("a^-1 b a")
    assert g.conjugacy_into(w("d").letters) is None
    Y = Alphabet(("x", "y", "z"))
    cb = build([parse_word("x", Y), parse_word("y^2", Y)])
    hit2 = cb.conjugacy_into(parse_word("y^2", Y).letters)
    assert hit2 == (parse_word("y^2", Y).letters, ())


def test_conjugacy_into_completeness_small():
    g = C()
    conjugates = {
        ~z * h * z
        for z in reduced_words(F, 3)
        for h in subgroup_elements(g, 4)
    }
    for word in reduced_words(F, 4):
        hit = g.conjugacy_into(word.letters)
        if hit is not None:
            h, z = (Word(F, x) for x in hit)
            assert g.contains(h.letters) and ~z * h * z == word
        if word in conjugates:
            assert hit is not None


def _same_length_other_core(core: Word) -> Word:
    """core with its last letter replaced, still cyclically reduced."""
    ls = core.letters
    if not ls:
        return core
    for lt in (1, -1, 2, -2, 3, -3):
        if lt != ls[-1] and (len(ls) == 1 or -lt not in (ls[-2], ls[0])):
            return Word(F, ls[:-1] + (lt,))


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.lists(letters, min_size=1, max_size=6), min_size=1, max_size=3),
    st.lists(st.tuples(st.integers(0, 2), st.booleans()), max_size=4),
    st.integers(min_value=1, max_value=12),
    st.lists(letters, max_size=6),
    st.integers(min_value=0, max_value=10**6),
)
@example([[1, 1], [2]], [], 1, [3], 0)
@example([[1, 1], [2]], [(0, False), (1, False)], 3, [3, 1], 4)
@example([[1, 2, 3]], [(0, False)], 30, [-2], 47)
def test_cyclic_word_searches_match_the_rotation_scans(gens, picks, power, outer, shift):
    # u is a conjugate of a power of a subgroup element, v a rotation of its
    # core, other an equal-length core that is usually not conjugate to it
    g = build([Word(F, ls) for ls in gens], F)
    element = identity(F)
    for i, inverted in picks:
        x = Word(F, gens[i % len(gens)])
        element = element * (~x if inverted else x)
    z = Word(F, outer)
    u = ~z * element**power * z
    core = Word(F, letters_cyclic_reduce(u.letters)[0])
    r = shift % max(len(core), 1)
    v = Word(F, core.letters[r:] + core.letters[:r])
    other = _same_length_other_core(core)
    for x in (u, v, other, ~u):
        assert g.conjugacy_into(x.letters) == conjugacy_into_by_rotation_scan(g, x.letters)
    for x, y in ((u, v), (v, u), (u, other), (other, v), (u, ~u)):
        expected = free_conjugacy_by_least_rotation(x, y)
        assert free_conjugacy(x, y) == expected
        letters = None if expected is None else expected.letters
        assert letters_conjugator(x.letters, y.letters) == letters


def test_double_transversal_examples():
    g = C()
    ts = g.double_transversal()
    assert ts[0] == w("")
    assert len(ts) == 2
    # soundness: H meets H^t for the nontrivial representative
    t = ts[1]
    assert not meet(conjugate_by_copy(g, t), g)[0].is_trivial()
    assert build([w("b")]).double_transversal() == (w(""),)
    whole = build([w("a"), w("b"), w("d")])
    assert whole.double_transversal() == (w(""),)


def test_double_transversal_completeness_small():
    g = C()
    ts = g.double_transversal()
    for word in reduced_words(F, 5):
        meets = not meet(conjugate_by_copy(g, word), g)[0].is_trivial()
        if not meets:
            continue
        in_some = any(
            meet(g, conjugate_by_copy(g, ~t), accepts=(word.letters, t.letters)) is not None
            for t in ts
        )
        assert in_some, f"{word!r} in N* but outside every double coset"


generator_tuples = st.lists(st.lists(letters, min_size=1, max_size=8), min_size=1, max_size=3)


@settings(max_examples=300, deadline=None)
@given(generator_tuples)
@example([[1, 1], [2]])
@example([[1, 2, -1, -2], [3, 3]])
def test_double_transversal_matches_pairwise_pruning(gens):
    # each cyclic product component is its own double coset, so pruning
    # candidates pairwise keeps every one of them
    g = build([Word(F, ls) for ls in gens], F)
    ts = g.double_transversal()
    assert ts == double_transversal_with_pruning(g)
    for t, t2 in combinations(ts, 2):
        assert meet(g, conjugate_by_copy(g, ~t2), accepts=(t.letters, t2.letters)) is None


@pytest.mark.parametrize(
    "gens, shape, size",
    [
        (["a", "b a b^-1"], "self-loop", 3),
        (["a b^-1", "d a b^-1 d^-1"], "parallel", 3),
        (["a b a", "b^2"], "tree", 2),
    ],
)
def test_transversal_cycle_rule_on_its_edge_cases(gens, shape, size):
    # a product edge whose ends already share a root closes a cycle: a self-loop
    # at once, the second of two parallel edges, and no edge of a tree
    g = build([w(text) for text in gens])
    diag, components = product_components_by_count(g)
    counts = Counter(product_edges(g))
    if shape == "self-loop":  # a lone product state (p, q), p != q, with a loop
        assert any(a == b and a != diag and components.get(a) == (1, 1) for a, b in counts)
    elif shape == "parallel":  # two states joined by two edges and nothing else
        assert any(k == 2 and components.get(a) == (2, 2) for (a, _), k in counts.items())
    else:  # a component off the diagonal with one edge fewer than its states
        assert any(r != diag and 0 < ne == nv - 1 for r, (nv, ne) in components.items())
    ts = g.double_transversal()
    assert len(ts) == size
    assert ts == double_transversal_by_count(g) == double_transversal_with_pruning(g)


def test_constructor_takes_an_untrimmed_edge_map_as_it_is():
    # with no hanging vertex the trim hands back the caller's map and the graph is
    # the one a copy gives; a hanging tree is still trimmed; the map never changes
    g = build([w("a b a^-1 d"), w("b^2")])
    edges = {eid: (s, lab, d) for s, lab, d, eid in g.edges()}
    before = dict(edges)
    assert _trim(edges, g.base)[0] is edges
    same, copy = SubgroupGraph(F, edges, g.base), SubgroupGraph(F, dict(edges), g.base)
    assert (same.nstates, same.tree, same.moves) == (copy.nstates, copy.tree, copy.moves)
    assert (same.nstates, same.tree, same.moves) == (g.nstates, g.tree, g.moves)
    assert edges == before
    lab = next(lab for lab in (1, 2, 3) if g.step(g.base, lab) is None)
    top, other = g.nstates, lab % 3 + 1
    hanging = dict(edges)  # a path of lab out of the base, with a branch of another letter
    hanging[100], hanging[101] = (g.base, lab, top), (top, lab, top + 1)
    hanging[102], hanging[103] = (top + 1, lab, top + 2), (top, other, top + 3)
    before = dict(hanging)
    live = _trim(hanging, g.base)[0]
    assert live is not hanging and live == edges
    trimmed = SubgroupGraph(F, hanging, g.base)
    assert (trimmed.nstates, trimmed.tree, trimmed.moves) == (g.nstates, g.tree, g.moves)
    assert hanging == before


def test_malnormality_flags():
    assert build([w("b")]).is_malnormal()
    assert not C().is_malnormal()
    assert build([w("a"), w("b"), w("d")]).is_malnormal()
    two = Alphabet(("a", "b"))
    assert build([parse_word("b", two)]).is_malnormal()
    assert not build([parse_word("a^2", two), parse_word("b", two)]).is_malnormal()


def test_z_subgroup_examples():
    g = C()
    z = g.z_subgroup(w("a").letters)
    assert z.contains(w("a^2").letters)
    assert not z.contains(w("b").letters)
    z_id = g.z_subgroup(())
    for word in reduced_words(F, 4):
        assert z_id.contains(word.letters) == g.contains(word.letters)
    assert build([w("b")]).z_subgroup(w("a").letters).is_trivial()


def test_z_subgroup_matches_definition():
    g = C()
    t = w("a")
    z = g.z_subgroup(t.letters)
    for word in reduced_words(F, 4):
        expected = g.contains(word.letters) and g.contains((~t * word * t).letters)
        assert z.contains(word.letters) == expected


def test_generalized_normalizer_membership():
    # w in N*(H) iff H meets H^w nontrivially
    g = C()
    assert not meet(conjugate_by_copy(g, w("a")), g)[0].is_trivial()
    assert meet(conjugate_by_copy(g, w("d")), g)[0].is_trivial()
    assert not meet(conjugate_by_copy(g, w("a^2 b")), g)[0].is_trivial()


def test_z_set_examples():
    g = C()
    assert g.z_set_witness(w("a^2").letters) is not None
    assert g.z_set_witness(w("b").letters) is None
    with pytest.raises(NotAMemberError, match=r"^Word\('d'\) is not in the subgroup$"):
        g.z_set_witness(w("d").letters)
    assert build([w("b")]).z_set_witness(w("b").letters) is None
    hit = g.z_set_witness(w("a^2").letters)
    t, target, conj = hit
    assert g.contains(target.letters) and g.contains(conj.letters)
    assert g.contains((~t * target * t).letters)  # target really lies in Z_t
    assert ~conj * target * conj == w("a^2")


RUN_CONTEXTS = (
    lambda: example_one_context(2),
    lambda: example_one_context(3),
    lambda: example_two_context(2),
    malnormal_context,
)


def run_words(rng, g, count):
    """Runs x^k (k up to 300) among single letters; every other word is a basepoint loop."""
    n = len(g.alphabet)
    options = [s * i for i in range(1, n + 1) for s in (1, -1)]
    basis = [loop for _, loop in g.basis_loops()]
    out = []
    for i in range(count):
        letters, size = (), rng.choice((8, 70, 300, 700))
        while len(letters) < size:
            if i % 2:
                block = (rng.choice(options),) * rng.choice((1, 1, 2, 3, rng.randint(1, 300)))
            else:
                block = rng.choice(basis)
                block = block if rng.random() < 0.5 else letters_inverse(block)
                block *= rng.choice((1, 2, rng.randint(1, 300)))
            letters = letters_product(letters, block)
        out.append(letters)
    return out


def test_run_walker_matches_the_letter_by_letter_walk():
    # read, contains, coset_rep and loop_word on both sides of each fixture, from every state
    rng = random.Random(11)
    long_walks = stuck_in_runs = skipped_cycles = loops = 0
    for ctx, side in ((make(), side) for make in RUN_CONTEXTS for side in "AB"):
        g = ctx.graph_c(side)
        images = basis_images_by_generators(ctx, side)
        word_maps = (
            basis_coordinates(g)[1],
            basis_edge_words(g, [img.letters for img in images]),
            g.edge_words,
        )
        for letters in run_words(rng, g, 40):
            long_walks += len(letters) >= 64
            run = max(len(list(r)) for _, r in groupby(letters))
            for s in range(g.nstates):
                end, read, _ = walk_letter_by_letter(g, letters, s)
                want = end if read == len(letters) else None
                assert g.read(letters, s) == (end, read)
                assert g.read(list(letters), s) == (end, read)
                assert s != g.base or g.contains(letters) == (want == s)
                if 0 < read < len(letters) and letters[read] == letters[read - 1]:
                    stuck_in_runs += 1
                skipped_cycles += want is not None and run > g.nstates
            end, read, _ = walk_letter_by_letter(g, letters, g.base)
            path = g.tree_path_letters(end)
            assert g.coset_rep(letters) == (
                path + letters[read:],
                letters_product(letters[:read], letters_inverse(path)),
            )
            for words in word_maps:
                end, read, product = walk_letter_by_letter(g, letters, g.base, words)
                if read == len(letters) and end == g.base:
                    assert g.loop_word(letters, words) == product
                    loops += len(letters) >= 64
                else:
                    with pytest.raises(NotAMemberError) as err:
                        g.loop_word(letters, words)
                    text = f"{Word(g.alphabet, letters)!r} is not in the subgroup"
                    assert str(err.value) == text
    assert long_walks and stuck_in_runs and skipped_cycles and loops


def test_run_walker_matches_the_letter_by_letter_walk_on_whole_input_runs():
    # runs filling the input in both signs, or all of it but the last letter, on every
    # fixture, against edge images whose cycle blocks c W0 ~c cancel into earlier output
    for ctx, side in ((make(), side) for make in RUN_CONTEXTS for side in "AB"):
        g = ctx.graph_c(side)
        n = len(g.alphabet)
        rank = len(g.basis_loops())
        word_maps = (
            basis_coordinates(g)[1],
            basis_edge_words(g, [(9, j + 1, -9) for j in range(rank)]),
            g.edge_words,
        )
        inputs = []
        for x in (s * i for i in range(1, n + 1) for s in (1, -1)):
            others = [y for y in range(-n, n + 1) if y not in (0, x, -x)]
            for k in (64, 65, 127, 1000):
                inputs += [(x,) * k, (x,) * k + (others[0],), (others[-1],) + (x,) * k]
                inputs += [(y,) + (x,) * k + (y,) for y in others]
        for letters in inputs:
            for s in range(g.nstates):
                end, read, _ = walk_letter_by_letter(g, letters, s)
                assert g.read(letters, s) == (end, read)
            end, read, _ = walk_letter_by_letter(g, letters, g.base)
            path = g.tree_path_letters(end)
            assert g.coset_rep(letters) == (
                path + letters[read:],
                letters_product(letters[:read], letters_inverse(path)),
            )
            for words in word_maps:
                end, read, product = walk_letter_by_letter(g, letters, g.base, words)
                if read == len(letters) and end == g.base:
                    assert g.loop_word(letters, words) == product
                else:
                    with pytest.raises(NotAMemberError):
                        g.loop_word(letters, words)


def test_loop_word_cancels_deep_into_a_cycle_block():
    # F(a,b,d) itself: a^q gives the block 5^(2q), and each b d then cancels one 5 of it
    g = build([w("a"), w("b"), w("d")])
    words = basis_edge_words(g, [(5, 5), (-5, 7), (-7,)])
    for q, r in ((40, 0), (40, 30), (40, 80), (40, 81), (3000, 2999), (3000, 6000)):
        letters = (1,) * q + (2, 3) * r + (1, 2, 1)
        _, _, product = walk_letter_by_letter(g, letters, 0, words)
        assert g.loop_word(letters, words) == product
        if r <= 2 * q:  # 5^(2q - r) * 5^2 (-5 7) 5^2
            assert len(product) == 2 * q - r + 4


class SliceRecordingTuple(tuple):
    sliced: list = []

    def __getitem__(self, i):
        if isinstance(i, slice):
            SliceRecordingTuple.sliced.append(len(range(*i.indices(len(self)))))
        return super().__getitem__(i)


def test_a_run_filling_the_input_is_read_without_slicing_it():
    # deterministic: records the letters sliced out of a 10^6-letter run, in both signs
    ctx = example_one_context(2)
    g = ctx.graph_ca
    words = basis_edge_words(g, [img.letters for img in basis_images_by_generators(ctx, "A")])
    for x in (1, 2, -1, -2):
        letters = SliceRecordingTuple((x,) * 10**6)
        SliceRecordingTuple.sliced = []
        assert g.read(letters, g.base) == (g.base, 10**6)
        assert g.contains(letters)
        image = g.loop_word(letters, words)
        assert len(image) == (5 * 10**5 if abs(x) == 1 else 2 * 10**6)
        assert sum(SliceRecordingTuple.sliced) == 0


class CountingDict(dict):
    gets = 0

    def get(self, *args):
        self.gets += 1
        return super().get(*args)


def test_a_run_costs_lookups_per_cycle_not_per_letter():
    # deterministic: counts table lookups, so a fall back to one lookup per letter fails
    ctx = example_one_context(2)
    g = ctx.graph_ca
    g.moves = CountingDict(g.moves)
    assert g.read((2,) * 10**6, 0) == (0, 10**6)
    assert g.moves.gets <= 100
    g.moves.gets = 0
    assert g.contains((2,) * 10**6)
    assert g.moves.gets <= 100
    g.moves.gets = 0
    assert ctx.transfer_letters("A", (1,) * 200_000) == (1,) * 100_000
    assert g.moves.gets <= 100

"""Acceptance suite: one test per criterion, printing a PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

import random
import time
from contextlib import contextmanager

import pytest

from amalgam.cli import bench_paper_ex1, main
from amalgam.cosetalg import transfer
from amalgam.fixtures import example_one_context, example_two_context, malnormal_context
from amalgam.group import (
    CANONICAL,
    RepPolicy,
    classify,
    conjugacy_search,
    cyclic_form,
    form_to_word,
    normal_form,
    principal_system_solve,
)
from amalgam.words import Word, letters_inverse, letters_product, parse_word

from bruteforce import (
    brute_conjugacy_oracle,
    form_sides,
    reduced_words,
    subgroup_elements,
    transfer_word,
)
from conftest import random_reduced
from test_group import insert_relator

ADVERSARIAL = RepPolicy.paper_example_one(2)


@contextmanager
def criterion(number, description):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {number} FAIL  {description}")
        raise
    else:
        elapsed = time.perf_counter() - start
        print(f"criterion {number} PASS  {description}  ({elapsed:.1f}s)")


@pytest.fixture(scope="module")
def ex1():
    return example_one_context(2)


@pytest.fixture(scope="module")
def mal():
    return malnormal_context()


def up(ctx, text):
    return parse_word(text, ctx.union_alphabet)


def test_criterion_1_exponential_blowup():
    with criterion(1, "worst-case blowup is exactly p^(2m); canonical stays bounded"):
        start = time.perf_counter()
        for m in range(1, 6):
            adversarial, canonical = bench_paper_ex1(2, m)
            assert adversarial.final_head_length == 2 ** (2 * m)
            assert canonical.final_head_length <= canonical.notes["head_bound"]
        assert time.perf_counter() - start < 10.0


def test_criterion_2_word_problem_identity():
    with criterion(2, "(b y)^-n a (b y)^n has the normal form of a^(2^n), n = 1..4"):
        start = time.perf_counter()
        ctx = example_two_context(2)
        a = up(ctx, "a")
        by = up(ctx, "b y")
        for n in range(1, 5):
            lhs = ~(by**n) * a * (by**n)
            assert normal_form(ctx, lhs) == normal_form(ctx, a ** (2**n))
        assert time.perf_counter() - start < 10.0


def test_criterion_3_normal_form_uniqueness(ex1):
    with criterion(3, "normal forms invariant under relator insertion, both policies"):
        rng = random.Random(1009)
        failures = 0
        for policy in (CANONICAL, ADVERSARIAL):
            for _ in range(300):
                word = random_reduced(rng, ex1.union_alphabet, rng.randint(0, 10))
                noisy = word
                for _ in range(rng.randint(1, 5)):
                    noisy = insert_relator(rng, ex1, noisy)
                if normal_form(ex1, noisy, policy) != normal_form(ex1, word, policy):
                    failures += 1
        assert failures == 0


def _brute_ps_solutions(ctx, g, h, c_elements):
    """Membership-only propagation of each candidate c through the system."""
    out = set()
    for c in c_elements:
        cur, side = c, "A"
        ok = True
        for p, p2 in reversed(list(zip(g.syllables, h.syllables))):
            if side != p.side:
                cur = transfer_word(ctx, side, cur)
                side = p.side
            cur = p.word * cur * ~p2.word
            if not ctx.graph_c(side).contains(cur.letters):
                ok = False
                break
        if ok:
            out.add(c)
    return out


def test_criterion_4_principal_system_oracle(ex1):
    with criterion(4, "principal-system coset matches brute propagation on 50 pairs"):
        rng = random.Random(4242)
        c_elements = subgroup_elements(ex1.graph_ca, 6)
        factor_words = {
            "A": [w for w in reduced_words(ex1.alphabet_a, 2) if w],
            "B": [w for w in reduced_words(ex1.alphabet_b, 2) if w],
        }
        checked = 0
        mismatches = 0
        while checked < 50:
            k = rng.randint(1, 3)
            sides = ("A", "B") if rng.random() < 0.5 else ("B", "A")
            pattern = [sides[i % 2] for i in range(k)]

            def sample(pattern):
                w = Word(ex1.union_alphabet, ())
                for side in pattern:
                    w = w * ex1.to_union(side, rng.choice(factor_words[side]))
                return normal_form(ex1, w)

            g = sample(pattern)
            h = sample(pattern)
            if g.syllable_length != k or h.syllable_length != k:
                continue
            if form_sides(g) != form_sides(h):
                continue
            checked += 1
            e = principal_system_solve(ex1, g, h)
            brute = _brute_ps_solutions(ex1, g, h, c_elements)
            if e is None:
                if brute:
                    mismatches += 1
                continue
            e_a = e if e.side == "A" else transfer(ex1, e)
            got = {c for c in c_elements if e_a.contains(c.letters)}
            if got != brute:
                mismatches += 1
        assert mismatches == 0


# --- criterion 5: classifier vs definition-level brute oracle -------------------


def _factor_words_upto2(ctx, side):
    return [w for w in reduced_words(ctx.factor_alphabet(side), 2) if w]


def _c_witnesses(ctx, max_len):
    """Nontrivial C-elements up to the given length on each side, as union words."""
    seen = {}
    for side in ("A", "B"):
        for w in subgroup_elements(ctx.graph_c(side), max_len):
            if not w:
                continue
            u = ctx.to_union(side, w)
            seen[u.letters] = u
    return list(seen.values())


def _brute_nstar_factor(ctx, side, w, bound):
    """Definition-level: some nontrivial u in C with w u w^-1 back in C."""
    graph = ctx.graph_c(side)
    for u in subgroup_elements(graph, bound):
        if u and graph.contains((w * u * ~w).letters):
            return True
    return False


def _brute_z_factor(ctx, side, c, bound):
    """Definition-level: some g' outside C conjugates c back into C."""
    graph = ctx.graph_c(side)
    if not c:
        return any(
            not graph.contains(g.letters) and _brute_nstar_factor(ctx, side, g, bound)
            for g in reduced_words(ctx.factor_alphabet(side), bound)
        )
    for g in reduced_words(ctx.factor_alphabet(side), bound):
        if graph.contains(g):
            continue
        if graph.contains(~g * c * g):
            return True
    return False


def _brute_singular(ctx, nf, witnesses):
    k = nf.syllable_length
    if k >= 2:
        # g and ~g once per class as letter tuples, and one Word per sweep of g u ~g
        g = ()
        for side, letters in nf.syllable_letters:
            g = letters_product(g, ctx.union_letters(side, letters))
        g_inverse = letters_inverse(g)
        for u in witnesses:
            gug = letters_product(letters_product(g, u.letters), g_inverse)
            if normal_form(ctx, Word._make(ctx.union_alphabet, gug)).syllable_length == 0:
                return True
        return False
    if k == 1:
        side = nf.syllables[0].side
        return _brute_nstar_factor(ctx, side, nf.syllables[0].word, 5)
    if _brute_z_factor(ctx, "A", nf.head, 5):
        return True
    return _brute_z_factor(ctx, "B", transfer_word(ctx, "A", nf.head), 5)


def test_criterion_5_regularity_classifier(ex1):
    with criterion(5, "classifier agrees with the brute black-hole oracle"):
        assert classify(ex1, up(ex1, "a")).verdict == "singular"
        assert classify(ex1, up(ex1, "b")).verdict == "singular"
        assert classify(ex1, up(ex1, "d")).verdict == "regular"
        # syllables in the reduced-form sense: nonempty factor words outside C
        words_a = [
            ex1.to_union("A", w).letters
            for w in _factor_words_upto2(ex1, "A")
            if not ex1.graph_c("A").contains(w.letters)
        ]
        words_b = [
            ex1.to_union("B", w).letters
            for w in _factor_words_upto2(ex1, "B")
            if not ex1.graph_c("B").contains(w.letters)
        ]
        elements = [()]
        for first, second in ((words_a, words_b), (words_b, words_a)):
            elements.extend(first)
            elements.extend(s1 + s2 for s1 in first for s2 in second)
            elements.extend(
                s1 + s2 + s3 for s1 in first for s2 in second for s3 in first
            )
        witnesses = _c_witnesses(ex1, 5)
        classes = {}
        for letters in elements:
            nf = normal_form(ex1, Word(ex1.union_alphabet, letters))
            k = nf.syllable_length
            if k >= 2:
                key = ("s", tuple((s.side, s.word.letters) for s in nf.syllables))
            elif k == 1:
                key = ("r", nf.syllables[0].side, nf.syllables[0].word.letters)
            else:
                key = ("c", nf.head.letters)
            if key not in classes:
                classes[key] = nf
        disagreements = []
        for key, nf in classes.items():
            expected = _brute_singular(ex1, nf, witnesses)
            got = _classify_key(ex1, nf) == "singular"
            if got != expected:
                disagreements.append((key, got, expected))
        assert not disagreements, disagreements[:5]


def _classify_key(ctx, nf):
    if nf.syllable_length == 1:
        # classify the bare representative; the verdict is constant on CgC
        word = ctx.to_union(nf.syllables[0].side, nf.syllables[0].word)
        return classify(ctx, word).verdict
    if nf.syllable_length == 0:
        return classify(ctx, ctx.to_union(nf.head_side, nf.head)).verdict
    word = Word(ctx.union_alphabet, ())
    for s in nf.syllables:
        word = word * ctx.to_union(s.side, s.word)
    return classify(ctx, word).verdict


# --- criterion 6: conjugacy search on regular inputs ------------------------------


def _random_cyclically_reduced_regular(ctx, rng, min_len=2):
    factor_words = {
        "A": [w for w in reduced_words(ctx.alphabet_a, 2) if w],
        "B": [w for w in reduced_words(ctx.alphabet_b, 2) if w],
    }
    while True:
        k = rng.randint(max(min_len, 2), 4)
        if k % 2:
            k += 1
        sides = ["A", "B"] * (k // 2) if rng.random() < 0.5 else ["B", "A"] * (k // 2)
        w = Word(ctx.union_alphabet, ())
        for side in sides:
            w = w * ctx.to_union(side, rng.choice(factor_words[side]))
        nf = normal_form(ctx, w)
        if nf.syllable_length != k or form_sides(nf)[0] == form_sides(nf)[-1]:
            continue
        if classify(ctx, w).verdict != "regular":
            continue
        return form_to_word(ctx, nf)


def test_criterion_6_conjugacy_on_regular_inputs(ex1):
    with criterion(6, "200 regular conjugate pairs decided; no false conjugates"):
        start = time.perf_counter()
        rng = random.Random(66)
        for _ in range(200):
            g = _random_cyclically_reduced_regular(ex1, rng)
            z = random_reduced(rng, ex1.union_alphabet, rng.randint(0, 4))
            v = ~z * g * z
            out = conjugacy_search(ex1, g, v)
            assert out.tag == "conjugate"
            w = out.conjugator
            assert normal_form(ex1, ~w * g * w) == normal_form(ex1, v)
        confirmed = 0
        while confirmed < 200:
            u = random_reduced(rng, ex1.union_alphabet, rng.randint(1, 5))
            v = random_reduced(rng, ex1.union_alphabet, rng.randint(1, 5))
            if brute_conjugacy_oracle(ex1, u, v, 6) is not None:
                continue
            confirmed += 1
            assert conjugacy_search(ex1, u, v).tag != "conjugate"
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"criterion 6 took {elapsed:.1f}s"


def test_criterion_7_malnormal_shortcut(mal):
    with criterion(7, "malnormal fixture: never undecided; long elements regular"):
        rng = random.Random(77)
        for _ in range(100):
            u = random_reduced(rng, mal.union_alphabet, rng.randint(0, 4))
            v = random_reduced(rng, mal.union_alphabet, rng.randint(0, 4))
            assert conjugacy_search(mal, u, v).tag != "undecided"
        words_a = [w for w in reduced_words(mal.alphabet_a, 2) if w]
        words_b = [w for w in reduced_words(mal.alphabet_b, 2) if w]
        for wa in words_a:
            for wb in words_b:
                word = mal.to_union("A", wa) * mal.to_union("B", wb)
                if normal_form(mal, word).syllable_length >= 2:
                    assert classify(mal, word).verdict == "regular"


def test_criterion_8_honest_partiality(ex1, tmp_path, capsys):
    with criterion(8, "singular length-0 pair is undecided (exit 4); no false negatives"):
        out = conjugacy_search(ex1, up(ex1, "a^2"), up(ex1, "a^-1 a^2 a"))
        assert out.tag == "undecided"
        path = tmp_path / "ex1.group"
        path.write_text("A: a b d\nB: x y z\nC: a^2 = x\nC: b = y^2\n")
        code = main(
            ["conj", "-g", str(path), "-u", "a^2", "-v", "a^-1 a^2 a"]
        )
        capsys.readouterr()
        assert code == 4
        # brute-oracle-confirmed conjugate pairs never come back not-conjugate
        rng = random.Random(88)
        singular_seeds = [up(ex1, "a^2"), up(ex1, "b"), up(ex1, "a"), up(ex1, "y")]
        checked = 0
        for g in singular_seeds * 8:
            z = random_reduced(rng, ex1.union_alphabet, rng.randint(0, 3))
            v = ~z * g * z
            if brute_conjugacy_oracle(ex1, g, v, 6) is None:
                continue
            checked += 1
            assert conjugacy_search(ex1, g, v).tag != "not-conjugate"
        assert checked >= 20
